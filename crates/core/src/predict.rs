//! The multilayer multidimensional prediction model (§III of the paper).
//!
//! For a point at `x⃗` the n-layer predictor combines the `(n+1)^d − 1`
//! preceding neighbors in the cube `x⃗ − [0, n]^d` (the *n-layer data subset*
//! `S^n`) with the closed-form coefficients of Eq. 11:
//!
//! ```text
//! f(x⃗) = Σ_{k⃗ ∈ [0,n]^d, k⃗≠0}  −∏_j (−1)^{k_j} C(n, k_j) · V(x⃗ − k⃗)
//! ```
//!
//! Theorem 1 of the paper shows this equals the value at `x⃗` of the
//! polynomial surface of order `2n−1` through the neighbors, so the predictor
//! is exact on polynomial data (a property the tests exploit). `n = 1`
//! recovers the Lorenzo predictor; `n = 1, d = 1` is a simple
//! previous-neighbor predictor.
//!
//! **Boundary handling.** Near the low edges of the grid a full n-layer cube
//! does not exist. We shrink the layer count per axis to
//! `n_j = min(n, x_j)`; the tensor-product coefficient formula
//! `−∏_j (−1)^{k_j} C(n_j, k_j)` remains a valid finite-difference predictor
//! (exact for per-axis degree < n_j), which is how the reference SZ-1.4
//! implementation degrades to 1-D prediction on its first rows/columns. A
//! point with all `n_j = 0` (the very first point) has an empty stencil and
//! predicts 0.

use crate::float::ScalarFloat;
use std::collections::HashMap;

/// Binomial coefficient with i64 range (layer counts are tiny).
fn binomial(n: usize, k: usize) -> i64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num = 1i64;
    let mut den = 1i64;
    for i in 0..k {
        num *= (n - i) as i64;
        den *= (i + 1) as i64;
    }
    num / den
}

/// The Eq. 11 coefficient for neighbor offset `ks`, with per-axis layer
/// counts `n_eff` (all equal to `n` in the interior).
///
/// Returns 0 for the excluded all-zero offset.
pub fn layer_coefficients(n_eff: &[usize], ks: &[usize]) -> f64 {
    debug_assert_eq!(n_eff.len(), ks.len());
    if ks.iter().all(|&k| k == 0) {
        return 0.0;
    }
    let mut prod = 1i64;
    for (&n, &k) in n_eff.iter().zip(ks) {
        let sign = if k % 2 == 0 { 1 } else { -1 };
        prod *= sign * binomial(n, k);
    }
    -(prod as f64)
}

/// A materialized prediction stencil: flat-offset / coefficient pairs.
///
/// Offsets are *subtracted* from the current flat position; because the scan
/// is row-major and all neighbor offsets are non-negative in every axis, all
/// referenced positions precede the current point.
///
/// **Canonical term order.** Terms that touch a *finished row* (any nonzero
/// offset along a non-last axis) come first, in lexicographic Eq. 11 offset
/// order; the in-row terms (pure last-axis offsets, the loop-carried
/// neighbors of a row-major scan) come last, also lexicographic. Putting the
/// in-row terms last is what lets the scan engine sum the finished-row
/// prefix on its own and add the loop-carried tail afterwards with
/// *bit-identical* floating-point results: every evaluator — [`predict_at`],
/// the closed-form kernels, the wavefront scan and the batched row passes —
/// accumulates the same terms in the same order.
#[derive(Debug, Clone, PartialEq)]
pub struct Stencil {
    terms: Vec<(usize, f64)>,
    /// Terms `[..prior_len]` read finished rows; `[prior_len..]` are the
    /// in-row (pure last-axis) loop-carried terms.
    prior_len: usize,
}

impl Stencil {
    /// Builds the stencil for per-axis layers `n_eff` on a grid with the
    /// given row-major `strides`.
    pub fn build(n_eff: &[usize], strides: &[usize]) -> Self {
        assert_eq!(n_eff.len(), strides.len());
        let d = n_eff.len();
        let mut prior = Vec::new();
        let mut row = Vec::new();
        let mut ks = vec![0usize; d];
        'outer: loop {
            let coeff = layer_coefficients(n_eff, &ks);
            if coeff != 0.0 {
                let off: usize = ks.iter().zip(strides).map(|(&k, &s)| k * s).sum();
                // In-row terms have every non-last coordinate zero; with
                // d = 1 every term is in-row.
                if ks[..d - 1].iter().all(|&k| k == 0) {
                    row.push((off, coeff));
                } else {
                    prior.push((off, coeff));
                }
            }
            // Advance ks over the box [0, n_eff].
            for i in (0..d).rev() {
                ks[i] += 1;
                if ks[i] <= n_eff[i] {
                    continue 'outer;
                }
                ks[i] = 0;
            }
            break;
        }
        let prior_len = prior.len();
        prior.extend_from_slice(&row);
        Self {
            terms: prior,
            prior_len,
        }
    }

    /// Number of participating neighbors.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True for the first-point stencil (no usable neighbors).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The (offset, coefficient) pairs, canonical order (see type docs).
    pub fn terms(&self) -> &[(usize, f64)] {
        &self.terms
    }

    /// The row-invariant prefix: every term whose neighbor lies in an
    /// already-finished row. For a row-major scan these are batchable into a
    /// partial-sum pass.
    pub fn prior_terms(&self) -> &[(usize, f64)] {
        &self.terms[..self.prior_len]
    }

    /// The loop-carried suffix: pure last-axis offsets, read from the
    /// current (in-progress) row.
    pub fn row_terms(&self) -> &[(usize, f64)] {
        &self.terms[self.prior_len..]
    }
}

/// Evaluates a stencil against the reconstruction buffer at flat position
/// `flat`.
#[inline]
pub fn predict_at<T: ScalarFloat>(recon: &[T], flat: usize, stencil: &Stencil) -> f64 {
    let mut acc = 0.0f64;
    for &(off, coeff) in &stencil.terms {
        acc += coeff * recon[flat - off].to_f64();
    }
    acc
}

/// Caches stencils per boundary class so the scan loop does no rebuild work
/// in the interior.
///
/// A point's class is its clamped per-axis layer vector
/// `(min(n, x_1), …, min(n, x_d))`; there are at most `(n+1)^d` classes and
/// all but one only occur in a thin shell near the low boundary.
pub struct StencilSet {
    n: usize,
    strides: Vec<usize>,
    interior: Stencil,
    /// Border stencils keyed by packed class id (4 bits per axis): lookups
    /// — one per border point, every scan — stay allocation-free, which
    /// the codec session's steady-state zero-allocation guarantee relies
    /// on. Exact only when the packing fits a `u64` (see [`Self::packable`]).
    border: HashMap<u64, Stencil>,
    /// Exact fallback cache for grids the packed id cannot represent
    /// (rank > 16 or n > 14): correctness over lookup allocation there.
    border_wide: HashMap<Vec<usize>, Stencil>,
}

impl StencilSet {
    /// Prepares stencils for an `n`-layer predictor on a grid with the given
    /// strides.
    pub fn new(n: usize, strides: &[usize]) -> Self {
        let d = strides.len();
        Self {
            n,
            strides: strides.to_vec(),
            interior: Stencil::build(&vec![n; d], strides),
            border: HashMap::new(),
            border_wide: HashMap::new(),
        }
    }

    /// True when every class vector packs injectively into a `u64`: one
    /// 4-bit nibble per axis (digits are `min(x, n) ≤ n`, so `n ≤ 14`
    /// leaves the all-interior digit 15 unreachable), 16 axes per word.
    #[inline]
    fn packable(&self, rank: usize) -> bool {
        rank <= 16 && self.n <= 14
    }

    /// Packs a clamped per-axis layer vector into one integer; only called
    /// when [`Self::packable`] holds, so nibbles cannot collide or wrap.
    #[inline]
    fn class_id(&self, index: &[usize]) -> u64 {
        index
            .iter()
            .fold(0u64, |id, &x| (id << 4) | x.min(self.n) as u64)
    }

    /// Returns the stencil for the point at `index`.
    #[inline]
    pub fn for_index(&mut self, index: &[usize]) -> &Stencil {
        if index.iter().all(|&x| x >= self.n) {
            return &self.interior;
        }
        let (n, strides) = (self.n, &self.strides);
        if self.packable(index.len()) {
            let id = self.class_id(index);
            self.border.entry(id).or_insert_with(|| {
                let class: Vec<usize> = index.iter().map(|&x| x.min(n)).collect();
                Stencil::build(&class, strides)
            })
        } else {
            let class: Vec<usize> = index.iter().map(|&x| x.min(n)).collect();
            self.border_wide
                .entry(class.clone())
                .or_insert_with(|| Stencil::build(&class, strides))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Coefficient of V(i0 - k1, j0 - k2) for a 2-D n-layer predictor.
    fn coeff_2d(n: usize, k1: usize, k2: usize) -> f64 {
        layer_coefficients(&[n, n], &[k1, k2])
    }

    #[test]
    fn table1_one_layer_matches_lorenzo() {
        assert_eq!(coeff_2d(1, 0, 1), 1.0);
        assert_eq!(coeff_2d(1, 1, 0), 1.0);
        assert_eq!(coeff_2d(1, 1, 1), -1.0);
    }

    #[test]
    fn table1_two_layer_coefficients() {
        // Paper Table I, 2-layer row.
        assert_eq!(coeff_2d(2, 1, 0), 2.0);
        assert_eq!(coeff_2d(2, 0, 1), 2.0);
        assert_eq!(coeff_2d(2, 1, 1), -4.0);
        assert_eq!(coeff_2d(2, 2, 0), -1.0);
        assert_eq!(coeff_2d(2, 0, 2), -1.0);
        assert_eq!(coeff_2d(2, 2, 1), 2.0);
        assert_eq!(coeff_2d(2, 1, 2), 2.0);
        assert_eq!(coeff_2d(2, 2, 2), -1.0);
    }

    #[test]
    fn table1_three_layer_coefficients() {
        // Paper Table I, 3-layer row (spot checks of every magnitude).
        assert_eq!(coeff_2d(3, 1, 0), 3.0);
        assert_eq!(coeff_2d(3, 1, 1), -9.0);
        assert_eq!(coeff_2d(3, 2, 0), -3.0);
        assert_eq!(coeff_2d(3, 2, 1), 9.0);
        assert_eq!(coeff_2d(3, 2, 2), -9.0);
        assert_eq!(coeff_2d(3, 3, 0), 1.0);
        assert_eq!(coeff_2d(3, 3, 1), -3.0);
        assert_eq!(coeff_2d(3, 3, 2), 3.0);
        assert_eq!(coeff_2d(3, 3, 3), -1.0);
    }

    #[test]
    fn table1_four_layer_coefficients() {
        // Paper Table I, 4-layer row.
        assert_eq!(coeff_2d(4, 1, 0), 4.0);
        assert_eq!(coeff_2d(4, 1, 1), -16.0);
        assert_eq!(coeff_2d(4, 2, 0), -6.0);
        assert_eq!(coeff_2d(4, 2, 1), 24.0);
        assert_eq!(coeff_2d(4, 2, 2), -36.0);
        assert_eq!(coeff_2d(4, 3, 0), 4.0);
        assert_eq!(coeff_2d(4, 3, 1), -16.0);
        assert_eq!(coeff_2d(4, 3, 2), 24.0);
        assert_eq!(coeff_2d(4, 3, 3), -16.0);
        assert_eq!(coeff_2d(4, 4, 0), -1.0);
        assert_eq!(coeff_2d(4, 4, 1), 4.0);
        assert_eq!(coeff_2d(4, 4, 2), -6.0);
        assert_eq!(coeff_2d(4, 4, 3), 4.0);
        assert_eq!(coeff_2d(4, 4, 4), -1.0);
    }

    #[test]
    fn coefficients_sum_to_one() {
        // Exactness on constants requires Σ coeff = 1 for any n, d.
        for d in 1..=3usize {
            for n in 1..=4usize {
                let stencil = Stencil::build(&vec![n; d], &vec![1; d]);
                let sum: f64 = stencil.terms().iter().map(|&(_, c)| c).sum();
                assert!(
                    (sum - 1.0).abs() < 1e-12,
                    "d={d} n={n}: coefficient sum {sum}"
                );
            }
        }
    }

    #[test]
    fn stencil_term_count_matches_paper() {
        // n-layer 2-D stencil uses n(n+2) points.
        for n in 1..=4usize {
            let s = Stencil::build(&[n, n], &[100, 1]);
            assert_eq!(s.len(), n * (n + 2));
        }
    }

    #[test]
    fn predictor_is_exact_on_polynomials() {
        // The n-layer surface has order 2n-1; test that a degree-(2n-1)
        // bivariate polynomial is predicted exactly.
        for n in 1..=3usize {
            let deg = 2 * n - 1;
            let poly = |i: f64, j: f64| -> f64 {
                let mut acc = 0.0;
                for p in 0..=deg {
                    for q in 0..=(deg - p) {
                        acc +=
                            0.37 * ((p * 3 + q) as f64 + 1.0) * i.powi(p as i32) * j.powi(q as i32)
                                / 50.0f64.powi((p + q) as i32);
                    }
                }
                acc
            };
            let (rows, cols) = (12usize, 12usize);
            let data: Vec<f64> = (0..rows * cols)
                .map(|f| poly((f / cols) as f64, (f % cols) as f64))
                .collect();
            let stencil = Stencil::build(&[n, n], &[cols, 1]);
            // Interior points only.
            for i in n..rows {
                for j in n..cols {
                    let flat = i * cols + j;
                    let pred = predict_at(&data, flat, &stencil);
                    assert!(
                        (pred - data[flat]).abs() < 1e-6 * (1.0 + data[flat].abs()),
                        "n={n} at ({i},{j}): pred {pred} vs {}",
                        data[flat]
                    );
                }
            }
        }
    }

    #[test]
    fn predictor_is_exact_on_3d_separable_data() {
        // The 1-layer tensor-product predictor annihilates any term of
        // degree 0 in at least one axis (Δ_x Δ_y Δ_z kills it); a full
        // i·j·k term is the counterexample and is excluded.
        let f = |i: f64, j: f64, k: f64| {
            2.0 + 0.5 * i - 1.5 * j + 0.25 * k + 0.1 * i * j - 0.2 * j * k + 0.05 * i * k
        };
        let (d0, d1, d2) = (6usize, 6usize, 6usize);
        let data: Vec<f64> = (0..d0 * d1 * d2)
            .map(|flat| {
                let i = flat / (d1 * d2);
                let j = (flat / d2) % d1;
                let k = flat % d2;
                f(i as f64, j as f64, k as f64)
            })
            .collect();
        let stencil = Stencil::build(&[1, 1, 1], &[d1 * d2, d2, 1]);
        assert_eq!(stencil.len(), 7);
        for i in 1..d0 {
            for j in 1..d1 {
                for k in 1..d2 {
                    let flat = i * d1 * d2 + j * d2 + k;
                    let pred = predict_at(&data, flat, &stencil);
                    assert!((pred - data[flat]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn boundary_classes_shrink_layers() {
        let mut set = StencilSet::new(2, &[10, 1]);
        // First point: empty stencil, predicts 0.
        assert!(set.for_index(&[0, 0]).is_empty());
        // First row: 1-D prediction along the row.
        let first_row = set.for_index(&[0, 5]).clone();
        let expect_1d = Stencil::build(&[0, 2], &[10, 1]);
        assert_eq!(first_row, expect_1d);
        // Interior: full 2-layer stencil (2*(2+2) = 8 points).
        assert_eq!(set.for_index(&[5, 5]).len(), 8);
    }

    #[test]
    fn high_rank_border_classes_stay_exact() {
        // Rank 17 cannot pack one nibble per axis into a u64: the wide
        // fallback cache must keep distinct border classes distinct (a
        // packed id would wrap and collide them). n = 1 keeps the interior
        // stencil (2^d terms) buildable.
        let d = 17;
        let strides: Vec<usize> = (0..d).map(|i| 1usize << (d - 1 - i)).collect();
        let mut set = StencilSet::new(1, &strides);
        let origin = set.for_index(&vec![0usize; d]).clone();
        let mut ix = vec![0usize; d];
        ix[d - 1] = 1;
        let off_axis = set.for_index(&ix).clone();
        assert_ne!(origin, off_axis);
        // Repeat lookups hit the cache and agree with the first answer.
        assert_eq!(*set.for_index(&ix), off_axis);
    }

    #[test]
    fn canonical_order_puts_finished_row_terms_first() {
        // 2-D Lorenzo: prior = {(s, +1), (s+1, −1)}, in-row = {(1, +1)}.
        let s = Stencil::build(&[1, 1], &[10, 1]);
        assert_eq!(s.prior_terms(), &[(10, 1.0), (11, -1.0)]);
        assert_eq!(s.row_terms(), &[(1, 1.0)]);
        assert_eq!(s.terms(), &[(10, 1.0), (11, -1.0), (1, 1.0)]);
        // 1-D: everything is in-row.
        let s = Stencil::build(&[2], &[1]);
        assert!(s.prior_terms().is_empty());
        assert_eq!(s.row_terms(), &[(1, 2.0), (2, -1.0)]);
        // 3-D two-layer: 26 terms, the two pure last-axis ones at the end.
        let s = Stencil::build(&[2, 2, 2], &[100, 10, 1]);
        assert_eq!(s.len(), 26);
        assert_eq!(s.row_terms(), &[(1, 2.0), (2, -1.0)]);
        assert_eq!(s.prior_terms().len(), 24);
    }

    #[test]
    fn binomials() {
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(4, 0), 1);
        assert_eq!(binomial(4, 4), 1);
        assert_eq!(binomial(3, 5), 0);
    }
}
