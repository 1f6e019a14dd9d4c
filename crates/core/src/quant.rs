//! Error-controlled quantization (§IV-A) and the adaptive interval scheme
//! (§IV-B).

use crate::float::ScalarFloat;
use crate::kernel::ScanKernel;
use szr_tensor::Shape;

/// The linear-scaling quantizer of Figure 2.
///
/// Around the prediction ("first-phase predicted value") lie `2^m − 1`
/// disjoint intervals of width `2·eb`, centered at
/// `pred + 2·eb·k, |k| ≤ 2^{m−1} − 1` ("second-phase predicted values").
/// A real value inside interval `k` is coded as `2^{m−1} + k ∈ [1, 2^m − 1]`
/// and reconstructs to the interval center — which is within `eb` by
/// construction. Code 0 is reserved for unpredictable data.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Quantizer {
    /// `2·eb`, the interval width.
    two_eb: f64,
    /// Precomputed `1 / (2·eb)`: the interval search multiplies instead of
    /// dividing, keeping an ~10-cycle divide off the loop-carried
    /// prediction→reconstruction chain the scan serializes on. Zero when
    /// the reciprocal is not usable (subnormal/infinite — degenerate
    /// bounds), which routes [`Quantizer::quantize`] back to the divide.
    inv_two_eb: f64,
    /// `half − ½`: an offset ratio `y` rounds into an interval,
    /// `|round(y)| < half`, exactly when `|y| < limit`.
    limit: f64,
    /// 2^{m−1}: the code of the zero-offset interval.
    half: i64,
}

impl Quantizer {
    /// Creates a quantizer with absolute bound `eb` and `m = bits`
    /// (`2^m − 1` intervals).
    ///
    /// # Panics
    /// Panics if `bits` is outside `2..=30` or `eb` is not positive/finite.
    /// The codec entry points reject such input first
    /// ([`crate::Config::validate`], `resolve_range_eb` for a decorrelation
    /// bound too small to halve, `parse_header` for archives); the analysis
    /// helpers document the condition.
    pub fn new(eb: f64, bits: u32) -> Self {
        assert!((2..=30).contains(&bits), "interval bits must be in 2..=30");
        assert!(eb.is_finite() && eb > 0.0, "error bound must be positive");
        let inv = 1.0 / (2.0 * eb);
        let half = 1i64 << (bits - 1);
        Self {
            two_eb: 2.0 * eb,
            // A subnormal reciprocal would quantize a zero offset to NaN
            // (0 · ∞) or lose precision; those degenerate bounds keep the
            // exact divide.
            inv_two_eb: if inv.is_finite() && inv.is_normal() {
                inv
            } else {
                0.0
            },
            limit: half as f64 - 0.5,
            half,
        }
    }

    /// The offset ratio `diff / (2·eb)` whose rounding is the interval
    /// index, computed by reciprocal multiply on the fast path.
    #[inline(always)]
    fn ratio(&self, diff: f64) -> f64 {
        if self.inv_two_eb != 0.0 {
            diff * self.inv_two_eb
        } else {
            diff / self.two_eb
        }
    }

    /// Alphabet size for the entropy coder: the `2^m − 1` intervals plus
    /// the escape code 0.
    pub fn alphabet(&self) -> usize {
        2 * self.half as usize
    }

    /// Quantizes `value` against `pred`.
    ///
    /// Returns the code and the (f64) reconstruction, or `None` when the
    /// value falls outside every interval. The caller must still verify the
    /// bound after narrowing the reconstruction to the stored float type —
    /// narrow rounding can push a borderline value past `eb`.
    ///
    /// The interval index is `k = round(y)` (ties away from zero) for
    /// `y = (value − pred) / (2·eb)`. Once `|y| < half − ½` is known, `k` is
    /// `trunc(y ± (½ − 2⁻⁵⁴))`, which one integer conversion computes and
    /// which yields the code directly: `f64::round` would be a libm call in
    /// the middle of the scan's loop-carried chain on targets without
    /// SSE4.1. A zero index reconstructs through `+0.0`, as the decoder's
    /// [`Quantizer::reconstruct`] does.
    #[inline(always)]
    pub fn quantize(&self, value: f64, pred: f64) -> Option<(u32, f64)> {
        /// ½ − 2⁻⁵⁴, the largest double below ½: adding it rounds ties up
        /// without pushing `n + ½ − ulp` past `n + 1`.
        const BELOW_HALF: f64 = 0.499_999_999_999_999_94;
        let y = self.ratio(value - pred);
        if y.abs() < self.limit {
            // In range: |y ± ½| < 2^29, so the conversion is exact truncation.
            let k = (y + BELOW_HALF.copysign(y)) as i64;
            Some(((self.half + k) as u32, pred + self.two_eb * k as f64))
        } else {
            // Out of range, or NaN from a non-finite value or prediction:
            // unpredictable storage.
            None
        }
    }

    /// Reconstructs the value encoded by `code` (which must be non-zero).
    #[inline]
    pub fn reconstruct(&self, code: u32, pred: f64) -> f64 {
        debug_assert!(code != 0 && (code as i64) < 2 * self.half);
        pred + self.two_eb * (code as i64 - self.half) as f64
    }

    /// Quantizes `value` against `pred` and narrows the reconstruction to
    /// the stored type: the code and stored reconstruction of a hit, or
    /// `None` when the value misses every interval or its narrowed
    /// reconstruction breaks `narrow_eb` (narrow rounding can push a
    /// borderline value past the bound). Non-finite values miss. The
    /// per-point step of every quantizing scan visitor; a miss is stored
    /// through the escape codec.
    #[inline(always)]
    pub(crate) fn quantize_narrowed<T: ScalarFloat>(
        &self,
        value: T,
        pred: f64,
        narrow_eb: f64,
    ) -> Option<(u32, T)> {
        let v = value.to_f64();
        let (code, r64) = self.quantize(v, pred)?;
        let r = T::from_f64(r64);
        ((v - r.to_f64()).abs() <= narrow_eb).then_some((code, r))
    }
}

/// Deterministic per-index dither in `[-0.5, 0.5)`, used by the
/// error-decorrelation mode (the paper's §VIII future-work item).
///
/// Compressor and decompressor call this with the same flat index, so the
/// dithered reconstruction stays reproducible. The hash is splitmix64.
#[inline]
pub(crate) fn dither_unit(flat: usize) -> f64 {
    let mut h = (flat as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// The adaptive interval-count scheme (§IV-B).
///
/// Samples every `stride`-th point, predicts it from *original* neighbor
/// values with the `n`-layer interior stencil, and picks the smallest `m`
/// whose sampled prediction hitting rate reaches `theta`. Original-value
/// prediction slightly overestimates the achievable rate (Table II), so
/// `theta` defaults to 0.99 — high enough that the chosen `m` stays
/// sufficient after the decompression feedback loop degrades hits.
///
/// Returns a value in `4..=max_bits`.
pub fn choose_interval_bits<T: ScalarFloat>(
    data: &[T],
    shape: &Shape,
    n: usize,
    eb: f64,
    theta: f64,
    stride: usize,
    max_bits: u32,
) -> u32 {
    let mut kernel = ScanKernel::for_shape(n, shape);
    choose_interval_bits_counted(data, shape, &mut kernel, eb, theta, stride, max_bits).0
}

/// [`choose_interval_bits`] through a caller-provided [`ScanKernel`] (the
/// compressor samples through the kernel it then compresses with), plus
/// the number of candidate bit-widths the cumulative hit-rate scan
/// examined before settling — the telemetry layer's
/// `interval_search_iterations` counter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn choose_interval_bits_counted<T: ScalarFloat>(
    data: &[T],
    shape: &Shape,
    kernel: &mut ScanKernel,
    eb: f64,
    theta: f64,
    stride: usize,
    max_bits: u32,
) -> (u32, u64) {
    assert!(max_bits >= 4, "adaptive scheme needs max_bits >= 4");
    // Histogram of bits needed per sample: bucket b counts samples whose
    // |k| fits in 2^(b-1) - 1 but not 2^(b-2) - 1. Only interior points are
    // sampled (the kernel's contract): border prediction is weaker and
    // would bias the estimate pessimistically on thin shells.
    let mut need = vec![0u64; (max_bits + 2) as usize];
    let mut samples = 0u64;
    // The divide/round/abs hit-test runs as a batched pass on the dense
    // row-engine path (`sample_interior_ks`); bucketing stays scalar — it is
    // branchy, order-independent, and off the critical path.
    kernel.sample_interior_ks(shape, data, stride, 2.0 * eb, |k| {
        samples += 1;
        need[bits_needed(k).min(max_bits + 1) as usize] += 1;
    });
    if samples == 0 {
        return (8, 0); // degenerate grid (all border): the paper's 255 intervals
    }
    let mut cum = 0u64;
    let mut iterations = 0u64;
    for bits in 2..=max_bits {
        iterations += 1;
        cum += need[bits as usize];
        if cum as f64 / samples as f64 >= theta {
            return (bits.max(4), iterations);
        }
    }
    (max_bits, iterations)
}

/// The smallest `b ≥ 2` whose `2^b − 1` intervals cover interval index
/// `±k` (`k < 2^(b−1)`), for an integral `k ≥ 0`: read off `k`'s exponent
/// instead of testing one width after another. A NaN needs 2, like every
/// failed comparison; an infinite `k` needs more than any width.
#[inline]
fn bits_needed(k: f64) -> u32 {
    if k.is_nan() || k < 1.0 {
        return 2;
    }
    // floor(log2 k) + 2; the biased exponent of k ≥ 1 is at least 1023.
    ((k.to_bits() >> 52) as u32 & 0x7FF) - 1023 + 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_in_range_and_reconstruct_within_bound() {
        let q = Quantizer::new(0.01, 8);
        let pred = 5.0;
        for value in [5.0, 5.005, 4.98, 5.02, 7.0, 3.5] {
            let (code, recon) = q.quantize(value, pred).unwrap();
            assert!(code >= 1 && (code as usize) < q.alphabet());
            assert!(
                (value - recon).abs() <= 0.01 + 1e-15,
                "value {value} recon {recon}"
            );
        }
    }

    #[test]
    fn out_of_range_values_are_unpredictable() {
        let q = Quantizer::new(0.01, 4);
        // 2^3 - 1 = 7 positive intervals, max offset 7 * 0.02 = 0.14.
        assert!(q.quantize(5.0 + 0.15, 5.0).is_none());
        assert!(q.quantize(5.0 - 0.15, 5.0).is_none());
        assert!(q.quantize(5.0 + 0.13, 5.0).is_some());
    }

    #[test]
    fn reconstruct_inverts_quantize() {
        let q = Quantizer::new(1e-4, 10);
        for i in 0..100 {
            let value = 1.0 + i as f64 * 3.7e-5;
            let (code, recon) = q.quantize(value, 1.0).unwrap();
            assert_eq!(q.reconstruct(code, 1.0), recon);
        }
    }

    #[test]
    fn zero_offset_maps_to_midpoint_code() {
        let q = Quantizer::new(0.1, 8);
        let (code, recon) = q.quantize(2.0, 2.0).unwrap();
        assert_eq!(code, 128); // 2^{m-1}
        assert_eq!(recon, 2.0);
    }

    /// The integer-conversion interval search must pick exactly the
    /// interval `round()` picks — ties, neighbours of ties, both range
    /// edges — and reconstruct to the same value (up to the sign of zero).
    #[test]
    fn quantize_matches_the_round_reference() {
        let reference = |q: &Quantizer, value: f64, pred: f64| -> Option<(u32, f64)> {
            let k = q.ratio(value - pred).round();
            if k.is_nan() || k.abs() >= q.half as f64 {
                return None;
            }
            Some(((q.half + k as i64) as u32, pred + q.two_eb * k))
        };
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            h
        };
        for bits in [2u32, 4, 8, 16, 30] {
            // A power-of-two width makes ratios exact, so ties are hit.
            for eb in [0.5, 0.25, 1e-3, 3.7e-7] {
                let q = Quantizer::new(eb, bits);
                let half = q.half as f64;
                let mut cases = Vec::new();
                for n in [0.0, 1.0, 2.0, 7.0, half - 2.0, half - 1.0, half, half + 1.0] {
                    for y in [n - 0.5, n + 0.5, n, n + 0.25, n - 0.25] {
                        for y in [y, y.next_up(), y.next_down(), -y] {
                            cases.push((y * 2.0 * eb, 0.0));
                        }
                    }
                }
                for _ in 0..20_000 {
                    let r = next();
                    let pred = (r >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0;
                    let scale = [1e-3, 1.0, half, half * 4.0][(r & 3) as usize];
                    let y = ((next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0) * scale;
                    cases.push((pred + y * 2.0 * eb, pred));
                }
                cases.extend([
                    (f64::NAN, 0.0),
                    (1.0, f64::NAN),
                    (f64::INFINITY, 0.0),
                    (0.0, f64::NEG_INFINITY),
                    (-0.0, 0.0),
                    (0.0, -0.0),
                ]);
                for (value, pred) in cases {
                    let got = q.quantize(value, pred);
                    let want = reference(&q, value, pred);
                    assert_eq!(
                        got.map(|(c, _)| c),
                        want.map(|(c, _)| c),
                        "bits {bits} eb {eb} value {value:e} pred {pred:e}"
                    );
                    if let (Some((_, a)), Some((_, b))) = (got, want) {
                        assert!(a == b, "recon {a:e} vs {b:e}");
                    }
                }
            }
        }
    }

    /// The batched decode helper agrees with its per-point formula: escape
    /// counts with a filter over lengths around every vector width.
    #[test]
    fn batched_helpers_match_per_point_formulas() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33] {
            let codes: Vec<u32> = (0..n as u32)
                .map(|i| i.wrapping_mul(2_654_435_761) % 5)
                .collect();
            let want = codes.iter().filter(|&&c| c == 0).count();
            assert_eq!(crate::compress::count_escapes(&codes), want, "n {n}");
        }
    }

    /// The exponent read-off agrees with testing each width in turn.
    #[test]
    fn bits_needed_matches_the_width_scan() {
        let scan = |k: f64| {
            let mut b = 2u32;
            while b <= 40 && k >= (1i64 << (b - 1)) as f64 {
                b += 1;
            }
            b
        };
        let mut ks = vec![0.0, 1.0, 2.0, 3.0, 4.0, f64::NAN, f64::INFINITY, 1e300];
        for e in 0..40 {
            let p = (1u64 << e) as f64;
            ks.extend([p - 1.0, p, p + 1.0]);
        }
        for k in ks {
            assert_eq!(bits_needed(k).min(41), scan(k).min(41), "k = {k}");
        }
    }

    #[test]
    fn nan_value_is_unpredictable_not_a_panic() {
        let q = Quantizer::new(0.1, 8);
        assert!(q.quantize(f64::NAN, 1.0).is_none());
    }

    #[test]
    fn interval_count_matches_paper_configurations() {
        // The paper's named configurations: 15, 63, 255, 511, 2047, 4095,
        // 16383, 65535 intervals.
        for (bits, intervals) in [
            (4u32, 15u32),
            (6, 63),
            (8, 255),
            (9, 511),
            (12, 4095),
            (16, 65535),
        ] {
            assert_eq!(Quantizer::new(0.1, bits).alphabet() - 1, intervals as usize);
        }
    }

    #[test]
    fn adaptive_scheme_picks_small_m_for_smooth_data() {
        // Linear data: perfectly predicted, so minimal m suffices.
        let shape = Shape::new(&[64, 64]);
        let data: Vec<f32> = (0..shape.len()).map(|i| i as f32 * 0.001).collect();
        let bits = choose_interval_bits(&data, &shape, 1, 1e-3, 0.99, 1, 16);
        assert_eq!(bits, 4);
    }

    #[test]
    fn adaptive_scheme_grows_m_for_rough_data() {
        // White noise at amplitude >> eb: prediction misses constantly, so
        // the scheme escalates towards max_bits.
        let shape = Shape::new(&[64, 64]);
        let data: Vec<f32> = (0..shape.len())
            .map(|i| ((i * 2_654_435_761) % 1000) as f32)
            .collect();
        let smooth_bits = choose_interval_bits(&data, &shape, 1, 100.0, 0.99, 1, 16);
        let rough_bits = choose_interval_bits(&data, &shape, 1, 0.01, 0.99, 1, 16);
        assert!(
            rough_bits > smooth_bits,
            "rough {rough_bits} should exceed smooth {smooth_bits}"
        );
    }
}
