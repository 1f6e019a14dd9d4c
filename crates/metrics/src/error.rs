//! Pointwise and average error metrics (Metrics 1 and 2 of §II).

use crate::Real;

/// The value range `R_X = x_max − x_min` of a data set, taken over its
/// finite values only: an infinite extreme would make the range (and every
/// metric normalized by it) infinite, so infinities and NaNs are skipped.
/// A constant or empty set, or one without finite values, has range 0.0
/// (callers guard before dividing), and a range beyond `f64::MAX`
/// saturates there. Min and max are exact, so the result does not depend
/// on the order values are visited in.
///
/// This is the one value range of the workspace: the codec resolves
/// relative error bounds with it too.
pub fn value_range<T: Real>(data: &[T]) -> f64 {
    // Independent lanes, so the compares vectorize instead of forming one
    // serial min chain and one max chain.
    const LANES: usize = 8;
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut fold = |lane: usize, v: T| {
        let x = v.to_f64();
        let finite = x.is_finite();
        lo[lane] = if finite && x < lo[lane] { x } else { lo[lane] };
        hi[lane] = if finite && x > hi[lane] { x } else { hi[lane] };
    };
    let chunks = data.chunks_exact(LANES);
    for (lane, &v) in chunks.remainder().iter().enumerate() {
        fold(lane, v);
    }
    for chunk in chunks {
        for (lane, &v) in chunk.iter().enumerate() {
            fold(lane, v);
        }
    }
    let min = lo.into_iter().fold(f64::INFINITY, f64::min);
    let max = hi.into_iter().fold(f64::NEG_INFINITY, f64::max);
    finite_range(min, max)
}

/// The range of finite values whose least and greatest are `min` and
/// `max` (`min > max` when there were none): 0 without finite values,
/// saturated at `f64::MAX`.
fn finite_range(min: f64, max: f64) -> f64 {
    if min > max {
        0.0
    } else {
        (max - min).min(f64::MAX)
    }
}

/// Maximum absolute pointwise error `max_i |x_i − x~_i|`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn max_abs_error<T: Real>(orig: &[T], recon: &[T]) -> f64 {
    assert_eq!(orig.len(), recon.len(), "length mismatch");
    orig.iter()
        .zip(recon)
        .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
        .fold(0.0, f64::max)
}

/// Maximum value-range-based relative error `max_i |x_i − x~_i| / R_X`.
///
/// Returns 0.0 when the data is constant (any reconstruction of constant data
/// is judged by absolute error instead).
///
/// Non-finite values: `R_X` is the finite [`value_range`]. A point whose
/// error is NaN (a NaN on either side, or the same infinity on both) is
/// skipped by the max, so carried-through infinities and NaNs leave the
/// result to the finite points; an infinite error makes it infinite.
pub fn max_rel_error<T: Real>(orig: &[T], recon: &[T]) -> f64 {
    let range = value_range(orig);
    if range == 0.0 {
        0.0
    } else {
        max_abs_error(orig, recon) / range
    }
}

/// Root mean squared error (Eq. 1).
pub fn rmse<T: Real>(orig: &[T], recon: &[T]) -> f64 {
    assert_eq!(orig.len(), recon.len(), "length mismatch");
    if orig.is_empty() {
        return 0.0;
    }
    let sum_sq: f64 = orig
        .iter()
        .zip(recon)
        .map(|(&a, &b)| {
            let e = a.to_f64() - b.to_f64();
            e * e
        })
        .sum();
    (sum_sq / orig.len() as f64).sqrt()
}

/// Normalized RMSE (Eq. 2): `rmse / R_X`.
///
/// Non-finite values: `R_X` is the finite [`value_range`], but every
/// point's error enters the sum, so a NaN error (a NaN on either side, or
/// the same infinity on both) makes the result NaN and an infinite error
/// makes it infinite.
pub fn nrmse<T: Real>(orig: &[T], recon: &[T]) -> f64 {
    let range = value_range(orig);
    if range == 0.0 {
        0.0
    } else {
        rmse(orig, recon) / range
    }
}

/// Peak signal-to-noise ratio in dB (Eq. 3): `20·log10(R_X / rmse)`.
///
/// Returns `f64::INFINITY` for a lossless reconstruction.
///
/// Non-finite values: `R_X` is the finite [`value_range`], while the rmse
/// sums every point's error, so a NaN error (a NaN on either side, or the
/// same infinity on both) makes the result NaN and an infinite error makes
/// it `-inf` dB.
pub fn psnr<T: Real>(orig: &[T], recon: &[T]) -> f64 {
    let range = value_range(orig);
    let e = rmse(orig, recon);
    if e == 0.0 {
        f64::INFINITY
    } else {
        20.0 * (range / e).log10()
    }
}

/// One-pass bundle of the paper's error metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// `max |x − x~|`.
    pub max_abs: f64,
    /// `max |x − x~| / R_X`.
    pub max_rel: f64,
    /// Eq. 1.
    pub rmse: f64,
    /// Eq. 2.
    pub nrmse: f64,
    /// Eq. 3 (dB); infinite for exact reconstruction.
    pub psnr: f64,
    /// Pearson correlation coefficient between original and reconstruction.
    pub pearson: f64,
    /// Original data value range.
    pub range: f64,
}

impl ErrorStats {
    /// Computes all metrics in one pass over the pair of arrays, the
    /// [`value_range`] of `orig` included; non-finite values are treated as
    /// in [`max_rel_error`], [`nrmse`] and [`psnr`].
    ///
    /// # Panics
    /// Panics if lengths differ or the arrays are empty.
    pub fn compute<T: Real>(orig: &[T], recon: &[T]) -> Self {
        assert_eq!(orig.len(), recon.len(), "length mismatch");
        assert!(!orig.is_empty(), "metrics need at least one sample");
        let n = orig.len() as f64;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut max_abs = 0.0f64;
        let mut sum_sq = 0.0f64;
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
        for (&a, &b) in orig.iter().zip(recon) {
            let x = a.to_f64();
            let y = b.to_f64();
            if x.is_finite() {
                min = min.min(x);
                max = max.max(x);
            }
            let e = x - y;
            max_abs = max_abs.max(e.abs());
            sum_sq += e * e;
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
        let range = finite_range(min, max);
        let rmse = (sum_sq / n).sqrt();
        let cov = sxy / n - (sx / n) * (sy / n);
        let var_x = (sxx / n - (sx / n) * (sx / n)).max(0.0);
        let var_y = (syy / n - (sy / n) * (sy / n)).max(0.0);
        let denom = (var_x * var_y).sqrt();
        let pearson = if denom == 0.0 { 1.0 } else { cov / denom };
        Self {
            max_abs,
            max_rel: if range == 0.0 { 0.0 } else { max_abs / range },
            rmse,
            nrmse: if range == 0.0 { 0.0 } else { rmse / range },
            psnr: if rmse == 0.0 {
                f64::INFINITY
            } else {
                20.0 * (range / rmse).log10()
            },
            pearson,
            range,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_arrays_have_zero_error() {
        let a = [1.0f64, 2.0, 3.0];
        assert_eq!(max_abs_error(&a, &a), 0.0);
        assert_eq!(rmse(&a, &a), 0.0);
        assert_eq!(nrmse(&a, &a), 0.0);
        assert_eq!(psnr(&a, &a), f64::INFINITY);
    }

    #[test]
    fn known_rmse() {
        let orig = [0.0f64, 0.0, 0.0, 0.0];
        let recon = [1.0f64, -1.0, 1.0, -1.0];
        assert!((rmse(&orig, &recon) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn psnr_matches_hand_computation() {
        // range 10, rmse 0.1 -> psnr = 20*log10(100) = 40 dB.
        let orig = [0.0f64, 10.0];
        let recon = [0.1f64, 10.0 - 0.1];
        let e = rmse(&orig, &recon);
        assert!((e - 0.1).abs() < 1e-12);
        assert!((psnr(&orig, &recon) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn nrmse_normalizes_by_range() {
        let orig = [0.0f64, 100.0];
        let recon = [1.0f64, 100.0];
        let e = rmse(&orig, &recon);
        assert!((nrmse(&orig, &recon) - e / 100.0).abs() < 1e-15);
    }

    #[test]
    fn max_rel_error_uses_range() {
        let orig = [0.0f32, 50.0, 100.0];
        let recon = [2.0f32, 50.0, 100.0];
        assert!((max_rel_error(&orig, &recon) - 0.02).abs() < 1e-9);
    }

    #[test]
    fn constant_data_has_zero_range_and_defined_metrics() {
        let orig = [5.0f64; 8];
        let recon = [5.0f64; 8];
        assert_eq!(value_range(&orig), 0.0);
        assert_eq!(nrmse(&orig, &recon), 0.0);
        let stats = ErrorStats::compute(&orig, &recon);
        assert_eq!(stats.pearson, 1.0);
    }

    #[test]
    fn error_stats_agrees_with_individual_metrics() {
        let orig: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 12.0).collect();
        let recon: Vec<f64> = orig.iter().map(|x| x + 0.01 * x.cos()).collect();
        let stats = ErrorStats::compute(&orig, &recon);
        assert!((stats.max_abs - max_abs_error(&orig, &recon)).abs() < 1e-12);
        assert!((stats.rmse - rmse(&orig, &recon)).abs() < 1e-12);
        assert!((stats.nrmse - nrmse(&orig, &recon)).abs() < 1e-12);
        assert!((stats.psnr - psnr(&orig, &recon)).abs() < 1e-9);
        assert!((stats.range - value_range(&orig)).abs() < 1e-12);
    }

    #[test]
    fn value_range_skips_non_finite_values() {
        assert_eq!(value_range(&[f32::NAN, 2.0, f32::INFINITY, -1.0]), 3.0);
        assert_eq!(
            value_range(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]),
            0.0
        );
        assert_eq!(value_range::<f64>(&[]), 0.0);
        assert_eq!(value_range(&[-f64::MAX, f64::MAX]), f64::MAX);
        // More values than lanes, extremes in the remainder and the chunks.
        let mut v: Vec<f64> = (0..37).map(|i| i as f64).collect();
        v[3] = f64::INFINITY;
        v[36] = f64::NEG_INFINITY;
        assert_eq!(value_range(&v), 35.0);
    }

    #[test]
    fn carried_infinities_leave_the_relative_error_to_the_finite_points() {
        let orig = [0.0f64, f64::INFINITY, 100.0, f64::NAN];
        let recon = [2.0f64, f64::INFINITY, 100.0, f64::NAN];
        assert!((max_rel_error(&orig, &recon) - 0.02).abs() < 1e-12);
        assert!(nrmse(&orig, &recon).is_nan());
        assert!(psnr(&orig, &recon).is_nan());
        let stats = ErrorStats::compute(&orig, &recon);
        assert_eq!(stats.range, 100.0);
        assert_eq!(stats.max_rel, max_rel_error(&orig, &recon));
    }

    #[test]
    fn f32_inputs_are_accepted() {
        let orig = [1.0f32, 2.0, 3.0];
        let recon = [1.0f32, 2.5, 3.0];
        assert!((max_abs_error(&orig, &recon) - 0.5).abs() < 1e-7);
    }
}
