//! Property tests for metric identities.

use crate::*;
use proptest::prelude::*;

fn arb_series() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 2..200)
}

proptest! {
    #[test]
    fn psnr_increases_as_noise_shrinks(orig in arb_series(), scale in 0.01f64..0.5) {
        prop_assume!(value_range(&orig) > 1e-6);
        let noisy: Vec<f64> = orig.iter().enumerate()
            .map(|(i, x)| x + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let less_noisy: Vec<f64> = orig.iter().enumerate()
            .map(|(i, x)| x + scale * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        prop_assert!(psnr(&orig, &less_noisy) > psnr(&orig, &noisy));
    }

    #[test]
    fn rmse_never_exceeds_max_abs_error(orig in arb_series(), noise in arb_series()) {
        let n = orig.len().min(noise.len());
        let recon: Vec<f64> = orig[..n].iter().zip(&noise[..n]).map(|(a, b)| a + b * 1e-3).collect();
        let e_max = max_abs_error(&orig[..n], &recon);
        let e_rmse = rmse(&orig[..n], &recon);
        prop_assert!(e_rmse <= e_max + 1e-12);
    }

    #[test]
    fn pearson_is_shift_and_scale_invariant(x in arb_series(), a in 0.1f64..10.0, b in -100.0f64..100.0) {
        prop_assume!(value_range(&x) > 1e-6);
        let y: Vec<f64> = x.iter().map(|v| a * v + b).collect();
        prop_assert!((pearson(&x, &y) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_is_bounded(x in arb_series(), y in arb_series()) {
        let n = x.len().min(y.len());
        let r = pearson(&x[..n], &y[..n]);
        prop_assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn autocorrelation_is_bounded(x in arb_series()) {
        for (lag, &v) in autocorrelation(&x, 10).iter().enumerate() {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&v), "lag {} value {}", lag + 1, v);
        }
    }

    #[test]
    fn cf_br_identity_f32(n in 1usize..100_000, comp in 1usize..1_000_000) {
        let cf = compression_factor(n * 4, comp);
        let br = bit_rate(comp, n);
        prop_assert!((br * cf - 32.0).abs() < 1e-6);
    }

    #[test]
    fn error_stats_matches_components(orig in arb_series()) {
        let recon: Vec<f64> = orig.iter().map(|x| x * (1.0 + 1e-6)).collect();
        let s = ErrorStats::compute(&orig, &recon);
        prop_assert!((s.max_abs - max_abs_error(&orig, &recon)).abs() <= 1e-12 * (1.0 + s.max_abs));
        prop_assert!((s.rmse - rmse(&orig, &recon)).abs() <= 1e-12 * (1.0 + s.rmse));
        prop_assert_eq!(s.range, value_range(&orig));
    }
}
