//! Analysis helpers behind the paper's Table II and Figures 3–4.

use crate::float::ScalarFloat;
use crate::kernel::{RowVisitor, ScanKernel};
use crate::quant::Quantizer;
use szr_tensor::Tensor;

/// Which values feed the predictor during a hit-rate measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionBasis {
    /// Predict from the original data (Table II column `R^orig_PH`).
    ///
    /// Not realizable in a real compressor — the decompressor has no
    /// originals — but it isolates the predictor's intrinsic accuracy.
    Original,
    /// Predict from reconstructed values (Table II column `R^decomp_PH`),
    /// i.e. with the compression-error feedback loop the paper analyzes in
    /// §III-B.
    Decompressed,
}

/// Measures the n-layer prediction hitting rate at bound `eb`.
///
/// A point is a *hit* when `|value − prediction| ≤ eb` (the paper's
/// "predictable data" definition in §III-B). For
/// [`PredictionBasis::Decompressed`] each point is replaced by its
/// quantized reconstruction (`pred + 2·eb·round(diff/2eb)`) before later
/// points are predicted, reproducing exactly the feedback degradation that
/// makes n = 1 the best practical layer count.
pub fn hit_rate_by_layer<T: ScalarFloat>(
    data: &Tensor<T>,
    layers: usize,
    eb: f64,
    basis: PredictionBasis,
) -> f64 {
    assert!(eb > 0.0, "error bound must be positive");
    let shape = data.shape();
    let values = data.as_slice();
    let mut kernel = ScanKernel::for_shape(layers, shape);

    let hits = match basis {
        PredictionBasis::Original => {
            // Row-granular read-only scan: interior rows arrive as fully
            // materialized prediction slices, so the hit test is one tight
            // loop per row; no input copy (the planner hammers this path).
            let mut border_hits = 0usize;
            let mut row_hits = 0usize;
            kernel.readonly_rows(
                shape,
                values,
                |flat, pred| {
                    if (values[flat].to_f64() - pred).abs() <= eb {
                        border_hits += 1;
                    }
                },
                |flat, preds| {
                    let row = &values[flat..flat + preds.len()];
                    for (v, &pred) in row.iter().zip(preds) {
                        row_hits += usize::from((v.to_f64() - pred).abs() <= eb);
                    }
                },
            );
            border_hits + row_hits
        }
        PredictionBasis::Decompressed => {
            let mut recon: Vec<T> = vec![T::from_f64(0.0); values.len()];
            let mut visitor = HitRateRows {
                values,
                eb,
                hits: 0,
            };
            match kernel.scan_rows(shape, &mut recon, &mut visitor) {
                Ok(()) => {}
                Err(e) => match e {},
            }
            visitor.hits
        }
    };
    hits as f64 / values.len() as f64
}

/// Row visitor for the decompressed-basis hit-rate measurement: unbounded-
/// interval quantization feedback (the reconstruction every real
/// configuration would store, minus the escape path), isolating feedback
/// effects from interval-count effects.
struct HitRateRows<'a, T: ScalarFloat> {
    values: &'a [T],
    eb: f64,
    hits: usize,
}

impl<T: ScalarFloat> HitRateRows<'_, T> {
    #[inline]
    fn measure(&mut self, value: T, pred: f64) -> T {
        let v64 = value.to_f64();
        if (v64 - pred).abs() <= self.eb {
            self.hits += 1;
        }
        let k = ((v64 - pred) / (2.0 * self.eb)).round();
        let r = T::from_f64(pred + 2.0 * self.eb * k);
        if (v64 - r.to_f64()).abs() <= self.eb {
            r
        } else {
            value // fall back to exact storage, as the escape path would
        }
    }
}

impl<T: ScalarFloat> RowVisitor<T> for HitRateRows<'_, T> {
    type Error = std::convert::Infallible;

    fn point(&mut self, flat: usize, pred: f64) -> T {
        self.measure(self.values[flat], pred)
    }
}

/// Runs the real pipeline and returns the quantization-code histogram
/// (Figure 3): `hist[c]` counts code `c`; index 0 is the unpredictable
/// escape code.
///
/// `interval_bits` may go up to 30 here, past the `2..=28` a compress
/// entry point accepts ([`crate::IntervalMode`]): no archive is written, so
/// the decoder's 2^28-symbol alphabet bound does not apply.
///
/// # Panics
/// Panics unless `eb` is finite and positive and `interval_bits` is in
/// `2..=30`.
pub fn quantization_histogram<T: ScalarFloat>(
    data: &Tensor<T>,
    layers: usize,
    eb: f64,
    interval_bits: u32,
) -> Vec<u64> {
    let mut kernel = ScanKernel::for_shape(layers, data.shape());
    quantization_histogram_buffered(data, &mut kernel, eb, interval_bits, &mut Vec::new())
}

/// [`quantization_histogram`] through a caller-provided kernel and
/// reconstruction scratch buffer — the body behind
/// [`crate::CodecSession::quantization_histogram`], where the planner's
/// repeated pricing passes reuse one kernel and one allocation.
pub(crate) fn quantization_histogram_buffered<T: ScalarFloat>(
    data: &Tensor<T>,
    kernel: &mut ScanKernel,
    eb: f64,
    interval_bits: u32,
    recon: &mut Vec<T>,
) -> Vec<u64> {
    let shape = data.shape();
    let values = data.as_slice();
    let quantizer = Quantizer::new(eb, interval_bits);
    recon.clear();
    recon.resize(values.len(), T::from_f64(0.0));
    let mut visitor = HistogramRows {
        values,
        eb,
        quantizer,
        hist: vec![0u64; quantizer.alphabet()],
    };
    match kernel.scan_rows(shape, recon, &mut visitor) {
        Ok(()) => {}
        Err(e) => match e {},
    }
    visitor.hist
}

/// Row visitor for the code-histogram measurement: the real quantize +
/// narrowing-check pipeline, with original values standing in for
/// binary-representation storage on the escape path.
struct HistogramRows<'a, T: ScalarFloat> {
    values: &'a [T],
    eb: f64,
    quantizer: Quantizer,
    hist: Vec<u64>,
}

impl<T: ScalarFloat> HistogramRows<'_, T> {
    #[inline]
    fn bucket(&mut self, value: T, pred: f64) -> T {
        match self.quantizer.quantize_narrowed(value, pred, self.eb) {
            Some((code, r)) => {
                self.hist[code as usize] += 1;
                r
            }
            None => {
                self.hist[0] += 1;
                value // stand-in for binary-representation storage
            }
        }
    }
}

impl<T: ScalarFloat> RowVisitor<T> for HistogramRows<'_, T> {
    type Error = std::convert::Infallible;

    fn point(&mut self, flat: usize, pred: f64) -> T {
        self.bucket(self.values[flat], pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(rows: usize, cols: usize) -> Tensor<f32> {
        Tensor::from_fn([rows, cols], |ix| {
            ((ix[0] as f32) * 0.21).sin() * 3.0 + ((ix[1] as f32) * 0.13).cos() * 2.0
        })
    }

    #[test]
    fn original_basis_beats_decompressed_for_higher_layers() {
        // The paper's core observation (Table II): on decompressed values,
        // multi-layer prediction degrades much more than 1-layer.
        let data = wavy(96, 96);
        let eb = 2e-4;
        let orig2 = hit_rate_by_layer(&data, 2, eb, PredictionBasis::Original);
        let dec2 = hit_rate_by_layer(&data, 2, eb, PredictionBasis::Decompressed);
        assert!(
            orig2 > dec2,
            "2-layer: original {orig2} should exceed decompressed {dec2}"
        );
    }

    #[test]
    fn hit_rate_is_a_fraction() {
        let data = wavy(32, 32);
        for basis in [PredictionBasis::Original, PredictionBasis::Decompressed] {
            for n in 1..=3 {
                let r = hit_rate_by_layer(&data, n, 1e-3, basis);
                assert!((0.0..=1.0).contains(&r));
            }
        }
    }

    #[test]
    fn loose_bounds_give_near_perfect_hit_rates() {
        let data = wavy(48, 48);
        let r = hit_rate_by_layer(&data, 1, 10.0, PredictionBasis::Decompressed);
        assert!(r > 0.99, "rate {r}");
    }

    #[test]
    fn histogram_counts_every_point() {
        let data = wavy(40, 40);
        let hist = quantization_histogram(&data, 1, 1e-3, 8);
        assert_eq!(hist.len(), 256);
        assert_eq!(hist.iter().sum::<u64>(), (40 * 40) as u64);
    }

    #[test]
    fn histogram_peaks_at_midpoint_for_smooth_data() {
        let data = wavy(64, 64);
        let hist = quantization_histogram(&data, 1, 1e-2, 8);
        let peak = (0..hist.len()).max_by_key(|&i| hist[i]).unwrap();
        // Smooth data predicts well: the zero-offset code 2^{m-1} dominates
        // (the paper's Figure 3 distribution shape).
        assert!(
            (120..=136).contains(&peak),
            "expected peak near 128, got {peak}"
        );
    }
}
