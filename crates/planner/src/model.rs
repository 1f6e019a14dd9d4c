//! The SZ ratio–quality model: sampled statistics → estimated size/quality.
//!
//! The model runs the real predict→quantize pipeline over the sample via
//! [`szr_core::quantization_histogram`] (so prediction feedback, the escape
//! path, and float narrowing are all accounted for) and prices the resulting
//! code distribution:
//!
//! ```text
//! bits/value ≈ E[len_Huffman(code)]           — expected optimal code length
//!            + p_escape · E[cost_bits]        — binary-representation data
//! archive    ≈ bits/value · N + overhead      — header + Huffman table
//! ```
//!
//! The code term prices the distribution with *expected Huffman code
//! lengths* (an optimal code built over the sampled histogram), not raw
//! Shannon entropy: the real coder pays the 1-bit-per-symbol floor on the
//! concentrated distributions smooth data produces, which entropy — often
//! well below 1 bit there — would miss by 2×. The DEFLATE post-pass can
//! claw back some of that floor on ultra-low-entropy streams, so the model
//! slightly overestimates sparse fields; the planner's trial-refinement
//! step corrects the residual. Quality comes from the bound: in-interval
//! errors are ~uniform in `[-eb, eb]`, so `rmse ≈ eb/√3` and PSNR follows.

use crate::report::Estimate;
use std::cell::RefCell;
use szr_core::{CodecSession, ScalarFloat, UnpredictableCodec};
use szr_tensor::Tensor;

/// Estimated archive bytes that do not scale with the value count: header
/// (~30 bytes) plus a typical RLE'd Huffman table. The trial-refinement
/// step subtracts the same constant, so sample extrapolation is exact when
/// the sample is the whole tensor.
pub(crate) const ARCHIVE_OVERHEAD_BYTES: f64 = 48.0;

/// Sampling stride for the adaptive interval-bits choice inside the model
/// (the sample is already small; stride 2 keeps the §IV-B scheme's own
/// subsampling cheap without starving thin grids).
const INTERVAL_SAMPLE_STRIDE: usize = 2;

/// Ratio–quality model for the SZ-1.4 core compressor, fitted on a sample.
pub struct SzSizeModel<'a, T: ScalarFloat> {
    sample: &'a Tensor<T>,
    total_len: usize,
    range: f64,
    /// A borrowed pipeline session: the planner evaluates many
    /// `(layers, eb, bits)` configurations against the same sample, so the
    /// session's per-layer kernel cache and its reconstruction scratch are
    /// paid once, not once per estimate (`RefCell`: the model is priced
    /// through `&self`, single-threaded).
    session: RefCell<CodecSession<T>>,
}

impl<'a, T: ScalarFloat> SzSizeModel<'a, T> {
    /// Builds a model over `sample`, estimating for a full tensor of
    /// `total_len` points whose value range is `range`.
    pub fn new(sample: &'a Tensor<T>, total_len: usize, range: f64) -> Self {
        Self {
            sample,
            total_len,
            range,
            session: RefCell::new(CodecSession::decoder()),
        }
    }

    /// The §IV-B adaptive interval choice, evaluated on the sample.
    pub fn choose_bits(&self, layers: usize, eb: f64, theta: f64, max_bits: u32) -> u32 {
        self.session.borrow_mut().choose_interval_bits(
            self.sample.as_slice(),
            self.sample.shape(),
            layers,
            eb,
            theta,
            INTERVAL_SAMPLE_STRIDE,
            max_bits,
        )
    }

    /// Estimates size and quality for a `(layers, eb, interval_bits)`
    /// configuration without compressing anything.
    pub fn estimate(&self, layers: usize, eb: f64, interval_bits: u32) -> Estimate {
        let hist = self.session.borrow_mut().quantization_histogram(
            self.sample,
            layers,
            eb,
            interval_bits,
        );
        let n = self.sample.len() as f64;
        let code_bpv = expected_huffman_bits(&hist, n);
        let p_escape = hist[0] as f64 / n;
        let escape_bits = if p_escape > 0.0 {
            self.mean_escape_bits(eb)
        } else {
            0.0
        };
        let payload_bpv = code_bpv + p_escape * escape_bits;
        let total_bits = payload_bpv * self.total_len as f64 + ARCHIVE_OVERHEAD_BYTES * 8.0;
        let raw_bits = (T::BITS as f64) * self.total_len as f64;
        Estimate {
            bits_per_value: total_bits / self.total_len as f64,
            ratio: raw_bits / total_bits,
            max_abs_error: eb,
            psnr_db: psnr_from_bound(self.range, eb),
        }
    }

    /// Prices the escape-LZ flag for a chosen `(layers, eb, interval_bits)`
    /// configuration by running the encoder's own sampled DEFLATE trial
    /// (`szr_core::escape_lz_trial_ratio`) over the sample's actual escape
    /// stream. Returns `(achieved ratio, escape-stream bits per sample
    /// value)` when the trial wins; `None` when it loses — there the flag
    /// would be a byte-identical no-op, so the planner leaves it off.
    pub fn escape_lz_gain(&self, layers: usize, eb: f64, interval_bits: u32) -> Option<(f64, f64)> {
        let mut session = self.session.borrow_mut();
        let config = szr_core::Config::new(szr_core::ErrorBound::Absolute(eb))
            .with_layers(layers)
            .with_interval_bits(interval_bits);
        session.set_config(config).ok()?;
        let band = session
            .quantize(self.sample.as_slice(), self.sample.shape())
            .ok()?;
        let unpred = band.unpred_bytes();
        let ratio = szr_core::escape_lz_trial_ratio(unpred)?;
        let escape_bpv = (unpred.len() as f64 * 8.0) / self.sample.len() as f64;
        Some((ratio, escape_bpv))
    }

    /// Mean binary-representation cost per escaped value, averaged over a
    /// strided subsample (escapees share the data's magnitude distribution).
    fn mean_escape_bits(&self, eb: f64) -> f64 {
        let codec = UnpredictableCodec::new(eb);
        let values = self.sample.as_slice();
        let stride = (values.len() / 4096).max(1);
        let mut total = 0u64;
        let mut count = 0u64;
        let mut i = 0;
        while i < values.len() {
            total += codec.cost_bits(values[i]) as u64;
            count += 1;
            i += stride;
        }
        total as f64 / count.max(1) as f64
    }
}

/// Expected bits/symbol of an optimal (Huffman) prefix code built over a
/// count histogram with total `n` — what the real entropy stage pays,
/// including the 1-bit-per-symbol floor that Shannon entropy ignores on
/// concentrated distributions.
fn expected_huffman_bits(hist: &[u64], n: f64) -> f64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // Node arena: leaves first, then internal merge nodes.
    let leaves: Vec<u64> = hist.iter().copied().filter(|&c| c > 0).collect();
    if leaves.len() <= 1 {
        return 1.0; // single-symbol stream still spends one bit per symbol
    }
    let mut parent: Vec<usize> = vec![usize::MAX; leaves.len()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = leaves
        .iter()
        .enumerate()
        .map(|(i, &c)| Reverse((c, i)))
        .collect();
    while heap.len() > 1 {
        let Reverse((wa, a)) = heap.pop().unwrap();
        let Reverse((wb, b)) = heap.pop().unwrap();
        let node = parent.len();
        parent.push(usize::MAX);
        parent[a] = node;
        parent[b] = node;
        heap.push(Reverse((wa + wb, node)));
    }
    let mut total_bits = 0u64;
    for (i, &count) in leaves.iter().enumerate() {
        let mut depth = 0u64;
        let mut node = i;
        while parent[node] != usize::MAX {
            depth += 1;
            node = parent[node];
        }
        total_bits += count * depth;
    }
    total_bits as f64 / n
}

/// PSNR implied by a bound `eb` on data with value range `range`, assuming
/// errors uniform in `[-eb, eb]` (`rmse = eb/√3`).
pub(crate) fn psnr_from_bound(range: f64, eb: f64) -> f64 {
    if range <= 0.0 {
        return f64::INFINITY;
    }
    let rmse = eb / 3.0f64.sqrt();
    20.0 * (range / rmse).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use szr_core::{compress, Config, ErrorBound};
    use szr_metrics::value_range;

    fn wavy(rows: usize, cols: usize) -> Tensor<f32> {
        Tensor::from_fn([rows, cols], |ix| {
            ((ix[0] as f32) * 0.17).sin() * 5.0 + ((ix[1] as f32) * 0.09).cos() * 3.0
        })
    }

    #[test]
    fn huffman_rate_matches_known_distributions() {
        // Uniform over 16 symbols: exactly 4 bits each.
        let hist = vec![8u64; 16];
        assert!((expected_huffman_bits(&hist, 128.0) - 4.0).abs() < 1e-12);
        // Single symbol: the 1-bit floor, not entropy's 0.
        assert_eq!(expected_huffman_bits(&[128, 0, 0], 128.0), 1.0);
        // Classic skewed case {0.5, 0.25, 0.125, 0.125}: lengths 1,2,3,3.
        let hist = vec![8u64, 4, 2, 2];
        assert!((expected_huffman_bits(&hist, 16.0) - 1.75).abs() < 1e-12);
    }

    /// The raw model, fitted on the full field, should land in the real
    /// archive's neighborhood. The tolerance is wide because the DEFLATE
    /// post-pass exploits *spatial* run structure a histogram cannot see
    /// (sub-1-bit streams compress by luck of the scan order); the
    /// planner's trial-refinement step — which `exp_planner` scores to the
    /// 25% acceptance bar — closes that gap.
    #[test]
    fn whole_field_estimate_tracks_actual_archive() {
        let data = wavy(96, 96);
        let range = value_range(data.as_slice());
        let model = SzSizeModel::new(&data, data.len(), range);
        for eb in [range * 1e-2, range * 1e-3, range * 1e-4] {
            let bits = model.choose_bits(1, eb, 0.99, 16);
            let est = model.estimate(1, eb, bits);
            let config = Config::new(ErrorBound::Absolute(eb))
                .with_layers(1)
                .with_interval_bits(bits);
            let actual = compress(&data, &config).unwrap().len() as f64;
            let estimated = data.len() as f64 * est.bits_per_value / 8.0;
            let rel = (estimated - actual).abs() / actual;
            assert!(
                rel < 0.5,
                "eb {eb}: estimated {estimated} vs actual {actual} ({:.0}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn looser_bounds_estimate_smaller_and_noisier() {
        let data = wavy(64, 64);
        let range = value_range(data.as_slice());
        let model = SzSizeModel::new(&data, data.len(), range);
        let tight = model.estimate(1, range * 1e-5, 12);
        let loose = model.estimate(1, range * 1e-2, 12);
        assert!(loose.bits_per_value < tight.bits_per_value);
        assert!(loose.ratio > tight.ratio);
        assert!(loose.psnr_db < tight.psnr_db);
    }

    #[test]
    fn psnr_formula_degenerates_safely() {
        assert_eq!(psnr_from_bound(0.0, 1e-3), f64::INFINITY);
        assert!(psnr_from_bound(10.0, 1e-3) > 70.0);
    }
}
