//! The [`Planner`]: sample once, search the configuration space, answer a
//! goal with a ranked [`PlanReport`].

use crate::adapter::{builtin_adapter, CodecAdapter, CodecKind, SzAdapter};
use crate::model::{psnr_from_bound, SzSizeModel, ARCHIVE_OVERHEAD_BYTES};
use crate::report::{Candidate, Estimate, Goal, PlanReport, PlannedCodec};
use crate::{PlanError, Result};
use std::cell::OnceCell;
use szr_core::ScalarFloat;
use szr_metrics::ErrorStats;
use szr_tensor::{Shape, Tensor};

/// Estimated constant overhead of a non-SZ archive (magic + dims + mode
/// fields), subtracted before extrapolating a sampled trial.
const ADAPTER_OVERHEAD_BYTES: f64 = 16.0;

/// Error-bound ladder used to bracket ratio targets (geometric, as a
/// fraction of the value range).
const LADDER_LO: f64 = 1e-8;
const LADDER_HI: f64 = 0.25;
const LADDER_POINTS: usize = 25;

/// Bisection steps when refining an error bound against a ratio target.
const BISECT_STEPS: usize = 8;

/// Below this sampled payload rate, linear extrapolation is unreliable —
/// tiny archives are dominated by fixed per-archive costs and DEFLATE's
/// sublinear run coding — so the planner re-measures the candidate on the
/// full tensor instead (cheap exactly there: ultra-compressible data
/// compresses fast, and only extreme candidates trigger it).
const FULL_TRIAL_BPV: f64 = 0.5;

/// Knobs for [`Planner`] construction.
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// Soft cap on sampled values (one leading-dimension row minimum).
    pub max_sample_elems: usize,
    /// Prediction layer counts to search (paper: 1 wins on decompressed
    /// feedback, 2 occasionally on very smooth data).
    pub layers: Vec<usize>,
    /// Adaptive-interval hit-rate targets θ to search.
    pub thetas: Vec<f64>,
    /// Upper limit on quantization interval bits.
    pub max_interval_bits: u32,
    /// Backends to consider.
    pub codecs: Vec<CodecKind>,
    /// Re-estimate the leading candidates by trial-compressing the sample
    /// (slower, much tighter estimates — keep on unless planning per band).
    pub refine: bool,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        Self {
            max_sample_elems: 1 << 16,
            layers: vec![1, 2],
            thetas: vec![0.99, 0.999],
            max_interval_bits: 16,
            codecs: CodecKind::all().to_vec(),
            refine: true,
        }
    }
}

impl PlannerOptions {
    /// Restricts the search to the SZ core compressor (used by
    /// `szr compress --auto`, whose output must stay a `.szr` archive).
    pub fn sz_only(mut self) -> Self {
        self.codecs = vec![CodecKind::Sz14];
        self
    }
}

/// A fitted planner: owns the sample, borrows the full data (for the rare
/// full-tensor re-measurement of ultra-compressible candidates), and keeps
/// the full tensor's summary stats.
pub struct Planner<'a, T: ScalarFloat> {
    full: &'a [T],
    /// Full data as a tensor, built lazily and at most once — only the
    /// black-box full-tensor re-measurement needs it.
    full_tensor: OnceCell<Tensor<T>>,
    sample: Tensor<T>,
    shape: Shape,
    total_len: usize,
    range: f64,
    opts: PlannerOptions,
}

impl<'a, T: ScalarFloat> Planner<'a, T> {
    /// Fits a planner on `data` with default options.
    pub fn new(data: &'a Tensor<T>) -> Self {
        Self::with_options(data, PlannerOptions::default())
    }

    /// Fits a planner on `data` with explicit options.
    pub fn with_options(data: &'a Tensor<T>, opts: PlannerOptions) -> Self {
        Self::from_slice(data.as_slice(), data.shape(), opts)
    }

    /// Fits a planner on a flat row-major slice interpreted under `shape`
    /// (the zero-copy entry point used for per-band planning).
    ///
    /// # Panics
    /// Panics if `values` does not match `shape` or the shape is empty.
    pub fn from_slice(values: &'a [T], shape: &Shape, opts: PlannerOptions) -> Self {
        assert_eq!(values.len(), shape.len(), "slice does not match shape");
        assert!(!values.is_empty(), "cannot plan for an empty tensor");
        let sample = build_sample(values, shape, opts.max_sample_elems.max(1));
        Self {
            full: values,
            full_tensor: OnceCell::new(),
            sample,
            shape: Shape::new(shape.dims()),
            total_len: shape.len(),
            // Finite values only, as the compressor resolves a relative
            // bound: an infinity would make every relative bound and the
            // target-ratio ladder unusable.
            range: szr_metrics::value_range(values),
            opts,
        }
    }

    /// The sampled sub-tensor the estimates are fitted on.
    pub fn sample(&self) -> &Tensor<T> {
        &self.sample
    }

    /// Value range of the *full* data (used to resolve relative bounds).
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Solves `goal`, returning ranked candidates with the chosen one first.
    ///
    /// # Errors
    /// [`PlanError::Invalid`] for unusable goals,
    /// [`PlanError::Infeasible`] when no searched configuration satisfies
    /// the goal (the message names the closest miss).
    pub fn plan(&self, goal: &Goal) -> Result<PlanReport> {
        let mut candidates = match *goal {
            Goal::MaxError { bound } => {
                // `effective` clamps degenerate bounds, so validate the
                // user's spec itself before resolving it.
                szr_core::Config::new(bound)
                    .validate()
                    .map_err(|e| PlanError::Invalid(e.to_string()))?;
                let eb = bound.effective(self.range);
                if !(eb.is_finite() && eb > 0.0) {
                    return Err(PlanError::Invalid(format!(
                        "bound resolves to unusable eb {eb}"
                    )));
                }
                self.plan_max_error(eb)
            }
            Goal::TargetRatio { ratio } => {
                if !(ratio.is_finite() && ratio > 0.0) {
                    return Err(PlanError::Invalid(format!("unusable target ratio {ratio}")));
                }
                let ladder = self.eb_ladder().ok_or_else(|| {
                    PlanError::Invalid(format!(
                        "value range {:e} leaves no usable error-bound ladder",
                        self.range
                    ))
                })?;
                self.plan_target_ratio(ratio, &ladder)
            }
        };
        rank(&mut candidates, goal);
        if candidates.is_empty() {
            return Err(PlanError::Invalid("no codecs in the search space".into()));
        }
        if !candidates[0].feasible {
            let best = &candidates[0];
            return Err(PlanError::Infeasible(format!(
                "best candidate {} reached ratio {:.2}x / max error {:.3e}: {}",
                best.codec.name(),
                best.estimate.ratio,
                best.estimate.max_abs_error,
                if best.note.is_empty() {
                    "goal out of reach"
                } else {
                    &best.note
                }
            )));
        }
        Ok(PlanReport {
            dtype: T::NAME.to_string(),
            dims: self.shape.dims().to_vec(),
            sample_len: self.sample.len(),
            goal: *goal,
            chosen: 0,
            candidates,
        })
    }

    /// Raw model estimates over an ascending error-bound ladder, with the
    /// monotone envelope applied: compressed size cannot grow as the bound
    /// loosens, so the curve takes a running minimum over `bits_per_value`
    /// (isotonic regression on a known-monotone quantity, smoothing the
    /// sampling noise of the raw histogram estimates).
    ///
    /// # Panics
    /// Panics unless `ebs` is strictly ascending and positive.
    pub fn sz_size_curve(&self, layers: usize, theta: f64, ebs: &[f64]) -> Vec<Estimate> {
        assert!(
            ebs.windows(2).all(|w| w[0] < w[1]) && ebs.first().is_none_or(|&e| e > 0.0),
            "error-bound ladder must be ascending and positive"
        );
        let model = self.model();
        let mut out: Vec<Estimate> = Vec::with_capacity(ebs.len());
        let raw_bits = (T::BITS as f64) * self.total_len as f64;
        for &eb in ebs {
            let bits = model.choose_bits(layers, eb, theta, self.opts.max_interval_bits);
            let mut est = model.estimate(layers, eb, bits);
            if let Some(prev) = out.last() {
                if est.bits_per_value > prev.bits_per_value {
                    est.bits_per_value = prev.bits_per_value;
                    est.ratio = raw_bits / (est.bits_per_value * self.total_len as f64);
                }
            }
            out.push(est);
        }
        out
    }

    fn model(&self) -> SzSizeModel<'_, T> {
        SzSizeModel::new(&self.sample, self.total_len, self.range)
    }

    /// Deduplicated `(layers, interval_bits)` combinations at bound `eb`.
    fn sz_combos(&self, eb: f64) -> Vec<(usize, u32)> {
        let model = self.model();
        let mut combos: Vec<(usize, u32)> = Vec::new();
        for &layers in &self.opts.layers {
            for &theta in &self.opts.thetas {
                let bits = model.choose_bits(layers, eb, theta, self.opts.max_interval_bits);
                if !combos.contains(&(layers, bits)) {
                    combos.push((layers, bits));
                }
            }
        }
        combos
    }

    /// Trial-compresses the sample with a pinned SZ configuration and
    /// extrapolates to the full tensor (exact when the sample is the whole
    /// tensor).
    fn trial_sz(&self, layers: usize, interval_bits: u32, eb: f64) -> Estimate {
        let adapter = SzAdapter {
            layers,
            interval_bits,
        };
        let bytes = CodecAdapter::<T>::compress(&adapter, &self.sample, eb)
            .expect("planner-built SZ configs are valid");
        let psnr = CodecAdapter::<T>::decompress(&adapter, &bytes)
            .ok()
            .map(|out| ErrorStats::compute(self.sample.as_slice(), out.as_slice()).psnr)
            .filter(|p| p.is_finite())
            .unwrap_or_else(|| psnr_from_bound(self.range, eb));
        let mut est = self.extrapolate(bytes.len() as f64, ARCHIVE_OVERHEAD_BYTES);
        if est.bits_per_value < FULL_TRIAL_BPV && self.sample.len() < self.total_len {
            let config = adapter.config(eb);
            let (full_bytes, _) =
                szr_core::compress_slice_with_stats(self.full, &self.shape, &config)
                    .expect("planner-built SZ configs are valid");
            est = self.exact(full_bytes.len());
        }
        est.max_abs_error = eb;
        est.psnr_db = psnr;
        est
    }

    /// Trial-compresses the sample through a black-box adapter.
    fn trial_adapter(
        &self,
        adapter: &dyn CodecAdapter<T>,
        eb: f64,
    ) -> std::result::Result<Estimate, String> {
        let bytes = adapter.compress(&self.sample, eb)?;
        let out = adapter.decompress(&bytes)?;
        if out.dims() != self.sample.dims() {
            return Err("adapter roundtrip changed dimensions".into());
        }
        let stats = ErrorStats::compute(self.sample.as_slice(), out.as_slice());
        let mut est = self.extrapolate(bytes.len() as f64, ADAPTER_OVERHEAD_BYTES);
        if est.bits_per_value < FULL_TRIAL_BPV && self.sample.len() < self.total_len {
            let full = self.full_tensor.get_or_init(|| {
                Tensor::from_vec(Shape::new(self.shape.dims()), self.full.to_vec())
            });
            est = self.exact(adapter.compress(full, eb)?.len());
        }
        est.max_abs_error = if adapter.lossy() { stats.max_abs } else { 0.0 };
        est.psnr_db = if stats.psnr.is_finite() {
            stats.psnr
        } else {
            f64::INFINITY
        };
        Ok(est)
    }

    /// An exact estimate from a measured full-tensor archive size.
    fn exact(&self, total_bytes: usize) -> Estimate {
        let total_bits = total_bytes as f64 * 8.0;
        let raw_bits = (T::BITS as f64) * self.total_len as f64;
        Estimate {
            bits_per_value: total_bits / self.total_len as f64,
            ratio: raw_bits / total_bits,
            max_abs_error: 0.0,
            psnr_db: f64::INFINITY,
        }
    }

    /// Scales a sampled archive size to the full tensor: per-value payload
    /// extrapolates, per-archive overhead is paid once.
    fn extrapolate(&self, sample_bytes: f64, overhead: f64) -> Estimate {
        let n = self.sample.len() as f64;
        let payload_bits = (sample_bytes - overhead).max(1.0) * 8.0;
        let total_bits = payload_bits / n * self.total_len as f64 + overhead * 8.0;
        let raw_bits = (T::BITS as f64) * self.total_len as f64;
        Estimate {
            bits_per_value: total_bits / self.total_len as f64,
            ratio: raw_bits / total_bits,
            max_abs_error: 0.0,
            psnr_db: f64::INFINITY,
        }
    }

    // ----- Goal::MaxError -------------------------------------------------

    fn plan_max_error(&self, eb: f64) -> Vec<Candidate> {
        let mut candidates = Vec::new();
        if self.opts.codecs.contains(&CodecKind::Sz14) {
            let model = self.model();
            for (layers, bits) in self.sz_combos(eb) {
                let estimate = if self.opts.refine {
                    self.trial_sz(layers, bits, eb)
                } else {
                    model.estimate(layers, eb, bits)
                };
                candidates.push(Candidate {
                    codec: PlannedCodec::Sz {
                        eb_abs: eb,
                        layers,
                        interval_bits: bits,
                    },
                    estimate,
                    feasible: true,
                    note: String::new(),
                });
            }
        }
        for &kind in &self.opts.codecs {
            let Some(adapter) = builtin_adapter::<T>(kind) else {
                continue; // Sz14: model-driven above
            };
            let candidate = match self.trial_adapter(&*adapter, eb) {
                Ok(estimate) => {
                    // A lossy backend must hold the bound on the sample;
                    // lossless backends hold it trivially.
                    let ok = !adapter.lossy() || estimate.max_abs_error <= eb * (1.0 + 1e-9);
                    Candidate {
                        codec: adapter.planned(eb),
                        estimate,
                        feasible: ok,
                        note: if ok {
                            String::new()
                        } else {
                            format!(
                                "bound violated on sample (max error {:.3e})",
                                estimate.max_abs_error
                            )
                        },
                    }
                }
                Err(msg) => failed_candidate(adapter.planned(eb), msg),
            };
            candidates.push(candidate);
        }
        candidates
    }

    // ----- Goal::TargetRatio ----------------------------------------------

    fn plan_target_ratio(&self, target: f64, ladder: &[f64]) -> Vec<Candidate> {
        let mut candidates = Vec::new();
        if self.opts.codecs.contains(&CodecKind::Sz14) {
            for &layers in &self.opts.layers {
                candidates.push(self.sz_target_search(layers, target, ladder));
            }
        }
        for &kind in &self.opts.codecs {
            let Some(adapter) = builtin_adapter::<T>(kind) else {
                continue;
            };
            candidates.push(if adapter.lossy() {
                self.black_box_target_search(&*adapter, target, ladder)
            } else {
                // Lossless: one fixed operating point.
                match self.trial_adapter(&*adapter, 0.0) {
                    Ok(estimate) => {
                        let ok = estimate.ratio >= target;
                        Candidate {
                            codec: adapter.planned(0.0),
                            estimate,
                            feasible: ok,
                            note: if ok {
                                String::new()
                            } else {
                                format!("lossless ratio {:.2}x below target", estimate.ratio)
                            },
                        }
                    }
                    Err(msg) => failed_candidate(adapter.planned(0.0), msg),
                }
            });
        }
        candidates
    }

    /// Error-bound ladder as absolute bounds, or `None` when the value
    /// range is too close to the subnormals for a strictly ascending,
    /// positive ladder ([`Planner::sz_size_curve`]'s contract).
    fn eb_ladder(&self) -> Option<Vec<f64>> {
        let range = if self.range > 0.0 { self.range } else { 1.0 };
        let (lo, hi) = (range * LADDER_LO, range * LADDER_HI);
        let step = (hi / lo).powf(1.0 / (LADDER_POINTS - 1) as f64);
        let ladder: Vec<f64> = (0..LADDER_POINTS)
            .map(|i| lo * step.powi(i as i32))
            .collect();
        let usable = ladder.iter().all(|eb| eb.is_finite())
            && ladder[0] > 0.0
            && ladder.windows(2).all(|w| w[0] < w[1]);
        usable.then_some(ladder)
    }

    /// Model-guided search for the smallest SZ error bound reaching
    /// `target`, trial-refined when `opts.refine` is set.
    fn sz_target_search(&self, layers: usize, target: f64, ladder: &[f64]) -> Candidate {
        let theta = self.opts.thetas.first().copied().unwrap_or(0.99);
        let model = self.model();
        let curve = self.sz_size_curve(layers, theta, ladder);
        let eval = |eb: f64| -> (u32, Estimate) {
            let bits = model.choose_bits(layers, eb, theta, self.opts.max_interval_bits);
            let est = if self.opts.refine {
                self.trial_sz(layers, bits, eb)
            } else {
                model.estimate(layers, eb, bits)
            };
            (bits, est)
        };

        // Bracket on the monotone model curve, then confirm by trial: the
        // model can be off near the Huffman floor, so the bracket endpoints
        // are re-measured before bisection.
        let first_hit = curve.iter().position(|e| e.ratio >= target);
        let (mut lo, mut hi) = match first_hit {
            Some(0) => {
                let (bits, est) = eval(ladder[0]);
                if est.ratio >= target {
                    return sz_candidate(ladder[0], layers, bits, est, target);
                }
                (ladder[0], *ladder.last().unwrap())
            }
            Some(i) => (ladder[i - 1], ladder[i]),
            None => (ladder[LADDER_POINTS - 2], ladder[LADDER_POINTS - 1]),
        };
        let (mut hi_bits, mut hi_est) = eval(hi);
        if hi_est.ratio < target && hi < *ladder.last().unwrap() {
            // The model's bracket was optimistic: escalate to the loosest
            // bound before declaring the target unreachable.
            lo = hi;
            hi = *ladder.last().unwrap();
            (hi_bits, hi_est) = eval(hi);
        }
        if hi_est.ratio < target {
            // Even the loosest bound misses the target: infeasible for SZ.
            return Candidate {
                codec: PlannedCodec::Sz {
                    eb_abs: hi,
                    layers,
                    interval_bits: hi_bits,
                },
                estimate: hi_est,
                feasible: false,
                note: format!(
                    "reaches only {:.2}x at eb {:.3e} (0.25 of value range)",
                    hi_est.ratio, hi
                ),
            };
        }
        for _ in 0..BISECT_STEPS {
            let mid = (lo * hi).sqrt();
            if !(mid > lo && mid < hi) {
                break;
            }
            let (bits, est) = eval(mid);
            if est.ratio >= target {
                hi = mid;
                hi_bits = bits;
                hi_est = est;
            } else {
                lo = mid;
            }
        }
        sz_candidate(hi, layers, hi_bits, hi_est, target)
    }

    /// Pure black-box bisection for an alternative backend: smallest bound
    /// whose sampled trial reaches `target`.
    fn black_box_target_search(
        &self,
        adapter: &dyn CodecAdapter<T>,
        target: f64,
        ladder: &[f64],
    ) -> Candidate {
        let (mut lo, hi) = (ladder[0], *ladder.last().unwrap());
        // A compress failure (e.g. ISABELA declining a tight bound) counts
        // as "target not reached" so bisection walks away from it.
        let eval = |eb: f64| self.trial_adapter(adapter, eb);
        let mut hi_est = match eval(hi) {
            Ok(est) => est,
            Err(msg) => return failed_candidate(adapter.planned(hi), msg),
        };
        if hi_est.ratio < target {
            return Candidate {
                codec: adapter.planned(hi),
                estimate: hi_est,
                feasible: false,
                note: format!(
                    "reaches only {:.2}x at eb {:.3e} (0.25 of value range)",
                    hi_est.ratio, hi
                ),
            };
        }
        if let Ok(est) = eval(lo) {
            if est.ratio >= target {
                return Candidate {
                    codec: adapter.planned(lo),
                    estimate: est,
                    feasible: true,
                    note: String::new(),
                };
            }
        }
        let mut hi_eb = hi;
        for _ in 0..BISECT_STEPS {
            let mid = (lo * hi_eb).sqrt();
            if !(mid > lo && mid < hi_eb) {
                break;
            }
            match eval(mid) {
                Ok(est) if est.ratio >= target => {
                    hi_eb = mid;
                    hi_est = est;
                }
                _ => lo = mid,
            }
        }
        Candidate {
            codec: adapter.planned(hi_eb),
            estimate: hi_est,
            feasible: true,
            note: String::new(),
        }
    }
}

fn sz_candidate(eb: f64, layers: usize, bits: u32, estimate: Estimate, target: f64) -> Candidate {
    Candidate {
        codec: PlannedCodec::Sz {
            eb_abs: eb,
            layers,
            interval_bits: bits,
        },
        estimate,
        feasible: estimate.ratio >= target,
        note: if estimate.ratio >= target {
            String::new()
        } else {
            format!("bisection stalled at {:.2}x", estimate.ratio)
        },
    }
}

fn failed_candidate(codec: PlannedCodec, msg: String) -> Candidate {
    Candidate {
        codec,
        estimate: Estimate {
            bits_per_value: f64::INFINITY,
            ratio: 0.0,
            max_abs_error: f64::INFINITY,
            psnr_db: 0.0,
        },
        feasible: false,
        note: msg,
    }
}

/// Orders candidates: feasible first, then by the goal's figure of merit —
/// smallest size for [`Goal::MaxError`], smallest error (ties: larger
/// ratio) for [`Goal::TargetRatio`]. A non-finite figure ranks as +∞, so
/// the order is total and such estimates come last.
fn rank(candidates: &mut [Candidate], goal: &Goal) {
    let last_if_not_finite = |x: f64| if x.is_finite() { x } else { f64::INFINITY };
    let key = |c: &Candidate| -> (bool, f64, f64) {
        let (a, b) = match goal {
            Goal::MaxError { .. } => (c.estimate.bits_per_value, 0.0),
            Goal::TargetRatio { .. } => (c.estimate.max_abs_error, -c.estimate.ratio),
        };
        (!c.feasible, last_if_not_finite(a), last_if_not_finite(b))
    };
    candidates.sort_by(|a, b| {
        let (ka, kb) = (key(a), key(b));
        ka.0.cmp(&kb.0)
            .then(ka.1.total_cmp(&kb.1))
            .then(ka.2.total_cmp(&kb.2))
    });
}

/// Copies up to `max_elems` values as whole leading-dimension rows, spread
/// over up to four contiguous blocks so slab-heterogeneous fields (e.g. the
/// hurricane's vertical decay) are represented end to end. Inner extents
/// are preserved, so the sample shares the full grid's stride family.
fn build_sample<T: ScalarFloat>(values: &[T], shape: &Shape, max_elems: usize) -> Tensor<T> {
    let dims = shape.dims();
    if shape.len() <= max_elems {
        return Tensor::from_vec(dims, values.to_vec());
    }
    let row_elems: usize = dims[1..].iter().product::<usize>().max(1);
    let d0 = dims[0];
    let rows_needed = (max_elems / row_elems).clamp(1, d0);
    let blocks = rows_needed.min(4);
    let block_len = rows_needed / blocks;
    let mut sample_dims = dims.to_vec();
    sample_dims[0] = blocks * block_len;
    let mut out: Vec<T> = Vec::with_capacity(sample_dims[0] * row_elems);
    for b in 0..blocks {
        let start = if blocks == 1 {
            (d0 - block_len) / 2
        } else {
            b * (d0 - block_len) / (blocks - 1)
        };
        out.extend_from_slice(&values[start * row_elems..(start + block_len) * row_elems]);
    }
    Tensor::from_vec(&sample_dims[..], out)
}

/// Picks a per-band SZ configuration (layer count + pinned interval bits)
/// for a slab of a larger tensor, at an already-resolved absolute bound —
/// the cheap model-only path `szr-parallel`'s planned chunked driver calls
/// per band (no trial compression, sample capped at 16 Ki values).
pub fn plan_band_config<T: ScalarFloat>(
    values: &[T],
    shape: &Shape,
    eb_abs: f64,
) -> szr_core::Config {
    plan_band_config_with_estimate(values, shape, eb_abs).0
}

/// [`plan_band_config`] plus the model's predicted bits per value for the
/// chosen configuration — the "estimated" side of the planner-drift
/// telemetry (`szr_telemetry::BandRecord::drift_bits_per_value` compares it
/// against the band's achieved size).
pub fn plan_band_config_with_estimate<T: ScalarFloat>(
    values: &[T],
    shape: &Shape,
    eb_abs: f64,
) -> (szr_core::Config, f64) {
    let opts = PlannerOptions {
        max_sample_elems: 1 << 14,
        thetas: vec![0.99],
        refine: false,
        ..PlannerOptions::default()
    }
    .sz_only();
    let planner = Planner::from_slice(values, shape, opts);
    let model = planner.model();
    let best = planner
        .sz_combos(eb_abs)
        .into_iter()
        .map(|(layers, bits)| (layers, bits, model.estimate(layers, eb_abs, bits)))
        .min_by(|a, b| {
            a.2.bits_per_value
                .partial_cmp(&b.2.bits_per_value)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("layer list is never empty");
    let mut config = szr_core::Config::new(szr_core::ErrorBound::Absolute(eb_abs))
        .with_layers(best.0)
        .with_interval_bits(best.1);
    let mut bits_per_value = best.2.bits_per_value;
    // Price LZ over the escape stream with the encoder's own sampled
    // trial: when it wins on the sample, arm the flag and credit the
    // escape fraction of the payload with the achieved ratio.
    if let Some((ratio, escape_bpv)) = model.escape_lz_gain(best.0, eb_abs, best.1) {
        config = config.with_escape_lz();
        bits_per_value -= escape_bpv * (1.0 - ratio);
    }
    (config, bits_per_value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use szr_core::ErrorBound;

    fn smooth([r, c]: [usize; 2]) -> Tensor<f32> {
        Tensor::from_fn([r, c], |ix| {
            ((ix[0] as f32) * 0.07).sin() * 12.0 + ((ix[1] as f32) * 0.05).cos() * 5.0
        })
    }

    #[test]
    fn sampling_preserves_inner_extents_and_caps_size() {
        let data = Tensor::from_fn([200, 64], |ix| (ix[0] * 64 + ix[1]) as f32);
        let opts = PlannerOptions {
            max_sample_elems: 1 << 10,
            ..PlannerOptions::default()
        };
        let planner = Planner::with_options(&data, opts);
        let sample = planner.sample();
        assert_eq!(sample.dims()[1], 64);
        assert!(sample.len() <= 1 << 10);
        assert!(sample.dims()[0] >= 4, "at least one row per block");
    }

    #[test]
    fn tiny_tensors_sample_whole() {
        let data = smooth([16, 16]);
        let planner = Planner::new(&data);
        assert_eq!(planner.sample().as_slice(), data.as_slice());
    }

    #[test]
    fn max_error_goal_picks_a_feasible_smallest_candidate() {
        let data = smooth([72, 80]);
        let planner = Planner::new(&data);
        let goal = Goal::MaxError {
            bound: ErrorBound::Relative(1e-4),
        };
        let report = planner.plan(&goal).unwrap();
        let chosen = report.chosen();
        assert!(chosen.feasible);
        // Every feasible alternative is at least as large.
        for c in &report.candidates {
            if c.feasible {
                assert!(c.estimate.bits_per_value >= chosen.estimate.bits_per_value - 1e-9);
            }
        }
        // The chosen config actually honors the bound end to end.
        let eb = 1e-4 * planner.range();
        let bytes = chosen.codec.compress(&data).unwrap();
        let out: Tensor<f32> = chosen.codec.decompress(&bytes).unwrap();
        let err = szr_metrics::max_abs_error(data.as_slice(), out.as_slice());
        assert!(err <= eb * (1.0 + 1e-9), "err {err} > eb {eb}");
    }

    #[test]
    fn target_ratio_goal_lands_near_target_for_dims_1_2_3() {
        // f32 and f64, 1-D/2-D/3-D — the acceptance matrix.
        let target = 10.0;
        let check = |report: &PlanReport, achieved: f64| {
            assert!(
                achieved >= target * 0.85,
                "achieved {achieved} for report {report:?}"
            );
        };
        let d1 = Tensor::from_fn([4000], |ix| (ix[0] as f32 * 0.01).sin() * 3.0);
        let d2 = smooth([64, 72]);
        let d3 = Tensor::from_fn([12, 20, 24], |ix| {
            (ix[0] as f64 * 0.2).sin() + (ix[1] as f64 * 0.1).cos() * (ix[2] as f64 * 0.15).sin()
        });
        {
            let report = Planner::new(&d1)
                .plan(&Goal::TargetRatio { ratio: target })
                .unwrap();
            let bytes = report.chosen().codec.compress(&d1).unwrap();
            check(&report, (d1.len() * 4) as f64 / bytes.len() as f64);
        }
        {
            let report = Planner::new(&d2)
                .plan(&Goal::TargetRatio { ratio: target })
                .unwrap();
            let bytes = report.chosen().codec.compress(&d2).unwrap();
            check(&report, (d2.len() * 4) as f64 / bytes.len() as f64);
        }
        {
            let report = Planner::new(&d3)
                .plan(&Goal::TargetRatio { ratio: target })
                .unwrap();
            let bytes = report.chosen().codec.compress(&d3).unwrap();
            check(&report, (d3.len() * 8) as f64 / bytes.len() as f64);
        }
    }

    #[test]
    fn impossible_targets_report_infeasible() {
        // Pure hash noise at a ludicrous target: nothing reaches 10000x.
        let data = Tensor::from_fn([48, 48], |ix| {
            let h = (ix[0] as u64 * 48 + ix[1] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) % 4096) as f32 - 2048.0
        });
        let err = Planner::new(&data)
            .plan(&Goal::TargetRatio { ratio: 10_000.0 })
            .unwrap_err();
        assert!(matches!(err, PlanError::Infeasible(_)), "{err}");
    }

    #[test]
    fn unusable_goals_are_invalid() {
        let data = smooth([8, 8]);
        let planner = Planner::new(&data);
        assert!(matches!(
            planner.plan(&Goal::TargetRatio { ratio: f64::NAN }),
            Err(PlanError::Invalid(_))
        ));
        assert!(matches!(
            planner.plan(&Goal::MaxError {
                bound: ErrorBound::Absolute(-1.0)
            }),
            Err(PlanError::Invalid(_))
        ));
    }

    #[test]
    fn band_config_helper_returns_valid_pinned_configs() {
        let data = smooth([40, 32]);
        let config = plan_band_config(data.as_slice(), data.shape(), 1e-3);
        assert!(config.validate().is_ok());
        assert!(matches!(
            config.intervals,
            szr_core::IntervalMode::Fixed { .. }
        ));
        let bytes = szr_core::compress(&data, &config).unwrap();
        let out: Tensor<f32> = szr_core::decompress(&bytes).unwrap();
        let err = szr_metrics::max_abs_error(data.as_slice(), out.as_slice());
        assert!(err <= 1e-3);
    }

    #[test]
    fn band_config_helper_arms_escape_lz_when_the_trial_wins() {
        // A tiny alphabet of wildly separated magnitudes: nearly every
        // point escapes and the escape stream is periodic, so the sampled
        // trial must win and the planned config must carry the flag — and
        // the estimate must credit the gain.
        const ALPHABET: [f32; 5] = [0.0, 1.0e8, -3.0e7, 7.0e6, -9.0e5];
        let spiky = Tensor::from_fn([64, 64], |ix| ALPHABET[(ix[0] * 64 + ix[1]) % 5]);
        let (config, bpv) = plan_band_config_with_estimate(spiky.as_slice(), spiky.shape(), 1e-3);
        assert!(config.escape_lz, "periodic escapes must arm the flag");
        assert!(bpv > 0.0);
        let bytes = szr_core::compress(&spiky, &config).unwrap();
        assert!(szr_core::inspect(&bytes).unwrap().escape_lz);

        // Smooth data barely escapes: the flag must stay off.
        let calm = smooth([64, 64]);
        let config = plan_band_config(calm.as_slice(), calm.shape(), 1e-3);
        assert!(!config.escape_lz, "smooth data must not arm the flag");
    }

    /// 64×64, every 211th value +Inf and every 422nd −Inf instead.
    fn with_infinities<T: ScalarFloat>() -> Tensor<T> {
        Tensor::from_fn([64, 64], |ix| {
            let f = ix[0] * 64 + ix[1];
            T::from_f64(if f % 422 == 211 {
                f64::NEG_INFINITY
            } else if f % 211 == 0 {
                f64::INFINITY
            } else {
                (f as f64 * 0.05).sin() * 30.0 + ix[0] as f64
            })
        })
    }

    /// A target ratio over a field holding ±Inf plans against the finite
    /// values' range, and the chosen SZ config meets its own bound.
    fn target_ratio_plans_over_infinities<T: ScalarFloat>() {
        let data = with_infinities::<T>();
        let planner = Planner::with_options(&data, PlannerOptions::default().sz_only());
        assert!(planner.range().is_finite());
        let report = planner.plan(&Goal::TargetRatio { ratio: 8.0 }).unwrap();
        let config = report.chosen().codec.sz_config().unwrap();
        let szr_core::ErrorBound::Absolute(eb) = config.bound else {
            panic!("planned configs pin an absolute bound");
        };
        let bytes = szr_core::compress(&data, &config).unwrap();
        let out: Tensor<T> = szr_core::decompress(&bytes).unwrap();
        for (x, y) in data.as_slice().iter().zip(out.as_slice()) {
            let (x, y) = (x.to_f64(), y.to_f64());
            if x.is_finite() {
                let err = (x - y).abs();
                assert!(err <= eb, "{} error {err} > {eb}", T::NAME);
            } else {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn target_ratio_plans_over_infinities_f32() {
        target_ratio_plans_over_infinities::<f32>();
    }

    #[test]
    fn target_ratio_plans_over_infinities_f64() {
        target_ratio_plans_over_infinities::<f64>();
    }

    /// A range too close to the subnormals for an error-bound ladder is a
    /// typed error, not a panic.
    #[test]
    fn subnormal_range_is_a_typed_error() {
        let data = Tensor::from_fn([16, 16], |ix| f64::from_bits((ix[0] * 16 + ix[1]) as u64));
        let planner = Planner::with_options(&data, PlannerOptions::default().sz_only());
        assert!(matches!(
            planner.plan(&Goal::TargetRatio { ratio: 8.0 }),
            Err(PlanError::Invalid(_))
        ));
    }

    /// NaN and infinite estimates rank after every finite one, in a total
    /// order (a partial one lets the sort panic or scatter them).
    #[test]
    fn rank_puts_non_finite_estimates_last() {
        let candidate = |bpv: f64, err: f64, ratio: f64| Candidate {
            codec: PlannedCodec::Sz {
                eb_abs: 1e-3,
                layers: 1,
                interval_bits: 8,
            },
            estimate: Estimate {
                bits_per_value: bpv,
                ratio,
                max_abs_error: err,
                psnr_db: 0.0,
            },
            feasible: true,
            note: String::new(),
        };
        let figures = [
            f64::NAN,
            3.0,
            f64::INFINITY,
            1.0,
            -f64::NAN,
            2.0,
            f64::NEG_INFINITY,
            0.5,
            f64::NAN,
            4.0,
        ];
        for goal in [
            Goal::MaxError {
                bound: ErrorBound::Absolute(1e-3),
            },
            Goal::TargetRatio { ratio: 4.0 },
        ] {
            let mut candidates: Vec<Candidate> = (0..40)
                .map(|i| {
                    let x = figures[(i * 7) % figures.len()];
                    candidate(x, x, 10.0)
                })
                .collect();
            rank(&mut candidates, &goal);
            let merit = |c: &Candidate| match goal {
                Goal::MaxError { .. } => c.estimate.bits_per_value,
                Goal::TargetRatio { .. } => c.estimate.max_abs_error,
            };
            let finite = candidates.iter().filter(|c| merit(c).is_finite()).count();
            assert!(candidates[..finite].iter().all(|c| merit(c).is_finite()));
            assert!(candidates[..finite]
                .windows(2)
                .all(|w| merit(&w[0]) <= merit(&w[1])));
        }
    }

    #[test]
    fn constant_data_plans_without_panicking() {
        let data = Tensor::full([32, 32], 4.25f32);
        let planner = Planner::new(&data);
        let report = planner.plan(&Goal::TargetRatio { ratio: 20.0 }).unwrap();
        assert!(report.chosen().feasible);
        let report = planner
            .plan(&Goal::MaxError {
                bound: ErrorBound::Absolute(1e-6),
            })
            .unwrap();
        assert!(report.chosen().feasible);
    }
}
