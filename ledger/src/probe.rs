//! Output checks, the shared codec configuration, and the per-layer numbers
//! read from telemetry reports and from timed public calls.

use std::hint::black_box;
use std::time::Instant;

use szr_core::{CodecSession, Config, ErrorBound};
use szr_telemetry::{BandRecord, Counter, Stage, TelemetryReport};
use szr_tensor::Tensor;

use crate::report::{median, Metric, Samples};

/// The value-range-relative error bound every workload compresses under.
pub const REL: f64 = 1e-4;

/// The paper's defaults: 1 layer, adaptive intervals, DEFLATE on.
pub fn config() -> Config {
    Config::new(ErrorBound::Relative(REL))
}

/// The absolute bound `REL` resolves to on `data`.
pub fn bound(data: &[f32]) -> f64 {
    REL * szr_metrics::value_range(data)
}

pub fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Every finite original value must decode within `eb`.
pub fn check_bound(orig: &[f32], decoded: &[f32], eb: f64) -> Result<(), String> {
    if orig.len() != decoded.len() {
        return Err(format!(
            "decoded {} values, expected {}",
            decoded.len(),
            orig.len()
        ));
    }
    for (i, (&o, &d)) in orig.iter().zip(decoded).enumerate() {
        let err = (f64::from(o) - f64::from(d)).abs();
        if o.is_finite() && (err > eb || err.is_nan()) {
            return Err(format!("value {i}: |{o} - {d}| exceeds the bound {eb:e}"));
        }
    }
    Ok(())
}

/// `what` must equal `expected` byte for byte.
pub fn check_equal<T: PartialEq>(what: &str, got: &[T], expected: &[T]) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("{what} differs from the reference"))
    }
}

pub fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Span time of `stage`, in ms (0 when it did not run).
fn span_ms(r: &TelemetryReport, stage: Stage) -> f64 {
    r.span(stage).map_or(0.0, |s| s.nanos as f64 / 1e6)
}

/// Sum of every span, in ms.
fn spans_ms(r: &TelemetryReport) -> f64 {
    r.spans.iter().map(|(_, s)| s.nanos).sum::<u64>() as f64 / 1e6
}

/// One traced op: its wall time and what its sink recorded.
pub struct Traced {
    pub wall_ms: f64,
    pub report: TelemetryReport,
}

/// Traced ops by kind. `threads` is how many threads ran each op's spans.
#[derive(Default)]
pub struct Traces {
    pub compress: Vec<Traced>,
    pub decompress: Vec<Traced>,
    pub read: Vec<Traced>,
    pub threads: usize,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn per_op(ops: &[Traced], f: impl Fn(&Traced) -> f64) -> f64 {
    median(&ops.iter().map(f).collect::<Vec<_>>())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Traces {
    /// Stage spans (median per op), counters (mean per op), band records
    /// (aggregate), and the unattributed residual `wall − Σ spans / threads`.
    pub fn metrics(&self) -> Vec<Metric> {
        let threads = self.threads.max(1) as f64;
        let span = |ops: &[Traced], stage| per_op(ops, |t| span_ms(&t.report, stage));
        let counter = |ops: &[Traced], c| mean(ops.iter().map(|t| t.report.counter(c) as f64));
        let unattributed =
            |ops: &[Traced]| per_op(ops, |t| t.wall_ms - spans_ms(&t.report) / threads);
        let (c, d, r) = (&self.compress, &self.decompress, &self.read);
        let mut out = Vec::new();
        if !c.is_empty() {
            out.extend([
                ("core.predict_quantize_ms", span(c, Stage::PredictQuantize)),
                ("huffman.entropy_encode_ms", span(c, Stage::EntropyEncode)),
                ("deflate.deflate_ms", span(c, Stage::Deflate)),
                ("core.compress_unattributed_ms", unattributed(c)),
                (
                    "core.kernel_cache_miss",
                    counter(c, Counter::KernelCacheMiss),
                ),
                ("deflate.blocks", counter(c, Counter::DeflateBlocks)),
                (
                    "deflate.match_tokens",
                    counter(c, Counter::DeflateMatchTokens),
                ),
                (
                    "deflate.literal_tokens",
                    counter(c, Counter::DeflateLiteralTokens),
                ),
            ]);
            let total = |f: fn(&BandRecord) -> u64| {
                let bands = c.iter().flat_map(|t| t.report.bands.iter());
                bands.map(f).sum::<u64>() as f64
            };
            let points = total(|b| b.points);
            let span_bytes = |stage| {
                let spans = c.iter().filter_map(|t| t.report.span(stage));
                spans.map(|s| s.bytes).sum::<u64>() as f64
            };
            // DEFLATE's input is the Huffman block plus the escape section.
            let deflate_in =
                span_bytes(Stage::EntropyEncode) + total(|b| b.escape_stream_bits) / 8.0;
            let saved = 1.0 - ratio(span_bytes(Stage::Deflate), deflate_in);
            out.extend([
                ("core.hit_rate", ratio(total(|b| b.hits), points)),
                ("core.escape_rate", ratio(total(|b| b.escapes), points)),
                (
                    "huffman.code_bits_per_value",
                    ratio(total(|b| b.code_stream_bits), points),
                ),
                ("deflate.saved_frac", saved),
            ]);
        }
        if !d.is_empty() {
            out.extend([
                ("core.row_reconstruct_ms", span(d, Stage::RowReconstruct)),
                ("core.header_io_ms", span(d, Stage::HeaderIo)),
                ("huffman.symbol_decode_ms", span(d, Stage::SymbolDecode)),
                ("deflate.inflate_ms", span(d, Stage::Deflate)),
                ("core.decompress_unattributed_ms", unattributed(d)),
            ]);
        }
        if !r.is_empty() {
            out.push((
                "huffman.table_cache_miss",
                counter(r, Counter::CodecTableCacheMiss),
            ));
        }
        out.into_iter()
            .map(|(name, value)| Metric { name, value })
            .collect()
    }

    fn all(&self) -> impl Iterator<Item = &Traced> {
        self.compress
            .iter()
            .chain(&self.decompress)
            .chain(&self.read)
    }

    /// Σ spans over every traced op, in ms.
    pub fn spans_ms(&self) -> f64 {
        self.all().map(|t| spans_ms(&t.report)).sum()
    }

    /// `parallel.efficiency` of ops run one at a time:
    /// Σ spans / (threads × Σ op wall).
    pub fn efficiency(&self) -> Metric {
        let wall: f64 = self.all().map(|t| t.wall_ms).sum();
        Metric {
            name: "parallel.efficiency",
            value: ratio(self.spans_ms(), self.threads.max(1) as f64 * wall),
        }
    }
}

/// The end-to-end metrics that are not latencies.
pub struct Totals {
    /// Raw MB moved per timed second.
    pub throughput_mb_s: f64,
    /// Σ raw bytes / Σ archive bytes.
    pub ratio: f64,
    /// Minimum PSNR over the fields.
    pub psnr_db: f64,
    /// Median set-up time.
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

/// Latency samples by op kind.
#[derive(Debug, Default)]
pub struct Kinds {
    pub compress: Samples,
    pub decompress: Samples,
    pub read: Samples,
}

impl Kinds {
    fn each(&self) -> [&Samples; 3] {
        [&self.compress, &self.decompress, &self.read]
    }

    /// Every end-to-end metric of an untraced run: `<kind>_ms_p50` and
    /// `<kind>_ms_tail` from these samples (each tail's percentile and
    /// sample count go to `notes`), the rest from `totals`.
    pub fn end_to_end(&self, totals: Totals, notes: &mut Vec<String>) -> Vec<Metric> {
        let names = [
            ("compress_ms_p50", "compress_ms_tail"),
            ("decompress_ms_p50", "decompress_ms_tail"),
            ("read_ms_p50", "read_ms_tail"),
        ];
        let mut out = Vec::new();
        for (samples, (p50, tail)) in self.each().into_iter().zip(names) {
            let t = samples.tail();
            notes.push(format!(
                "{tail} = median over {} window(s) of p{:.1} of {} samples ({} beyond)",
                t.windows, t.percentile, t.samples, t.beyond
            ));
            out.push(Metric {
                name: p50,
                value: samples.p50(),
            });
            out.push(Metric {
                name: tail,
                value: t.value,
            });
        }
        let Totals {
            throughput_mb_s,
            ratio,
            psnr_db,
            setup_s,
            peak_rss_mb,
        } = totals;
        out.extend(
            [
                ("throughput_mb_s", throughput_mb_s),
                ("ratio", ratio),
                ("psnr_db", psnr_db),
                ("setup_s", setup_s),
                ("peak_rss_mb", peak_rss_mb),
            ]
            .map(|(name, value)| Metric { name, value }),
        );
        out
    }

    /// `telemetry.<kind>_overhead_frac` = traced p50 / untraced p50 − 1,
    /// and `telemetry.overhead_frac`, the largest of them.
    pub fn overhead_metrics(traced: &Kinds, plain: &Kinds) -> Vec<Metric> {
        let names = [
            "telemetry.compress_overhead_frac",
            "telemetry.decompress_overhead_frac",
            "telemetry.read_overhead_frac",
        ];
        let mut out = Vec::new();
        let mut worst = f64::NEG_INFINITY;
        for ((t, p), name) in traced.each().into_iter().zip(plain.each()).zip(names) {
            if t.len() > 0 && p.p50() > 0.0 {
                let frac = t.p50() / p.p50() - 1.0;
                worst = worst.max(frac);
                out.push(Metric { name, value: frac });
            }
        }
        if worst.is_finite() {
            out.push(Metric {
                name: "telemetry.overhead_frac",
                value: worst,
            });
        }
        out
    }
}

/// `core.session_new_ms`: `CodecSession::new` plus a first compress of
/// `fields`, minus a warm compress of the same fields (median of 3).
pub fn session_new_ms(fields: &[&Tensor<f32>]) -> f64 {
    let mut deltas = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let mut session = CodecSession::<f32>::new(config()).expect("the ledger config is valid");
        for f in fields {
            let _ = black_box(session.compress(f));
        }
        let cold = elapsed_ms(t);
        let t = Instant::now();
        for f in fields {
            let _ = black_box(session.compress(f));
        }
        deltas.push(cold - elapsed_ms(t));
    }
    median(&deltas)
}

/// `core.interval_select_ms`: the §IV-B adaptive interval search (θ 0.99,
/// stride 5, at most 16 bits) over `fields` on a warm session (median of 3).
pub fn interval_select_ms(fields: &[&Tensor<f32>]) -> f64 {
    let mut session = CodecSession::<f32>::new(config()).expect("the ledger config is valid");
    let search = |session: &mut CodecSession<f32>| {
        for f in fields {
            let eb = bound(f.as_slice());
            black_box(session.choose_interval_bits(f.as_slice(), f.shape(), 1, eb, 0.99, 5, 16));
        }
    };
    search(&mut session);
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            search(&mut session);
            elapsed_ms(t)
        })
        .collect();
    median(&times)
}

/// Median time of `f` over `reps` calls, in ms.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            elapsed_ms(t)
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_check_skips_non_finite_originals_and_catches_nan_decodes() {
        assert!(check_bound(&[1.0, f32::NAN], &[1.05, 7.0], 0.1).is_ok());
        assert!(check_bound(&[1.0, 2.0], &[1.0, f32::NAN], 0.1).is_err());
        assert!(check_bound(&[1.0], &[1.2], 0.1).is_err());
        assert!(check_bound(&[1.0], &[], 0.1).is_err());
    }
}
