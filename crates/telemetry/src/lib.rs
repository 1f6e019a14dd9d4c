//! # szr-telemetry — zero-cost-when-disabled pipeline instrumentation.
//!
//! The SZ-1.4 paper's argument is quantitative: prediction hit rate, escape
//! rate, and bits-per-value decide both ratio and speed (Tao et al., IPDPS
//! 2017 §V). This crate lets the running codec report those numbers instead
//! of discarding them: a [`TelemetrySink`] trait the session-layer hot paths
//! talk to, with every method an `#[inline]` empty default so the disabled
//! configuration compiles down to one pointer-is-none branch per stage —
//! no timestamps, no allocation, no atomic traffic.
//!
//! Three layers:
//!
//! * **Sinks** — [`NoopSink`] (attached but inert: [`TelemetrySink::enabled`]
//!   returns `false`, so instrumented code skips even clock reads) and
//!   [`RecordingSink`] (mutex-guarded accumulator; `&self` methods so one
//!   sink can be shared across chunked workers, or one per worker merged
//!   with [`RecordingSink::merge_from`]).
//! * **Events** — per-stage [`Stage`] spans (monotonic nanoseconds + a byte
//!   volume), scalar [`Counter`]s (cache hits, interval-search iterations,
//!   fused-path demotions), flat per-band [`BandRecord`]s (hit/escape
//!   counts, stream split, Huffman table shape, planner estimate).
//! * **Reports** — [`RecordingSink::report`] freezes the accumulated state
//!   into a [`TelemetryReport`] with the same hand-rolled line-oriented
//!   `key=value` text format the planner's `PlanReport` uses
//!   ([`TelemetryReport::from_text`] inverts [`TelemetryReport::to_text`]
//!   exactly) plus a hand-rolled JSON rendering for `--telemetry=json`.
//!
//! Span timing goes through [`time_it`] — the metrics crate's monotonic
//! (`std::time::Instant`) stopwatch — re-exported here alongside
//! [`Throughput`] so there is exactly one timing implementation in the
//! workspace; [`timed`] is the enabled-gated wrapper the codec stages use.

use std::sync::Mutex;

pub use szr_metrics::{time_it, Throughput};

/// A timed pipeline stage. Compress-side stages come first, decode-side
/// last; fused compression folds entropy coding into
/// [`Stage::PredictQuantize`] (one pass over the data), leaving
/// [`Stage::EntropyEncode`] to cover table build + code-stream assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Prediction + error-controlled quantization scan (fused mode: the
    /// whole quantize→encode row pass).
    PredictQuantize,
    /// Huffman table build + code-stream serialization.
    EntropyEncode,
    /// DEFLATE post-pass (compress) or inflate of a post-passed payload
    /// (decompress).
    Deflate,
    /// Band/container header serialization or parse.
    HeaderIo,
    /// Decode-side Huffman symbol pull (per-group batched `decode_into`).
    SymbolDecode,
    /// Decode-side reconstruction (escape decode, the alphabet check where
    /// the band's table needs it, and the wavefront scan).
    RowReconstruct,
}

impl Stage {
    /// Every stage, in serialization order.
    pub const ALL: [Stage; 6] = [
        Stage::PredictQuantize,
        Stage::EntropyEncode,
        Stage::Deflate,
        Stage::HeaderIo,
        Stage::SymbolDecode,
        Stage::RowReconstruct,
    ];
    /// Number of stages (accumulator array size).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used by both serializations.
    pub fn name(self) -> &'static str {
        match self {
            Stage::PredictQuantize => "predict_quantize",
            Stage::EntropyEncode => "entropy_encode",
            Stage::Deflate => "deflate",
            Stage::HeaderIo => "header_io",
            Stage::SymbolDecode => "symbol_decode",
            Stage::RowReconstruct => "row_reconstruct",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&s| s == self).unwrap()
    }

    fn from_name(name: &str) -> Option<Stage> {
        Self::ALL.iter().copied().find(|s| s.name() == name)
    }
}

/// A scalar event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Session kernel cache served an existing `ScanKernel`.
    KernelCacheHit,
    /// Session kernel cache had to build a new `ScanKernel`.
    KernelCacheMiss,
    /// Decode-side Huffman codec cache matched the archive's raw table span.
    CodecTableCacheHit,
    /// Decode-side Huffman codec cache rebuilt (new table span).
    CodecTableCacheMiss,
    /// Candidate bit-widths scanned by the adaptive interval search.
    IntervalSearchIterations,
    /// Fused table-reuse codes demoted to in-band escapes (out-of-table).
    FusedDemotions,
    /// Fused table-reuse watchdog reseeds (drift forced a staged re-encode).
    FusedTableReseeds,
    /// Archive sections whose stored CRC-32 did not match the bytes read.
    ChecksumFailures,
    /// Damaged bands replaced with the fill value during a salvage decode.
    SalvagedBands,
    /// Bands an idle worker stole from another worker's queue (scheduler
    /// imbalance signal).
    SchedulerSteals,
    /// Jobs the archive service turned away at admission (queue full under
    /// the reject backpressure policy).
    RejectedJobs,
    /// DEFLATE blocks emitted (one per splitter segment, or one per fixed
    /// 64 KiB window when splitting is off).
    DeflateBlocks,
    /// Content-aware split boundaries the DEFLATE splitter committed
    /// (boundaries that survived the exact-cost merge-back).
    DeflateSplitBoundaries,
    /// LZ77 back-reference tokens emitted by the DEFLATE matcher.
    DeflateMatchTokens,
    /// LZ77 literal tokens emitted by the DEFLATE matcher.
    DeflateLiteralTokens,
    /// Bands whose escape-LZ trial won (escape section stored deflated).
    EscapeLzBands,
    /// Sampled DEFLATE trials that predicted a saving under 0.5%, so the
    /// full pass (payload post-pass or escape-LZ trial) was skipped.
    DeflateTrialSkips,
}

impl Counter {
    /// Every counter, in serialization order.
    pub const ALL: [Counter; 17] = [
        Counter::KernelCacheHit,
        Counter::KernelCacheMiss,
        Counter::CodecTableCacheHit,
        Counter::CodecTableCacheMiss,
        Counter::IntervalSearchIterations,
        Counter::FusedDemotions,
        Counter::FusedTableReseeds,
        Counter::ChecksumFailures,
        Counter::SalvagedBands,
        Counter::SchedulerSteals,
        Counter::RejectedJobs,
        Counter::DeflateBlocks,
        Counter::DeflateSplitBoundaries,
        Counter::DeflateMatchTokens,
        Counter::DeflateLiteralTokens,
        Counter::EscapeLzBands,
        Counter::DeflateTrialSkips,
    ];
    /// Number of counters (accumulator array size).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used by both serializations.
    pub fn name(self) -> &'static str {
        match self {
            Counter::KernelCacheHit => "kernel_cache_hit",
            Counter::KernelCacheMiss => "kernel_cache_miss",
            Counter::CodecTableCacheHit => "codec_table_cache_hit",
            Counter::CodecTableCacheMiss => "codec_table_cache_miss",
            Counter::IntervalSearchIterations => "interval_search_iterations",
            Counter::FusedDemotions => "fused_demotions",
            Counter::FusedTableReseeds => "fused_table_reseeds",
            Counter::ChecksumFailures => "checksum_failures",
            Counter::SalvagedBands => "salvaged_bands",
            Counter::SchedulerSteals => "scheduler_steals",
            Counter::RejectedJobs => "rejected_jobs",
            Counter::DeflateBlocks => "deflate_blocks",
            Counter::DeflateSplitBoundaries => "deflate_split_boundaries",
            Counter::DeflateMatchTokens => "deflate_match_tokens",
            Counter::DeflateLiteralTokens => "deflate_literal_tokens",
            Counter::EscapeLzBands => "escape_lz_bands",
            Counter::DeflateTrialSkips => "deflate_trial_skips",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).unwrap()
    }

    fn from_name(name: &str) -> Option<Counter> {
        Self::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// Accumulated measurements for one [`Stage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of spans recorded.
    pub calls: u64,
    /// Total monotonic nanoseconds across all calls.
    pub nanos: u64,
    /// Total bytes the stage produced or consumed.
    pub bytes: u64,
}

/// Everything the compressor knows about one band at compress time, flat
/// and heap-free (`Copy`) so building one on the instrumented path cannot
/// allocate even with a recording sink attached.
#[derive(Debug, Clone, Copy)]
pub struct BandRecord {
    /// Band index within the archive (0 for single-band archives).
    pub index: u64,
    /// Points in the band.
    pub points: u64,
    /// Predictable points (quantization hit).
    pub hits: u64,
    /// Unpredictable points (binary-representation escape).
    pub escapes: u64,
    /// Prediction layer count `n` used for this band.
    pub layers: u32,
    /// `m`: the band used `2^m − 1` quantization intervals.
    pub interval_bits: u32,
    /// Serialized Huffman code-stream bits (payload only, table excluded).
    pub code_stream_bits: u64,
    /// Serialized escape-stream bits (binary-representation block).
    pub escape_stream_bits: u64,
    /// Serialized Huffman table bytes (0 for shared-table bands: the table
    /// lives in the container, not the band).
    pub table_bytes: u64,
    /// Symbols with a nonzero code length in the band's table.
    pub table_symbols: u64,
    /// Longest code length in the band's table (its decode depth).
    pub table_depth: u32,
    /// Total serialized band bytes (header + payload).
    pub archive_bytes: u64,
    /// Planner-estimated bits per value for this band (`NaN` when the band
    /// was not compressed under a plan) — compare with
    /// [`BandRecord::bits_per_value`] for planner drift.
    pub estimated_bits_per_value: f64,
}

impl PartialEq for BandRecord {
    fn eq(&self, other: &Self) -> bool {
        // Bitwise-compatible equality on the estimate so a `NaN` ("no plan")
        // record round-trips as equal through the text format.
        self.index == other.index
            && self.points == other.points
            && self.hits == other.hits
            && self.escapes == other.escapes
            && self.layers == other.layers
            && self.interval_bits == other.interval_bits
            && self.code_stream_bits == other.code_stream_bits
            && self.escape_stream_bits == other.escape_stream_bits
            && self.table_bytes == other.table_bytes
            && self.table_symbols == other.table_symbols
            && self.table_depth == other.table_depth
            && self.archive_bytes == other.archive_bytes
            && (self.estimated_bits_per_value == other.estimated_bits_per_value
                || (self.estimated_bits_per_value.is_nan()
                    && other.estimated_bits_per_value.is_nan()))
    }
}

impl BandRecord {
    /// An all-zero record for band `index` (estimate `NaN`).
    pub fn new(index: u64) -> Self {
        BandRecord {
            index,
            points: 0,
            hits: 0,
            escapes: 0,
            layers: 0,
            interval_bits: 0,
            code_stream_bits: 0,
            escape_stream_bits: 0,
            table_bytes: 0,
            table_symbols: 0,
            table_depth: 0,
            archive_bytes: 0,
            estimated_bits_per_value: f64::NAN,
        }
    }

    /// Prediction hit rate (the paper's Table II metric); 0 for an empty
    /// band.
    pub fn hit_rate(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.hits as f64 / self.points as f64
        }
    }

    /// Escape (unpredictable-point) rate; 0 for an empty band.
    pub fn escape_rate(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.escapes as f64 / self.points as f64
        }
    }

    /// Actual serialized bits per value.
    pub fn bits_per_value(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            (self.archive_bytes * 8) as f64 / self.points as f64
        }
    }

    /// Planner drift: actual minus estimated bits per value, when the band
    /// carried an estimate.
    pub fn drift_bits_per_value(&self) -> Option<f64> {
        if self.estimated_bits_per_value.is_nan() {
            None
        } else {
            Some(self.bits_per_value() - self.estimated_bits_per_value)
        }
    }
}

/// Event consumer the codec hot paths talk to.
///
/// Every method has an `#[inline]` empty default, so a sink that overrides
/// nothing ([`NoopSink`]) costs exactly the `enabled()` branch. Methods take
/// `&self`: sinks are shared across chunked workers and sessions, so a
/// recording implementation synchronizes internally.
pub trait TelemetrySink: Send + Sync {
    /// Whether the instrumented code should measure at all. Hot paths gate
    /// clock reads and record assembly on this, so a disabled sink skips
    /// the measurement work itself, not just the delivery.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// One timed stage execution: `nanos` of monotonic wall clock over
    /// `bytes` of produced/consumed data.
    #[inline]
    fn span(&self, _stage: Stage, _nanos: u64, _bytes: u64) {}

    /// Add `n` to a scalar counter.
    #[inline]
    fn counter(&self, _counter: Counter, _n: u64) {}

    /// One compressed band's full statistics.
    #[inline]
    fn band(&self, _record: &BandRecord) {}
}

/// A sink that ignores everything — for measuring the cost of having
/// telemetry *attached* (the overhead-guard bench) and as a stand-in where
/// an API wants a sink unconditionally.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {}

#[derive(Default)]
struct Inner {
    spans: [SpanStat; Stage::COUNT],
    counters: [u64; Counter::COUNT],
    bands: Vec<BandRecord>,
}

/// Accumulating sink: everything delivered is folded into per-stage span
/// stats, counters, and a band list behind one mutex (events are O(bands +
/// stages) per compression, so contention is negligible even shared across
/// chunked workers).
#[derive(Default)]
pub struct RecordingSink {
    inner: Mutex<Inner>,
}

impl RecordingSink {
    /// An empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all accumulated state (for reusing one sink across runs).
    pub fn clear(&self) {
        *self.inner.lock().unwrap() = Inner::default();
    }

    /// Folds everything `other` recorded into `self` — the chunked drivers
    /// give each worker its own sink and merge them into the caller's
    /// per-archive sink. Bands are re-sorted by index afterwards so the
    /// merged report lists them in archive order regardless of which worker
    /// finished first.
    pub fn merge_from(&self, other: &RecordingSink) {
        let other = other.inner.lock().unwrap();
        let mut inner = self.inner.lock().unwrap();
        for (dst, src) in inner.spans.iter_mut().zip(other.spans.iter()) {
            dst.calls += src.calls;
            dst.nanos += src.nanos;
            dst.bytes += src.bytes;
        }
        for (dst, src) in inner.counters.iter_mut().zip(other.counters.iter()) {
            *dst += *src;
        }
        inner.bands.extend_from_slice(&other.bands);
        inner.bands.sort_by_key(|b| b.index);
    }

    /// Freezes the accumulated state into a serializable report.
    pub fn report(&self) -> TelemetryReport {
        let inner = self.inner.lock().unwrap();
        TelemetryReport {
            spans: Stage::ALL
                .iter()
                .filter(|s| inner.spans[s.index()].calls > 0)
                .map(|&s| (s, inner.spans[s.index()]))
                .collect(),
            counters: Counter::ALL
                .iter()
                .filter(|c| inner.counters[c.index()] > 0)
                .map(|&c| (c, inner.counters[c.index()]))
                .collect(),
            bands: inner.bands.clone(),
        }
    }
}

impl TelemetrySink for RecordingSink {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn span(&self, stage: Stage, nanos: u64, bytes: u64) {
        let mut inner = self.inner.lock().unwrap();
        let s = &mut inner.spans[stage.index()];
        s.calls += 1;
        s.nanos += nanos;
        s.bytes += bytes;
    }

    fn counter(&self, counter: Counter, n: u64) {
        self.inner.lock().unwrap().counters[counter.index()] += n;
    }

    fn band(&self, record: &BandRecord) {
        self.inner.lock().unwrap().bands.push(*record);
    }
}

/// Runs `f`, timing it through [`time_it`]'s monotonic clock only when
/// `enabled`; returns the output and elapsed nanoseconds (0 when disabled).
///
/// This is the single gate all codec span timing goes through: disabled
/// telemetry performs no clock reads at all.
#[inline]
pub fn timed<R>(enabled: bool, f: impl FnOnce() -> R) -> (R, u64) {
    if enabled {
        let (out, t) = time_it(0, f);
        (out, t.elapsed.as_nanos() as u64)
    } else {
        (f(), 0)
    }
}

/// A frozen, serializable snapshot of everything a [`RecordingSink`]
/// accumulated over one compression or decompression run.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Per-stage span stats, stages with at least one call only.
    pub spans: Vec<(Stage, SpanStat)>,
    /// Nonzero counters only.
    pub counters: Vec<(Counter, u64)>,
    /// One record per compressed band, in archive order.
    pub bands: Vec<BandRecord>,
}

impl TelemetryReport {
    /// Total points across all bands.
    pub fn total_points(&self) -> u64 {
        self.bands.iter().map(|b| b.points).sum()
    }

    /// Aggregate prediction hit rate across all bands.
    pub fn hit_rate(&self) -> f64 {
        let points = self.total_points();
        if points == 0 {
            0.0
        } else {
            self.bands.iter().map(|b| b.hits).sum::<u64>() as f64 / points as f64
        }
    }

    /// Aggregate escape rate across all bands.
    pub fn escape_rate(&self) -> f64 {
        let points = self.total_points();
        if points == 0 {
            0.0
        } else {
            self.bands.iter().map(|b| b.escapes).sum::<u64>() as f64 / points as f64
        }
    }

    /// Aggregate serialized bits per value across all bands.
    pub fn bits_per_value(&self) -> f64 {
        let points = self.total_points();
        if points == 0 {
            0.0
        } else {
            self.bands.iter().map(|b| b.archive_bytes * 8).sum::<u64>() as f64 / points as f64
        }
    }

    /// Hit rate grouped by prediction layer count — the paper's Table II
    /// axis. One `(layers, hit_rate)` entry per distinct layer count, in
    /// ascending layer order.
    pub fn hit_rate_by_layer(&self) -> Vec<(u32, f64)> {
        let mut layers: Vec<u32> = self.bands.iter().map(|b| b.layers).collect();
        layers.sort_unstable();
        layers.dedup();
        layers
            .into_iter()
            .map(|n| {
                let (hits, points) = self
                    .bands
                    .iter()
                    .filter(|b| b.layers == n)
                    .fold((0u64, 0u64), |(h, p), b| (h + b.hits, p + b.points));
                (
                    n,
                    if points == 0 {
                        0.0
                    } else {
                        hits as f64 / points as f64
                    },
                )
            })
            .collect()
    }

    /// The accumulated value of `counter` (0 if never incremented).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| *c == counter)
            .map_or(0, |&(_, n)| n)
    }

    /// The span stats for `stage`, if it ran.
    pub fn span(&self, stage: Stage) -> Option<SpanStat> {
        self.spans
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|&(_, stat)| stat)
    }

    /// Serializes to the workspace's line-oriented `key=value` text format
    /// (same family as the planner's `PlanReport`); inverted exactly by
    /// [`TelemetryReport::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::from("szr-telemetry v1\n");
        for &(c, n) in &self.counters {
            out.push_str(&format!("counter={};n={n}\n", c.name()));
        }
        for &(s, stat) in &self.spans {
            out.push_str(&format!(
                "span={};calls={};nanos={};bytes={}\n",
                s.name(),
                stat.calls,
                stat.nanos,
                stat.bytes
            ));
        }
        for b in &self.bands {
            out.push_str(&format!(
                "band={};points={};hits={};escapes={};layers={};interval_bits={};\
                 code_bits={};escape_bits={};table_bytes={};table_symbols={};\
                 table_depth={};archive_bytes={};est_bpv={}\n",
                b.index,
                b.points,
                b.hits,
                b.escapes,
                b.layers,
                b.interval_bits,
                b.code_stream_bits,
                b.escape_stream_bits,
                b.table_bytes,
                b.table_symbols,
                b.table_depth,
                b.archive_bytes,
                b.estimated_bits_per_value
            ));
        }
        out.push_str("end\n");
        out
    }

    /// Parses a report previously produced by [`TelemetryReport::to_text`].
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some("szr-telemetry v1") {
            return Err("missing 'szr-telemetry v1' header".to_string());
        }
        let mut spans = Vec::new();
        let mut counters = Vec::new();
        let mut bands = Vec::new();
        let mut ended = false;
        for line in lines {
            if ended {
                return Err(format!("trailing content after end: {line:?}"));
            }
            if line == "end" {
                ended = true;
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed line {line:?}"))?;
            match key {
                // Written by reports before the codec dropped its SIMD
                // dispatch; stored reports keep parsing.
                "simd" => {}
                "counter" => counters.push(counter_from_text(value)?),
                "span" => spans.push(span_from_text(value)?),
                "band" => bands.push(band_from_text(value)?),
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        if !ended {
            return Err("missing end line".to_string());
        }
        Ok(TelemetryReport {
            spans,
            counters,
            bands,
        })
    }

    /// Hand-rolled JSON rendering (no external dependencies) for
    /// `--telemetry=json`: aggregate rates up front, then spans, counters,
    /// and per-band records. `NaN` estimates render as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"hit_rate\": {},\n", json_f64(self.hit_rate())));
        out.push_str(&format!(
            "  \"escape_rate\": {},\n",
            json_f64(self.escape_rate())
        ));
        out.push_str(&format!(
            "  \"bits_per_value\": {},\n",
            json_f64(self.bits_per_value())
        ));
        out.push_str("  \"hit_rate_by_layer\": {");
        for (i, (n, rate)) in self.hit_rate_by_layer().iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            out.push_str(&format!("{comma}\"{n}\": {}", json_f64(*rate)));
        }
        out.push_str("},\n");
        out.push_str("  \"counters\": {");
        for (i, (c, n)) in self.counters.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            out.push_str(&format!("{comma}\"{}\": {n}", c.name()));
        }
        out.push_str("},\n");
        out.push_str("  \"spans\": [");
        for (i, (s, stat)) in self.spans.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            out.push_str(&format!(
                "{comma}{{\"stage\": \"{}\", \"calls\": {}, \"nanos\": {}, \"bytes\": {}}}",
                s.name(),
                stat.calls,
                stat.nanos,
                stat.bytes
            ));
        }
        out.push_str("],\n");
        out.push_str("  \"bands\": [");
        for (i, b) in self.bands.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            let est = if b.estimated_bits_per_value.is_nan() {
                "null".to_string()
            } else {
                json_f64(b.estimated_bits_per_value)
            };
            out.push_str(&format!(
                "{comma}{{\"index\": {}, \"points\": {}, \"hits\": {}, \"escapes\": {}, \
                 \"hit_rate\": {}, \"layers\": {}, \"interval_bits\": {}, \
                 \"code_bits\": {}, \"escape_bits\": {}, \"table_bytes\": {}, \
                 \"table_symbols\": {}, \"table_depth\": {}, \"archive_bytes\": {}, \
                 \"bits_per_value\": {}, \"estimated_bits_per_value\": {est}}}",
                b.index,
                b.points,
                b.hits,
                b.escapes,
                json_f64(b.hit_rate()),
                b.layers,
                b.interval_bits,
                b.code_stream_bits,
                b.escape_stream_bits,
                b.table_bytes,
                b.table_symbols,
                b.table_depth,
                b.archive_bytes,
                json_f64(b.bits_per_value()),
            ));
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        // JSON has no NaN/inf; report them as null.
        "null".to_string()
    }
}

fn parse_u64(v: &str, what: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("bad {what} {v:?}"))
}

fn counter_from_text(s: &str) -> Result<(Counter, u64), String> {
    let (name, rest) = s
        .split_once(';')
        .ok_or_else(|| format!("malformed counter {s:?}"))?;
    let counter = Counter::from_name(name).ok_or_else(|| format!("unknown counter {name:?}"))?;
    let n = rest
        .strip_prefix("n=")
        .ok_or_else(|| format!("malformed counter {s:?}"))?;
    Ok((counter, parse_u64(n, "counter value")?))
}

fn span_from_text(s: &str) -> Result<(Stage, SpanStat), String> {
    let mut parts = s.split(';');
    let name = parts.next().unwrap_or("");
    let stage = Stage::from_name(name).ok_or_else(|| format!("unknown stage {name:?}"))?;
    let mut stat = SpanStat::default();
    for part in parts {
        let (field, v) = part
            .split_once('=')
            .ok_or_else(|| format!("malformed span field {part:?}"))?;
        match field {
            "calls" => stat.calls = parse_u64(v, "calls")?,
            "nanos" => stat.nanos = parse_u64(v, "nanos")?,
            "bytes" => stat.bytes = parse_u64(v, "bytes")?,
            other => return Err(format!("unknown span field {other:?}")),
        }
    }
    Ok((stage, stat))
}

fn band_from_text(s: &str) -> Result<BandRecord, String> {
    let mut parts = s.split(';');
    let index = parse_u64(parts.next().unwrap_or(""), "band index")?;
    let mut b = BandRecord::new(index);
    for part in parts {
        let (field, v) = part
            .split_once('=')
            .ok_or_else(|| format!("malformed band field {part:?}"))?;
        match field {
            "points" => b.points = parse_u64(v, "points")?,
            "hits" => b.hits = parse_u64(v, "hits")?,
            "escapes" => b.escapes = parse_u64(v, "escapes")?,
            "layers" => b.layers = parse_u64(v, "layers")? as u32,
            "interval_bits" => b.interval_bits = parse_u64(v, "interval_bits")? as u32,
            "code_bits" => b.code_stream_bits = parse_u64(v, "code_bits")?,
            "escape_bits" => b.escape_stream_bits = parse_u64(v, "escape_bits")?,
            "table_bytes" => b.table_bytes = parse_u64(v, "table_bytes")?,
            "table_symbols" => b.table_symbols = parse_u64(v, "table_symbols")?,
            "table_depth" => b.table_depth = parse_u64(v, "table_depth")? as u32,
            "archive_bytes" => b.archive_bytes = parse_u64(v, "archive_bytes")?,
            "est_bpv" => {
                b.estimated_bits_per_value = v.parse().map_err(|_| format!("bad est_bpv {v:?}"))?
            }
            other => return Err(format!("unknown band field {other:?}")),
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_report() -> TelemetryReport {
        let sink = RecordingSink::new();
        sink.span(Stage::PredictQuantize, 1200, 4096);
        sink.span(Stage::EntropyEncode, 300, 512);
        sink.counter(Counter::KernelCacheMiss, 1);
        sink.counter(Counter::KernelCacheHit, 3);
        let mut b = BandRecord::new(0);
        b.points = 1000;
        b.hits = 970;
        b.escapes = 30;
        b.layers = 1;
        b.interval_bits = 8;
        b.code_stream_bits = 2600;
        b.escape_stream_bits = 900;
        b.table_bytes = 40;
        b.table_symbols = 110;
        b.table_depth = 12;
        b.archive_bytes = 520;
        sink.band(&b);
        let mut b1 = BandRecord::new(1);
        b1.points = 1000;
        b1.hits = 900;
        b1.escapes = 100;
        b1.layers = 2;
        b1.archive_bytes = 700;
        b1.estimated_bits_per_value = 5.25;
        sink.band(&b1);
        sink.report()
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let report = sample_report();
        let text = report.to_text();
        let back = TelemetryReport::from_text(&text).unwrap();
        assert_eq!(report, back);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn aggregates_follow_band_records() {
        let report = sample_report();
        assert_eq!(report.total_points(), 2000);
        assert!((report.hit_rate() - 1870.0 / 2000.0).abs() < 1e-12);
        assert!((report.escape_rate() - 130.0 / 2000.0).abs() < 1e-12);
        let by_layer = report.hit_rate_by_layer();
        assert_eq!(by_layer.len(), 2);
        assert_eq!(by_layer[0].0, 1);
        assert!((by_layer[0].1 - 0.97).abs() < 1e-12);
        assert!((by_layer[1].1 - 0.90).abs() < 1e-12);
        assert_eq!(report.counter(Counter::KernelCacheHit), 3);
        assert_eq!(report.counter(Counter::FusedDemotions), 0);
    }

    #[test]
    fn merge_from_sums_and_orders_bands() {
        let a = RecordingSink::new();
        a.span(Stage::PredictQuantize, 100, 10);
        a.counter(Counter::KernelCacheHit, 2);
        let mut b1 = BandRecord::new(1);
        b1.points = 5;
        a.band(&b1);

        let b = RecordingSink::new();
        b.span(Stage::PredictQuantize, 50, 5);
        b.counter(Counter::KernelCacheHit, 1);
        let mut b0 = BandRecord::new(0);
        b0.points = 7;
        b.band(&b0);

        a.merge_from(&b);
        let report = a.report();
        assert_eq!(report.span(Stage::PredictQuantize).unwrap().calls, 2);
        assert_eq!(report.span(Stage::PredictQuantize).unwrap().nanos, 150);
        assert_eq!(report.counter(Counter::KernelCacheHit), 3);
        assert_eq!(report.bands[0].index, 0);
        assert_eq!(report.bands[1].index, 1);
    }

    #[test]
    fn noop_sink_is_disabled_and_object_safe() {
        let sink: Arc<dyn TelemetrySink> = Arc::new(NoopSink);
        assert!(!sink.enabled());
        // All events are accepted and ignored.
        sink.span(Stage::Deflate, 1, 1);
        sink.counter(Counter::FusedTableReseeds, 1);
        sink.band(&BandRecord::new(0));
    }

    #[test]
    fn timed_skips_the_clock_when_disabled() {
        let (out, nanos) = timed(false, || 7u32);
        assert_eq!((out, nanos), (7, 0));
        let (out, _) = timed(true, || 9u32);
        assert_eq!(out, 9);
    }

    #[test]
    fn from_text_rejects_malformed_input() {
        assert!(TelemetryReport::from_text("nope").is_err());
        assert!(TelemetryReport::from_text("szr-telemetry v1\nsimd=x\n").is_err());
        assert!(TelemetryReport::from_text("szr-telemetry v1\nwat=1\nend\n").is_err());
        assert!(
            TelemetryReport::from_text("szr-telemetry v1\nsimd=x\ncounter=bogus;n=1\nend\n")
                .is_err()
        );
    }

    /// Reports written while the codec still named its SIMD dispatch level
    /// carry a `simd=` line; it parses and is ignored.
    #[test]
    fn from_text_ignores_a_stored_simd_line() {
        let report = sample_report();
        let text = report.to_text();
        assert!(!text.contains("simd"));
        let stored = text.replacen("szr-telemetry v1\n", "szr-telemetry v1\nsimd=avx2\n", 1);
        assert_eq!(TelemetryReport::from_text(&stored).unwrap(), report);
    }

    #[test]
    fn json_renders_nan_estimate_as_null() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains("\"estimated_bits_per_value\": null"));
        assert!(json.contains("\"estimated_bits_per_value\": 5.250000"));
        assert!(json.contains("\"hit_rate\": 0.935000"));
    }
}
