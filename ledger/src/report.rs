//! Latency statistics, the failure tally, the declared metric lists and the
//! one-line JSON result.

/// Samples beyond the reported tail percentile (see [`Samples::tail`]).
const TAIL_BEYOND: usize = 10;
/// Samples per time window of [`Samples::tail`]: a set of at least twice
/// this many is split into consecutive windows.
const TAIL_WINDOW: usize = 100;

/// End-to-end metrics (`--trace 0`): every workload reports every one.
pub const END_TO_END: [(&str, &str); 11] = [
    ("throughput_mb_s", "MB/s"),
    ("compress_ms_p50", "ms"),
    ("compress_ms_tail", "ms"),
    ("decompress_ms_p50", "ms"),
    ("decompress_ms_tail", "ms"),
    ("read_ms_p50", "ms"),
    ("read_ms_tail", "ms"),
    ("ratio", "x"),
    ("psnr_db", "dB"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload never reaches reads
/// 0 on that workload.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("host.cpus", "count"),
    ("host.parallel_speedup", "x"),
    ("core.session_new_ms", "ms"),
    ("core.interval_select_ms", "ms"),
    ("core.predict_quantize_ms", "ms"),
    ("core.row_reconstruct_ms", "ms"),
    ("core.header_io_ms", "ms"),
    ("core.compress_unattributed_ms", "ms"),
    ("core.decompress_unattributed_ms", "ms"),
    ("core.hit_rate", "ratio"),
    ("core.escape_rate", "ratio"),
    ("core.kernel_cache_miss", "count"),
    ("huffman.entropy_encode_ms", "ms"),
    ("huffman.symbol_decode_ms", "ms"),
    ("huffman.table_cache_miss", "count"),
    ("huffman.code_bits_per_value", "bits"),
    ("deflate.deflate_ms", "ms"),
    ("deflate.inflate_ms", "ms"),
    ("deflate.saved_frac", "ratio"),
    ("deflate.blocks", "count"),
    ("deflate.match_tokens", "count"),
    ("deflate.literal_tokens", "count"),
    ("parallel.efficiency", "ratio"),
    ("parallel.index_ms", "ms"),
    ("parallel.bands_touched_frac", "ratio"),
    ("server.admit_ms_p50", "ms"),
    ("server.exec_ms_p50", "ms"),
    ("server.compress_exec_ms_p50", "ms"),
    ("server.decompress_exec_ms_p50", "ms"),
    ("server.read_exec_ms_p50", "ms"),
    ("server.blocked_frac", "ratio"),
    ("server.steals_per_job", "count"),
    ("cli.overhead_ms", "ms"),
    ("cli.compress_overhead_ms", "ms"),
    ("cli.decompress_overhead_ms", "ms"),
    ("cli.read_overhead_ms", "ms"),
    ("telemetry.overhead_frac", "ratio"),
    ("telemetry.compress_overhead_frac", "ratio"),
    ("telemetry.decompress_overhead_frac", "ratio"),
    ("telemetry.read_overhead_frac", "ratio"),
];

/// Latencies of one op kind, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it,
/// taken per time window; the value is the median over windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The median over windows of the sample at that percentile.
    pub value: f64,
    /// The percentile in the smallest window, 0–100.
    pub percentile: f64,
    /// Samples in the smallest window.
    pub samples: usize,
    /// Samples above the reported one in the smallest window.
    pub beyond: usize,
    /// Consecutive windows the samples were split into, in arrival order.
    pub windows: usize,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The median (mean of the middle pair for an even count; 0 when empty).
    pub fn p50(&self) -> f64 {
        median(&self.0)
    }

    /// The tail. The samples, in arrival order, are split into
    /// `n / TAIL_WINDOW` consecutive windows (at least one). In each window
    /// the tail is the `k`-th smallest for the largest `k`
    /// leaving [`TAIL_BEYOND`] samples above it (with too few samples for
    /// that, the maximum). The value is the median of the window tails, so
    /// a burst of host load in one window does not move it.
    pub fn tail(&self) -> Tail {
        let n = self.0.len();
        let windows = (n / TAIL_WINDOW).max(1);
        let per: Vec<Tail> = (0..windows)
            .map(|w| window_tail(&self.0[w * n / windows..(w + 1) * n / windows]))
            .collect();
        let values: Vec<f64> = per.iter().map(|t| t.value).collect();
        let smallest = per.iter().min_by_key(|t| t.samples).copied();
        Tail {
            value: median(&values),
            windows,
            ..smallest.expect("at least one window")
        }
    }
}

/// The tail of one window (see [`Samples::tail`]).
fn window_tail(window: &[f64]) -> Tail {
    let mut v = window.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let k = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    Tail {
        value: if n == 0 { 0.0 } else { v[k - 1] },
        percentile: if n == 0 {
            0.0
        } else {
            100.0 * k as f64 / n as f64
        },
        samples: n,
        beyond: n - k,
        windows: 1,
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Ops attempted and failed. Every op — codec call plus its output checks —
/// is recorded exactly once; a failure is logged and never aborts the run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one op; returns its output when it succeeded.
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("ledger: {what} failed: {e}");
                None
            }
        }
    }
}

/// One measured value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// Whether `name` is a valid metric name: a letter or digit, then at most
/// 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The result line: every declared metric of the mode, in declared order.
/// An end-to-end metric a workload did not produce is an error; a per-layer
/// one reads 0 (the workload does not reach that layer).
pub fn result_line(tally: Tally, metrics: &[Metric], trace: bool) -> Result<String, String> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Some(m) = metrics
        .iter()
        .find(|m| !declared.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric {:?} is not declared", m.name));
    }
    let mut parts = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        let value = match metrics.iter().find(|m| m.name == name) {
            Some(m) => m.value,
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        // Pushed out of order: selection must sort.
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let t = samples(25).tail();
        assert_eq!(t.value, 15.0);
        assert_eq!(t.percentile, 60.0);
        assert_eq!((t.samples, t.beyond), (25, 10));

        let t = samples(100).tail();
        assert_eq!((t.value, t.percentile, t.beyond), (90.0, 90.0, 10));

        let t = samples(11).tail();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn tail_of_too_few_samples_is_the_maximum() {
        let t = samples(10).tail();
        assert_eq!(
            (t.value, t.percentile, t.samples, t.beyond),
            (10.0, 100.0, 10, 0)
        );
        let t = Samples::default().tail();
        assert_eq!((t.value, t.samples, t.beyond), (0.0, 0, 0));
    }

    #[test]
    fn tail_is_the_median_over_windows() {
        // 300 samples arrive as 300, 299, …, 1: three windows of 100 whose
        // tails are 290, 190 and 90.
        let t = samples(300).tail();
        assert_eq!((t.value, t.percentile), (190.0, 90.0));
        assert_eq!((t.samples, t.beyond, t.windows), (100, 10, 3));

        // 250 samples: two windows of 125; tails 240 and 115.
        let t = samples(250).tail();
        assert_eq!((t.value, t.percentile), (177.5, 92.0));
        assert_eq!((t.samples, t.beyond, t.windows), (125, 10, 2));

        // Under two windows' worth, one window: the whole set.
        let t = samples(199).tail();
        assert_eq!((t.value, t.samples, t.windows), (189.0, 199, 1));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(samples(4).p50(), 2.5);
        assert_eq!(samples(5).p50(), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
        }
        assert!(valid_name("core.hit_rate"));
        assert!(valid_name("9-lives_v1.2"));
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "p50%",
            "a/b",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn declared_names_are_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(n), "{n} declared twice");
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside the ledger");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_requires_every_end_to_end_metric() {
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        let all: Vec<Metric> = END_TO_END
            .iter()
            .map(|&(name, _)| Metric { name, value: 1.5 })
            .collect();
        let line = result_line(tally, &all, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(result_line(tally, &all[1..], false).is_err());
        // Per-layer metrics a workload does not reach read 0.
        let line = result_line(tally, &[], true).unwrap();
        assert!(line.contains("\"server.blocked_frac\": {\"value\": 0.0, \"unit\": \"ratio\"}"));
        let stray = [Metric {
            name: "nope",
            value: 1.0,
        }];
        assert!(result_line(tally, &stray, true).is_err());
        let nan = [Metric {
            name: "core.hit_rate",
            value: f64::NAN,
        }];
        assert!(result_line(tally, &nan, true).is_err());
    }
}
