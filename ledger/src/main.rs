//! The performance ledger: one seeded command that drives szr's public entry
//! points through a workload, checks every output, and prints every metric
//! by name with its unit. See README.md for the workloads and metrics.
//!
//! ```text
//! szr-ledger --szr PATH --work DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` is the separate traced run that yields the per-layer metrics.
//! The last line of standard output is the JSON result.

mod aps_service;
mod atm_warm;
mod host;
mod hurricane_cli;
mod probe;
mod report;

use std::path::PathBuf;

use report::{Metric, Tally};

/// Command-line options shared by every workload.
pub struct Opts {
    pub seed: u64,
    /// Minimum measuring time of the op loop.
    pub seconds: f64,
    pub trace: bool,
    /// The `szr` CLI binary.
    pub szr: PathBuf,
    /// Scratch directory for CLI inputs and outputs (created and removed).
    pub work: PathBuf,
}

impl Opts {
    /// Generator seed of input `k` of a run: distinct per (seed, k).
    pub fn input_seed(&self, k: u64) -> u64 {
        self.seed.wrapping_mul(1_000).wrapping_add(k)
    }
}

/// What a workload measured.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

const WORKLOADS: [&str; 3] = ["atm-warm", "hurricane-cli", "aps-service"];

fn parse_args() -> Result<(String, Opts), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut szr, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} (expected 0 or 1)")),
                })
            }
            "--szr" => szr = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let work = work.ok_or("--work is required")?;
    Ok((
        workload,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            szr: szr.ok_or("--szr is required")?,
            work: work.join(format!("run-{}", std::process::id())),
        },
    ))
}

fn main() {
    let (workload, opts) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(2);
        }
    };
    let host = host::calibrate();
    let outcome = match workload.as_str() {
        "atm-warm" => atm_warm::run(&opts, &host),
        "hurricane-cli" => hurricane_cli::run(&opts, &host),
        _ => aps_service::run(&opts, &host),
    };
    let _ = std::fs::remove_dir_all(&opts.work);
    let line = outcome.and_then(|mut o| {
        if opts.trace {
            o.metrics.push(Metric {
                name: "host.cpus",
                value: host.cpus as f64,
            });
            o.metrics.push(Metric {
                name: "host.parallel_speedup",
                value: host.parallel_speedup,
            });
        }
        println!(
            "ledger: workload {workload}, seed {}, host.cpus {}, host.parallel_speedup {:.3}{}",
            opts.seed,
            host.cpus,
            host.parallel_speedup,
            if host.parallel_speedup < 1.5 {
                " (thread scaling unresolved on this host)"
            } else {
                ""
            }
        );
        println!(
            "ledger: attempted {}, failed {}, fail_ratio {}",
            o.tally.attempted,
            o.tally.failed,
            o.tally.failed as f64 / o.tally.attempted.max(1) as f64
        );
        for note in &o.notes {
            println!("ledger: {note}");
        }
        if o.tally.attempted == 0 {
            return Err("no op was attempted".to_string());
        }
        report::result_line(o.tally, &o.metrics, opts.trace)
    });
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(1);
        }
    }
}
