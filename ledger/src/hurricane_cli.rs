//! `hurricane-cli`: the release `szr` binary, spawned sequentially from one
//! process — what a job script runs. Every op pays process start, file IO,
//! kernel build and the adaptive interval sampler cold, on the 3-D kernel
//! class, through `szr-parallel`'s chunked drivers and
//! `decompress_chunked_region`.
//!
//! Each op is one invocation on a seeded Hurricane Medium Uf01 field
//! (50×250×250 f32, 12.5 MB): `compress --rel 1e-4 --chunks 16`,
//! `decompress`, and `extract --region` over 5 of the 50 levels (op `read`,
//! several per cycle), all with `--threads <host.cpus>`.

use std::ffi::OsString;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use szr_core::DecodePolicy;
use szr_parallel::{
    band_index, compress_chunked, decompress_chunked, decompress_chunked_region, ChunkedArchive,
};
use szr_telemetry::TelemetryReport;
use szr_tensor::Tensor;

use crate::host::{self, Host};
use crate::probe::{self, check_bound, check_equal, elapsed_ms, Kinds, Totals, Traced, Traces};
use crate::report::{median, Metric, Tally};
use crate::{Opts, Outcome};

const FIELDS: usize = 2;
const CHUNKS: usize = 16;
/// Levels per region read: 10% of the field.
const READ_LEVELS: usize = 5;
/// Region reads per cycle, each over the next region in turn: reads are
/// short, so a cycle takes several for a steady tail.
const READS_PER_CYCLE: usize = 8;
const SETUP_REPS: usize = 5;
/// Enough cycles for a tail at or above the median.
const MIN_CYCLES: usize = 20;

struct Input {
    data: Tensor<f32>,
    bound: f64,
    raw: PathBuf,
    archive: PathBuf,
    decoded: PathBuf,
    /// `compress_chunked(..).to_bytes()` made in-process.
    reference: Vec<u8>,
    /// Raw bytes of the latest verified full decode through the CLI.
    full: Option<Vec<u8>>,
    psnr: Option<f64>,
}

/// Runs `szr` with `args`; returns its wall time in ms and its stdout.
fn szr(opts: &Opts, args: &[OsString]) -> Result<(f64, String), String> {
    let t = Instant::now();
    let out = Command::new(&opts.szr)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", opts.szr.display()))?;
    let ms = elapsed_ms(t);
    if !out.status.success() {
        return Err(format!(
            "szr {:?} exited with {}: {}",
            args.first(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok((ms, String::from_utf8_lossy(&out.stdout).into_owned()))
}

fn args(parts: &[&dyn AsRef<std::ffi::OsStr>]) -> Vec<OsString> {
    parts.iter().map(|p| p.as_ref().to_os_string()).collect()
}

fn dims_arg(data: &Tensor<f32>) -> String {
    let d: Vec<String> = data.dims().iter().map(usize::to_string).collect();
    d.join("x")
}

fn compress_args(input: &Input, threads: usize, traced: bool) -> Vec<OsString> {
    let mut a = args(&[
        &"compress",
        &"--input",
        &input.raw,
        &"--dims",
        &dims_arg(&input.data),
        &"--dtype",
        &"f32",
        &"--rel",
        &probe::REL.to_string(),
        &"--chunks",
        &CHUNKS.to_string(),
        &"--threads",
        &threads.to_string(),
        &"--output",
        &input.archive,
    ]);
    if traced {
        a.push("--telemetry".into());
    }
    a
}

fn parse_report(stdout: &str) -> Result<TelemetryReport, String> {
    TelemetryReport::from_text(stdout).map_err(|e| format!("telemetry report: {e}"))
}

/// Stages every input: writes the raw field and compresses it with the CLI.
fn stage(opts: &Opts, inputs: &[Input], threads: usize) -> Result<(), String> {
    for input in inputs {
        std::fs::write(&input.raw, probe::le_bytes(input.data.as_slice()))
            .map_err(|e| format!("cannot write {}: {e}", input.raw.display()))?;
        szr(opts, &compress_args(input, threads, false))?;
    }
    Ok(())
}

pub fn run(opts: &Opts, host: &Host) -> Result<Outcome, String> {
    let threads = host.cpus;
    std::fs::create_dir_all(&opts.work)
        .map_err(|e| format!("cannot create {}: {e}", opts.work.display()))?;
    let mut inputs = Vec::new();
    for k in 0..FIELDS {
        let (l, r, c) = szr_datagen::Scale::Medium.hurricane_dims();
        let data = szr_datagen::hurricane(l, r, c, opts.input_seed(k as u64));
        let reference = compress_chunked(&data, &probe::config(), CHUNKS, threads)
            .map_err(|e| format!("reference compress: {e}"))?
            .to_bytes();
        inputs.push(Input {
            bound: probe::bound(data.as_slice()),
            data,
            raw: opts.work.join(format!("uf{k}.bin")),
            archive: opts.work.join(format!("uf{k}.szr")),
            decoded: opts.work.join(format!("uf{k}.out")),
            reference,
            full: None,
            psnr: None,
        });
    }
    // Region reads start on band boundaries, so each touches the same
    // number of bands.
    let index = band_index(&inputs[0].reference).map_err(|e| format!("band index: {e}"))?;
    let levels = inputs[0].data.dims()[0];
    let plane = inputs[0].data.len() / levels;
    let regions: Vec<(usize, usize)> = index
        .entries
        .iter()
        .scan(0, |row, e| {
            let start = *row;
            *row += e.rows;
            Some(start)
        })
        .filter(|&s| s + READ_LEVELS <= levels)
        .map(|s| (s, s + READ_LEVELS))
        .collect();

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        stage(opts, &inputs, threads)?;
        setups.push(t.elapsed().as_secs_f64());
    }

    let roi = opts.work.join("roi.out");
    let mut tally = Tally::default();
    let (mut plain, mut traced) = (Kinds::default(), Kinds::default());
    let mut traces = Traces {
        threads,
        ..Traces::default()
    };
    let (mut bytes_moved, mut busy_ms) = (0.0, 0.0);
    let start = Instant::now();
    let (mut cycle, mut reads) = (0, 0);
    while cycle < MIN_CYCLES || start.elapsed().as_secs_f64() < opts.seconds {
        let on = opts.trace && cycle % 2 == 1;
        let input = &mut inputs[cycle % FIELDS];
        cycle += 1;
        let kinds = if on { &mut traced } else { &mut plain };
        let raw_bytes = (input.data.len() * 4) as f64;

        let out = szr(opts, &compress_args(input, threads, on)).and_then(|(ms, stdout)| {
            let archive = std::fs::read(&input.archive).map_err(|e| e.to_string())?;
            check_equal("archive", &archive, &input.reference)?;
            Ok((ms, on.then(|| parse_report(&stdout)).transpose()?))
        });
        let Some((ms, report)) = tally.record("compress", out) else {
            continue;
        };
        kinds.compress.push(ms);
        bytes_moved += raw_bytes;
        busy_ms += ms;
        if let Some(report) = report {
            traces.compress.push(Traced {
                wall_ms: ms,
                report,
            });
        }

        let mut a_dec = args(&[
            &"decompress",
            &"--input",
            &input.archive,
            &"--output",
            &input.decoded,
            &"--threads",
            &threads.to_string(),
        ]);
        if on {
            a_dec.push("--telemetry".into());
        }
        let out = szr(opts, &a_dec).and_then(|(ms, stdout)| {
            let bytes = std::fs::read(&input.decoded).map_err(|e| e.to_string())?;
            let values: Vec<f32> = bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            check_bound(input.data.as_slice(), &values, input.bound)?;
            if input.psnr.is_none() {
                input.psnr = Some(szr_metrics::psnr(input.data.as_slice(), &values));
            }
            input.full = Some(bytes);
            Ok((ms, on.then(|| parse_report(&stdout)).transpose()?))
        });
        if let Some((ms, report)) = tally.record("decompress", out) {
            kinds.decompress.push(ms);
            bytes_moved += raw_bytes;
            busy_ms += ms;
            if let Some(report) = report {
                traces.decompress.push(Traced {
                    wall_ms: ms,
                    report,
                });
            }
        }

        // `extract` has no telemetry: every read counts as untraced.
        for _ in 0..READS_PER_CYCLE {
            let (a, b) = regions[reads % regions.len()];
            reads += 1;
            let a_read = args(&[
                &"extract",
                &"--input",
                &input.archive,
                &"--region",
                &format!("{a}:{b}"),
                &"--output",
                &roi,
                &"--threads",
                &threads.to_string(),
            ]);
            let out = szr(opts, &a_read).and_then(|(ms, _)| {
                let got = std::fs::read(&roi).map_err(|e| e.to_string())?;
                let full = input
                    .full
                    .as_ref()
                    .ok_or("no verified full decode to compare with")?;
                check_equal("region", &got, &full[a * plane * 4..b * plane * 4])?;
                Ok(ms)
            });
            if let Some(ms) = tally.record("read", out) {
                plain.read.push(ms);
                bytes_moved += ((b - a) * plane * 4) as f64;
                busy_ms += ms;
            }
        }
    }

    let mut notes = vec![format!(
        "{cycle} cycles over {FIELDS} fields in {:.1} s, {threads} threads per szr call",
        start.elapsed().as_secs_f64()
    )];
    let metrics = if opts.trace {
        traced_metrics(&inputs[0], regions[0], threads, &plain, &traced, &traces)?
    } else {
        let raw: usize = inputs.iter().map(|i| i.data.len() * 4).sum();
        let packed: usize = inputs.iter().map(|i| i.reference.len()).sum();
        let psnr_db = inputs
            .iter()
            .filter_map(|i| i.psnr)
            .fold(f64::INFINITY, f64::min);
        let totals = Totals {
            throughput_mb_s: bytes_moved / 1e6 / (busy_ms / 1e3),
            ratio: raw as f64 / packed as f64,
            psnr_db,
            setup_s: median(&setups),
            peak_rss_mb: host::children_peak_rss_mb(),
        };
        plain.end_to_end(totals, &mut notes)
    };
    Ok(Outcome {
        tally,
        metrics,
        notes,
    })
}

/// Per-layer metrics: the CLI's own telemetry reports, plus the same public
/// calls made in-process for `cli.*_overhead_ms`.
fn traced_metrics(
    input: &Input,
    (a, b): (usize, usize),
    threads: usize,
    plain: &Kinds,
    traced: &Kinds,
    traces: &Traces,
) -> Result<Vec<Metric>, String> {
    let cfg = probe::config();
    let bytes = &input.reference;
    let archive = ChunkedArchive::from_bytes(bytes).map_err(|e| e.to_string())?;
    let compress_ms = probe::time_median(3, || {
        let packed = compress_chunked(&input.data, &cfg, CHUNKS, threads).map(|c| c.to_bytes());
        std::hint::black_box(packed.ok());
    });
    let decompress_ms = probe::time_median(3, || {
        std::hint::black_box(decompress_chunked::<f32>(&archive, threads).ok());
    });
    let read_ms = probe::time_median(5, || {
        let roi = decompress_chunked_region::<f32>(bytes, a..b, threads, DecodePolicy::Strict);
        std::hint::black_box(roi.ok());
    });
    let overheads = [
        (
            "cli.compress_overhead_ms",
            plain.compress.p50() - compress_ms,
        ),
        (
            "cli.decompress_overhead_ms",
            plain.decompress.p50() - decompress_ms,
        ),
        ("cli.read_overhead_ms", plain.read.p50() - read_ms),
    ];
    let index = band_index(bytes).map_err(|e| e.to_string())?;
    let (touched, _) = index.bands_covering_rows(a..b).map_err(|e| e.to_string())?;

    let mut m = traces.metrics();
    m.push(traces.efficiency());
    m.extend(Kinds::overhead_metrics(traced, plain));
    m.extend(overheads.map(|(name, value)| Metric { name, value }));
    m.extend([
        Metric {
            name: "cli.overhead_ms",
            value: overheads.iter().map(|(_, v)| v).sum::<f64>() / overheads.len() as f64,
        },
        Metric {
            name: "parallel.index_ms",
            value: probe::time_median(101, || {
                std::hint::black_box(band_index(bytes).ok());
            }),
        },
        Metric {
            name: "parallel.bands_touched_frac",
            value: touched.len() as f64 / index.bands() as f64,
        },
        Metric {
            name: "core.session_new_ms",
            value: probe::session_new_ms(&[&input.data]),
        },
        Metric {
            name: "core.interval_select_ms",
            value: probe::interval_select_ms(&[&input.data]),
        },
    ]);
    Ok(m)
}
