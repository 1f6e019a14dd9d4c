//! `aps-service`: an in-process `ArchiveService<f32>` — writes and reads
//! sharing one scheduler and one warm pool. The only workload with
//! admission, work stealing and O(touched bands) reads; short reads queue
//! behind long compress jobs, which shows in `read_ms_tail`.
//!
//! `workers = host.cpus`, `Backpressure::Block`, pool warmed in set-up. A
//! closed loop on the main thread keeps `2 × workers` jobs in flight,
//! repeating 1 `submit_compress` (APS Medium 1280×1280, 6.55 MB, 32 bands),
//! 1 `submit_decompress` and 2 `read_region` (3 of 32 bands, rotating).
//! Latency runs from submit to completion.

use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use szr_core::DecodePolicy;
use szr_parallel::{band_index, compress_chunked, decompress_chunked};
use szr_server::{
    ArchiveService, Backpressure, CompressHandle, ServiceConfig, ServiceError, TensorHandle,
};
use szr_telemetry::RecordingSink;
use szr_tensor::Tensor;

use crate::host::{self, Host};
use crate::probe::{self, check_bound, check_equal, elapsed_ms, Kinds, Totals, Traced, Traces};
use crate::report::{median, Metric, Samples, Tally};
use crate::{Opts, Outcome};

const FIELDS: usize = 2;
const CHUNKS: usize = 32;
const READ_BANDS: usize = 3;
/// The service set-up is short (tens of ms), so its median takes more reps.
const SETUP_REPS: usize = 9;
/// The op mix, repeated. Reads alternate with the heavy jobs: in the order
/// compress, decompress, read, read the read p50 fell in the gap between
/// reads queued behind a heavy job and reads that were not.
const MIX: [Kind; 4] = [Kind::Compress, Kind::Read, Kind::Decompress, Kind::Read];
/// Ops per measuring window at least: enough for an 11-sample tail of
/// every kind.
const MIN_OPS: usize = 48;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Compress,
    Decompress,
    Read,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Compress => "compress",
            Kind::Decompress => "decompress",
            Kind::Read => "read",
        }
    }
}

struct Input {
    data: Arc<Tensor<f32>>,
    bound: f64,
    /// `compress_chunked(..).to_bytes()` made in-process.
    archive: Arc<Vec<u8>>,
    /// The in-process full decode of `archive`.
    full: Vec<f32>,
    psnr: Option<f64>,
}

struct Op {
    kind: Kind,
    input: usize,
    rows: Range<usize>,
}

enum Handle {
    Archive(CompressHandle<f32>),
    Tensor(TensorHandle<f32>),
}

enum Output {
    Archive(Vec<u8>),
    Tensor(Tensor<f32>),
}

impl Handle {
    fn wait(self) -> Result<Output, ServiceError> {
        match self {
            Handle::Archive(h) => h.wait().map(Output::Archive),
            Handle::Tensor(h) => h.wait().map(Output::Tensor),
        }
    }
}

struct Done {
    op: Op,
    latency_ms: f64,
    result: Result<Output, ServiceError>,
    sink: Option<Arc<RecordingSink>>,
}

/// Everything the loop accumulates across windows.
#[derive(Default)]
struct State {
    tally: Tally,
    plain: Kinds,
    traced: Kinds,
    traces: Traces,
    /// Time inside `submit_*` / `read_region`, every job.
    admit: Samples,
    /// Σ spans in each traced job's own sink, by kind.
    exec: [Vec<f64>; 3],
    bytes_moved: f64,
    ops: usize,
}

fn submit(
    svc: &ArchiveService<f32>,
    op: &Op,
    input: &Input,
    sink: Option<Arc<RecordingSink>>,
) -> Result<Handle, ServiceError> {
    let policy = DecodePolicy::Strict;
    match op.kind {
        Kind::Compress => svc
            .submit_compress(Arc::clone(&input.data), probe::config(), CHUNKS, sink)
            .map(Handle::Archive),
        Kind::Decompress => svc
            .submit_decompress(Arc::clone(&input.archive), policy, sink)
            .map(Handle::Tensor),
        Kind::Read => svc
            .read_region(Arc::clone(&input.archive), op.rows.clone(), policy, sink)
            .map(Handle::Tensor),
    }
}

impl State {
    /// Checks one completed job and records it.
    fn finish(&mut self, done: Done, inputs: &mut [Input], row_len: usize, traced: bool) {
        let Done {
            op,
            latency_ms,
            result,
            sink,
        } = done;
        let input = &mut inputs[op.input];
        let checked = result
            .map_err(|e| e.to_string())
            .and_then(|out| match (op.kind, out) {
                (Kind::Compress, Output::Archive(bytes)) => {
                    check_equal("archive", &bytes, &input.archive)?;
                    Ok(input.data.len() * 4)
                }
                (Kind::Decompress, Output::Tensor(t)) => {
                    check_bound(input.data.as_slice(), t.as_slice(), input.bound)?;
                    if input.psnr.is_none() {
                        input.psnr = Some(szr_metrics::psnr(input.data.as_slice(), t.as_slice()));
                    }
                    Ok(t.len() * 4)
                }
                (Kind::Read, Output::Tensor(t)) => {
                    let rows = op.rows.start * row_len..op.rows.end * row_len;
                    check_equal("region", t.as_slice(), &input.full[rows])?;
                    Ok(t.len() * 4)
                }
                _ => Err("job returned the wrong kind of output".into()),
            });
        let Some(bytes) = self.tally.record(op.kind.name(), checked) else {
            return;
        };
        self.bytes_moved += bytes as f64;
        let kinds = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        let (samples, traces) = match op.kind {
            Kind::Compress => (&mut kinds.compress, &mut self.traces.compress),
            Kind::Decompress => (&mut kinds.decompress, &mut self.traces.decompress),
            Kind::Read => (&mut kinds.read, &mut self.traces.read),
        };
        samples.push(latency_ms);
        if let Some(sink) = sink {
            let report = sink.report();
            let spans: u64 = report.spans.iter().map(|(_, s)| s.nanos).sum();
            self.exec[op.kind as usize].push(spans as f64 / 1e6);
            traces.push(Traced {
                wall_ms: latency_ms,
                report,
            });
        }
    }
}

/// The closed loop's fixed parts.
struct Loop<'a> {
    svc: &'a ArchiveService<f32>,
    /// Row ranges the reads rotate through.
    regions: &'a [Range<usize>],
    /// Values per row of every input.
    row_len: usize,
    /// Jobs kept in flight.
    depth: usize,
}

impl Loop<'_> {
    /// One window: submits the mix with `depth` jobs in flight until
    /// `seconds` have passed (and at least [`MIN_OPS`] ops), then drains. A
    /// waiter thread per job timestamps its completion. Returns the window's
    /// wall time in seconds.
    fn window(&self, inputs: &mut [Input], seconds: f64, traced: bool, st: &mut State) -> f64 {
        let start = Instant::now();
        let first_op = st.ops;
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<Done>();
            let mut in_flight = 0;
            let mut pending = None;
            loop {
                while in_flight < self.depth
                    && (st.ops - first_op < MIN_OPS || start.elapsed().as_secs_f64() < seconds)
                {
                    let n = st.ops;
                    st.ops += 1;
                    let (cycle, pos) = (n / MIX.len(), n % MIX.len());
                    let kind = MIX[pos];
                    let reads_before =
                        |mix: &[Kind]| mix.iter().filter(|&&k| k == Kind::Read).count();
                    let read_no = cycle * reads_before(&MIX) + reads_before(&MIX[..pos]);
                    let op = Op {
                        kind,
                        input: cycle % inputs.len(),
                        rows: self.regions[read_no % self.regions.len()].clone(),
                    };
                    let sink = traced.then(|| Arc::new(RecordingSink::new()));
                    let t = Instant::now();
                    let submitted = submit(self.svc, &op, &inputs[op.input], sink.clone());
                    st.admit.push(elapsed_ms(t));
                    match submitted {
                        Err(e) => {
                            st.tally.record(kind.name(), Err::<(), _>(e.to_string()));
                        }
                        Ok(handle) => {
                            in_flight += 1;
                            let tx = tx.clone();
                            s.spawn(move || {
                                let result = handle.wait();
                                let latency_ms = elapsed_ms(t);
                                // The receiver outlives every waiter.
                                let _ = tx.send(Done {
                                    op,
                                    latency_ms,
                                    result,
                                    sink,
                                });
                            });
                        }
                    }
                }
                // A completion is checked after its replacement is submitted,
                // so checking never holds the loop below `depth`.
                if let Some(done) = pending.take() {
                    st.finish(done, inputs, self.row_len, traced);
                }
                if in_flight == 0 {
                    break;
                }
                pending = Some(rx.recv().expect("a waiter holds a sender"));
                in_flight -= 1;
            }
        });
        start.elapsed().as_secs_f64()
    }
}

pub fn run(opts: &Opts, host: &Host) -> Result<Outcome, String> {
    let workers = host.cpus;
    let cfg = probe::config();
    let (rows, cols) = szr_datagen::Scale::Medium.aps_dims();
    let mut inputs = Vec::new();
    for k in 0..FIELDS {
        let data = szr_datagen::aps(rows, cols, opts.input_seed(k as u64));
        let chunked = compress_chunked(&data, &cfg, CHUNKS, workers)
            .map_err(|e| format!("reference compress: {e}"))?;
        let full = decompress_chunked::<f32>(&chunked, workers)
            .map_err(|e| format!("reference decode: {e}"))?
            .into_vec();
        inputs.push(Input {
            bound: probe::bound(data.as_slice()),
            data: Arc::new(data),
            archive: Arc::new(chunked.to_bytes()),
            full,
            psnr: None,
        });
    }
    let index = band_index(&inputs[0].archive).map_err(|e| format!("band index: {e}"))?;
    let starts: Vec<usize> = index
        .entries
        .iter()
        .scan(0, |row, e| {
            let start = *row;
            *row += e.rows;
            Some(start)
        })
        .chain([rows])
        .collect();
    // Band-aligned regions: each read touches exactly READ_BANDS bands.
    let regions: Vec<Range<usize>> = starts
        .windows(READ_BANDS + 1)
        .map(|w| w[0]..w[READ_BANDS])
        .collect();
    let band_rows = index.entries[0].rows;

    let service_config = ServiceConfig {
        workers,
        queue_jobs: 2 * workers,
        backpressure: Backpressure::Block,
        session_config: cfg,
    };
    let mut setups = Vec::new();
    let mut warm = None;
    for _ in 0..SETUP_REPS {
        drop(warm.take());
        let t = Instant::now();
        let svc = ArchiveService::<f32>::new(service_config).map_err(|e| e.to_string())?;
        svc.warm(&[band_rows, cols]).map_err(|e| e.to_string())?;
        svc.submit_compress(Arc::clone(&inputs[0].data), cfg, CHUNKS, None)
            .and_then(|h| h.wait())
            .map_err(|e| format!("set-up compress: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        warm = Some(svc);
    }
    let svc = warm.expect("SETUP_REPS > 0");

    let mut st = State {
        traces: Traces {
            threads: workers,
            ..Traces::default()
        },
        ..State::default()
    };
    let depth = 2 * workers;
    let closed_loop = Loop {
        svc: &svc,
        regions: &regions,
        row_len: cols,
        depth,
    };
    let before = svc.stats();
    // The traced run measures an untraced half, then a traced half: the
    // traced half's wall time prices parallel.efficiency.
    let (wall_s, traced_wall_s) = if opts.trace {
        let half = opts.seconds / 2.0;
        let a = closed_loop.window(&mut inputs, half, false, &mut st);
        let b = closed_loop.window(&mut inputs, half, true, &mut st);
        (a + b, b)
    } else {
        let a = closed_loop.window(&mut inputs, opts.seconds, false, &mut st);
        (a, 0.0)
    };
    let after = svc.stats();
    drop(svc);

    let mut notes = vec![format!(
        "{} ops in {wall_s:.1} s, {workers} workers, {depth} jobs in flight",
        st.ops
    )];
    let metrics = if opts.trace {
        let submitted = (after.submitted - before.submitted) as f64;
        let completed = (after.completed - before.completed) as f64;
        let all_exec: Vec<f64> = st.exec.iter().flatten().copied().collect();
        let mut m = st.traces.metrics();
        m.extend(Kinds::overhead_metrics(&st.traced, &st.plain));
        m.extend([
            Metric {
                name: "parallel.efficiency",
                value: st.traces.spans_ms() / (workers as f64 * traced_wall_s * 1e3),
            },
            Metric {
                name: "server.admit_ms_p50",
                value: st.admit.p50(),
            },
            Metric {
                name: "server.exec_ms_p50",
                value: median(&all_exec),
            },
            Metric {
                name: "server.compress_exec_ms_p50",
                value: median(&st.exec[Kind::Compress as usize]),
            },
            Metric {
                name: "server.decompress_exec_ms_p50",
                value: median(&st.exec[Kind::Decompress as usize]),
            },
            Metric {
                name: "server.read_exec_ms_p50",
                value: median(&st.exec[Kind::Read as usize]),
            },
            Metric {
                name: "server.blocked_frac",
                value: (after.blocked - before.blocked) as f64 / submitted.max(1.0),
            },
            Metric {
                name: "server.steals_per_job",
                value: (after.steals - before.steals) as f64 / completed.max(1.0),
            },
            Metric {
                name: "parallel.index_ms",
                value: probe::time_median(101, || {
                    std::hint::black_box(band_index(&inputs[0].archive).ok());
                }),
            },
            Metric {
                name: "parallel.bands_touched_frac",
                value: READ_BANDS as f64 / index.bands() as f64,
            },
            Metric {
                name: "core.session_new_ms",
                value: probe::session_new_ms(&[&inputs[0].data]),
            },
            Metric {
                name: "core.interval_select_ms",
                value: probe::interval_select_ms(&[&inputs[0].data]),
            },
        ]);
        m
    } else {
        let raw: usize = inputs.iter().map(|i| i.data.len() * 4).sum();
        let packed: usize = inputs.iter().map(|i| i.archive.len()).sum();
        let psnr_db = inputs
            .iter()
            .filter_map(|i| i.psnr)
            .fold(f64::INFINITY, f64::min);
        let totals = Totals {
            throughput_mb_s: st.bytes_moved / 1e6 / wall_s,
            ratio: raw as f64 / packed as f64,
            psnr_db,
            setup_s: median(&setups),
            peak_rss_mb: host::peak_rss_mb(),
        };
        st.plain.end_to_end(totals, &mut notes)
    };
    notes.push(format!(
        "service archives checked byte-identical to compress_chunked(.., {CHUNKS}, {workers}).to_bytes()"
    ));
    Ok(Outcome {
        tally: st.tally,
        metrics,
        notes,
    })
}
