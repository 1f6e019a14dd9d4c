//! `atm-warm`: one warm `CodecSession<f32>` on one thread — the paper's 2-D
//! headline data on the warm path, with no process, parallel or service
//! cost.
//!
//! Op `compress` encodes one ATM Medium snapshot (TS, FREQSH, SNOWHLND and
//! CDNUMC at 900×1800 f32: 25.9 MB, over 4× the host's 4 MiB of L2 and
//! under its 300 MiB L3), op `decompress` decodes it, and op `read` decodes
//! its TS field alone. The loop cycles over [`SNAPSHOTS`] seeded snapshots.

use std::sync::Arc;
use std::time::Instant;

use szr_core::CodecSession;
use szr_datagen::{dataset, DatasetKind, Scale};
use szr_telemetry::{RecordingSink, TelemetryReport, TelemetrySink};
use szr_tensor::Tensor;

use crate::host::{self, Host};
use crate::probe::{self, check_bound, check_equal, elapsed_ms, Kinds, Totals, Traced, Traces};
use crate::report::{median, Metric, Tally};
use crate::{Opts, Outcome};

const SNAPSHOTS: usize = 3;
const SETUP_REPS: usize = 5;
/// Enough cycles for every snapshot and a tail at or above the median.
const MIN_CYCLES: usize = 20;

struct Snapshot {
    fields: Vec<Tensor<f32>>,
    bounds: Vec<f64>,
}

impl Snapshot {
    fn raw_bytes(&self) -> usize {
        self.fields.iter().map(|f| f.len() * 4).sum()
    }
}

/// The first successful output of each op on a snapshot; later outputs
/// must repeat it exactly.
#[derive(Default)]
struct Reference {
    archives: Option<Vec<Vec<u8>>>,
    decoded: Option<Vec<Tensor<f32>>>,
    psnr: f64,
}

fn compress(session: &mut CodecSession<f32>, snap: &Snapshot) -> Result<Vec<Vec<u8>>, String> {
    snap.fields
        .iter()
        .map(|f| session.compress(f).map_err(|e| e.to_string()))
        .collect()
}

fn decompress(
    session: &mut CodecSession<f32>,
    archives: &[Vec<u8>],
) -> Result<Vec<Tensor<f32>>, String> {
    archives
        .iter()
        .map(|a| session.decompress(a).map_err(|e| e.to_string()))
        .collect()
}

/// First decode of a snapshot: every field within its bound. Later decodes:
/// identical to the first.
fn check_decoded(
    snap: &Snapshot,
    r: &mut Reference,
    decoded: Vec<Tensor<f32>>,
) -> Result<(), String> {
    if let Some(reference) = &r.decoded {
        for (got, want) in decoded.iter().zip(reference) {
            check_equal("decode", got.as_slice(), want.as_slice())?;
        }
        return Ok(());
    }
    if decoded.len() != snap.fields.len() {
        return Err("decoded the wrong number of fields".into());
    }
    let mut psnr = f64::INFINITY;
    for ((f, d), &eb) in snap.fields.iter().zip(&decoded).zip(&snap.bounds) {
        check_bound(f.as_slice(), d.as_slice(), eb)?;
        psnr = psnr.min(szr_metrics::psnr(f.as_slice(), d.as_slice()));
    }
    r.psnr = psnr;
    r.decoded = Some(decoded);
    Ok(())
}

/// Runs `op` on `session`, with a fresh recording sink attached when
/// `traced`. Returns the output, the wall time in ms, and the sink's report.
fn timed<R>(
    session: &mut CodecSession<f32>,
    traced: bool,
    op: impl FnOnce(&mut CodecSession<f32>) -> R,
) -> (R, f64, Option<TelemetryReport>) {
    let sink = traced.then(|| Arc::new(RecordingSink::new()));
    session.set_telemetry(sink.clone().map(|s| s as Arc<dyn TelemetrySink>));
    let t = Instant::now();
    let out = op(session);
    let ms = elapsed_ms(t);
    session.set_telemetry(None);
    (out, ms, sink.map(|s| s.report()))
}

pub fn run(opts: &Opts, host: &Host) -> Result<Outcome, String> {
    let snaps: Vec<Snapshot> = (0..SNAPSHOTS as u64)
        .map(|k| {
            let fields: Vec<Tensor<f32>> =
                dataset(DatasetKind::Atm, Scale::Medium, opts.input_seed(k))
                    .into_iter()
                    .map(|f| f.data)
                    .collect();
            let bounds = fields.iter().map(|f| probe::bound(f.as_slice())).collect();
            Snapshot { fields, bounds }
        })
        .collect();

    // Set-up: a fresh session, warmed by one compress and one decompress.
    let mut setups = Vec::new();
    let mut warm = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mut session = CodecSession::<f32>::new(probe::config()).map_err(|e| e.to_string())?;
        let archives = compress(&mut session, &snaps[0])?;
        decompress(&mut session, &archives)?;
        setups.push(t.elapsed().as_secs_f64());
        warm = Some(session);
    }
    let mut session = warm.expect("SETUP_REPS > 0");

    let mut refs: Vec<Reference> = (0..SNAPSHOTS).map(|_| Reference::default()).collect();
    let mut tally = Tally::default();
    let (mut plain, mut traced) = (Kinds::default(), Kinds::default());
    let mut traces = Traces {
        threads: 1,
        ..Traces::default()
    };
    let (mut bytes_moved, mut busy_ms) = (0.0, 0.0);
    let start = Instant::now();
    let mut cycle = 0;
    while cycle < MIN_CYCLES || start.elapsed().as_secs_f64() < opts.seconds {
        let k = cycle % SNAPSHOTS;
        let on = opts.trace && cycle % 2 == 1;
        cycle += 1;
        let (snap, r) = (&snaps[k], &mut refs[k]);
        let kinds = if on { &mut traced } else { &mut plain };

        let (out, ms, report) = timed(&mut session, on, |s| compress(s, snap));
        let checked = out.and_then(|archives| match &r.archives {
            Some(reference) => check_equal("archive", &archives, reference).map(|()| archives),
            None => {
                r.archives = Some(archives.clone());
                Ok(archives)
            }
        });
        let Some(archives) = tally.record("compress", checked) else {
            continue;
        };
        kinds.compress.push(ms);
        bytes_moved += snap.raw_bytes() as f64;
        busy_ms += ms;
        if let Some(report) = report {
            traces.compress.push(Traced {
                wall_ms: ms,
                report,
            });
        }

        let (out, ms, report) = timed(&mut session, on, |s| decompress(s, &archives));
        if tally
            .record("decompress", out.and_then(|d| check_decoded(snap, r, d)))
            .is_some()
        {
            kinds.decompress.push(ms);
            bytes_moved += snap.raw_bytes() as f64;
            busy_ms += ms;
            if let Some(report) = report {
                traces.decompress.push(Traced {
                    wall_ms: ms,
                    report,
                });
            }
        }

        let (out, ms, report) = timed(&mut session, on, |s| decompress(s, &archives[..1]));
        let checked = out.and_then(|d| match &r.decoded {
            Some(full) => check_equal("read", d[0].as_slice(), full[0].as_slice()),
            None => Err("no verified full decode to compare with".into()),
        });
        if tally.record("read", checked).is_some() {
            kinds.read.push(ms);
            bytes_moved += (snap.fields[0].len() * 4) as f64;
            busy_ms += ms;
            if let Some(report) = report {
                traces.read.push(Traced {
                    wall_ms: ms,
                    report,
                });
            }
        }
    }

    let mut notes = Vec::new();
    let metrics = if opts.trace {
        let ts0: Vec<&Tensor<f32>> = snaps[0].fields.iter().collect();
        let mut m = traces.metrics();
        m.push(traces.efficiency());
        m.extend(Kinds::overhead_metrics(&traced, &plain));
        m.push(Metric {
            name: "core.session_new_ms",
            value: probe::session_new_ms(&ts0),
        });
        m.push(Metric {
            name: "core.interval_select_ms",
            value: probe::interval_select_ms(&ts0),
        });
        m
    } else {
        let done = snaps
            .iter()
            .zip(&refs)
            .filter_map(|(s, r)| Some((s, r.archives.as_ref()?)));
        let (raw, packed) = done.fold((0, 0), |(raw, packed), (s, archives)| {
            (
                raw + s.raw_bytes(),
                packed + archives.iter().map(Vec::len).sum::<usize>(),
            )
        });
        let psnr_db = refs
            .iter()
            .filter(|r| r.decoded.is_some())
            .map(|r| r.psnr)
            .fold(f64::INFINITY, f64::min);
        let totals = Totals {
            throughput_mb_s: bytes_moved / 1e6 / (busy_ms / 1e3),
            ratio: raw as f64 / packed as f64,
            psnr_db,
            setup_s: median(&setups),
            peak_rss_mb: host::peak_rss_mb(),
        };
        plain.end_to_end(totals, &mut notes)
    };
    notes.push(format!(
        "{cycles} cycles over {SNAPSHOTS} snapshots in {:.1} s on 1 thread ({} cpus)",
        start.elapsed().as_secs_f64(),
        host.cpus,
        cycles = cycle
    ));
    Ok(Outcome {
        tally,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_truncated_archive_is_exactly_one_failure() {
        let field = Tensor::from_fn([48, 64], |ix| ((ix[0] * 64 + ix[1]) as f32 * 0.01).sin());
        let snap = Snapshot {
            bounds: vec![probe::bound(field.as_slice())],
            fields: vec![field],
        };
        let mut session = CodecSession::<f32>::new(probe::config()).unwrap();
        let mut archives = compress(&mut session, &snap).unwrap();
        let mut r = Reference::default();
        let mut tally = Tally::default();
        let ok = decompress(&mut session, &archives).and_then(|d| check_decoded(&snap, &mut r, d));
        assert!(tally.record("decompress", ok).is_some());

        let cut = archives[0].len() / 2;
        archives[0].truncate(cut);
        let bad = decompress(&mut session, &archives).and_then(|d| check_decoded(&snap, &mut r, d));
        assert!(tally.record("decompress", bad).is_none());
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }
}
