//! The two timing gates no deterministic test can state:
//!
//! * **NoopSink overhead.** The warm fused compress and decompress paths
//!   with no sink against the same paths with a `NoopSink` attached. A
//!   disabled sink (`enabled() == false`) must cost nothing measurable:
//!   every instrumentation site gates its clock reads and record
//!   construction on `enabled()`, so each `*_noop_overhead` ratio must stay
//!   below 1.10. A `RecordingSink` run checks that the instrumentation
//!   still records at all (`recorded_bands > 0`).
//! * **Service scaling.** A batch of 8 chunked compress jobs through
//!   `ArchiveService` at 1 and at 4 workers.
//!   `service_compress_scaling_1_to_4` must be at least 1.5 on hosts with
//!   4 or more CPUs; on smaller hosts it is printed, not checked.
//!
//! ```text
//! cargo run --release -p szr-bench --bin bench_gates
//! ```
//!
//! Prints one `name value` line per measurement and exits non-zero when a
//! bound fails.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use szr_core::{CodecSession, Config, ErrorBound};
use szr_server::{ArchiveService, Backpressure, ServiceConfig};
use szr_telemetry::{NoopSink, RecordingSink, TelemetrySink};
use szr_tensor::Tensor;

/// Median-of-`reps` wall-clock seconds for one invocation of `f`.
fn time_median<F: FnMut() -> u64>(reps: usize, mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    let mut sink = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        sink ^= f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(sink);
    samples.sort_by(f64::total_cmp);
    samples[reps / 2]
}

fn wavy_512() -> Tensor<f32> {
    Tensor::from_fn([512usize, 512], |ix| {
        let s: usize = ix.iter().sum();
        (s as f32 * 0.013).sin() * 40.0
    })
}

/// `(compress_noop_overhead, decompress_noop_overhead, recorded_bands)`.
fn noop_overhead(data: &Tensor<f32>) -> (f64, f64, usize) {
    let reps = 9;
    // Fused table-reuse mode: the steady state with the least work per
    // point, where per-call overhead is most visible.
    let config = Config::new(ErrorBound::Relative(1e-4))
        .with_interval_bits(8)
        .without_lossless_pass();
    let warm_encoder = |sink: Option<Arc<dyn TelemetrySink>>| {
        let mut session = CodecSession::<f32>::new(config).unwrap();
        session.set_table_reuse(true);
        session.set_telemetry(sink);
        session.compress(data).unwrap();
        session
    };
    let mut base = warm_encoder(None);
    let t_base = time_median(reps, || base.compress(data).unwrap().len() as u64);
    let mut noop = warm_encoder(Some(Arc::new(NoopSink)));
    let t_noop = time_median(reps, || noop.compress(data).unwrap().len() as u64);
    let recording = Arc::new(RecordingSink::new());
    warm_encoder(Some(recording.clone()));

    let archive = base.compress(data).unwrap();
    let warm_decoder = |sink: Option<Arc<dyn TelemetrySink>>| {
        let mut session = CodecSession::<f32>::decoder();
        session.set_telemetry(sink);
        session.decompress(&archive).unwrap();
        session
    };
    let mut base_d = warm_decoder(None);
    let t_base_d = time_median(reps, || base_d.decompress(&archive).unwrap().len() as u64);
    let mut noop_d = warm_decoder(Some(Arc::new(NoopSink)));
    let t_noop_d = time_median(reps, || noop_d.decompress(&archive).unwrap().len() as u64);
    warm_decoder(Some(recording.clone()));

    (
        t_noop / t_base,
        t_noop_d / t_base_d,
        recording.report().bands.len(),
    )
}

/// Seconds for 1 worker over seconds for 4 workers, each the median of 5
/// batches of 8 chunked compress jobs after one warm-up batch.
fn service_compress_scaling(data: Tensor<f32>) -> f64 {
    let (reps, jobs, bands) = (5, 8usize, 16usize);
    let config = Config::new(ErrorBound::Relative(1e-4));
    let data = Arc::new(data);
    let batch_secs = |workers: usize| {
        let svc = ArchiveService::<f32>::new(ServiceConfig {
            workers,
            queue_jobs: jobs * 2,
            backpressure: Backpressure::Block,
            session_config: config,
        })
        .unwrap();
        let run = || {
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    svc.submit_compress(Arc::clone(&data), config, bands, None)
                        .unwrap()
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.wait().unwrap().len() as u64)
                .sum()
        };
        // The first batch warms every pooled session; the median measures
        // the steady service.
        let _: u64 = run();
        time_median(reps, run)
    };
    batch_secs(1) / batch_secs(4)
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: bench_gates (takes no arguments)");
        return ExitCode::from(2);
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let data = wavy_512();
    let (compress_noop, decompress_noop, recorded_bands) = noop_overhead(&data);
    let scaling = service_compress_scaling(data);
    println!("host_cpus {host_cpus}");
    println!("compress_noop_overhead {compress_noop:.3}");
    println!("decompress_noop_overhead {decompress_noop:.3}");
    println!("recorded_bands {recorded_bands}");
    println!("service_compress_scaling_1_to_4 {scaling:.3}");

    let mut failures = Vec::new();
    for (name, overhead) in [
        ("compress_noop_overhead", compress_noop),
        ("decompress_noop_overhead", decompress_noop),
    ] {
        if overhead >= 1.10 {
            failures.push(format!(
                "{name} = {overhead:.3}: NoopSink is no longer free"
            ));
        }
    }
    if recorded_bands == 0 {
        failures.push("recorded_bands = 0: RecordingSink collected nothing".into());
    }
    if host_cpus >= 4 && scaling < 1.5 {
        failures.push(format!(
            "service_compress_scaling_1_to_4 = {scaling:.3} on a {host_cpus}-cpu host"
        ));
    }
    for failure in &failures {
        eprintln!("FAIL {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
