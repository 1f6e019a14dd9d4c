//! Telemetry accuracy and non-interference.
//!
//! The sink is an observer: its numbers must agree with the pipeline's own
//! ground truth (`CompressionStats`, the quantization-code histogram), and
//! its presence must never change a single archive byte. Both properties
//! are pinned across random grids, bounds, and the staged/fused/chunked
//! paths.

use std::sync::Arc;

use proptest::prelude::*;
use szr::telemetry::{Counter, RecordingSink, Stage, TelemetrySink};
use szr::{compress_with_stats, quantization_histogram, CodecSession, Config, ErrorBound, Tensor};

/// Strategy: random small 1-D/2-D/3-D grids of mixed smooth/noisy content.
fn arb_grid_f32() -> impl Strategy<Value = Tensor<f32>> {
    (1usize..4, 2usize..20, 2usize..10, any::<u32>()).prop_map(|(ndim, a, b, seed)| {
        let dims = match ndim {
            1 => vec![a * b + 1],
            2 => vec![a, b],
            _ => vec![a, b, 3],
        };
        Tensor::from_fn(&dims[..], move |ix| {
            let mut h = seed as u64;
            for &i in ix {
                h = h.wrapping_mul(31).wrapping_add(i as u64 + 1);
            }
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let s: usize = ix.iter().sum();
            (s as f32 * 0.07).sin() * 20.0 + ((h >> 48) as f32) * 1e-2
        })
    })
}

fn recording_session(config: Config) -> (CodecSession<f32>, Arc<RecordingSink>) {
    let sink = Arc::new(RecordingSink::new());
    let mut session = CodecSession::<f32>::new(config).unwrap();
    session.set_telemetry(Some(sink.clone() as Arc<dyn TelemetrySink>));
    (session, sink)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every field a band record shares with `CompressionStats` must agree
    /// with it exactly, and the observed archive must be byte-identical to
    /// the free function's.
    #[test]
    fn band_records_match_compression_stats_oracle(
        grid in arb_grid_f32(),
        eb in 1e-4f64..1.0,
        layers in 1usize..=2,
    ) {
        let config = Config::new(ErrorBound::Absolute(eb)).with_layers(layers);
        let (oracle_bytes, stats) = compress_with_stats(&grid, &config).unwrap();

        let (mut session, sink) = recording_session(config);
        let observed = session.compress(&grid).unwrap();
        prop_assert_eq!(&observed, &oracle_bytes, "telemetry changed archive bytes");

        let report = sink.report();
        prop_assert_eq!(report.bands.len(), 1);
        let band = &report.bands[0];
        prop_assert_eq!(band.points as usize, stats.total);
        prop_assert_eq!(band.hits as usize, stats.predictable);
        prop_assert_eq!(band.escapes as usize, stats.total - stats.predictable);
        prop_assert_eq!(band.layers as usize, stats.layers);
        prop_assert_eq!(band.interval_bits, stats.interval_bits);
        prop_assert_eq!(band.archive_bytes as usize, stats.compressed_bytes);
        prop_assert_eq!(band.escape_stream_bits as usize, stats.unpredictable_bytes * 8);
        // The table + code-stream split must tile the Huffman block: the
        // block is the length-prefixed table span followed by the codes.
        prop_assert!(band.table_bytes as usize <= stats.huffman_bytes);
        prop_assert!((band.code_stream_bits / 8) as usize <= stats.huffman_bytes);
        // And the report's aggregate rates are the stats' rates.
        let hit_rate = stats.predictable as f64 / stats.total as f64;
        prop_assert!((report.hit_rate() - hit_rate).abs() < 1e-12);
    }

    /// Hit/escape counts must also agree with the independent
    /// quantization-code histogram (`hist[0]` counts escapes).
    #[test]
    fn band_records_match_histogram_oracle(
        grid in arb_grid_f32(),
        eb in 1e-4f64..1.0,
        layers in 1usize..=2,
    ) {
        let config = Config::new(ErrorBound::Absolute(eb)).with_layers(layers);
        let (mut session, sink) = recording_session(config);
        session.compress(&grid).unwrap();
        let band = sink.report().bands[0];

        let hist = quantization_histogram(&grid, layers, eb, band.interval_bits);
        let total: u64 = hist.iter().sum();
        prop_assert_eq!(band.points, total);
        prop_assert_eq!(band.escapes, hist[0]);
        prop_assert_eq!(band.hits, total - hist[0]);
    }

    /// A sink must never change output: staged first call, fused
    /// steady-state calls, and the decode direction all produce identical
    /// bytes/values with telemetry on and off.
    #[test]
    fn telemetry_on_and_off_are_byte_identical(
        grid in arb_grid_f32(),
        eb in 1e-4f64..1.0,
    ) {
        let config = Config::new(ErrorBound::Absolute(eb))
            .with_interval_bits(8)
            .without_lossless_pass();
        let mut plain = CodecSession::<f32>::new(config).unwrap();
        plain.set_table_reuse(true);
        let (mut observed, _sink) = recording_session(config);
        observed.set_table_reuse(true);

        // Round 1 is staged (seeds the reuse table); rounds 2-3 are fused.
        for round in 0..3 {
            let a = plain.compress(&grid).unwrap();
            let b = observed.compress(&grid).unwrap();
            prop_assert_eq!(&a, &b, "round {} diverged with telemetry on", round);

            let mut plain_dec = CodecSession::<f32>::decoder();
            let mut observed_dec = CodecSession::<f32>::decoder();
            let dec_sink = Arc::new(RecordingSink::new());
            observed_dec.set_telemetry(Some(dec_sink.clone() as Arc<dyn TelemetrySink>));
            let x = plain_dec.decompress(&a).unwrap();
            let y = observed_dec.decompress(&b).unwrap();
            prop_assert_eq!(x.as_slice(), y.as_slice());
        }
    }

    /// The text serialization is lossless on real reports.
    #[test]
    fn report_text_roundtrip_on_real_reports(
        grid in arb_grid_f32(),
        eb in 1e-3f64..1.0,
    ) {
        let config = Config::new(ErrorBound::Absolute(eb));
        let (mut session, sink) = recording_session(config);
        session.compress(&grid).unwrap();
        let archive = session.compress(&grid).unwrap();
        session.decompress(&archive).unwrap();
        let report = sink.report();
        let back = szr::telemetry::TelemetryReport::from_text(&report.to_text()).unwrap();
        prop_assert_eq!(report, back);
    }
}

/// Session-cache counters: a cold session misses once, then hits; the
/// decode-side codec-table cache behaves the same.
#[test]
fn cache_counters_track_session_reuse() {
    let data = Tensor::from_fn([40, 56], |ix| {
        ((ix[0] as f32) * 0.09).sin() * 10.0 + (ix[1] as f32) * 0.02
    });
    let config = Config::new(ErrorBound::Absolute(1e-3));
    let (mut session, sink) = recording_session(config);

    let archive = session.compress(&data).unwrap();
    let report = sink.report();
    assert_eq!(report.counter(Counter::KernelCacheMiss), 1);
    assert_eq!(report.counter(Counter::KernelCacheHit), 0);
    // Adaptive interval mode scanned at least one candidate bit-width.
    assert!(report.counter(Counter::IntervalSearchIterations) > 0);

    session.compress(&data).unwrap();
    assert_eq!(sink.report().counter(Counter::KernelCacheHit), 1);

    sink.clear();
    session.decompress(&archive).unwrap();
    assert_eq!(sink.report().counter(Counter::CodecTableCacheMiss), 1);
    session.decompress(&archive).unwrap();
    assert_eq!(sink.report().counter(Counter::CodecTableCacheHit), 1);
}

/// The sampled DEFLATE trial is visible: a payload it skips counts one
/// `deflate_trial_skips` and still records its `deflate` span (the trial's
/// time), while a compressible payload runs the pass and counts none.
#[test]
fn deflate_trial_skips_are_counted() {
    // Uniform noise at a bound far below its spread: a near-uniform,
    // incompressible ~330 KB code stream.
    let noise = Tensor::from_fn([512, 512], |ix| {
        let mut z = ((ix[0] * 512 + ix[1]) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z >> 40) as f32 / (1u64 << 24) as f32
    });
    let smooth = Tensor::from_fn([400, 400], |ix| ((ix[0] + ix[1]) as f32 * 0.01).sin());
    let config = Config::new(ErrorBound::Absolute(1e-3));
    let (mut session, sink) = recording_session(config);

    session.compress(&noise).unwrap();
    let report = sink.report();
    assert_eq!(report.counter(Counter::DeflateTrialSkips), 1);
    assert_eq!(
        report.counter(Counter::DeflateBlocks),
        0,
        "no full pass ran"
    );
    assert_eq!(report.span(Stage::Deflate).map(|s| s.calls), Some(1));

    sink.clear();
    session.compress(&smooth).unwrap();
    let report = sink.report();
    assert_eq!(report.counter(Counter::DeflateTrialSkips), 0);
    assert!(report.counter(Counter::DeflateBlocks) > 0);
}

/// The fused writer's DEFLATE post-pass reports its own `deflate` span
/// instead of hiding inside `entropy_encode`.
#[test]
fn fused_compress_reports_a_deflate_span() {
    let data = Tensor::from_fn([96, 128], |ix| {
        ((ix[0] as f32) * 0.05).sin() * 30.0 + ((ix[1] as f32) * 0.11).cos() * 4.0
    });
    let config = Config::new(ErrorBound::Absolute(1e-3)).with_interval_bits(8);
    let (mut session, sink) = recording_session(config);
    session.set_table_reuse(true);
    session.compress(&data).unwrap(); // staged: seeds the reuse table
    sink.clear();
    session.compress(&data).unwrap(); // fused
    let report = sink.report();
    assert_eq!(
        report.counter(Counter::FusedTableReseeds),
        0,
        "band ran fused"
    );
    assert_eq!(report.span(Stage::Deflate).map(|s| s.calls), Some(1));
    assert!(report.counter(Counter::DeflateBlocks) > 0);
}

/// The band executor gives each worker a private sink and merges them into
/// band order under every strategy; the merged report must cover every
/// point exactly once and the container must be byte-identical with and
/// without a sink, at any thread count.
#[test]
fn chunked_telemetry_merges_per_worker_sinks_in_band_order() {
    use szr::parallel::{BandExecutor, Strategy};
    let data = Tensor::from_fn([64, 48], |ix| {
        ((ix[0] as f32) * 0.05).sin() * 30.0 + ((ix[1] as f32) * 0.11).cos() * 4.0
    });
    let config = Config::new(ErrorBound::Absolute(1e-3));
    let chunks = 7;

    for strategy in [
        Strategy::Independent,
        Strategy::Shared,
        Strategy::Fused,
        Strategy::Planned,
    ] {
        let reference = BandExecutor::new(1)
            .compress(&data, &config, chunks, strategy)
            .unwrap()
            .to_bytes();
        for threads in [1, 3] {
            let plain = BandExecutor::new(threads)
                .compress(&data, &config, chunks, strategy)
                .unwrap();
            assert_eq!(
                plain.to_bytes(),
                reference,
                "{strategy:?}, {threads} threads"
            );
            let sink = RecordingSink::new();
            let observed = BandExecutor {
                threads,
                sink: Some(&sink),
            }
            .compress(&data, &config, chunks, strategy)
            .unwrap();
            assert_eq!(
                observed.to_bytes(),
                reference,
                "{strategy:?}, {threads} threads: a sink changed the bytes"
            );

            let report = sink.report();
            assert_eq!(report.bands.len(), chunks, "{strategy:?}");
            for (i, band) in report.bands.iter().enumerate() {
                assert_eq!(
                    band.index, i as u64,
                    "{strategy:?}: bands must merge in band order"
                );
            }
            let points: u64 = report.bands.iter().map(|b| b.points).sum();
            assert_eq!(points as usize, data.len(), "{strategy:?}");
            let band_bytes: u64 = report.bands.iter().map(|b| b.archive_bytes).sum();
            let chunk_bytes: usize = observed.chunks.iter().map(Vec::len).sum();
            assert_eq!(band_bytes as usize, chunk_bytes, "{strategy:?}");
        }
    }
}
