//! Steady-state allocation accounting for `CodecSession`.
//!
//! The session architecture's core promise: once warm, compressing another
//! same-shape tensor touches no allocator except for the output archive
//! itself. A counting global allocator (this binary only) pins it down.
//!
//! The measured configuration is the fused table-reuse mode with fixed
//! interval bits. The DEFLATE post-pass is covered too: the encoder is a
//! session-owned `szr_deflate::Deflater` whose hash chains, token buffer,
//! and output bytes all live across calls, so the lossless pass adds zero
//! steady-state allocations. The one stage that intentionally still
//! allocates is the adaptive-interval sampler (a small per-call
//! histogram), documented on `CodecSession`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use szr::{CodecSession, Config, ErrorBound, Tensor};

struct CountingAlloc;

// Counting is thread-local: the test harness runs tests on multiple
// threads, and a process-global flag would fold a concurrently running
// test's allocations into whichever test is counting. Each `count_allocs`
// observes exactly the allocations its own closure makes.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with` so allocations during thread teardown (after TLS
    // destruction) stay safe; they are simply not counted.
    let _ = COUNTING.try_with(|c| {
        if c.get() {
            ALLOCS.with(|a| a.set(a.get() + 1));
            ALLOC_BYTES.with(|b| b.set(b.get() + size as u64));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on (this thread only), returning
/// (allocations, bytes).
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    ALLOCS.with(|a| a.set(0));
    ALLOC_BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(|a| a.get()), ALLOC_BYTES.with(|b| b.get()), out)
}

#[test]
fn steady_state_session_compress_allocates_only_the_output_archive() {
    let data = Tensor::from_fn([96, 128], |ix| {
        ((ix[0] as f32) * 0.07).sin() * 12.0 + ((ix[1] as f32) * 0.05).cos() * 3.0
    });
    let config = Config::new(ErrorBound::Absolute(1e-3))
        .with_interval_bits(8)
        .without_lossless_pass();
    let mut session = CodecSession::<f32>::new(config).unwrap();
    session.set_table_reuse(true);

    // Call 1: staged — builds the kernel, sizes every buffer, and seeds the
    // reuse table. Call 2 and later: fused steady state.
    let cold = session.compress(&data).unwrap();

    let (allocs, bytes, warm) = count_allocs(|| session.compress(&data).unwrap());
    assert_eq!(
        allocs, 1,
        "steady-state compress must allocate exactly the output archive \
         ({allocs} allocations, {bytes} bytes)"
    );
    assert!(
        bytes <= (warm.len() as u64) * 4 + 1024,
        "the single allocation should be archive-sized: {bytes} bytes for a \
         {}-byte archive",
        warm.len()
    );

    // And it must still be a *valid* archive: self-describing, in-bound.
    let restored: Tensor<f32> = szr::decompress(&warm).unwrap();
    for (&a, &b) in data.as_slice().iter().zip(restored.as_slice()) {
        assert!((a as f64 - b as f64).abs() <= 1e-3);
    }
    // The cold (staged) archive is also valid — and larger or equal rarely,
    // so only sanity-check it decodes.
    let _: Tensor<f32> = szr::decompress(&cold).unwrap();

    // Third call: identical accounting (the steady state is stable, not a
    // one-off).
    let (allocs3, _, _) = count_allocs(|| session.compress(&data).unwrap());
    assert_eq!(allocs3, 1, "third call must match the second");
}

#[test]
fn steady_state_deflate_path_compress_allocates_only_the_output_archive() {
    // Same pin as above but WITH the DEFLATE post-pass: the session owns a
    // reusable `Deflater` (hash chains, token buffer, output bytes), so
    // once its scratch is sized the lossless pass must be allocation-free
    // and the warm fused compress still allocates exactly the archive.
    let data = Tensor::from_fn([96, 128], |ix| {
        ((ix[0] as f32) * 0.07).sin() * 12.0 + ((ix[1] as f32) * 0.05).cos() * 3.0
    });
    let config = Config::new(ErrorBound::Absolute(1e-3)).with_interval_bits(8);
    let mut session = CodecSession::<f32>::new(config).unwrap();
    session.set_table_reuse(true);

    // Call 1: staged. Call 2: first fused call sizes the deflate scratch to
    // this payload. Call 3 and later: steady state.
    let _ = session.compress(&data).unwrap();
    let _ = session.compress(&data).unwrap();

    let (allocs, bytes, warm) = count_allocs(|| session.compress(&data).unwrap());
    assert_eq!(
        allocs, 1,
        "warm DEFLATE-path compress must allocate exactly the output \
         archive ({allocs} allocations, {bytes} bytes)"
    );
    assert!(
        bytes <= (warm.len() as u64) * 4 + 1024,
        "the single allocation should be archive-sized: {bytes} bytes for a \
         {}-byte archive",
        warm.len()
    );
    let restored: Tensor<f32> = szr::decompress(&warm).unwrap();
    for (&a, &b) in data.as_slice().iter().zip(restored.as_slice()) {
        assert!((a as f64 - b as f64).abs() <= 1e-3);
    }
    let (allocs4, _, _) = count_allocs(|| session.compress(&data).unwrap());
    assert_eq!(allocs4, 1, "fourth call must match the third");
}

#[test]
fn steady_state_session_decompress_allocates_only_the_output_tensor() {
    // The fused decode path pulls Huffman symbols straight into row
    // reconstruction; once the session is warm (kernel built, row scratch
    // sized, codec cache + decode LUT populated) the only allocator traffic
    // left is the output tensor itself: its value buffer plus the `Shape`
    // dimension and stride boxes.
    let data = Tensor::from_fn([96, 128], |ix| {
        ((ix[0] as f32) * 0.07).sin() * 12.0 + ((ix[1] as f32) * 0.05).cos() * 3.0
    });
    let config = Config::new(ErrorBound::Absolute(1e-3))
        .with_interval_bits(8)
        .without_lossless_pass();
    let mut session = CodecSession::<f32>::new(config).unwrap();
    let archive = session.compress(&data).unwrap();

    // Call 1: builds the decode kernel, sizes the row scratch, caches the
    // codec and its LUT. Call 2 and later: fused steady state.
    let _ = session.decompress(&archive).unwrap();

    let (allocs, bytes, out) = count_allocs(|| session.decompress(&archive).unwrap());
    assert_eq!(
        allocs, 3,
        "steady-state decompress must allocate exactly the output tensor \
         (value buffer + shape dims + shape strides): saw {allocs} \
         allocations, {bytes} bytes"
    );
    assert!(
        bytes <= (out.len() as u64) * 4 + 256,
        "the allocations should be output-tensor-sized: {bytes} bytes for \
         {} points",
        out.len()
    );
    for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
        assert!((a as f64 - b as f64).abs() <= 1e-3);
    }

    // Third call: identical accounting.
    let (allocs3, _, _) = count_allocs(|| session.decompress(&archive).unwrap());
    assert_eq!(allocs3, 3, "third call must match the second");
}

#[test]
fn steady_state_deflate_path_decompress_allocates_only_the_output_tensor() {
    // A DEFLATE post-passed archive and an escape-LZ archive: the session's
    // inflater owns its decode tables and its output buffers live in the
    // decode scratch, so once warm the lossless stages add no allocation
    // and the decode still allocates exactly the output tensor.
    const ALPHABET: [f32; 5] = [0.0, 1.0e8, -3.0e7, 7.0e6, -9.0e5];
    let periodic = Tensor::from_fn([96, 128], |ix| ((ix[0] * 7 + ix[1]) % 16) as f32 * 0.25);
    let escapes = Tensor::from_fn([96, 128], |ix| ALPHABET[(ix[0] * 128 + ix[1]) % 5]);
    let config = Config::new(ErrorBound::Absolute(1e-3)).with_interval_bits(8);
    let cases = [
        (periodic, config, true),
        (escapes, config.with_escape_lz(), false),
    ];
    for (data, config, post_pass) in cases {
        let mut session = CodecSession::<f32>::new(config).unwrap();
        let archive = session.compress(&data).unwrap();
        let layout = szr::inspect_layout(&archive).unwrap();
        assert!(
            if post_pass {
                layout.deflate_post_pass
            } else {
                layout.info.escape_lz
            },
            "the archive must take the DEFLATE decode path it is here for"
        );
        let _ = session.decompress(&archive).unwrap();
        for call in 2..4 {
            let (allocs, bytes, out) = count_allocs(|| session.decompress(&archive).unwrap());
            assert_eq!(
                allocs, 3,
                "call {call}: warm decompress of a post-pass {} / escape-LZ {} \
                 archive must allocate exactly the output tensor: saw {allocs} \
                 allocations, {bytes} bytes",
                layout.deflate_post_pass, layout.info.escape_lz
            );
            for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
                assert!((a as f64 - b as f64).abs() <= 1e-3);
            }
        }
    }
}

#[test]
fn warm_decompress_into_allocates_nothing() {
    // Decoding into the caller's buffer leaves nothing to allocate once the
    // session is warm: the shape, kernel, row scratch, codec cache and
    // inflater all live in the session — plain, DEFLATE post-passed and
    // escape-LZ archives alike.
    const ALPHABET: [f32; 5] = [0.0, 1.0e8, -3.0e7, 7.0e6, -9.0e5];
    let smooth = Tensor::from_fn([96, 128], |ix| {
        ((ix[0] as f32) * 0.07).sin() * 12.0 + ((ix[1] as f32) * 0.05).cos() * 3.0
    });
    let periodic = Tensor::from_fn([96, 128], |ix| ((ix[0] * 7 + ix[1]) % 16) as f32 * 0.25);
    let escapes = Tensor::from_fn([96, 128], |ix| ALPHABET[(ix[0] * 128 + ix[1]) % 5]);
    let config = Config::new(ErrorBound::Absolute(1e-3)).with_interval_bits(8);
    let cases = [
        (smooth, config.without_lossless_pass()),
        (periodic, config),
        (escapes, config.with_escape_lz()),
    ];
    for (data, config) in cases {
        let mut session = CodecSession::<f32>::new(config).unwrap();
        let archive = session.compress(&data).unwrap();
        let mut out = vec![0f32; data.len()];
        session.decompress_into(&archive, &mut out).unwrap();
        for call in 2..4 {
            let (allocs, bytes, ()) =
                count_allocs(|| session.decompress_into(&archive, &mut out).unwrap());
            assert_eq!(
                (allocs, bytes),
                (0, 0),
                "call {call}: warm decompress_into allocated"
            );
            for (&a, &b) in data.as_slice().iter().zip(&out) {
                assert!((a as f64 - b as f64).abs() <= 1e-3);
            }
        }
    }
}

#[test]
fn steady_state_compress_with_noop_sink_keeps_the_allocation_pin() {
    // A disabled telemetry sink must be free: with a `NoopSink` attached
    // (`enabled() == false`), every instrumentation site skips its clock
    // reads and record construction, so the warm fused compress still
    // allocates exactly the output archive.
    use std::sync::Arc;
    use szr::telemetry::{NoopSink, TelemetrySink};
    let data = Tensor::from_fn([96, 128], |ix| {
        ((ix[0] as f32) * 0.07).sin() * 12.0 + ((ix[1] as f32) * 0.05).cos() * 3.0
    });
    let config = Config::new(ErrorBound::Absolute(1e-3))
        .with_interval_bits(8)
        .without_lossless_pass();
    let mut session = CodecSession::<f32>::new(config).unwrap();
    session.set_table_reuse(true);
    session.set_telemetry(Some(Arc::new(NoopSink) as Arc<dyn TelemetrySink>));
    let _ = session.compress(&data).unwrap();

    let (allocs, bytes, warm) = count_allocs(|| session.compress(&data).unwrap());
    assert_eq!(
        allocs, 1,
        "a NoopSink must not add allocations to the warm compress path \
         ({allocs} allocations, {bytes} bytes)"
    );
    let restored: Tensor<f32> = szr::decompress(&warm).unwrap();
    for (&a, &b) in data.as_slice().iter().zip(restored.as_slice()) {
        assert!((a as f64 - b as f64).abs() <= 1e-3);
    }
}

#[test]
fn steady_state_decompress_with_noop_sink_keeps_the_allocation_pin() {
    use std::sync::Arc;
    use szr::telemetry::{NoopSink, TelemetrySink};
    let data = Tensor::from_fn([96, 128], |ix| {
        ((ix[0] as f32) * 0.07).sin() * 12.0 + ((ix[1] as f32) * 0.05).cos() * 3.0
    });
    let config = Config::new(ErrorBound::Absolute(1e-3))
        .with_interval_bits(8)
        .without_lossless_pass();
    let mut session = CodecSession::<f32>::new(config).unwrap();
    let archive = session.compress(&data).unwrap();
    session.set_telemetry(Some(Arc::new(NoopSink) as Arc<dyn TelemetrySink>));
    let _ = session.decompress(&archive).unwrap();

    let (allocs, bytes, out) = count_allocs(|| session.decompress(&archive).unwrap());
    assert_eq!(
        allocs, 3,
        "a NoopSink must not add allocations to the warm decompress path \
         ({allocs} allocations, {bytes} bytes)"
    );
    for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
        assert!((a as f64 - b as f64).abs() <= 1e-3);
    }
}

#[test]
fn steady_state_staged_session_reuses_all_large_buffers() {
    // The staged (default) path still allocates entropy-stage transients
    // (codec build, Huffman block), but the big per-point buffers — codes,
    // reconstruction, escape bits — must be reused: total steady-state
    // allocation bytes stay far below one point-proportional buffer.
    let data = Tensor::from_fn([96, 128], |ix| {
        ((ix[0] as f32) * 0.07).sin() * 12.0 + ((ix[1] as f32) * 0.05).cos() * 3.0
    });
    let config = Config::new(ErrorBound::Absolute(1e-3))
        .with_interval_bits(8)
        .without_lossless_pass();
    let mut session = CodecSession::<f32>::new(config).unwrap();
    let _ = session.compress(&data).unwrap();

    let points = data.len() as u64;
    let (_, bytes, warm) = count_allocs(|| session.compress(&data).unwrap());
    assert!(
        bytes < points + 4 * (warm.len() as u64),
        "staged steady state re-allocated a per-point buffer: {bytes} bytes \
         for {points} points ({}-byte archive)",
        warm.len()
    );
}

/// The kernel layer underneath the session must itself be allocation-free
/// once warm (a border-stencil cache that allocated per lookup is exactly
/// the kind of regression this pins).
#[test]
fn warm_scan_rows_is_allocation_free() {
    use szr::{RowVisitor, ScanKernel};
    let data = Tensor::from_fn([96, 128], |ix| {
        ((ix[0] as f32) * 0.07).sin() * 12.0 + ((ix[1] as f32) * 0.05).cos() * 3.0
    });
    let shape = data.shape();
    let mut kernel = ScanKernel::for_shape(1, shape);
    struct Sink<'a> {
        values: &'a [f32],
        acc: u64,
    }
    impl RowVisitor<f32> for Sink<'_> {
        type Error = std::convert::Infallible;
        fn point(&mut self, flat: usize, pred: f64) -> f32 {
            self.acc ^= pred.to_bits();
            self.values[flat]
        }
    }
    let mut buf = vec![0f32; data.len()];
    let mut v = Sink {
        values: data.as_slice(),
        acc: 0,
    };
    let _ = kernel.scan_rows(shape, &mut buf, &mut v);
    let (a, b, _) = count_allocs(|| {
        let mut v = Sink {
            values: data.as_slice(),
            acc: 0,
        };
        let _ = kernel.scan_rows(shape, &mut buf, &mut v);
        v.acc
    });
    assert_eq!((a, b), (0, 0), "warm scan_rows allocated {a} times ({b} B)");
}
