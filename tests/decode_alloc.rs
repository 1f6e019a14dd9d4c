//! Allocation accounting for chunked decodes, across threads.
//!
//! Band executor workers run on their own threads, so this binary counts
//! with a process-global allocator counter rather than the thread-local one
//! of `tests/session_alloc.rs`. It holds a single test, so nothing else in
//! the process allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use szr::parallel::{BandExecutor, Strategy};
use szr::{Config, DecodePolicy, ErrorBound, Tensor};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn record(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
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

/// Runs `f` with counting on for every thread, returning (allocations,
/// bytes).
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    ALLOC_BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::SeqCst),
        ALLOC_BYTES.load(Ordering::SeqCst),
        out,
    )
}

/// Decoder scratch one worker may allocate, whatever the band count: its
/// session's kernels, row scratch, codec tables and inflater, plus its
/// share of the per-band bookkeeping.
const PER_WORKER: u64 = 512 * 1024;

/// How much more a decode may allocate at 64 bands than at 16 of the same
/// tensor: the extra bands' bookkeeping and decode tables, never their
/// values.
const MORE_BANDS: u64 = 256 * 1024;

/// How many more allocations a decode may make at 64 bands than at 16 of
/// the same tensor. Each worker reuses its codec, decode table and band
/// buffers across bands, and band headers are checked without allocating,
/// so only growth of reused buffers may add any: none is per band.
const MORE_BANDS_ALLOCS: u64 = 32;

/// A chunked decode allocates its output once and decodes every band into
/// it: at 16 and at 64 bands of a 4 MiB tensor, everything it allocates
/// besides the output fits a fixed allowance per worker (a quarter of the
/// output in all), and the 48 extra bands add less than [`MORE_BANDS`]
/// bytes in at most [`MORE_BANDS_ALLOCS`] allocations.
/// Building each band as its own tensor and stitching them would allocate
/// the output twice.
#[test]
fn chunked_decode_allocates_the_output_once_at_any_band_count() {
    let data = Tensor::from_fn([1024usize, 1024], |ix| {
        ((ix[0] as f32) * 0.021).sin() * 12.0 + ((ix[1] as f32) * 0.013).cos() * 3.0
    });
    let output = (data.len() * 4) as u64;
    let config = Config::new(ErrorBound::Absolute(1e-3));
    let threads = 2;
    let executor = BandExecutor::new(threads);
    for strategy in [Strategy::Independent, Strategy::Shared] {
        let (mut extra, mut counts) = (Vec::new(), Vec::new());
        for bands in [16usize, 64] {
            let archive = executor.compress(&data, &config, bands, strategy).unwrap();
            let reference: Tensor<f32> = szr::parallel::decompress_chunked(&archive, 1).unwrap();
            let (allocs, bytes, out) = count_allocs(|| {
                executor
                    .decompress::<f32>(&archive, DecodePolicy::Strict)
                    .unwrap()
            });
            assert_eq!(out.as_slice(), reference.as_slice());
            assert!(
                bytes <= output + threads as u64 * PER_WORKER,
                "{strategy:?} at {bands} bands: {bytes} bytes in {allocs} allocations \
                 for a {output}-byte output"
            );
            extra.push(bytes - output);
            counts.push(allocs);
        }
        assert!(
            extra[1].saturating_sub(extra[0]) <= MORE_BANDS,
            "{strategy:?}: {} bytes besides the output at 16 bands, {} at 64",
            extra[0],
            extra[1]
        );
        assert!(
            counts[1].saturating_sub(counts[0]) <= MORE_BANDS_ALLOCS,
            "{strategy:?}: {} allocations at 16 bands, {} at 64",
            counts[0],
            counts[1]
        );
    }
}
