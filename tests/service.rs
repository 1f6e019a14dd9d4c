//! Concurrency contracts for the `szr-server` service layer.
//!
//! Three properties are pinned here, end to end through the facade:
//!
//! 1. **Bit-identity under concurrency** — N submitting threads × M jobs
//!    through the work-stealing service produce archives byte-identical to
//!    the single-threaded chunked driver, and concurrent decodes match the
//!    reference decode exactly.
//! 2. **The warm-pool allocation pin** — checkout from a warmed
//!    [`SessionPool`] followed by a compress allocates only the output
//!    archive (a counting global allocator, this binary only).
//! 3. **Index/sequential equivalence** — an indexed (v2) container decodes
//!    byte-identically through the sequential walk (index ignored), through
//!    a region read over the index, and from its legacy (v1, un-indexed)
//!    serialization.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use szr::parallel::{
    band_index, compress_chunked, decompress_chunked, decompress_chunked_region, ChunkedArchive,
};
use szr::server::{ArchiveService, Backpressure, ServiceConfig, ServiceError, SessionPool};
use szr::{Config, DecodePolicy, ErrorBound, Tensor};

struct CountingAlloc;

// Thread-local counting, as in tests/session_alloc.rs: the test harness
// runs tests on several threads, and the service itself owns worker
// threads; each `count_allocs` must observe only its own closure.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
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

fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    ALLOCS.with(|a| a.set(0));
    ALLOC_BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(|a| a.get()), ALLOC_BYTES.with(|b| b.get()), out)
}

fn config() -> Config {
    Config::new(ErrorBound::Absolute(1e-3))
}

/// Distinct fields per job so a cross-wired result cannot pass by luck.
fn field(salt: usize) -> Tensor<f32> {
    Tensor::from_fn([96, 64], |ix| {
        ((ix[0] as f32 + salt as f32 * 3.0) * 0.11).sin() * 5.0
            + ((ix[1] as f32) * 0.07).cos() * (1.0 + salt as f32 * 0.25)
    })
}

fn service(workers: usize, queue_jobs: usize) -> ArchiveService<f32> {
    ArchiveService::new(ServiceConfig {
        workers,
        queue_jobs,
        backpressure: Backpressure::Block,
        session_config: config(),
    })
    .unwrap()
}

#[test]
fn many_threads_many_jobs_round_trip_bit_identically() {
    const THREADS: usize = 4;
    const JOBS: usize = 4;
    const BANDS: usize = 6;
    let svc = service(3, 8);
    let fields: Vec<Arc<Tensor<f32>>> = (0..THREADS * JOBS).map(|k| Arc::new(field(k))).collect();
    let references: Vec<Vec<u8>> = fields
        .iter()
        .map(|f| compress_chunked(f, &config(), BANDS, 1).unwrap().to_bytes())
        .collect();

    // Each thread submits all its jobs before waiting on any, so many jobs
    // are genuinely in flight at once (16 jobs against an 8-job admission
    // limit: the over-limit submits block until workers drain).
    let archives: Vec<Vec<Vec<u8>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let svc = &svc;
                let fields = &fields;
                s.spawn(move || {
                    let submitted: Vec<_> = (0..JOBS)
                        .map(|j| {
                            svc.submit_compress(
                                Arc::clone(&fields[t * JOBS + j]),
                                config(),
                                BANDS,
                                None,
                            )
                            .unwrap()
                        })
                        .collect();
                    submitted
                        .into_iter()
                        .map(|h| h.wait().unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (t, per_thread) in archives.iter().enumerate() {
        for (j, got) in per_thread.iter().enumerate() {
            assert_eq!(
                got,
                &references[t * JOBS + j],
                "thread {t} job {j}: archive differs from the single-threaded driver"
            );
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.submitted, (THREADS * JOBS) as u64);
    assert_eq!(stats.completed, (THREADS * JOBS) as u64);
    assert_eq!(stats.bands_executed, (THREADS * JOBS * BANDS) as u64);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn concurrent_decodes_match_the_reference_decode() {
    const THREADS: usize = 3;
    let svc = service(2, 16);
    let archives: Vec<Arc<Vec<u8>>> = (0..THREADS)
        .map(|k| {
            Arc::new(
                compress_chunked(&field(k), &config(), 5, 1)
                    .unwrap()
                    .to_bytes(),
            )
        })
        .collect();
    let references: Vec<Tensor<f32>> = archives
        .iter()
        .map(|b| decompress_chunked(&ChunkedArchive::from_bytes(b).unwrap(), 1).unwrap())
        .collect();

    std::thread::scope(|s| {
        for (k, bytes) in archives.iter().enumerate() {
            let svc = &svc;
            let reference = &references[k];
            let bytes = Arc::clone(bytes);
            s.spawn(move || {
                for _ in 0..3 {
                    let out = svc
                        .submit_decompress(Arc::clone(&bytes), DecodePolicy::Strict, None)
                        .unwrap()
                        .wait()
                        .unwrap();
                    assert!(
                        out.as_slice()
                            .iter()
                            .zip(reference.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "concurrent decode {k} drifted from the reference"
                    );
                }
            });
        }
    });
}

#[test]
fn warm_pool_checkout_compress_allocates_only_the_output_archive() {
    // Fixed interval bits + no DEFLATE pass + table reuse: the configuration
    // whose fused steady state allocates exactly the output archive (the
    // same pin as tests/session_alloc.rs, here routed through the pool).
    let cfg = Config::new(ErrorBound::Absolute(1e-3))
        .with_interval_bits(8)
        .without_lossless_pass();
    let pool = SessionPool::<f32>::new(cfg, 2).unwrap();
    let band = Tensor::from_fn([24, 64], |ix| {
        ((ix[0] as f32) * 0.09).sin() * 6.0 + ((ix[1] as f32) * 0.05).cos()
    });
    {
        // Checkout pops from the back and checkin pushes back, so this same
        // session is the one the counted checkout receives — warm it.
        let mut session = pool.checkout();
        session.set_table_reuse(true);
        let _ = session.compress(&band).unwrap();
    }

    let (allocs, bytes, warm) = count_allocs(|| {
        let mut session = pool.checkout();
        session.compress(&band).unwrap()
    });
    assert_eq!(
        allocs, 1,
        "warm pool checkout + compress must allocate exactly the output \
         archive ({allocs} allocations, {bytes} bytes)"
    );
    assert!(
        bytes <= (warm.len() as u64) * 4 + 1024,
        "the single allocation should be archive-sized: {bytes} bytes for a \
         {}-byte archive",
        warm.len()
    );

    let restored: Tensor<f32> = szr::decompress(&warm).unwrap();
    for (&a, &b) in band.as_slice().iter().zip(restored.as_slice()) {
        assert!((a as f64 - b as f64).abs() <= 1e-3);
    }
}

#[test]
fn indexed_sequential_and_legacy_paths_decode_identically() {
    let data = field(7);
    let archive = compress_chunked(&data, &config(), 8, 2).unwrap();
    let bytes = archive.to_bytes();

    // Sequential walk: the index at the tail is parsed over, never used.
    let sequential: Tensor<f32> =
        decompress_chunked(&ChunkedArchive::from_bytes(&bytes).unwrap(), 2).unwrap();

    // Random access: every band through the CRC-sealed index.
    let index = band_index(&bytes).unwrap();
    assert!(index.from_index, "a fresh v2 archive must carry its index");
    let via_index: Tensor<f32> =
        decompress_chunked_region(&bytes, 0..index.dims[0], 2, DecodePolicy::Strict).unwrap();
    assert!(
        sequential
            .as_slice()
            .iter()
            .zip(via_index.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "a region read over the whole index must match the sequential walk"
    );

    // Compatibility: the same container serialized without an index (v1)
    // still decodes byte-identically.
    let legacy = archive.to_bytes_legacy();
    assert_ne!(legacy, bytes);
    let via_legacy: Tensor<f32> =
        decompress_chunked(&ChunkedArchive::from_bytes(&legacy).unwrap(), 2).unwrap();
    assert!(
        sequential
            .as_slice()
            .iter()
            .zip(via_legacy.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "un-indexed v1 bytes must decode identically to the indexed v2 bytes"
    );
}

#[test]
fn roi_region_read_equals_the_full_decode_slice() {
    let data = field(3);
    let svc = service(2, 8);
    let bytes = Arc::new(
        compress_chunked(&data, &config(), 12, 2)
            .unwrap()
            .to_bytes(),
    );
    let full: Tensor<f32> =
        decompress_chunked(&ChunkedArchive::from_bytes(&bytes).unwrap(), 1).unwrap();
    let row = 64;
    for rows in [0..8usize, 40..56, 88..96] {
        let roi = svc
            .read_region(Arc::clone(&bytes), rows.clone(), DecodePolicy::Strict, None)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(roi.dims(), &[rows.end - rows.start, row]);
        assert!(
            roi.as_slice()
                .iter()
                .zip(&full.as_slice()[rows.start * row..rows.end * row])
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "region {rows:?} drifted from the full decode"
        );
    }
}

/// A region read decodes only the bands it touches: with one payload byte
/// flipped in every band outside rows 320..416 (bands 10..13 of 32), a
/// `Verify` read of those rows still succeeds through both the chunked
/// driver and the service and equals the clean full decode bit for bit,
/// while a full-range `Verify` read of the same bytes fails.
#[test]
fn region_read_decodes_only_the_bands_it_touches() {
    let tall = Tensor::from_fn([1024usize, 256], |ix| {
        ((ix[0] as f32) * 0.021).sin() * 12.0 + ((ix[1] as f32) * 0.007).cos() * 3.0
    });
    let config = Config::new(ErrorBound::Relative(1e-4));
    let clean = compress_chunked(&tall, &config, 32, 1).unwrap().to_bytes();
    let full: Tensor<f32> =
        decompress_chunked(&ChunkedArchive::from_bytes(&clean).unwrap(), 1).unwrap();
    let rows = 320..416;
    let index = band_index(&clean).unwrap();
    let (touched, first_row) = index.bands_covering_rows(rows.clone()).unwrap();
    assert_eq!((touched.clone(), first_row), (10..13, 320));

    let mut damaged = clean.clone();
    for (band, entry) in index.entries.iter().enumerate() {
        if !touched.contains(&band) {
            damaged[entry.offset + entry.len / 2] ^= 0x5A;
        }
    }
    let want = &full.as_slice()[rows.start * 256..rows.end * 256];
    let same = |got: &Tensor<f32>| {
        got.as_slice().len() == want.len()
            && got
                .as_slice()
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    };

    let direct: Tensor<f32> =
        decompress_chunked_region(&damaged, rows.clone(), 1, DecodePolicy::Verify).unwrap();
    assert!(
        same(&direct),
        "chunked region read drifted from the full decode"
    );
    let damaged = Arc::new(damaged);
    let svc = service(2, 4);
    let via_service = svc
        .read_region(Arc::clone(&damaged), rows, DecodePolicy::Verify, None)
        .unwrap()
        .wait()
        .unwrap();
    assert!(
        same(&via_service),
        "service region read drifted from the full decode"
    );

    assert!(
        decompress_chunked_region::<f32>(&damaged, 0..1024, 1, DecodePolicy::Verify).is_err(),
        "a full-range Verify read must catch the damaged bands"
    );
}

/// A region read whose rows are exactly some bands' rows returns those
/// bands, each decoded on its own and stacked in band order.
#[test]
fn band_aligned_region_reads_equal_the_decoded_bands() {
    let svc = service(2, 8);
    let bytes = Arc::new(
        compress_chunked(&field(5), &config(), 12, 2)
            .unwrap()
            .to_bytes(),
    );
    let index = band_index(&bytes).unwrap();
    for bands in [0..1usize, 3..7, 11..12, 0..12] {
        let first_row: usize = index.entries[..bands.start].iter().map(|e| e.rows).sum();
        let rows: usize = index.entries[bands.clone()].iter().map(|e| e.rows).sum();
        let expected: Vec<f32> = bands
            .clone()
            .flat_map(|b| {
                let band: Tensor<f32> =
                    szr::decompress(index.band_slice(&bytes, b).unwrap()).unwrap();
                band.as_slice().to_vec()
            })
            .collect();
        let got = svc
            .read_region(
                Arc::clone(&bytes),
                first_row..first_row + rows,
                DecodePolicy::Strict,
                None,
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(got.dims(), &[rows, 64]);
        assert!(
            got.as_slice()
                .iter()
                .zip(&expected)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "bands {bands:?} drifted from their standalone decodes"
        );
    }
}

/// Region reads whose edges cut bands — inside one band, across a band
/// boundary, and over a whole band with both neighbours cut — equal the
/// same rows of a full decode bit for bit, through the chunked driver and
/// through the service.
#[test]
fn band_cutting_region_reads_equal_the_full_decode_rows() {
    let svc = service(2, 8);
    let bytes = Arc::new(
        compress_chunked(&field(7), &config(), 12, 2)
            .unwrap()
            .to_bytes(),
    );
    let full: Tensor<f32> =
        decompress_chunked(&ChunkedArchive::from_bytes(&bytes).unwrap(), 1).unwrap();
    let index = band_index(&bytes).unwrap();
    // Band `b` starts at row `8 * b`: 96 rows in 12 bands of 8.
    assert!(index.entries.iter().all(|e| e.rows == 8));
    let row = 64;
    for (rows, touched) in [(10..13usize, 1..2usize), (22..26, 2..4), (45..63, 5..8)] {
        assert_eq!(index.bands_covering_rows(rows.clone()).unwrap().0, touched);
        let want = &full.as_slice()[rows.start * row..rows.end * row];
        let direct: Tensor<f32> =
            decompress_chunked_region(&bytes, rows.clone(), 2, DecodePolicy::Strict).unwrap();
        let served = svc
            .read_region(Arc::clone(&bytes), rows.clone(), DecodePolicy::Strict, None)
            .unwrap()
            .wait()
            .unwrap();
        for got in [&direct, &served] {
            assert_eq!(got.dims(), &[rows.len(), row]);
            assert!(
                got.as_slice()
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "rows {rows:?} drifted from the full decode"
            );
        }
    }
}

/// A compress job under a config other than the pool's re-arms the session
/// it runs on; the next job under the pool's config must not inherit it.
#[test]
fn a_job_config_does_not_leak_into_the_next_job() {
    let svc = service(1, 4);
    let data = Arc::new(field(2));
    let other = Config::new(ErrorBound::Absolute(1e-2));
    for config in [other, config()] {
        let got = svc
            .submit_compress(Arc::clone(&data), config, 4, None)
            .unwrap()
            .wait()
            .unwrap();
        let reference = compress_chunked(&data, &config, 4, 1).unwrap().to_bytes();
        assert_eq!(got, reference, "{config:?}");
    }
}

#[test]
fn reject_backpressure_fails_fast_with_a_typed_error() {
    let svc = ArchiveService::<f32>::new(ServiceConfig {
        workers: 1,
        queue_jobs: 0,
        backpressure: Backpressure::Reject,
        session_config: config(),
    })
    .unwrap();
    match svc.submit_compress(Arc::new(field(0)), config(), 4, None) {
        Err(ServiceError::Rejected { queued, capacity }) => {
            assert_eq!((queued, capacity), (0, 0));
        }
        other => panic!("expected a rejection, got {:?}", other.map(|_| ())),
    }
    assert_eq!(svc.stats().rejected, 1);
    assert_eq!(svc.stats().completed, 0);
}
