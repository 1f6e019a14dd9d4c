//! # szr — error-bounded lossy compression for scientific data
//!
//! A complete Rust reproduction of **SZ-1.4** (Tao, Di, Chen & Cappello,
//! *"Significantly Improving Lossy Compression for Scientific Data Sets
//! Based on Multidimensional Prediction and Error-Controlled Quantization"*,
//! IPDPS 2017), together with every baseline compressor the paper evaluates
//! against, synthetic stand-ins for its data sets, the full metrics suite,
//! and an experiment harness that regenerates each table and figure.
//!
//! This crate is a facade: it re-exports the workspace's public APIs under
//! one roof. Depend on the individual `szr-*` crates instead if you only
//! need one piece.
//!
//! ## Compressing a field
//!
//! ```
//! use szr::{compress, decompress, Config, ErrorBound, Tensor};
//!
//! // A 2-D field with a value-range-based relative error bound of 1e-4.
//! let data = Tensor::from_fn([180, 360], |ix| {
//!     ((ix[0] as f32) * 0.05).sin() * 30.0 + (ix[1] as f32) * 0.01
//! });
//! let archive = compress(&data, &Config::new(ErrorBound::Relative(1e-4))).unwrap();
//! let restored: Tensor<f32> = decompress(&archive).unwrap();
//!
//! let stats = szr::metrics::ErrorStats::compute(data.as_slice(), restored.as_slice());
//! assert!(stats.max_rel <= 1e-4);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | root re-exports | `szr-core` | the SZ-1.4 compressor |
//! | [`tensor`] | `szr-tensor` | N-d arrays, shapes, blocks |
//! | [`metrics`] | `szr-metrics` | RMSE/NRMSE/PSNR, Pearson, autocorrelation, CF/bit-rate |
//! | [`datagen`] | `szr-datagen` | ATM / APS / hurricane synthetic data sets |
//! | [`baselines`] | `szr-{zfp,sz11,isabela,fpzip,deflate}` | the paper's six-way comparison |
//! | [`parallel`] | `szr-parallel` | chunked threading, scaling + I/O models |
//! | [`planner`] | `szr-planner` | sampled ratio–quality estimation, codec/config auto-selection |
//! | [`container`] | `szr-container` | multi-variable snapshot container |
//! | [`telemetry`] | `szr-telemetry` | per-stage spans, codec counters, per-band records |
//! | [`server`] | `szr-server` | concurrent archive service: session pool, job scheduler, ROI reads |
//!
//! ## Sessions: the owning pipeline object
//!
//! Every piece of reusable codec state — scan kernels (and the row engine's
//! scratch rows), quantize buffers, Huffman codecs, bit/byte staging —
//! lives in one object: [`CodecSession`]. Callers compressing more than one
//! grid hold a session instead of re-wiring the free functions:
//!
//! ```
//! use szr::{CodecSession, Config, ErrorBound, Tensor};
//!
//! // Fixed interval bits: the configuration whose fused steady state
//! // allocates nothing but the output archive itself (only the adaptive
//! // interval sampler still allocates per call; the DEFLATE post-pass
//! // runs on a session-owned reusable `Deflater`).
//! let config = Config::new(ErrorBound::Relative(1e-4)).with_interval_bits(8);
//! let mut session = CodecSession::<f32>::new(config).unwrap();
//! session.set_table_reuse(true); // fused quantize→encode after band 1
//! for step in 0..3 {
//!     let field = Tensor::from_fn([64, 64], |ix| {
//!         ((ix[0] + step) as f32 * 0.1).sin() + (ix[1] as f32 * 0.1).cos()
//!     });
//!     let archive = session.compress(&field).unwrap();
//!     let back = session.decompress(&archive).unwrap();
//!     assert_eq!(back.dims(), field.dims());
//! }
//! ```
//!
//! The free functions ([`compress`], [`decompress`], …) remain as thin
//! wrappers with byte-identical output; `StreamCompressor`, the chunked
//! drivers in [`parallel`], and the [`planner`]'s size model all run on
//! sessions internally. With table reuse enabled (or through the
//! presampled shared table of `parallel::Strategy::Fused`), the
//! quantize and Huffman-encode stages fuse: codes stream straight into the
//! archive's bit buffer and the intermediate code vector is never
//! materialized.
//!
//! Decompression fuses symmetrically: a pull-based Huffman symbol decoder
//! streams quantization codes straight into row reconstruction (escapes
//! decoded in per-row batches), so a warm session's only steady-state
//! allocation is the output tensor itself. The staged
//! decode-all-then-reconstruct path survives as
//! `szr_core::oracle::decompress_staged` — the test oracle the fused path
//! is pinned bit-identical to, kept out of this facade.
//!
//! ## Observability: pipeline telemetry
//!
//! Every stage of the session pipeline is instrumented behind the
//! [`telemetry::TelemetrySink`] trait. A session with no sink (or a
//! disabled one) does no clock reads and no record construction — the
//! instrumentation is gated on `enabled()` at every site, and the
//! steady-state allocation pins in `tests/session_alloc.rs` hold with a
//! `NoopSink` attached. Attaching a [`telemetry::RecordingSink`] collects
//! per-stage spans (predict→quantize, entropy encode, DEFLATE, header IO,
//! symbol decode, row reconstruction), codec counters (kernel/codec-table
//! cache traffic, interval-search iterations, fused-table reseeds), and
//! one [`telemetry::BandRecord`] per band with hit/escape counts and the
//! code-stream/table/escape byte split:
//!
//! ```
//! use std::sync::Arc;
//! use szr::telemetry::{RecordingSink, TelemetrySink};
//! use szr::{CodecSession, Config, ErrorBound, Tensor};
//!
//! let data = Tensor::from_fn([64, 96], |ix| {
//!     ((ix[0] as f32) * 0.1).sin() * 8.0 + (ix[1] as f32) * 0.01
//! });
//! let sink = Arc::new(RecordingSink::new());
//! let mut session = CodecSession::<f32>::new(Config::new(ErrorBound::Relative(1e-4))).unwrap();
//! session.set_telemetry(Some(sink.clone() as Arc<dyn TelemetrySink>));
//! let archive = session.compress(&data).unwrap();
//!
//! let report = sink.report();
//! let band = &report.bands[0];
//! assert_eq!(band.points as usize, data.len());
//! assert_eq!(band.hits + band.escapes, band.points);
//! assert_eq!(band.archive_bytes as usize, archive.len());
//! ```
//!
//! The chunked drivers run through one band runner,
//! [`parallel::BandExecutor`]: given a sink, it gives each worker its own
//! sink and merges them in band order (compress under every
//! [`parallel::Strategy`], decompress, region read, and salvage). The
//! in-situ streaming path ([`StreamCompressor::set_telemetry`]) reports
//! per-slab bands the same way. On the command line, `szr compress --telemetry=json`
//! (and `decompress`) prints the same report on stdout — `version`,
//! `hit_rate`, `escape_rate`, `bits_per_value`, `hit_rate_by_layer`,
//! `counters`, `spans`, and `bands` (with `estimated_bits_per_value` from
//! the planner under `--auto`, pricing model drift) — while `szr inspect`
//! walks every archive section (band v1/v2, chunked SZCK, stream SZST,
//! pointwise SZRL) without reconstructing data and names the failing
//! section on corrupt input.
//!
//! ## Archive integrity
//!
//! Band archives are written in the checksummed **v3 framing**: a CRC-32
//! seals the header fields and a trailing `table CRC · payload CRC` pair
//! seals the Huffman block and escape block (pointwise-relative SZRL
//! containers carry one whole-container CRC; v1/v2 archives remain fully
//! decodable). How strictly a decode treats the checksums is a
//! [`DecodePolicy`]: `Strict` parses without recomputing CRCs, `Verify`
//! ([`decompress_with_policy`], [`CodecSession::set_decode_policy`])
//! rejects any mismatching section with an [`SzError::Corrupt`] naming it
//! (`header:` / `table:` / `payload:`), and `Salvage` lets container
//! decodes ([`parallel::BandExecutor::salvage`],
//! [`StreamDecompressor::collect_all_salvage`]) recover every intact band,
//! fill damaged rows, and report the damage as a [`SalvageReport`]. Every
//! decode entry point bounds untrusted-header allocations against the
//! archive's actual byte length ([`check_declared_len`]), and
//! `szr verify` / `szr decompress --salvage` expose the integrity walk and
//! the salvage path on the command line. The fault-injection harness
//! (`tests/fault_injection.rs`) drives all four archive families through
//! deterministic bit-flip/byte-swap/truncate/splice mutators
//! (`datagen::Mutation`) and pins the contract: a damaged archive decodes
//! within bound or fails with a typed error — never a panic, never silent
//! corruption.
//!
//! ## The lossless back end: adaptive DEFLATE
//!
//! The DEFLATE post-pass runs on a from-scratch RFC 1951 encoder
//! ([`baselines::gzip`], crate `szr-deflate`) built around a reusable
//! `Deflater`: hash chains, token buffer, Huffman scratch, and output
//! bytes all live across calls, which is what keeps the warm session's
//! 1-allocation compress pin intact with the lossless pass enabled. Three
//! `Effort` tiers (`Fast` / `Default` / `Best`) trade lazy-matching depth
//! for speed, and a content-aware block splitter segments the token
//! stream where its symbol statistics shift (chunked histograms,
//! divergence-priced boundaries with merge-back), guaranteed never to
//! price worse than the fixed segmentation it replaces.
//!
//! Every payload is priced before the pass runs, whatever its size.
//! `Deflater::estimate_saving` builds the payload's byte histogram in one
//! counting pass and prices it exactly as a literal-only DEFLATE block,
//! which is what DEFLATE writes when it finds no matches. A short hash
//! probe then credits the bytes that matches would cover. A payload over
//! 32 KiB is also priced as one literal-only block per 32 KiB, which sees
//! a band's Huffman table apart from its code stream. The full pass runs
//! only when the predicted saving reaches 2% of the payload. A skipped
//! payload is stored exactly as with the pass off and counted as
//! `deflate_trial_skips`. On the medium datasets, 61 of 64 chunked APS
//! bands, whole APS fields and whole ATM FREQSH skip the pass. Each of
//! those saved under 2.4% with it, and the chunked APS bands 0.76% in
//! aggregate. Every Hurricane band saves 8.8% or more and still runs the
//! pass, as do ATM TS, SNOWHLND and CDNUMC (24% or more) and the bands of
//! a chunked FREQSH (about 5% each).
//!
//! The same machinery can attack the *escape stream* — the raw binary
//! encodings of unpredictable values, whose spatially-correlated runs the
//! per-symbol Huffman stage cannot see. [`Config::with_escape_lz`]
//! (CLI `--escape-lz`) trial-compresses each band's escape section and,
//! only when the trial strictly wins, stores it deflated under the v5/v6
//! band framing (the payload CRC still covers the raw bytes, so `Verify`
//! checks the inflation end to end; a losing trial emits v3/v4
//! byte-identically). The [`planner`] prices the flag per band via
//! [`escape_lz_trial_ratio`] and arms it automatically where it pays —
//! escape-heavy fields have been measured jumping from 236× to 785×
//! archive ratio (`tests/parallel_and_format.rs`,
//! `escape_lz_wins_big_on_one_escape_heavy_band`).
//!
//! ## The service layer: concurrency as a first-class property
//!
//! Everything above serves one caller at a time; the [`server`] module
//! (`szr-server`) makes *many simultaneous jobs* the unit of design. A
//! [`server::SessionPool`] holds pre-warmed [`CodecSession`]s behind
//! checkout/checkin guards — the session layer's allocation-free steady
//! state means a warm pool serves a job without reallocating kernel caches,
//! scratch, or codec tables, no matter which worker picks it up (pinned by
//! `tests/service.rs`'s counting allocator). A [`server::ArchiveService`]
//! splits each compress/decompress job into one task per band and runs the
//! tasks on a work-stealing scheduler (`parallel::WorkQueues`: per-worker
//! deques, idle workers steal from the most-loaded victim), with bounded
//! admission: at most `queue_jobs` jobs in flight, over-limit submits either
//! block or fail fast per [`server::Backpressure`], and rejections/steals
//! surface through telemetry (`rejected_jobs`, `scheduler_steals`).
//!
//! Random access rides on the chunked container's **v2 band index**: after
//! the band region, the archive carries a CRC-32-sealed table of per-band
//! `(offset, length, rows)` entries, so [`parallel::BandExecutor::read`] and
//! [`server::ArchiveService::read_region`] decode only the bands a row
//! range touches — O(touched bands), never O(archive). The sequential band
//! walk stays authoritative: readers that ignore the index (v1 decoders,
//! `parallel::decompress_chunked`) see byte-identical output, and a damaged
//! index degrades to that walk or fails typed (`index:`-named) — it can
//! never mis-seek, because each entry's row extent is re-validated against
//! the decoded band. Header-only metadata for all four archive families
//! comes from [`server::stat`]. On the command line: `szr stat`,
//! `szr extract --region A:B`, and `szr compress --chunks N`.
//!
//! ## The scan-kernel pipeline
//!
//! Every predict→quantize traversal in the codec runs through one engine:
//! [`ScanKernel`] (in `szr-core`). A kernel is instantiated per
//! *(layer count, stride family)* and dispatches to closed-form loops for
//! the dominant cases — 1-D/2-D/3-D grids with 1-layer (Lorenzo) or
//! 2-layer prediction, Eq. 11 coefficients unrolled as constants, interior
//! fast path separated from the boundary slow path — falling back to the
//! generic stencil walker for any other `(d, n)`.
//!
//! The hot paths are **wavefront row groups**: `ScanKernel::scan_rows`
//! walks up to four rows of one row class at once, row `q` one column
//! behind row `q − 1`, so the CPU overlaps four independent
//! predict→quantize→reconstruct chains instead of waiting on one. Each
//! point keeps the exact `f64` expression tree of the per-point oracle
//! (`ScanKernel::scan`), so both produce byte-identical archives, pinned by
//! property tests across every dimension/layer/shape class. A
//! [`RowVisitor`] sees one group at a time: quantizers write codes by index
//! and serialize a group's escapes in row-major order at its end; decoders
//! pull, validate and pre-decode a group's symbols at its start, so a
//! corrupt archive aborts at the first bad group.
//!
//! The batched slice passes — the read-only and sampler prediction rows,
//! the sampler's hit test, code→offset reconstruction — are plain loops
//! the compiler vectorizes at the baseline target, one implementation each
//! with no runtime dispatch, so bytes never depend on the machine.
//!
//! Four call sites consume it, so they cannot drift apart:
//!
//! * [`compress`] / [`compress_slice_with_stats`] — the wavefront
//!   quantization scan over the reconstruction buffer;
//! * [`decompress`] — replays the identical traversal from decoded codes;
//! * the §IV-B adaptive interval sampler ([`choose_interval_bits`]);
//! * the Table II hit-rate estimators ([`hit_rate_by_layer`],
//!   [`quantization_histogram`]) — the Original basis runs the kernel's
//!   read-only row scan (`ScanKernel::readonly_rows`), which materializes
//!   whole rows of predictions at once, no input copy.
//!
//! Running the pipeline on caller-owned kernels and buffers has one API,
//! [`CodecSession`]: `szr-parallel`'s band workers, the stream codec and
//! the planner each hold a session, which caches one kernel per (layer
//! count, stride family) across every band it touches, both directions,
//! scratch rows included. `crates/bench` races the row engine against the
//! point oracle and the specialized kernels against the generic walker
//! (`benches/scan.rs`, `row_scan/*`).

pub use szr_container::Snapshot;
pub use szr_core::{
    check_declared_len, choose_interval_bits, compress, compress_pointwise_rel,
    compress_slice_with_stats, compress_with_stats, decompress, decompress_pointwise_rel,
    decompress_with_policy, escape_lz_trial_ratio, hit_rate_by_layer, inspect, inspect_layout,
    layer_coefficients, predict_at, quantization_histogram, verify_pointwise_rel, ArchiveInfo,
    BandDamage, BandLayout, CodecSession, CompressionStats, Config, DecodePolicy, ErrorBound,
    HuffmanTable, IntervalMode, KernelKind, PredictionBasis, QuantizedBand, Result, RowVisitor,
    SalvageReport, ScalarFloat, ScanKernel, Stencil, StencilSet, StreamCompressor,
    StreamDecompressor, SzError, UnpredictableCodec,
};
pub use szr_tensor::{Shape, Tensor};

/// N-dimensional array substrate (`szr-tensor`).
pub mod tensor {
    pub use szr_tensor::*;
}

/// Bit- and byte-level IO substrate (`szr-bitstream`).
pub mod bitstream {
    pub use szr_bitstream::*;
}

/// Arbitrary-alphabet canonical Huffman coding (`szr-huffman`).
pub mod huffman {
    pub use szr_huffman::*;
}

/// Compression-quality metrics from §II of the paper (`szr-metrics`).
pub mod metrics {
    pub use szr_metrics::*;
}

/// Synthetic scientific data sets (`szr-datagen`).
pub mod datagen {
    pub use szr_datagen::*;
}

/// The five baseline compressors the paper compares against.
pub mod baselines {
    /// GZIP: DEFLATE/gzip, from scratch (`szr-deflate`).
    pub mod gzip {
        pub use szr_deflate::*;
    }
    /// ZFP 0.5-style transform codec (`szr-zfp`).
    pub mod zfp {
        pub use szr_zfp::*;
    }
    /// FPZIP-style lossless predictive coder (`szr-fpzip`).
    pub mod fpzip {
        pub use szr_fpzip::*;
    }
    /// ISABELA-style sort+spline compressor (`szr-isabela`).
    pub mod isabela {
        pub use szr_isabela::*;
    }
    /// SZ-1.1 bestfit curve fitting (`szr-sz11`).
    pub mod sz11 {
        pub use szr_sz11::*;
    }
    /// NUMARCK-style vector quantization (`szr-vq`) — the §IV-A contrast
    /// case: good average error, unbounded pointwise error.
    pub mod vq {
        pub use szr_vq::*;
    }
}

/// Parallel compression: chunking, strong scaling, I/O modelling
/// (`szr-parallel`).
pub mod parallel {
    pub use szr_parallel::*;
}

/// Sampling-based ratio–quality estimation and automatic codec/config
/// selection (`szr-planner`).
///
/// [`planner::Planner`] samples a tensor, prices SZ configurations with a
/// ratio–quality model fitted on the real predict→quantize pipeline, and
/// measures the alternative backends black-box through the
/// [`planner::CodecAdapter`] trait, answering goals like "target ratio
/// ≥ 20×" or "max error ≤ 1e-4, smallest output" with a serializable
/// [`planner::PlanReport`]. The CLI front-ends are `szr plan` and
/// `szr compress --auto`.
pub mod planner {
    pub use szr_planner::*;
}

/// Multi-variable snapshot container (`szr-container`).
pub mod container {
    pub use szr_container::*;
}

/// Pipeline telemetry: per-stage spans, codec counters, per-band records
/// (`szr-telemetry`).
///
/// Attach a [`telemetry::RecordingSink`] via [`CodecSession::set_telemetry`]
/// (or the `_telemetry` chunked drivers in [`parallel`]); read the result
/// as a [`telemetry::TelemetryReport`] — serializable as stable text
/// (`to_text`/`from_text`) or JSON (`to_json`, what the CLI's
/// `--telemetry=json` prints).
pub mod telemetry {
    pub use szr_telemetry::*;
}

/// Concurrent archive service: pre-warmed session pools, work-stealing job
/// scheduling with bounded admission, O(touched-bands) region reads, and
/// header-only `stat` for every archive family (`szr-server`).
pub mod server {
    pub use szr_server::*;
}
