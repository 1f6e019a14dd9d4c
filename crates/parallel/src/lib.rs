//! Parallel use of the compressor (§VI of the paper).
//!
//! SZ parallelizes trivially: each process compresses the fraction of the
//! data in its own memory, with no inter-process communication (the paper
//! runs 11 400 ATM files across 1 024 processes this way). This crate
//! reproduces that shape on a single machine and models the cluster:
//!
//! * [`chunked`] — split a tensor into contiguous row bands, compress each
//!   band as its own archive, reassemble on decompression. One scoped band
//!   runner, [`BandExecutor`], runs every direction: `compress` under a
//!   [`Strategy`] (`Independent` self-contained bands; `Shared`, one
//!   Huffman table merged from the bands' histograms; `Fused`, a presampled
//!   shared table with the fused quantize→encode fast path per band;
//!   `Planned`, where `szr-planner` picks each band's layer count and
//!   interval sizing), `decompress`, the region `read`, and `salvage`.
//!   Each worker owns one `szr_core::CodecSession`, so kernels, quantize
//!   buffers, and decode scratch are reused across all bands it claims;
//!   an optional sink collects per-worker telemetry merged in band order.
//!   `compress_chunked` / `decompress_chunked` / `decompress_chunked_region`
//!   are one-line wrappers over it. Serialized containers (v2) carry a
//!   CRC-sealed band index enabling ROI reads that cost O(touched bands),
//!   never O(archive), and header-only `peek_stat`. A decode is first
//!   checked into a `BandPlan` (a full decode, or a row range), then run
//!   either into one output allocation, every band straight into its rows
//!   (`decode_into`), or band by band through a caller's closure from each
//!   worker's reused band buffer (`decode_each`), which is how the CLI
//!   writes bands straight into the output file. The per-band
//!   tasks (band split, band compress, band decode into a caller's rows)
//!   are shared with the `szr-server` archive service;
//! * [`scheduler`] — the work-stealing band scheduler behind every chunked
//!   driver (and the `szr-server` job queues): per-worker deques seeded
//!   with contiguous band runs, idle workers steal from the most loaded
//!   peer, steals surfaced through telemetry;
//! * [`scaling`] — the strong-scaling harness behind Tables VII/VIII:
//!   measured thread-scaling on the host plus an analytical Blues-cluster
//!   model (ideal inter-node scaling — justified by zero communication —
//!   with a measured intra-node memory-contention factor);
//! * [`io_model`] — the Figure 10 harness: compression + compressed-write
//!   versus raw-write time fractions under a shared-bandwidth
//!   parallel-file-system model.

mod chunked;
mod io_model;
mod scaling;
mod scheduler;

pub use chunked::{
    band_index, compress_band, compress_chunked, decompress_chunked, decompress_chunked_region,
    shared_codec, BandExecutor, BandIndex, BandIndexEntry, BandPlan, BandSplit, ChunkedArchive,
    ChunkedStat, Strategy,
};
pub use io_model::{io_breakdown, IoBreakdown, IoModel};
pub use scaling::{measure_scaling, model_cluster_scaling, ClusterModel, Direction, ScalingPoint};
pub use scheduler::{BandScheduler, WorkQueues};
