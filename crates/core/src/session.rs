//! `CodecSession`: one owning object for the whole SZ-1.4 pipeline.
//!
//! The codec's reusable state — scan kernels (with their row-engine scratch
//! rows), the quantizer's code/escape buffers, Huffman codecs, and the
//! bit/byte staging buffers — used to be wired up independently by every
//! caller (the free functions, `StreamCompressor`, `szr-parallel`'s chunked
//! workers, the planner's size model). A [`CodecSession`] owns all of it
//! behind a small API, so:
//!
//! * repeated compression of same-family grids is **allocation-free in
//!   steady state**: second and later calls on a session reuse every
//!   buffer, and in fused table-reuse mode — with fixed interval bits and
//!   the DEFLATE pass off, the two stages that still allocate per call —
//!   the only allocation left is the output archive itself (pinned by the
//!   counting-allocator test);
//! * the staged halves ([`CodecSession::quantize`] /
//!   [`CodecSession::encode`] / [`CodecSession::decompress`]) share the
//!   same kernels and scratch, which is what the planner's repeated
//!   pricing passes and the chunked driver's per-worker state want;
//! * the **fused quantize→encode fast path** becomes possible: when a
//!   Huffman table is known before the scan (session table-reuse mode, or
//!   the chunked driver's presampled shared table), the quantizing scan
//!   Huffman-encodes each wavefront group's codes straight into the
//!   session's [`BitWriter`] and the band's `codes: Vec<u32>` is never
//!   materialized.
//!
//! The szr-core free functions (`compress`, `decompress`, …) are thin
//! wrappers that run a throwaway session-equivalent pipeline; their output
//! is byte-identical to a session's staged output (pinned by property
//! tests).
//!
//! ## Fused table reuse
//!
//! With [`CodecSession::set_table_reuse`] enabled, the first band compresses
//! staged and the session then builds a *reuse table*: a Huffman code over
//! the band's occupied symbol range with every count clamped to ≥ 1, so
//! **every symbol in the range has a codeword**. Subsequent bands encode
//! fused under that table as long as their codes stay inside its symbol
//! range; the first out-of-range code aborts the fused scan and the band
//! falls back to the staged path, which also rebuilds the reuse table from
//! the band's own histogram (the escape-rebuild fallback). Fused archives
//! embed the reuse table, so they stay fully self-describing — any standard
//! [`crate::decompress`] reads them.

use crate::compress::{
    band_version, encode_group_escapes, encode_parts, encode_quantized_sink, escape_lz_trial,
    quantize_into, quantize_validated_impl, resolve_band_params, resolve_range_eb,
    write_band_header, write_post_passed, BandMeta, CompressionStats, EncodeExtra, EntropyScratch,
    HuffmanTable, QuantBufs, QuantizedBand,
};
use crate::config::Config;
use crate::decompress::{decompress_cached, DecodePolicy, DecodeScratch};
use crate::float::ScalarFloat;
use crate::kernel::{RowVisitor, ScanKernel};
use crate::quant::Quantizer;
use crate::unpred::UnpredictableCodec;
use crate::{Result, SzError};
use std::sync::Arc;
use szr_bitstream::{BitWriter, ByteWriter};
use szr_huffman::HuffmanCodec;
use szr_telemetry::{timed, BandRecord, Counter, Stage, TelemetrySink};
use szr_tensor::{Shape, Tensor};

/// A Huffman table retained across bands for the fused encode path.
struct ReusedTable {
    codec: HuffmanCodec,
    /// Serialized alphabet size (`codec.lengths().len()`), the first varint
    /// of a self-describing Huffman block.
    used: u64,
    /// RLE-serialized code-length table, cached so fused bands write it
    /// without re-serializing.
    table_rle: Vec<u8>,
    /// Interval bits of the band that seeded the table. Fused bands
    /// quantize with these — code distributions stay aligned with the
    /// table's symbol range, and the §IV-B sampler is skipped entirely
    /// while the table lives.
    bits: u32,
    /// The seeding band's escape fraction: the baseline for the drift
    /// watchdog (a fused band escaping far more than the seed did reseeds
    /// the table, restoring adaptive behavior).
    escape_rate: f64,
}

/// A long-lived pipeline object owning every piece of reusable codec state.
///
/// See the [module docs](self) for the architecture. A session is bound to
/// a scalar type `T` and (for compression) a [`Config`]; kernels are cached
/// per *(layer count, stride family)*, so one session serves any mix of
/// same-rank grids — chunked bands, stream slabs, planner samples.
pub struct CodecSession<T: ScalarFloat> {
    /// `None` for decode-only sessions ([`CodecSession::decoder`]).
    config: Option<Config>,
    table_reuse: bool,
    kernels: Vec<ScanKernel>,
    recon: Vec<T>,
    bufs: QuantBufs,
    /// Per-band code histogram scratch (occupied range), reused across
    /// staged encodes.
    freqs: Vec<u64>,
    /// Fused-path Huffman bit stream.
    code_bits: BitWriter,
    /// Payload staging for the fused writer's DEFLATE pass.
    payload: ByteWriter,
    /// Entropy-stage scratch: the session-resident DEFLATE encoder (post
    /// pass + escape-LZ trials reuse its matcher state and output buffer)
    /// and the escape-LZ staging buffer.
    entropy: EntropyScratch,
    reuse: Option<ReusedTable>,
    /// Decode-side scratch: fused row buffers, the staged/oracle symbol
    /// vector, and the per-band codec cache.
    decode: DecodeScratch<T>,
    /// Telemetry sink the session's compress/decompress paths report to.
    /// `None` (and any sink whose `enabled()` is false) keeps every hot
    /// path free of clock reads, counters, and record assembly.
    sink: Option<Arc<dyn TelemetrySink>>,
    /// Index stamped on the next emitted band record (chunked drivers set
    /// it per band so merged reports list bands in archive order).
    band_index: u64,
    /// Planner-estimated bits/value to stamp on emitted band records, for
    /// the estimated-vs-actual drift column.
    planned_bits_per_value: Option<f64>,
    /// How strictly decodes treat v3 section checksums (Strict by default:
    /// structural validation only, no CRC recompute — today's behavior).
    decode_policy: DecodePolicy,
}

/// Fused-scan abort: demotions passed the cap (or the escape code itself
/// has no codeword), so the band is cheaper to re-run staged.
struct TableMiss;

/// Demotion budget for one fused band: `len >> 6` (~1.6% of points). Below
/// it, out-of-table codes ride as escapes; above it, the distribution has
/// structurally outgrown the table and a staged rescan (which rebuilds the
/// table) costs less than the escape bits.
const DEMOTE_CAP_SHIFT: u32 = 6;

/// Reseed trigger: a fused band that demoted more than `len >> 9` (~0.2%)
/// of its points finished under the cap but signals drift — the retained
/// table is dropped so the next band rebuilds it staged.
const RESEED_SHIFT: u32 = 9;

/// Builds a Huffman code that **covers** a histogram's full occupied range:
/// every count is clamped to ≥ 1 (and an empty histogram still codes the
/// escape symbol), so any code inside the range — including the escape
/// code 0 — has a codeword. This is the invariant every fused
/// quantize→encode table relies on: in-range codes always encode, and
/// out-of-range codes can always demote to escapes.
pub fn covering_codec(hist: &[u64]) -> HuffmanCodec {
    let mut smoothed: Vec<u64> = hist.iter().map(|&f| f.max(1)).collect();
    if smoothed.is_empty() {
        smoothed.push(1);
    }
    HuffmanCodec::from_frequencies(&smoothed)
}

impl<T: ScalarFloat> CodecSession<T> {
    /// Creates a session compressing under `config`.
    ///
    /// # Errors
    /// Returns [`SzError::InvalidConfig`] for unusable configurations; the
    /// config is validated once here, not per call.
    pub fn new(config: Config) -> Result<Self> {
        config.validate()?;
        Ok(Self::with_config(Some(config)))
    }

    /// Creates a decode-only session: [`CodecSession::decompress`] and the
    /// kernel-lending helpers work, compression returns
    /// [`SzError::InvalidConfig`] until [`CodecSession::set_config`] arms it.
    pub fn decoder() -> Self {
        Self::with_config(None)
    }

    fn with_config(config: Option<Config>) -> Self {
        Self {
            config,
            table_reuse: false,
            kernels: Vec::new(),
            recon: Vec::new(),
            bufs: QuantBufs::default(),
            freqs: Vec::new(),
            code_bits: BitWriter::new(),
            payload: ByteWriter::new(),
            entropy: EntropyScratch::default(),
            reuse: None,
            decode: DecodeScratch::default(),
            sink: None,
            band_index: 0,
            planned_bits_per_value: None,
            decode_policy: DecodePolicy::Strict,
        }
    }

    /// Sets how the session's decode paths treat v3 section checksums:
    /// [`DecodePolicy::Strict`] (default) skips CRC recomputation,
    /// [`DecodePolicy::Verify`] / [`DecodePolicy::Salvage`] recompute every
    /// stored checksum and reject mismatching sections with a typed error
    /// naming the section. (Salvage-with-fill semantics live in the
    /// container decoders; on a single band Salvage behaves like Verify.)
    pub fn set_decode_policy(&mut self, policy: DecodePolicy) {
        self.decode_policy = policy;
    }

    /// The session's current decode policy.
    pub fn decode_policy(&self) -> DecodePolicy {
        self.decode_policy
    }

    /// Attaches (or detaches) a telemetry sink. Every compress/decompress
    /// call through the session reports spans, counters, and band records
    /// to it; a [`szr_telemetry::NoopSink`] (or `None`) keeps the hot paths
    /// measurement-free — not just delivery-free — so steady-state
    /// allocation and throughput are unchanged.
    pub fn set_telemetry(&mut self, sink: Option<Arc<dyn TelemetrySink>>) {
        self.sink = sink;
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<dyn TelemetrySink>> {
        self.sink.as_ref()
    }

    /// Sets the index stamped on the next emitted band record (auto-
    /// incremented per band afterwards). Chunked drivers pin it to the
    /// band's archive position so merged per-worker reports stay ordered.
    pub fn set_next_band_index(&mut self, index: u64) {
        self.band_index = index;
    }

    /// Stamps subsequent band records with a planner-estimated bits/value
    /// (`None` clears it) — telemetry's estimated-vs-actual drift column.
    pub fn set_planned_bits_per_value(&mut self, estimate: Option<f64>) {
        self.planned_bits_per_value = estimate;
    }

    /// The sink to report to for this call: attached *and* enabled. One Arc
    /// refcount bump per instrumented call; no allocation.
    fn active_sink(&self) -> Option<Arc<dyn TelemetrySink>> {
        self.sink.clone().filter(|s| s.enabled())
    }

    /// The active compression configuration, if any.
    pub fn config(&self) -> Option<&Config> {
        self.config.as_ref()
    }

    /// Replaces the compression configuration (validated), keeping every
    /// cached kernel and buffer — a streaming caller pins its resolved
    /// absolute bound this way without losing warm state. A retained reuse
    /// table survives: its coverage check is dynamic, so a config change
    /// can at worst force an escape-rebuild on the next band.
    pub fn set_config(&mut self, config: Config) -> Result<()> {
        config.validate()?;
        self.config = Some(config);
        Ok(())
    }

    /// Whether the fused table-reuse fast path is enabled.
    pub fn table_reuse(&self) -> bool {
        self.table_reuse
    }

    /// Enables/disables fused table reuse (off by default; staged mode is
    /// byte-identical to the free functions). Disabling keeps the retained
    /// table so re-enabling resumes without a staged band.
    pub fn set_table_reuse(&mut self, on: bool) {
        self.table_reuse = on;
    }

    /// Drops the retained reuse table: the next fused-mode band compresses
    /// staged and rebuilds it. Streaming callers do this at stream
    /// boundaries to keep reused-compressor output byte-identical to a
    /// fresh compressor's.
    pub fn reset_reused_table(&mut self) {
        self.reuse = None;
    }

    /// Index of the cached kernel for `(layers, shape)`, creating it on
    /// first use.
    fn kernel_index(&mut self, layers: usize, shape: &Shape) -> usize {
        let before = self.kernels.len();
        let idx = ScanKernel::cache_index(&mut self.kernels, layers, shape);
        if let Some(sink) = self.sink.as_deref().filter(|s| s.enabled()) {
            sink.counter(
                if self.kernels.len() == before {
                    Counter::KernelCacheHit
                } else {
                    Counter::KernelCacheMiss
                },
                1,
            );
        }
        idx
    }

    /// Runs `f` with the session's cached kernel for `(layers, shape)` —
    /// the kernel-lending API behind the planner's size model, which prices
    /// many configurations against one sample grid.
    pub fn with_kernel<R>(
        &mut self,
        layers: usize,
        shape: &Shape,
        f: impl FnOnce(&mut ScanKernel) -> R,
    ) -> R {
        let i = self.kernel_index(layers, shape);
        f(&mut self.kernels[i])
    }

    /// The real-pipeline quantization-code histogram of `data` (see
    /// [`crate::quantization_histogram`]), through the session's cached
    /// kernel and reconstruction scratch.
    ///
    /// # Panics
    /// Panics unless `eb` is finite and positive and `interval_bits` is in
    /// `2..=30`.
    pub fn quantization_histogram(
        &mut self,
        data: &Tensor<T>,
        layers: usize,
        eb: f64,
        interval_bits: u32,
    ) -> Vec<u64> {
        let i = self.kernel_index(layers, data.shape());
        crate::stats::quantization_histogram_buffered(
            data,
            &mut self.kernels[i],
            eb,
            interval_bits,
            &mut self.recon,
        )
    }

    /// The §IV-B adaptive interval-bits choice through the session's cached
    /// kernel (see [`crate::choose_interval_bits`]).
    #[allow(clippy::too_many_arguments)]
    pub fn choose_interval_bits(
        &mut self,
        values: &[T],
        shape: &Shape,
        layers: usize,
        eb: f64,
        theta: f64,
        sample_stride: usize,
        max_bits: u32,
    ) -> u32 {
        let i = self.kernel_index(layers, shape);
        crate::quant::choose_interval_bits_counted(
            values,
            shape,
            &mut self.kernels[i],
            eb,
            theta,
            sample_stride,
            max_bits,
        )
        .0
    }

    fn active_config(&self) -> Result<Config> {
        self.config.ok_or(SzError::InvalidConfig(
            "decode-only session: call set_config before compressing",
        ))
    }

    /// Compresses a tensor into a self-contained archive.
    pub fn compress(&mut self, data: &Tensor<T>) -> Result<Vec<u8>> {
        self.compress_with_stats(data).map(|(bytes, _)| bytes)
    }

    /// Compresses a tensor, returning the archive and per-run statistics.
    pub fn compress_with_stats(&mut self, data: &Tensor<T>) -> Result<(Vec<u8>, CompressionStats)> {
        self.compress_slice(data.as_slice(), data.shape())
    }

    /// Compresses a flat row-major slice interpreted under `shape` — the
    /// zero-copy entry point (chunked bands, stream slabs).
    ///
    /// In staged mode the archive is byte-identical to
    /// [`crate::compress_slice_with_stats`]; with
    /// [`CodecSession::set_table_reuse`] enabled, bands after the first run
    /// the fused quantize→encode path under the retained table whenever its
    /// symbol range covers them.
    pub fn compress_slice(
        &mut self,
        values: &[T],
        shape: &Shape,
    ) -> Result<(Vec<u8>, CompressionStats)> {
        let config = self.active_config()?;
        // Decorrelation threads per-index dither through the point visitor
        // and cannot fuse; it always takes the staged path.
        if self.table_reuse && !config.decorrelate && self.reuse.is_some() {
            if let Some(out) = self.try_compress_fused(values, shape, &config)? {
                return Ok(out);
            }
        }
        self.compress_staged(values, shape, &config)
    }

    /// The staged pipeline over session buffers: quantize into the reusable
    /// code/escape buffers, histogram into the frequency scratch, encode
    /// per-band. Byte-identical to the free-function pipeline.
    fn compress_staged(
        &mut self,
        values: &[T],
        shape: &Shape,
        config: &Config,
    ) -> Result<(Vec<u8>, CompressionStats)> {
        let sink = self.active_sink();
        let tele = sink.is_some();
        let ki = self.kernel_index(config.layers, shape);
        let (meta, pq_nanos) = {
            let kernel = &mut self.kernels[ki];
            let bufs = &mut self.bufs;
            let recon = &mut self.recon;
            let s = sink.as_deref();
            let (meta, nanos) = timed(tele, || {
                quantize_into(values, shape, config, kernel, false, bufs, recon, s)
            });
            (meta?, nanos)
        };
        // Histogram over the occupied range — exactly what `compress_u32`
        // would count, but into the session's reusable scratch.
        crate::compress::occupied_histogram(&self.bufs.codes, &mut self.freqs);
        let unpred = self.bufs.unpred.finish();
        let (bytes, stats, extra) = encode_parts(
            &meta,
            shape.dims(),
            &self.bufs.codes,
            unpred,
            Some(&self.freqs),
            HuffmanTable::PerBand,
            &mut self.entropy,
            sink.as_deref(),
        );
        if let Some(sink) = sink.as_deref() {
            sink.span(
                Stage::PredictQuantize,
                pq_nanos,
                std::mem::size_of_val(values) as u64,
            );
            emit_band(
                sink,
                self.band_index,
                &stats,
                extra.as_ref(),
                self.planned_bits_per_value,
            );
        }
        self.band_index += 1;
        if self.table_reuse && !config.decorrelate {
            self.rebuild_reused_table(&meta, stats.huffman_bytes);
        }
        Ok((bytes, stats))
    }

    /// Builds the reuse table from the staged band's histogram via
    /// [`covering_codec`] (every occupied-range symbol gets a codeword —
    /// the coverage the fused scan relies on). `staged_block` pre-sizes the
    /// fused bit buffer so the *next* band's fused encode does not grow it.
    fn rebuild_reused_table(&mut self, meta: &BandMeta, staged_block: usize) {
        let codec = covering_codec(&self.freqs);
        let mut rle = ByteWriter::new();
        szr_huffman::write_lengths(&mut rle, codec.lengths());
        // Smoothed code lengths can exceed the band-optimal ones slightly;
        // double the staged block bounds any realistic drift.
        self.code_bits.clear();
        self.code_bits.reserve(2 * staged_block + 64);
        let total: u64 = self.freqs.iter().sum();
        self.reuse = Some(ReusedTable {
            used: codec.lengths().len() as u64,
            table_rle: rle.into_bytes(),
            codec,
            bits: meta.interval_bits,
            escape_rate: if total == 0 {
                0.0
            } else {
                *self.freqs.first().unwrap_or(&0) as f64 / total as f64
            },
        });
    }

    /// The fused fast path under the session's retained table. Out-of-range
    /// codes are demoted to escapes in-band; the scan aborts (`Ok(None)`,
    /// caller runs the staged path and reseeds the table) only when
    /// demotions pass [`DEMOTE_CAP_SHIFT`]'s budget — the escape-rebuild
    /// fallback.
    fn try_compress_fused(
        &mut self,
        values: &[T],
        shape: &Shape,
        config: &Config,
    ) -> Result<Option<(Vec<u8>, CompressionStats)>> {
        let sink = self.active_sink();
        let tele = sink.is_some();
        let ki = self.kernel_index(config.layers, shape);
        // The table pins its interval bits: the code distribution stays
        // aligned with its symbol range and the §IV-B sampler is skipped
        // while it lives (the escape watchdog below restores adaptivity).
        let (range, eb) = resolve_range_eb(values, shape, config, &self.kernels[ki])?;
        let reuse = self.reuse.as_ref().expect("fused path requires a table");
        let seed_escape_rate = reuse.escape_rate;
        let (scan, scan_nanos) = {
            let kernel = &mut self.kernels[ki];
            let bufs = &mut self.bufs;
            let recon = &mut self.recon;
            let code_bits = &mut self.code_bits;
            timed(tele, || {
                run_fused_scan(
                    kernel,
                    values,
                    shape,
                    config,
                    eb,
                    range,
                    reuse.bits,
                    &reuse.codec,
                    bufs,
                    recon,
                    code_bits,
                )
            })
        };
        let Some((meta, demoted)) = scan else {
            // The staged fallback the caller now runs rebuilds the table.
            if let Some(sink) = sink.as_deref() {
                sink.counter(Counter::FusedTableReseeds, 1);
            }
            return Ok(None);
        };
        let code_bytes = self.code_bits.finish();
        let unpred_bytes = self.bufs.unpred.finish();
        let ((bytes, stats, deflate_nanos), write_nanos) = {
            let payload = &mut self.payload;
            let entropy = &mut self.entropy;
            let sink_ref = sink.as_deref();
            timed(tele, || {
                write_fused_archive(
                    &meta,
                    shape.dims(),
                    false,
                    Some((&reuse.table_rle, reuse.used)),
                    values.len() as u64,
                    code_bytes,
                    unpred_bytes,
                    payload,
                    entropy,
                    sink_ref,
                )
            })
        };
        if let Some(sink) = sink.as_deref() {
            sink.span(
                Stage::PredictQuantize,
                scan_nanos,
                std::mem::size_of_val(values) as u64,
            );
            sink.span(
                Stage::EntropyEncode,
                write_nanos.saturating_sub(deflate_nanos),
                stats.huffman_bytes as u64,
            );
            sink.counter(Counter::FusedDemotions, demoted as u64);
            let mut extra = EncodeExtra::from_lengths(reuse.codec.lengths());
            extra.code_stream_bits = (code_bytes.len() as u64) * 8;
            extra.table_bytes = (reuse.table_rle.len() + ByteWriter::varint_len(reuse.used)) as u64;
            emit_band(
                sink,
                self.band_index,
                &stats,
                Some(&extra),
                self.planned_bits_per_value,
            );
        }
        self.band_index += 1;
        // Drift watchdog: reseed (next band staged, fresh table and a fresh
        // adaptive bits choice) when demotions cost real escape bits, or
        // when the band escaped far more often than the seed band did —
        // the signal that the pinned interval count no longer fits. The
        // budget is generous (4× the seed's rate, floor ~0.8%): an escape
        // costs 15–30 bits, so sub-percent drift is cheaper to ride out
        // than a staged rebuild.
        let escapes = values.len() - meta.predictable;
        let escape_budget =
            ((4.0 * seed_escape_rate).max(1.0 / 128.0) * values.len() as f64) as usize;
        if demoted > values.len() >> RESEED_SHIFT || escapes > escape_budget + 8 {
            self.reuse = None;
            if let Some(sink) = sink.as_deref() {
                sink.counter(Counter::FusedTableReseeds, 1);
            }
        }
        Ok(Some((bytes, stats)))
    }

    /// Fused quantize→encode under a caller-provided shared table, emitting
    /// a version-2 shared-stream band archive (table stored once by the
    /// owning container, as in [`HuffmanTable::Shared`]). Out-of-table
    /// codes demote to escapes; `Ok(None)` — the chunked driver then
    /// encodes the band self-contained — when demotions pass the cap or
    /// `codec` cannot even encode the escape code.
    ///
    /// # Errors
    /// Same conditions as [`CodecSession::compress_slice`].
    pub fn compress_slice_shared_fused(
        &mut self,
        values: &[T],
        shape: &Shape,
        codec: &HuffmanCodec,
    ) -> Result<Option<(Vec<u8>, CompressionStats)>> {
        let config = self.active_config()?;
        if config.decorrelate || codec.lengths().first().copied().unwrap_or(0) == 0 {
            return Ok(None);
        }
        let sink = self.active_sink();
        let tele = sink.is_some();
        let ki = self.kernel_index(config.layers, shape);
        let (range, eb, bits) = resolve_band_params(
            values,
            shape,
            &config,
            &mut self.kernels[ki],
            sink.as_deref(),
        )?;
        let (scan, scan_nanos) = {
            let kernel = &mut self.kernels[ki];
            let bufs = &mut self.bufs;
            let recon = &mut self.recon;
            let code_bits = &mut self.code_bits;
            timed(tele, || {
                run_fused_scan(
                    kernel, values, shape, &config, eb, range, bits, codec, bufs, recon, code_bits,
                )
            })
        };
        let Some((meta, demoted)) = scan else {
            return Ok(None);
        };
        let code_bytes = self.code_bits.finish();
        let unpred_bytes = self.bufs.unpred.finish();
        let ((bytes, stats, deflate_nanos), write_nanos) = {
            let payload = &mut self.payload;
            let entropy = &mut self.entropy;
            let sink_ref = sink.as_deref();
            timed(tele, || {
                write_fused_archive(
                    &meta,
                    shape.dims(),
                    true,
                    None,
                    values.len() as u64,
                    code_bytes,
                    unpred_bytes,
                    payload,
                    entropy,
                    sink_ref,
                )
            })
        };
        if let Some(sink) = sink.as_deref() {
            sink.span(
                Stage::PredictQuantize,
                scan_nanos,
                std::mem::size_of_val(values) as u64,
            );
            sink.span(
                Stage::EntropyEncode,
                write_nanos.saturating_sub(deflate_nanos),
                stats.huffman_bytes as u64,
            );
            sink.counter(Counter::FusedDemotions, demoted as u64);
            let mut extra = EncodeExtra::from_lengths(codec.lengths());
            extra.code_stream_bits = (code_bytes.len() as u64) * 8;
            emit_band(
                sink,
                self.band_index,
                &stats,
                Some(&extra),
                self.planned_bits_per_value,
            );
        }
        self.band_index += 1;
        Ok(Some((bytes, stats)))
    }

    /// The predict→quantize half only, as an owned [`QuantizedBand`] for
    /// staged cross-band drivers (the shared-table merge). Runs through the
    /// session's cached kernel.
    ///
    /// # Errors
    /// Same conditions as [`CodecSession::compress_slice`].
    pub fn quantize(&mut self, values: &[T], shape: &Shape) -> Result<QuantizedBand> {
        let config = self.active_config()?;
        let sink = self.active_sink();
        let tele = sink.is_some();
        let ki = self.kernel_index(config.layers, shape);
        let (band, nanos) = {
            let kernel = &mut self.kernels[ki];
            let s = sink.as_deref();
            timed(tele, || {
                config.validate().and_then(|()| {
                    quantize_validated_impl(values, shape, &config, kernel, false, s)
                })
            })
        };
        if let Some(sink) = sink.as_deref() {
            sink.span(
                Stage::PredictQuantize,
                nanos,
                std::mem::size_of_val(values) as u64,
            );
        }
        band
    }

    /// Entropy-codes a quantized band (§IV) under a per-band or shared
    /// Huffman table.
    pub fn encode(
        &mut self,
        band: &QuantizedBand,
        table: HuffmanTable<'_>,
    ) -> (Vec<u8>, CompressionStats) {
        let sink = self.active_sink();
        let (bytes, stats, extra) =
            encode_quantized_sink(band, table, &mut self.entropy, sink.as_deref());
        if let Some(sink) = sink.as_deref() {
            emit_band(
                sink,
                self.band_index,
                &stats,
                extra.as_ref(),
                self.planned_bits_per_value,
            );
        }
        self.band_index += 1;
        (bytes, stats)
    }

    /// Decompresses a self-contained archive through the session's cached
    /// kernels and decode scratch: sizes the output from the header, then
    /// [`CodecSession::decompress_into`] it. Version-2 shared-stream bands
    /// need [`CodecSession::decompress_shared`].
    ///
    /// Decoding is fused (symbols pull straight into row reconstruction;
    /// see [`crate::oracle::decompress_staged`] for the staged oracle), and in
    /// steady state — same grid family, same producer table — allocates
    /// nothing but the output tensor: the row scratch, the codec cache and
    /// its decode LUT, and the DEFLATE inflater with its output buffers for
    /// post-passed and escape-LZ bands all live in the session.
    pub fn decompress(&mut self, bytes: &[u8]) -> Result<Tensor<T>> {
        self.decode_with(bytes, None, |dims| Tensor::full(dims, T::from_f64(0.0)))
    }

    /// Decompresses a self-contained archive into `out`, the caller's
    /// row-major buffer for the whole grid.
    ///
    /// `out` must hold exactly the element count the archive header
    /// declares. Its prior contents are never read: every point is written
    /// before any later prediction reads it, so a reused buffer needs no
    /// clearing. Once warm — same grid family, same producer table — the
    /// call allocates nothing.
    ///
    /// # Errors
    /// [`SzError::OutputLength`] when `out` has the wrong length,
    /// [`SzError::WrongType`] for an archive of the other scalar type, and
    /// [`SzError::Corrupt`] for malformed, truncated or (under a verifying
    /// [`DecodePolicy`]) checksum-failing archives. On error `out` holds
    /// unspecified values.
    pub fn decompress_into(&mut self, bytes: &[u8], out: &mut [T]) -> Result<()> {
        self.decode_with(bytes, None, |_| out).map(drop)
    }

    /// Decompresses a band archive whose Huffman table may live in its
    /// container: version-2 bands decode through `codec`, self-contained
    /// archives ignore it. Fused like [`CodecSession::decompress`].
    pub fn decompress_shared(&mut self, bytes: &[u8], codec: &HuffmanCodec) -> Result<Tensor<T>> {
        self.decode_with(bytes, Some(codec), |dims| {
            Tensor::full(dims, T::from_f64(0.0))
        })
    }

    /// [`CodecSession::decompress_into`] for a band archive whose Huffman
    /// table may live in its container (see
    /// [`CodecSession::decompress_shared`]); same contract on `out`.
    ///
    /// # Errors
    /// As [`CodecSession::decompress_into`].
    pub fn decompress_shared_into(
        &mut self,
        bytes: &[u8],
        codec: &HuffmanCodec,
        out: &mut [T],
    ) -> Result<()> {
        self.decode_with(bytes, Some(codec), |_| out).map(drop)
    }

    /// The decode behind the four entry points above: the header is parsed
    /// and checked once, `out` picks the buffer from its dims, and the
    /// session's kernels and scratch decode into it.
    fn decode_with<O: AsMut<[T]>>(
        &mut self,
        bytes: &[u8],
        codec: Option<&HuffmanCodec>,
        out: impl FnOnce(&[usize]) -> O,
    ) -> Result<O> {
        let sink = self.active_sink();
        decompress_cached(
            bytes,
            codec,
            &mut self.kernels,
            &mut self.decode,
            self.decode_policy,
            sink.as_deref(),
            out,
        )
    }
}

/// Folds a band's [`CompressionStats`] (plus the encoder's table/code-stream
/// breakdown when available) into one [`BandRecord`] and hands it to the
/// sink. Shared by every compressing entry point so the per-band telemetry
/// schema cannot drift between the staged, fused, and split quantize/encode
/// paths.
fn emit_band(
    sink: &dyn TelemetrySink,
    index: u64,
    stats: &CompressionStats,
    extra: Option<&EncodeExtra>,
    estimate: Option<f64>,
) {
    let mut rec = BandRecord::new(index);
    rec.points = stats.total as u64;
    rec.hits = stats.predictable as u64;
    rec.escapes = (stats.total - stats.predictable) as u64;
    rec.layers = stats.layers as u32;
    rec.interval_bits = stats.interval_bits;
    rec.escape_stream_bits = (stats.unpredictable_bytes as u64) * 8;
    rec.archive_bytes = stats.compressed_bytes as u64;
    if let Some(extra) = extra {
        rec.code_stream_bits = extra.code_stream_bits;
        rec.table_bytes = extra.table_bytes;
        rec.table_symbols = extra.table_symbols;
        rec.table_depth = extra.table_depth;
    }
    if let Some(estimate) = estimate {
        rec.estimated_bits_per_value = estimate;
    }
    sink.band(&rec);
}

/// One fused band scan, shared by the table-reuse and shared-table entry
/// points so buffer resets, visitor wiring, and meta assembly cannot
/// diverge: resets the quantize buffers and `code_bits`, scans `values`
/// under `codec` (codes streamed into `code_bits`, escape bits into
/// `bufs.unpred`), and returns the band's meta plus its demotion count —
/// or `None` on a [`TableMiss`] abort, with all partial buffer state
/// discarded by the caller's next reset.
#[allow(clippy::too_many_arguments)]
fn run_fused_scan<T: ScalarFloat>(
    kernel: &mut ScanKernel,
    values: &[T],
    shape: &Shape,
    config: &Config,
    eb: f64,
    range: f64,
    bits: u32,
    codec: &HuffmanCodec,
    bufs: &mut QuantBufs,
    recon: &mut Vec<T>,
    code_bits: &mut BitWriter,
) -> Option<(BandMeta, usize)> {
    bufs.reset();
    code_bits.clear();
    recon.clear();
    recon.resize(values.len(), T::from_f64(0.0));
    let mut visitor = FusedRowQuantizer {
        values,
        quantizer: Quantizer::new(eb, bits),
        unpred: UnpredictableCodec::new(eb),
        eb,
        codec,
        lengths: codec.lengths(),
        code_bits,
        unpred_bits: &mut bufs.unpred,
        group_codes: &mut bufs.codes,
        start: 0,
        predictable: 0,
        demoted: 0,
        demote_cap: values.len() >> DEMOTE_CAP_SHIFT,
    };
    match kernel.scan_rows(shape, recon, &mut visitor) {
        Ok(()) => Some((
            BandMeta {
                type_tag: T::TYPE_TAG,
                layers: config.layers,
                interval_bits: bits,
                decorrelate: false,
                lossless_pass: config.lossless_pass,
                escape_lz: config.escape_lz,
                eb,
                range,
                predictable: visitor.predictable,
            },
            visitor.demoted,
        )),
        Err(TableMiss) => None,
    }
}

/// The fused wavefront visitor: quantization decisions identical to the
/// staged [`RowQuantizer`](crate::compress) path, but each group's codes
/// are Huffman-encoded into `code_bits` at `end_group`, in scan order.
///
/// Whether the table has a codeword for a code is decided per point, inline,
/// because it changes the reconstruction: a code the table lacks is
/// **demoted to an escape** — code 0 plus the binary-representation bits,
/// exactly what the decoder expects, so the bound holds with no rescan.
/// Only when demotions pass `demote_cap` (the distribution has structurally
/// outgrown the table, and escapes cost 15–30 bits each) does the scan
/// abort with [`TableMiss`] and the caller re-run the band staged.
struct FusedRowQuantizer<'a, T: ScalarFloat> {
    values: &'a [T],
    quantizer: Quantizer,
    unpred: UnpredictableCodec,
    eb: f64,
    codec: &'a HuffmanCodec,
    /// The codec's code lengths: a zero length means no codeword.
    lengths: &'a [u32],
    code_bits: &'a mut BitWriter,
    unpred_bits: &'a mut BitWriter,
    /// The open group's codes, indexed from `start`.
    group_codes: &'a mut Vec<u32>,
    start: usize,
    predictable: usize,
    /// Hits demoted to escapes because the table had no codeword.
    demoted: usize,
    /// Demotion budget; crossing it aborts the fused scan.
    demote_cap: usize,
}

impl<T: ScalarFloat> RowVisitor<T> for FusedRowQuantizer<'_, T> {
    type Error = TableMiss;

    fn begin_group(&mut self, start: usize, len: usize) -> std::result::Result<(), TableMiss> {
        self.start = start;
        self.group_codes.clear();
        self.group_codes.resize(len, 0);
        Ok(())
    }

    #[inline(always)]
    fn point(&mut self, flat: usize, pred: f64) -> T {
        let value = self.values[flat];
        if let Some((code, r)) = self.quantizer.quantize_narrowed(value, pred, self.eb) {
            if self.lengths.get(code as usize).is_some_and(|&l| l > 0) {
                self.group_codes[flat - self.start] = code;
                return r;
            }
            self.demoted += 1;
        }
        // The code stays 0 from `begin_group`.
        self.unpred.reconstruction(value)
    }

    fn end_group(&mut self, start: usize, len: usize) -> std::result::Result<(), TableMiss> {
        if self.demoted > self.demote_cap {
            return Err(TableMiss);
        }
        for &code in self.group_codes.iter() {
            // Only the escape code can lack a codeword here.
            if !self.codec.try_encode(code, self.code_bits) {
                return Err(TableMiss);
            }
        }
        self.predictable += encode_group_escapes(
            self.group_codes,
            &self.values[start..start + len],
            &self.unpred,
            self.unpred_bits,
        );
        Ok(())
    }
}

/// Assembles a band archive from fused-encoded parts, byte-compatible with
/// [`encode_parts`]' layout: for self-contained archives the Huffman block
/// is `used · count · RLE-lengths · code bits`, for shared-stream archives
/// just `count · code bits`. The section is length-prefixed arithmetically,
/// so nothing is staged unless the DEFLATE pass needs a contiguous payload.
/// `meta.escape_lz` arms the same escape trial as the staged
/// writer; the trailer's payload CRC stays over the raw escape bytes.
/// Besides the archive and its stats, returns the nanoseconds spent in
/// DEFLATE (0 without a sink): the writer records them as `deflate` spans,
/// so the caller's `entropy_encode` span leaves them out.
#[allow(clippy::too_many_arguments)]
fn write_fused_archive(
    meta: &BandMeta,
    dims: &[usize],
    shared: bool,
    table: Option<(&[u8], u64)>,
    count: u64,
    code_bytes: &[u8],
    unpred_bytes: &[u8],
    payload_scratch: &mut ByteWriter,
    entropy: &mut EntropyScratch,
    sink: Option<&dyn TelemetrySink>,
) -> (Vec<u8>, CompressionStats, u64) {
    let (esc_commit, mut deflate_nanos) = timed(sink.is_some(), || {
        meta.escape_lz && escape_lz_trial(entropy, unpred_bytes, sink)
    });
    let version = band_version(shared, esc_commit);
    let EntropyScratch { deflater, escape } = entropy;
    let escape_section: &[u8] = if esc_commit { escape } else { unpred_bytes };
    let table_len = table.map_or(0, |(rle, used)| ByteWriter::varint_len(used) + rle.len());
    let block_len = table_len + ByteWriter::varint_len(count) + code_bytes.len();
    // Writes the payload sections and returns the v3 section CRCs, hashed
    // in place over the bytes just written — no staging copy, so the fused
    // path's 1-alloc steady state survives the checksummed framing. The
    // payload CRC covers the raw escape stream even when the section is
    // stored deflated, so decode verifies the inflation end to end.
    let write_payload = |w: &mut ByteWriter| -> (u32, u32) {
        w.write_varint(block_len as u64);
        let block_start = w.len();
        if let Some((_, used)) = table {
            w.write_varint(used);
        }
        w.write_varint(count);
        if let Some((rle, _)) = table {
            w.write_bytes(rle);
        }
        w.write_bytes(code_bytes);
        let table_crc = szr_deflate::crc32(&w.as_bytes()[block_start..]);
        w.write_len_prefixed(escape_section);
        (table_crc, szr_deflate::crc32(unpred_bytes))
    };

    let mut out =
        ByteWriter::with_capacity(64 + 10 * dims.len() + block_len + escape_section.len() + 24);
    write_band_header(&mut out, version, meta, dims);
    let (table_crc, payload_crc) = if meta.lossless_pass {
        payload_scratch.clear();
        let crcs = write_payload(payload_scratch);
        deflate_nanos += write_post_passed(&mut out, payload_scratch.as_bytes(), deflater, sink);
        crcs
    } else {
        out.write_u8(0);
        write_payload(&mut out)
    };
    out.write_u32(table_crc);
    out.write_u32(payload_crc);
    let bytes = out.into_bytes();

    let stats = CompressionStats {
        total: count as usize,
        predictable: meta.predictable,
        eb_abs: meta.eb,
        range: meta.range,
        interval_bits: meta.interval_bits,
        layers: meta.layers,
        compressed_bytes: bytes.len(),
        huffman_bytes: block_len,
        unpredictable_bytes: unpred_bytes.len(),
    };
    (bytes, stats, deflate_nanos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::VERSION_ESCLZ;
    use crate::{compress_slice_with_stats, decompress, Config, ErrorBound};

    fn wavy(rows: usize, cols: usize) -> Tensor<f32> {
        Tensor::from_fn([rows, cols], |ix| {
            ((ix[0] as f32) * 0.07).sin() * 5.0 + ((ix[1] as f32) * 0.11).cos()
        })
    }

    #[test]
    fn staged_session_matches_free_functions_byte_for_byte() {
        let config = Config::new(ErrorBound::Relative(1e-4));
        let mut session = CodecSession::<f32>::new(config).unwrap();
        for rows in [30usize, 64, 17] {
            let data = wavy(rows, 48);
            let (free_bytes, free_stats) =
                compress_slice_with_stats(data.as_slice(), data.shape(), &config).unwrap();
            let (session_bytes, session_stats) = session.compress_with_stats(&data).unwrap();
            assert_eq!(session_bytes, free_bytes, "rows {rows}");
            assert_eq!(session_stats, free_stats, "rows {rows}");
        }
    }

    #[test]
    fn session_roundtrips_through_its_own_decoder() {
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let mut session = CodecSession::<f32>::new(config).unwrap();
        let data = wavy(50, 40);
        let bytes = session.compress(&data).unwrap();
        let out = session.decompress(&bytes).unwrap();
        assert_eq!(out.dims(), data.dims());
        for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
            assert!((a as f64 - b as f64).abs() <= 1e-3);
        }
    }

    #[test]
    fn fused_mode_stays_within_bound_and_self_describes() {
        let eb = 1e-3;
        let config = Config::new(ErrorBound::Absolute(eb));
        let mut session = CodecSession::<f32>::new(config).unwrap();
        session.set_table_reuse(true);
        // Band 1 staged (builds the table), bands 2.. fused.
        for step in 0..4 {
            let data = Tensor::from_fn([40, 64], |ix| {
                ((ix[0] as f32) * 0.07 + step as f32 * 0.3).sin() * 5.0
                    + ((ix[1] as f32) * 0.11).cos()
            });
            let (bytes, stats) = session.compress_with_stats(&data).unwrap();
            assert_eq!(stats.total, data.len());
            // Self-describing: plain decompress, no session, no codec.
            let out: Tensor<f32> = decompress(&bytes).unwrap();
            for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
                assert!((a as f64 - b as f64).abs() <= eb, "step {step}");
            }
        }
    }

    #[test]
    fn fused_mode_carries_escape_lz_framing() {
        // Escape-heavy periodic data: the trial wins on every band, so the
        // staged seed band *and* the fused table-reuse bands that follow
        // must all emit v5 framing and still decode codec-free.
        const ALPHABET: [f32; 5] = [0.0, 1.0e8, -3.0e7, 7.0e6, -9.0e5];
        let eb = 1e-3;
        let config = Config::new(ErrorBound::Absolute(eb)).with_escape_lz();
        let mut session = CodecSession::<f32>::new(config).unwrap();
        session.set_table_reuse(true);
        for step in 0..3 {
            let data = Tensor::from_fn([40, 64], |ix| ALPHABET[(ix[0] * 64 + ix[1] + step) % 5]);
            let bytes = session.compress(&data).unwrap();
            assert_eq!(bytes[4], VERSION_ESCLZ, "step {step}");
            let out: Tensor<f32> = decompress(&bytes).unwrap();
            for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
                assert!((a as f64 - b as f64).abs() <= eb, "step {step}");
            }
        }
    }

    #[test]
    fn fused_mode_survives_distribution_shifts_via_rebuild() {
        // Band 2's codes explode out of band 1's symbol range: the fused
        // scan must abort, fall back staged, and keep the bound.
        let eb = 1e-4;
        let config = Config::new(ErrorBound::Absolute(eb));
        let mut session = CodecSession::<f32>::new(config).unwrap();
        session.set_table_reuse(true);
        let smooth = Tensor::from_fn([32, 64], |ix| (ix[0] + ix[1]) as f32 * 1e-5);
        let rough = Tensor::from_fn([32, 64], |ix| {
            let h = (ix[0] as u64 * 64 + ix[1] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 48) % 1000) as f32 * 0.01
        });
        for data in [&smooth, &rough, &smooth] {
            let bytes = session.compress(data).unwrap();
            let out: Tensor<f32> = decompress(&bytes).unwrap();
            for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
                assert!((a as f64 - b as f64).abs() <= eb);
            }
        }
    }

    #[test]
    fn shared_fused_band_decodes_through_the_shared_entry_point() {
        let config = Config::new(ErrorBound::Absolute(1e-4));
        let data = wavy(48, 32);
        let mut session = CodecSession::<f32>::new(config).unwrap();
        // Table from the band's own histogram (full coverage by smoothing).
        let band = session.quantize(data.as_slice(), data.shape()).unwrap();
        let codec = covering_codec(band.histogram());
        let (bytes, stats) = session
            .compress_slice_shared_fused(data.as_slice(), data.shape(), &codec)
            .unwrap()
            .expect("full-coverage table cannot miss");
        assert_eq!(stats.total, data.len());
        // Version-2: refuses codec-free decode, decodes with the codec.
        assert!(crate::inspect(&bytes).unwrap().shared_stream);
        assert!(session.decompress(&bytes).is_err());
        let out = session.decompress_shared(&bytes, &codec).unwrap();
        for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
            assert!((a as f64 - b as f64).abs() <= 1e-4);
        }
    }

    #[test]
    fn shared_fused_gives_up_when_the_table_cannot_cover_the_band() {
        // A two-symbol codec cannot carry a real band's code spread: the
        // demotion cap trips and the fused attempt reports None (the
        // chunked driver then encodes the band self-contained).
        let config = Config::new(ErrorBound::Absolute(1e-4)).with_interval_bits(8);
        let data = wavy(48, 32);
        let mut session = CodecSession::<f32>::new(config).unwrap();
        let tiny = HuffmanCodec::from_frequencies(&[1, 1]);
        assert!(session
            .compress_slice_shared_fused(data.as_slice(), data.shape(), &tiny)
            .unwrap()
            .is_none());
        // A codec with no escape codeword is rejected upfront.
        let no_escape = HuffmanCodec::from_frequencies(&[0, 1, 1]);
        assert!(session
            .compress_slice_shared_fused(data.as_slice(), data.shape(), &no_escape)
            .unwrap()
            .is_none());
    }

    #[test]
    fn decompress_into_never_reads_the_buffer_it_fills() {
        // Specialized 2-D and 3-D kernels, the generic 4-D walker, both
        // layer counts and the staged decorrelation path: a buffer full of
        // NaN and a zeroed one decode to the same bits as `decompress`.
        let eb = ErrorBound::Absolute(1e-3);
        let grid = wavy(37, 53);
        let cube = Tensor::from_fn([6, 7, 9], |ix| {
            (ix[0] * 63 + ix[1] * 9 + ix[2]) as f32 * 0.1
        });
        let hyper = Tensor::from_fn([3, 4, 5, 6], |ix| (ix[0] + ix[1] * ix[2] + ix[3]) as f32);
        let cases = [
            (&grid, Config::new(eb)),
            (&grid, Config::new(eb).with_layers(2)),
            (&grid, Config::new(eb).with_decorrelation()),
            (&cube, Config::new(eb).with_layers(2)),
            (&hyper, Config::new(eb)),
        ];
        for (data, config) in cases {
            let mut session = CodecSession::<f32>::new(config).unwrap();
            let bytes = session.compress(data).unwrap();
            let want = session.decompress(&bytes).unwrap();
            for fill in [0.0, f32::NAN] {
                let mut out = vec![fill; data.len()];
                session.decompress_into(&bytes, &mut out).unwrap();
                assert!(
                    out.iter()
                        .zip(want.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{config:?}, fill {fill}"
                );
            }
        }
    }

    #[test]
    fn decompress_into_a_wrong_length_buffer_is_a_typed_error() {
        let data = wavy(20, 30);
        let mut session =
            CodecSession::<f32>::new(Config::new(ErrorBound::Absolute(1e-3))).unwrap();
        let bytes = session.compress(&data).unwrap();
        for len in [0, 599, 601] {
            let mut out = vec![0f32; len];
            assert_eq!(
                session.decompress_into(&bytes, &mut out),
                Err(SzError::OutputLength {
                    expected: 600,
                    found: len
                })
            );
        }
        // The shared-table twin holds the same contract.
        let band = session.quantize(data.as_slice(), data.shape()).unwrap();
        let codec = covering_codec(band.histogram());
        let (shared, _) = session
            .compress_slice_shared_fused(data.as_slice(), data.shape(), &codec)
            .unwrap()
            .unwrap();
        let mut short = vec![0f32; 10];
        assert!(matches!(
            session.decompress_shared_into(&shared, &codec, &mut short),
            Err(SzError::OutputLength {
                expected: 600,
                found: 10
            })
        ));
        let mut out = vec![0f32; 600];
        session
            .decompress_shared_into(&shared, &codec, &mut out)
            .unwrap();
        assert_eq!(
            out,
            session
                .decompress_shared(&shared, &codec)
                .unwrap()
                .as_slice()
        );
    }

    #[test]
    fn decoder_session_refuses_compression_until_armed() {
        let data = wavy(16, 16);
        let mut session = CodecSession::<f32>::decoder();
        assert!(session.compress(&data).is_err());
        session
            .set_config(Config::new(ErrorBound::Absolute(1e-3)))
            .unwrap();
        assert!(session.compress(&data).is_ok());
    }

    #[test]
    fn one_session_serves_mixed_shapes_and_layer_counts() {
        let mut session =
            CodecSession::<f64>::new(Config::new(ErrorBound::Absolute(1e-4))).unwrap();
        let a = Tensor::from_fn([20, 30], |ix| (ix[0] * 30 + ix[1]) as f64 * 0.01);
        let b = Tensor::from_fn([500], |ix| (ix[0] as f64 * 0.02).sin());
        let c = Tensor::from_fn([8, 9, 10], |ix| (ix[0] + ix[1] + ix[2]) as f64 * 0.1);
        for data in [&a, &b, &c] {
            let bytes = session.compress(data).unwrap();
            let out = session.decompress(&bytes).unwrap();
            assert_eq!(out.dims(), data.dims());
        }
        session
            .set_config(Config::new(ErrorBound::Absolute(1e-4)).with_layers(2))
            .unwrap();
        let bytes = session.compress(&a).unwrap();
        let out = session.decompress(&bytes).unwrap();
        for (&x, &y) in a.as_slice().iter().zip(out.as_slice()) {
            assert!((x - y).abs() <= 1e-4);
        }
    }
}
