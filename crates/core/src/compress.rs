//! The SZ-1.4 compression pipeline (Algorithm 1 of the paper).

use crate::config::{Config, IntervalMode};
use crate::float::ScalarFloat;
use crate::kernel::ScanKernel;
use crate::quant::{choose_interval_bits_counted, Quantizer};
use crate::unpred::UnpredictableCodec;
use crate::Result;
use szr_bitstream::{BitWriter, ByteReader, ByteWriter};
use szr_huffman::HuffmanCodec;
use szr_telemetry::{timed, Counter, Stage, TelemetrySink};
use szr_tensor::Tensor;

/// Archive magic bytes ("SZR1").
pub(crate) const MAGIC: [u8; 4] = *b"SZR1";
/// Current archive format version (self-contained: embedded Huffman table).
///
/// The wire layout is stable, but reconstruction replays the compressor's
/// floating-point prediction order, which is a property of the build, not
/// the format: PR 4 canonicalized Eq. 11 term accumulation (finished-row
/// terms first), perturbing predictions by ulps relative to earlier
/// builds. Decode archives with the build that wrote them when bit-exact
/// reproduction matters; the error bound itself is validated against the
/// writer's reconstruction, so a cross-build decode can drift past `eb` by
/// the accumulated rounding difference in pathological cases.
pub(crate) const VERSION: u8 = 1;
/// Version tag for band archives whose Huffman table lives *outside* the
/// archive — the chunked driver shares one table across bands. Such an
/// archive decodes only through [`crate::CodecSession::decompress_shared`]
/// with the owning container's codec.
pub(crate) const VERSION_SHARED: u8 = 2;
/// Checksummed self-contained archive: version 1's layout plus a CRC-32
/// after the header fields and a `table CRC · payload CRC` trailer. This is
/// what both writers emit today; versions 1/2 remain fully decodable.
pub(crate) const VERSION_V3: u8 = 3;
/// Checksummed shared-table archive (version 2 + the version 3 checksums).
pub(crate) const VERSION_SHARED_V3: u8 = 4;
/// Escape-LZ self-contained archive: version 3's layout with the escape
/// (unpredictable-value) section stored DEFLATE-compressed. Emitted only
/// when [`crate::Config::escape_lz`] is set *and* the DEFLATE trial
/// actually shrank the stream — losing trials fall back to version 3
/// byte-identically. The payload CRC in the trailer stays over the *raw*
/// escape bytes, so integrity verification covers the inflation too.
pub(crate) const VERSION_ESCLZ: u8 = 5;
/// Escape-LZ shared-table archive (version 4 + the compressed escape
/// section).
pub(crate) const VERSION_SHARED_ESCLZ: u8 = 6;

/// The version byte a band writer emits. Writers always use the v3
/// checksummed framing; the byte records whether the Huffman table lives in
/// the container (`shared`) and whether the escape-LZ trial won
/// (`escape_lz`).
pub(crate) fn band_version(shared: bool, escape_lz: bool) -> u8 {
    match (shared, escape_lz) {
        (false, false) => VERSION_V3,
        (false, true) => VERSION_ESCLZ,
        (true, false) => VERSION_SHARED_V3,
        (true, true) => VERSION_SHARED_ESCLZ,
    }
}

/// The framing a band version byte stands for, read once by the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BandFraming {
    /// The Huffman table lives in the owning container (v2/v4/v6).
    pub shared: bool,
    /// Section checksums follow the header and the payload (v3 and later).
    pub checksummed: bool,
    /// The escape section is stored DEFLATE-compressed (v5/v6).
    pub escape_lz: bool,
}

impl BandFraming {
    /// The flags of a known version byte, `None` for any other byte.
    pub fn parse(version: u8) -> Option<Self> {
        let (shared, escape_lz) = match version {
            VERSION | VERSION_V3 => (false, false),
            VERSION_SHARED | VERSION_SHARED_V3 => (true, false),
            VERSION_ESCLZ => (false, true),
            VERSION_SHARED_ESCLZ => (true, true),
            _ => return None,
        };
        Some(Self {
            shared,
            checksummed: version >= VERSION_V3,
            escape_lz,
        })
    }
}

/// Per-run statistics reported alongside the archive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Total points processed.
    pub total: usize,
    /// Points that hit a quantization interval (code ≠ 0).
    pub predictable: usize,
    /// Effective absolute error bound used.
    pub eb_abs: f64,
    /// Value range of the input.
    pub range: f64,
    /// `m`: the archive uses `2^m − 1` intervals.
    pub interval_bits: u32,
    /// Prediction layers used.
    pub layers: usize,
    /// Total archive size in bytes.
    pub compressed_bytes: usize,
    /// Bytes spent on the Huffman block (table + codes).
    pub huffman_bytes: usize,
    /// Bytes spent on unpredictable values.
    pub unpredictable_bytes: usize,
}

impl CompressionStats {
    /// The paper's prediction hitting rate `R_PH`.
    pub fn hit_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.predictable as f64 / self.total as f64
    }

    /// Compression factor versus the uncompressed representation.
    ///
    /// Returns 0 for a zero-byte archive (unreachable through [`compress`],
    /// but stats can be aggregated or constructed by hand) instead of
    /// dividing by zero.
    pub fn compression_factor<T: ScalarFloat>(&self) -> f64 {
        if self.compressed_bytes == 0 {
            return 0.0;
        }
        (self.total * (T::BITS as usize / 8)) as f64 / self.compressed_bytes as f64
    }
}

/// Compresses a tensor under the given configuration.
///
/// See [`compress_with_stats`] for the variant that also reports hit rates
/// and section sizes.
pub fn compress<T: ScalarFloat>(data: &Tensor<T>, config: &Config) -> Result<Vec<u8>> {
    compress_with_stats(data, config).map(|(bytes, _)| bytes)
}

/// Compresses a tensor, returning the archive and per-run statistics.
pub fn compress_with_stats<T: ScalarFloat>(
    data: &Tensor<T>,
    config: &Config,
) -> Result<(Vec<u8>, CompressionStats)> {
    compress_slice_with_stats(data.as_slice(), data.shape(), config)
}

/// Compresses a flat row-major slice interpreted under `shape` — the
/// zero-copy entry point used by the chunked parallel driver.
///
/// # Errors
/// Returns [`crate::SzError::InvalidConfig`] for unusable configurations or
/// a shape/slice length mismatch. Compression itself cannot fail: every
/// point either quantizes or is stored via binary-representation analysis.
pub fn compress_slice_with_stats<T: ScalarFloat>(
    values: &[T],
    shape: &szr_tensor::Shape,
    config: &Config,
) -> Result<(Vec<u8>, CompressionStats)> {
    config.validate()?;
    let mut kernel = ScanKernel::for_shape(config.layers, shape);
    compress_validated(values, shape, config, &mut kernel)
}

/// The pipeline body through a caller-provided kernel; `config` has already
/// been validated by the caller (exactly once per public entry point).
/// Fails with [`crate::SzError::InvalidConfig`] when the kernel's layer
/// count or stride family does not match `config`/`shape`.
pub(crate) fn compress_validated<T: ScalarFloat>(
    values: &[T],
    shape: &szr_tensor::Shape,
    config: &Config,
    kernel: &mut ScanKernel,
) -> Result<(Vec<u8>, CompressionStats)> {
    let band = quantize_validated_impl(values, shape, config, kernel, false, None)?;
    let (bytes, stats, _) = encode_quantized_sink(
        &band,
        HuffmanTable::PerBand,
        &mut EntropyScratch::default(),
        None,
    );
    Ok((bytes, stats))
}

/// The predict→quantize half of the pipeline, detached from entropy coding.
///
/// Holds everything the entropy stage needs — the quantization-code stream,
/// the binary-representation escapes, and the header fields — so a
/// multi-band driver can histogram codes *across* bands and entropy-code
/// them under one shared Huffman table (see [`crate::CodecSession::encode`]).
pub struct QuantizedBand {
    meta: BandMeta,
    dims: Vec<usize>,
    codes: Vec<u32>,
    unpred: Vec<u8>,
    /// Code histogram over the occupied range `0..=max_code`, computed once
    /// on first use and then shared by every consumer — the per-band encode,
    /// the chunked driver's shared-table merge, and size comparisons — so
    /// none of them re-scans `codes`.
    hist: std::sync::OnceLock<Vec<u64>>,
}

impl QuantizedBand {
    /// Quantization codes, one per point (0 = unpredictable escape).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Entropy-coder alphabet size (`2^m`: intervals + escape code).
    pub fn alphabet(&self) -> usize {
        1usize << self.meta.interval_bits
    }

    /// The `m` this band quantized with (`2^m − 1` intervals) — what the
    /// adaptive scheme chose, if it ran. Multi-band drivers pin later bands
    /// to this so one shared table serves aligned code distributions.
    pub fn interval_bits(&self) -> u32 {
        self.meta.interval_bits
    }

    /// Number of points in the band.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the band holds no points (unreachable through the public
    /// quantize entry points, which reject empty shapes).
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Code histogram over the occupied symbol range `0..=max_code`
    /// (`hist[0]` counts escapes), computed once and cached. Multi-band
    /// drivers merge these instead of re-scanning [`Self::codes`] per use.
    pub fn histogram(&self) -> &[u64] {
        self.hist.get_or_init(|| {
            let mut freqs = Vec::new();
            occupied_histogram(&self.codes, &mut freqs);
            freqs.shrink_to_fit();
            freqs
        })
    }

    /// The band's serialized binary-representation escape stream — what the
    /// escape-LZ trial prices (see [`crate::escape_lz_trial_ratio`]).
    pub fn unpred_bytes(&self) -> &[u8] {
        &self.unpred
    }
}

/// Counts `codes` into `freqs` (cleared and resized here) over exactly the
/// occupied range `0..=max_code` — the one definition of the convention
/// `szr_huffman::compress_u32_from_hist` expects, shared by the band cache
/// above and the session's reusable scratch.
///
/// Four interleaved tables keep a run of one code from serializing on a
/// single counter. They are used only when they take no more slots than
/// there are codes, so a sparse stream over a huge alphabet stays one
/// table.
pub(crate) fn occupied_histogram(codes: &[u32], freqs: &mut Vec<u64>) {
    let used = codes.iter().max().map_or(0, |&m| m as usize + 1);
    freqs.clear();
    if 4 * used > codes.len() {
        freqs.resize(used, 0);
        for &c in codes {
            freqs[c as usize] += 1;
        }
        return;
    }
    freqs.resize(4 * used, 0);
    let (t0, rest) = freqs.split_at_mut(used);
    let (t1, rest) = rest.split_at_mut(used);
    let (t2, t3) = rest.split_at_mut(used);
    let mut quads = codes.chunks_exact(4);
    for q in &mut quads {
        t0[q[0] as usize] += 1;
        t1[q[1] as usize] += 1;
        t2[q[2] as usize] += 1;
        t3[q[3] as usize] += 1;
    }
    for &c in quads.remainder() {
        t0[c as usize] += 1;
    }
    for (i, f) in t0.iter_mut().enumerate() {
        *f += t1[i] + t2[i] + t3[i];
    }
    freqs.truncate(used);
}

/// Header fields and per-run counters of one quantized band — everything
/// [`encode_parts`] needs besides the code/escape payloads, separated from
/// [`QuantizedBand`] so a session can quantize into reusable buffers
/// without assembling an owned band.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BandMeta {
    pub type_tag: u8,
    pub layers: usize,
    pub interval_bits: u32,
    pub decorrelate: bool,
    pub lossless_pass: bool,
    /// Escape-LZ *intent* (from [`Config::escape_lz`]): the encoder runs the
    /// DEFLATE trial and only the version byte records whether it won.
    pub escape_lz: bool,
    pub eb: f64,
    pub range: f64,
    pub predictable: usize,
}

/// Reusable destination buffers for the quantize stage: the code stream
/// (the fused path's per-group code scratch) and the escape bit stream. A
/// session owns one and recycles it across bands; the owned-band entry
/// points build a throwaway one per call.
#[derive(Default)]
pub(crate) struct QuantBufs {
    pub codes: Vec<u32>,
    pub unpred: BitWriter,
}

impl QuantBufs {
    pub fn reset(&mut self) {
        self.codes.clear();
        self.unpred.clear();
    }
}

/// The wavefront quantization visitor: each point's code is written at its
/// flat index, an escape's reconstruction is returned at once (it feeds
/// later predictions), and at `end_group` the group's escape bits are
/// serialized in row-major order — the order the decoder reads them. Hits
/// are counted per group too, so the per-point path carries no counter.
struct RowQuantizer<'a, T: ScalarFloat> {
    values: &'a [T],
    quantizer: Quantizer,
    unpred: UnpredictableCodec,
    eb: f64,
    bufs: &'a mut QuantBufs,
    predictable: usize,
}

impl<T: ScalarFloat> crate::kernel::RowVisitor<T> for RowQuantizer<'_, T> {
    type Error = std::convert::Infallible;

    fn begin_group(&mut self, start: usize, len: usize) -> std::result::Result<(), Self::Error> {
        debug_assert_eq!(self.bufs.codes.len(), start);
        self.bufs.codes.resize(start + len, 0);
        Ok(())
    }

    #[inline(always)]
    fn point(&mut self, flat: usize, pred: f64) -> T {
        let value = self.values[flat];
        match self.quantizer.quantize_narrowed(value, pred, self.eb) {
            Some((code, r)) => {
                self.bufs.codes[flat] = code;
                r
            }
            // The code stays 0 from `begin_group`.
            None => self.unpred.reconstruction(value),
        }
    }

    fn end_group(&mut self, start: usize, len: usize) -> std::result::Result<(), Self::Error> {
        let range = start..start + len;
        self.predictable += encode_group_escapes(
            &self.bufs.codes[range.clone()],
            &self.values[range],
            &self.unpred,
            &mut self.bufs.unpred,
        );
        Ok(())
    }
}

/// Writes the escape bits of one scan group — the values whose code is 0,
/// in row-major order — and returns the group's hit count.
pub(crate) fn encode_group_escapes<T: ScalarFloat>(
    codes: &[u32],
    values: &[T],
    unpred: &UnpredictableCodec,
    out: &mut BitWriter,
) -> usize {
    let escapes = count_escapes(codes);
    if escapes > 0 {
        for (&code, &value) in codes.iter().zip(values) {
            if code == 0 {
                unpred.encode(value, out);
            }
        }
    }
    codes.len() - escapes
}

/// Number of escape (zero) codes in a scan group: a branch-free count the
/// compiler vectorizes, so escape-free groups skip the escape walk cheaply.
/// It counts in `u32` lanes, as wide as the codes (a `usize` count widens
/// every compare), over chunks too short to overflow them.
#[inline]
pub(crate) fn count_escapes(codes: &[u32]) -> usize {
    codes
        .chunks(1 << 16)
        .map(|chunk| chunk.iter().map(|&c| u32::from(c == 0)).sum::<u32>() as usize)
        .sum()
}

/// Checks `values`/`shape`/`kernel` agreement and resolves the effective
/// bound — the head of every quantize variant. Returns `(range, eb)`.
pub(crate) fn resolve_range_eb<T: ScalarFloat>(
    values: &[T],
    shape: &szr_tensor::Shape,
    config: &Config,
    kernel: &ScanKernel,
) -> Result<(f64, f64)> {
    if values.len() != shape.len() {
        return Err(crate::SzError::InvalidConfig(
            "slice length does not match shape",
        ));
    }
    if kernel.layers() != config.layers || !kernel.matches(shape) {
        return Err(crate::SzError::InvalidConfig(
            "kernel does not match shape and config",
        ));
    }

    // Resolve the relative bound against the actual value range (Metric 1),
    // taken over the finite values: infinities and NaNs are carried
    // exactly, never priced.
    let range = szr_metrics::value_range(values);
    let eb = config.bound.effective(range);
    // Decorrelation quantizes on half-width intervals, and half the
    // smallest subnormal is zero.
    if config.decorrelate && eb / 2.0 == 0.0 {
        return Err(crate::SzError::InvalidConfig(
            "error bound too small to halve for decorrelation",
        ));
    }
    Ok((range, eb))
}

/// [`resolve_range_eb`] plus the interval-bits choice (running the §IV-B
/// sampler in adaptive mode) — the staged path's full parameter head.
/// Returns `(range, eb, interval_bits)`.
pub(crate) fn resolve_band_params<T: ScalarFloat>(
    values: &[T],
    shape: &szr_tensor::Shape,
    config: &Config,
    kernel: &mut ScanKernel,
    sink: Option<&dyn TelemetrySink>,
) -> Result<(f64, f64, u32)> {
    let (range, eb) = resolve_range_eb(values, shape, config, kernel)?;

    // Decorrelation mode quantizes on half-width intervals so the ±eb/2
    // dither keeps the total error within eb.
    let eb_q = if config.decorrelate { eb / 2.0 } else { eb };
    let bits = match config.intervals {
        IntervalMode::Fixed { bits } => bits,
        IntervalMode::Adaptive {
            theta,
            max_bits,
            sample_stride,
        } => {
            let (bits, iterations) = choose_interval_bits_counted(
                values,
                shape,
                kernel,
                eb_q,
                theta,
                sample_stride,
                max_bits,
            );
            if let Some(sink) = sink {
                sink.counter(Counter::IntervalSearchIterations, iterations);
            }
            bits
        }
    };
    Ok((range, eb, bits))
}

/// The quantize stage writing into caller-owned buffers — the body behind
/// both the owned-[`QuantizedBand`] entry points (throwaway buffers) and
/// [`crate::CodecSession`] (persistent buffers, allocation-free once warm).
#[allow(clippy::too_many_arguments)]
pub(crate) fn quantize_into<T: ScalarFloat>(
    values: &[T],
    shape: &szr_tensor::Shape,
    config: &Config,
    kernel: &mut ScanKernel,
    force_point_oracle: bool,
    bufs: &mut QuantBufs,
    recon: &mut Vec<T>,
    sink: Option<&dyn TelemetrySink>,
) -> Result<BandMeta> {
    let (range, eb, bits) = resolve_band_params(values, shape, config, kernel, sink)?;
    let eb_q = if config.decorrelate { eb / 2.0 } else { eb };
    let quantizer = Quantizer::new(eb_q, bits);
    let unpred = UnpredictableCodec::new(eb);

    bufs.reset();
    bufs.codes.reserve(values.len());
    recon.clear();
    recon.resize(values.len(), T::from_f64(0.0));

    // Scan stage: the kernel owns the predict->visit traversal; the visitor
    // quantizes and records. Reconstructed values are stored back into the
    // scan buffer, feeding later predictions so the decompressor sees
    // identical state. Decorrelation mode threads per-index dither through
    // the point visitor; everything else batches row at a time.
    let predictable = if config.decorrelate || force_point_oracle {
        let mut predictable = 0usize;
        let codes = &mut bufs.codes;
        let unpred_bits = &mut bufs.unpred;
        kernel.scan(shape, recon, |flat, pred| {
            let value = values[flat];
            let v64 = value.to_f64();
            // A quantization hit must survive narrowing to T: the stored
            // reconstruction is what the decompressor reproduces, so the
            // bound is checked on the narrowed value.
            let quantized = quantizer.quantize(v64, pred).and_then(|(code, r64)| {
                let r64 = if config.decorrelate {
                    r64 + crate::quant::dither_unit(flat) * eb
                } else {
                    r64
                };
                let r = T::from_f64(r64);
                if (v64 - r.to_f64()).abs() <= eb {
                    Some((code, r))
                } else {
                    None
                }
            });
            match quantized {
                Some((code, r)) => {
                    codes.push(code);
                    predictable += 1;
                    r
                }
                None => {
                    codes.push(0);
                    unpred.encode(value, unpred_bits)
                }
            }
        });
        predictable
    } else {
        let mut visitor = RowQuantizer {
            values,
            quantizer,
            unpred,
            eb,
            bufs,
            predictable: 0,
        };
        match kernel.scan_rows(shape, recon, &mut visitor) {
            Ok(()) => {}
            Err(e) => match e {},
        }
        visitor.predictable
    };

    Ok(BandMeta {
        type_tag: T::TYPE_TAG,
        layers: config.layers,
        interval_bits: bits,
        decorrelate: config.decorrelate,
        lossless_pass: config.lossless_pass,
        escape_lz: config.escape_lz,
        eb,
        range,
        predictable,
    })
}

/// Entropy-stage scratch: the reusable DEFLATE encoder (matcher state,
/// token buffer, splitter histograms, recycled output) plus the staging
/// buffer that holds a committed escape-LZ stream while the deflater is
/// reused for the payload post-pass. A [`crate::CodecSession`] owns one, so
/// its warm DEFLATE-path compressions allocate nothing here; the free
/// functions build a throwaway per call.
pub(crate) struct EntropyScratch {
    pub deflater: szr_deflate::Deflater,
    pub escape: Vec<u8>,
}

impl Default for EntropyScratch {
    fn default() -> Self {
        Self {
            deflater: szr_deflate::Deflater::new(),
            escape: Vec::new(),
        }
    }
}

/// Minimum escape-stream size worth an escape-LZ trial: below this the
/// DEFLATE framing overhead eats any win.
const ESCAPE_LZ_MIN_BYTES: usize = 64;
/// A full pass must be predicted to save at least `1 / DEFLATE_MIN_GAIN`
/// (2%) of the stream to run. The pass costs 30–60 ns per payload byte at
/// `Effort::Default`, and every decode then pays inflate too. On the medium
/// datasets the payloads fall on either side of a gap: 61 of 64 chunked
/// APS bands save under 2% (all under 3.5%, 0.76% in aggregate), a whole
/// APS field 2.3% and ATM FREQSH 0.16%, while every Hurricane band saves
/// 8.8% or more, a chunked FREQSH band about 5%, and ATM TS, SNOWHLND and
/// CDNUMC 24% or more.
const DEFLATE_MIN_GAIN: usize = 50;

/// Forwards one DEFLATE run's block/split/token counters to the sink.
pub(crate) fn report_deflate(sink: &dyn TelemetrySink, stats: szr_deflate::DeflateStats) {
    sink.counter(Counter::DeflateBlocks, stats.blocks);
    sink.counter(Counter::DeflateSplitBoundaries, stats.split_boundaries);
    sink.counter(Counter::DeflateMatchTokens, stats.match_tokens);
    sink.counter(Counter::DeflateLiteralTokens, stats.literal_tokens);
}

/// The DEFLATE trial: whether a full pass over `data` is predicted to save
/// at least 2% of it, by [`szr_deflate::Deflater::estimate_saving`] (a
/// literal-only block priced from the byte histogram, plus a hash probe for
/// matches), at any stream size.
fn deflate_may_pay(deflater: &mut szr_deflate::Deflater, data: &[u8]) -> bool {
    deflater.estimate_saving(data) >= (data.len() / DEFLATE_MIN_GAIN) as i64
}

/// [`deflate_may_pay`] with telemetry: a skipping trial counts one
/// [`Counter::DeflateTrialSkips`]. Returns the verdict and the trial's
/// nanoseconds (0 without a sink).
fn deflate_trial(
    deflater: &mut szr_deflate::Deflater,
    data: &[u8],
    sink: Option<&dyn TelemetrySink>,
) -> (bool, u64) {
    let (pays, nanos) = timed(sink.is_some(), || deflate_may_pay(deflater, data));
    if let Some(sink) = sink.filter(|_| !pays) {
        sink.counter(Counter::DeflateTrialSkips, 1);
    }
    (pays, nanos)
}

/// SZ's "best compression" DEFLATE post-pass over a band payload (the
/// length-prefixed Huffman block and escape section): writes the post-pass
/// flag and the payload, deflated when the trial lets the full pass run and
/// the pass actually shrinks it. Returns the nanoseconds spent
/// (trial and pass; 0 without a sink) and records them as one `deflate`
/// span whose bytes are the pass's output — the stored payload when the
/// trial skipped it — plus the pass's block/token counters.
pub(crate) fn write_post_passed(
    out: &mut ByteWriter,
    payload: &[u8],
    deflater: &mut szr_deflate::Deflater,
    sink: Option<&dyn TelemetrySink>,
) -> u64 {
    let (pays, trial_nanos) = deflate_trial(deflater, payload, sink);
    let (produced, pass_nanos) = if pays {
        let (deflated, nanos) = timed(sink.is_some(), || deflater.compress(payload));
        if deflated.len() < payload.len() {
            out.write_u8(1);
            out.write_len_prefixed(deflated);
        } else {
            out.write_u8(0);
            out.write_bytes(payload);
        }
        (deflated.len(), nanos)
    } else {
        out.write_u8(0);
        out.write_bytes(payload);
        (payload.len(), 0)
    };
    let nanos = trial_nanos + pass_nanos;
    if let Some(sink) = sink {
        sink.span(Stage::Deflate, nanos, produced as u64);
        if pays {
            report_deflate(sink, deflater.stats());
        }
    }
    nanos
}

/// The escape-stream DEFLATE trial behind [`Config::escape_lz`]. Streams
/// run [`deflate_may_pay`] first and skip the full pass when it predicts
/// under 2% saved (escape bytes are IEEE-754 fragments, so most streams
/// are incompressible); otherwise the whole stream is deflated and the trial
/// commits — leaving the compressed stream in `entropy.escape` — only when
/// it actually shrank. Returns whether to emit escape-LZ framing.
pub(crate) fn escape_lz_trial(
    entropy: &mut EntropyScratch,
    unpred: &[u8],
    sink: Option<&dyn TelemetrySink>,
) -> bool {
    if unpred.len() < ESCAPE_LZ_MIN_BYTES {
        return false;
    }
    let (pays, trial_nanos) = deflate_trial(&mut entropy.deflater, unpred, sink);
    let (commit, packed_len, nanos) = if pays {
        let EntropyScratch { deflater, escape } = entropy;
        let (packed, nanos) = timed(sink.is_some(), || deflater.compress(unpred));
        let commit = packed.len() < unpred.len();
        if commit {
            escape.clear();
            escape.extend_from_slice(packed);
        }
        (commit, packed.len(), nanos)
    } else {
        (false, 0, 0)
    };
    if let Some(sink) = sink {
        sink.span(Stage::Deflate, trial_nanos + nanos, packed_len as u64);
        if pays {
            report_deflate(sink, entropy.deflater.stats());
        }
        if commit {
            sink.counter(Counter::EscapeLzBands, 1);
        }
    }
    commit
}

/// Prices LZ over an escape stream without committing anything: runs the
/// same trial the encoder runs under [`Config::escape_lz`] and
/// returns `deflated / raw` when it would commit (`None` when it would skip
/// or lose) — the planner's cheap way to decide whether enabling the flag
/// pays for a band.
pub fn escape_lz_trial_ratio(escape: &[u8]) -> Option<f64> {
    let mut entropy = EntropyScratch::default();
    if escape_lz_trial(&mut entropy, escape, None) {
        Some(entropy.escape.len() as f64 / escape.len() as f64)
    } else {
        None
    }
}

pub(crate) fn quantize_validated_impl<T: ScalarFloat>(
    values: &[T],
    shape: &szr_tensor::Shape,
    config: &Config,
    kernel: &mut ScanKernel,
    force_point_oracle: bool,
    sink: Option<&dyn TelemetrySink>,
) -> Result<QuantizedBand> {
    let mut bufs = QuantBufs::default();
    let mut recon: Vec<T> = Vec::new();
    let meta = quantize_into(
        values,
        shape,
        config,
        kernel,
        force_point_oracle,
        &mut bufs,
        &mut recon,
        sink,
    )?;
    Ok(QuantizedBand {
        meta,
        dims: shape.dims().to_vec(),
        codes: bufs.codes,
        unpred: bufs.unpred.into_bytes(),
        hist: std::sync::OnceLock::new(),
    })
}

/// How the entropy stage obtains its Huffman table.
pub enum HuffmanTable<'a> {
    /// Build the table from this band's own histogram and embed it — the
    /// standard self-contained version-1 archive.
    PerBand,
    /// Encode through a caller-owned codec shared across bands. The archive
    /// (version 2) carries only the code stream and decodes exclusively via
    /// [`crate::CodecSession::decompress_shared`] with the same codec.
    Shared(&'a HuffmanCodec),
}

/// Entropy-codes a quantized band into an archive (§IV) — the second half
/// of the pipeline. The per-band table is built from the band's cached
/// [`QuantizedBand::histogram`], so a band whose histogram a multi-band
/// driver already forced (the shared-table merge) is not re-scanned here.
/// With a telemetry sink, stage spans are recorded and the Huffman-table shape of the produced block is returned
/// alongside the stats (`None` when no sink observed the encode). The
/// archive bytes are identical with or without a sink.
pub(crate) fn encode_quantized_sink(
    band: &QuantizedBand,
    table: HuffmanTable<'_>,
    entropy: &mut EntropyScratch,
    sink: Option<&dyn TelemetrySink>,
) -> (Vec<u8>, CompressionStats, Option<EncodeExtra>) {
    let hist = match table {
        HuffmanTable::PerBand => Some(band.histogram()),
        HuffmanTable::Shared(_) => None,
    };
    encode_parts(
        &band.meta,
        &band.dims,
        &band.codes,
        &band.unpred,
        hist,
        table,
        entropy,
        sink,
    )
}

/// Writes the common band-archive header (magic through dims) — shared by
/// the staged encode and the session's fused writer so the two layouts
/// cannot drift.
pub(crate) fn write_band_header(
    out: &mut ByteWriter,
    version: u8,
    meta: &BandMeta,
    dims: &[usize],
) {
    let start = out.len();
    out.write_bytes(&MAGIC);
    out.write_u8(version);
    out.write_u8(meta.type_tag);
    out.write_u8(meta.layers as u8);
    out.write_u8(meta.interval_bits as u8);
    out.write_u8(meta.decorrelate as u8);
    out.write_f64(meta.eb);
    out.write_varint(dims.len() as u64);
    for &d in dims {
        out.write_varint(d as u64);
    }
    // v3 framing, which every writer emits: the header section is sealed by
    // a CRC-32 over exactly the bytes above, hashed in place from the
    // output buffer.
    let crc = szr_deflate::crc32(&out.as_bytes()[start..]);
    out.write_u32(crc);
}

/// Telemetry-only facts about an encoded band that [`CompressionStats`]
/// does not carry: the code-stream/table split of the Huffman block and the
/// table's shape. Computed only when a sink observes the encode; byte
/// output never depends on it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EncodeExtra {
    /// Serialized Huffman code-stream bits (payload only, table excluded).
    pub code_stream_bits: u64,
    /// Serialized table bytes inside the block (0 for shared-table bands).
    pub table_bytes: u64,
    /// Symbols with a nonzero code length.
    pub table_symbols: u64,
    /// Longest code length (decode depth).
    pub table_depth: u32,
}

impl EncodeExtra {
    /// Table shape from a codec's code lengths; `table_bytes` stays 0 (the
    /// shared/fused callers fill in their own serialized size).
    pub fn from_lengths(lengths: &[u32]) -> Self {
        EncodeExtra {
            code_stream_bits: 0,
            table_bytes: 0,
            table_symbols: lengths.iter().filter(|&&l| l > 0).count() as u64,
            table_depth: lengths.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Reads a produced self-contained Huffman block back for its table shape —
/// recording-path only, so the encode hot path never pays for it. Returns
/// `None` on any parse surprise rather than failing the compression.
fn block_extra(huffman_block: &[u8]) -> Option<EncodeExtra> {
    let block = szr_huffman::parse_block(huffman_block).ok()?;
    let mut reader = ByteReader::new(block.table);
    let lengths = szr_huffman::read_lengths(&mut reader, block.alphabet).ok()?;
    let mut extra = EncodeExtra::from_lengths(&lengths);
    extra.code_stream_bits = (block.payload.len() as u64) * 8;
    extra.table_bytes = (huffman_block.len() - block.payload.len()) as u64;
    Some(extra)
}

/// [`encode_quantized_sink`] over loose parts: meta + dims + code/escape slices,
/// with an optional precomputed histogram for the per-band table. This is
/// the single archive writer behind every staged encode path. A sink adds
/// entropy/DEFLATE/header spans and the block's table shape; the bytes are
/// identical either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_parts(
    meta: &BandMeta,
    dims: &[usize],
    codes: &[u32],
    unpred_block: &[u8],
    hist: Option<&[u64]>,
    table: HuffmanTable<'_>,
    entropy: &mut EntropyScratch,
    sink: Option<&dyn TelemetrySink>,
) -> (Vec<u8>, CompressionStats, Option<EncodeExtra>) {
    let tele = sink.is_some();
    let shared = matches!(table, HuffmanTable::Shared(_));
    let (huffman_block, encode_nanos) = timed(tele, || match table {
        HuffmanTable::PerBand => match hist {
            Some(h) => szr_huffman::compress_u32_from_hist(codes, h),
            None => szr_huffman::compress_u32(codes, 1usize << meta.interval_bits),
        },
        HuffmanTable::Shared(codec) => szr_huffman::compress_u32_with_codec(codes, codec),
    });

    // LZ over the escape stream: the DEFLATE trial decides the version byte
    // before the header is written (the version is under the header CRC).
    // Bands where the flag is off — or the trial loses — emit v3/v4
    // byte-identically.
    let esc_commit = meta.escape_lz && escape_lz_trial(entropy, unpred_block, sink);
    let version = band_version(shared, esc_commit);
    let EntropyScratch { deflater, escape } = entropy;
    let escape_section: &[u8] = if esc_commit { escape } else { unpred_block };

    let mut out = ByteWriter::with_capacity(huffman_block.len() + escape_section.len() + 64);
    let ((), header_nanos) = timed(tele, || write_band_header(&mut out, version, meta, dims));
    let header_bytes = out.len() as u64;
    // Payload: the two sections, optionally behind SZ's "best compression"
    // DEFLATE pass (the Huffman stream has a 1-bit/symbol floor that
    // DEFLATE's match layer can break on low-entropy code streams).
    let mut payload = ByteWriter::with_capacity(huffman_block.len() + escape_section.len() + 8);
    payload.write_len_prefixed(&huffman_block);
    payload.write_len_prefixed(escape_section);
    if meta.lossless_pass {
        write_post_passed(&mut out, payload.as_bytes(), deflater, sink);
    } else {
        out.write_u8(0);
        out.write_bytes(payload.as_bytes());
    }
    // v3 trailer: section CRCs over the pre-DEFLATE table (Huffman block)
    // and payload (escape block) bytes, so verification works identically
    // for raw and post-passed archives.
    out.write_u32(szr_deflate::crc32(&huffman_block));
    out.write_u32(szr_deflate::crc32(unpred_block));
    let bytes = out.into_bytes();

    let extra = sink.map(|sink| {
        sink.span(
            Stage::EntropyEncode,
            encode_nanos,
            huffman_block.len() as u64,
        );
        sink.span(Stage::HeaderIo, header_nanos, header_bytes);
        match table {
            HuffmanTable::PerBand => block_extra(&huffman_block).unwrap_or_default(),
            HuffmanTable::Shared(codec) => {
                let mut extra = EncodeExtra::from_lengths(codec.lengths());
                // Shared block: `count varint · code bits` — everything past
                // the count is code stream; the table lives in the container.
                extra.code_stream_bits = szr_huffman::parse_shared_block(&huffman_block)
                    .map_or(0, |b| (b.payload.len() as u64) * 8);
                extra
            }
        }
    });

    let stats = CompressionStats {
        total: codes.len(),
        predictable: meta.predictable,
        eb_abs: meta.eb,
        range: meta.range,
        interval_bits: meta.interval_bits,
        layers: meta.layers,
        compressed_bytes: bytes.len(),
        huffman_bytes: huffman_block.len(),
        unpredictable_bytes: unpred_block.len(),
    };
    (bytes, stats, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decompress, ErrorBound};

    fn check_bound<T: ScalarFloat>(orig: &[T], recon: &[T], eb: f64) {
        for (i, (&a, &b)) in orig.iter().zip(recon).enumerate() {
            let err = (a.to_f64() - b.to_f64()).abs();
            assert!(err <= eb, "point {i}: error {err} > bound {eb}");
        }
    }

    #[test]
    fn roundtrip_2d_smooth_field() {
        let data = Tensor::from_fn([64, 96], |ix| {
            ((ix[0] as f32) * 0.05).sin() * ((ix[1] as f32) * 0.03).cos() * 10.0
        });
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let (bytes, stats) = compress_with_stats(&data, &config).unwrap();
        assert!(stats.hit_rate() > 0.9, "hit rate {}", stats.hit_rate());
        let out: Tensor<f32> = decompress(&bytes).unwrap();
        assert_eq!(out.dims(), data.dims());
        check_bound(data.as_slice(), out.as_slice(), 1e-3);
    }

    #[test]
    fn roundtrip_respects_relative_bound() {
        let data = Tensor::from_fn([50, 50], |ix| (ix[0] * 100 + ix[1]) as f64);
        let config = Config::new(ErrorBound::Relative(1e-4));
        let (bytes, stats) = compress_with_stats(&data, &config).unwrap();
        let out: Tensor<f64> = decompress(&bytes).unwrap();
        let range = 49.0 * 100.0 + 49.0;
        check_bound(data.as_slice(), out.as_slice(), 1e-4 * range);
        assert!((stats.eb_abs - 1e-4 * range).abs() < 1e-9);
    }

    #[test]
    fn smooth_data_compresses_much_better_than_noise() {
        let smooth = Tensor::from_fn([128, 128], |ix| ((ix[0] + ix[1]) as f32 * 0.01).sin());
        let noise = Tensor::from_fn([128, 128], |ix| {
            // splitmix-style hash: genuinely unpredictable cell values.
            let h = (ix[0] as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((ix[1] as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
            let h = (h ^ (h >> 31)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
            ((h >> 40) % 1000) as f32 / 500.0 - 1.0
        });
        let config = Config::new(ErrorBound::Absolute(1e-4));
        let (b_smooth, _) = compress_with_stats(&smooth, &config).unwrap();
        let (b_noise, _) = compress_with_stats(&noise, &config).unwrap();
        assert!(
            b_smooth.len() * 3 < b_noise.len(),
            "smooth {} vs noise {}",
            b_smooth.len(),
            b_noise.len()
        );
    }

    #[test]
    fn constant_field_compresses_to_nearly_nothing() {
        let data = Tensor::full([100, 100], 7.5f32);
        let config = Config::new(ErrorBound::Absolute(1e-6));
        let (bytes, stats) = compress_with_stats(&data, &config).unwrap();
        assert!(
            bytes.len() < 2500,
            "constant field took {} bytes",
            bytes.len()
        );
        let out: Tensor<f32> = decompress(&bytes).unwrap();
        check_bound(data.as_slice(), out.as_slice(), 1e-6);
        assert!(stats.hit_rate() > 0.99);
    }

    #[test]
    fn spiky_data_stays_within_bound() {
        // Mostly smooth with violent spikes: exercises the unpredictable path.
        let data = Tensor::from_fn([64, 64], |ix| {
            let base = (ix[0] as f32 * 0.1).sin();
            if (ix[0] * 64 + ix[1]) % 97 == 0 {
                base + 1.0e6
            } else {
                base
            }
        });
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let (bytes, stats) = compress_with_stats(&data, &config).unwrap();
        assert!(stats.predictable < stats.total);
        let out: Tensor<f32> = decompress(&bytes).unwrap();
        check_bound(data.as_slice(), out.as_slice(), 1e-3);
    }

    #[test]
    fn one_dimensional_data_roundtrips() {
        let data = Tensor::from_fn([10_000], |ix| (ix[0] as f64 * 0.01).sin());
        let config = Config::new(ErrorBound::Absolute(1e-5));
        let bytes = compress(&data, &config).unwrap();
        let out: Tensor<f64> = decompress(&bytes).unwrap();
        check_bound(data.as_slice(), out.as_slice(), 1e-5);
    }

    #[test]
    fn three_dimensional_data_roundtrips() {
        let data = Tensor::from_fn([16, 24, 32], |ix| {
            (ix[0] as f32 * 0.2).sin() + (ix[1] as f32 * 0.15).cos() * (ix[2] as f32 * 0.1).sin()
        });
        let config = Config::new(ErrorBound::Absolute(1e-4));
        let (bytes, stats) = compress_with_stats(&data, &config).unwrap();
        let out: Tensor<f32> = decompress(&bytes).unwrap();
        check_bound(data.as_slice(), out.as_slice(), 1e-4);
        assert!(stats.hit_rate() > 0.8);
    }

    #[test]
    fn higher_layers_roundtrip_too() {
        let data = Tensor::from_fn([48, 48], |ix| {
            (ix[0] as f64).powi(2) * 0.01 + (ix[1] as f64).powi(3) * 0.001
        });
        for layers in 1..=4 {
            let config = Config::new(ErrorBound::Absolute(1e-3)).with_layers(layers);
            let bytes = compress(&data, &config).unwrap();
            let out: Tensor<f64> = decompress(&bytes).unwrap();
            check_bound(data.as_slice(), out.as_slice(), 1e-3);
        }
    }

    #[test]
    fn fixed_interval_bits_are_respected() {
        let data = Tensor::from_fn([32, 32], |ix| (ix[0] + ix[1]) as f32);
        let config = Config::new(ErrorBound::Absolute(0.5)).with_interval_bits(4);
        let (_, stats) = compress_with_stats(&data, &config).unwrap();
        assert_eq!(stats.interval_bits, 4);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let data = Tensor::full([4, 4], 0.0f32);
        let config = Config::new(ErrorBound::Absolute(-1.0));
        assert!(compress(&data, &config).is_err());
    }

    #[test]
    fn stats_sections_sum_close_to_total() {
        let data = Tensor::from_fn([64, 64], |ix| (ix[0] as f32 * 0.3).sin());
        // Without the DEFLATE pass the archive is exactly header + sections.
        let config = Config::new(ErrorBound::Absolute(1e-4)).without_lossless_pass();
        let (bytes, stats) = compress_with_stats(&data, &config).unwrap();
        assert_eq!(stats.compressed_bytes, bytes.len());
        assert!(stats.huffman_bytes + stats.unpredictable_bytes <= bytes.len());
        // Header overhead is small.
        assert!(bytes.len() - (stats.huffman_bytes + stats.unpredictable_bytes) < 64);
    }

    #[test]
    fn decorrelation_mode_respects_bound_and_whitens_errors() {
        // A smooth, highly-compressible field: plain SZ errors track the
        // prediction surface (high autocorrelation, the paper's Figure 9c
        // weakness); decorrelation mode whitens them within the same bound.
        let data = Tensor::from_fn([96, 96], |ix| {
            ((ix[0] as f64) * 0.02).sin() * 50.0 + ((ix[1] as f64) * 0.015).cos() * 20.0
        });
        let eb = 0.05;
        let plain = Config::new(ErrorBound::Absolute(eb));
        let decorr = plain.with_decorrelation();
        let autocorr1 = |errors: &[f64]| -> f64 {
            let mean = errors.iter().sum::<f64>() / errors.len() as f64;
            let num: f64 = errors
                .windows(2)
                .map(|w| (w[0] - mean) * (w[1] - mean))
                .sum();
            let den: f64 = errors.iter().map(|e| (e - mean) * (e - mean)).sum();
            if den == 0.0 {
                0.0
            } else {
                num / den
            }
        };
        let mut acfs = Vec::new();
        for config in [plain, decorr] {
            let bytes = compress(&data, &config).unwrap();
            let out: Tensor<f64> = decompress(&bytes).unwrap();
            check_bound(data.as_slice(), out.as_slice(), eb);
            let errors: Vec<f64> = data
                .as_slice()
                .iter()
                .zip(out.as_slice())
                .map(|(a, b)| a - b)
                .collect();
            acfs.push(autocorr1(&errors).abs());
        }
        assert!(
            acfs[1] < acfs[0] / 2.0,
            "decorrelation should cut lag-1 autocorrelation: {acfs:?}"
        );
        assert!(
            acfs[1] < 0.1,
            "dithered errors should be near-white: {acfs:?}"
        );
    }

    #[test]
    fn quantize_then_encode_equals_one_shot_compress() {
        // The staged pipeline must be byte-identical to the monolithic one.
        let data = Tensor::from_fn([48, 80], |ix| {
            ((ix[0] as f32) * 0.07).sin() * 4.0 + (ix[1] as f32) * 0.01
        });
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let one_shot = compress(&data, &config).unwrap();
        let mut session = crate::CodecSession::new(config).unwrap();
        let band = session.quantize(data.as_slice(), data.shape()).unwrap();
        let (staged, stats) = session.encode(&band, HuffmanTable::PerBand);
        assert_eq!(staged, one_shot);
        assert_eq!(stats.compressed_bytes, one_shot.len());
    }

    #[test]
    fn shared_table_band_roundtrips_and_rejects_codec_free_decode() {
        let data = Tensor::from_fn([32, 64], |ix| {
            ((ix[0] as f32) * 0.11).sin() + ((ix[1] as f32) * 0.05).cos()
        });
        let config = Config::new(ErrorBound::Absolute(1e-4));
        let mut session = crate::CodecSession::new(config).unwrap();
        let band = session.quantize(data.as_slice(), data.shape()).unwrap();
        // The band's cached histogram is the canonical frequency source —
        // no consumer re-scans `band.codes()`.
        let codec = szr_huffman::HuffmanCodec::from_frequencies(band.histogram());
        let (bytes, _) = session.encode(&band, HuffmanTable::Shared(&codec));
        // Without the codec the archive must refuse, not misdecode.
        assert!(decompress::<f32>(&bytes).is_err());
        let info = crate::inspect(&bytes).unwrap();
        assert!(info.shared_stream);
        // With the codec it reconstructs within the bound.
        let out = session.decompress_shared(&bytes, &codec).unwrap();
        check_bound(data.as_slice(), out.as_slice(), 1e-4);
        // A self-contained archive fed through the shared entry point also
        // decodes (codec ignored).
        let (plain, _) = session.encode(&band, HuffmanTable::PerBand);
        let out2 = session.decompress_shared(&plain, &codec).unwrap();
        assert_eq!(out.as_slice(), out2.as_slice());
    }

    /// `len` bytes of splitmix64 output: nothing for DEFLATE to find.
    fn noise_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut bytes = Vec::with_capacity(len + 8);
        while bytes.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            bytes.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        bytes.truncate(len);
        bytes
    }

    #[test]
    fn deflate_trial_runs_short_and_compressible_streams() {
        let mut deflater = szr_deflate::Deflater::new();
        // Short streams are priced like long ones: 60 KiB of noise no
        // longer runs the pass, a compressible stream of any size does.
        assert!(!deflate_may_pay(&mut deflater, &noise_bytes(60 * 1024)));
        assert!(deflate_may_pay(&mut deflater, &vec![7u8; 1 << 20]));
        assert!(deflate_may_pay(&mut deflater, &[3u8; 200]));
    }

    #[test]
    fn occupied_histogram_counts_every_code() {
        let mut runs = Vec::new();
        for i in 0..500u32 {
            runs.extend(std::iter::repeat_n(i % 7, 1 + i as usize % 40));
        }
        let spread: Vec<u32> = (0..1001u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 300)
            .collect();
        let sparse = vec![0, 70_000, 3];
        let mut freqs = vec![9; 5];
        for codes in [runs, spread, sparse, vec![], vec![5], vec![2, 2, 2, 2, 2]] {
            occupied_histogram(&codes, &mut freqs);
            let used = codes.iter().max().map_or(0, |&m| m as usize + 1);
            let mut want = vec![0u64; used];
            for &c in &codes {
                want[c as usize] += 1;
            }
            assert_eq!(freqs, want, "{} codes", codes.len());
        }
    }

    #[test]
    fn deflate_trial_skips_incompressible_streams() {
        let mut deflater = szr_deflate::Deflater::new();
        for len in [0, 100, 64 * 1024, 200 * 1024, 3 << 20] {
            assert!(!deflate_may_pay(&mut deflater, &noise_bytes(len)), "{len}");
        }
    }

    #[test]
    fn deflate_trial_weighs_the_head_by_its_own_length() {
        // A compressible 8 KiB head (a payload's Huffman table) on 4 MiB of
        // incompressible code stream: the full pass would save ~0.2%, so
        // the match probe's credit for the head must not carry the stream.
        let mut data = noise_bytes(4 << 20);
        data[..8 * 1024].fill(0);
        let mut deflater = szr_deflate::Deflater::new();
        assert!(!deflate_may_pay(&mut deflater, &data));
        // The same head on a 256 KiB stream is worth over 3% of it: the
        // byte histogram alone prices it under 1%, the probe finds the rest.
        assert!(deflate_may_pay(&mut deflater, &data[..256 * 1024]));
    }

    #[test]
    fn deflate_trial_finds_one_compressible_stratum() {
        // 1 MiB of noise with a zero run over a quarter of it, away from
        // the head.
        let mut data = noise_bytes(1 << 20);
        data[520 * 1024..800 * 1024].fill(0);
        let mut deflater = szr_deflate::Deflater::new();
        assert!(deflate_may_pay(&mut deflater, &data));
    }

    #[test]
    fn skipped_post_pass_is_byte_identical_to_the_pass_off() {
        // Uniform noise at a bound far below its spread: the quantization
        // codes are near-uniform over thousands of intervals, so the
        // ~330 KB code stream is incompressible (a full pass would save
        // 0.08%). The trial skips the pass, and the archive is exactly the
        // one written without it.
        let data = Tensor::from_fn([512, 512], |ix| {
            let mut z = ((ix[0] * 512 + ix[1]) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z >> 40) as f32 / (1u64 << 24) as f32
        });
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let with = compress(&data, &config).unwrap();
        assert!(with.len() > 64 * 1024);
        assert_eq!(
            with,
            compress(&data, &config.without_lossless_pass()).unwrap()
        );
        assert!(!crate::inspect_layout(&with).unwrap().deflate_post_pass);
        let out: Tensor<f32> = decompress(&with).unwrap();
        check_bound(data.as_slice(), out.as_slice(), 1e-3);
    }

    #[test]
    fn lossless_pass_helps_sparse_fields_and_roundtrips() {
        // A mostly-constant field: the Huffman floor of 1 bit/value binds,
        // and the DEFLATE pass should break through it.
        let data = Tensor::from_fn([128, 128], |ix| {
            if ix[0] > 100 && ix[1] > 100 {
                3.5f32
            } else {
                0.0
            }
        });
        let eb = 1e-4;
        let with = compress(&data, &Config::new(ErrorBound::Absolute(eb))).unwrap();
        let without = compress(
            &data,
            &Config::new(ErrorBound::Absolute(eb)).without_lossless_pass(),
        )
        .unwrap();
        assert!(
            with.len() * 2 < without.len(),
            "post-pass should crush the sparse field: {} vs {}",
            with.len(),
            without.len()
        );
        for archive in [with, without] {
            let out: Tensor<f32> = decompress(&archive).unwrap();
            check_bound(data.as_slice(), out.as_slice(), eb);
        }
    }
}
