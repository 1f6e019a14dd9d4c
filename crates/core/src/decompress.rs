//! Decompression: replay the prediction loop from reconstructed values.

use crate::compress::{BandFraming, MAGIC};
use crate::float::ScalarFloat;
use crate::kernel::ScanKernel;
use crate::quant::Quantizer;
use crate::unpred::UnpredictableCodec;
use crate::{Result, SzError};
use szr_bitstream::{BitReader, ByteReader};
use szr_huffman::{HuffmanCodec, SymbolDecoder};
use szr_telemetry::{timed, Counter, Stage, TelemetrySink};
use szr_tensor::{Shape, Tensor};

/// How much larger than the archive itself a declared output may be before
/// the header is rejected as implausible (elements per archive byte).
///
/// The Huffman layer enforces ≥ 1 bit per symbol and DEFLATE expands at
/// most ~1032×, so a genuine archive carries at least one byte per ~8256
/// elements; a 64× slack above that keeps every real archive decodable
/// while a hostile 16-byte header can no longer request a multi-GiB
/// allocation.
const MAX_ELEMS_PER_ARCHIVE_BYTE: u64 = 1 << 16;

/// Checks a declared element count against the bytes actually present —
/// the untrusted-input allocation bound shared by every decode entry point
/// (and by container decoders in dependent crates).
pub fn check_declared_len(total: usize, archive_bytes: usize) -> Result<()> {
    if total as u64 > (archive_bytes as u64 + 1) * MAX_ELEMS_PER_ARCHIVE_BYTE {
        return Err(SzError::Corrupt(format!(
            "header: declared {total} elements implausible for a {archive_bytes}-byte archive"
        )));
    }
    Ok(())
}

/// How strictly a decode treats the v3 integrity checksums.
///
/// * [`DecodePolicy::Strict`] — today's behavior: sections are parsed and
///   structurally validated but stored CRCs are not recomputed. The only
///   choice that exists for v1/v2 archives, which carry no checksums.
/// * [`DecodePolicy::Verify`] — every stored CRC (header, table, payload)
///   is recomputed; a mismatch fails with [`SzError::Corrupt`] naming the
///   section.
/// * [`DecodePolicy::Salvage`] — container decodes (chunked, stream) keep
///   going past damaged bands, filling them with a declared value and
///   reporting the damage; on a single band archive this behaves like
///   [`DecodePolicy::Verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodePolicy {
    /// Parse-only validation (no checksum recomputation).
    #[default]
    Strict,
    /// Recompute and require every stored section checksum.
    Verify,
    /// Verify, but let container decodes degrade gracefully per band.
    Salvage,
}

impl DecodePolicy {
    /// Whether this policy recomputes stored checksums.
    pub fn verifies(self) -> bool {
        !matches!(self, DecodePolicy::Strict)
    }
}

/// One damaged band found during a salvage decode.
#[derive(Debug, Clone, PartialEq)]
pub struct BandDamage {
    /// Band index in container order.
    pub band: usize,
    /// Byte range of the band's serialized archive within the container.
    pub byte_range: (usize, usize),
    /// The typed error the band decode failed with.
    pub error: String,
}

/// Outcome of a salvage decode: which bands survived, which were replaced
/// by the fill value, and where their bytes lived.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SalvageReport {
    /// Total bands the container declared.
    pub bands: usize,
    /// Indices of bands recovered bit-identically.
    pub recovered: Vec<usize>,
    /// Damaged bands, in container order.
    pub damaged: Vec<BandDamage>,
    /// Fill value written over every damaged band's extent.
    pub fill: f64,
}

impl SalvageReport {
    /// True when every band decoded (nothing was filled).
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty()
    }

    /// Human-readable multi-line rendering (one line per damaged band).
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "salvage: {} of {} bands recovered, {} damaged (fill {})\n",
            self.recovered.len(),
            self.bands,
            self.damaged.len(),
            self.fill
        );
        for d in &self.damaged {
            s.push_str(&format!(
                "  band {} bytes {}..{}: {}\n",
                d.band, d.byte_range.0, d.byte_range.1, d.error
            ));
        }
        s
    }

    /// Hand-rolled JSON rendering (mirrors the telemetry report style).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"bands\":{},\"recovered\":{:?},\"fill\":{},\"damaged\":[",
            self.bands, self.recovered, self.fill
        );
        for (i, d) in self.damaged.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"band\":{},\"start\":{},\"end\":{},\"error\":{:?}}}",
                d.band, d.byte_range.0, d.byte_range.1, d.error
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Parsed archive header (everything before the payload sections).
struct Header {
    type_tag: u8,
    layers: usize,
    interval_bits: u32,
    decorrelate: bool,
    /// Shared-stream archive: the Huffman table lives in the owning
    /// container.
    shared_stream: bool,
    /// v3 framing: the archive carries section checksums.
    checksummed: bool,
    /// v5/v6 framing: the escape section is stored DEFLATE-compressed (the
    /// encoder's escape-LZ trial won) and must be inflated before use. The
    /// trailer's payload CRC covers the *inflated* escape bytes.
    escape_lz: bool,
    /// Stored vs recomputed header CRC agreement (`None` for v1/v2).
    /// Recorded during the parse, acted on by the caller's policy.
    header_crc_ok: Option<bool>,
    eb: f64,
    /// Grid extents, slowest first, in `dims[..ndim]`. Rank is capped at
    /// 16, so the extents fit a stack array and header parsing stays
    /// allocation-free.
    dims: [usize; MAX_RANK],
    ndim: usize,
}

/// Highest rank a band archive header may declare.
const MAX_RANK: usize = 16;

impl Header {
    /// Grid extents, slowest first.
    fn dims(&self) -> &[usize] {
        &self.dims[..self.ndim]
    }

    /// Declared element count (bounded by the parse, so it cannot
    /// overflow).
    fn len(&self) -> usize {
        self.dims().iter().product()
    }
}

/// Parses a band-archive header. `bytes` is the full archive and `reader`
/// must be positioned at its start — the v3 header checksum is recomputed
/// over the exact bytes consumed, allocation-free.
fn parse_header(bytes: &[u8], reader: &mut ByteReader<'_>) -> Result<Header> {
    let magic = reader.read_bytes(4)?;
    if magic != MAGIC {
        return Err(SzError::Corrupt("bad magic bytes".into()));
    }
    let version = reader.read_u8()?;
    let BandFraming {
        shared: shared_stream,
        checksummed,
        escape_lz,
    } = BandFraming::parse(version)
        .ok_or_else(|| SzError::Corrupt(format!("unsupported version {version}")))?;
    let type_tag = reader.read_u8()?;
    let layers = reader.read_u8()? as usize;
    let interval_bits = reader.read_u8()? as u32;
    let decorrelate = match reader.read_u8()? {
        0 => false,
        1 => true,
        _ => return Err(SzError::Corrupt("bad decorrelation flag".into())),
    };
    let eb = reader.read_f64()?;
    if !(eb.is_finite() && eb > 0.0) {
        return Err(SzError::Corrupt("non-positive error bound".into()));
    }
    if decorrelate && eb / 2.0 == 0.0 {
        // No writer emits it: half this bound, the quantizer's, is zero.
        return Err(SzError::Corrupt("error bound too small to halve".into()));
    }
    if !(1..=8).contains(&layers) || !(2..=30).contains(&interval_bits) {
        return Err(SzError::Corrupt("implausible layer/interval fields".into()));
    }
    let ndim = reader.read_varint()? as usize;
    if ndim == 0 || ndim > MAX_RANK {
        return Err(SzError::Corrupt(format!("implausible rank {ndim}")));
    }
    let mut dims = [0usize; MAX_RANK];
    let mut product: u128 = 1;
    for slot in dims.iter_mut().take(ndim) {
        let d = reader.read_varint()? as usize;
        if d == 0 {
            return Err(SzError::Corrupt("zero-extent dimension".into()));
        }
        product *= d as u128;
        if product > (1u128 << 40) {
            return Err(SzError::Corrupt("element count implausibly large".into()));
        }
        *slot = d;
    }
    let header_crc_ok = if checksummed {
        let consumed = bytes.len() - reader.remaining();
        let computed = szr_deflate::crc32(&bytes[..consumed]);
        let stored = reader.read_u32()?;
        Some(stored == computed)
    } else {
        None
    };
    Ok(Header {
        type_tag,
        layers,
        interval_bits,
        decorrelate,
        shared_stream,
        checksummed,
        escape_lz,
        header_crc_ok,
        eb,
        dims,
        ndim,
    })
}

/// Summary of an archive's header, readable without decompressing.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveInfo {
    /// `"f32"` or `"f64"`.
    pub dtype: &'static str,
    /// Grid dimensions (slowest first).
    pub dims: Vec<usize>,
    /// Effective absolute error bound stored in the header.
    pub error_bound: f64,
    /// Prediction layers used.
    pub layers: usize,
    /// `m`: the archive uses `2^m − 1` quantization intervals.
    pub interval_bits: u32,
    /// Whether error-decorrelation mode was active.
    pub decorrelated: bool,
    /// Shared-stream band archive: its Huffman table is shared and lives in
    /// the owning container, so it decodes only via
    /// [`crate::CodecSession::decompress_shared`].
    pub shared_stream: bool,
    /// v3 framing: the archive carries per-section CRC-32 checksums.
    pub checksummed: bool,
    /// v5/v6 framing: the escape section is stored DEFLATE-compressed
    /// (the encoder's escape-LZ trial won).
    pub escape_lz: bool,
    /// Total archive size in bytes.
    pub archive_bytes: usize,
}

impl ArchiveInfo {
    /// Number of data points in the archive.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the archive holds no points (cannot occur in valid
    /// archives).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compression factor versus the uncompressed representation.
    pub fn compression_factor(&self) -> f64 {
        let elem = if self.dtype == "f32" { 4 } else { 8 };
        (self.len() * elem) as f64 / self.archive_bytes as f64
    }
}

/// Parses an archive header without decompressing the payload.
pub fn inspect(bytes: &[u8]) -> Result<ArchiveInfo> {
    let mut reader = ByteReader::new(bytes);
    let header = parse_header(bytes, &mut reader)?;
    Ok(info_from(&header, bytes.len()))
}

/// A band archive's scalar type and grid, from [`inspect_grid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandGrid {
    dtype: &'static str,
    dims: [usize; MAX_RANK],
    ndim: usize,
}

impl BandGrid {
    /// `"f32"` or `"f64"`.
    pub fn dtype(&self) -> &'static str {
        self.dtype
    }

    /// Grid dimensions (slowest first).
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.ndim]
    }
}

/// The part of [`inspect`] a container needs to place a band — its scalar
/// type and grid — read from the header without allocating, so checking
/// every band of a container costs no allocation per band.
pub fn inspect_grid(bytes: &[u8]) -> Result<BandGrid> {
    let header = parse_header(bytes, &mut ByteReader::new(bytes))?;
    Ok(BandGrid {
        dtype: if header.type_tag == 0 { "f32" } else { "f64" },
        dims: header.dims,
        ndim: header.ndim,
    })
}

fn info_from(header: &Header, archive_bytes: usize) -> ArchiveInfo {
    ArchiveInfo {
        dtype: if header.type_tag == 0 { "f32" } else { "f64" },
        dims: header.dims().to_vec(),
        error_bound: header.eb,
        layers: header.layers,
        interval_bits: header.interval_bits,
        decorrelated: header.decorrelate,
        shared_stream: header.shared_stream,
        checksummed: header.checksummed,
        escape_lz: header.escape_lz,
        archive_bytes,
    }
}

/// Prefixes a corruption error with the archive section it surfaced in, so
/// `szr inspect` can tell a chopped header from a chopped payload.
fn in_section(name: &'static str, e: SzError) -> SzError {
    match e {
        SzError::Corrupt(msg) => SzError::Corrupt(format!("{name}: {msg}")),
        other => other,
    }
}

/// Byte-level layout of a band archive, readable without decompressing:
/// [`ArchiveInfo`] plus how the payload splits between the Huffman block
/// (table + code stream) and the escape stream.
#[derive(Debug, Clone, PartialEq)]
pub struct BandLayout {
    /// Header summary (dtype, dims, bound, framing version).
    pub info: ArchiveInfo,
    /// Whether the payload went through the DEFLATE post-pass. Section
    /// sizes below describe the *inflated* payload in that case.
    pub deflate_post_pass: bool,
    /// Bytes of the Huffman block (serialized table span + code stream).
    pub huffman_bytes: usize,
    /// Bytes of the escape (unpredictable-value) stream. For escape-LZ
    /// archives (v5/v6) this is the *inflated* size; `info.escape_lz`
    /// records that the stored section was deflated.
    pub unpredictable_bytes: usize,
    /// Bytes of the Huffman code stream alone (block minus table framing).
    pub code_stream_bytes: usize,
    /// Distinct symbols in the band's own table; `None` for shared-stream
    /// bands, whose table lives in the owning container.
    pub table_symbols: Option<usize>,
    /// Deepest code length in the band's own table; `None` when shared.
    pub table_depth: Option<u32>,
}

/// Walks every section of a band archive — header, post-pass framing,
/// Huffman table, code stream, escape stream — without reconstructing any
/// data, and reports where the bytes went. Corrupt or truncated archives
/// fail with the section named (`header: …`, `table: …`, `payload: …`), the
/// introspection backbone of `szr inspect` and `szr verify`. Checksummed
/// (v3) archives have every stored section CRC recomputed, so this is a
/// full integrity check that never allocates an output tensor.
///
/// # Errors
/// [`SzError::Corrupt`] naming the failing section.
pub fn inspect_layout(bytes: &[u8]) -> Result<BandLayout> {
    let mut reader = ByteReader::new(bytes);
    let header = parse_header(bytes, &mut reader).map_err(|e| in_section("header", e))?;
    if header.header_crc_ok == Some(false) {
        return Err(SzError::Corrupt("header: checksum mismatch".into()));
    }
    let info = info_from(&header, bytes.len());
    let post = reader
        .read_u8()
        .map_err(|e| in_section("payload", e.into()))?;
    let inflated;
    let (deflate_post_pass, huffman_block, unpred_block): (bool, &[u8], &[u8]) = match post {
        0 => {
            let h = reader
                .read_len_prefixed()
                .map_err(|e| in_section("payload", e.into()))?;
            let u = reader
                .read_len_prefixed()
                .map_err(|e| in_section("payload", e.into()))?;
            (false, h, u)
        }
        1 => {
            let deflated = reader
                .read_len_prefixed()
                .map_err(|e| in_section("payload", e.into()))?;
            inflated = szr_deflate::deflate_decompress(deflated)
                .map_err(|e| SzError::Corrupt(format!("payload: {e}")))?;
            let mut pr = ByteReader::new(&inflated);
            let h = pr
                .read_len_prefixed()
                .map_err(|e| in_section("payload", e.into()))?;
            let u = pr
                .read_len_prefixed()
                .map_err(|e| in_section("payload", e.into()))?;
            (true, h, u)
        }
        _ => return Err(SzError::Corrupt("payload: unknown post-pass".into())),
    };
    // v5/v6: the escape section is stored deflated; the trailer's payload
    // CRC covers the inflated bytes, so inflate before the check and report
    // the inflated size below.
    let esc_inflated;
    let unpred_block: &[u8] = if header.escape_lz {
        let mut buf = Vec::new();
        szr_deflate::deflate_decompress_into(unpred_block, &mut buf)
            .map_err(|e| SzError::Corrupt(format!("escape: {e}")))?;
        esc_inflated = buf;
        &esc_inflated
    } else {
        unpred_block
    };
    if header.checksummed {
        let table_crc = reader
            .read_u32()
            .map_err(|e| in_section("table", e.into()))?;
        let payload_crc = reader
            .read_u32()
            .map_err(|e| in_section("payload", e.into()))?;
        if table_crc != szr_deflate::crc32(huffman_block) {
            return Err(SzError::Corrupt("table: checksum mismatch".into()));
        }
        if payload_crc != szr_deflate::crc32(unpred_block) {
            return Err(SzError::Corrupt("payload: checksum mismatch".into()));
        }
    }
    let total = info.len();
    let (count, code_stream_bytes, table_symbols, table_depth) = if header.shared_stream {
        let block = szr_huffman::parse_shared_block(huffman_block)
            .map_err(|e| in_section("table", e.into()))?;
        (block.count, block.payload.len(), None, None)
    } else {
        let block =
            szr_huffman::parse_block(huffman_block).map_err(|e| in_section("table", e.into()))?;
        let mut tr = ByteReader::new(block.table);
        let lengths = szr_huffman::read_lengths(&mut tr, block.alphabet)
            .map_err(|e| in_section("table", e.into()))?;
        let symbols = lengths.iter().filter(|&&l| l != 0).count();
        let depth = lengths.iter().copied().max().unwrap_or(0);
        (block.count, block.payload.len(), Some(symbols), Some(depth))
    };
    if count != total {
        return Err(SzError::Corrupt(format!(
            "payload: code stream has {count} entries for {total} points"
        )));
    }
    Ok(BandLayout {
        info,
        deflate_post_pass,
        huffman_bytes: huffman_block.len(),
        unpredictable_bytes: unpred_block.len(),
        code_stream_bytes,
        table_symbols,
        table_depth,
    })
}

/// Reusable decode-side buffers: the staged path's symbol vector, the fused
/// path's per-group scratch, the DEFLATE inflater with its output buffers,
/// a per-band Huffman codec cache keyed on the raw serialized table span,
/// and the last grid's shape. Owned by [`crate::CodecSession`] (and by
/// `szr-parallel`'s per-worker sessions through it) so steady-state fused
/// decompression into a caller's buffer allocates nothing, post-passed and
/// escape-LZ bands included.
pub(crate) struct DecodeScratch<T: ScalarFloat> {
    /// Staged-path symbol buffer (the whole stream, materialized).
    codes: Vec<u32>,
    /// Fused-path scratch: one scan group of symbols…
    group_codes: Vec<u32>,
    /// …and the group's decoded escape values, by position (both paths).
    group_escapes: Vec<T>,
    /// Decodes the DEFLATE post-pass and escape-LZ sections.
    inflater: szr_deflate::Inflater,
    /// Post-pass staging: a post-passed band's payload inflates here.
    inflated: Vec<u8>,
    /// Escape-LZ staging: v5/v6 escape sections inflate here before the
    /// bit-level escape decode (capacity persists across bands).
    escape: Vec<u8>,
    /// Raw RLE table span of the codec cached below (memcmp cache key).
    table_key: Vec<u8>,
    /// Codec rebuilt from the last per-band table seen; same-table streaks
    /// (a session decoding one producer's bands) skip the rebuild and keep
    /// the codec's decode LUT warm.
    cached_codec: Option<HuffmanCodec>,
    /// Shape of the last grid decoded, reused while the dims repeat.
    shape: Option<Shape>,
}

impl<T: ScalarFloat> Default for DecodeScratch<T> {
    fn default() -> Self {
        Self {
            codes: Vec::new(),
            group_codes: Vec::new(),
            group_escapes: Vec::new(),
            inflater: szr_deflate::Inflater::new(),
            inflated: Vec::new(),
            escape: Vec::new(),
            table_key: Vec::new(),
            cached_codec: None,
            shape: None,
        }
    }
}

/// Decompresses an archive produced by [`crate::compress`].
///
/// The scalar type is checked against the archive header, so decompressing
/// an `f64` archive as `Tensor<f32>` fails with
/// [`SzError::WrongType`] instead of silently misreading bytes.
///
/// Decoding is *fused*: Huffman symbols are pulled straight into row
/// reconstruction without materializing the symbol vector (see
/// [`crate::oracle::decompress_staged`] for the staged oracle).
pub fn decompress<T: ScalarFloat>(bytes: &[u8]) -> Result<Tensor<T>> {
    decompress_with_policy(bytes, DecodePolicy::Strict)
}

/// [`decompress`] under an explicit [`DecodePolicy`]:
/// [`DecodePolicy::Verify`] (and [`DecodePolicy::Salvage`], equivalent on a
/// single band) recomputes every stored v3 section checksum and rejects the
/// archive with a section-named [`SzError::Corrupt`] on mismatch. v1/v2
/// archives carry no checksums, so every policy behaves like
/// [`DecodePolicy::Strict`] on them.
pub fn decompress_with_policy<T: ScalarFloat>(
    bytes: &[u8],
    policy: DecodePolicy,
) -> Result<Tensor<T>> {
    decompress_fresh(bytes, None, false, policy)
}

/// The staged decode pipeline behind [`crate::oracle::decompress_staged`]
/// and [`crate::oracle::decompress_staged_shared`]: the whole symbol
/// stream is Huffman-decoded into a vector first, then reconstruction
/// replays over it. Version-2 shared-stream bands decode through `codec`.
pub(crate) fn decompress_staged<T: ScalarFloat>(
    bytes: &[u8],
    codec: Option<&HuffmanCodec>,
) -> Result<Tensor<T>> {
    decompress_fresh(bytes, codec, true, DecodePolicy::Strict)
}

/// One decode through throwaway state: size the output from the header,
/// then decode into it.
fn decompress_fresh<T: ScalarFloat>(
    bytes: &[u8],
    codec: Option<&HuffmanCodec>,
    staged: bool,
    policy: DecodePolicy,
) -> Result<Tensor<T>> {
    let (header, reader) = parse_checked::<T>(bytes, policy, None)?;
    let shape = Shape::new(header.dims());
    let mut out = vec![T::from_f64(0.0); shape.len()];
    let mut kernel = ScanKernel::for_shape(header.layers, &shape);
    decompress_parsed(
        &header,
        &shape,
        reader,
        &mut kernel,
        codec,
        &mut DecodeScratch::default(),
        staged,
        policy,
        None,
        &mut out,
    )?;
    Ok(Tensor::from_vec(shape, out))
}

/// Parses `bytes`' header and runs the checks a decode makes before it
/// reads the payload or sizes anything from it: the scalar type, the
/// header checksum under a verifying policy, and the untrusted-input bound
/// on the declared element count. Returns the header and the reader just
/// past it.
fn parse_checked<'b, T: ScalarFloat>(
    bytes: &'b [u8],
    policy: DecodePolicy,
    sink: Option<&dyn TelemetrySink>,
) -> Result<(Header, ByteReader<'b>)> {
    let mut reader = ByteReader::new(bytes);
    let (header, header_nanos) = timed(sink.is_some(), || parse_header(bytes, &mut reader));
    let header = header?;
    if let Some(sink) = sink {
        sink.span(
            Stage::HeaderIo,
            header_nanos,
            (bytes.len() - reader.remaining()) as u64,
        );
    }
    if header.type_tag != T::TYPE_TAG {
        return Err(SzError::WrongType {
            expected: T::NAME,
            found: if header.type_tag == 0 { "f32" } else { "f64" },
        });
    }
    if policy.verifies() && header.header_crc_ok == Some(false) {
        if let Some(sink) = sink {
            sink.counter(Counter::ChecksumFailures, 1);
        }
        return Err(SzError::Corrupt("header: checksum mismatch".into()));
    }
    check_declared_len(header.len(), bytes.len())?;
    Ok((header, reader))
}

/// Decompresses one archive through caller-owned reusable state: a kernel
/// cache (one per (layer count, stride family) seen, created on demand)
/// and the decode scratch (fused row buffers, codec cache, last shape).
/// The header is parsed and checked once; `out` then picks the buffer the
/// decode fills from the header's dims, and it must hold exactly their
/// element count. Version-2 shared-stream archives decode through `codec`;
/// a missing codec fails loudly. This is the decode body behind
/// [`crate::CodecSession`] and `szr-parallel`'s per-worker sessions.
pub(crate) fn decompress_cached<T: ScalarFloat, O: AsMut<[T]>>(
    bytes: &[u8],
    codec: Option<&HuffmanCodec>,
    kernels: &mut Vec<ScanKernel>,
    scratch: &mut DecodeScratch<T>,
    policy: DecodePolicy,
    sink: Option<&dyn TelemetrySink>,
    out: impl FnOnce(&[usize]) -> O,
) -> Result<O> {
    let sink = sink.filter(|s| s.enabled());
    let (header, reader) = parse_checked::<T>(bytes, policy, sink)?;
    let mut out = out(header.dims());
    // The shape leaves the scratch for the decode, so the scratch's
    // buffers stay free to borrow; a repeated grid reuses it.
    let shape = match scratch.shape.take() {
        Some(shape) if shape.dims() == header.dims() => shape,
        _ => Shape::new(header.dims()),
    };
    let before = kernels.len();
    let idx = ScanKernel::cache_index(kernels, header.layers, &shape);
    if let Some(sink) = sink {
        sink.counter(
            if kernels.len() == before {
                Counter::KernelCacheHit
            } else {
                Counter::KernelCacheMiss
            },
            1,
        );
    }
    let decoded = decompress_parsed(
        &header,
        &shape,
        reader,
        &mut kernels[idx],
        codec,
        scratch,
        false,
        policy,
        sink,
        out.as_mut(),
    );
    scratch.shape = Some(shape);
    decoded.map(|()| out)
}

/// Payload decode shared by every decompress entry point: writes the grid
/// `shape` (the header's, which passed [`parse_checked`]) into `recon`,
/// which must hold exactly its element count. `reader` is positioned just
/// past the header, `kernel` matches it, `codec` is the shared Huffman
/// table (required for version-2 archives, ignored otherwise), and
/// `scratch` holds the reusable decode buffers (a session passes a
/// persistent one so repeated decodes reuse every allocation).
///
/// `recon`'s prior contents are never read: the scan writes every point
/// before any later prediction reads it. On error its contents are
/// unspecified.
///
/// With `staged` false (the production path) Huffman symbols are pulled
/// straight into row reconstruction through a [`SymbolDecoder`] — the
/// intermediate symbol vector is never materialized, and each group's
/// escapes decode in one pass before its points reconstruct. With `staged`
/// true (the oracle path, and always in decorrelation mode) the whole
/// stream decodes into `scratch.codes` first.
#[allow(clippy::too_many_arguments)]
fn decompress_parsed<T: ScalarFloat>(
    header: &Header,
    shape: &Shape,
    mut reader: ByteReader<'_>,
    kernel: &mut ScanKernel,
    codec: Option<&HuffmanCodec>,
    scratch: &mut DecodeScratch<T>,
    staged: bool,
    policy: DecodePolicy,
    sink: Option<&dyn TelemetrySink>,
    recon: &mut [T],
) -> Result<()> {
    let sink = sink.filter(|s| s.enabled());
    let tele = sink.is_some();
    // One up-front destructure so the escape staging buffer can stay
    // borrowed (as the escape stream) while the row/code buffers are
    // handed to the decoders — disjoint fields, one borrow each.
    let DecodeScratch {
        codes,
        group_codes,
        group_escapes,
        inflater,
        inflated,
        escape,
        table_key,
        cached_codec,
        shape: _,
    } = scratch;
    let total = header.len();
    if recon.len() != total {
        return Err(SzError::OutputLength {
            expected: total,
            found: recon.len(),
        });
    }
    let post = reader
        .read_u8()
        .map_err(|e| in_section("payload", e.into()))?;
    let (huffman_block, unpred_block): (&[u8], &[u8]) = match post {
        0 => {
            let h = reader
                .read_len_prefixed()
                .map_err(|e| in_section("payload", e.into()))?;
            let u = reader
                .read_len_prefixed()
                .map_err(|e| in_section("payload", e.into()))?;
            (h, u)
        }
        1 => {
            let deflated = reader
                .read_len_prefixed()
                .map_err(|e| in_section("payload", e.into()))?;
            let (res, inflate_nanos) = timed(tele, || inflater.inflate_into(deflated, inflated));
            res.map_err(|e| SzError::Corrupt(format!("payload: {e}")))?;
            if let Some(sink) = sink {
                sink.span(Stage::Deflate, inflate_nanos, inflated.len() as u64);
            }
            let mut pr = ByteReader::new(inflated);
            let h = pr
                .read_len_prefixed()
                .map_err(|e| in_section("payload", e.into()))?;
            let u = pr
                .read_len_prefixed()
                .map_err(|e| in_section("payload", e.into()))?;
            (h, u)
        }
        _ => return Err(SzError::Corrupt("payload: unknown post-pass".into())),
    };
    // v5/v6: the escape section was stored deflated (the encoder's
    // escape-LZ trial won); inflate it before the CRC check, which covers
    // the raw escape bytes so corruption anywhere in the stored section
    // still surfaces as a named mismatch rather than garbage values.
    let unpred_block: &[u8] = if header.escape_lz {
        let (res, nanos) = timed(tele, || inflater.inflate_into(unpred_block, escape));
        res.map_err(|e| SzError::Corrupt(format!("escape: {e}")))?;
        if let Some(sink) = sink {
            sink.span(Stage::Deflate, nanos, escape.len() as u64);
        }
        escape
    } else {
        unpred_block
    };
    if header.checksummed {
        // v3 trailer: section CRCs are part of the framing, so their
        // presence is required under every policy; recomputation happens
        // only when the policy verifies.
        let table_crc = reader
            .read_u32()
            .map_err(|e| in_section("table", e.into()))?;
        let payload_crc = reader
            .read_u32()
            .map_err(|e| in_section("payload", e.into()))?;
        if policy.verifies() {
            if table_crc != szr_deflate::crc32(huffman_block) {
                if let Some(sink) = sink {
                    sink.counter(Counter::ChecksumFailures, 1);
                }
                return Err(SzError::Corrupt("table: checksum mismatch".into()));
            }
            if payload_crc != szr_deflate::crc32(unpred_block) {
                if let Some(sink) = sink {
                    sink.counter(Counter::ChecksumFailures, 1);
                }
                return Err(SzError::Corrupt("payload: checksum mismatch".into()));
            }
        }
    }

    let eb_q = if header.decorrelate {
        header.eb / 2.0
    } else {
        header.eb
    };
    let quantizer = Quantizer::new(eb_q, header.interval_bits);
    let unpred = UnpredictableCodec::new(header.eb);
    let alphabet = quantizer.alphabet() as u32;
    let unpred_bits = BitReader::new(unpred_block);

    // Decorrelation threads per-index dither through the point visitor and
    // stays staged; everything else decodes fused unless the caller asked
    // for the oracle path.
    if !header.decorrelate && !staged {
        let (block, codec) = if header.shared_stream {
            let codec = codec.ok_or_else(|| {
                SzError::Corrupt("archive needs its container's shared huffman table".into())
            })?;
            (
                szr_huffman::parse_shared_block(huffman_block)
                    .map_err(|e| in_section("table", e.into()))?,
                codec,
            )
        } else {
            let block = szr_huffman::parse_block(huffman_block)
                .map_err(|e| in_section("table", e.into()))?;
            let hit = cached_codec.is_some() && table_key.as_slice() == block.table;
            if !hit {
                // Rebuilt in the cached codec's buffers; a table that fails
                // to build leaves no codec behind to hit on.
                let mut codec = cached_codec.take().unwrap_or_default();
                szr_huffman::codec_for_block_into(&block, &mut codec)
                    .map_err(|e| in_section("table", e.into()))?;
                *cached_codec = Some(codec);
                table_key.clear();
                table_key.extend_from_slice(block.table);
            }
            if let Some(sink) = sink {
                sink.counter(
                    if hit {
                        Counter::CodecTableCacheHit
                    } else {
                        Counter::CodecTableCacheMiss
                    },
                    1,
                );
            }
            (block, cached_codec.as_ref().expect("just cached"))
        };
        if block.count != total {
            return Err(SzError::Corrupt(format!(
                "payload: code stream has {} entries for {} points",
                block.count, total
            )));
        }
        // A table that codes no symbol outside the alphabet cannot decode
        // one, so only such a table needs the per-group check.
        let codes_outside = codec
            .lengths()
            .get(alphabet as usize..)
            .is_some_and(|outside| outside.iter().any(|&l| l != 0));
        let mut visitor = FusedRowDecoder {
            decoder: codec.stream_decoder(block.payload, total),
            alphabet: codes_outside.then_some(alphabet),
            quantizer,
            unpred,
            bits: unpred_bits,
            group_codes,
            group_escapes,
            start: 0,
            tele,
            decode_nanos: 0,
            recon_nanos: 0,
            recon_clock: None,
        };
        kernel.scan_rows(shape, recon, &mut visitor)?;
        if let Some(sink) = sink {
            sink.span(
                Stage::SymbolDecode,
                visitor.decode_nanos,
                huffman_block.len() as u64,
            );
            sink.span(
                Stage::RowReconstruct,
                visitor.recon_nanos,
                std::mem::size_of_val(recon) as u64,
            );
        }
        return Ok(());
    }

    if header.shared_stream {
        let codec = codec.ok_or_else(|| {
            SzError::Corrupt("archive needs its container's shared huffman table".into())
        })?;
        szr_huffman::decompress_u32_with_codec_into(huffman_block, codec, codes)
            .map_err(|e| in_section("table", e.into()))?;
    } else {
        szr_huffman::decompress_u32_into(huffman_block, codes)
            .map_err(|e| in_section("table", e.into()))?;
    }
    let codes: &[u32] = codes;
    if codes.len() != total {
        return Err(SzError::Corrupt(format!(
            "payload: code stream has {} entries for {} points",
            codes.len(),
            total
        )));
    }
    let mut unpred_bits = unpred_bits;

    if header.decorrelate {
        // Decorrelation mode threads per-index dither through the point
        // visitor, which cannot early-return: an out-of-alphabet code or a
        // malformed unpredictable section parks its error and the remaining
        // points decode as zero before the error surfaces (corrupt archives
        // only; valid archives never hit this).
        let mut decode_err: Option<SzError> = None;
        kernel.scan(shape, recon, |flat, pred| {
            if decode_err.is_some() {
                return T::from_f64(0.0);
            }
            let code = codes[flat];
            if code >= alphabet {
                decode_err = Some(SzError::Corrupt(format!("code {code} outside alphabet")));
                T::from_f64(0.0)
            } else if code == 0 {
                match unpred.decode(&mut unpred_bits) {
                    Ok(v) => v,
                    Err(e) => {
                        decode_err = Some(e.into());
                        T::from_f64(0.0)
                    }
                }
            } else {
                let mut r64 = quantizer.reconstruct(code, pred);
                r64 += crate::quant::dither_unit(flat) * header.eb;
                T::from_f64(r64)
            }
        });
        if let Some(e) = decode_err {
            return Err(e);
        }
    } else {
        // The staged oracle: wavefront reconstruction from the decoded code
        // vector, aborting at the first corrupt group instead of decoding
        // the full grid.
        let mut visitor = RowDecoder {
            codes,
            alphabet,
            quantizer,
            unpred,
            bits: unpred_bits,
            escapes: group_escapes,
            start: 0,
        };
        kernel.scan_rows(shape, recon, &mut visitor)?;
    }

    Ok(())
}

/// Rejects a scan group holding a code outside the alphabet, naming the
/// first such code in scan order.
fn check_alphabet(codes: &[u32], alphabet: u32) -> Result<()> {
    // The alphabet is a power of two, so a code is outside it exactly when
    // it sets a bit at or above the alphabet's: an OR over the group tests
    // them all with one vector instruction per lane group, where an
    // unsigned max has no baseline x86-64 instruction.
    debug_assert!(alphabet.is_power_of_two());
    if codes.iter().fold(0, |bits, &c| bits | c) >= alphabet {
        let bad = codes
            .iter()
            .find(|&&c| c >= alphabet)
            .expect("max exceeded the alphabet");
        return Err(SzError::Corrupt(format!("code {bad} outside alphabet")));
    }
    Ok(())
}

/// Decodes the escapes of one scan group, in the row-major order the
/// encoder wrote them, into `out` at their positions: `out[p]` for every
/// `codes[p] == 0`. Other slots keep stale values the visitors never read.
fn decode_group_escapes<T: ScalarFloat>(
    codes: &[u32],
    unpred: &UnpredictableCodec,
    bits: &mut BitReader<'_>,
    out: &mut Vec<T>,
) -> Result<()> {
    if out.len() < codes.len() {
        out.resize(codes.len(), T::from_f64(0.0));
    }
    if crate::compress::count_escapes(codes) > 0 {
        for (slot, &code) in out.iter_mut().zip(codes) {
            if code == 0 {
                *slot = unpred.decode(bits)?;
            }
        }
    }
    Ok(())
}

/// Staged decode visitor over a materialized code stream: each group's
/// codes are validated and its escapes decoded at `begin_group`, so the
/// wavefront itself cannot fail; a corrupt group aborts the scan.
struct RowDecoder<'a, 's, T: ScalarFloat> {
    codes: &'a [u32],
    alphabet: u32,
    quantizer: Quantizer,
    unpred: UnpredictableCodec,
    bits: BitReader<'a>,
    /// The open group's escapes, indexed from `start`.
    escapes: &'s mut Vec<T>,
    start: usize,
}

impl<T: ScalarFloat> crate::kernel::RowVisitor<T> for RowDecoder<'_, '_, T> {
    type Error = SzError;

    fn begin_group(&mut self, start: usize, len: usize) -> Result<()> {
        let codes = &self.codes[start..start + len];
        check_alphabet(codes, self.alphabet)?;
        decode_group_escapes(codes, &self.unpred, &mut self.bits, self.escapes)?;
        self.start = start;
        Ok(())
    }

    #[inline(always)]
    fn point(&mut self, flat: usize, pred: f64) -> T {
        let code = self.codes[flat];
        if code == 0 {
            self.escapes[flat - self.start]
        } else {
            T::from_f64(self.quantizer.reconstruct(code, pred))
        }
    }
}

/// The fused decode visitor: a pull-based [`SymbolDecoder`] feeds
/// reconstruction directly, so no band-sized symbol vector ever exists.
/// Each group pulls its symbol run into a group-sized scratch at
/// `begin_group` and decodes its escapes; the wavefront then reconstructs
/// each point from its code with [`Quantizer::reconstruct`], the staged
/// path's expression. Codes are checked against the alphabet
/// (`check_alphabet`) only when the band's table codes a symbol outside
/// it. The first bad symbol (or out-of-alphabet code) aborts the whole
/// scan — corrupt archives never decode the full grid.
struct FusedRowDecoder<'c, 'b, 's, T: ScalarFloat> {
    decoder: SymbolDecoder<'c, 'b>,
    /// The quantizer alphabet, when the table codes symbols outside it.
    alphabet: Option<u32>,
    quantizer: Quantizer,
    unpred: UnpredictableCodec,
    bits: BitReader<'b>,
    /// The open group's symbols and escapes, indexed from `start`.
    group_codes: &'s mut Vec<u32>,
    group_escapes: &'s mut Vec<T>,
    start: usize,
    /// Telemetry recording active: accumulate the symbol-pull and
    /// reconstruction nanos below (both stay zero — and the clock is never
    /// read — when disabled).
    tele: bool,
    decode_nanos: u64,
    recon_nanos: u64,
    /// Start of the open group's reconstruction (telemetry only).
    recon_clock: Option<std::time::Instant>,
}

impl<T: ScalarFloat> crate::kernel::RowVisitor<T> for FusedRowDecoder<'_, '_, '_, T> {
    type Error = SzError;

    fn begin_group(&mut self, start: usize, len: usize) -> Result<()> {
        if self.group_codes.len() < len {
            self.group_codes.resize(len, 0);
        }
        let (pulled, nanos) = {
            let decoder = &mut self.decoder;
            let codes = &mut self.group_codes[..len];
            timed(self.tele, || decoder.decode_into(codes))
        };
        self.decode_nanos += nanos;
        pulled?;
        self.recon_clock = self.tele.then(std::time::Instant::now);
        let codes = &self.group_codes[..len];
        if let Some(alphabet) = self.alphabet {
            check_alphabet(codes, alphabet)?;
        }
        decode_group_escapes(codes, &self.unpred, &mut self.bits, self.group_escapes)?;
        self.start = start;
        Ok(())
    }

    #[inline(always)]
    fn point(&mut self, flat: usize, pred: f64) -> T {
        let p = flat - self.start;
        let code = self.group_codes[p];
        if code == 0 {
            self.group_escapes[p]
        } else {
            T::from_f64(self.quantizer.reconstruct(code, pred))
        }
    }

    fn end_group(&mut self, _start: usize, _len: usize) -> Result<()> {
        if let Some(clock) = self.recon_clock.take() {
            self.recon_nanos += clock.elapsed().as_nanos() as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, Config, ErrorBound};

    fn sample_archive() -> Vec<u8> {
        let data = Tensor::from_fn([16, 16], |ix| (ix[0] + ix[1]) as f32);
        compress(&data, &Config::new(ErrorBound::Absolute(0.01))).unwrap()
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_archive();
        bytes[0] = b'X';
        assert!(matches!(
            decompress::<f32>(&bytes),
            Err(SzError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_scalar_type_is_detected() {
        let bytes = sample_archive();
        let err = decompress::<f64>(&bytes).unwrap_err();
        assert!(matches!(
            err,
            SzError::WrongType {
                expected: "f64",
                found: "f32"
            }
        ));
    }

    #[test]
    fn truncated_archives_error_cleanly() {
        let bytes = sample_archive();
        for cut in [0, 3, 8, 16, bytes.len() / 2, bytes.len() - 1] {
            let r = decompress::<f32>(&bytes[..cut]);
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn bit_flips_in_header_do_not_panic() {
        // Robustness: every single-byte corruption either errors or decodes;
        // it must never panic.
        let bytes = sample_archive();
        for pos in 0..bytes.len().min(64) {
            let mut copy = bytes.clone();
            copy[pos] ^= 0xFF;
            let _ = decompress::<f32>(&copy);
        }
    }

    /// The OR-reduced alphabet check flags exactly the groups holding a
    /// code at or above the alphabet, and names the first one.
    #[test]
    fn alphabet_check_names_the_first_code_outside() {
        assert!(check_alphabet(&[1, 255, 0, 128], 256).is_ok());
        assert!(check_alphabet(&[], 256).is_ok());
        for (codes, bad) in [(vec![1u32, 256, 3], 256u32), (vec![7, 300, 1 << 31], 300)] {
            match check_alphabet(&codes, 256) {
                Err(SzError::Corrupt(msg)) => assert!(msg.contains(&bad.to_string()), "{msg}"),
                other => panic!("{codes:?}: {other:?}"),
            }
        }
    }

    /// A header narrowed to fewer interval bits than the band's table
    /// codes: the fused decoder checks its groups against the alphabet and
    /// fails on the first code outside it instead of reconstructing it.
    #[test]
    fn fused_decode_rejects_codes_outside_a_narrowed_alphabet() {
        let data = Tensor::from_fn([64, 64], |ix| ((ix[0] * 13 + ix[1] * 7) % 97) as f32);
        let config = Config::new(ErrorBound::Absolute(0.01))
            .with_interval_bits(12)
            .without_lossless_pass();
        let mut bytes = compress(&data, &config).unwrap();
        const INTERVAL_BITS_AT: usize = MAGIC.len() + 3;
        assert_eq!(bytes[INTERVAL_BITS_AT], 12);
        bytes[INTERVAL_BITS_AT] = 4;
        match decompress::<f32>(&bytes) {
            Err(SzError::Corrupt(msg)) => assert!(msg.contains("outside alphabet"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    /// The smallest subnormal bound cannot be halved for decorrelation: a
    /// typed error on both sides, never the quantizer's assert.
    #[test]
    fn unhalvable_decorrelation_bound_is_a_typed_error() {
        let data = Tensor::from_fn([8, 8], |ix| (ix[0] + ix[1]) as f64);
        let tiny = ErrorBound::Absolute(f64::from_bits(1));
        assert!(matches!(
            compress(&data, &Config::new(tiny).with_decorrelation()),
            Err(SzError::InvalidConfig(_))
        ));
        let config = Config::new(ErrorBound::Absolute(1.0)).with_decorrelation();
        let mut bytes = compress(&data, &config).unwrap();
        bytes[9..17].copy_from_slice(&f64::from_bits(1).to_le_bytes());
        assert!(matches!(
            decompress::<f64>(&bytes),
            Err(SzError::Corrupt(_))
        ));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = sample_archive();
        bytes[4] = 99;
        assert!(decompress::<f32>(&bytes).is_err());
    }

    #[test]
    fn reused_kernel_decodes_same_family_archives() {
        let config = Config::new(ErrorBound::Absolute(0.01));
        // Same inner extent, different leading extents: one kernel serves all.
        let mut kernels = Vec::new();
        let mut scratch = DecodeScratch::default();
        for rows in [3usize, 16, 31] {
            let data = Tensor::from_fn([rows, 16], |ix| (ix[0] * 2 + ix[1]) as f32 * 0.3);
            let bytes = compress(&data, &config).unwrap();
            let fresh: Tensor<f32> = decompress(&bytes).unwrap();
            let mut reused = vec![0f32; fresh.len()];
            decompress_cached(
                &bytes,
                None,
                &mut kernels,
                &mut scratch,
                DecodePolicy::Strict,
                None,
                |_| &mut reused[..],
            )
            .unwrap();
            assert_eq!(fresh.as_slice(), &reused[..], "rows {rows}");
        }
        assert_eq!(kernels.len(), 1);
    }

    /// A cached kernel of another stride family or layer count is never
    /// used to decode: the cache passes it over and builds a matching one.
    #[test]
    fn mismatched_kernel_is_rejected() {
        let bytes = sample_archive(); // 16x16, 1 layer
        let mut kernels = vec![ScanKernel::new(1, &[32, 1]), ScanKernel::new(2, &[16, 1])];
        let decoded = decompress_cached(
            &bytes,
            None,
            &mut kernels,
            &mut DecodeScratch::default(),
            DecodePolicy::Strict,
            None,
            |dims| vec![0f32; dims.iter().product()],
        )
        .unwrap();
        assert_eq!(&decoded[..], decompress::<f32>(&bytes).unwrap().as_slice());
        assert_eq!(kernels.len(), 3);
        assert!(kernels[2].layers() == 1 && kernels[2].matches(&Shape::new(&[16, 16])));
    }
}

#[cfg(test)]
mod inspect_tests {
    use super::*;
    use crate::{compress, Config, ErrorBound};

    #[test]
    fn inspect_reads_header_without_decoding() {
        let data = Tensor::from_fn([20, 30], |ix| (ix[0] + ix[1]) as f64);
        let config = Config::new(ErrorBound::Absolute(0.25)).with_layers(2);
        let bytes = compress(&data, &config).unwrap();
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.dtype, "f64");
        assert_eq!(info.dims, vec![20, 30]);
        assert_eq!(info.layers, 2);
        assert_eq!(info.error_bound, 0.25);
        assert!(!info.decorrelated);
        assert_eq!(info.len(), 600);
        assert!(info.compression_factor() > 1.0);
        assert_eq!(info.archive_bytes, bytes.len());
    }

    #[test]
    fn inspect_rejects_garbage() {
        assert!(inspect(&[0u8; 16]).is_err());
        assert!(inspect(&[]).is_err());
    }
}

#[cfg(test)]
mod escape_lz_tests {
    use super::*;
    use crate::compress::{VERSION_ESCLZ, VERSION_V3};
    use crate::{compress, Config, ErrorBound};

    /// Values from a tiny alphabet of wildly separated magnitudes: nearly
    /// every point escapes, and the escape bit-stream is periodic — the
    /// adversarial-best case for LZ over the escape section.
    fn escape_heavy() -> Tensor<f32> {
        const ALPHABET: [f32; 5] = [0.0, 1.0e8, -3.0e7, 7.0e6, -9.0e5];
        Tensor::from_fn([64, 64], |ix| ALPHABET[(ix[0] * 64 + ix[1]) % 5])
    }

    /// Keyed-hash noise across sign, exponent spread and mantissa: escape
    /// records share no byte-level structure, so DEFLATE can recover at
    /// most a fraction of a percent from residual bit bias, far below the
    /// trial's 2%. The trial skips the pass.
    fn incompressible(rows: usize) -> Tensor<f32> {
        Tensor::from_fn([rows, rows], |ix| {
            let h = ((ix[0] * rows + ix[1]) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mant = ((h >> 32) as u32) & 0x007F_FFFF;
            let exp = 127 + ((h >> 59) as u32 & 15);
            let sign = ((h >> 55) as u32 & 1) << 31;
            f32::from_bits(sign | (exp << 23) | mant)
        })
    }

    #[test]
    fn winning_trial_emits_v5_and_roundtrips() {
        let data = escape_heavy();
        let base = Config::new(ErrorBound::Absolute(1e-3));
        let plain = compress(&data, &base).unwrap();
        let esc = compress(&data, &base.with_escape_lz()).unwrap();
        assert_eq!(esc[4], VERSION_ESCLZ, "periodic escapes must win the trial");
        assert!(
            esc.len() < plain.len(),
            "escape-LZ archive {} must beat v3 {}",
            esc.len(),
            plain.len()
        );
        let out: Tensor<f32> = decompress(&esc).unwrap();
        let oracle: Tensor<f32> = decompress(&plain).unwrap();
        assert_eq!(out.as_slice(), oracle.as_slice());
        let info = inspect(&esc).unwrap();
        assert!(info.escape_lz && info.checksummed);
        assert!(!inspect(&plain).unwrap().escape_lz);
    }

    #[test]
    fn losing_trial_is_byte_identical_to_v3() {
        // ~850 escape bytes: the trial predicts no saving, so the pass
        // never runs.
        let data = incompressible(16);
        let base = Config::new(ErrorBound::Absolute(1e-3));
        let plain = compress(&data, &base).unwrap();
        let esc = compress(&data, &base.with_escape_lz()).unwrap();
        assert_eq!(plain, esc, "a losing trial must leave the archive alone");
        assert_eq!(plain[4], VERSION_V3);
    }

    #[test]
    fn sample_gate_skips_large_incompressible_streams() {
        // ~85 KiB of escape bytes: the trial predicts a saving under 2%,
        // so the pass is skipped and the archive stays v3 byte-identical.
        let data = incompressible(160);
        let base = Config::new(ErrorBound::Absolute(1e-3));
        let plain = compress(&data, &base).unwrap();
        let esc = compress(&data, &base.with_escape_lz()).unwrap();
        assert_eq!(plain, esc);
        assert_eq!(plain[4], VERSION_V3);
    }

    #[test]
    fn tiny_escape_sections_skip_the_trial() {
        // A smooth ramp with two spikes: a handful of escape bytes, below
        // the trial's minimum — the flag must be a byte-identical no-op.
        let data = Tensor::from_fn([32, 32], |ix| {
            let flat = ix[0] * 32 + ix[1];
            if flat == 100 || flat == 900 {
                5.0e7f32
            } else {
                flat as f32 * 0.25
            }
        });
        let base = Config::new(ErrorBound::Absolute(1e-3));
        let plain = compress(&data, &base).unwrap();
        let esc = compress(&data, &base.with_escape_lz()).unwrap();
        assert_eq!(plain, esc);
        assert_eq!(plain[4], VERSION_V3);
    }

    #[test]
    fn v5_layout_reports_inflated_escape_bytes() {
        let data = escape_heavy();
        let config = Config::new(ErrorBound::Absolute(1e-3)).with_escape_lz();
        let bytes = compress(&data, &config).unwrap();
        let layout = inspect_layout(&bytes).unwrap();
        assert!(layout.info.escape_lz);
        // The inflated escape stream is bigger than the whole archive —
        // only possible if the stored section was deflated.
        assert!(layout.unpredictable_bytes > bytes.len());
    }

    #[test]
    fn verify_policy_catches_escape_corruption() {
        let data = escape_heavy();
        let config = Config::new(ErrorBound::Absolute(1e-3)).with_escape_lz();
        let bytes = compress(&data, &config).unwrap();
        // Flip every byte in turn across the back half (deflated escape
        // section + trailer): each decode must fail typed or succeed —
        // never panic — and a Verify decode must never return wrong data.
        let oracle: Tensor<f32> = decompress(&bytes).unwrap();
        for pos in (bytes.len() / 2)..bytes.len() {
            let mut copy = bytes.clone();
            copy[pos] ^= 0xFF;
            if let Ok(out) = decompress_with_policy::<f32>(&copy, DecodePolicy::Verify) {
                assert_eq!(out.as_slice(), oracle.as_slice(), "flip at {pos}");
            }
        }
    }
}
