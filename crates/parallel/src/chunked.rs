//! Chunked (embarrassingly parallel) compression: the SZCK container format
//! and [`BandExecutor`], the one scoped band runner every chunked driver
//! goes through.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use szr_bitstream::{ByteReader, ByteWriter};
use szr_core::{
    check_declared_len, ArchiveInfo, BandDamage, CodecSession, Config, DecodePolicy, ErrorBound,
    HuffmanTable, QuantizedBand, Result, SalvageReport, ScalarFloat, SzError,
};
use szr_huffman::HuffmanCodec;
use szr_planner::plan_band_config_with_estimate;
use szr_telemetry::{Counter, RecordingSink, TelemetrySink};
use szr_tensor::{Shape, Tensor};

use crate::scheduler::BandScheduler;

/// A tensor compressed as per-band archives.
///
/// Bands split the slowest dimension, so each band is a contiguous slice of
/// the row-major buffer and carries a complete self-describing archive —
/// exactly the paper's in-situ model where every rank owns a horizontal
/// slab. [`Strategy::Shared`] and [`Strategy::Fused`] amortize the entropy
/// stage instead: one Huffman table stored once in `shared_table` and
/// referenced by version-2 band archives (bands whose distribution diverges
/// keep their own embedded table).
#[derive(Debug, Clone)]
pub struct ChunkedArchive {
    /// Original tensor dimensions.
    pub dims: Vec<usize>,
    /// One complete archive per band, in band order.
    pub chunks: Vec<Vec<u8>>,
    /// Serialized shared Huffman table (present when at least one band is a
    /// version-2 shared-stream archive).
    pub shared_table: Option<Vec<u8>>,
}

/// Serialized [`ChunkedArchive`] magic bytes.
const CHUNKED_MAGIC: [u8; 4] = *b"SZCK";
/// Serialized format version written by [`ChunkedArchive::to_bytes`].
/// Version 1 introduced the flagged, versioned shared-table field; version
/// 2 adds the band-region length and a CRC-sealed band index after the
/// bands (random-access seeks). Readers accept both and reject higher
/// versions loudly.
const CHUNKED_VERSION: u8 = 2;
/// The un-indexed legacy version ([`ChunkedArchive::to_bytes_legacy`]).
const CHUNKED_V1: u8 = 1;

/// A [`SzError::Corrupt`] result.
fn corrupt<T>(msg: impl Into<String>) -> Result<T> {
    Err(SzError::Corrupt(msg.into()))
}

/// Header fields shared by every parse entry point, plus the reader
/// positioned at the band region.
struct ChunkedHeader {
    version: u8,
    dims: Vec<usize>,
    shared_table: Option<(usize, usize)>,
    count: usize,
    /// Declared band-region byte length (v2+; `None` on v1, whose band
    /// region simply runs to wherever the last band ends).
    band_region_len: Option<usize>,
    /// Absolute offset of the band region (first band's length prefix).
    band_region_start: usize,
}

/// Parses the container header (magic through band count), accepting both
/// the legacy v1 and the indexed v2 layouts.
fn parse_header<'a>(bytes: &'a [u8]) -> Result<(ChunkedHeader, ByteReader<'a>)> {
    let mut reader = ByteReader::new(bytes);
    if reader.read_bytes(4)? != CHUNKED_MAGIC {
        return corrupt("bad chunked-archive magic");
    }
    let version = reader.read_u8()?;
    if version == 0 || version > CHUNKED_VERSION {
        return corrupt(format!("unsupported chunked-archive version {version}"));
    }
    let has_shared = match reader.read_u8()? {
        0 => false,
        1 => true,
        _ => return corrupt("bad shared-table flag"),
    };
    let ndim = reader.read_varint()? as usize;
    if !(1..=16).contains(&ndim) {
        return corrupt("implausible chunked rank");
    }
    let mut dims = Vec::with_capacity(ndim);
    let mut product: u128 = 1;
    for _ in 0..ndim {
        let d = reader.read_varint()? as usize;
        if d == 0 {
            return corrupt("zero-extent dimension");
        }
        product *= d as u128;
        // Same plausibility ceiling as the core archive header: corrupt
        // dims must error here, not drive a wild allocation in
        // decompress_chunked's output buffer.
        if product > (1u128 << 40) {
            return corrupt("element count implausibly large");
        }
        dims.push(d);
    }
    let shared_table = if has_shared {
        let table = reader.read_len_prefixed()?;
        Some((reader.pos() - table.len(), reader.pos()))
    } else {
        None
    };
    let count = reader.read_varint()? as usize;
    if count > reader.remaining() {
        return corrupt("implausible band count");
    }
    let band_region_len = if version >= 2 {
        let len = reader.read_varint()? as usize;
        if len > reader.remaining() {
            return corrupt("band region overruns the archive bytes");
        }
        Some(len)
    } else {
        None
    };
    let band_region_start = reader.pos();
    Ok((
        ChunkedHeader {
            version,
            dims,
            shared_table,
            count,
            band_region_len,
            band_region_start,
        },
        reader,
    ))
}

/// One band's location inside a serialized chunked archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandIndexEntry {
    /// Absolute byte offset of the band payload (after its length prefix).
    pub offset: usize,
    /// Band payload length in bytes.
    pub len: usize,
    /// Rows (slowest-dimension extent) the band reconstructs.
    pub rows: usize,
}

/// The random-access band table of a serialized [`ChunkedArchive`]: where
/// every band's bytes live and how many rows it covers, so a reader can
/// seek straight to the bands a query touches — O(touched bands), never
/// O(archive).
///
/// Offsets are absolute into the serialized container. Obtained either
/// from the CRC-sealed on-disk index ([`ChunkedArchive::peek_index`],
/// `from_index == true`) or rebuilt by the sequential band walk
/// ([`band_index`]'s fallback for v1 archives and damaged indexes,
/// `from_index == false`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandIndex {
    /// Container format version (1 = legacy un-indexed, 2 = indexed).
    pub version: u8,
    /// Full-tensor dims (slowest first).
    pub dims: Vec<usize>,
    /// Absolute byte range of the serialized shared Huffman table, if any.
    pub shared_table: Option<(usize, usize)>,
    /// Absolute byte range of the band region (length prefixes included).
    pub band_region: (usize, usize),
    /// Per-band location and row extent, in band order.
    pub entries: Vec<BandIndexEntry>,
    /// Stored index CRC-32 (0 when rebuilt by the sequential walk).
    pub crc: u32,
    /// Whether this came from the on-disk index (vs the sequential walk).
    pub from_index: bool,
}

impl BandIndex {
    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.entries.len()
    }

    /// Borrowed payload bytes of band `band`, bounds-checked against the
    /// archive.
    pub fn band_slice<'a>(&self, bytes: &'a [u8], band: usize) -> Result<&'a [u8]> {
        let entry = self
            .entries
            .get(band)
            .ok_or_else(|| SzError::Corrupt(format!("index: band {band} out of range")))?;
        bytes
            .get(entry.offset..entry.offset + entry.len)
            .ok_or_else(|| SzError::Corrupt(format!("index: band {band} overruns the archive")))
    }

    /// Borrowed serialized shared Huffman table, if the archive has one.
    pub fn shared_table_slice<'a>(&self, bytes: &'a [u8]) -> Option<&'a [u8]> {
        self.shared_table
            .and_then(|(start, end)| bytes.get(start..end))
    }

    /// Maps a slowest-dimension row range onto the bands covering it:
    /// `(band range, first covered band's starting row)`.
    pub fn bands_covering_rows(&self, rows: Range<usize>) -> Result<(Range<usize>, usize)> {
        if rows.start >= rows.end || rows.end > self.dims[0] {
            return Err(SzError::InvalidConfig(
                "row range is empty or exceeds the container extent",
            ));
        }
        // Each band's end row; bands `start..end` are the first one ending
        // past `rows.start` through the first one reaching `rows.end`.
        let mut ends: Vec<usize> = Vec::with_capacity(self.entries.len());
        for entry in &self.entries {
            ends.push(ends.last().unwrap_or(&0) + entry.rows);
        }
        let start = ends.partition_point(|&end| end <= rows.start);
        if start == ends.len() {
            return corrupt("index: band rows do not cover the requested range");
        }
        let end = (ends.partition_point(|&end| end < rows.end) + 1).min(ends.len());
        Ok((start..end, start.checked_sub(1).map_or(0, |b| ends[b])))
    }
}

impl ChunkedArchive {
    /// Total compressed size in bytes (band archives + shared table).
    pub fn compressed_bytes(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum::<usize>()
            + self.shared_table.as_ref().map_or(0, Vec::len)
    }

    /// Serializes the archive in the indexed v2 layout: header, optional
    /// shared table, band count, band-region length, the length-prefixed
    /// bands (unchanged from v1, so sequential readers never touch the
    /// index), then the band index — per band `(offset, len, rows)` varints
    /// relative to the band region — sealed by a CRC-32 like the v3 band
    /// framing. A reader seeks `header + band_region_len` to land on the
    /// index without walking any band.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.serialize(CHUNKED_VERSION)
    }

    /// Serializes in the legacy un-indexed v1 layout (compatibility escape
    /// hatch, and the compat-test fixture for old readers).
    pub fn to_bytes_legacy(&self) -> Vec<u8> {
        self.serialize(CHUNKED_V1)
    }

    fn serialize(&self, version: u8) -> Vec<u8> {
        let mut out = ByteWriter::with_capacity(self.compressed_bytes() + 64);
        out.write_bytes(&CHUNKED_MAGIC);
        out.write_u8(version);
        out.write_u8(self.shared_table.is_some() as u8);
        out.write_varint(self.dims.len() as u64);
        for &d in &self.dims {
            out.write_varint(d as u64);
        }
        if let Some(table) = &self.shared_table {
            out.write_len_prefixed(table);
        }
        out.write_varint(self.chunks.len() as u64);
        if version >= 2 {
            let band_region_len: usize = self
                .chunks
                .iter()
                .map(|c| ByteWriter::varint_len(c.len() as u64) + c.len())
                .sum();
            out.write_varint(band_region_len as u64);
        }
        let mut offsets = Vec::with_capacity(self.chunks.len());
        let region_start = out.len();
        for chunk in &self.chunks {
            out.write_len_prefixed(chunk);
            offsets.push(out.len() - region_start - chunk.len());
        }
        if version >= 2 {
            let mut index = ByteWriter::with_capacity(self.chunks.len() * 6 + 4);
            for (chunk, &offset) in self.chunks.iter().zip(&offsets) {
                index.write_varint(offset as u64);
                index.write_varint(chunk.len() as u64);
                // Row extent from the band's own header; a band that does
                // not parse records 0 rows, which readers reject as an
                // invalid index and fall back to the sequential walk.
                let rows = szr_core::inspect(chunk)
                    .map(|info| info.dims[0])
                    .unwrap_or(0);
                index.write_varint(rows as u64);
            }
            let crc = szr_deflate::crc32(index.as_bytes());
            out.write_bytes(index.as_bytes());
            out.write_u32(crc);
        }
        out.into_bytes()
    }

    /// Parses a serialized archive produced by [`Self::to_bytes`] (or the
    /// legacy [`Self::to_bytes_legacy`]) through the sequential band walk.
    ///
    /// The band index is *ignored* here: the length-prefixed band walk is
    /// authoritative, so an archive with a damaged index still parses (and
    /// decodes byte-identically) — only the random-access entry points
    /// ([`Self::peek_index`], [`BandExecutor::read`]) care about index
    /// integrity.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (header, mut reader) = parse_header(bytes)?;
        let mut chunks = Vec::with_capacity(header.count);
        for _ in 0..header.count {
            chunks.push(reader.read_len_prefixed()?.to_vec());
        }
        Ok(Self {
            dims: header.dims,
            chunks,
            shared_table: header
                .shared_table
                .map(|(start, end)| bytes[start..end].to_vec()),
        })
    }

    /// Header-only metadata for `szr stat`-style queries: format version,
    /// dims, band count, shared-table size, index validity, and the first
    /// band's own header ([`ArchiveInfo`]: dtype, error bound, layers).
    /// Costs O(header + index + one band header) — no payload is decoded.
    pub fn peek_stat(bytes: &[u8]) -> Result<ChunkedStat> {
        let (header, mut reader) = parse_header(bytes)?;
        let first_band = match header.count {
            0 => None,
            _ => szr_core::inspect(reader.read_len_prefixed()?).ok(),
        };
        Ok(ChunkedStat {
            version: header.version,
            shared_table_bytes: header.shared_table.map_or(0, |(s, e)| e - s),
            bands: header.count,
            indexed: header.version >= 2 && Self::peek_index(bytes).is_ok(),
            dims: header.dims,
            first_band,
        })
    }

    /// Reads and verifies the on-disk band index without touching any band
    /// payload: seeks `header + band_region_len`, parses the entries, and
    /// checks the seal. O(header + index).
    ///
    /// # Errors
    /// [`SzError::Corrupt`] named `index:` when the archive is un-indexed
    /// (v1) or the index is damaged — wrong CRC, non-monotonic or
    /// out-of-bounds offsets, or row extents that disagree with the
    /// container dims. Callers wanting the always-works path use
    /// [`band_index`], which falls back to the sequential walk.
    pub fn peek_index(bytes: &[u8]) -> Result<BandIndex> {
        let (header, _) = parse_header(bytes)?;
        let Some(band_region_len) = header.band_region_len else {
            return corrupt("index: archive is un-indexed (version 1)");
        };
        let index_start = header.band_region_start + band_region_len;
        let Some(index_bytes) = bytes.get(index_start..) else {
            return corrupt("index: band region overruns archive");
        };
        let mut reader = ByteReader::new(index_bytes);
        let mut entries = Vec::with_capacity(header.count);
        let mut prev_end = 0usize;
        let mut rows_total = 0usize;
        for band in 0..header.count {
            let mut field = || match reader.read_varint() {
                Ok(v) => Ok(v as usize),
                Err(_) => corrupt(format!("index: truncated at entry {band}")),
            };
            let (offset, len, rows) = (field()?, field()?, field()?);
            // Offsets are relative to the band region and must march
            // strictly forward through it: each payload starts after the
            // previous one's end (its own length prefix sits between), and
            // nothing may reach past the region. Any violation means a
            // seek through this index would read the wrong bytes.
            if offset < prev_end + 1 || offset.saturating_add(len) > band_region_len {
                return corrupt(format!("index: entry {band} offsets are inconsistent"));
            }
            if rows == 0 || rows > header.dims[0] {
                return corrupt(format!("index: entry {band} declares {rows} rows"));
            }
            prev_end = offset + len;
            rows_total += rows;
            entries.push(BandIndexEntry {
                offset: header.band_region_start + offset,
                len,
                rows,
            });
        }
        let entry_bytes = reader.pos();
        let crc = reader
            .read_u32()
            .map_err(|_| SzError::Corrupt("index: truncated checksum".into()))?;
        let actual = szr_deflate::crc32(&bytes[index_start..index_start + entry_bytes]);
        if crc != actual {
            return corrupt(format!(
                "index: checksum mismatch (stored {crc:#010x}, computed {actual:#010x})"
            ));
        }
        if rows_total != header.dims[0] {
            return corrupt("index: band rows disagree with the container extent");
        }
        Ok(BandIndex {
            version: header.version,
            dims: header.dims,
            shared_table: header.shared_table,
            band_region: (header.band_region_start, index_start),
            entries,
            crc,
            from_index: true,
        })
    }
}

/// Header-only chunked-container metadata ([`ChunkedArchive::peek_stat`]).
#[derive(Debug, Clone)]
pub struct ChunkedStat {
    /// Container format version (1 legacy, 2 indexed).
    pub version: u8,
    /// Full-tensor dims (slowest first).
    pub dims: Vec<usize>,
    /// Number of bands.
    pub bands: usize,
    /// Serialized shared Huffman table bytes (0 when per-band tables).
    pub shared_table_bytes: usize,
    /// Whether a valid CRC-sealed band index is present.
    pub indexed: bool,
    /// The first band's own header, when it parses (dtype, error bound,
    /// layers, interval bits).
    pub first_band: Option<ArchiveInfo>,
}

/// The band table of a serialized chunked archive, from the on-disk index
/// when it is present and intact, else rebuilt by the sequential band walk
/// (length-prefix hops plus one O(1) header peek per band for row extents).
///
/// This is the "damaged index degrades, never lies" entry point: a v1
/// archive or a corrupt index costs O(bands) header hops instead of
/// O(index), but seeks derived from the result are always consistent with
/// the band walk [`ChunkedArchive::from_bytes`] performs.
pub fn band_index(bytes: &[u8]) -> Result<BandIndex> {
    if let Ok(index) = ChunkedArchive::peek_index(bytes) {
        return Ok(index);
    }
    let (header, mut reader) = parse_header(bytes)?;
    let mut entries = Vec::with_capacity(header.count);
    for band in 0..header.count {
        let chunk = reader.read_len_prefixed()?;
        let rows = szr_core::inspect(chunk)
            .map_err(|e| SzError::Corrupt(format!("band {band}: {e}")))?
            .dims[0];
        entries.push(BandIndexEntry {
            offset: reader.pos() - chunk.len(),
            len: chunk.len(),
            rows,
        });
    }
    if entries.iter().map(|e| e.rows).sum::<usize>() != header.dims[0] {
        return corrupt("band rows do not cover the container extent");
    }
    Ok(BandIndex {
        version: header.version,
        dims: header.dims,
        shared_table: header.shared_table,
        band_region: (header.band_region_start, reader.pos()),
        entries,
        crc: 0,
        from_index: false,
    })
}

/// Splits `extent` into `parts` contiguous ranges as evenly as possible.
///
/// An empty extent yields no ranges (rather than panicking on
/// `clamp(1, 0)`): empty tensors have no bands.
fn band_ranges(extent: usize, parts: usize) -> Vec<(usize, usize)> {
    if extent == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, extent);
    let base = extent / parts;
    let rem = extent % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 0..parts {
        let len = base + usize::from(i < rem);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// The even row split of a tensor into bands along its slowest dimension,
/// shared by every chunked compression (and the `szr-server` compress
/// jobs), so all of them cut identical bands.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct BandSplit {
    dims: Vec<usize>,
    ranges: Vec<(usize, usize)>,
    row_elems: usize,
}

impl BandSplit {
    /// Splits a tensor shaped `dims` into `parts` bands (none for an empty
    /// extent).
    pub fn new(dims: &[usize], parts: usize) -> Self {
        BandSplit {
            dims: dims.to_vec(),
            ranges: band_ranges(dims[0], parts.max(1)),
            row_elems: dims[1..].iter().product::<usize>().max(1),
        }
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.ranges.len()
    }

    /// Band `band`'s values (a contiguous slice of the row-major buffer)
    /// and shape.
    pub fn band<'v, T>(&self, values: &'v [T], band: usize) -> (&'v [T], Shape) {
        let (r0, r1) = self.ranges[band];
        let mut dims = self.dims.clone();
        dims[0] = r1 - r0;
        (self.rows(values, r0..r1), Shape::new(&dims))
    }

    fn rows<'v, T>(&self, values: &'v [T], rows: Range<usize>) -> &'v [T] {
        &values[rows.start * self.row_elems..rows.end * self.row_elems]
    }
}

/// Compresses band `band` of `values` as a self-contained archive, stamping
/// the band's telemetry record with its index.
#[doc(hidden)]
pub fn compress_band<T: ScalarFloat>(
    session: &mut CodecSession<T>,
    values: &[T],
    split: &BandSplit,
    band: usize,
) -> Result<Vec<u8>> {
    let (slice, shape) = split.band(values, band);
    session.set_next_band_index(band as u64);
    session
        .compress_slice(slice, &shape)
        .map(|(bytes, _)| bytes)
}

/// Decodes one band archive; version-2 shared-stream bands need `codec`,
/// self-contained bands ignore it.
fn decode_chunk<T: ScalarFloat>(
    session: &mut CodecSession<T>,
    chunk: &[u8],
    codec: Option<&HuffmanCodec>,
) -> Result<Tensor<T>> {
    match codec {
        Some(codec) => session.decompress_shared(chunk, codec),
        None => session.decompress(chunk),
    }
}

/// [`decode_chunk`] into `out`, which holds exactly the band's values.
fn decode_chunk_into<T: ScalarFloat>(
    session: &mut CodecSession<T>,
    chunk: &[u8],
    codec: Option<&HuffmanCodec>,
    out: &mut [T],
) -> Result<()> {
    match codec {
        Some(codec) => session.decompress_shared_into(chunk, codec, out),
        None => session.decompress_into(chunk, out),
    }
}

/// A band archive's row extent, read from its own header and checked
/// against the container shaped `dims` it sits in: the same scalar type
/// and the container's inner dims. No payload is read.
fn band_rows<T: ScalarFloat>(chunk: &[u8], dims: &[usize]) -> Result<usize> {
    let grid = szr_core::inspect_grid(chunk)?;
    if grid.dtype() != T::NAME {
        return Err(SzError::WrongType {
            expected: T::NAME,
            found: grid.dtype(),
        });
    }
    if grid.dims()[1..] != dims[1..] {
        return corrupt("band inner dimensions disagree");
    }
    Ok(grid.dims()[0])
}

/// Every band's row extent from its own header ([`band_rows`]), checked to
/// tile the container's slowest extent exactly — before anything decodes.
fn band_extents<'c, T: ScalarFloat>(
    dims: &[usize],
    chunks: impl IntoIterator<Item = &'c [u8]>,
) -> Result<Vec<usize>> {
    let chunks = chunks.into_iter();
    let mut extents = Vec::with_capacity(chunks.size_hint().0);
    let mut covered = 0usize;
    for chunk in chunks {
        let rows = band_rows::<T>(chunk, dims)?;
        if rows > dims[0] - covered {
            return corrupt("bands overrun the original extent");
        }
        covered += rows;
        extents.push(rows);
    }
    if covered != dims[0] {
        return corrupt("bands do not cover the original extent");
    }
    Ok(extents)
}

impl BandIndex {
    /// Values per slowest-dimension row.
    pub fn row_elems(&self) -> usize {
        self.dims[1..].iter().product::<usize>().max(1)
    }

    /// Checks the index's row extents of bands `bands` against each band's
    /// own header and bytes, before any buffer is sized from them. A band
    /// of another extent or inner shape would misplace every later row,
    /// and an extent its bytes cannot back would size a wild allocation,
    /// so both are hard errors, not a silent shift.
    #[doc(hidden)]
    pub fn check_bands<T: ScalarFloat>(&self, bytes: &[u8], bands: Range<usize>) -> Result<()> {
        for band in bands {
            let chunk = self.band_slice(bytes, band)?;
            let rows = self.entries[band].rows;
            if band_rows::<T>(chunk, &self.dims)? != rows {
                return corrupt("index: band row extent disagrees with the band's header");
            }
            check_declared_len(rows.saturating_mul(self.row_elems()), chunk.len())?;
        }
        Ok(())
    }

    /// Decodes band `band` of the serialized archive `bytes` into `out`,
    /// which holds the index's row extent of it, checked by
    /// [`BandIndex::check_bands`].
    #[doc(hidden)]
    pub fn decode_band_into<T: ScalarFloat>(
        &self,
        session: &mut CodecSession<T>,
        bytes: &[u8],
        band: usize,
        codec: Option<&HuffmanCodec>,
        out: &mut [T],
    ) -> Result<()> {
        decode_chunk_into(session, self.band_slice(bytes, band)?, codec, out)
    }
}

/// Rebuilds a container's serialized shared Huffman table, if it has one.
#[doc(hidden)]
pub fn shared_codec(table: Option<&[u8]>) -> Result<Option<HuffmanCodec>> {
    table
        .map(szr_huffman::deserialize_codec)
        .transpose()
        .map_err(|e| SzError::Corrupt(format!("shared huffman table: {e}")))
}

/// Resolves `config`'s bound against the whole tensor's finite value range,
/// so every band honours one absolute guarantee whatever its local range
/// (infinities and NaNs are carried exactly, never priced). Returns the
/// pinned config and its absolute bound.
fn pin_bound<T: ScalarFloat>(config: &Config, values: &[T]) -> Result<(Config, f64)> {
    let eb = config.bound.effective(szr_metrics::value_range(values));
    let pinned = Config {
        bound: ErrorBound::Absolute(eb),
        ..*config
    };
    pinned.validate()?;
    Ok((pinned, eb))
}

/// Band archives in band order, plus the serialized shared Huffman table
/// when any band references one.
type BandArchives = (Vec<Vec<u8>>, Option<Vec<u8>>);

/// A decode-only session under `policy`.
fn decoder<T: ScalarFloat>(policy: DecodePolicy) -> CodecSession<T> {
    let mut session = CodecSession::decoder();
    session.set_decode_policy(policy);
    session
}

/// A chunked decode checked and ready to run on a [`BandExecutor`]: the
/// band archives to decode, each one's row extent, the rows of their
/// concatenation to keep, and the container's shared codec. Building one
/// reads headers (and the band index, for a row range) and allocates
/// nothing output-sized, so a caller can size or open its output from
/// [`BandPlan::dims`] before any band decodes.
pub struct BandPlan<'b, T> {
    bands: Vec<&'b [u8]>,
    extents: Vec<usize>,
    keep: Range<usize>,
    row_elems: usize,
    dims: Vec<usize>,
    codec: Option<HuffmanCodec>,
    values: PhantomData<fn() -> T>,
}

impl<'b, T: ScalarFloat> BandPlan<'b, T> {
    /// Every band of `archive`. Extents are read from each band's own
    /// header and checked to tile the container, and the container's dims
    /// are bounded by the bytes present, before anything is sized from
    /// them; the band index plays no part, so a damaged one never blocks a
    /// full decode.
    pub fn full(archive: &'b ChunkedArchive) -> Result<Self> {
        let dims = &archive.dims;
        check_declared_len(dims.iter().product(), archive.compressed_bytes() + 1)?;
        let codec = shared_codec(archive.shared_table.as_deref())?;
        let bands: Vec<&[u8]> = archive.chunks.iter().map(Vec::as_slice).collect();
        let extents = band_extents::<T>(dims, bands.iter().copied())?;
        Ok(BandPlan {
            bands,
            extents,
            keep: 0..dims[0],
            row_elems: dims[1..].iter().product::<usize>().max(1),
            dims: dims.clone(),
            codec,
            values: PhantomData,
        })
    }

    /// Slowest-dimension rows `rows` of the serialized archive `bytes`,
    /// through its band table `index` ([`band_index`]): only the bands
    /// covering them, each checked against its own header
    /// ([`BandIndex::check_bands`]) before the kept rows are sized.
    pub fn rows(bytes: &'b [u8], index: &BandIndex, rows: Range<usize>) -> Result<Self> {
        let (bands, first_row) = index.bands_covering_rows(rows.clone())?;
        index.check_bands::<T>(bytes, bands.clone())?;
        let codec = shared_codec(index.shared_table_slice(bytes))?;
        let extents: Vec<usize> = index.entries[bands.clone()]
            .iter()
            .map(|e| e.rows)
            .collect();
        let keep = rows.start - first_row..rows.end - first_row;
        if keep.end > extents.iter().sum() {
            return corrupt("index: covering bands hold fewer rows than declared");
        }
        let row_elems = index.row_elems();
        check_declared_len(keep.len() * row_elems, bytes.len())?;
        let mut dims = index.dims.clone();
        dims[0] = keep.len();
        Ok(BandPlan {
            bands: bands
                .map(|band| index.band_slice(bytes, band))
                .collect::<Result<_>>()?,
            extents,
            keep,
            row_elems,
            dims,
            codec,
            values: PhantomData,
        })
    }

    /// Dims of the decoded output (the kept rows, slowest first).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Values in the decoded output.
    pub fn len(&self) -> usize {
        self.keep.len() * self.row_elems
    }

    /// Whether the decoded output holds no values (never, for a plan
    /// that built).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Values per slowest-dimension row.
    pub fn row_elems(&self) -> usize {
        self.row_elems
    }
}

/// How [`BandExecutor::compress`] codes the bands. Archive bytes depend only
/// on the data, config and band count, never on threads or a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Self-contained band archives, each with its own Huffman table: the
    /// paper's in-situ model, where every rank owns a horizontal slab.
    Independent,
    /// One Huffman table merged from the bands' code histograms, stored
    /// once in [`ChunkedArchive::shared_table`]; a band whose own table
    /// plus payload is strictly smaller keeps a self-contained archive.
    Shared,
    /// A shared table fitted on a strided seed sample of the whole tensor
    /// before any band is scanned, so each band's codes stream straight
    /// into its bitstream (the fused fast path). Slightly larger archives
    /// than [`Strategy::Shared`]; faster compression.
    Fused,
    /// The planner picks each band's layer count and interval bits from
    /// `config.bound` alone; `szr_core::inspect` reads them back per band.
    Planned,
}

/// The one band executor behind every chunked driver: bands run on up to
/// `threads` scoped workers, each owning one `CodecSession` reused across
/// every band it claims; idle workers steal from the most loaded peer.
///
/// With a `sink`, each worker records into a private [`RecordingSink`],
/// merged into `sink` when the workers join (band records in band order,
/// steals as `scheduler_steals`). Output is identical with or without one.
#[derive(Clone, Copy)]
pub struct BandExecutor<'a> {
    /// Worker threads (clamped to `1..=bands`).
    pub threads: usize,
    /// Sink every worker's telemetry merges into.
    pub sink: Option<&'a RecordingSink>,
}

impl<'a> BandExecutor<'a> {
    /// An executor with `threads` workers and no telemetry.
    pub fn new(threads: usize) -> Self {
        BandExecutor {
            threads,
            sink: None,
        }
    }

    /// The scoped band runner: `task` for every band in `0..bands`, on
    /// workers with one session and one band buffer each (reused across
    /// every band the worker claims), results in band order.
    fn run<T: ScalarFloat, R: Send>(
        &self,
        bands: usize,
        session: impl Fn() -> CodecSession<T> + Sync,
        task: impl Fn(&mut CodecSession<T>, &mut Vec<T>, usize) -> R + Sync,
    ) -> Vec<R> {
        let threads = self.threads.clamp(1, bands.max(1));
        let sched = BandScheduler::new(bands, threads);
        let slots: Vec<Mutex<Option<R>>> = (0..bands).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let mut session = session();
                    let mut band_buf = Vec::new();
                    let worker_sink = self.sink.map(|_| Arc::new(RecordingSink::new()));
                    if let Some(ws) = &worker_sink {
                        session.set_telemetry(Some(ws.clone() as Arc<dyn TelemetrySink>));
                    }
                    let w = sched.register();
                    while let Some(band) = sched.next(w) {
                        let out = task(&mut session, &mut band_buf, band);
                        *slots[band].lock().unwrap() = Some(out);
                    }
                    if let (Some(sink), Some(ws)) = (self.sink, &worker_sink) {
                        sink.merge_from(ws);
                    }
                });
            }
        });
        if let (Some(sink), steals @ 1..) = (self.sink, sched.steals()) {
            sink.counter(Counter::SchedulerSteals, steals);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every band is claimed exactly once")
            })
            .collect()
    }

    /// Compresses `data` as `chunks` row bands under `strategy`. One band
    /// compresses like plain [`szr_core::compress`].
    pub fn compress<T: ScalarFloat + Send + Sync>(
        &self,
        data: &Tensor<T>,
        config: &Config,
        chunks: usize,
        strategy: Strategy,
    ) -> Result<ChunkedArchive> {
        config.validate()?;
        let split = BandSplit::new(data.dims(), chunks);
        let values = data.as_slice();
        let (chunks, shared_table) = match strategy {
            Strategy::Independent => self.independent(values, config, &split),
            Strategy::Shared => self.shared(values, config, &split),
            // Per-point dither state cannot fuse; the staged shared path is
            // the correct (and still table-sharing) fallback.
            Strategy::Fused if config.decorrelate => self.shared(values, config, &split),
            Strategy::Fused if split.bands() <= 1 => self.independent(values, config, &split),
            Strategy::Fused => self.fused(values, config, &split),
            Strategy::Planned => self.planned(values, config, &split),
        }?;
        Ok(ChunkedArchive {
            dims: split.dims,
            chunks,
            shared_table,
        })
    }

    fn independent<T: ScalarFloat + Send + Sync>(
        &self,
        values: &[T],
        config: &Config,
        split: &BandSplit,
    ) -> Result<BandArchives> {
        let chunks = self.run(
            split.bands(),
            || CodecSession::new(*config).expect("config validated"),
            |session, _, band| compress_band(session, values, split, band),
        );
        Ok((chunks.into_iter().collect::<Result<_>>()?, None))
    }

    fn planned<T: ScalarFloat + Send + Sync>(
        &self,
        values: &[T],
        config: &Config,
        split: &BandSplit,
    ) -> Result<BandArchives> {
        let (_, eb_abs) = pin_bound(config, values)?;
        // Per-band plans may pick different layer counts; the session's
        // kernel cache keys on (layers, stride family), so one session per
        // worker still reuses everything.
        let chunks = self.run(split.bands(), CodecSession::decoder, |session, _, band| {
            let (slice, shape) = split.band(values, band);
            let (config, estimate) = plan_band_config_with_estimate(slice, &shape, eb_abs);
            session.set_planned_bits_per_value(Some(estimate));
            session.set_config(config)?;
            compress_band(session, values, split, band)
        });
        Ok((chunks.into_iter().collect::<Result<_>>()?, None))
    }

    fn shared<T: ScalarFloat + Send + Sync>(
        &self,
        values: &[T],
        config: &Config,
        split: &BandSplit,
    ) -> Result<BandArchives> {
        // Phase A (parallel): predict→quantize each band, holding the code
        // streams in memory (4 bytes/point, transient).
        let bands = self.run(
            split.bands(),
            || CodecSession::new(*config).expect("config validated"),
            |session, _, band| {
                let (slice, shape) = split.band(values, band);
                let quantized = session.quantize(slice, &shape)?;
                // Force the cached histogram here, in parallel, so the
                // serial merge below only reads it.
                quantized.histogram();
                Ok(quantized)
            },
        );
        let bands = bands.into_iter().collect::<Result<Vec<QuantizedBand>>>()?;

        // Phase B (serial): merge the bands' cached histograms (no
        // code-stream re-scan), padded to one common alphabet, build the
        // shared codec, and price every band both ways. The comparison is
        // exact: shared loses only when the band's own table *plus* its
        // shorter payload still undercuts the shared payload.
        let max_code = bands
            .iter()
            .map(|b| b.histogram().len())
            .max()
            .unwrap_or(0)
            .max(1);
        let mut merged = vec![0u64; max_code];
        for band in &bands {
            for (m, f) in merged.iter_mut().zip(band.histogram()) {
                *m += f;
            }
        }
        let shared = HuffmanCodec::from_frequencies(&merged);
        let table_bits =
            |codec: &HuffmanCodec| 8 * szr_huffman::serialize_codec(codec).len() as u64;
        // Per band: `Some(bits saved)` when the shared table wins.
        let saved: Vec<Option<u64>> = bands
            .iter()
            .map(|band| {
                let mut freqs = band.histogram().to_vec();
                freqs.resize(max_code, 0);
                let own = HuffmanCodec::from_frequencies(&freqs);
                let own_bits = own.payload_bits(&freqs) + table_bits(&own);
                own_bits.checked_sub(shared.payload_bits(&freqs))
            })
            .collect();
        // Sharing must win *net of storing the table once*: otherwise a set
        // of marginal bands could pay for a table nobody amortizes and the
        // archive would come out larger than plain per-band chunking.
        let saved_bits: u64 = saved.iter().flatten().sum();
        let any_shared = bands.len() > 1 && saved_bits >= table_bits(&shared);

        // Phase C (parallel): entropy-code each band under its chosen table.
        let chunks = self.run(
            bands.len(),
            CodecSession::<T>::decoder,
            |session, _, band| {
                let table = match saved[band] {
                    Some(_) if any_shared => HuffmanTable::Shared(&shared),
                    _ => HuffmanTable::PerBand,
                };
                session.set_next_band_index(band as u64);
                session.encode(&bands[band], table).0
            },
        );
        Ok((
            chunks,
            any_shared.then(|| szr_huffman::serialize_codec(&shared)),
        ))
    }

    fn fused<T: ScalarFloat + Send + Sync>(
        &self,
        values: &[T],
        config: &Config,
        split: &BandSplit,
    ) -> Result<BandArchives> {
        // Every band quantizes on the intervals the sampled table was built
        // for.
        let (pinned, _) = pin_bound(config, values)?;

        // Seed the table from a strided row sample spanning the *whole*
        // tensor (one band's worth of rows, planner-style), so the shared
        // code prices the global distribution rather than one band's: a
        // heterogeneous slab elsewhere still finds its common codes covered.
        let rows = (0..split.dims[0]).step_by(split.bands());
        let mut sample_dims = split.dims.clone();
        sample_dims[0] = rows.len();
        let sample: Vec<T> = rows
            .flat_map(|row| split.rows(values, row..row + 1))
            .copied()
            .collect();
        let sample_shape = Shape::new(&sample_dims);
        let seed = self
            .run(
                1,
                || CodecSession::new(pinned).expect("pinned config validated"),
                |session, _, _| session.quantize(&sample, &sample_shape),
            )
            .remove(0)?;
        // Smoothed so every in-range code has a codeword; stray out-of-range
        // codes ride as in-band escapes.
        let shared = szr_core::covering_codec(seed.histogram());
        // Pin the sample's interval bits for every band: the shared table's
        // symbol range only lines up when all bands quantize on the same
        // interval count (and the per-band §IV-B sampler is skipped).
        let worker_config = Config {
            intervals: szr_core::IntervalMode::Fixed {
                bits: seed.interval_bits(),
            },
            ..pinned
        };

        let bands = self.run(
            split.bands(),
            || CodecSession::new(worker_config).expect("pinned config validated"),
            |session, _, band| {
                let (slice, shape) = split.band(values, band);
                session.set_next_band_index(band as u64);
                match session.compress_slice_shared_fused(slice, &shape, &shared)? {
                    Some((bytes, _)) => Ok((bytes, true)),
                    // Structural divergence (demotion cap): a self-contained
                    // staged fallback under the caller's interval mode, so
                    // the band gets its own adaptive bits and table.
                    None => {
                        session.set_config(pinned)?;
                        let staged = compress_band(session, values, split, band);
                        session.set_config(worker_config)?;
                        staged.map(|bytes| (bytes, false))
                    }
                }
            },
        );
        let bands = bands.into_iter().collect::<Result<Vec<_>>>()?;
        let any_shared = bands.iter().any(|&(_, used_shared)| used_shared);
        let chunks = bands.into_iter().map(|(bytes, _)| bytes).collect();
        Ok((
            chunks,
            any_shared.then(|| szr_huffman::serialize_codec(&shared)),
        ))
    }

    /// Decodes every band of `archive` in band order, lending `codec` to
    /// every worker.
    fn decode_all<T: ScalarFloat + Send + Sync>(
        &self,
        archive: &ChunkedArchive,
        policy: DecodePolicy,
        codec: Option<&HuffmanCodec>,
    ) -> Vec<Result<Tensor<T>>> {
        self.run(
            archive.chunks.len(),
            || decoder(policy),
            |session, _, band| decode_chunk(session, &archive.chunks[band], codec),
        )
    }

    /// Decodes `archive` back into one tensor ([`BandPlan::full`], then
    /// [`BandExecutor::decode_into`]): band extents come from each band's
    /// own header, so a damaged index never blocks a full decode, and every
    /// band decodes straight into its rows of the one output.
    /// [`DecodePolicy::Verify`] / `Salvage` recompute every band's v3
    /// section checksums and fail on the first mismatch (section-named
    /// error); for fill-and-continue use [`BandExecutor::salvage`].
    pub fn decompress<T: ScalarFloat + Send + Sync>(
        &self,
        archive: &ChunkedArchive,
        policy: DecodePolicy,
    ) -> Result<Tensor<T>> {
        let plan = BandPlan::full(archive)?;
        let mut out = vec![T::from_f64(0.0); plan.len()];
        self.decode_into(&plan, policy, &mut out)?;
        Ok(Tensor::from_vec(Shape::new(plan.dims()), out))
    }

    /// Decodes exactly the slowest-dimension rows `rows` of a serialized
    /// archive, byte-identical to that slice of a full decode: only the
    /// bands covering them are decoded, located through the [`BandIndex`]
    /// (or the sequential header walk when the index is absent or damaged).
    pub fn read<T: ScalarFloat + Send + Sync>(
        &self,
        bytes: &[u8],
        rows: Range<usize>,
        policy: DecodePolicy,
    ) -> Result<Tensor<T>> {
        let plan = BandPlan::rows(bytes, &band_index(bytes)?, rows)?;
        let mut out = vec![T::from_f64(0.0); plan.len()];
        self.decode_into(&plan, policy, &mut out)?;
        Ok(Tensor::from_vec(Shape::new(plan.dims()), out))
    }

    /// Decodes `plan` into `out`, which holds exactly its kept values
    /// ([`BandPlan::len`]). Bands it keeps whole decode straight into their
    /// rows of `out`; a band the row range cuts (only the first and the
    /// last can be) decodes into its worker's band buffer, and its kept
    /// rows are copied over. Returns the first error in band order.
    pub fn decode_into<T: ScalarFloat + Send + Sync>(
        &self,
        plan: &BandPlan<'_, T>,
        policy: DecodePolicy,
        out: &mut [T],
    ) -> Result<()> {
        if out.len() != plan.len() {
            return Err(SzError::OutputLength {
                expected: plan.len(),
                found: out.len(),
            });
        }
        self.decode_plan(plan, policy, out, None::<fn(usize, &[T]) -> Result<()>>)
    }

    /// Decodes `plan` band by band without an output of its own: each
    /// worker decodes a band into its band buffer (reused across every band
    /// it claims) and hands the band's kept rows to `emit(first output row,
    /// values)` on its own thread, so `emit` must place them by the row it
    /// is given, not by call order. Returns the first error in band order,
    /// whether a band failed to decode or `emit` failed.
    pub fn decode_each<T, E>(
        &self,
        plan: &BandPlan<'_, T>,
        policy: DecodePolicy,
        emit: impl Fn(usize, &[T]) -> std::result::Result<(), E> + Sync,
    ) -> std::result::Result<(), E>
    where
        T: ScalarFloat + Send + Sync,
        E: From<SzError> + Send,
    {
        self.decode_plan(plan, policy, &mut [], Some(emit))
    }

    /// The band runner behind [`Self::decode_into`] (`out` holds the kept
    /// values, no `emit`) and [`Self::decode_each`] (`out` empty, every
    /// band's kept rows go to `emit`).
    fn decode_plan<T, E, F>(
        &self,
        plan: &BandPlan<'_, T>,
        policy: DecodePolicy,
        out: &mut [T],
        emit: Option<F>,
    ) -> std::result::Result<(), E>
    where
        T: ScalarFloat + Send + Sync,
        E: From<SzError> + Send,
        F: Fn(usize, &[T]) -> std::result::Result<(), E> + Sync,
    {
        let (keep, row_elems) = (&plan.keep, plan.row_elems);
        let in_place = emit.is_none();
        let mut rest = out;
        // Per band: its rows in the concatenation and, decoding in place,
        // its kept rows' slice of `out`, taken by whichever worker claims
        // the band.
        let mut slots: Vec<(Range<usize>, Mutex<&mut [T]>)> =
            Vec::with_capacity(plan.extents.len());
        let mut row = 0usize;
        for &rows in &plan.extents {
            let kept = (row + rows)
                .min(keep.end)
                .saturating_sub(row.max(keep.start));
            let len = if in_place { kept * row_elems } else { 0 };
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            slots.push((row..row + rows, Mutex::new(dst)));
            row += rows;
        }
        debug_assert!(rest.is_empty(), "`out` holds exactly the kept rows");
        self.run(
            plan.extents.len(),
            || decoder(policy),
            |session, band_buf, band| {
                let (rows, slot) = &slots[band];
                let dst = std::mem::take(
                    &mut *slot
                        .lock()
                        .expect("a band worker panicked holding its slot"),
                );
                let (chunk, codec) = (plan.bands[band], plan.codec.as_ref());
                let (lo, hi) = (rows.start.max(keep.start), rows.end.min(keep.end));
                if in_place && (lo, hi) == (rows.start, rows.end) {
                    return Ok(decode_chunk_into(session, chunk, codec, dst)?);
                }
                let len = rows.len() * row_elems;
                if band_buf.len() < len {
                    band_buf.resize(len, T::from_f64(0.0));
                }
                let whole = &mut band_buf[..len];
                decode_chunk_into(session, chunk, codec, whole)?;
                let kept = &whole[(lo - rows.start) * row_elems..(hi - rows.start) * row_elems];
                match &emit {
                    Some(emit) => emit(lo - keep.start, kept),
                    None => {
                        dst.copy_from_slice(kept);
                        Ok(())
                    }
                }
            },
        )
        .into_iter()
        .collect()
    }

    /// Decodes every intact band of a possibly damaged `archive` (verifying
    /// each band's v3 checksums, intact bands bit-identical to a verify
    /// decode) and returns the stitched tensor plus a [`SalvageReport`].
    /// Damaged bands' rows hold `fill`; a damaged band is placed by its
    /// declared extent while its header still parses plausibly, after which
    /// every later band is reported damaged rather than decoded into the
    /// wrong rows. A corrupt shared table damages only the shared-stream
    /// bands. Filled bands are counted as `salvaged_bands`.
    ///
    /// # Errors
    /// [`SzError::Corrupt`] when the container frame itself (dims
    /// implausible for the byte budget) is unusable — there is nothing to
    /// align against.
    pub fn salvage<T: ScalarFloat + Send + Sync>(
        &self,
        archive: &ChunkedArchive,
        fill: T,
    ) -> Result<(Tensor<T>, SalvageReport)> {
        let shape = Shape::new(&archive.dims);
        let row_elems: usize = archive.dims[1..].iter().product::<usize>().max(1);
        check_declared_len(shape.len(), archive.compressed_bytes() + 1)?;
        let mut out: Vec<T> = vec![fill; shape.len()];
        // Without a usable table, shared-stream bands fail to decode (and
        // are reported) while self-contained bands still decode.
        let codec = shared_codec(archive.shared_table.as_deref()).unwrap_or(None);
        let decoded = self.decode_all(archive, DecodePolicy::Verify, codec.as_ref());

        let mut report = SalvageReport {
            bands: archive.chunks.len(),
            recovered: Vec::new(),
            damaged: Vec::new(),
            fill: fill.to_f64(),
        };
        // Byte ranges are offsets into the concatenated band payload
        // region, in band order — the stable coordinate system a repair
        // tool can map back onto the serialized container.
        let mut offset = 0usize;
        let mut row = 0usize;
        let mut aligned = true;
        for (i, result) in decoded.into_iter().enumerate() {
            let byte_range = (offset, offset + archive.chunks[i].len());
            offset = byte_range.1;
            let rows_fit = |dims: &[usize]| {
                dims.len() == archive.dims.len()
                    && dims[1..] == archive.dims[1..]
                    && row + dims[0] <= archive.dims[0]
            };
            let error = match result {
                _ if !aligned => "row alignment lost after earlier damage".into(),
                Ok(band) if rows_fit(band.dims()) => {
                    let rows = band.dims()[0];
                    out[row * row_elems..(row + rows) * row_elems].copy_from_slice(band.as_slice());
                    report.recovered.push(i);
                    row += rows;
                    continue;
                }
                Ok(_) => {
                    aligned = false;
                    "band extent disagrees with container dims".into()
                }
                Err(e) => {
                    // Place the fill by the band's declared extent when its
                    // header still parses consistently with the container.
                    match szr_core::inspect(&archive.chunks[i]) {
                        Ok(info) if rows_fit(&info.dims) => row += info.dims[0],
                        _ => aligned = false,
                    }
                    e.to_string()
                }
            };
            report.damaged.push(BandDamage {
                band: i,
                byte_range,
                error,
            });
        }
        if let (Some(sink), damaged @ 1..) = (self.sink, report.damaged.len()) {
            sink.counter(Counter::SalvagedBands, damaged as u64);
        }
        Ok((Tensor::from_vec(shape, out), report))
    }
}

/// Compresses `data` as `num_chunks` independent band archives on up to
/// `threads` workers ([`Strategy::Independent`]).
pub fn compress_chunked<T: ScalarFloat + Send + Sync>(
    data: &Tensor<T>,
    config: &Config,
    num_chunks: usize,
    threads: usize,
) -> Result<ChunkedArchive> {
    BandExecutor::new(threads).compress(data, config, num_chunks, Strategy::Independent)
}

/// Decompresses a [`ChunkedArchive`] on up to `threads` workers
/// ([`BandExecutor::decompress`] under [`DecodePolicy::Strict`]).
pub fn decompress_chunked<T: ScalarFloat + Send + Sync>(
    archive: &ChunkedArchive,
    threads: usize,
) -> Result<Tensor<T>> {
    BandExecutor::new(threads).decompress(archive, DecodePolicy::Strict)
}

/// Decodes slowest-dimension rows `rows` of a serialized archive on up to
/// `threads` workers ([`BandExecutor::read`]).
pub fn decompress_chunked_region<T: ScalarFloat + Send + Sync>(
    bytes: &[u8],
    rows: Range<usize>,
    threads: usize,
    policy: DecodePolicy,
) -> Result<Tensor<T>> {
    BandExecutor::new(threads).read(bytes, rows, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use szr_core::{inspect, ErrorBound};

    fn field() -> Tensor<f32> {
        Tensor::from_fn([97, 64], |ix| {
            ((ix[0] as f32) * 0.11).sin() * 8.0 + ((ix[1] as f32) * 0.07).cos()
        })
    }

    /// Each band's `(layers, interval bits)`, read back from its header.
    fn band_configs(archive: &ChunkedArchive) -> Vec<(usize, u32)> {
        archive
            .chunks
            .iter()
            .map(|c| {
                let info = inspect(c).unwrap();
                (info.layers, info.interval_bits)
            })
            .collect()
    }

    #[test]
    fn band_ranges_partition_evenly() {
        assert_eq!(band_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(band_ranges(4, 8), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(band_ranges(5, 1), vec![(0, 5)]);
    }

    #[test]
    fn band_ranges_of_empty_extent_are_empty() {
        // Regression: `parts.clamp(1, 0)` used to panic (clamp min > max).
        assert_eq!(band_ranges(0, 1), vec![]);
        assert_eq!(band_ranges(0, 8), vec![]);
        assert_eq!(band_ranges(0, 0), vec![]);
    }

    #[test]
    fn chunked_roundtrip_respects_bound() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        for chunks in [1usize, 2, 5, 16] {
            let archive = compress_chunked(&data, &config, chunks, 4).unwrap();
            assert_eq!(archive.chunks.len(), chunks.min(97));
            let out: Tensor<f32> = decompress_chunked(&archive, 4).unwrap();
            assert_eq!(out.dims(), data.dims());
            for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
                assert!((a as f64 - b as f64).abs() <= 1e-3);
            }
        }
    }

    #[test]
    fn chunking_is_deterministic_across_thread_counts() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-4));
        let a = compress_chunked(&data, &config, 8, 1).unwrap();
        let b = compress_chunked(&data, &config, 8, 4).unwrap();
        assert_eq!(a.chunks, b.chunks);
    }

    #[test]
    fn chunked_size_overhead_is_modest() {
        // Per-chunk headers/tables cost something; on a realistically-sized
        // field, 8-way chunking should stay within 25% of a single archive.
        let data = Tensor::from_fn([512, 256], |ix| {
            let mut h = (ix[0] as u64 * 256 + ix[1] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = (h ^ (h >> 31)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
            ((ix[0] as f32) * 0.11).sin() * 8.0 + ((h >> 52) as f32) * 1e-3
        });
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let single = compress_chunked(&data, &config, 1, 1).unwrap();
        let split = compress_chunked(&data, &config, 8, 4).unwrap();
        assert!(
            (split.compressed_bytes() as f64) < single.compressed_bytes() as f64 * 1.25,
            "split {} vs single {}",
            split.compressed_bytes(),
            single.compressed_bytes()
        );
    }

    #[test]
    fn corrupt_chunk_is_detected() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let mut archive = compress_chunked(&data, &config, 4, 2).unwrap();
        archive.chunks[2][0] ^= 0xFF;
        assert!(decompress_chunked::<f32>(&archive, 2).is_err());
    }

    #[test]
    fn planned_chunks_give_heterogeneous_bands_distinct_configs() {
        // Top slab: near-linear (tiny residuals); bottom slab: hash noise
        // far above the bound. The planner should size intervals very
        // differently for the two.
        let data = Tensor::from_fn([96, 64], |ix| {
            if ix[0] < 48 {
                (ix[0] * 64 + ix[1]) as f32 * 1e-4
            } else {
                let h = (ix[0] as u64 * 64 + ix[1] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 40) % 4096) as f32
            }
        });
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let archive = BandExecutor::new(2)
            .compress(&data, &config, 2, Strategy::Planned)
            .unwrap();
        let configs = band_configs(&archive);
        assert_eq!(configs.len(), 2);
        assert!(
            configs[0].1 < configs[1].1,
            "smooth band (layers, bits) {:?} should use fewer interval bits than noisy band {:?}",
            configs[0],
            configs[1]
        );
        let out: Tensor<f32> = decompress_chunked(&archive, 2).unwrap();
        for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
            assert!((a as f64 - b as f64).abs() <= 1e-3);
        }
    }

    #[test]
    fn planned_chunking_is_deterministic_and_never_larger_capped() {
        let data = field();
        let config = Config::new(ErrorBound::Relative(1e-4));
        let a = BandExecutor::new(1)
            .compress(&data, &config, 8, Strategy::Planned)
            .unwrap();
        let b = BandExecutor::new(4)
            .compress(&data, &config, 8, Strategy::Planned)
            .unwrap();
        assert_eq!(a.chunks, b.chunks);
        assert_eq!(band_configs(&a), band_configs(&b));
        let out: Tensor<f32> = decompress_chunked(&a, 4).unwrap();
        let range = szr_metrics::value_range(data.as_slice());
        for (&x, &y) in data.as_slice().iter().zip(out.as_slice()) {
            assert!((x as f64 - y as f64).abs() <= 1e-4 * range);
        }
    }

    #[test]
    fn mixed_layer_band_archives_decode_through_the_kernel_cache() {
        // Hand-assemble a chunked archive whose bands disagree on layer
        // count: the decompression kernel cache must key on layers, not
        // assume homogeneity.
        let data = field();
        let mut chunks = Vec::new();
        for (r0, r1, layers) in [(0usize, 30usize, 1usize), (30, 60, 2), (60, 97, 1)] {
            let band = Tensor::from_fn([r1 - r0, 64], |ix| {
                data.as_slice()[(r0 + ix[0]) * 64 + ix[1]]
            });
            let config = Config::new(ErrorBound::Absolute(1e-3)).with_layers(layers);
            chunks.push(szr_core::compress(&band, &config).unwrap());
        }
        let archive = ChunkedArchive {
            dims: vec![97, 64],
            chunks,
            shared_table: None,
        };
        let out: Tensor<f32> = decompress_chunked(&archive, 2).unwrap();
        for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
            assert!((a as f64 - b as f64).abs() <= 1e-3);
        }
    }

    #[test]
    fn shared_table_roundtrip_and_size_win() {
        // Many fine bands: per-band tables dominate the plain chunked
        // overhead, so the shared table must shrink the archive.
        let data = Tensor::from_fn([256, 96], |ix| {
            ((ix[0] as f32) * 0.04).sin() * 6.0 + ((ix[1] as f32) * 0.09).cos() * 2.0
        });
        let config = Config::new(ErrorBound::Absolute(1e-4));
        let per_band = compress_chunked(&data, &config, 32, 4).unwrap();
        let shared = BandExecutor::new(4)
            .compress(&data, &config, 32, Strategy::Shared)
            .unwrap();
        assert!(
            shared.shared_table.is_some(),
            "homogeneous bands must share"
        );
        assert!(
            shared.compressed_bytes() < per_band.compressed_bytes(),
            "shared {} vs per-band {}",
            shared.compressed_bytes(),
            per_band.compressed_bytes()
        );
        let out: Tensor<f32> = decompress_chunked(&shared, 4).unwrap();
        assert_eq!(out.dims(), data.dims());
        for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
            assert!((a as f64 - b as f64).abs() <= 1e-4);
        }
    }

    #[test]
    fn shared_table_compression_is_deterministic() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-4));
        let a = BandExecutor::new(1)
            .compress(&data, &config, 8, Strategy::Shared)
            .unwrap();
        let b = BandExecutor::new(4)
            .compress(&data, &config, 8, Strategy::Shared)
            .unwrap();
        assert_eq!(a.chunks, b.chunks);
        assert_eq!(a.shared_table, b.shared_table);
    }

    #[test]
    fn divergent_band_falls_back_to_its_own_table() {
        // Bottom slab is hash noise over a huge alphabet; merging it into
        // the smooth bands' table would bloat everyone, so at least the
        // outlier keeps a per-band (version-1) archive.
        let data = Tensor::from_fn([96, 64], |ix| {
            if ix[0] < 72 {
                ((ix[0] * 64 + ix[1]) as f32 * 1e-4).sin()
            } else {
                let h = (ix[0] as u64 * 64 + ix[1] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 40) % 65_536) as f32
            }
        });
        let config = Config::new(ErrorBound::Absolute(1e-5));
        let archive = BandExecutor::new(2)
            .compress(&data, &config, 4, Strategy::Shared)
            .unwrap();
        let kinds: Vec<bool> = archive
            .chunks
            .iter()
            .map(|c| inspect(c).unwrap().shared_stream)
            .collect();
        assert!(
            kinds.iter().any(|&k| !k),
            "the noisy band should keep its own table: {kinds:?}"
        );
        let out: Tensor<f32> = decompress_chunked(&archive, 2).unwrap();
        for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
            assert!((a as f64 - b as f64).abs() <= 1e-5);
        }
    }

    #[test]
    fn fused_chunked_roundtrips_and_shares_the_presampled_table() {
        let data = Tensor::from_fn([256, 96], |ix| {
            ((ix[0] as f32) * 0.04).sin() * 6.0 + ((ix[1] as f32) * 0.09).cos() * 2.0
        });
        let config = Config::new(ErrorBound::Relative(1e-4));
        let archive = BandExecutor::new(4)
            .compress(&data, &config, 16, Strategy::Fused)
            .unwrap();
        assert_eq!(archive.chunks.len(), 16);
        assert!(
            archive.shared_table.is_some(),
            "homogeneous bands must fuse under the presampled table"
        );
        // Homogeneous field: every band fuses as a version-2 shared stream.
        let kinds: Vec<bool> = archive
            .chunks
            .iter()
            .map(|c| inspect(c).unwrap().shared_stream)
            .collect();
        assert!(kinds.iter().all(|&k| k), "{kinds:?}");
        let out: Tensor<f32> = decompress_chunked(&archive, 4).unwrap();
        let range = szr_metrics::value_range(data.as_slice());
        for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
            assert!((a as f64 - b as f64).abs() <= 1e-4 * range);
        }
    }

    #[test]
    fn fused_chunking_is_deterministic_across_thread_counts() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-4));
        let a = BandExecutor::new(1)
            .compress(&data, &config, 8, Strategy::Fused)
            .unwrap();
        let b = BandExecutor::new(4)
            .compress(&data, &config, 8, Strategy::Fused)
            .unwrap();
        assert_eq!(a.chunks, b.chunks);
        assert_eq!(a.shared_table, b.shared_table);
    }

    #[test]
    fn fused_heterogeneous_field_roundtrips_within_the_pinned_bound() {
        // Smooth slab above hash noise: the strided seed sample spans both,
        // so the shared table covers both distributions; whatever mix of
        // fused and fallback bands results, the bound must hold everywhere.
        let data = Tensor::from_fn([96, 64], |ix| {
            if ix[0] < 72 {
                ((ix[0] * 64 + ix[1]) as f32 * 1e-4).sin()
            } else {
                let h = (ix[0] as u64 * 64 + ix[1] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 40) % 65_536) as f32
            }
        });
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let archive = BandExecutor::new(2)
            .compress(&data, &config, 4, Strategy::Fused)
            .unwrap();
        assert_eq!(archive.chunks.len(), 4);
        for chunk in &archive.chunks {
            let _ = inspect(chunk).unwrap(); // every band parses
        }
        let out: Tensor<f32> = decompress_chunked(&archive, 2).unwrap();
        for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
            assert!((a as f64 - b as f64).abs() <= 1e-3);
        }
    }

    #[test]
    fn fused_single_band_degrades_to_plain_chunking() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let fused = BandExecutor::new(2)
            .compress(&data, &config, 1, Strategy::Fused)
            .unwrap();
        let plain = compress_chunked(&data, &config, 1, 2).unwrap();
        assert_eq!(fused.chunks, plain.chunks);
        assert!(fused.shared_table.is_none());
    }

    #[test]
    fn serialized_chunked_archive_roundtrips() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        for archive in [
            compress_chunked(&data, &config, 4, 2).unwrap(),
            BandExecutor::new(2)
                .compress(&data, &config, 6, Strategy::Shared)
                .unwrap(),
        ] {
            let bytes = archive.to_bytes();
            let back = ChunkedArchive::from_bytes(&bytes).unwrap();
            assert_eq!(back.dims, archive.dims);
            assert_eq!(back.chunks, archive.chunks);
            assert_eq!(back.shared_table, archive.shared_table);
            let out: Tensor<f32> = decompress_chunked(&back, 2).unwrap();
            for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
                assert!((a as f64 - b as f64).abs() <= 1e-3);
            }
        }
        // Truncations and a bad magic must error, not panic. v2 cut points
        // stay within the header/band region: a cut confined to the
        // *trailing index* is tolerated by the sequential parse by design
        // (the index tests cover that), so the end-of-archive cut runs
        // against the legacy layout where the last band is the last byte.
        let archive = BandExecutor::new(2)
            .compress(&data, &config, 6, Strategy::Shared)
            .unwrap();
        let bytes = archive.to_bytes();
        for cut in [0usize, 3, 9, bytes.len() / 2] {
            assert!(ChunkedArchive::from_bytes(&bytes[..cut]).is_err());
        }
        let legacy = archive.to_bytes_legacy();
        for cut in [0usize, 3, 9, legacy.len() / 2, legacy.len() - 1] {
            assert!(ChunkedArchive::from_bytes(&legacy[..cut]).is_err());
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(ChunkedArchive::from_bytes(&bad).is_err());
    }

    #[test]
    fn implausible_serialized_dims_are_rejected_before_allocation() {
        // Regression: a crafted header with astronomical dims must error in
        // from_bytes, not drive decompress_chunked into a wild allocation.
        let mut bytes = vec![b'S', b'Z', b'C', b'K', 1, 0];
        bytes.push(1); // ndim = 1
                       // dim = 2^60 as LEB128.
        let mut d = 1u64 << 60;
        while d >= 0x80 {
            bytes.push((d & 0x7F) as u8 | 0x80);
            d >>= 7;
        }
        bytes.push(d as u8);
        bytes.push(0); // zero bands
        assert!(ChunkedArchive::from_bytes(&bytes).is_err());
    }

    #[test]
    fn stripped_shared_table_fails_loudly() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let mut archive = BandExecutor::new(2)
            .compress(&data, &config, 8, Strategy::Shared)
            .unwrap();
        assert!(archive.shared_table.is_some());
        archive.shared_table = None;
        assert!(decompress_chunked::<f32>(&archive, 2).is_err());
    }

    #[test]
    fn one_dimensional_data_chunks() {
        let data = Tensor::from_fn([10_000], |ix| (ix[0] as f32 * 0.01).sin());
        let config = Config::new(ErrorBound::Absolute(1e-4));
        let archive = compress_chunked(&data, &config, 7, 3).unwrap();
        let out: Tensor<f32> = decompress_chunked(&archive, 3).unwrap();
        for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
            assert!((a as f64 - b as f64).abs() <= 1e-4);
        }
    }

    #[test]
    fn band_index_matches_the_sequential_walk() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        for archive in [
            compress_chunked(&data, &config, 5, 2).unwrap(),
            BandExecutor::new(2)
                .compress(&data, &config, 6, Strategy::Shared)
                .unwrap(),
        ] {
            let bytes = archive.to_bytes();
            let indexed = ChunkedArchive::peek_index(&bytes).unwrap();
            assert!(indexed.from_index);
            assert_eq!(indexed.bands(), archive.chunks.len());
            // Legacy bytes carry no index; the walk rebuilds one below.
            let legacy = archive.to_bytes_legacy();
            assert!(ChunkedArchive::peek_index(&legacy).is_err());
            let from_walk = band_index(&bytes).unwrap();
            assert_eq!(from_walk, indexed);
            for (band, chunk) in archive.chunks.iter().enumerate() {
                assert_eq!(indexed.band_slice(&bytes, band).unwrap(), &chunk[..]);
            }
            // Row extents cover the tensor.
            let rows: usize = indexed.entries.iter().map(|e| e.rows).sum();
            assert_eq!(rows, archive.dims[0]);
        }
    }

    #[test]
    fn legacy_v1_bytes_still_roundtrip() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let archive = BandExecutor::new(2)
            .compress(&data, &config, 6, Strategy::Shared)
            .unwrap();
        let legacy = archive.to_bytes_legacy();
        assert_eq!(legacy[4], 1);
        let back = ChunkedArchive::from_bytes(&legacy).unwrap();
        assert_eq!(back.chunks, archive.chunks);
        assert_eq!(back.shared_table, archive.shared_table);
        // The un-indexed walk still powers random access.
        let index = band_index(&legacy).unwrap();
        assert!(!index.from_index);
        let r0 = index.entries[0].rows;
        let r1 = r0 + index.entries[1].rows + index.entries[2].rows;
        let roi: Tensor<f32> =
            decompress_chunked_region(&legacy, r0..r1, 2, DecodePolicy::Strict).unwrap();
        let full: Tensor<f32> = decompress_chunked(&back, 2).unwrap();
        let row_elems = archive.dims[1];
        assert_eq!(
            roi.as_slice(),
            &full.as_slice()[r0 * row_elems..r1 * row_elems]
        );
    }

    #[test]
    fn band_aligned_reads_match_the_full_decode() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        for archive in [
            compress_chunked(&data, &config, 8, 2).unwrap(),
            BandExecutor::new(2)
                .compress(&data, &config, 8, Strategy::Shared)
                .unwrap(),
        ] {
            let bytes = archive.to_bytes();
            let full: Tensor<f32> = decompress_chunked(&archive, 2).unwrap();
            let index = band_index(&bytes).unwrap();
            let row_elems = archive.dims[1];
            let mut row = 0usize;
            for entry in &index.entries {
                let one: Tensor<f32> = decompress_chunked_region(
                    &bytes,
                    row..row + entry.rows,
                    1,
                    DecodePolicy::Strict,
                )
                .unwrap();
                assert_eq!(
                    one.as_slice(),
                    &full.as_slice()[row * row_elems..(row + entry.rows) * row_elems]
                );
                row += entry.rows;
            }
            let start: usize = index.entries[..2].iter().map(|e| e.rows).sum();
            let span: usize = index.entries[2..6].iter().map(|e| e.rows).sum();
            let mid: Tensor<f32> =
                decompress_chunked_region(&bytes, start..start + span, 2, DecodePolicy::Strict)
                    .unwrap();
            assert_eq!(
                mid.as_slice(),
                &full.as_slice()[start * row_elems..(start + span) * row_elems]
            );
            assert!(
                decompress_chunked_region::<f32>(&bytes, 3..3, 1, DecodePolicy::Strict).is_err()
            );
            assert!(
                decompress_chunked_region::<f32>(&bytes, 0..98, 1, DecodePolicy::Strict).is_err()
            );
        }
    }

    #[test]
    fn region_decode_trims_to_exact_rows() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let archive = compress_chunked(&data, &config, 8, 2).unwrap();
        let bytes = archive.to_bytes();
        let full: Tensor<f32> = decompress_chunked(&archive, 2).unwrap();
        let row_elems = archive.dims[1];
        for rows in [0..1usize, 5..6, 13..14, 0..97, 40..55, 90..97] {
            let roi: Tensor<f32> =
                decompress_chunked_region(&bytes, rows.clone(), 2, DecodePolicy::Strict).unwrap();
            assert_eq!(roi.dims()[0], rows.end - rows.start);
            assert_eq!(
                roi.as_slice(),
                &full.as_slice()[rows.start * row_elems..rows.end * row_elems],
                "rows {rows:?}"
            );
        }
        assert!(decompress_chunked_region::<f32>(&bytes, 5..5, 1, DecodePolicy::Strict).is_err());
        assert!(decompress_chunked_region::<f32>(&bytes, 90..98, 1, DecodePolicy::Strict).is_err());
    }

    /// Runs `plan` through [`BandExecutor::decode_each`], placing each
    /// emitted band by the row it names.
    fn decode_each_placed(
        executor: &BandExecutor<'_>,
        plan: &BandPlan<'_, f32>,
    ) -> Result<Vec<f32>> {
        let placed = Mutex::new(vec![f32::NAN; plan.len()]);
        executor.decode_each(plan, DecodePolicy::Strict, |row, values: &[f32]| {
            let at = row * plan.row_elems();
            placed.lock().unwrap()[at..at + values.len()].copy_from_slice(values);
            Ok::<(), SzError>(())
        })?;
        Ok(placed.into_inner().unwrap())
    }

    #[test]
    fn streamed_decodes_match_the_in_place_decodes() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        for strategy in [Strategy::Independent, Strategy::Shared] {
            let archive = BandExecutor::new(2)
                .compress(&data, &config, 8, strategy)
                .unwrap();
            let bytes = archive.to_bytes();
            let full: Tensor<f32> = decompress_chunked(&archive, 2).unwrap();
            for threads in [1, 3] {
                let executor = BandExecutor::new(threads);
                let plan = BandPlan::<f32>::full(&archive).unwrap();
                assert_eq!(plan.dims(), archive.dims.as_slice());
                let got = decode_each_placed(&executor, &plan).unwrap();
                assert_eq!(got, full.as_slice(), "{strategy:?}, {threads} threads");
                let index = band_index(&bytes).unwrap();
                for rows in [0..97usize, 5..6, 13..40, 90..97] {
                    let plan = BandPlan::<f32>::rows(&bytes, &index, rows.clone()).unwrap();
                    assert_eq!(plan.dims(), &[rows.len(), archive.dims[1]]);
                    let got = decode_each_placed(&executor, &plan).unwrap();
                    let row_elems = archive.dims[1];
                    assert_eq!(
                        got,
                        &full.as_slice()[rows.start * row_elems..rows.end * row_elems],
                        "{strategy:?}, rows {rows:?}"
                    );
                    let mut out = vec![0.0f32; plan.len() + 1];
                    assert!(matches!(
                        executor.decode_into(&plan, DecodePolicy::Strict, &mut out),
                        Err(SzError::OutputLength { .. })
                    ));
                }
            }
        }
    }

    #[test]
    fn streamed_decodes_report_the_first_error_in_band_order() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let mut archive = compress_chunked(&data, &config, 8, 2).unwrap();
        let plan = BandPlan::<f32>::full(&archive).unwrap();
        // `emit` failing on every band from the third on: the third's
        // error wins, whichever worker got there first.
        let result = BandExecutor::new(3).decode_each(&plan, DecodePolicy::Strict, |row, _| {
            match row >= plan.extents[..2].iter().sum() {
                true => Err(SzError::Corrupt(format!("row {row}"))),
                false => Ok(()),
            }
        });
        let third: usize = plan.extents[..2].iter().sum();
        assert_eq!(result, Err(SzError::Corrupt(format!("row {third}"))));
        // A cut payload behind an intact header plans, then fails the
        // decode; no plan is built for a type the bands do not hold.
        let band = &mut archive.chunks[5];
        band.truncate(band.len() / 2);
        let plan = BandPlan::<f32>::full(&archive).unwrap();
        let result = BandExecutor::new(2)
            .decode_each(&plan, DecodePolicy::Strict, |_, _| Ok::<(), SzError>(()));
        assert!(result.is_err());
        assert!(matches!(
            BandPlan::<f64>::full(&compress_chunked(&data, &config, 8, 2).unwrap()),
            Err(SzError::WrongType { .. })
        ));
    }

    #[test]
    fn damaged_index_degrades_to_the_sequential_walk() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let archive = compress_chunked(&data, &config, 6, 2).unwrap();
        let bytes = archive.to_bytes();
        let index = ChunkedArchive::peek_index(&bytes).unwrap();
        let index_start = index.band_region.1;
        // Damage every byte position in the index region, one at a time.
        for pos in index_start..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x41;
            // Strict peek either fails typed (named section) or — when the
            // flip lands harmlessly inside a varint's representation — still
            // yields an index that agrees with the walk.
            match ChunkedArchive::peek_index(&bad) {
                Err(SzError::Corrupt(msg)) => assert!(msg.starts_with("index:"), "{msg}"),
                Err(e) => panic!("unexpected error class: {e}"),
                Ok(ix) => assert_eq!(ix.entries, index.entries),
            }
            // The tolerant entry points never fail, never mis-seek.
            let fallback = band_index(&bad).unwrap();
            assert_eq!(fallback.entries, index.entries);
            let back = ChunkedArchive::from_bytes(&bad).unwrap();
            assert_eq!(back.chunks, archive.chunks);
            let roi: Tensor<f32> =
                decompress_chunked_region(&bad, 20..40, 2, DecodePolicy::Strict).unwrap();
            let full: Tensor<f32> = decompress_chunked(&archive, 1).unwrap();
            assert_eq!(
                roi.as_slice(),
                &full.as_slice()[20 * archive.dims[1]..40 * archive.dims[1]]
            );
        }
        // Truncating the whole index off is also tolerated sequentially.
        let cut = &bytes[..index_start];
        assert!(ChunkedArchive::peek_index(cut).is_err());
        assert_eq!(
            ChunkedArchive::from_bytes(cut).unwrap().chunks,
            archive.chunks
        );
    }

    #[test]
    fn peek_stat_reports_header_metadata() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let archive = BandExecutor::new(2)
            .compress(&data, &config, 6, Strategy::Shared)
            .unwrap();
        let bytes = archive.to_bytes();
        let stat = ChunkedArchive::peek_stat(&bytes).unwrap();
        assert_eq!(stat.version, 2);
        assert_eq!(stat.dims, vec![97, 64]);
        assert_eq!(stat.bands, 6);
        assert!(stat.indexed);
        assert!(stat.shared_table_bytes > 0);
        let first = stat.first_band.unwrap();
        assert_eq!(first.dtype, "f32");
        let legacy_stat = ChunkedArchive::peek_stat(&archive.to_bytes_legacy()).unwrap();
        assert_eq!(legacy_stat.version, 1);
        assert!(!legacy_stat.indexed);
        assert_eq!(legacy_stat.bands, 6);
    }
}
