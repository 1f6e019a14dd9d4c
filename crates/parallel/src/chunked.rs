//! Chunked (embarrassingly parallel) compression.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use szr_bitstream::{ByteReader, ByteWriter};
use szr_core::{
    check_declared_len, encode_quantized, ArchiveInfo, BandDamage, CodecSession, Config,
    DecodePolicy, ErrorBound, HuffmanTable, QuantizedBand, Result, SalvageReport, ScalarFloat,
    SzError,
};
use szr_huffman::HuffmanCodec;
use szr_metrics::{value_range, Real};
use szr_planner::plan_band_config_with_estimate;
use szr_telemetry::{Counter, RecordingSink, TelemetrySink};
use szr_tensor::{Shape, Tensor};

use crate::scheduler::BandScheduler;

/// Per-worker telemetry: each worker thread records into its own
/// [`RecordingSink`] (no cross-thread contention on the hot path) and the
/// driver folds every worker's sink into the caller's once the scope joins.
/// Returns `None` — and the workers run with no sink attached at all — when
/// the caller did not ask for telemetry.
fn worker_sink(sink: Option<&RecordingSink>) -> Option<Arc<RecordingSink>> {
    sink.map(|_| Arc::new(RecordingSink::new()))
}

/// Attaches a worker's private sink (if any) to its session.
fn attach<T: ScalarFloat>(session: &mut CodecSession<T>, ws: &Option<Arc<RecordingSink>>) {
    if let Some(ws) = ws {
        session.set_telemetry(Some(ws.clone() as Arc<dyn TelemetrySink>));
    }
}

/// Folds a worker's private sink into the caller's.
fn merge_into(sink: Option<&RecordingSink>, ws: &Option<Arc<RecordingSink>>) {
    if let (Some(sink), Some(ws)) = (sink, ws) {
        sink.merge_from(ws);
    }
}

/// Surfaces the scheduler's cross-worker steal count (imbalance signal)
/// into the caller's sink after a parallel phase joins.
fn record_steals(sink: Option<&RecordingSink>, sched: &BandScheduler) {
    if let Some(sink) = sink {
        let steals = sched.steals();
        if steals > 0 {
            sink.counter(Counter::SchedulerSteals, steals);
        }
    }
}

/// A tensor compressed as independent per-band archives.
///
/// Bands split the slowest dimension, so each band is a contiguous slice of
/// the row-major buffer and carries a complete self-describing archive —
/// exactly the paper's in-situ model where every rank owns a horizontal
/// slab. [`compress_chunked_shared`] amortizes the entropy stage instead:
/// one Huffman table built from the merged per-band histograms, stored once
/// in `shared_table` and referenced by version-2 band archives (bands whose
/// distribution diverges from the merge keep their own embedded table).
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
        return Err(SzError::Corrupt("bad chunked-archive magic".into()));
    }
    let version = reader.read_u8()?;
    if version == 0 || version > CHUNKED_VERSION {
        return Err(SzError::Corrupt(format!(
            "unsupported chunked-archive version {version}"
        )));
    }
    let has_shared = match reader.read_u8()? {
        0 => false,
        1 => true,
        _ => return Err(SzError::Corrupt("bad shared-table flag".into())),
    };
    let ndim = reader.read_varint()? as usize;
    if !(1..=16).contains(&ndim) {
        return Err(SzError::Corrupt("implausible chunked rank".into()));
    }
    let mut dims = Vec::with_capacity(ndim);
    let mut product: u128 = 1;
    for _ in 0..ndim {
        let d = reader.read_varint()? as usize;
        if d == 0 {
            return Err(SzError::Corrupt("zero-extent dimension".into()));
        }
        product *= d as u128;
        // Same plausibility ceiling as the core archive header: corrupt
        // dims must error here, not drive a wild allocation in
        // decompress_chunked's output buffer.
        if product > (1u128 << 40) {
            return Err(SzError::Corrupt("element count implausibly large".into()));
        }
        dims.push(d);
    }
    let shared_table = if has_shared {
        let start = reader.pos();
        let table = reader.read_len_prefixed()?;
        Some((start + (reader.pos() - start - table.len()), reader.pos()))
    } else {
        None
    };
    let count = reader.read_varint()? as usize;
    if count > reader.remaining() {
        return Err(SzError::Corrupt("implausible band count".into()));
    }
    let band_region_len = if version >= 2 {
        let len = reader.read_varint()? as usize;
        if len > reader.remaining() {
            return Err(SzError::Corrupt(
                "band region overruns the archive bytes".into(),
            ));
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
        let extent = self.dims[0];
        if rows.start >= rows.end || rows.end > extent {
            return Err(SzError::InvalidConfig(
                "row range is empty or exceeds the container extent",
            ));
        }
        let mut row = 0usize;
        let mut first = None;
        let mut first_row = 0usize;
        let mut end = self.entries.len();
        for (i, entry) in self.entries.iter().enumerate() {
            let band_end = row + entry.rows;
            if first.is_none() && rows.start < band_end {
                first = Some(i);
                first_row = row;
            }
            if rows.end <= band_end {
                end = i + 1;
                break;
            }
            row = band_end;
        }
        let start = first.ok_or_else(|| {
            SzError::Corrupt("index: band rows do not cover the requested range".into())
        })?;
        Ok((start..end, first_row))
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
    /// ([`Self::peek_index`], [`read_bands`]) care about index integrity.
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

    /// Header-only parse of a serialized archive: full-tensor dims and a
    /// *borrowed* first band. Metadata queries (e.g. a container `info`)
    /// stay O(header) instead of deep-copying every band payload.
    pub fn peek_dims_and_first_band(bytes: &[u8]) -> Result<(Vec<usize>, Option<&[u8]>)> {
        let (header, mut reader) = parse_header(bytes)?;
        let first = if header.count > 0 {
            Some(reader.read_len_prefixed()?)
        } else {
            None
        };
        Ok((header.dims, first))
    }

    /// Header-only metadata for `szr stat`-style queries: format version,
    /// dims, band count, shared-table size, index validity, and the first
    /// band's own header ([`ArchiveInfo`]: dtype, error bound, layers).
    /// Costs O(header + index + one band header) — no payload is decoded.
    pub fn peek_stat(bytes: &[u8]) -> Result<ChunkedStat> {
        let (header, mut reader) = parse_header(bytes)?;
        let first_band = if header.count > 0 {
            szr_core::inspect(reader.read_len_prefixed()?).ok()
        } else {
            None
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
            return Err(SzError::Corrupt(
                "index: archive is un-indexed (version 1)".into(),
            ));
        };
        let index_start = header.band_region_start + band_region_len;
        let mut reader = ByteReader::new(
            bytes
                .get(index_start..)
                .ok_or_else(|| SzError::Corrupt("index: band region overruns archive".into()))?,
        );
        let mut entries = Vec::with_capacity(header.count);
        let mut prev_end = 0usize;
        let mut rows_total = 0usize;
        for band in 0..header.count {
            let offset = reader
                .read_varint()
                .map_err(|_| SzError::Corrupt(format!("index: truncated at entry {band}")))?
                as usize;
            let len = reader
                .read_varint()
                .map_err(|_| SzError::Corrupt(format!("index: truncated at entry {band}")))?
                as usize;
            let rows = reader
                .read_varint()
                .map_err(|_| SzError::Corrupt(format!("index: truncated at entry {band}")))?
                as usize;
            // Offsets are relative to the band region and must march
            // strictly forward through it: each payload starts after the
            // previous one's end (its own length prefix sits between), and
            // nothing may reach past the region. Any violation means a
            // seek through this index would read the wrong bytes.
            if offset < prev_end + 1 || offset.saturating_add(len) > band_region_len {
                return Err(SzError::Corrupt(format!(
                    "index: entry {band} offsets are inconsistent"
                )));
            }
            if rows == 0 {
                return Err(SzError::Corrupt(format!(
                    "index: entry {band} declares zero rows"
                )));
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
            return Err(SzError::Corrupt(format!(
                "index: checksum mismatch (stored {crc:#010x}, computed {actual:#010x})"
            )));
        }
        if rows_total != header.dims[0] {
            return Err(SzError::Corrupt(
                "index: band rows disagree with the container extent".into(),
            ));
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
    match ChunkedArchive::peek_index(bytes) {
        Ok(index) => Ok(index),
        Err(_) => {
            let (header, mut reader) = parse_header(bytes)?;
            let mut entries = Vec::with_capacity(header.count);
            let mut rows_total = 0usize;
            for band in 0..header.count {
                let chunk = reader.read_len_prefixed()?;
                let offset = reader.pos() - chunk.len();
                let rows = szr_core::inspect(chunk)
                    .map_err(|e| SzError::Corrupt(format!("band {band}: {e}")))?
                    .dims[0];
                rows_total += rows;
                entries.push(BandIndexEntry {
                    offset,
                    len: chunk.len(),
                    rows,
                });
            }
            if rows_total != header.dims[0] {
                return Err(SzError::Corrupt(
                    "band rows do not cover the container extent".into(),
                ));
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
    }
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

/// Compresses `data` as `num_chunks` independent band archives using up to
/// `threads` worker threads.
///
/// With `num_chunks == 1` this degrades to plain [`szr_core::compress`].
/// Compression is deterministic: the archive bytes depend only on the data
/// and config, not on thread scheduling.
pub fn compress_chunked<T: ScalarFloat + Send + Sync>(
    data: &Tensor<T>,
    config: &Config,
    num_chunks: usize,
    threads: usize,
) -> Result<ChunkedArchive> {
    compress_chunked_telemetry(data, config, num_chunks, threads, None)
}

/// [`compress_chunked`] with optional telemetry: each worker records
/// per-stage spans, codec counters, and per-band records into its own sink,
/// all merged into `sink` (band records keyed by band index, so the merged
/// report is in band order regardless of scheduling). Archive bytes are
/// identical with or without a sink.
pub fn compress_chunked_telemetry<T: ScalarFloat + Send + Sync>(
    data: &Tensor<T>,
    config: &Config,
    num_chunks: usize,
    threads: usize,
    sink: Option<&RecordingSink>,
) -> Result<ChunkedArchive> {
    config.validate()?;
    let dims = data.dims().to_vec();
    let ranges = band_ranges(dims[0], num_chunks.max(1));
    let row_elems: usize = dims[1..].iter().product::<usize>().max(1);
    let values = data.as_slice();
    let threads = threads.clamp(1, ranges.len().max(1));

    // Work queues: each worker drains its own contiguous run of bands and
    // steals from the most loaded peer once dry, so one slow band cannot
    // serialize the rest of the job behind it.
    let sched = BandScheduler::new(ranges.len(), threads);
    let results: Vec<Mutex<Option<Result<Vec<u8>>>>> =
        (0..ranges.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // One CodecSession per worker: bands share their inner
                // extents, so the session's cached kernel (dispatch
                // decision, boundary-stencil cache, row-engine scratch) and
                // its quantize/entropy buffers serve every band the worker
                // claims — setup and allocations are paid once per worker,
                // not once per band.
                let mut session = CodecSession::<T>::new(*config).expect("config validated above");
                let ws = worker_sink(sink);
                attach(&mut session, &ws);
                let w = sched.register();
                while let Some(band) = sched.next(w) {
                    let (r0, r1) = ranges[band];
                    let mut band_dims = dims.clone();
                    band_dims[0] = r1 - r0;
                    let shape = Shape::new(&band_dims);
                    let slice = &values[r0 * row_elems..r1 * row_elems];
                    session.set_next_band_index(band as u64);
                    let result = session
                        .compress_slice(slice, &shape)
                        .map(|(bytes, _)| bytes);
                    *results[band].lock().unwrap() = Some(result);
                }
                merge_into(sink, &ws);
            });
        }
    });
    record_steals(sink, &sched);

    let mut chunks = Vec::with_capacity(ranges.len());
    for cell in results {
        match cell.into_inner().unwrap() {
            Some(Ok(bytes)) => chunks.push(bytes),
            Some(Err(e)) => return Err(e),
            None => unreachable!("every band is claimed exactly once"),
        }
    }
    Ok(ChunkedArchive {
        dims,
        chunks,
        shared_table: None,
    })
}

/// Compresses `data` as independent band archives, letting the planner pick
/// a per-band configuration (layer count + pinned interval bits) so
/// heterogeneous slabs — a smooth troposphere above a turbulent boundary
/// layer, say — each get the config that suits them.
///
/// The bound is resolved against the *full* tensor's value range once, so
/// every band honors the same absolute guarantee regardless of its local
/// range. Returns the archive plus the per-band configs (band order) for
/// inspection. Like [`compress_chunked`], the result is deterministic and
/// independent of thread scheduling.
pub fn compress_chunked_planned<T: ScalarFloat + Real + Send + Sync>(
    data: &Tensor<T>,
    bound: ErrorBound,
    num_chunks: usize,
    threads: usize,
) -> Result<(ChunkedArchive, Vec<Config>)> {
    compress_chunked_planned_telemetry(data, bound, num_chunks, threads, None)
}

/// [`compress_chunked_planned`] with optional telemetry. On top of the
/// spans/counters/band records of [`compress_chunked_telemetry`], each
/// band's record carries the planner's estimated bits per value, so the
/// merged report exposes planner drift (estimate vs achieved) per band.
pub fn compress_chunked_planned_telemetry<T: ScalarFloat + Real + Send + Sync>(
    data: &Tensor<T>,
    bound: ErrorBound,
    num_chunks: usize,
    threads: usize,
    sink: Option<&RecordingSink>,
) -> Result<(ChunkedArchive, Vec<Config>)> {
    // Validate the bound spec through a throwaway config before resolving.
    Config::new(bound).validate()?;
    let eb_abs = bound.effective(value_range(data.as_slice()));
    let dims = data.dims().to_vec();
    let ranges = band_ranges(dims[0], num_chunks.max(1));
    let row_elems: usize = dims[1..].iter().product::<usize>().max(1);
    let values = data.as_slice();
    let threads = threads.clamp(1, ranges.len().max(1));

    let sched = BandScheduler::new(ranges.len(), threads);
    type Planned = (Vec<u8>, Config);
    let results: Vec<Mutex<Option<Result<Planned>>>> =
        (0..ranges.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // Per-band planning may pick different layer counts; the
                // session's kernel cache keys on (layers, stride family),
                // so one session per worker still reuses everything.
                let mut session = CodecSession::<T>::decoder();
                let ws = worker_sink(sink);
                attach(&mut session, &ws);
                let w = sched.register();
                while let Some(band) = sched.next(w) {
                    let (r0, r1) = ranges[band];
                    let mut band_dims = dims.clone();
                    band_dims[0] = r1 - r0;
                    let shape = Shape::new(&band_dims);
                    let slice = &values[r0 * row_elems..r1 * row_elems];
                    let (config, estimate) = plan_band_config_with_estimate(slice, &shape, eb_abs);
                    session.set_next_band_index(band as u64);
                    session.set_planned_bits_per_value(Some(estimate));
                    let result = session
                        .set_config(config)
                        .and_then(|()| session.compress_slice(slice, &shape))
                        .map(|(bytes, _)| (bytes, config));
                    *results[band].lock().unwrap() = Some(result);
                }
                merge_into(sink, &ws);
            });
        }
    });
    record_steals(sink, &sched);

    let mut chunks = Vec::with_capacity(ranges.len());
    let mut configs = Vec::with_capacity(ranges.len());
    for cell in results {
        match cell.into_inner().unwrap() {
            Some(Ok((bytes, config))) => {
                chunks.push(bytes);
                configs.push(config);
            }
            Some(Err(e)) => return Err(e),
            None => unreachable!("every band is claimed exactly once"),
        }
    }
    Ok((
        ChunkedArchive {
            dims,
            chunks,
            shared_table: None,
        },
        configs,
    ))
}

/// Compresses `data` as band archives that share **one Huffman table**,
/// built from the merged per-band code histograms.
///
/// Per-band tables are the dominant fixed cost of fine-grained chunking
/// (each band serializes its own RLE length table and pays its own code
/// build); bands of one field usually quantize to near-identical code
/// distributions, so one merged table costs a fraction of the per-band sum
/// at nearly the same code lengths. A band whose own table + payload would
/// be strictly smaller than its shared-table payload — a genuinely
/// divergent distribution, e.g. one turbulent slab in a smooth field —
/// falls back to a self-contained version-1 archive; the comparison is
/// exact (integer bit counts), so the result is deterministic.
///
/// The output interoperates with [`decompress_chunked`], which rebuilds the
/// codec from [`ChunkedArchive::shared_table`] once and feeds it to every
/// version-2 band.
pub fn compress_chunked_shared<T: ScalarFloat + Send + Sync>(
    data: &Tensor<T>,
    config: &Config,
    num_chunks: usize,
    threads: usize,
) -> Result<ChunkedArchive> {
    compress_chunked_shared_telemetry(data, config, num_chunks, threads, None)
}

/// [`compress_chunked_shared`] with optional telemetry: phase-A
/// predict→quantize spans and phase-C entropy/band records are collected
/// per worker and merged into `sink`. Archive bytes are identical with or
/// without a sink.
pub fn compress_chunked_shared_telemetry<T: ScalarFloat + Send + Sync>(
    data: &Tensor<T>,
    config: &Config,
    num_chunks: usize,
    threads: usize,
    sink: Option<&RecordingSink>,
) -> Result<ChunkedArchive> {
    config.validate()?;
    let dims = data.dims().to_vec();
    let ranges = band_ranges(dims[0], num_chunks.max(1));
    let row_elems: usize = dims[1..].iter().product::<usize>().max(1);
    let values = data.as_slice();
    let threads = threads.clamp(1, ranges.len().max(1));

    // Phase A (parallel): predict→quantize each band, holding the code
    // streams in memory (4 bytes/point, transient).
    let sched = BandScheduler::new(ranges.len(), threads);
    let quantized: Vec<Mutex<Option<Result<QuantizedBand>>>> =
        (0..ranges.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut session = CodecSession::<T>::new(*config).expect("config validated above");
                let ws = worker_sink(sink);
                attach(&mut session, &ws);
                let w = sched.register();
                while let Some(band) = sched.next(w) {
                    let (r0, r1) = ranges[band];
                    let mut band_dims = dims.clone();
                    band_dims[0] = r1 - r0;
                    let shape = Shape::new(&band_dims);
                    let slice = &values[r0 * row_elems..r1 * row_elems];
                    let result = session.quantize(slice, &shape);
                    if let Ok(band) = &result {
                        // Force the cached histogram here, in parallel, so
                        // the serial merge below only reads it.
                        band.histogram();
                    }
                    *quantized[band].lock().unwrap() = Some(result);
                }
                merge_into(sink, &ws);
            });
        }
    });
    record_steals(sink, &sched);
    let mut bands = Vec::with_capacity(ranges.len());
    for cell in quantized {
        match cell.into_inner().unwrap() {
            Some(Ok(band)) => bands.push(band),
            Some(Err(e)) => return Err(e),
            None => unreachable!("every band is claimed exactly once"),
        }
    }

    // Phase B (serial): merge the bands' cached histograms (no code-stream
    // re-scan), build the shared codec, and decide per band whether sharing
    // actually wins. Per-band frequency vectors are padded to one common
    // alphabet so the exact size comparison below is unchanged.
    let max_code = bands
        .iter()
        .map(|b| b.histogram().len())
        .max()
        .unwrap_or(0)
        .max(1);
    let mut merged = vec![0u64; max_code];
    let mut band_freqs: Vec<Vec<u64>> = Vec::with_capacity(bands.len());
    for band in &bands {
        let mut freqs = vec![0u64; max_code];
        freqs[..band.histogram().len()].copy_from_slice(band.histogram());
        for (m, f) in merged.iter_mut().zip(&freqs) {
            *m += f;
        }
        band_freqs.push(freqs);
    }
    let shared = HuffmanCodec::from_frequencies(&merged);
    let shared_table_bits = 8 * szr_huffman::serialize_codec(&shared).len() as u64;
    let mut saved_bits = 0u64;
    let use_shared: Vec<bool> = band_freqs
        .iter()
        .map(|freqs| {
            let shared_bits = shared.payload_bits(freqs);
            let own = HuffmanCodec::from_frequencies(freqs);
            let own_total =
                own.payload_bits(freqs) + 8 * szr_huffman::serialize_codec(&own).len() as u64;
            // Exact comparison: shared loses only when the band's own table
            // *plus* its shorter payload still undercuts the shared payload.
            if shared_bits <= own_total {
                saved_bits += own_total - shared_bits;
                true
            } else {
                false
            }
        })
        .collect();
    // Sharing must win *net of storing the table once*: otherwise a set of
    // marginal bands could pay for a table nobody amortizes and the archive
    // would come out larger than plain per-band chunking.
    let any_shared = bands.len() > 1 && saved_bits >= shared_table_bits;

    // Phase C (parallel): entropy-code each band under its chosen table.
    // Telemetry runs through per-worker sessions (band records need the
    // session's band index); the plain path keeps the free function.
    let sched = BandScheduler::new(bands.len(), threads);
    let encoded: Vec<Mutex<Option<Vec<u8>>>> = (0..bands.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut session = sink.map(|_| CodecSession::<T>::decoder());
                let ws = worker_sink(sink);
                if let Some(session) = &mut session {
                    attach(session, &ws);
                }
                let w = sched.register();
                while let Some(band) = sched.next(w) {
                    let table = if any_shared && use_shared[band] {
                        HuffmanTable::Shared(&shared)
                    } else {
                        HuffmanTable::PerBand
                    };
                    let bytes = match &mut session {
                        Some(session) => {
                            session.set_next_band_index(band as u64);
                            session.encode(&bands[band], table).0
                        }
                        None => encode_quantized(&bands[band], table).0,
                    };
                    *encoded[band].lock().unwrap() = Some(bytes);
                }
                merge_into(sink, &ws);
            });
        }
    });
    record_steals(sink, &sched);
    let chunks: Vec<Vec<u8>> = encoded
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .unwrap()
                .expect("every band is claimed exactly once")
        })
        .collect();

    Ok(ChunkedArchive {
        dims,
        chunks,
        shared_table: any_shared.then(|| szr_huffman::serialize_codec(&shared)),
    })
}

/// Compresses `data` as shared-table band archives through the **fused
/// quantize→encode fast path**: the Huffman table is known *before* any
/// worker scans its bands, so each band's codes stream straight from the
/// quantizing scan, one wavefront group at a time, into the band archive's
/// bit buffer — the intermediate per-band `codes: Vec<u32>` (4 bytes/point of transient
/// traffic that [`compress_chunked_shared`]'s staged phases pay twice) is
/// never materialized.
///
/// The table comes from a seed sample — one band's worth of rows strided
/// across the *whole* tensor, quantized staged on the calling thread — so
/// it prices the global code distribution. Its histogram is smoothed with
/// [`szr_core::covering_codec`] (counts clamped to ≥ 1 over the occupied
/// symbol range, so every in-range code has a codeword) and the codec is
/// stored once as the archive's shared table. Workers then compress
/// **every** band fused as a version-2 shared-stream archive under the
/// sample's interval bits; stray out-of-range codes ride as in-band
/// escapes, and a band that structurally diverges (demotion cap) falls
/// back to a self-contained version-1 archive with its own adaptive bits.
/// The bound is resolved against the full tensor once (like
/// [`compress_chunked_planned`]) so the sampled table and every band price
/// the same quantizer. Deterministic: the table is fixed before the
/// parallel phase, so band bytes are independent of scheduling.
///
/// Compared with [`compress_chunked_shared`], archives can be marginally
/// larger (the shared code is fitted on the sample, and bands do not get
/// the exact own-table-vs-shared size comparison) but compression is
/// measurably faster — the trade the in-situ scenarios want. The output
/// decodes through [`decompress_chunked`] unchanged.
pub fn compress_chunked_fused<T: ScalarFloat + Send + Sync>(
    data: &Tensor<T>,
    config: &Config,
    num_chunks: usize,
    threads: usize,
) -> Result<ChunkedArchive> {
    compress_chunked_fused_telemetry(data, config, num_chunks, threads, None)
}

/// [`compress_chunked_fused`] with optional telemetry: the seed sample's
/// staged quantize, every worker's fused scans (including
/// `fused_demotions`/`fused_table_reseeds` counters and staged fallbacks),
/// and per-band records merge into `sink`. Archive bytes are identical with
/// or without a sink.
pub fn compress_chunked_fused_telemetry<T: ScalarFloat + Send + Sync>(
    data: &Tensor<T>,
    config: &Config,
    num_chunks: usize,
    threads: usize,
    sink: Option<&RecordingSink>,
) -> Result<ChunkedArchive> {
    config.validate()?;
    if config.decorrelate {
        // Per-point dither state cannot fuse; the staged shared path is the
        // correct (and still table-sharing) fallback.
        return compress_chunked_shared_telemetry(data, config, num_chunks, threads, sink);
    }
    let dims = data.dims().to_vec();
    let ranges = band_ranges(dims[0], num_chunks.max(1));
    if ranges.len() <= 1 {
        return compress_chunked_telemetry(data, config, num_chunks, threads, sink);
    }
    let row_elems: usize = dims[1..].iter().product::<usize>().max(1);
    let values = data.as_slice();
    let threads = threads.clamp(1, ranges.len());

    // Pin the bound against the full tensor's range so every band honors
    // one absolute guarantee and quantizes on the same intervals the
    // sampled table was built for.
    let range = szr_core::value_range(values);
    let pinned = Config {
        bound: ErrorBound::Absolute(config.bound.effective(range)),
        ..*config
    };

    // Seed the table from a strided row sample spanning the *whole* tensor
    // (one band's worth of rows, planner-style), so the shared code prices
    // the global distribution rather than one band's: a heterogeneous slab
    // elsewhere in the tensor still finds its common codes covered.
    let stride = ranges.len();
    let n_sampled = dims[0].div_ceil(stride);
    let mut sample: Vec<T> = Vec::with_capacity(n_sampled * row_elems);
    for i in (0..dims[0]).step_by(stride) {
        sample.extend_from_slice(&values[i * row_elems..(i + 1) * row_elems]);
    }
    let mut sample_dims = dims.clone();
    sample_dims[0] = n_sampled;
    let mut seeder = CodecSession::<T>::new(pinned)?;
    let seed_sink = worker_sink(sink);
    attach(&mut seeder, &seed_sink);
    let seed = seeder.quantize(&sample, &Shape::new(&sample_dims))?;
    merge_into(sink, &seed_sink);
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

    // All bands: fused under the fixed table, per-worker sessions.
    let sched = BandScheduler::new(ranges.len(), threads);
    type Fused = (Vec<u8>, bool);
    let results: Vec<Mutex<Option<Result<Fused>>>> =
        (0..ranges.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut session =
                    CodecSession::<T>::new(worker_config).expect("config validated above");
                let ws = worker_sink(sink);
                attach(&mut session, &ws);
                let w = sched.register();
                while let Some(band) = sched.next(w) {
                    let (r0, r1) = ranges[band];
                    let mut band_dims = dims.clone();
                    band_dims[0] = r1 - r0;
                    let shape = Shape::new(&band_dims);
                    let slice = &values[r0 * row_elems..r1 * row_elems];
                    session.set_next_band_index(band as u64);
                    let result = match session.compress_slice_shared_fused(slice, &shape, &shared) {
                        Ok(Some((bytes, _))) => Ok((bytes, true)),
                        // Structural divergence: self-contained staged
                        // fallback under the caller's interval mode, so the
                        // band gets its own adaptive bits and table.
                        Ok(None) => {
                            session.set_next_band_index(band as u64);
                            let staged = match session.set_config(pinned) {
                                Ok(()) => session
                                    .compress_slice(slice, &shape)
                                    .map(|(bytes, _)| (bytes, false)),
                                Err(e) => Err(e),
                            };
                            session
                                .set_config(worker_config)
                                .expect("config validated above");
                            staged
                        }
                        Err(e) => Err(e),
                    };
                    *results[band].lock().unwrap() = Some(result);
                }
                merge_into(sink, &ws);
            });
        }
    });
    record_steals(sink, &sched);

    let mut chunks = Vec::with_capacity(ranges.len());
    let mut any_shared = false;
    for cell in results {
        match cell.into_inner().unwrap() {
            Some(Ok((bytes, used_shared))) => {
                any_shared |= used_shared;
                chunks.push(bytes);
            }
            Some(Err(e)) => return Err(e),
            None => unreachable!("every band is claimed exactly once"),
        }
    }
    Ok(ChunkedArchive {
        dims,
        chunks,
        shared_table: any_shared.then(|| szr_huffman::serialize_codec(&shared)),
    })
}

/// Decompresses a [`ChunkedArchive`] back into one tensor using up to
/// `threads` worker threads.
pub fn decompress_chunked<T: ScalarFloat + Send + Sync>(
    archive: &ChunkedArchive,
    threads: usize,
) -> Result<Tensor<T>> {
    decompress_chunked_telemetry(archive, threads, None)
}

/// [`decompress_chunked`] under an explicit [`DecodePolicy`]:
/// [`DecodePolicy::Strict`] matches [`decompress_chunked`] exactly, while
/// `Verify`/`Salvage` make every worker recompute each band's v3 section
/// checksums and fail the decode on the first mismatch (section-named
/// error). For fill-and-continue semantics on damaged bands use
/// [`decompress_chunked_salvage`] instead.
pub fn decompress_chunked_with_policy<T: ScalarFloat + Send + Sync>(
    archive: &ChunkedArchive,
    threads: usize,
    policy: DecodePolicy,
) -> Result<Tensor<T>> {
    decompress_chunked_policy_telemetry(archive, threads, policy, None)
}

/// [`decompress_chunked`] with optional telemetry: header/deflate/symbol
/// decode/row reconstruction spans plus kernel- and codec-table-cache
/// counters from every worker merge into `sink`. Output is identical with
/// or without a sink.
pub fn decompress_chunked_telemetry<T: ScalarFloat + Send + Sync>(
    archive: &ChunkedArchive,
    threads: usize,
    sink: Option<&RecordingSink>,
) -> Result<Tensor<T>> {
    decompress_chunked_policy_telemetry(archive, threads, DecodePolicy::Strict, sink)
}

/// Decodes every band of `archive` in parallel under `policy`, returning
/// per-band results in band order. The shared codec (if any) is rebuilt
/// once and lent to every worker; version-1 bands ignore it. A corrupt
/// shared table is an error in strict/verify stitching but surfaces here as
/// `Err` per shared-stream band, which is what salvage wants.
#[allow(clippy::type_complexity)]
fn decode_bands<T: ScalarFloat + Send + Sync>(
    archive: &ChunkedArchive,
    threads: usize,
    policy: DecodePolicy,
    sink: Option<&RecordingSink>,
) -> (Result<()>, Vec<Result<Tensor<T>>>) {
    let threads = threads.clamp(1, archive.chunks.len().max(1));
    let shared = match archive
        .shared_table
        .as_deref()
        .map(szr_huffman::deserialize_codec)
        .transpose()
    {
        Ok(codec) => codec,
        Err(e) => {
            return (
                Err(SzError::Corrupt(format!("shared huffman table: {e}"))),
                Vec::new(),
            )
        }
    };

    // Decode bands in parallel, then stitch; band extents are re-derived
    // from each chunk's own header so a corrupt archive fails loudly.
    let sched = BandScheduler::new(archive.chunks.len(), threads);
    let decoded: Vec<Mutex<Option<Result<Tensor<T>>>>> = (0..archive.chunks.len())
        .map(|_| Mutex::new(None))
        .collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // Mirror of the compress side's reuse: one decode-only
                // session per worker, whose kernel cache (keyed on layer
                // count and stride family) and symbol scratch serve every
                // band the worker claims.
                let mut session = CodecSession::<T>::decoder();
                session.set_decode_policy(policy);
                let ws = worker_sink(sink);
                attach(&mut session, &ws);
                let w = sched.register();
                while let Some(band) = sched.next(w) {
                    let result = match &shared {
                        Some(codec) => session.decompress_shared(&archive.chunks[band], codec),
                        None => session.decompress(&archive.chunks[band]),
                    };
                    *decoded[band].lock().unwrap() = Some(result);
                }
                merge_into(sink, &ws);
            });
        }
    });
    record_steals(sink, &sched);
    let results = decoded
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .unwrap()
                .expect("every band is claimed exactly once")
        })
        .collect();
    (Ok(()), results)
}

/// [`decompress_chunked_with_policy`] with optional telemetry.
pub fn decompress_chunked_policy_telemetry<T: ScalarFloat + Send + Sync>(
    archive: &ChunkedArchive,
    threads: usize,
    policy: DecodePolicy,
    sink: Option<&RecordingSink>,
) -> Result<Tensor<T>> {
    let shape = Shape::new(&archive.dims);
    let row_elems: usize = archive.dims[1..].iter().product::<usize>().max(1);
    // Bound the output allocation by the bytes actually present before
    // trusting the container's declared dims.
    check_declared_len(shape.len(), archive.compressed_bytes() + 1)?;
    let mut out: Vec<T> = vec![T::from_f64(0.0); shape.len()];
    let (setup, decoded) = decode_bands::<T>(archive, threads, policy, sink);
    setup?;

    let mut row = 0usize;
    for cell in decoded {
        let band = cell?;
        if band.dims()[1..] != archive.dims[1..] {
            return Err(SzError::Corrupt("band inner dimensions disagree".into()));
        }
        let rows = band.dims()[0];
        if (row + rows) > archive.dims[0] {
            return Err(SzError::Corrupt("bands overrun the original extent".into()));
        }
        out[row * row_elems..(row + rows) * row_elems].copy_from_slice(band.as_slice());
        row += rows;
    }
    if row != archive.dims[0] {
        return Err(SzError::Corrupt(
            "bands do not cover the original extent".into(),
        ));
    }
    Ok(Tensor::from_vec(shape, out))
}

/// Decodes only bands `bands` of a *serialized* chunked archive, seeking
/// through its [`BandIndex`] — O(touched bands), never O(archive). Returns
/// the stitched sub-tensor (the selected bands' rows, original inner dims).
///
/// The touched band payloads are bit-identical to what the sequential walk
/// hands [`decompress_chunked`], so the rows come back byte-identical to
/// the corresponding slice of a full decode. Archives without a usable
/// index (v1, or a damaged index) transparently pay the sequential header
/// walk to locate bands, then still decode only the selected payloads.
pub fn read_bands<T: ScalarFloat + Send + Sync>(
    bytes: &[u8],
    bands: Range<usize>,
    threads: usize,
    policy: DecodePolicy,
) -> Result<Tensor<T>> {
    let index = band_index(bytes)?;
    read_bands_indexed(bytes, &index, bands, threads, policy)
}

/// [`read_bands`] against a caller-held [`BandIndex`], so repeated region
/// reads of one archive parse the index once.
pub fn read_bands_indexed<T: ScalarFloat + Send + Sync>(
    bytes: &[u8],
    index: &BandIndex,
    bands: Range<usize>,
    threads: usize,
    policy: DecodePolicy,
) -> Result<Tensor<T>> {
    if bands.start >= bands.end || bands.end > index.entries.len() {
        return Err(SzError::InvalidConfig(
            "band range is empty or exceeds the band count",
        ));
    }
    let shared = index
        .shared_table_slice(bytes)
        .map(szr_huffman::deserialize_codec)
        .transpose()
        .map_err(|e| SzError::Corrupt(format!("shared huffman table: {e}")))?;
    let selected: Vec<usize> = bands.clone().collect();
    let rows_total: usize = selected.iter().map(|&b| index.entries[b].rows).sum();
    let row_elems: usize = index.dims[1..].iter().product::<usize>().max(1);
    let mut out_dims = index.dims.clone();
    out_dims[0] = rows_total;
    let shape = Shape::new(&out_dims);
    let threads = threads.clamp(1, selected.len());

    let sched = BandScheduler::new(selected.len(), threads);
    let decoded: Vec<Mutex<Option<Result<Tensor<T>>>>> =
        (0..selected.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut session = CodecSession::<T>::decoder();
                session.set_decode_policy(policy);
                let w = sched.register();
                while let Some(slot) = sched.next(w) {
                    let result =
                        index
                            .band_slice(bytes, selected[slot])
                            .and_then(|chunk| match &shared {
                                Some(codec) => session.decompress_shared(chunk, codec),
                                None => session.decompress(chunk),
                            });
                    *decoded[slot].lock().unwrap() = Some(result);
                }
            });
        }
    });

    let mut out: Vec<T> = vec![T::from_f64(0.0); shape.len()];
    let mut row = 0usize;
    for (slot, cell) in decoded.into_iter().enumerate() {
        let band = cell
            .into_inner()
            .unwrap()
            .expect("every selected band is claimed exactly once")?;
        if band.dims()[1..] != index.dims[1..] {
            return Err(SzError::Corrupt("band inner dimensions disagree".into()));
        }
        // The index's row extent located this band inside the tensor; a
        // band that decodes to a different extent would mis-place every
        // later row, so it is a hard error, not a silent shift.
        if band.dims()[0] != index.entries[selected[slot]].rows {
            return Err(SzError::Corrupt(
                "index: band row extent disagrees with the decoded band".into(),
            ));
        }
        let rows = band.dims()[0];
        out[row * row_elems..(row + rows) * row_elems].copy_from_slice(band.as_slice());
        row += rows;
    }
    Ok(Tensor::from_vec(shape, out))
}

/// Decodes exactly the slowest-dimension rows `rows` of a serialized
/// chunked archive: maps the row range onto the covering bands through the
/// [`BandIndex`], decodes only those via [`read_bands_indexed`], and trims
/// the stitched result to the requested rows. This is the ROI read the
/// in-situ scenarios want — cost scales with the region, not the archive.
pub fn decompress_chunked_region<T: ScalarFloat + Send + Sync>(
    bytes: &[u8],
    rows: Range<usize>,
    threads: usize,
    policy: DecodePolicy,
) -> Result<Tensor<T>> {
    let index = band_index(bytes)?;
    let (bands, first_row) = index.bands_covering_rows(rows.clone())?;
    let stitched = read_bands_indexed::<T>(bytes, &index, bands, threads, policy)?;
    let row_elems: usize = index.dims[1..].iter().product::<usize>().max(1);
    let skip = rows.start - first_row;
    let keep = rows.end - rows.start;
    if stitched.dims()[0] < skip + keep {
        return Err(SzError::Corrupt(
            "index: covering bands hold fewer rows than declared".into(),
        ));
    }
    let mut out_dims = index.dims.clone();
    out_dims[0] = keep;
    let out = stitched.as_slice()[skip * row_elems..(skip + keep) * row_elems].to_vec();
    Ok(Tensor::from_vec(Shape::new(&out_dims), out))
}

/// Decodes every intact band of a possibly-damaged [`ChunkedArchive`],
/// verifying each band's v3 checksums, and returns the stitched tensor plus
/// a [`SalvageReport`]. Damaged bands' rows are filled with `fill` (intact
/// bands are bit-identical to a verify decode); a damaged band's row
/// placement comes from its declared extent when the band header still
/// parses plausibly, and once that is unrecoverable, alignment for every
/// later band is lost — those are reported damaged rather than decoded
/// into the wrong rows. A corrupt *shared table* damages only the
/// shared-stream bands; self-contained bands still recover.
///
/// # Errors
/// [`SzError::Corrupt`] when the container frame itself (dims implausible
/// for the byte budget) is unusable — there is nothing to align against.
pub fn decompress_chunked_salvage<T: ScalarFloat + Send + Sync>(
    archive: &ChunkedArchive,
    threads: usize,
    fill: T,
) -> Result<(Tensor<T>, SalvageReport)> {
    decompress_chunked_salvage_telemetry(archive, threads, fill, None)
}

/// [`decompress_chunked_salvage`] with optional telemetry: on top of the
/// usual decode spans/counters, the number of filled bands is recorded
/// under `salvaged_bands`.
pub fn decompress_chunked_salvage_telemetry<T: ScalarFloat + Send + Sync>(
    archive: &ChunkedArchive,
    threads: usize,
    fill: T,
    sink: Option<&RecordingSink>,
) -> Result<(Tensor<T>, SalvageReport)> {
    let shape = Shape::new(&archive.dims);
    let row_elems: usize = archive.dims[1..].iter().product::<usize>().max(1);
    check_declared_len(shape.len(), archive.compressed_bytes() + 1)?;
    let mut out: Vec<T> = vec![fill; shape.len()];
    let (_, decoded) = decode_bands::<T>(archive, threads, DecodePolicy::Verify, sink);

    let mut report = SalvageReport {
        bands: archive.chunks.len(),
        recovered: Vec::new(),
        damaged: Vec::new(),
        fill: fill.to_f64(),
    };
    // Byte ranges are offsets into the concatenated band payload region, in
    // band order — the stable coordinate system a repair tool can map back
    // onto the serialized container.
    let mut offset = 0usize;
    let mut row = 0usize;
    let mut aligned = true;
    for (i, result) in decoded.into_iter().enumerate() {
        let len = archive.chunks[i].len();
        let byte_range = (offset, offset + len);
        offset += len;
        if !aligned {
            report.damaged.push(BandDamage {
                band: i,
                byte_range,
                error: "row alignment lost after earlier damage".into(),
            });
            continue;
        }
        let rows_fit = |dims: &[usize]| {
            dims.len() == archive.dims.len()
                && dims[1..] == archive.dims[1..]
                && row + dims[0] <= archive.dims[0]
        };
        match result {
            Ok(band) if rows_fit(band.dims()) => {
                let rows = band.dims()[0];
                out[row * row_elems..(row + rows) * row_elems].copy_from_slice(band.as_slice());
                report.recovered.push(i);
                row += rows;
            }
            Ok(_) => {
                report.damaged.push(BandDamage {
                    band: i,
                    byte_range,
                    error: "band extent disagrees with container dims".into(),
                });
                aligned = false;
            }
            Err(e) => {
                // Place the fill by the band's declared extent when its
                // header still parses consistently with the container.
                match szr_core::inspect(&archive.chunks[i]) {
                    Ok(info) if rows_fit(&info.dims) => row += info.dims[0],
                    _ => aligned = false,
                }
                report.damaged.push(BandDamage {
                    band: i,
                    byte_range,
                    error: e.to_string(),
                });
            }
        }
    }
    if let Some(sink) = sink {
        if !report.damaged.is_empty() {
            sink.counter(
                szr_telemetry::Counter::SalvagedBands,
                report.damaged.len() as u64,
            );
        }
    }
    Ok((Tensor::from_vec(shape, out), report))
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
        let eb = ErrorBound::Absolute(1e-3);
        let (archive, configs) = compress_chunked_planned(&data, eb, 2, 2).unwrap();
        assert_eq!(configs.len(), 2);
        let bits = |c: &Config| match c.intervals {
            szr_core::IntervalMode::Fixed { bits } => bits,
            _ => panic!("planned configs pin their interval bits"),
        };
        assert!(
            bits(&configs[0]) < bits(&configs[1]),
            "smooth band {:?} should use fewer interval bits than noisy band {:?}",
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
        let eb = ErrorBound::Relative(1e-4);
        let (a, ca) = compress_chunked_planned(&data, eb, 8, 1).unwrap();
        let (b, cb) = compress_chunked_planned(&data, eb, 8, 4).unwrap();
        assert_eq!(a.chunks, b.chunks);
        assert_eq!(ca, cb);
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
        let shared = compress_chunked_shared(&data, &config, 32, 4).unwrap();
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
        let a = compress_chunked_shared(&data, &config, 8, 1).unwrap();
        let b = compress_chunked_shared(&data, &config, 8, 4).unwrap();
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
        let archive = compress_chunked_shared(&data, &config, 4, 2).unwrap();
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
        let archive = compress_chunked_fused(&data, &config, 16, 4).unwrap();
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
        let a = compress_chunked_fused(&data, &config, 8, 1).unwrap();
        let b = compress_chunked_fused(&data, &config, 8, 4).unwrap();
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
        let archive = compress_chunked_fused(&data, &config, 4, 2).unwrap();
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
        let fused = compress_chunked_fused(&data, &config, 1, 2).unwrap();
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
            compress_chunked_shared(&data, &config, 6, 2).unwrap(),
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
        let archive = compress_chunked_shared(&data, &config, 6, 2).unwrap();
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
        let mut archive = compress_chunked_shared(&data, &config, 8, 2).unwrap();
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
            compress_chunked_shared(&data, &config, 6, 2).unwrap(),
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
        let archive = compress_chunked_shared(&data, &config, 6, 2).unwrap();
        let legacy = archive.to_bytes_legacy();
        assert_eq!(legacy[4], 1);
        let back = ChunkedArchive::from_bytes(&legacy).unwrap();
        assert_eq!(back.chunks, archive.chunks);
        assert_eq!(back.shared_table, archive.shared_table);
        // The un-indexed walk still powers random access.
        let index = band_index(&legacy).unwrap();
        assert!(!index.from_index);
        let roi: Tensor<f32> = read_bands(&legacy, 1..3, 2, DecodePolicy::Strict).unwrap();
        let full: Tensor<f32> = decompress_chunked(&back, 2).unwrap();
        let row_elems = archive.dims[1];
        let r0 = index.entries[0].rows;
        let r1 = r0 + index.entries[1].rows + index.entries[2].rows;
        assert_eq!(
            roi.as_slice(),
            &full.as_slice()[r0 * row_elems..r1 * row_elems]
        );
    }

    #[test]
    fn read_bands_matches_the_full_decode() {
        let data = field();
        let config = Config::new(ErrorBound::Absolute(1e-3));
        for archive in [
            compress_chunked(&data, &config, 8, 2).unwrap(),
            compress_chunked_shared(&data, &config, 8, 2).unwrap(),
        ] {
            let bytes = archive.to_bytes();
            let full: Tensor<f32> = decompress_chunked(&archive, 2).unwrap();
            let index = band_index(&bytes).unwrap();
            let row_elems = archive.dims[1];
            let mut row = 0usize;
            for (band, entry) in index.entries.iter().enumerate() {
                let one: Tensor<f32> =
                    read_bands(&bytes, band..band + 1, 1, DecodePolicy::Strict).unwrap();
                assert_eq!(
                    one.as_slice(),
                    &full.as_slice()[row * row_elems..(row + entry.rows) * row_elems]
                );
                row += entry.rows;
            }
            let mid: Tensor<f32> = read_bands(&bytes, 2..6, 2, DecodePolicy::Strict).unwrap();
            let start: usize = index.entries[..2].iter().map(|e| e.rows).sum();
            let span: usize = index.entries[2..6].iter().map(|e| e.rows).sum();
            assert_eq!(
                mid.as_slice(),
                &full.as_slice()[start * row_elems..(start + span) * row_elems]
            );
            assert!(read_bands::<f32>(&bytes, 3..3, 1, DecodePolicy::Strict).is_err());
            assert!(read_bands::<f32>(&bytes, 0..9, 1, DecodePolicy::Strict).is_err());
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
        let archive = compress_chunked_shared(&data, &config, 6, 2).unwrap();
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
