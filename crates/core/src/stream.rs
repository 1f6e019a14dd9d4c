//! Bounded-memory streaming compression for in-situ use.
//!
//! §VI's in-situ scenario has each rank compress data *as the simulation
//! produces it*. A monolithic [`crate::compress`] call needs the whole
//! variable in memory; [`StreamCompressor`] instead accepts slabs
//! (groups of rows along the slowest dimension) as they appear and emits
//! one self-contained band archive per flush, holding only the current
//! slab in memory.
//!
//! The output is a sequence of independent archives — the same layout
//! `szr-parallel`'s chunked driver produces — so a stream written by this
//! API is readable by [`StreamDecompressor`] *or* reassembled wholesale.
//! Prediction does not cross band boundaries (each band's first row
//! re-anchors), costing a fraction of a percent in ratio for typical band
//! heights; the error bound is untouched.

use crate::config::{Config, ErrorBound};
use crate::decompress::{
    check_declared_len, decompress_with_policy, BandDamage, DecodePolicy, SalvageReport,
};
use crate::float::ScalarFloat;
use crate::session::CodecSession;
use crate::{Result, SzError};
use szr_bitstream::{ByteReader, ByteWriter};
use szr_tensor::{Shape, Tensor};

const MAGIC: [u8; 4] = *b"SZST";

/// Incremental compressor: push slabs, emits band archives.
pub struct StreamCompressor<T: ScalarFloat> {
    /// Inner (non-leading) dimensions; a slab is `rows × inner_dims`.
    inner_dims: Vec<usize>,
    /// The user's original bound spec — [`Self::reset`] re-arms the session
    /// with it so each stream re-resolves relative bounds from its own
    /// first band.
    config: Config,
    /// Rows buffered but not yet flushed.
    pending: Vec<T>,
    pending_rows: usize,
    /// Rows per emitted band.
    band_rows: usize,
    out: ByteWriter,
    bands: u64,
    total_rows: u64,
    /// Absolute bound resolved from the first slab (relative bounds need a
    /// range; streaming uses the first slab's range as the estimate, which
    /// SZ's in-situ mode also does).
    resolved_eb: Option<f64>,
    /// The owning pipeline object: scan kernel (and its row-engine
    /// scratch), quantize buffers, entropy scratch, and — in table-reuse
    /// mode — the fused-path Huffman table all live here, paid once per
    /// compressor, not once per flush.
    session: CodecSession<T>,
}

impl<T: ScalarFloat> StreamCompressor<T> {
    /// Creates a streaming compressor.
    ///
    /// `inner_dims` are the non-leading dimensions (e.g. `[3600]` to stream
    /// an 1800×3600 field row by row); `band_rows` is the flush
    /// granularity.
    ///
    /// # Errors
    /// Rejects invalid configs or an empty `inner_dims`/zero `band_rows`.
    pub fn new(inner_dims: &[usize], band_rows: usize, config: Config) -> Result<Self> {
        config.validate()?;
        if inner_dims.contains(&0) || band_rows == 0 {
            return Err(SzError::InvalidConfig("stream dimensions must be positive"));
        }
        Ok(Self {
            out: Self::stream_header(inner_dims),
            inner_dims: inner_dims.to_vec(),
            config,
            pending: Vec::new(),
            pending_rows: 0,
            band_rows,
            bands: 0,
            total_rows: 0,
            resolved_eb: None,
            session: CodecSession::new(config)?,
        })
    }

    /// Enables the fused quantize→encode fast path: after each stream's
    /// first band, later bands reuse the session's retained Huffman table —
    /// built from the previous staged band's histogram with full
    /// symbol-range coverage — and stream their codes straight into the
    /// band archive's bit buffer, never materializing the intermediate
    /// code vector. A band whose codes leave the table's symbol range
    /// falls back to the staged path and rebuilds the table, so the bound
    /// and the self-describing band-archive format are unaffected; band
    /// *bytes* may differ from default-mode output (the embedded table is
    /// the reused one), which is why the mode is opt-in.
    pub fn with_table_reuse(mut self) -> Self {
        self.session.set_table_reuse(true);
        self
    }

    /// Attaches (or detaches, with `None`) a telemetry sink on the inner
    /// [`CodecSession`]: every flushed band reports its spans, counters,
    /// and [`szr_telemetry::BandRecord`] through it. Pass a
    /// [`szr_telemetry::NoopSink`] — or `None` — for zero-overhead
    /// streaming; band archives are byte-identical either way.
    pub fn set_telemetry(
        &mut self,
        sink: Option<std::sync::Arc<dyn szr_telemetry::TelemetrySink>>,
    ) {
        self.session.set_telemetry(sink);
    }

    /// The per-stream header: magic, scalar tag, rank, inner extents.
    /// Leading extent is patched conceptually at finish via the trailer;
    /// bands carry their own extents.
    fn stream_header(inner_dims: &[usize]) -> ByteWriter {
        let mut out = ByteWriter::new();
        out.write_bytes(&MAGIC);
        out.write_u8(T::TYPE_TAG);
        out.write_varint(inner_dims.len() as u64 + 1);
        for &d in inner_dims {
            out.write_varint(d as u64);
        }
        out
    }

    /// Resets the compressor to begin a fresh stream with the same geometry
    /// and configuration, discarding any pending unflushed rows and buffered
    /// output. The session — scan kernel, row-engine scratch, quantize and
    /// entropy buffers — survives, so an in-situ loop compressing one
    /// stream per time step pays that setup once, not once per step. The
    /// stream produced after a reset is byte-identical to a fresh
    /// compressor's: relative bounds re-resolve from the new stream's first
    /// band, and a table-reuse session drops its retained table so the new
    /// stream's first band is staged again.
    pub fn reset(&mut self) {
        self.pending.clear();
        self.pending_rows = 0;
        self.bands = 0;
        self.total_rows = 0;
        self.resolved_eb = None;
        self.session
            .set_config(self.config)
            .expect("config validated at construction");
        self.session.reset_reused_table();
        self.out = Self::stream_header(&self.inner_dims);
    }

    /// Flushes any partial band, appends the trailer, and returns the
    /// finished stream — then [`Self::reset`]s so the compressor is
    /// immediately ready for the next stream. The reusable sibling of
    /// [`Self::finish`] for callers emitting many streams (one per time
    /// step) from one compressor.
    ///
    /// # Errors
    /// Like [`Self::finish`], an empty stream (no rows pushed since the
    /// last reset) is an error; the compressor is left reset regardless.
    pub fn finish_stream(&mut self) -> Result<Vec<u8>> {
        if self.pending_rows > 0 {
            self.flush_band(self.pending_rows)?;
        }
        let total_rows = self.total_rows;
        self.out.write_varint(self.bands);
        self.out.write_varint(total_rows);
        let bytes = std::mem::replace(&mut self.out, ByteWriter::new());
        self.reset();
        if total_rows == 0 {
            return Err(SzError::InvalidConfig("stream holds no rows"));
        }
        Ok(bytes.into_bytes())
    }

    /// Elements per row (product of the inner dimensions).
    fn row_elems(&self) -> usize {
        self.inner_dims.iter().product::<usize>().max(1)
    }

    /// Pushes one or more complete rows.
    ///
    /// # Errors
    /// The slice length must be a multiple of the row size.
    pub fn push(&mut self, rows: &[T]) -> Result<()> {
        let re = self.row_elems();
        if !rows.len().is_multiple_of(re) {
            return Err(SzError::InvalidConfig("pushed slab is not whole rows"));
        }
        self.pending.extend_from_slice(rows);
        self.pending_rows += rows.len() / re;
        while self.pending_rows >= self.band_rows {
            self.flush_band(self.band_rows)?;
        }
        Ok(())
    }

    fn flush_band(&mut self, rows: usize) -> Result<()> {
        let re = self.row_elems();
        let take = rows * re;
        let band: Vec<T> = self.pending.drain(..take).collect();
        self.pending_rows -= rows;

        let mut dims = Vec::with_capacity(self.inner_dims.len() + 1);
        dims.push(rows);
        dims.extend_from_slice(&self.inner_dims);
        let shape = Shape::new(&dims);
        let (archive, stats) = self.session.compress_slice(&band, &shape)?;
        if self.resolved_eb.is_none() {
            // Pin the bound after the first band so every band guarantees
            // the same absolute eb (a per-band relative bound would drift).
            self.resolved_eb = Some(stats.eb_abs);
            self.session.set_config(Config {
                bound: ErrorBound::Absolute(stats.eb_abs),
                ..self.config
            })?;
        }
        self.out.write_len_prefixed(&archive);
        self.bands += 1;
        self.total_rows += rows as u64;
        Ok(())
    }

    /// Flushes any partial band and returns the stream bytes.
    pub fn finish(mut self) -> Result<Vec<u8>> {
        self.finish_stream()
    }
}

/// Reads a stream produced by [`StreamCompressor`] band by band.
pub struct StreamDecompressor<'a, T: ScalarFloat> {
    /// The full stream, kept for salvage byte-range reporting.
    base: &'a [u8],
    reader: ByteReader<'a>,
    inner_dims: Vec<usize>,
    remaining_bands: u64,
    /// Total rows declared by the stream trailer.
    total_rows: u64,
    /// Rows of the bands [`Self::next_band`] has already yielded.
    rows_read: u64,
    policy: DecodePolicy,
    _marker: std::marker::PhantomData<T>,
}

impl<'a, T: ScalarFloat> StreamDecompressor<'a, T> {
    /// Parses the stream header.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        // Trailer first: band count and total rows are the last two
        // varints; scanning from the back is awkward with varints, so
        // re-derive the band count by walking the length-prefixed bands —
        // the trailer then validates the walk.
        let mut reader = ByteReader::new(bytes);
        if reader.read_bytes(4)? != MAGIC {
            return Err(SzError::Corrupt("bad stream magic".into()));
        }
        if reader.read_u8()? != T::TYPE_TAG {
            return Err(SzError::WrongType {
                expected: T::NAME,
                found: "other",
            });
        }
        let ndim = reader.read_varint()? as usize;
        if !(1..=16).contains(&ndim) {
            return Err(SzError::Corrupt("implausible stream rank".into()));
        }
        let mut inner_dims = Vec::with_capacity(ndim - 1);
        for _ in 0..ndim - 1 {
            let d = reader.read_varint()? as usize;
            if d == 0 {
                return Err(SzError::Corrupt("zero inner extent".into()));
            }
            inner_dims.push(d);
        }
        // Walk bands to find the trailer.
        let mut probe = reader.clone();
        let mut bands = 0u64;
        let total_rows;
        loop {
            // Attempt to read a band; when the remaining bytes parse as the
            // trailer (two varints that match), stop.
            let mut trailer_probe = probe.clone();
            if let (Ok(b), Ok(rows)) = (trailer_probe.read_varint(), trailer_probe.read_varint()) {
                if trailer_probe.remaining() == 0 && b == bands {
                    total_rows = rows;
                    break;
                }
            }
            probe
                .read_len_prefixed()
                .map_err(|_| SzError::Corrupt("stream band truncated".into()))?;
            bands += 1;
        }
        // The trailer's row total sizes salvage output; bound it by the
        // stream's actual byte length before ever allocating from it.
        let row_elems: usize = inner_dims.iter().product::<usize>().max(1);
        check_declared_len((total_rows as usize).saturating_mul(row_elems), bytes.len())?;
        Ok(Self {
            base: bytes,
            reader,
            inner_dims,
            remaining_bands: bands,
            total_rows,
            rows_read: 0,
            policy: DecodePolicy::Strict,
            _marker: std::marker::PhantomData,
        })
    }

    /// Sets how band decodes treat v3 section checksums (see
    /// [`DecodePolicy`]): `Strict` (default) skips CRC recomputation,
    /// `Verify`/`Salvage` recompute and reject damaged sections.
    /// [`Self::collect_all_salvage`] always verifies, regardless.
    pub fn set_decode_policy(&mut self, policy: DecodePolicy) {
        self.policy = policy;
    }

    /// Inner (per-row) dimensions.
    pub fn inner_dims(&self) -> &[usize] {
        &self.inner_dims
    }

    /// Bands left to read.
    pub fn remaining_bands(&self) -> u64 {
        self.remaining_bands
    }

    /// Borrowed archive slices of the remaining bands, without decoding any
    /// of them — the introspection hook behind `szr inspect` on stream
    /// archives (each slice parses with [`crate::inspect_layout`]).
    ///
    /// # Errors
    /// [`SzError::Corrupt`] when a band's length prefix overruns the stream.
    pub fn band_slices(&self) -> Result<Vec<&'a [u8]>> {
        let mut reader = self.reader.clone();
        let mut out = Vec::with_capacity(self.remaining_bands as usize);
        for _ in 0..self.remaining_bands {
            out.push(reader.read_len_prefixed()?);
        }
        Ok(out)
    }

    /// Decompresses the next band, or `None` at the end of the stream.
    #[allow(clippy::should_implement_trait)] // fallible iterator
    pub fn next_band(&mut self) -> Option<Result<Tensor<T>>> {
        if self.remaining_bands == 0 {
            return None;
        }
        self.remaining_bands -= 1;
        let band = match self.reader.read_len_prefixed() {
            Ok(b) => b,
            Err(e) => return Some(Err(e.into())),
        };
        let tensor = match decompress_with_policy::<T>(band, self.policy) {
            Ok(t) => t,
            Err(e) => return Some(Err(e)),
        };
        if tensor.dims()[1..] != self.inner_dims {
            return Some(Err(SzError::Corrupt("band inner dims disagree".into())));
        }
        self.rows_read += tensor.dims()[0] as u64;
        Some(Ok(tensor))
    }

    /// Reads every band not yet read into one tensor, sized from the
    /// trailer's row total less the rows [`Self::next_band`] already
    /// yielded. One decode-only session decodes each band straight into its
    /// rows of the output, after the band's header is checked against the
    /// stream geometry.
    ///
    /// # Errors
    /// As [`Self::next_band`], plus [`SzError::Corrupt`] when no rows are
    /// left or the bands' rows do not add up to the trailer's total.
    pub fn collect_all(self) -> Result<Tensor<T>> {
        let inner: usize = self.inner_dims.iter().product::<usize>().max(1);
        let total_rows = match self.total_rows.checked_sub(self.rows_read) {
            Some(rows @ 1..) => rows as usize,
            _ => return Err(SzError::Corrupt("stream holds no rows left to read".into())),
        };
        let mut data = vec![T::from_f64(0.0); total_rows * inner];
        let mut session = CodecSession::<T>::decoder();
        session.set_decode_policy(self.policy);
        let mut row = 0usize;
        for band in self.band_slices()? {
            let dims = crate::inspect(band)?.dims;
            let rows = dims[0];
            if dims[1..] != self.inner_dims {
                return Err(SzError::Corrupt("band inner dims disagree".into()));
            }
            if row + rows > total_rows {
                return Err(SzError::Corrupt(
                    "stream bands overrun the trailer's row total".into(),
                ));
            }
            session.decompress_into(band, &mut data[row * inner..(row + rows) * inner])?;
            row += rows;
        }
        if row != total_rows {
            return Err(SzError::Corrupt(
                "stream bands do not cover the trailer's row total".into(),
            ));
        }
        let mut dims = vec![total_rows];
        dims.extend_from_slice(&self.inner_dims);
        Ok(Tensor::from_vec(&dims[..], data))
    }

    /// Decodes every intact band of a possibly-damaged stream, verifying
    /// each band's v3 checksums, and returns the reassembled tensor plus a
    /// [`SalvageReport`]. Damaged bands' rows are filled with `fill`; their
    /// row placement comes from the band's declared extent when the header
    /// still parses plausibly. Once a damaged band's extent is
    /// unrecoverable, row alignment for everything after it is lost — those
    /// bands are reported damaged too rather than decoded into the wrong
    /// rows.
    ///
    /// # Errors
    /// [`SzError::Corrupt`] when the stream-level framing itself (header,
    /// band length prefixes, trailer) is unusable — there is nothing to
    /// align a salvage against.
    pub fn collect_all_salvage(self, fill: T) -> Result<(Tensor<T>, SalvageReport)> {
        let inner: usize = self.inner_dims.iter().product::<usize>().max(1);
        let total_rows = self.total_rows as usize;
        if total_rows == 0 {
            return Err(SzError::Corrupt("stream trailer declares no rows".into()));
        }
        let slices = self.band_slices()?;
        let base = self.base.as_ptr() as usize;
        let mut data: Vec<T> = vec![fill; total_rows * inner];
        let mut report = SalvageReport {
            bands: slices.len(),
            recovered: Vec::new(),
            damaged: Vec::new(),
            fill: fill.to_f64(),
        };
        let mut cursor = 0usize; // rows placed so far
        let mut aligned = true;
        for (i, band) in slices.iter().enumerate() {
            let start = band.as_ptr() as usize - base;
            let byte_range = (start, start + band.len());
            if !aligned {
                report.damaged.push(BandDamage {
                    band: i,
                    byte_range,
                    error: "row alignment lost after earlier damage".into(),
                });
                continue;
            }
            let rows_fit = |dims: &[usize]| {
                dims.len() == self.inner_dims.len() + 1
                    && dims[1..] == self.inner_dims
                    && cursor + dims[0] <= total_rows
            };
            match decompress_with_policy::<T>(band, DecodePolicy::Verify) {
                Ok(t) if rows_fit(t.dims()) => {
                    let rows = t.dims()[0];
                    data[cursor * inner..(cursor + rows) * inner].copy_from_slice(t.as_slice());
                    report.recovered.push(i);
                    cursor += rows;
                }
                Ok(_) => {
                    report.damaged.push(BandDamage {
                        band: i,
                        byte_range,
                        error: "band extent disagrees with stream geometry".into(),
                    });
                    aligned = false;
                }
                Err(e) => {
                    // Place the damage by the band's declared extent when
                    // the header still parses and stays consistent with the
                    // stream geometry; otherwise alignment is lost.
                    match crate::decompress::inspect(band) {
                        Ok(info) if rows_fit(&info.dims) => cursor += info.dims[0],
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
        let mut dims = vec![total_rows];
        dims.extend_from_slice(&self.inner_dims);
        Ok((Tensor::from_vec(&dims[..], data), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(rows: usize, cols: usize) -> Tensor<f32> {
        Tensor::from_fn([rows, cols], |ix| {
            ((ix[0] as f32) * 0.07).sin() * 5.0 + ((ix[1] as f32) * 0.11).cos()
        })
    }

    #[test]
    fn streamed_equals_bounded_reconstruction() {
        let data = field(100, 64);
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let mut stream = StreamCompressor::<f32>::new(&[64], 16, config).unwrap();
        // Push in awkward slab sizes: 7 rows at a time.
        for slab in data.as_slice().chunks(7 * 64) {
            stream.push(slab).unwrap();
        }
        let bytes = stream.finish().unwrap();
        let out: Tensor<f32> = StreamDecompressor::new(&bytes)
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(out.dims(), &[100, 64]);
        for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
            assert!((a as f64 - b as f64).abs() <= 1e-3);
        }
    }

    #[test]
    fn band_iteration_yields_band_rows() {
        let data = field(40, 32);
        let config = Config::new(ErrorBound::Absolute(1e-2));
        let mut stream = StreamCompressor::<f32>::new(&[32], 16, config).unwrap();
        stream.push(data.as_slice()).unwrap();
        let bytes = stream.finish().unwrap();
        let mut reader = StreamDecompressor::<f32>::new(&bytes).unwrap();
        assert_eq!(reader.remaining_bands(), 3); // 16 + 16 + 8
        let sizes: Vec<usize> = std::iter::from_fn(|| reader.next_band())
            .map(|b| b.unwrap().dims()[0])
            .collect();
        assert_eq!(sizes, vec![16, 16, 8]);
    }

    #[test]
    fn relative_bound_is_pinned_by_first_band() {
        // A growing-range stream: later bands must keep the bound resolved
        // from the first band, not loosen with their own local range.
        let config = Config::new(ErrorBound::Relative(1e-3));
        let mut stream = StreamCompressor::<f32>::new(&[128], 8, config).unwrap();
        let first: Vec<f32> = (0..8 * 128).map(|i| (i % 128) as f32).collect(); // range 127
        let second: Vec<f32> = (0..8 * 128).map(|i| (i % 128) as f32 * 1000.0).collect();
        stream.push(&first).unwrap();
        stream.push(&second).unwrap();
        let bytes = stream.finish().unwrap();
        let out: Tensor<f32> = StreamDecompressor::new(&bytes)
            .unwrap()
            .collect_all()
            .unwrap();
        let eb = 1e-3 * 127.0; // first band's range
        for (i, (&a, &b)) in first.iter().chain(&second).zip(out.as_slice()).enumerate() {
            assert!(
                (a as f64 - b as f64).abs() <= eb * (1.0 + 1e-12),
                "point {i}"
            );
        }
    }

    #[test]
    fn partial_rows_are_rejected() {
        let config = Config::new(ErrorBound::Absolute(1e-2));
        let mut stream = StreamCompressor::<f32>::new(&[10], 4, config).unwrap();
        assert!(stream.push(&[1.0f32; 15]).is_err());
    }

    #[test]
    fn empty_stream_is_an_error() {
        let config = Config::new(ErrorBound::Absolute(1e-2));
        let stream = StreamCompressor::<f32>::new(&[10], 4, config).unwrap();
        assert!(stream.finish().is_err());
    }

    #[test]
    fn three_dimensional_slabs_stream() {
        // Stream a 3-D field level by level.
        let data = Tensor::from_fn([12, 16, 16], |ix| {
            (ix[0] as f32 * 0.3).sin() + (ix[1] as f32 * 0.2).cos() * (ix[2] as f32 * 0.1).sin()
        });
        let config = Config::new(ErrorBound::Absolute(1e-4));
        let mut stream = StreamCompressor::<f32>::new(&[16, 16], 4, config).unwrap();
        for level in data.as_slice().chunks(16 * 16) {
            stream.push(level).unwrap();
        }
        let bytes = stream.finish().unwrap();
        let out: Tensor<f32> = StreamDecompressor::new(&bytes)
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(out.dims(), &[12, 16, 16]);
        for (&a, &b) in data.as_slice().iter().zip(out.as_slice()) {
            assert!((a as f64 - b as f64).abs() <= 1e-4);
        }
    }

    #[test]
    fn reused_compressor_streams_are_byte_identical_to_fresh_ones() {
        // One compressor across "time steps" via finish_stream must emit
        // exactly what a fresh compressor per step would.
        let config = Config::new(ErrorBound::Relative(1e-3));
        let mut reused = StreamCompressor::<f32>::new(&[48], 8, config).unwrap();
        for step in 0..3 {
            let data = Tensor::from_fn([30, 48], |ix| {
                ((ix[0] as f32) * 0.09 + step as f32).sin() * (4.0 + step as f32)
            });
            let mut fresh = StreamCompressor::<f32>::new(&[48], 8, config).unwrap();
            fresh.push(data.as_slice()).unwrap();
            reused.push(data.as_slice()).unwrap();
            let expect = fresh.finish().unwrap();
            let got = reused.finish_stream().unwrap();
            assert_eq!(got, expect, "step {step}");
        }
    }

    #[test]
    fn table_reuse_mode_roundtrips_within_bound() {
        // Fused-mode streams decode through the standard decompressor (the
        // reused table is embedded per band) and honor the pinned bound.
        let config = Config::new(ErrorBound::Relative(1e-3));
        let data = field(120, 64);
        let mut stream = StreamCompressor::<f32>::new(&[64], 16, config)
            .unwrap()
            .with_table_reuse();
        stream.push(data.as_slice()).unwrap();
        let bytes = stream.finish().unwrap();
        let out: Tensor<f32> = StreamDecompressor::new(&bytes)
            .unwrap()
            .collect_all()
            .unwrap();
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in &data.as_slice()[..16 * 64] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let eb = 1e-3 * (hi - lo) as f64;
        for (i, (&a, &b)) in data.as_slice().iter().zip(out.as_slice()).enumerate() {
            assert!((a as f64 - b as f64).abs() <= eb, "point {i}");
        }
    }

    #[test]
    fn table_reuse_streams_are_reset_deterministic() {
        // finish_stream drops the retained table, so a reused fused-mode
        // compressor emits exactly what a fresh fused-mode one would.
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let mut reused = StreamCompressor::<f32>::new(&[48], 8, config)
            .unwrap()
            .with_table_reuse();
        for step in 0..3 {
            let data = Tensor::from_fn([30, 48], |ix| {
                ((ix[0] as f32) * 0.09 + step as f32).sin() * (4.0 + step as f32)
            });
            let mut fresh = StreamCompressor::<f32>::new(&[48], 8, config)
                .unwrap()
                .with_table_reuse();
            fresh.push(data.as_slice()).unwrap();
            reused.push(data.as_slice()).unwrap();
            assert_eq!(
                reused.finish_stream().unwrap(),
                fresh.finish().unwrap(),
                "step {step}"
            );
        }
    }

    #[test]
    fn table_reuse_survives_a_divergent_band() {
        // Band 2's code range explodes past band 1's table: the fused scan
        // must rebuild (escape fallback) and the stream still roundtrips.
        let config = Config::new(ErrorBound::Absolute(1e-4));
        let mut stream = StreamCompressor::<f32>::new(&[64], 8, config)
            .unwrap()
            .with_table_reuse();
        let smooth: Vec<f32> = (0..8 * 64).map(|i| i as f32 * 1e-5).collect();
        let rough: Vec<f32> = (0..8 * 64)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 48) % 1000) as f32 * 0.01
            })
            .collect();
        stream.push(&smooth).unwrap();
        stream.push(&rough).unwrap();
        stream.push(&smooth).unwrap();
        let bytes = stream.finish().unwrap();
        let out: Tensor<f32> = StreamDecompressor::new(&bytes)
            .unwrap()
            .collect_all()
            .unwrap();
        for (&a, &b) in smooth
            .iter()
            .chain(&rough)
            .chain(&smooth)
            .zip(out.as_slice())
        {
            assert!((a as f64 - b as f64).abs() <= 1e-4);
        }
    }

    #[test]
    fn reset_discards_pending_rows_and_output() {
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let mut stream = StreamCompressor::<f32>::new(&[16], 4, config).unwrap();
        stream.push(&[1.5f32; 3 * 16]).unwrap(); // partial band pending
        stream.reset();
        // Nothing pushed since the reset: the stream is empty again.
        assert!(stream.finish_stream().is_err());
        // And the compressor is still usable after the empty-stream error.
        stream.push(&[2.5f32; 4 * 16]).unwrap();
        let bytes = stream.finish_stream().unwrap();
        let out: Tensor<f32> = StreamDecompressor::new(&bytes)
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(out.dims(), &[4, 16]);
    }

    #[test]
    fn truncated_stream_errors() {
        let data = field(32, 32);
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let mut stream = StreamCompressor::<f32>::new(&[32], 8, config).unwrap();
        stream.push(data.as_slice()).unwrap();
        let bytes = stream.finish().unwrap();
        for cut in [0usize, 3, 8, bytes.len() / 2] {
            assert!(StreamDecompressor::<f32>::new(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn collect_all_decodes_in_place_what_band_iteration_yields() {
        let data = field(40, 32);
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let mut stream = StreamCompressor::<f32>::new(&[32], 16, config).unwrap();
        stream.push(data.as_slice()).unwrap();
        let bytes = stream.finish().unwrap();
        let mut bands = StreamDecompressor::<f32>::new(&bytes).unwrap();
        let mut concatenated = Vec::new();
        while let Some(band) = bands.next_band() {
            concatenated.extend_from_slice(band.unwrap().as_slice());
        }
        let all = StreamDecompressor::<f32>::new(&bytes)
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(all.as_slice(), &concatenated[..]);

        // After one band is read, the rest collect on their own.
        let mut rest = StreamDecompressor::<f32>::new(&bytes).unwrap();
        let first = rest.next_band().unwrap().unwrap();
        let rest = rest.collect_all().unwrap();
        assert_eq!(rest.dims(), &[40 - first.dims()[0], 32]);
        assert_eq!(rest.as_slice(), &concatenated[first.len()..]);

        // The trailer's row total (40, its last byte) sizes the output:
        // bands that overrun it or fall short of it are corrupt.
        for rows in [39u8, 41] {
            let mut lying = bytes.clone();
            *lying.last_mut().unwrap() = rows;
            assert!(matches!(
                StreamDecompressor::<f32>::new(&lying)
                    .unwrap()
                    .collect_all(),
                Err(SzError::Corrupt(_))
            ));
        }
    }
}
