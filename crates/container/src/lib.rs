//! Multi-variable snapshot container.
//!
//! The paper's workloads are *snapshots*: one file holding many variables
//! (a CESM ATM time step carries dozens of 2-D fields). This crate provides
//! the container format the compressor library itself deliberately omits:
//! named compressed fields behind a seekable index, so post-analysis can
//! pull one variable out of a snapshot without touching the rest — the
//! access pattern §I motivates ("keeping critical information available to
//! preserve discovery opportunities").
//!
//! Format (all integers little-endian / varint):
//!
//! ```text
//! "SZSN" | version u8 | field count varint
//! per field: name (len-prefixed UTF-8) | [v2: kind u8] | offset varint | length varint
//! ...field payloads, back to back...
//! ```
//!
//! Version 1 holds plain `szr-core` archives only. Version 2 adds a kind
//! byte per index entry so a field can also be a serialized
//! [`szr_parallel::ChunkedArchive`] — the banded layout whose bands share
//! one Huffman table. Writers emit version 1 whenever every field is plain
//! (existing snapshots stay byte-identical) and version 2 only when a
//! chunked field is present; readers accept both.
//!
//! Offsets are relative to the end of the index, so the index can be read
//! with a single small IO and each field fetched independently.

use std::collections::BTreeMap;
use szr_bitstream::{ByteReader, ByteWriter};
use szr_core::{compress, decompress, ArchiveInfo, Config, Result, ScalarFloat, SzError};
use szr_parallel::{decompress_chunked, BandExecutor, ChunkedArchive, Strategy};
use szr_tensor::Tensor;

const MAGIC: [u8; 4] = *b"SZSN";
/// Legacy version: every field is a plain archive.
const VERSION_PLAIN: u8 = 1;
/// Kinded version: fields carry a kind byte (plain or chunked).
const VERSION_KINDED: u8 = 2;

/// What a snapshot field holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// A self-contained `szr-core` archive.
    Plain,
    /// A serialized [`ChunkedArchive`] (banded, possibly with a shared
    /// Huffman table).
    Chunked,
}

#[derive(Clone)]
struct Field {
    kind: FieldKind,
    bytes: Vec<u8>,
}

/// An in-memory snapshot being assembled or read.
///
/// Field order is preserved on write (BTreeMap keeps names sorted, which
/// also makes snapshots byte-deterministic regardless of insertion order).
#[derive(Default, Clone)]
pub struct Snapshot {
    fields: BTreeMap<String, Field>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compresses and adds a field under `name`, replacing any previous
    /// field with the same name.
    pub fn add<T: ScalarFloat>(
        &mut self,
        name: &str,
        data: &Tensor<T>,
        config: &Config,
    ) -> Result<()> {
        let archive = compress(data, config)?;
        self.fields.insert(
            name.to_string(),
            Field {
                kind: FieldKind::Plain,
                bytes: archive,
            },
        );
        Ok(())
    }

    /// Compresses and adds a field as a banded [`ChunkedArchive`] whose
    /// bands share one Huffman table — the layout for large variables that
    /// will be (de)compressed band-parallel straight out of the container.
    pub fn add_chunked<T: ScalarFloat + Send + Sync>(
        &mut self,
        name: &str,
        data: &Tensor<T>,
        config: &Config,
        num_chunks: usize,
        threads: usize,
    ) -> Result<()> {
        let archive =
            BandExecutor::new(threads).compress(data, config, num_chunks, Strategy::Shared)?;
        self.fields.insert(
            name.to_string(),
            Field {
                kind: FieldKind::Chunked,
                bytes: archive.to_bytes(),
            },
        );
        Ok(())
    }

    /// Compresses and adds a field with a per-field planned configuration:
    /// `szr-planner` picks the layer count and interval sizing that
    /// minimizes this variable's archive under `bound` (snapshots hold
    /// dozens of variables with very different personalities — one shared
    /// config leaves size on the table).
    ///
    /// Returns the chosen configuration for inspection/logging.
    pub fn add_auto<T: ScalarFloat + szr_metrics::Real>(
        &mut self,
        name: &str,
        data: &Tensor<T>,
        bound: szr_core::ErrorBound,
    ) -> Result<Config> {
        let planner = szr_planner::Planner::with_options(
            data,
            szr_planner::PlannerOptions::default().sz_only(),
        );
        let report = planner
            .plan(&szr_planner::Goal::MaxError { bound })
            .map_err(|_| SzError::InvalidConfig("bound is unplannable"))?;
        let config = report
            .chosen()
            .codec
            .sz_config()
            .expect("sz-only plans always choose the SZ codec");
        self.add(name, data, &config)?;
        Ok(config)
    }

    /// Adds a pre-compressed archive verbatim (e.g. produced elsewhere).
    ///
    /// The archive header is validated so a corrupt blob fails here rather
    /// than at read time; a version-2 band archive is rejected because its
    /// Huffman table lives in the chunked container it was cut from.
    pub fn add_archive(&mut self, name: &str, archive: Vec<u8>) -> Result<()> {
        let info = szr_core::inspect(&archive)?;
        if info.shared_stream {
            return Err(SzError::InvalidConfig(
                "band archive depends on a shared table; add the whole chunked archive",
            ));
        }
        self.fields.insert(
            name.to_string(),
            Field {
                kind: FieldKind::Plain,
                bytes: archive,
            },
        );
        Ok(())
    }

    /// Field names in storage order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.keys().map(String::as_str)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the snapshot has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Storage kind of one field.
    pub fn kind(&self, name: &str) -> Option<FieldKind> {
        self.fields.get(name).map(|f| f.kind)
    }

    /// Header info for one field without decompressing it (for a chunked
    /// field, the first band's header carries the shared metadata; its dims
    /// are widened to the full tensor).
    pub fn info(&self, name: &str) -> Option<ArchiveInfo> {
        let field = self.fields.get(name)?;
        match field.kind {
            FieldKind::Plain => szr_core::inspect(&field.bytes).ok(),
            FieldKind::Chunked => {
                // Header-only peek: no band payloads are copied.
                let stat = ChunkedArchive::peek_stat(&field.bytes).ok()?;
                let mut info = stat.first_band?;
                info.dims = stat.dims;
                info.archive_bytes = field.bytes.len();
                Some(info)
            }
        }
    }

    /// Decompresses one field.
    pub fn get<T: ScalarFloat + Send + Sync>(&self, name: &str) -> Result<Tensor<T>> {
        let field = self
            .fields
            .get(name)
            .ok_or_else(|| SzError::Corrupt(format!("no field named {name:?}")))?;
        match field.kind {
            FieldKind::Plain => decompress(&field.bytes),
            FieldKind::Chunked => {
                let archive = ChunkedArchive::from_bytes(&field.bytes)?;
                let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
                decompress_chunked(&archive, threads)
            }
        }
    }

    /// Raw stored bytes of one field (for re-export): the archive itself
    /// for plain fields, the serialized [`ChunkedArchive`] for chunked
    /// ones.
    pub fn raw(&self, name: &str) -> Option<&[u8]> {
        self.fields.get(name).map(|f| f.bytes.as_slice())
    }

    /// Serializes the snapshot. Emits the legacy version-1 layout whenever
    /// every field is plain, so pre-chunking snapshots stay byte-identical.
    pub fn to_bytes(&self) -> Vec<u8> {
        let kinded = self.fields.values().any(|f| f.kind != FieldKind::Plain);
        let mut index = ByteWriter::new();
        index.write_bytes(&MAGIC);
        index.write_u8(if kinded {
            VERSION_KINDED
        } else {
            VERSION_PLAIN
        });
        index.write_varint(self.fields.len() as u64);
        let mut offset = 0u64;
        for (name, field) in &self.fields {
            index.write_len_prefixed(name.as_bytes());
            if kinded {
                index.write_u8(match field.kind {
                    FieldKind::Plain => 0,
                    FieldKind::Chunked => 1,
                });
            }
            index.write_varint(offset);
            index.write_varint(field.bytes.len() as u64);
            offset += field.bytes.len() as u64;
        }
        let mut out = index.into_bytes();
        for field in self.fields.values() {
            out.extend_from_slice(&field.bytes);
        }
        out
    }

    /// Parses a snapshot from bytes (version 1 or 2).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut reader = ByteReader::new(bytes);
        if reader.read_bytes(4)? != MAGIC {
            return Err(SzError::Corrupt("bad snapshot magic".into()));
        }
        let version = reader.read_u8()?;
        if version != VERSION_PLAIN && version != VERSION_KINDED {
            return Err(SzError::Corrupt("unsupported snapshot version".into()));
        }
        let count = reader.read_varint()? as usize;
        if count > 1 << 20 {
            return Err(SzError::Corrupt("implausible field count".into()));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let name = std::str::from_utf8(reader.read_len_prefixed()?)
                .map_err(|_| SzError::Corrupt("field name is not UTF-8".into()))?
                .to_string();
            let kind = if version == VERSION_KINDED {
                match reader.read_u8()? {
                    0 => FieldKind::Plain,
                    1 => FieldKind::Chunked,
                    k => {
                        return Err(SzError::Corrupt(format!("unknown field kind {k}")));
                    }
                }
            } else {
                FieldKind::Plain
            };
            let offset = reader.read_varint()? as usize;
            let length = reader.read_varint()? as usize;
            entries.push((name, kind, offset, length));
        }
        let payload_start = reader.pos();
        let mut fields = BTreeMap::new();
        for (name, kind, offset, length) in entries {
            let start = payload_start + offset;
            let end = start
                .checked_add(length)
                .ok_or_else(|| SzError::Corrupt("field extent overflows".into()))?;
            if end > bytes.len() {
                return Err(SzError::Corrupt(format!(
                    "field {name:?} overruns snapshot"
                )));
            }
            fields.insert(
                name,
                Field {
                    kind,
                    bytes: bytes[start..end].to_vec(),
                },
            );
        }
        Ok(Self { fields })
    }

    /// Writes the snapshot to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a snapshot from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path)
            .map_err(|e| SzError::Corrupt(format!("cannot read snapshot: {e}")))?;
        Self::from_bytes(&bytes)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Snapshot({} fields)", self.fields.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use szr_core::ErrorBound;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::new();
        let config = Config::new(ErrorBound::Relative(1e-4));
        let a = Tensor::from_fn([32, 48], |ix| ((ix[0] + ix[1]) as f32 * 0.1).sin());
        let b = Tensor::from_fn([16, 16, 16], |ix| (ix[0] * ix[1] + ix[2]) as f32);
        snap.add("TS", &a, &config).unwrap();
        snap.add("U", &b, &config).unwrap();
        snap
    }

    #[test]
    fn roundtrip_preserves_fields_and_bounds() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.names().collect::<Vec<_>>(), vec!["TS", "U"]);
        let ts: Tensor<f32> = back.get("TS").unwrap();
        assert_eq!(ts.dims(), &[32, 48]);
        let u: Tensor<f32> = back.get("U").unwrap();
        assert_eq!(u.dims(), &[16, 16, 16]);
    }

    #[test]
    fn add_auto_plans_per_field_and_respects_bound() {
        let mut snap = Snapshot::new();
        // Two personalities: near-linear (tiny intervals suffice) and hash
        // noise (needs many intervals).
        let smooth = Tensor::from_fn([40, 40], |ix| (ix[0] * 40 + ix[1]) as f32 * 1e-4);
        let noisy = Tensor::from_fn([40, 40], |ix| {
            let h = (ix[0] as u64 * 40 + ix[1] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) % 4096) as f32
        });
        let bound = ErrorBound::Absolute(1e-3);
        let c_smooth = snap.add_auto("SMOOTH", &smooth, bound).unwrap();
        let c_noisy = snap.add_auto("NOISY", &noisy, bound).unwrap();
        assert_ne!(c_smooth.intervals, c_noisy.intervals);
        for (name, data) in [("SMOOTH", &smooth), ("NOISY", &noisy)] {
            let back: Tensor<f32> = snap.get(name).unwrap();
            for (&a, &b) in data.as_slice().iter().zip(back.as_slice()) {
                assert!((a as f64 - b as f64).abs() <= 1e-3);
            }
        }
    }

    #[test]
    fn info_reads_header_without_decode() {
        let snap = sample();
        let info = snap.info("TS").unwrap();
        assert_eq!(info.dims, vec![32, 48]);
        assert_eq!(info.dtype, "f32");
        assert!(snap.info("MISSING").is_none());
    }

    #[test]
    fn serialization_is_insertion_order_independent() {
        let config = Config::new(ErrorBound::Absolute(0.1));
        let a = Tensor::from_fn([8, 8], |ix| ix[0] as f32);
        let b = Tensor::from_fn([4, 4], |ix| ix[1] as f32);
        let mut s1 = Snapshot::new();
        s1.add("x", &a, &config).unwrap();
        s1.add("y", &b, &config).unwrap();
        let mut s2 = Snapshot::new();
        s2.add("y", &b, &config).unwrap();
        s2.add("x", &a, &config).unwrap();
        assert_eq!(s1.to_bytes(), s2.to_bytes());
    }

    #[test]
    fn missing_field_and_corrupt_bytes_error() {
        let snap = sample();
        assert!(snap.get::<f32>("NOPE").is_err());
        let mut bytes = snap.to_bytes();
        bytes[0] = b'X';
        assert!(Snapshot::from_bytes(&bytes).is_err());
        let bytes = snap.to_bytes();
        assert!(Snapshot::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn add_archive_validates() {
        let mut snap = Snapshot::new();
        assert!(snap.add_archive("bad", vec![1, 2, 3]).is_err());
        let config = Config::new(ErrorBound::Absolute(0.1));
        let data = Tensor::from_fn([4], |ix| ix[0] as f32);
        let archive = compress(&data, &config).unwrap();
        assert!(snap.add_archive("good", archive).is_ok());
        let out: Tensor<f32> = snap.get("good").unwrap();
        assert_eq!(out.dims(), &[4]);
    }

    #[test]
    fn chunked_fields_roundtrip_through_version_2() {
        let mut snap = sample(); // two plain fields
        let big = Tensor::from_fn([128, 64], |ix| {
            ((ix[0] as f32) * 0.06).sin() * 3.0 + ((ix[1] as f32) * 0.04).cos()
        });
        let config = Config::new(ErrorBound::Absolute(1e-4));
        snap.add_chunked("BIG", &big, &config, 16, 2).unwrap();
        assert_eq!(snap.kind("BIG"), Some(FieldKind::Chunked));
        assert_eq!(snap.kind("TS"), Some(FieldKind::Plain));
        let bytes = snap.to_bytes();
        // Version byte is 2 once a chunked field is present.
        assert_eq!(bytes[4], 2);
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.kind("BIG"), Some(FieldKind::Chunked));
        let out: Tensor<f32> = back.get("BIG").unwrap();
        assert_eq!(out.dims(), &[128, 64]);
        for (&a, &b) in big.as_slice().iter().zip(out.as_slice()) {
            assert!((a as f64 - b as f64).abs() <= 1e-4);
        }
        // Plain fields still read back.
        let ts: Tensor<f32> = back.get("TS").unwrap();
        assert_eq!(ts.dims(), &[32, 48]);
        // Info widens band dims to the full tensor.
        let info = back.info("BIG").unwrap();
        assert_eq!(info.dims, vec![128, 64]);
    }

    #[test]
    fn plain_only_snapshots_keep_the_version_1_layout() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(bytes[4], 1, "all-plain snapshots must stay version 1");
        assert!(Snapshot::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn shared_band_archive_is_rejected_as_plain_field() {
        // A version-2 band cut out of a chunked archive cannot stand alone.
        let data = Tensor::from_fn([64, 32], |ix| ((ix[0] + ix[1]) as f32 * 0.1).sin());
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let chunked = BandExecutor::new(2)
            .compress(&data, &config, 8, Strategy::Shared)
            .unwrap();
        let band = chunked
            .chunks
            .iter()
            .find(|c| szr_core::inspect(c).unwrap().shared_stream)
            .expect("homogeneous bands share their table")
            .clone();
        let mut snap = Snapshot::new();
        assert!(snap.add_archive("band", band).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let snap = sample();
        let path = std::env::temp_dir().join("szr_snapshot_test.szsn");
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back.len(), snap.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replacing_a_field_keeps_one_copy() {
        let mut snap = Snapshot::new();
        let config = Config::new(ErrorBound::Absolute(0.1));
        let a = Tensor::from_fn([8], |ix| ix[0] as f32);
        let b = Tensor::from_fn([16], |ix| ix[0] as f32 * 2.0);
        snap.add("v", &a, &config).unwrap();
        snap.add("v", &b, &config).unwrap();
        assert_eq!(snap.len(), 1);
        let out: Tensor<f32> = snap.get("v").unwrap();
        assert_eq!(out.dims(), &[16]);
    }
}
