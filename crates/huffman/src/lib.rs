//! Arbitrary-alphabet canonical Huffman coding.
//!
//! The SZ-1.4 paper (§IV-A) notes that off-the-shelf Huffman coders work byte
//! by byte (≤ 256 symbols), while its quantization codes need alphabets of
//! 2^m symbols for arbitrary m — e.g. 65 535 intervals for tight error bounds
//! on the hurricane data. This crate is that "tailored and reimplemented"
//! variable-length encoder:
//!
//! * symbols are `u32`, alphabets up to 2^28 symbols;
//! * code lengths come from a standard two-queue Huffman build and are then
//!   limited to [`MAX_CODE_LEN`] bits with a Kraft-sum fixup (same approach
//!   zlib uses), so a codeword always fits in a `u64`;
//! * codes are **canonical**, so the serialized table is just the code-length
//!   array (run-length encoded — quantization-code tables are mostly zeros);
//! * decoding is table-driven: every codec builds a two-level lookup table
//!   ([`lut::DecodeLut`]) once — a primary table of up to 11 bits, or 15
//!   bits when codes longer than 11 bits dominate, plus overflow subtables
//!   of up to 11 more bits. Primary entries hold up to two whole codes.
//!   [`HuffmanCodec::decode_all`] and [`HuffmanCodec::stream_decoder`] run
//!   one loop: peek twice the primary width from a cached 57-bit window,
//!   look up twice, and emit up to four symbols. The historical bit-walking
//!   decoder survives as [`HuffmanCodec::decode`], the slow-path fallback
//!   for pathologically deep codes and the oracle the property tests pin
//!   the fast path against. MSB-first wire order is unchanged.
//!
//! One-shot helpers [`compress_u32`] / [`decompress_u32`] bundle table +
//! payload for callers that don't manage their own containers;
//! [`compress_u32_with_codec`] / [`decompress_u32_with_codec`] emit payload
//! only for callers that share one table across many streams (the chunked
//! driver's per-band sharing).

mod code;
pub mod lut;
mod table;

pub use code::{HuffmanCodec, SymbolDecoder, MAX_CODE_LEN};
pub use table::{read_lengths, read_lengths_into, skip_lengths, write_lengths};

use szr_bitstream::{BitReader, BitWriter, ByteReader, ByteWriter};

/// Documented ceiling on alphabet sizes (2^28 symbols); larger values in an
/// archive header are rejected as corruption before any allocation.
pub const MAX_ALPHABET: usize = 1 << 28;

/// Compresses a symbol stream into a self-describing byte buffer
/// (code-length table + bit payload).
///
/// `alphabet` must exceed every symbol in `symbols`; only the occupied
/// range `0..=max_symbol` is histogrammed and serialized, so a sparse
/// stream over a huge nominal alphabet (up to 2^28) does not allocate
/// frequency tables for symbols that never occur.
///
/// # Panics
/// Panics if a symbol is out of range (caller bug, not data corruption).
pub fn compress_u32(symbols: &[u32], alphabet: usize) -> Vec<u8> {
    // Histogram only 0..=max symbol; the serialized alphabet is clamped to
    // match (decoders read whatever alphabet the header declares, so
    // archives written with the full nominal alphabet still decode).
    let used = symbols.iter().max().map_or(0, |&m| m as usize + 1);
    assert!(used <= alphabet, "symbol out of range for alphabet");
    let mut freqs = vec![0u64; used];
    for &s in symbols {
        freqs[s as usize] += 1;
    }
    compress_u32_from_hist(symbols, &freqs)
}

/// [`compress_u32`] for a caller that already holds the symbol histogram —
/// skips the counting pass. `freqs` must cover exactly the occupied range
/// `0..=max_symbol` (what [`compress_u32`] itself histograms, and what a
/// quantized band's cached histogram holds); the output is byte-identical
/// to [`compress_u32`]'s.
///
/// # Panics
/// Panics (debug) if `freqs` disagrees with `symbols`.
pub fn compress_u32_from_hist(symbols: &[u32], freqs: &[u64]) -> Vec<u8> {
    debug_assert_eq!(
        freqs.iter().sum::<u64>(),
        symbols.len() as u64,
        "histogram does not match symbol stream"
    );
    let used = freqs.len();
    let codec = HuffmanCodec::from_frequencies(freqs);
    let mut header = ByteWriter::new();
    header.write_varint(used as u64);
    header.write_varint(symbols.len() as u64);
    write_lengths(&mut header, codec.lengths());
    // The bit writer's capacity is exact: the codec already knows the
    // payload length for these frequencies.
    let mut bits = BitWriter::with_capacity((codec.payload_bits(freqs) as usize).div_ceil(8));
    codec.encode_all(symbols, &mut bits);
    let mut out = header.into_bytes();
    let payload = bits.into_bytes();
    out.extend_from_slice(&payload);
    out
}

/// Inverse of [`compress_u32`].
pub fn decompress_u32(bytes: &[u8]) -> szr_bitstream::Result<Vec<u32>> {
    let mut out = Vec::new();
    decompress_u32_into(bytes, &mut out)?;
    Ok(out)
}

/// The parsed layout of a self-describing block written by
/// [`compress_u32`], or of a shared-table payload block (where
/// [`table`](Self::table) is empty and the codec lives with the caller).
///
/// Splitting parsing from decoding lets a streaming consumer (a fused
/// decompressor) validate the header, key a codec cache on the raw
/// [`table`](Self::table) span, and then pull symbols straight out of
/// [`payload`](Self::payload) via [`HuffmanCodec::stream_decoder`].
pub struct SymbolBlock<'a> {
    /// Declared alphabet size (0 for shared-table blocks).
    pub alphabet: usize,
    /// Exact number of symbols in the payload.
    pub count: usize,
    /// Raw RLE code-length span, exactly as serialized — byte-comparable as
    /// a codec cache key. Empty for shared-table blocks.
    pub table: &'a [u8],
    /// Huffman bit payload.
    pub payload: &'a [u8],
}

/// Parses a self-describing block (alphabet + count + table + payload)
/// without building the codec, validating every bound [`decompress_u32`]
/// checks (alphabet ceiling, table coverage, count-vs-payload plausibility).
pub fn parse_block(bytes: &[u8]) -> szr_bitstream::Result<SymbolBlock<'_>> {
    let mut reader = ByteReader::new(bytes);
    let alphabet = reader.read_varint()? as usize;
    if alphabet > MAX_ALPHABET {
        return Err(szr_bitstream::Error::Corrupt("implausible alphabet size"));
    }
    let count = reader.read_varint()? as usize;
    let table_start = reader.pos();
    skip_lengths(&mut reader, alphabet)?;
    let table = &bytes[table_start..reader.pos()];
    let payload = reader.read_bytes(reader.remaining())?;
    // Every symbol costs at least one bit, so a count the payload cannot
    // hold is corruption — checked before any output allocation.
    if count > payload.len() * 8 {
        return Err(szr_bitstream::Error::Corrupt(
            "symbol count exceeds payload",
        ));
    }
    Ok(SymbolBlock {
        alphabet,
        count,
        table,
        payload,
    })
}

/// Parses a shared-table payload block written by
/// [`compress_u32_with_codec`] (varint count + bit payload; the table is
/// the caller's).
pub fn parse_shared_block(bytes: &[u8]) -> szr_bitstream::Result<SymbolBlock<'_>> {
    let mut reader = ByteReader::new(bytes);
    let count = reader.read_varint()? as usize;
    let payload = reader.read_bytes(reader.remaining())?;
    if count > payload.len() * 8 {
        return Err(szr_bitstream::Error::Corrupt(
            "symbol count exceeds payload",
        ));
    }
    Ok(SymbolBlock {
        alphabet: 0,
        count,
        table: &[],
        payload,
    })
}

/// Rebuilds the codec a self-describing [`SymbolBlock`] was written with.
pub fn codec_for_block(block: &SymbolBlock<'_>) -> szr_bitstream::Result<HuffmanCodec> {
    let mut codec = HuffmanCodec::default();
    codec_for_block_into(block, &mut codec)?;
    Ok(codec)
}

/// [`codec_for_block`] into `codec`'s own buffers
/// ([`HuffmanCodec::rebuild_with`]): a decoder that keeps one codec across
/// blocks with different tables reuses its allocations. On error `codec`
/// is left empty.
pub fn codec_for_block_into(
    block: &SymbolBlock<'_>,
    codec: &mut HuffmanCodec,
) -> szr_bitstream::Result<()> {
    let mut reader = ByteReader::new(block.table);
    codec.rebuild_with(|lengths| read_lengths_into(&mut reader, block.alphabet, lengths))
}

/// [`decompress_u32`] into a caller-provided buffer, so a long-lived
/// decoder — a codec session feeding many same-size archives — reuses one
/// symbol allocation across streams.
///
/// `out` is **always cleared first**: decoded symbols replace any prior
/// contents, never append (pinned by a regression test). On error `out` is
/// left in an unspecified (but valid) state.
pub fn decompress_u32_into(bytes: &[u8], out: &mut Vec<u32>) -> szr_bitstream::Result<()> {
    let block = parse_block(bytes)?;
    let codec = codec_for_block(&block)?;
    let mut bits = BitReader::new(block.payload);
    codec.decode_all_into(&mut bits, block.count, out)
}

/// Compresses a symbol stream as payload only (varint count + code bits),
/// with the table owned by the caller — the shared-table companion of
/// [`compress_u32`]. Decode with [`decompress_u32_with_codec`] and the same
/// codec.
///
/// # Panics
/// Panics if a symbol has no code in `codec` (caller bug).
pub fn compress_u32_with_codec(symbols: &[u32], codec: &HuffmanCodec) -> Vec<u8> {
    let payload_bits: u64 = symbols
        .iter()
        .map(|&s| codec.lengths()[s as usize] as u64)
        .sum();
    let mut out = ByteWriter::with_capacity((payload_bits as usize).div_ceil(8) + 5);
    out.write_varint(symbols.len() as u64);
    let mut bits = BitWriter::with_capacity((payload_bits as usize).div_ceil(8));
    codec.encode_all(symbols, &mut bits);
    out.write_bytes(&bits.into_bytes());
    out.into_bytes()
}

/// Inverse of [`compress_u32_with_codec`].
pub fn decompress_u32_with_codec(
    bytes: &[u8],
    codec: &HuffmanCodec,
) -> szr_bitstream::Result<Vec<u32>> {
    let mut out = Vec::new();
    decompress_u32_with_codec_into(bytes, codec, &mut out)?;
    Ok(out)
}

/// [`decompress_u32_with_codec`] into a caller-provided buffer — the
/// shared-table companion of [`decompress_u32_into`], with the same
/// contract: `out` is **always cleared first**, never appended to.
pub fn decompress_u32_with_codec_into(
    bytes: &[u8],
    codec: &HuffmanCodec,
    out: &mut Vec<u32>,
) -> szr_bitstream::Result<()> {
    let block = parse_shared_block(bytes)?;
    let mut bits = BitReader::new(block.payload);
    codec.decode_all_into(&mut bits, block.count, out)
}

/// Serializes a codec's code-length table (alphabet varint + RLE lengths)
/// for embedding in a container that shares one table across streams.
pub fn serialize_codec(codec: &HuffmanCodec) -> Vec<u8> {
    let mut out = ByteWriter::new();
    out.write_varint(codec.lengths().len() as u64);
    write_lengths(&mut out, codec.lengths());
    out.into_bytes()
}

/// Inverse of [`serialize_codec`].
pub fn deserialize_codec(bytes: &[u8]) -> szr_bitstream::Result<HuffmanCodec> {
    let mut reader = ByteReader::new(bytes);
    let alphabet = reader.read_varint()? as usize;
    if alphabet > MAX_ALPHABET {
        return Err(szr_bitstream::Error::Corrupt("implausible alphabet size"));
    }
    let lengths = read_lengths(&mut reader, alphabet)?;
    HuffmanCodec::from_lengths(&lengths)
        .ok_or(szr_bitstream::Error::Corrupt("invalid huffman lengths"))
}

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_roundtrip() {
        let symbols: Vec<u32> = (0..2000).map(|i| (i * i) % 300).collect();
        let bytes = compress_u32(&symbols, 300);
        assert_eq!(decompress_u32(&bytes).unwrap(), symbols);
    }

    #[test]
    fn skewed_stream_compresses_well() {
        // 95% zeros: entropy ≈ 0.29 bits/symbol, so 10k symbols ≈ 360 bytes.
        let symbols: Vec<u32> = (0..10_000)
            .map(|i| if i % 20 == 0 { 1 } else { 0 })
            .collect();
        let bytes = compress_u32(&symbols, 2);
        assert!(bytes.len() < 10_000 / 8 + 64, "got {} bytes", bytes.len());
        assert_eq!(decompress_u32(&bytes).unwrap(), symbols);
    }

    #[test]
    fn empty_stream_roundtrips() {
        let bytes = compress_u32(&[], 256);
        assert_eq!(decompress_u32(&bytes).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn large_alphabet_roundtrips() {
        // 65535 intervals as in the paper's hurricane configuration.
        let symbols: Vec<u32> = (0..5000u32).map(|i| (i * 13) % 65_535).collect();
        let bytes = compress_u32(&symbols, 65_535);
        assert_eq!(decompress_u32(&bytes).unwrap(), symbols);
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let symbols: Vec<u32> = (0..100).map(|i| i % 7).collect();
        let bytes = compress_u32(&symbols, 7);
        let cut = &bytes[..bytes.len() - 1];
        assert!(decompress_u32(cut).is_err());
    }

    #[test]
    fn into_entry_points_clear_never_append() {
        // Contract regression: decoding into a dirty buffer must replace its
        // contents, not append (both the self-describing and shared-table
        // entry points).
        let symbols: Vec<u32> = (0..500).map(|i| (i * 7) % 50).collect();
        let bytes = compress_u32(&symbols, 50);
        let mut out = vec![0xDEAD_BEEFu32; 17];
        decompress_u32_into(&bytes, &mut out).unwrap();
        assert_eq!(out, symbols);

        let mut freqs = vec![0u64; 50];
        for &s in &symbols {
            freqs[s as usize] += 1;
        }
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let payload = compress_u32_with_codec(&symbols, &codec);
        let mut out = vec![0xDEAD_BEEFu32; 9999];
        decompress_u32_with_codec_into(&payload, &codec, &mut out).unwrap();
        assert_eq!(out, symbols);
    }

    #[test]
    fn parse_block_exposes_table_span_and_counts() {
        let symbols: Vec<u32> = (0..300).map(|i| (i * i) % 40).collect();
        let bytes = compress_u32(&symbols, 40);
        let block = parse_block(&bytes).unwrap();
        // compress_u32 clamps the serialized alphabet to the occupied range.
        let used = *symbols.iter().max().unwrap() as usize + 1;
        assert_eq!(block.alphabet, used);
        assert_eq!(block.count, symbols.len());
        assert!(!block.table.is_empty());
        let codec = codec_for_block(&block).unwrap();
        let mut bits = BitReader::new(block.payload);
        let mut out = Vec::new();
        codec
            .decode_all_into(&mut bits, block.count, &mut out)
            .unwrap();
        assert_eq!(out, symbols);

        // The raw table span is byte-identical across blocks written with
        // the same code — the property a codec cache keys on.
        let again = compress_u32(&symbols, 40);
        let block2 = parse_block(&again).unwrap();
        assert_eq!(block.table, block2.table);
    }

    #[test]
    fn stream_decoder_matches_staged_and_rejects_overdraw() {
        let symbols: Vec<u32> = (0..1000).map(|i| (i * 31) % 200).collect();
        let bytes = compress_u32(&symbols, 200);
        let block = parse_block(&bytes).unwrap();
        let codec = codec_for_block(&block).unwrap();

        // Mixed draw sizes, including odd batches and singles.
        let mut stream = codec.stream_decoder(block.payload, block.count);
        let mut got = Vec::new();
        let mut buf = vec![0u32; 64];
        got.push(stream.decode_one().unwrap());
        stream.decode_into(&mut buf[..33]).unwrap();
        got.extend_from_slice(&buf[..33]);
        while stream.remaining() >= 64 {
            stream.decode_into(&mut buf).unwrap();
            got.extend_from_slice(&buf);
        }
        while stream.remaining() > 0 {
            got.push(stream.decode_one().unwrap());
        }
        assert_eq!(got, symbols);
        assert!(stream.decode_one().is_err(), "overdraw must error");

        let mut stream = codec.stream_decoder(block.payload, block.count);
        let mut too_many = vec![0u32; block.count + 1];
        assert!(stream.decode_into(&mut too_many).is_err());
    }
}
