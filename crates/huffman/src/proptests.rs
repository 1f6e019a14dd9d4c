//! Property tests: Huffman must roundtrip any stream and never beat entropy,
//! and the table-driven decoder must be indistinguishable from the
//! bit-walking oracle.

use crate::{compress_u32, decompress_u32, HuffmanCodec};
use proptest::prelude::*;
use szr_bitstream::{BitReader, BitWriter};

/// Pulls `count` symbols through [`HuffmanCodec::stream_decoder`], cycling
/// through the draw sizes in `batches` (a draw of 1 uses `decode_one`).
fn pull(
    codec: &HuffmanCodec,
    payload: &[u8],
    count: usize,
    batches: &[usize],
) -> szr_bitstream::Result<Vec<u32>> {
    let mut decoder = codec.stream_decoder(payload, count);
    let mut out = Vec::with_capacity(count);
    for &batch in batches.iter().cycle() {
        let n = decoder.remaining().min(batch);
        if n == 0 {
            break;
        }
        if n == 1 {
            out.push(decoder.decode_one()?);
        } else {
            let start = out.len();
            out.resize(start + n, 0);
            decoder.decode_into(&mut out[start..])?;
        }
    }
    Ok(out)
}

/// SplitMix64 finalizer: a deterministic per-symbol weight source.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

proptest! {
    #[test]
    fn wide_and_paired_tables_match_oracle(
        wide in any::<bool>(),
        symbols in 2048usize..16384,
        seed in any::<u64>(),
        skew in 1u64..1000,
        picks in prop::collection::vec(any::<u32>(), 1..3000),
        batches in prop::collection::vec(1usize..300, 1..8),
        tail_cut in 0usize..4,
    ) {
        // Two profiles. Wide: 2k–16k symbols with near-uniform weights
        // (1..=64), so code lengths straddle the 11-bit and 15-bit
        // primaries and reach into subtables, as ATM FREQSH's do. Short:
        // the skewed six-symbol profile, whose 1–3-bit codes put two codes
        // in most primary entries. The staged decode, the pulled stream
        // (random draw sizes) and the bit-walking oracle must agree on
        // clean payloads and on the verdict after a 0–3 byte tail cut.
        let freqs: Vec<u64> = if wide {
            (0..symbols as u64).map(|s| 1 + mix(seed ^ s) % 64).collect()
        } else {
            vec![skew * 64, skew * 16, skew * 4, skew, 1, 1]
        };
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let stream: Vec<u32> = picks
            .iter()
            .map(|&p| match (wide, p % 64) {
                (true, _) => p % symbols as u32,
                (false, 0) => 5,
                (false, 1) => 4,
                (false, v) if v < 6 => 3,
                (false, v) if v < 14 => 2,
                (false, v) if v < 34 => 1,
                _ => 0,
            })
            .collect();
        let mut w = BitWriter::new();
        codec.encode_all(&stream, &mut w);
        let bytes = w.into_bytes();
        let cut = bytes.len().saturating_sub(tail_cut);
        let payload = &bytes[..cut];

        let staged = codec.decode_all(&mut BitReader::new(payload), stream.len());
        let oracle = codec.decode_all_slow(&mut BitReader::new(payload), stream.len());
        let pulled = pull(&codec, payload, stream.len(), &batches);
        match (&staged, &oracle, &pulled) {
            (Ok(s), Ok(o), Ok(p)) => {
                prop_assert_eq!(s, o);
                prop_assert_eq!(p, o);
                if cut == bytes.len() {
                    prop_assert_eq!(o, &stream);
                }
            }
            (Err(_), Err(_), Err(_)) => {}
            other => prop_assert!(false, "staged/pulled/oracle disagree: {:?}", other),
        }
    }

    #[test]
    fn lut_decode_matches_bit_walking_oracle(
        freqs in prop::collection::vec(0u64..500, 2..300),
        picks in prop::collection::vec(any::<u16>(), 0..800),
    ) {
        // Random frequency profile (random length-limited code), random
        // stream over its occupied symbols.
        let used: Vec<u32> = freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(s, _)| s as u32)
            .collect();
        prop_assume!(!used.is_empty());
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let stream: Vec<u32> = picks.iter().map(|&p| used[p as usize % used.len()]).collect();
        let mut w = BitWriter::new();
        codec.encode_all(&stream, &mut w);
        let bytes = w.into_bytes();
        let fast = codec.decode_all(&mut BitReader::new(&bytes), stream.len()).unwrap();
        let slow = codec
            .decode_all_slow(&mut BitReader::new(&bytes), stream.len())
            .unwrap();
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(fast, stream);
    }

    #[test]
    fn deep_codes_still_match_oracle(
        symbols in prop::collection::vec(0u32..40, 1..300),
    ) {
        // Fibonacci frequencies force codes beyond the LUT's 22-bit reach,
        // exercising the Slow fallback inside decode_all.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        codec.encode_all(&symbols, &mut w);
        let bytes = w.into_bytes();
        let fast = codec.decode_all(&mut BitReader::new(&bytes), symbols.len()).unwrap();
        prop_assert_eq!(fast, symbols);
    }

    #[test]
    fn pair_decode_matches_oracle_on_short_code_streams(
        skew in 1u64..1000,
        picks in prop::collection::vec(any::<u16>(), 1..600),
        tail_cut in 0usize..3,
    ) {
        // Heavily skewed frequencies give 1–3-bit codes, so nearly every
        // decode_all window yields several symbols; byte (and slight)
        // truncation exercises its EOF guard, where zero-padded peeks could
        // otherwise fabricate more symbols.
        let freqs = [skew * 64, skew * 16, skew * 4, skew, 1, 1];
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let stream: Vec<u32> = picks
            .iter()
            .map(|&p| match p % 64 { 0 => 5, 1 => 4, v if v < 6 => 3, v if v < 14 => 2, v if v < 34 => 1, _ => 0 })
            .collect();
        let mut w = BitWriter::new();
        codec.encode_all(&stream, &mut w);
        let bytes = w.into_bytes();
        let cut = bytes.len().saturating_sub(tail_cut);
        let fast = codec.decode_all(&mut BitReader::new(&bytes[..cut]), stream.len());
        let slow = codec.decode_all_slow(&mut BitReader::new(&bytes[..cut]), stream.len());
        match (&fast, &slow) {
            (Ok(f), Ok(s)) => {
                prop_assert_eq!(f, s);
                if cut == bytes.len() {
                    prop_assert_eq!(f, &stream);
                }
            }
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "pair/oracle disagree: {:?}", other),
        }
    }

    #[test]
    fn stream_decoder_matches_staged_on_clean_and_damaged_payloads(
        freqs in prop::collection::vec(0u64..500, 2..300),
        picks in prop::collection::vec(any::<u16>(), 1..800),
        tail_cut in 0usize..4,
        batch in 1usize..97,
    ) {
        // The pull-based SymbolDecoder must be decision-for-decision
        // identical to the staged decode_all path: same symbols on clean
        // payloads, agreeing success/error verdicts under truncation, for
        // arbitrary draw-batch sizes.
        let used: Vec<u32> = freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(s, _)| s as u32)
            .collect();
        prop_assume!(!used.is_empty());
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let stream: Vec<u32> = picks.iter().map(|&p| used[p as usize % used.len()]).collect();
        let mut w = BitWriter::new();
        codec.encode_all(&stream, &mut w);
        let bytes = w.into_bytes();
        let cut = bytes.len().saturating_sub(tail_cut);
        let payload = &bytes[..cut];

        let staged = codec.decode_all(&mut BitReader::new(payload), stream.len());
        let mut pulled = Vec::with_capacity(stream.len());
        let mut decoder = codec.stream_decoder(payload, stream.len());
        let mut buf = vec![0u32; batch];
        let streamed = loop {
            let n = decoder.remaining().min(batch);
            if n == 0 {
                break Ok(());
            }
            // Alternate batch pulls with single pulls to cover both APIs.
            if n == 1 || pulled.len() % (2 * batch) >= batch {
                match decoder.decode_one() {
                    Ok(s) => pulled.push(s),
                    Err(e) => break Err(e),
                }
            } else {
                match decoder.decode_into(&mut buf[..n]) {
                    Ok(()) => pulled.extend_from_slice(&buf[..n]),
                    Err(e) => break Err(e),
                }
            }
        };
        match (&staged, &streamed) {
            (Ok(s), Ok(())) => {
                prop_assert_eq!(s, &pulled);
                if cut == bytes.len() {
                    prop_assert_eq!(&pulled, &stream);
                }
            }
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "staged/streamed disagree: {:?}", other),
        }
    }

    #[test]
    fn truncated_streams_error_and_never_panic(
        symbols in prop::collection::vec(0u32..200, 1..500),
        cut_bytes in 1usize..32,
    ) {
        let bytes = compress_u32(&symbols, 200);
        let cut = bytes.len().saturating_sub(cut_bytes);
        let result = decompress_u32(&bytes[..cut]);
        // Removing whole bytes of a stream holding >= 1 symbol must fail:
        // either the header parse dies or the payload runs dry.
        prop_assert!(result.is_err());
    }

    #[test]
    fn corrupt_streams_error_or_decode_but_never_panic(
        symbols in prop::collection::vec(0u32..200, 1..300),
        flip_at in any::<usize>(),
        flip_mask in 1u8..=255,
    ) {
        let mut bytes = compress_u32(&symbols, 200);
        let ix = flip_at % bytes.len();
        bytes[ix] ^= flip_mask;
        // A bit flip may still parse (payload flips decode to other
        // symbols); the contract is error-or-value, never a panic, and
        // never reading past the buffer (the reader is bounds-checked).
        if let Ok(decoded) = decompress_u32(&bytes) {
            // Whatever decoded must have come from the declared count.
            prop_assert!(decoded.len() <= symbols.len() + bytes.len() * 8);
        }
    }

    #[test]
    fn truncated_payload_bits_match_oracle_error_behavior(
        symbols in prop::collection::vec(0u32..64, 1..200),
        cut_bits in 1usize..64,
    ) {
        // decode_all (LUT, zero-padding peeks) and decode_all_slow (exact
        // reads) must agree on *whether* a truncated payload decodes.
        let mut freqs = vec![0u64; 64];
        for &s in &symbols {
            freqs[s as usize] += 1;
        }
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        codec.encode_all(&symbols, &mut w);
        let bytes = w.into_bytes();
        let cut = bytes.len().saturating_sub(cut_bits.div_ceil(8));
        let fast = codec.decode_all(&mut BitReader::new(&bytes[..cut]), symbols.len());
        let slow = codec.decode_all_slow(&mut BitReader::new(&bytes[..cut]), symbols.len());
        match (&fast, &slow) {
            (Ok(f), Ok(s)) => prop_assert_eq!(f, s),
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "fast/slow disagree on truncation: {:?}", other),
        }
    }

    #[test]
    fn roundtrip_arbitrary_streams(
        symbols in prop::collection::vec(0u32..512, 0..2000),
    ) {
        let bytes = compress_u32(&symbols, 512);
        prop_assert_eq!(decompress_u32(&bytes).unwrap(), symbols);
    }

    #[test]
    fn roundtrip_tiny_alphabets(
        symbols in prop::collection::vec(0u32..2, 1..500),
    ) {
        let bytes = compress_u32(&symbols, 2);
        prop_assert_eq!(decompress_u32(&bytes).unwrap(), symbols);
    }

    #[test]
    fn payload_never_beats_entropy(
        raw in prop::collection::vec(0u32..64, 100..1000),
    ) {
        let mut freqs = vec![0u64; 64];
        for &s in &raw {
            freqs[s as usize] += 1;
        }
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let n = raw.len() as f64;
        let entropy_bits: f64 = freqs
            .iter()
            .filter(|&&f| f > 0)
            .map(|&f| {
                let p = f as f64 / n;
                -(f as f64) * p.log2()
            })
            .sum();
        let actual = codec.payload_bits(&freqs) as f64;
        // Shannon bound: optimal prefix code is within 1 bit/symbol of entropy.
        prop_assert!(actual + 1e-6 >= entropy_bits, "beat entropy: {actual} < {entropy_bits}");
        prop_assert!(actual <= entropy_bits + n + 1e-6, "worse than entropy+1/symbol");
    }

    #[test]
    fn lengths_survive_reserialization(
        freqs in prop::collection::vec(0u64..1000, 2..128),
    ) {
        prop_assume!(freqs.iter().filter(|&&f| f > 0).count() >= 1);
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let rebuilt = HuffmanCodec::from_lengths(codec.lengths()).unwrap();
        // Encoding with the rebuilt codec must be decodable by the original.
        let symbols: Vec<u32> = freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(s, _)| s as u32)
            .collect();
        let mut w = BitWriter::new();
        rebuilt.encode_all(&symbols, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        prop_assert_eq!(codec.decode_all(&mut r, symbols.len()).unwrap(), symbols);
    }
}
