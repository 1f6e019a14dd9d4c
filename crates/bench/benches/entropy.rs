//! Entropy-engine microbenches: bitstream word-at-a-time IO and
//! table-driven Huffman coding.
//!
//! `huffman/decode_lut` vs `huffman/decode_oracle` races the two-level
//! lookup table against the bit-walking canonical decoder on the same
//! payload — the ratio is the headline number of the word-at-a-time entropy
//! engine (the acceptance bar is ≥ 3×). `huffman/decode_stream` pulls the
//! same payload through `stream_decoder` in the 7200-code groups the fused
//! decompressor draws. Alphabets mirror the paper's configurations: 16 at
//! about 1.2 bits per code (the adaptive alphabet of ATM's TS, SNOWHLND and
//! CDNUMC fields, where most table entries hold two codes), 256 (default
//! 8-bit intervals), 16 384 at about 13 bits per code (the wide adaptive
//! alphabet ATM's FREQSH field selects, whose codes are longer than the
//! 11-bit primary window), and 65 535 (the hurricane tight-bound setup). These standalone rates split symbol decode by code shape, which
//! the ledger's single `symbol_decode` span does not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use szr_bitstream::{BitReader, BitWriter};
use szr_huffman::HuffmanCodec;

/// Quantization-code-like stream: two-sided geometric around the center
/// code, hash-driven and deterministic. `spread` controls the tail length
/// (small = highly skewed, Huffman-friendly; large = flat, deep codes).
fn synthetic_codes(n: usize, alphabet: u32, spread: f64) -> Vec<u32> {
    let center = alphabet / 2;
    (0..n)
        .map(|i| {
            let mut h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = (h ^ (h >> 31)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            // two-sided geometric
            let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
            let mag = (-u.max(1e-12).ln() * spread) as i64;
            (center as i64 + sign as i64 * mag).clamp(1, alphabet as i64 - 1) as u32
        })
        .collect()
}

fn codec_for(codes: &[u32], alphabet: usize) -> HuffmanCodec {
    let mut freqs = vec![0u64; alphabet];
    for &c in codes {
        freqs[c as usize] += 1;
    }
    HuffmanCodec::from_frequencies(&freqs)
}

fn bench_bitstream(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitstream");
    let n = 1 << 20;
    // 13-bit fields: representative of mid-size Huffman codewords, and
    // never byte-aligned, so the accumulator paths are always exercised.
    let fields: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37) & 0x1FFF)
        .collect();
    group.throughput(Throughput::Bytes((n * 13 / 8) as u64));
    group.bench_function("write_13bit", |b| {
        b.iter(|| {
            let mut w = BitWriter::with_capacity(n * 13 / 8 + 1);
            for &f in &fields {
                w.write_bits(f, 13);
            }
            w.into_bytes()
        })
    });
    let mut w = BitWriter::new();
    for &f in &fields {
        w.write_bits(f, 13);
    }
    let bytes = w.into_bytes();
    group.bench_function("read_13bit", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&bytes);
            let mut acc = 0u64;
            for _ in 0..n {
                acc ^= r.read_bits(13).unwrap();
            }
            acc
        })
    });
    group.bench_function("peek_consume_13bit", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&bytes);
            let mut acc = 0u64;
            for _ in 0..n {
                acc ^= r.peek_bits(13);
                r.consume(13);
            }
            acc
        })
    });
    group.finish();
}

/// Codes per `decode_into` call in the `decode_stream` variant: the fused
/// decompressor's group size.
const STREAM_GROUP: usize = 7200;

fn bench_huffman(c: &mut Criterion) {
    let mut group = c.benchmark_group("huffman");
    let n = 1 << 18;
    group.throughput(Throughput::Elements(n as u64));
    for (alphabet, spread) in [
        (16usize, 0.5f64),
        (256, 8.0),
        (16_384, 1600.0),
        (65_535, 64.0),
    ] {
        let codes = synthetic_codes(n, alphabet as u32, spread);
        let codec = codec_for(&codes, alphabet);
        let label = format!("a{alphabet}");
        group.bench_with_input(BenchmarkId::new("encode", &label), &codes, |b, codes| {
            b.iter(|| {
                let mut w = BitWriter::new();
                codec.encode_all(codes, &mut w);
                w.into_bytes()
            })
        });
        let mut w = BitWriter::new();
        codec.encode_all(&codes, &mut w);
        let payload = w.into_bytes();
        group.bench_with_input(
            BenchmarkId::new("decode_lut", &label),
            &payload,
            |b, payload| {
                let mut out = Vec::with_capacity(n);
                b.iter(|| {
                    let mut r = BitReader::new(payload);
                    codec.decode_all_into(&mut r, n, &mut out).unwrap();
                    out.len()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("decode_stream", &label),
            &payload,
            |b, payload| {
                let mut group = vec![0u32; STREAM_GROUP];
                b.iter(|| {
                    let mut decoder = codec.stream_decoder(payload, n);
                    while decoder.remaining() > 0 {
                        let take = decoder.remaining().min(STREAM_GROUP);
                        decoder.decode_into(&mut group[..take]).unwrap();
                    }
                    group[0]
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("decode_oracle", &label),
            &payload,
            |b, payload| {
                b.iter(|| {
                    let mut r = BitReader::new(payload);
                    codec.decode_all_slow(&mut r, n).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_bitstream, bench_huffman);
criterion_main!(benches);
