//! Property tests for the compressor's central invariant:
//! every decompressed point is within the error bound of the original.

use crate::{compress, compress_with_stats, decompress, CodecSession, Config, ErrorBound};
use proptest::prelude::*;
use szr_tensor::Tensor;

/// Strategy: a family of 1-D/2-D/3-D grids sharing inner extents (what one
/// session serves across bands), with mixed smooth/noisy content.
fn arb_grid_family_f32() -> impl Strategy<Value = Vec<Tensor<f32>>> {
    (
        1usize..4,
        2usize..14,
        2usize..8,
        prop::collection::vec((1usize..14, any::<u32>()), 2..4),
    )
        .prop_map(|(ndim, a, b, leads)| {
            leads
                .into_iter()
                .map(|(lead, seed)| {
                    let dims = match ndim {
                        1 => vec![lead * 9 + 1],
                        2 => vec![lead, a],
                        _ => vec![lead, a, b],
                    };
                    Tensor::from_fn(&dims[..], move |ix| {
                        let mut h = seed as u64;
                        for &i in ix {
                            h = h.wrapping_mul(31).wrapping_add(i as u64 + 1);
                        }
                        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let s: usize = ix.iter().sum();
                        (s as f32 * 0.05).sin() * 50.0 + ((h >> 48) as f32) * 1e-2
                    })
                })
                .collect()
        })
}

/// Strategy: random small grids of random finite f32 data.
fn arb_grid_f32() -> impl Strategy<Value = Tensor<f32>> {
    (1usize..4, 1usize..24, 1usize..24).prop_flat_map(|(ndim, a, b)| {
        let dims = match ndim {
            1 => vec![a * b],
            2 => vec![a, b],
            _ => vec![a.div_ceil(2), b, 3],
        };
        let len = dims.iter().product::<usize>();
        prop::collection::vec(-1e6f32..1e6, len..=len)
            .prop_map(move |data| Tensor::from_vec(&dims[..], data))
    })
}

fn arb_bound() -> impl Strategy<Value = ErrorBound> {
    prop_oneof![
        (1e-6f64..1e2).prop_map(ErrorBound::Absolute),
        (1e-7f64..1e-1).prop_map(ErrorBound::Relative),
        ((1e-6f64..1e2), (1e-7f64..1e-1)).prop_map(|(abs, rel)| ErrorBound::Both { abs, rel }),
    ]
}

fn resolve(bound: ErrorBound, data: &[f32]) -> f64 {
    let min = data.iter().cloned().fold(f32::INFINITY, f32::min) as f64;
    let max = data.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
    bound.effective((max - min).max(0.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// THE invariant: |x - x~| <= eb for every point, any data, any bound.
    #[test]
    fn error_bound_always_holds(grid in arb_grid_f32(), bound in arb_bound()) {
        let config = Config::new(bound);
        let bytes = compress(&grid, &config).unwrap();
        let out: Tensor<f32> = decompress(&bytes).unwrap();
        let eb = resolve(bound, grid.as_slice());
        for (i, (&a, &b)) in grid.as_slice().iter().zip(out.as_slice()).enumerate() {
            let err = (a as f64 - b as f64).abs();
            prop_assert!(err <= eb, "point {i}: |{a} - {b}| = {err} > {eb}");
        }
    }

    /// The invariant must hold for every layer count, not just the default.
    #[test]
    fn error_bound_holds_for_all_layers(
        grid in arb_grid_f32(),
        layers in 1usize..=4,
        eb in 1e-5f64..1.0,
    ) {
        let config = Config::new(ErrorBound::Absolute(eb)).with_layers(layers);
        let bytes = compress(&grid, &config).unwrap();
        let out: Tensor<f32> = decompress(&bytes).unwrap();
        for (&a, &b) in grid.as_slice().iter().zip(out.as_slice()) {
            prop_assert!((a as f64 - b as f64).abs() <= eb);
        }
    }

    /// Same for tiny fixed interval counts, which force the escape path.
    #[test]
    fn error_bound_holds_with_minimal_intervals(
        grid in arb_grid_f32(),
        eb in 1e-4f64..1.0,
    ) {
        let config = Config::new(ErrorBound::Absolute(eb)).with_interval_bits(2);
        let bytes = compress(&grid, &config).unwrap();
        let out: Tensor<f32> = decompress(&bytes).unwrap();
        for (&a, &b) in grid.as_slice().iter().zip(out.as_slice()) {
            prop_assert!((a as f64 - b as f64).abs() <= eb);
        }
    }

    /// Decompression is deterministic and archives are parseable exactly once
    /// written.
    #[test]
    fn decompression_is_deterministic(grid in arb_grid_f32()) {
        let config = Config::new(ErrorBound::Relative(1e-3));
        let bytes = compress(&grid, &config).unwrap();
        let a: Tensor<f32> = decompress(&bytes).unwrap();
        let b: Tensor<f32> = decompress(&bytes).unwrap();
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }

    /// Recompressing the reconstruction is idempotent: the second archive
    /// reconstructs the same values (every reconstructed point is its own
    /// quantization-interval center).
    #[test]
    fn recompression_is_idempotent(grid in arb_grid_f32(), eb in 1e-4f64..1.0) {
        let config = Config::new(ErrorBound::Absolute(eb));
        let once: Tensor<f32> = decompress(&compress(&grid, &config).unwrap()).unwrap();
        let twice: Tensor<f32> = decompress(&compress(&once, &config).unwrap()).unwrap();
        for (&a, &b) in once.as_slice().iter().zip(twice.as_slice()) {
            prop_assert!((a as f64 - b as f64).abs() <= eb);
        }
    }

    /// Stats bookkeeping: hit counts line up with histogram totals.
    #[test]
    fn stats_are_consistent(grid in arb_grid_f32(), eb in 1e-4f64..10.0) {
        let config = Config::new(ErrorBound::Absolute(eb));
        let (bytes, stats) = compress_with_stats(&grid, &config).unwrap();
        prop_assert_eq!(stats.total, grid.len());
        prop_assert!(stats.predictable <= stats.total);
        prop_assert_eq!(stats.compressed_bytes, bytes.len());
        prop_assert!((0.0..=1.0).contains(&stats.hit_rate()));
    }

    /// Decorrelation mode must keep the same guarantee.
    #[test]
    fn error_bound_holds_with_decorrelation(
        grid in arb_grid_f32(),
        eb in 1e-4f64..1e2,
    ) {
        let config = Config::new(ErrorBound::Absolute(eb)).with_decorrelation();
        let bytes = compress(&grid, &config).unwrap();
        let out: Tensor<f32> = decompress(&bytes).unwrap();
        for (&a, &b) in grid.as_slice().iter().zip(out.as_slice()) {
            prop_assert!((a as f64 - b as f64).abs() <= eb);
        }
    }

    /// Pointwise-relative mode: |x - x~| <= eb·|x| for every finite point;
    /// zeros and non-finite values exact.
    #[test]
    fn pointwise_relative_bound_holds(
        data in prop::collection::vec(-1e20f32..1e20, 1..500),
        eb in 1e-5f64..0.5,
    ) {
        let len = data.len();
        let grid = Tensor::from_vec([len], data);
        let cfg = Config::new(ErrorBound::Absolute(1.0));
        let bytes = crate::compress_pointwise_rel(&grid, eb, &cfg).unwrap();
        let out: Tensor<f32> = crate::decompress_pointwise_rel(&bytes).unwrap();
        for (&a, &b) in grid.as_slice().iter().zip(out.as_slice()) {
            let (x, y) = (a as f64, b as f64);
            if x == 0.0 {
                prop_assert_eq!(y, 0.0);
            } else {
                prop_assert!((x - y).abs() <= eb * x.abs() * (1.0 + 1e-9),
                    "|{} - {}| > {}*|x|", x, y, eb);
            }
        }
    }

    /// Streaming in arbitrary slab sizes reconstructs within the bound and
    /// matches the band layout.
    #[test]
    fn streamed_compression_respects_bound(
        rows in 1usize..40,
        cols in 1usize..24,
        band_rows in 1usize..12,
        push_rows in 1usize..9,
        eb in 1e-4f64..1.0,
    ) {
        let grid = Tensor::from_fn([rows, cols], |ix| {
            ((ix[0] * 31 + ix[1] * 7) as f32 * 0.01).sin() * 100.0
        });
        let config = Config::new(ErrorBound::Absolute(eb));
        let mut stream = crate::StreamCompressor::<f32>::new(&[cols], band_rows, config).unwrap();
        for slab in grid.as_slice().chunks(push_rows * cols) {
            stream.push(slab).unwrap();
        }
        let bytes = stream.finish().unwrap();
        let out: Tensor<f32> = crate::StreamDecompressor::new(&bytes)
            .unwrap()
            .collect_all()
            .unwrap();
        prop_assert_eq!(out.dims(), grid.dims());
        for (&a, &b) in grid.as_slice().iter().zip(out.as_slice()) {
            prop_assert!((a as f64 - b as f64).abs() <= eb);
        }
    }

    /// Corrupt archives must error (or decode) without panicking, and
    /// truncations must always error — exercising the fallible row decode,
    /// which aborts at the first bad symbol instead of scanning the grid.
    #[test]
    fn corrupt_and_truncated_archives_error_without_panic(
        grid in arb_grid_f32(),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip_mask in 1u8..=255,
    ) {
        let config = Config::new(ErrorBound::Relative(1e-3));
        let bytes = compress(&grid, &config).unwrap();
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(decompress::<f32>(&bytes[..cut]).is_err(), "cut {cut}");
        let mut copy = bytes.clone();
        let pos = ((copy.len() - 1) as f64 * flip_frac) as usize;
        copy[pos] ^= flip_mask;
        let _ = decompress::<f32>(&copy); // error or decode; never a panic
    }

    /// A reused session is indistinguishable from the free-function
    /// pipeline, byte for byte, across dims, band sequences, and both
    /// table paths — the refactor's central equivalence claim.
    #[test]
    fn reused_session_matches_fresh_pipeline_byte_for_byte(
        grids in arb_grid_family_f32(),
        eb in 1e-4f64..1.0,
    ) {
        let config = Config::new(ErrorBound::Absolute(eb));
        let mut session = CodecSession::<f32>::new(config).unwrap();
        for grid in &grids {
            // Per-band (staged) path.
            let (fresh, fresh_stats) =
                crate::compress_slice_with_stats(grid.as_slice(), grid.shape(), &config).unwrap();
            let (reused, reused_stats) = session.compress_with_stats(grid).unwrap();
            prop_assert_eq!(&reused, &fresh);
            prop_assert_eq!(reused_stats, fresh_stats);
            // Shared-table path: same codec, reused session vs a fresh one.
            let mut fresh_session = CodecSession::<f32>::new(config).unwrap();
            let band_fresh = fresh_session.quantize(grid.as_slice(), grid.shape()).unwrap();
            let codec = szr_huffman::HuffmanCodec::from_frequencies(band_fresh.histogram());
            let (shared_fresh, _) =
                fresh_session.encode(&band_fresh, crate::HuffmanTable::Shared(&codec));
            let band_sess = session.quantize(grid.as_slice(), grid.shape()).unwrap();
            let (shared_sess, _) = session.encode(&band_sess, crate::HuffmanTable::Shared(&codec));
            prop_assert_eq!(&shared_sess, &shared_fresh);
            // Decode through the session == free decode, both kinds.
            let free_out: Tensor<f32> = decompress(&fresh).unwrap();
            let sess_out = session.decompress(&reused).unwrap();
            prop_assert_eq!(free_out.as_slice(), sess_out.as_slice());
            let free_shared: Tensor<f32> =
                fresh_session.decompress_shared(&shared_fresh, &codec).unwrap();
            let sess_shared = session.decompress_shared(&shared_sess, &codec).unwrap();
            prop_assert_eq!(free_shared.as_slice(), sess_shared.as_slice());
        }
    }

    /// Same equivalence for f64 sessions (1-D families).
    #[test]
    fn reused_f64_session_matches_fresh_pipeline(
        seqs in prop::collection::vec(prop::collection::vec(-1e9f64..1e9, 4..200), 2..4),
        eb in 1e-6f64..1e2,
    ) {
        let config = Config::new(ErrorBound::Absolute(eb));
        let mut session = CodecSession::<f64>::new(config).unwrap();
        for data in seqs {
            let len = data.len();
            let grid = Tensor::from_vec([len], data);
            let fresh = compress(&grid, &config).unwrap();
            let reused = session.compress(&grid).unwrap();
            prop_assert_eq!(&reused, &fresh);
            let out = session.decompress(&reused).unwrap();
            for (&a, &b) in grid.as_slice().iter().zip(out.as_slice()) {
                prop_assert!((a - b).abs() <= eb);
            }
        }
    }

    /// Fused table-reuse mode: archives stay self-describing (plain
    /// `decompress` reads them) and within the bound across band sequences
    /// that may or may not trigger the escape-rebuild fallback.
    #[test]
    fn fused_session_archives_self_describe_and_hold_the_bound(
        grids in arb_grid_family_f32(),
        eb in 1e-4f64..1.0,
    ) {
        let config = Config::new(ErrorBound::Absolute(eb));
        let mut session = CodecSession::<f32>::new(config).unwrap();
        session.set_table_reuse(true);
        for grid in &grids {
            let (bytes, stats) = session.compress_with_stats(grid).unwrap();
            prop_assert_eq!(stats.total, grid.len());
            prop_assert_eq!(stats.compressed_bytes, bytes.len());
            let out: Tensor<f32> = decompress(&bytes).unwrap();
            prop_assert_eq!(out.dims(), grid.dims());
            for (&a, &b) in grid.as_slice().iter().zip(out.as_slice()) {
                prop_assert!((a as f64 - b as f64).abs() <= eb);
            }
        }
    }

    /// Corrupt-archive handling through the session decode path: every
    /// truncation errors, every bit flip errors or decodes, and the session
    /// stays usable afterwards.
    #[test]
    fn session_decode_rejects_corruption_without_panic(
        grid in arb_grid_f32(),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip_mask in 1u8..=255,
    ) {
        let config = Config::new(ErrorBound::Relative(1e-3));
        let mut session = CodecSession::<f32>::new(config).unwrap();
        let bytes = session.compress(&grid).unwrap();
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(session.decompress(&bytes[..cut]).is_err(), "cut {}", cut);
        let mut copy = bytes.clone();
        let pos = ((copy.len() - 1) as f64 * flip_frac) as usize;
        copy[pos] ^= flip_mask;
        let _ = session.decompress(&copy); // error or decode; never a panic
        // The session survives the corruption attempts intact.
        let out = session.decompress(&bytes).unwrap();
        prop_assert_eq!(out.dims(), grid.dims());
    }

    /// The fused streaming decode (symbols pulled straight into row
    /// reconstruction) is bit-identical to the staged oracle — per-band and
    /// shared-table archives, any rank, any layer count.
    #[test]
    fn fused_decode_matches_staged_oracle_bit_for_bit(
        grid in arb_grid_f32(),
        layers in 1usize..=3,
        eb in 1e-4f64..1.0,
    ) {
        let config = Config::new(ErrorBound::Absolute(eb)).with_layers(layers);
        let bytes = compress(&grid, &config).unwrap();
        let fused: Tensor<f32> = decompress(&bytes).unwrap();
        let staged: Tensor<f32> = crate::oracle::decompress_staged(&bytes).unwrap();
        prop_assert_eq!(fused.dims(), staged.dims());
        for (a, b) in fused.as_slice().iter().zip(staged.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // Shared-table band archives: same equivalence through the
        // shared-stream entry points.
        let mut session = CodecSession::<f32>::new(config).unwrap();
        let band = session.quantize(grid.as_slice(), grid.shape()).unwrap();
        let codec = szr_huffman::HuffmanCodec::from_frequencies(band.histogram());
        let (shared, _) = session.encode(&band, crate::HuffmanTable::Shared(&codec));
        let fused_s = session.decompress_shared(&shared, &codec).unwrap();
        let staged_s: Tensor<f32> =
            crate::oracle::decompress_staged_shared(&shared, &codec).unwrap();
        for (a, b) in fused_s.as_slice().iter().zip(staged_s.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Same fused-vs-staged identity for f64 archives.
    #[test]
    fn fused_decode_matches_staged_oracle_f64(
        ndim in 1usize..4,
        a in 1usize..14,
        b in 1usize..10,
        seed in any::<u32>(),
        eb in 1e-6f64..1e2,
    ) {
        let dims = match ndim {
            1 => vec![a * b + 1],
            2 => vec![a, b],
            _ => vec![a, b, 3],
        };
        let grid = Tensor::from_fn(&dims[..], move |ix| {
            let mut h = seed as u64;
            for &i in ix {
                h = h.wrapping_mul(31).wrapping_add(i as u64 + 1);
            }
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let s: usize = ix.iter().sum();
            (s as f64 * 0.05).sin() * 50.0 + ((h >> 48) as f64) * 1e-2
        });
        let config = Config::new(ErrorBound::Absolute(eb));
        let bytes = compress(&grid, &config).unwrap();
        let fused: Tensor<f64> = decompress(&bytes).unwrap();
        let staged: Tensor<f64> = crate::oracle::decompress_staged(&bytes).unwrap();
        for (x, y) in fused.as_slice().iter().zip(staged.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Fused and staged decode agree on damaged archives too: every
    /// truncation errors on both paths, and every bit flip gives the same
    /// verdict — both decode to identical bits, or both abort (the fused
    /// path at the first bad symbol, never decoding the full grid).
    #[test]
    fn fused_and_staged_agree_on_damaged_archives(
        grid in arb_grid_f32(),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip_mask in 1u8..=255,
    ) {
        let config = Config::new(ErrorBound::Relative(1e-3));
        let bytes = compress(&grid, &config).unwrap();
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(decompress::<f32>(&bytes[..cut]).is_err(), "fused cut {cut}");
        prop_assert!(crate::oracle::decompress_staged::<f32>(&bytes[..cut]).is_err(), "staged cut {cut}");
        let mut copy = bytes.clone();
        let pos = ((copy.len() - 1) as f64 * flip_frac) as usize;
        copy[pos] ^= flip_mask;
        match (decompress::<f32>(&copy), crate::oracle::decompress_staged::<f32>(&copy)) {
            (Ok(f), Ok(s)) => {
                for (x, y) in f.as_slice().iter().zip(s.as_slice()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            (Err(_), Err(_)) => {}
            (f, s) => prop_assert!(false, "verdicts diverge: fused {:?} staged {:?}",
                f.map(|_| ()), s.map(|_| ())),
        }
    }

    /// f64 data obeys the bound too.
    #[test]
    fn error_bound_holds_for_f64(
        data in prop::collection::vec(-1e12f64..1e12, 8..400),
        eb in 1e-9f64..1e3,
    ) {
        let len = data.len();
        let grid = Tensor::from_vec([len], data);
        let config = Config::new(ErrorBound::Absolute(eb));
        let bytes = compress(&grid, &config).unwrap();
        let out: Tensor<f64> = decompress(&bytes).unwrap();
        for (&a, &b) in grid.as_slice().iter().zip(out.as_slice()) {
            prop_assert!((a - b).abs() <= eb);
        }
    }
}

/// Strategy: 2-D grids large enough for the DEFLATE post-pass trial to
/// sample (payloads from a few KiB to a few hundred), from smooth to
/// noise-dominated.
fn arb_trial_grid() -> impl Strategy<Value = Tensor<f32>> {
    (32usize..256, 0.0f32..1.0, any::<u32>()).prop_map(|(rows, noise, seed)| {
        Tensor::from_fn([rows, 256], move |ix| {
            let h =
                ((ix[0] * 256 + ix[1]) as u64 ^ seed as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let smooth = ((ix[0] + ix[1]) as f32 * 0.02).sin() * 10.0;
            smooth + noise * ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 1e3
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The post-pass never grows an archive: a payload it deflates comes
    /// out smaller, and one it skips or loses on is stored byte for byte as
    /// with the pass off. Either way the decode is the same.
    #[test]
    fn post_pass_never_grows_the_archive(grid in arb_trial_grid(), eb in 1e-5f64..1e-1) {
        let config = Config::new(ErrorBound::Absolute(eb));
        let with = compress(&grid, &config).unwrap();
        let without = compress(&grid, &config.without_lossless_pass()).unwrap();
        prop_assert!(with.len() <= without.len());
        if with.len() == without.len() {
            prop_assert_eq!(&with, &without);
        }
        let a: Tensor<f32> = decompress(&with).unwrap();
        let b: Tensor<f32> = decompress(&without).unwrap();
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }
}
