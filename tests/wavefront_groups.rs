//! Group-boundary equivalence of the wavefront scan.
//!
//! `ScanKernel::scan_rows` walks rows in skewed groups of up to four, with
//! border rows alone and a shorter last group. These tests pin that the
//! archives it produces are byte-identical to the per-point oracle's, and
//! that the fused and staged decoders agree bit for bit, on the shapes
//! where groups are cut oddly: row counts that are not a multiple of the
//! group height or are below it, rows no longer than the group height or
//! one column past the border, 3-D planes with fewer rows than a group,
//! single rows and single columns, both layer counts, f32 and f64, and
//! NaN/Inf sprinkles that put escapes mid-group and on border columns (so
//! the escape stream's row-major order is exercised). A stream that runs
//! out inside a group must fail with a typed error.

use proptest::prelude::*;
use szr::{
    decompress, inspect_layout, CodecSession, Config, ErrorBound, HuffmanTable, ScalarFloat,
    ScanKernel, Shape, SzError, Tensor,
};
use szr_core::oracle::{decompress_staged, quantize_slice_with_kernel_oracle};

/// A smooth field with a seeded ripple, scaled so escapes stay rare except
/// where `sprinkle` plants NaN, +Inf or −Inf.
fn field(dims: &[usize], seed: u64, sprinkle: usize) -> Vec<f64> {
    let len: usize = dims.iter().product();
    let mut h = seed | 1;
    (0..len)
        .map(|f| {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            if sprinkle > 0 && (f * 7 + seed as usize).is_multiple_of(sprinkle) {
                return [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][f % 3];
            }
            (f as f64 * 0.37).sin() * 40.0 + (h >> 44) as f64 * 1e-4
        })
        .collect()
}

/// Wavefront vs oracle archives, fused vs staged decodes, and the bound.
fn check<T: ScalarFloat + std::fmt::Debug>(dims: &[usize], data: &[T], config: &Config) {
    let shape = Shape::new(dims);
    let mut kernel = ScanKernel::for_shape(config.layers, &shape);
    let what = format!("dims {dims:?} layers {} {}", config.layers, T::NAME);

    let mut session = CodecSession::<T>::new(*config).unwrap();
    let (bytes, stats) = session.compress_slice(data, &shape).unwrap();
    let oracle = quantize_slice_with_kernel_oracle(data, &shape, config, &mut kernel).unwrap();
    let (oracle_bytes, oracle_stats) = session.encode(&oracle, HuffmanTable::PerBand);
    assert_eq!(bytes, oracle_bytes, "{what}: wavefront archive differs");
    assert_eq!(stats, oracle_stats, "{what}: stats differ");

    let fused: Tensor<T> = decompress(&bytes).unwrap();
    let staged: Tensor<T> = decompress_staged(&bytes).unwrap();
    for (f, ((x, a), b)) in data
        .iter()
        .zip(fused.as_slice())
        .zip(staged.as_slice())
        .enumerate()
    {
        assert_eq!(
            a.to_bits_u64(),
            b.to_bits_u64(),
            "{what}: decoders differ at {f}"
        );
        let x = x.to_f64();
        if x.is_finite() {
            let err = (x - a.to_f64()).abs();
            assert!(err <= stats.eb_abs, "{what}: error {err} at {f}");
        } else {
            assert_eq!(
                x.to_bits(),
                a.to_f64().to_bits(),
                "{what}: non-finite at {f}"
            );
        }
    }
}

fn check_both_types(dims: &[usize], layers: usize, seed: u64, sprinkle: usize, bits: Option<u32>) {
    let data = field(dims, seed, sprinkle);
    let mut config = Config::new(ErrorBound::Absolute(2e-3)).with_layers(layers);
    if let Some(bits) = bits {
        config = config.with_interval_bits(bits);
    }
    let as_f32: Vec<f32> = data.iter().map(|&v| v as f32).collect();
    check(dims, &as_f32, &config);
    check(dims, &data, &config);
}

#[test]
fn group_boundaries_match_the_point_oracle() {
    let shapes: [&[usize]; 21] = [
        // Interior rows not a multiple of four, or fewer than four.
        &[7, 9],
        &[6, 9],
        &[10, 11],
        &[2, 9],
        &[3, 5],
        // Rows no longer than a group is high; one column past the border.
        &[9, 4],
        &[9, 3],
        &[10, 2],
        &[13, 1],
        // 3-D planes with fewer rows than a group.
        &[3, 2, 9],
        &[4, 3, 7],
        &[2, 1, 5],
        &[5, 6, 4],
        // Single rows and columns.
        &[1, 17],
        &[17, 1],
        &[1, 1, 9],
        &[5, 1, 1],
        &[1, 6, 1],
        &[1],
        &[23],
        &[9, 9],
    ];
    for dims in shapes {
        for layers in 1..=2 {
            for (seed, sprinkle, bits) in [
                (1, 0, None),
                (2, 5, None),
                (3, 3, Some(4)),
                (4, 11, Some(6)),
            ] {
                check_both_types(dims, layers, seed, sprinkle, bits);
            }
        }
    }
}

fn arb_dims() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        (1usize..=40).prop_map(|n| vec![n]),
        (1usize..=14, 1usize..=12).prop_map(|(a, b)| vec![a, b]),
        (1usize..=5, 1usize..=6, 1usize..=7).prop_map(|(a, b, c)| vec![a, b, c]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random shapes, seeds and sprinkle densities through the same checks.
    #[test]
    fn random_groups_match_the_point_oracle(
        dims in arb_dims(),
        layers in 1usize..=2,
        seed in 0u64..1_000_000,
        sprinkle in 0usize..=9,
        bits in 0u32..=8,
    ) {
        let bits = (bits >= 3).then_some(bits);
        check_both_types(&dims, layers, seed, sprinkle, bits);
    }
}

/// Rebuilds a v3 band archive (no DEFLATE post-pass) with its escape
/// section cut to `keep` bytes: the framing still parses, so decoding runs
/// out of escape bits inside the scan.
fn cut_escape_section(bytes: &[u8], keep: usize) -> Vec<u8> {
    let layout = inspect_layout(bytes).unwrap();
    assert!(!layout.deflate_post_pass);
    let esc_len = layout.unpredictable_bytes;
    let end = bytes.len() - 8; // two section CRCs follow the escape section
    let mut prefix = 1;
    while (esc_len >> (7 * prefix)) > 0 {
        prefix += 1;
    }
    let start = end - esc_len - prefix;
    let mut out = bytes[..start].to_vec();
    let mut n = keep;
    loop {
        let byte = (n & 0x7F) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
    out.extend_from_slice(&bytes[end - esc_len..end - esc_len + keep]);
    out.extend_from_slice(&bytes[end..]);
    out
}

#[test]
fn escape_stream_ending_inside_a_group_fails_typed() {
    let dims = [40usize, 37];
    let data: Vec<f32> = field(&dims, 9, 13).iter().map(|&v| v as f32).collect();
    let tensor = Tensor::from_vec(Shape::new(&dims), data);
    let config = Config::new(ErrorBound::Absolute(1e-3)).without_lossless_pass();
    let bytes = szr::compress(&tensor, &config).unwrap();
    let esc_len = inspect_layout(&bytes).unwrap().unpredictable_bytes;
    assert!(esc_len > 64, "the sprinkle must leave a long escape stream");
    // The intact archive decodes; a cut at a quarter, half or most of the
    // stream fails in some later group, on both decoders.
    assert!(decompress::<f32>(&bytes).is_ok());
    for keep in [esc_len / 4, esc_len / 2, esc_len - 3] {
        let cut = cut_escape_section(&bytes, keep);
        assert!(matches!(decompress::<f32>(&cut), Err(SzError::Corrupt(_))));
        assert!(matches!(
            decompress_staged::<f32>(&cut),
            Err(SzError::Corrupt(_))
        ));
    }
}
