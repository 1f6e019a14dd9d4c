//! Fault-injection harness: every archive family, under every deterministic
//! mutator, must either decode within the stated bound or return a typed
//! `SzError` — never panic, never silently return wrong data, never size an
//! allocation from a header the archive's bytes cannot back.
//!
//! The mutators (`szr_datagen::Mutation`) are pure functions of
//! `(bytes, seed)`, so every failure here reproduces from its printed
//! `(family, mutation, seed)` triple alone.

use proptest::prelude::*;
use szr_bitstream::ByteWriter;
use szr_core::{
    compress, compress_pointwise_rel, decompress_pointwise_rel, decompress_with_policy, Config,
    DecodePolicy, ErrorBound, StreamCompressor, StreamDecompressor,
};
use szr_datagen::Mutation;
use szr_parallel::{BandExecutor, ChunkedArchive};
use szr_server::{ArchiveService, Backpressure, ServiceConfig, ServiceError};
use szr_tensor::Tensor;

const EB: f64 = 1e-3;

fn field_f32() -> Tensor<f32> {
    Tensor::from_fn([48, 36], |ix| {
        ((ix[0] as f32) * 0.13).sin() * 2.5 + ((ix[1] as f32) * 0.07).cos() + ix[0] as f32 * 0.01
    })
}

fn field_f64() -> Tensor<f64> {
    Tensor::from_fn([48, 36], |ix| {
        ((ix[0] as f64) * 0.13).sin() * 2.5 + ((ix[1] as f64) * 0.07).cos() + ix[0] as f64 * 0.01
    })
}

fn band_archive_f32() -> Vec<u8> {
    compress(&field_f32(), &Config::new(ErrorBound::Absolute(EB))).unwrap()
}

fn band_archive_f64() -> Vec<u8> {
    compress(&field_f64(), &Config::new(ErrorBound::Absolute(EB))).unwrap()
}

/// An escape-heavy field — five repeating values far outside any
/// predictor's reach — so nearly every point takes the escape path and the
/// DEFLATE escape-stream trial wins. The fixture asserts v5 framing so the
/// sweep genuinely exercises the inflate-then-verify decode path.
fn band_esclz_archive_f32() -> Vec<u8> {
    const ALPHABET: [f32; 5] = [0.0, 1.0e8, -3.0e7, 7.0e6, -9.0e5];
    let data = Tensor::from_fn([48, 36], |ix| ALPHABET[(ix[0] * 36 + ix[1]) % 5]);
    let bytes = compress(
        &data,
        &Config::new(ErrorBound::Absolute(EB)).with_escape_lz(),
    )
    .unwrap();
    assert_eq!(bytes[4], 5, "fixture must carry the v5 escape-LZ framing");
    bytes
}

fn chunked_archive_f32() -> Vec<u8> {
    let config = Config::new(ErrorBound::Absolute(EB));
    szr_parallel::compress_chunked(&field_f32(), &config, 4, 2)
        .unwrap()
        .to_bytes()
}

fn stream_archive_f32() -> Vec<u8> {
    let data = field_f32();
    let config = Config::new(ErrorBound::Absolute(EB));
    let mut enc = StreamCompressor::<f32>::new(&[36], 12, config).unwrap();
    for band in data.as_slice().chunks(12 * 36) {
        enc.push(band).unwrap();
    }
    enc.finish().unwrap()
}

fn pwrel_archive_f32() -> Vec<u8> {
    let data = Tensor::from_fn([48, 36], |ix| {
        1.0_f32 + ((ix[0] as f32) * 0.13).sin().abs() + (ix[1] as f32) * 0.02
    });
    compress_pointwise_rel(&data, 1e-3, &Config::new(ErrorBound::Absolute(EB))).unwrap()
}

/// Decode a mutated archive of the named family under the verifying policy.
/// Returns `Ok(decoded values)` or the typed error; panics and runaway
/// allocations are the harness's failure modes.
fn decode_family(family: &str, bytes: &[u8]) -> Result<Vec<f64>, szr_core::SzError> {
    match family {
        "band-f32" => decompress_with_policy::<f32>(bytes, DecodePolicy::Verify)
            .map(|t| t.as_slice().iter().map(|&v| v as f64).collect()),
        "band-f64" => decompress_with_policy::<f64>(bytes, DecodePolicy::Verify)
            .map(|t| t.as_slice().to_vec()),
        "band-esclz-f32" => decompress_with_policy::<f32>(bytes, DecodePolicy::Verify)
            .map(|t| t.as_slice().iter().map(|&v| v as f64).collect()),
        "chunked-f32" => {
            let container = ChunkedArchive::from_bytes(bytes)?;
            BandExecutor::new(2)
                .decompress::<f32>(&container, DecodePolicy::Verify)
                .map(|t| t.as_slice().iter().map(|&v| v as f64).collect())
        }
        "stream-f32" => {
            let mut dec = StreamDecompressor::<f32>::new(bytes)?;
            dec.set_decode_policy(DecodePolicy::Verify);
            let mut out = Vec::new();
            while let Some(band) = dec.next_band() {
                out.extend(band?.as_slice().iter().map(|&v| v as f64));
            }
            Ok(out)
        }
        "pwrel-f32" => decompress_pointwise_rel::<f32>(bytes)
            .map(|t| t.as_slice().iter().map(|&v| v as f64).collect()),
        other => unreachable!("unknown family {other}"),
    }
}

/// Reference decode of the pristine archive, used as "silently wrong"
/// baseline: a mutated archive that still decodes must stay within twice
/// the bound of the pristine reconstruction (the pristine decode is itself
/// within `eb` of the source, so this caps total drift at 3·eb).
fn sweep(family: &str, pristine: &[u8], seed: u64) {
    let reference = decode_family(family, pristine)
        .unwrap_or_else(|e| panic!("{family}: pristine archive failed to decode: {e}"));
    for mutation in Mutation::ALL {
        let mutated = mutation.apply(pristine, seed);
        assert_ne!(
            mutated,
            pristine,
            "{family}/{}/seed {seed}: mutator was a no-op",
            mutation.name()
        );
        match decode_family(family, &mutated) {
            Err(_) => {} // typed rejection: the expected outcome
            Ok(values) => {
                // The mutation dodged every check (possible for bit flips
                // in slack bytes, or pwrel which is structurally checked
                // only). The decode must still be usable data, not noise.
                assert_eq!(
                    values.len(),
                    reference.len(),
                    "{family}/{}/seed {seed}: decode changed the element count",
                    mutation.name()
                );
                for (i, (got, want)) in values.iter().zip(&reference).enumerate() {
                    assert!(
                        (got - want).abs() <= 2.0 * EB || got.to_bits() == want.to_bits(),
                        "{family}/{}/seed {seed}: silent corruption at {i}: {got} vs {want}",
                        mutation.name()
                    );
                }
            }
        }
    }
}

#[test]
fn band_f32_survives_all_mutators() {
    let pristine = band_archive_f32();
    for seed in 0..32 {
        sweep("band-f32", &pristine, seed);
    }
}

#[test]
fn band_f64_survives_all_mutators() {
    let pristine = band_archive_f64();
    for seed in 0..32 {
        sweep("band-f64", &pristine, seed);
    }
}

/// v5 archives store the escape stream *deflated*: mutators hit the DEFLATE
/// bitstream itself, so the inflate step — not just the CRC — must reject
/// garbage with a typed error, and bit flips the inflater happens to accept
/// are still caught by the payload checksum over the raw escape bytes.
#[test]
fn band_esclz_f32_survives_all_mutators() {
    let pristine = band_esclz_archive_f32();
    for seed in 0..32 {
        sweep("band-esclz-f32", &pristine, seed);
    }
}

#[test]
fn chunked_f32_survives_all_mutators() {
    let pristine = chunked_archive_f32();
    for seed in 0..32 {
        sweep("chunked-f32", &pristine, seed);
    }
}

#[test]
fn stream_f32_survives_all_mutators() {
    let pristine = stream_archive_f32();
    for seed in 0..32 {
        sweep("stream-f32", &pristine, seed);
    }
}

#[test]
fn pwrel_f32_survives_all_mutators() {
    let pristine = pwrel_archive_f32();
    for seed in 0..32 {
        sweep("pwrel-f32", &pristine, seed);
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Random seeds beyond the deterministic sweep: same invariant, wider
    /// net. One family per case keeps runtime bounded.
    #[test]
    fn random_seed_mutations_never_break_the_invariant(
        seed in 0u64..u64::MAX,
        pick in 0usize..6,
    ) {
        let (family, pristine) = match pick {
            0 => ("band-f32", band_archive_f32()),
            1 => ("band-f64", band_archive_f64()),
            2 => ("chunked-f32", chunked_archive_f32()),
            3 => ("stream-f32", stream_archive_f32()),
            4 => ("band-esclz-f32", band_esclz_archive_f32()),
            _ => ("pwrel-f32", pwrel_archive_f32()),
        };
        sweep(family, &pristine, seed);
    }
}

/// The salvage contract on a chunked container: damage exactly one band,
/// and every other band must come back bit-identical to the pristine
/// decode while the report names the damaged band and nothing else.
#[test]
fn chunked_salvage_recovers_untouched_bands_bit_identically() {
    let config = Config::new(ErrorBound::Absolute(EB));
    let data = field_f32();
    let pristine = szr_parallel::compress_chunked(&data, &config, 4, 2).unwrap();
    let reference: Tensor<f32> = szr_parallel::decompress_chunked(&pristine, 2).unwrap();
    let bands = pristine.chunks.len();
    let rows_per_band = 48 / bands;

    for (victim, mutation) in (0..bands).zip([
        Mutation::BitFlip,
        Mutation::Splice,
        Mutation::ByteSwap,
        Mutation::BitFlip,
    ]) {
        let mut damaged = pristine.clone();
        // Mutate past the band header so the extent stays readable and
        // row alignment holds for the bands after the victim.
        let keep = 24.min(damaged.chunks[victim].len() / 2);
        let tail = mutation.apply(&damaged.chunks[victim][keep..], 7);
        damaged.chunks[victim].truncate(keep);
        damaged.chunks[victim].extend_from_slice(&tail);

        let (recovered, report) = BandExecutor::new(2)
            .salvage::<f32>(&damaged, f32::NAN)
            .unwrap();
        assert_eq!(report.bands, bands);
        assert_eq!(
            report.damaged.iter().map(|d| d.band).collect::<Vec<_>>(),
            vec![victim],
            "exactly the mutated band must be reported damaged"
        );
        assert_eq!(report.recovered.len(), bands - 1);

        let row = 36;
        for r in 0..48 {
            let band_of_row = (r / rows_per_band).min(bands - 1);
            let got = &recovered.as_slice()[r * row..(r + 1) * row];
            let want = &reference.as_slice()[r * row..(r + 1) * row];
            if band_of_row == victim {
                assert!(
                    got.iter().all(|v| v.is_nan()),
                    "damaged band {victim} row {r} must be filled"
                );
            } else {
                assert!(
                    got.iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "intact band {band_of_row} row {r} must be bit-identical"
                );
            }
        }
    }
}

/// Damage confined to the v2 band index section. The sequential band walk
/// is authoritative, so index damage is never allowed to change decoded
/// bytes: the full decode (which ignores the index) must stay identical to
/// the pristine reference, the strict index peek must either fail typed
/// with the `index:` section named or return the pristine entries, and the
/// region decode must fall back to the sequential walk and still produce
/// the exact rows — never panic, never mis-seek.
#[test]
fn index_damage_degrades_to_the_sequential_walk_or_fails_typed() {
    let pristine = chunked_archive_f32();
    let index = ChunkedArchive::peek_index(&pristine).unwrap();
    assert!(index.from_index);
    // Everything after the band region is the index section: the entry
    // table plus its trailing CRC-32.
    let index_range = index.band_region.1..pristine.len();
    assert!(!index_range.is_empty());
    let reference = decode_family("chunked-f32", &pristine).unwrap();

    for mutation in Mutation::ALL {
        for seed in 0..32u64 {
            let mutated = mutation.apply_within(&pristine, seed, index_range.clone());
            assert_ne!(mutated, pristine, "{}/{seed}: no-op", mutation.name());

            // The full decode walks the bands sequentially and never reads
            // the index, so it must survive and match exactly.
            let full = decode_family("chunked-f32", &mutated).unwrap_or_else(|e| {
                panic!(
                    "chunked/{}/seed {seed}: index damage broke the full decode: {e}",
                    mutation.name()
                )
            });
            assert_eq!(full, reference, "{}/{seed}", mutation.name());

            // The strict peek is CRC-sealed: typed `index:` failure, or (if
            // the damage happens to cancel out structurally) the pristine
            // entries — never a differing table.
            match ChunkedArchive::peek_index(&mutated) {
                Err(szr_core::SzError::Corrupt(msg)) => assert!(
                    msg.starts_with("index:"),
                    "{}/{seed}: unnamed index section in {msg:?}",
                    mutation.name()
                ),
                Err(e) => panic!("{}/{seed}: unexpected error kind {e:?}", mutation.name()),
                Ok(peeked) => assert_eq!(
                    peeked.entries,
                    index.entries,
                    "{}/{seed}: peek accepted a lying index",
                    mutation.name()
                ),
            }

            // Region decode rebuilds the index by the sequential walk when
            // the stored one is damaged; the rows must still be exact.
            let roi = szr_parallel::decompress_chunked_region::<f32>(
                &mutated,
                10..30,
                2,
                DecodePolicy::Strict,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "chunked/{}/seed {seed}: region decode must degrade, not fail: {e}",
                    mutation.name()
                )
            });
            let row = 36;
            let want: Vec<f64> = reference[10 * row..30 * row].to_vec();
            let got: Vec<f64> = roi.as_slice().iter().map(|&v| v as f64).collect();
            assert_eq!(got, want, "{}/{seed}: region drifted", mutation.name());
        }
    }
}

/// Serializes an indexed (v2) chunked container of `bands` shaped `dims`
/// whose index declares `rows` per band and is sealed with a valid CRC, so
/// only the row extents can lie.
fn sealed_container(bands: &[Vec<u8>], dims: &[usize], rows: &[usize]) -> Vec<u8> {
    let mut out = ByteWriter::with_capacity(64);
    out.write_bytes(b"SZCK");
    out.write_u8(2);
    out.write_u8(0);
    out.write_varint(dims.len() as u64);
    for &d in dims {
        out.write_varint(d as u64);
    }
    out.write_varint(bands.len() as u64);
    let (mut region, mut index) = (ByteWriter::with_capacity(64), ByteWriter::with_capacity(16));
    for (band, &rows) in bands.iter().zip(rows) {
        region.write_varint(band.len() as u64);
        index.write_varint(region.as_bytes().len() as u64);
        index.write_varint(band.len() as u64);
        index.write_varint(rows as u64);
        region.write_bytes(band);
    }
    out.write_varint(region.as_bytes().len() as u64);
    out.write_bytes(region.as_bytes());
    out.write_bytes(index.as_bytes());
    out.write_u32(szr_deflate::crc32(index.as_bytes()));
    out.into_bytes()
}

/// An index re-sealed over row extents its bands do not have must fail
/// typed before any buffer is sized from it. Here dims `[2^20, 2^20]` and
/// index rows `[2^20 - 1, 1]` sit over two 1-row bands: a 1-row read of
/// the first band would size a 4 TiB buffer from the index alone.
#[test]
fn a_resealed_lying_index_fails_typed_before_sizing_a_buffer() {
    const WIDE: usize = 1 << 20;
    let config = Config::new(ErrorBound::Absolute(EB));
    let row = Tensor::from_fn([1, WIDE], |ix| (ix[1] % 7) as f32);
    let band = compress(&row, &config).unwrap();
    let bands = [band.clone(), band];

    // The hand-built container is the real format: with honest extents it
    // is byte-identical to the serializer's.
    let honest = ChunkedArchive {
        dims: vec![2, WIDE],
        chunks: bands.to_vec(),
        shared_table: None,
    };
    assert_eq!(
        sealed_container(&bands, &[2, WIDE], &[1, 1]),
        honest.to_bytes()
    );

    let lying = sealed_container(&bands, &[WIDE, WIDE], &[WIDE - 1, 1]);
    assert!(ChunkedArchive::peek_index(&lying).is_ok(), "the seal holds");
    let is_corrupt = |e: &szr_core::SzError| matches!(e, szr_core::SzError::Corrupt(_));
    let svc = ArchiveService::<f32>::new(ServiceConfig {
        workers: 1,
        queue_jobs: 1,
        backpressure: Backpressure::Block,
        session_config: config,
    })
    .unwrap();
    let bytes = std::sync::Arc::new(lying);
    for rows in [0..1, WIDE - 2..WIDE] {
        let read = BandExecutor::new(1).read::<f32>(&bytes, rows.clone(), DecodePolicy::Strict);
        assert!(read.as_ref().is_err_and(is_corrupt), "{rows:?}: {read:?}");
        let served = svc.read_region(
            std::sync::Arc::clone(&bytes),
            rows.clone(),
            DecodePolicy::Strict,
            None,
        );
        assert!(
            matches!(&served, Err(ServiceError::Codec(e)) if is_corrupt(e)),
            "service {rows:?}: {:?}",
            served.err()
        );
    }
    let full = svc.submit_decompress(std::sync::Arc::clone(&bytes), DecodePolicy::Strict, None);
    assert!(
        matches!(&full, Err(ServiceError::Codec(e)) if is_corrupt(e)),
        "{:?}",
        full.err()
    );
    let parsed = ChunkedArchive::from_bytes(&bytes).unwrap();
    let decoded = BandExecutor::new(1).decompress::<f32>(&parsed, DecodePolicy::Strict);
    assert!(decoded.as_ref().is_err_and(is_corrupt), "{decoded:?}");
}

/// Truncation anywhere in a band archive maps to a typed, section-named
/// error — the contract `szr inspect` and `szr verify` print to users.
#[test]
fn truncation_errors_name_the_failing_section() {
    let pristine = band_archive_f32();
    for cut in 1..pristine.len() {
        match szr_core::inspect_layout(&pristine[..cut]) {
            Ok(_) => panic!("truncation to {cut} bytes must not verify"),
            Err(szr_core::SzError::Corrupt(msg)) => assert!(
                msg.starts_with("header:")
                    || msg.starts_with("table:")
                    || msg.starts_with("payload:")
                    || msg.contains("truncated"),
                "cut at {cut}: unnamed section in {msg:?}"
            ),
            Err(e) => panic!("cut at {cut}: unexpected error kind {e:?}"),
        }
    }
}
