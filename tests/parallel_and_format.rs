//! Parallel-equivalence and archive-format robustness integration tests.

use szr::datagen::{dataset, hurricane, DatasetKind, Scale};
use szr::metrics::{max_abs_error, value_range};
use szr::parallel::{compress_chunked, decompress_chunked, BandExecutor, ChunkedArchive, Strategy};
use szr::{compress, decompress, inspect_layout, Config, ErrorBound, Tensor};

#[test]
fn chunked_compression_respects_the_same_bound_as_serial() {
    let data = hurricane(10, 60, 60, 4);
    let eb = 1e-4 * value_range(data.as_slice());
    let config = Config::new(ErrorBound::Absolute(eb));

    let serial = compress(&data, &config).unwrap();
    let serial_out: Tensor<f32> = decompress(&serial).unwrap();
    assert!(max_abs_error(data.as_slice(), serial_out.as_slice()) <= eb);

    for chunks in [2usize, 4, 8] {
        let archive = compress_chunked(&data, &config, chunks, 2).unwrap();
        let out: Tensor<f32> = decompress_chunked(&archive, 2).unwrap();
        assert!(
            max_abs_error(data.as_slice(), out.as_slice()) <= eb,
            "{chunks} chunks violate bound"
        );
    }
}

#[test]
fn chunked_archives_are_thread_count_invariant() {
    let field = dataset(DatasetKind::Aps, Scale::Small, 8).remove(0);
    let config = Config::new(ErrorBound::Relative(1e-4));
    let a = compress_chunked(&field.data, &config, 6, 1).unwrap();
    let b = compress_chunked(&field.data, &config, 6, 2).unwrap();
    assert_eq!(a.chunks, b.chunks, "archives must not depend on scheduling");
    let ra: Tensor<f32> = decompress_chunked(&a, 1).unwrap();
    let rb: Tensor<f32> = decompress_chunked(&b, 2).unwrap();
    assert_eq!(ra.as_slice(), rb.as_slice());
}

#[test]
fn shared_table_chunked_roundtrip_on_real_datasets() {
    // The shared-Huffman-table banded layout must honor the bound, shrink
    // the per-band-table overhead, survive serialization, and stay
    // scheduling-invariant on every paper dataset family.
    for kind in [DatasetKind::Atm, DatasetKind::Aps, DatasetKind::Hurricane] {
        let field = dataset(kind, Scale::Small, 11).remove(0);
        let data = field.data;
        let eb = 1e-4 * value_range(data.as_slice());
        // Pin the interval bits: adaptive mode may size intervals per band,
        // and bands quantized onto different alphabets legitimately decline
        // the shared table (the per-band fallback). With one alphabet, the
        // bands of a single field must share.
        let config = Config::new(ErrorBound::Absolute(eb)).with_interval_bits(10);

        let per_band = compress_chunked(&data, &config, 16, 2).unwrap();
        let shared = BandExecutor::new(2)
            .compress(&data, &config, 16, Strategy::Shared)
            .unwrap();
        assert!(
            shared.shared_table.is_some(),
            "{kind:?}: bands of one field should share a table"
        );
        assert!(
            shared.compressed_bytes() <= per_band.compressed_bytes(),
            "{kind:?}: shared {} vs per-band {}",
            shared.compressed_bytes(),
            per_band.compressed_bytes()
        );

        let direct: Tensor<f32> = decompress_chunked(&shared, 2).unwrap();
        assert!(max_abs_error(data.as_slice(), direct.as_slice()) <= eb);

        let reread = ChunkedArchive::from_bytes(&shared.to_bytes()).unwrap();
        let out: Tensor<f32> = decompress_chunked(&reread, 4).unwrap();
        assert_eq!(direct.as_slice(), out.as_slice());

        let single = BandExecutor::new(1)
            .compress(&data, &config, 16, Strategy::Shared)
            .unwrap();
        assert_eq!(single.chunks, shared.chunks, "{kind:?}: scheduling leak");
        assert_eq!(single.shared_table, shared.shared_table);
    }
}

#[test]
fn random_garbage_never_panics_any_decoder() {
    // Feed deterministic pseudo-random bytes to every decoder; corrupt input
    // must produce Err, never a panic or wild allocation.
    let mut garbage = Vec::with_capacity(4096);
    let mut h = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..4096 {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        garbage.push((h >> 32) as u8);
    }
    for cut in [0usize, 1, 7, 64, 1024, 4096] {
        let slice = &garbage[..cut];
        assert!(decompress::<f32>(slice).is_err());
        assert!(decompress::<f64>(slice).is_err());
        assert!(szr::baselines::zfp::zfp_decompress::<f32>(slice).is_err());
        assert!(szr::baselines::fpzip::fpzip_decompress::<f32>(slice).is_err());
        assert!(szr::baselines::sz11::sz11_decompress::<f32>(slice).is_err());
        assert!(szr::baselines::isabela::isabela_decompress::<f32>(slice).is_err());
        assert!(szr::baselines::gzip::gzip_decompress(slice).is_err());
    }
}

/// Chunked containers carry the escape-LZ trial per band: with
/// `Config::with_escape_lz` on escape-heavy data every self-contained band
/// commits the v5 framing, the container decodes within bound and smaller
/// than its plain counterpart, and salvage still recovers intact bands
/// bit-identically after damage.
#[test]
fn chunked_bands_carry_escape_lz_framing() {
    const ALPHABET: [f32; 5] = [0.0, 1.0e8, -3.0e7, 7.0e6, -9.0e5];
    // Bands must be big enough — and the row width not a multiple of the
    // alphabet period — for the per-band trial's win to survive the
    // whole-payload DEFLATE post-pass (on degenerate row-identical bands,
    // deflating the raw escape stream there nearly ties and the v5
    // framing's few bytes of overhead can lose).
    let data = Tensor::from_fn([256, 64], |ix| ALPHABET[(ix[0] * 64 + ix[1]) % 5]);
    let eb = 1e-3;
    let config = Config::new(ErrorBound::Absolute(eb)).with_escape_lz();
    let archive = compress_chunked(&data, &config, 4, 2).unwrap();
    for (i, band) in archive.chunks.iter().enumerate() {
        assert_eq!(band[4], 5, "band {i} must carry the v5 escape-LZ framing");
    }
    let out: Tensor<f32> = decompress_chunked(&archive, 2).unwrap();
    assert!(max_abs_error(data.as_slice(), out.as_slice()) <= eb);

    let plain = compress_chunked(&data, &Config::new(ErrorBound::Absolute(eb)), 4, 2).unwrap();
    let lz_total: usize = archive.chunks.iter().map(Vec::len).sum();
    let plain_total: usize = plain.chunks.iter().map(Vec::len).sum();
    assert!(
        lz_total < plain_total,
        "escape-LZ container ({lz_total} B) must beat plain ({plain_total} B)"
    );

    // Damage the back half of band 1: salvage fills its rows and recovers
    // every other band bit-identically — inflation failures on a mangled
    // deflate stream must degrade exactly like a CRC mismatch.
    let mut damaged = archive.clone();
    let n = damaged.chunks[1].len();
    for b in &mut damaged.chunks[1][n / 2..] {
        *b ^= 0xA5;
    }
    let (recovered, report) = BandExecutor::new(2)
        .salvage::<f32>(&damaged, f32::NAN)
        .unwrap();
    assert_eq!(
        report.damaged.iter().map(|d| d.band).collect::<Vec<_>>(),
        vec![1]
    );
    let rows_per_band = 256 / archive.chunks.len();
    for r in 0..256 {
        let band = (r / rows_per_band).min(archive.chunks.len() - 1);
        let got = &recovered.as_slice()[r * 64..(r + 1) * 64];
        let want = &out.as_slice()[r * 64..(r + 1) * 64];
        if band == 1 {
            assert!(got.iter().all(|v| v.is_nan()), "row {r} must be filled");
        } else {
            assert!(
                got.iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "intact band {band} row {r} must be bit-identical"
            );
        }
    }
}

/// One escape-heavy band (five values no predictor reaches, so nearly
/// every point escapes): the escape-LZ trial must win big, the archive
/// without it more than 1.5× the size of the archive with it, and the
/// escape-LZ archive must decode within bound.
#[test]
fn escape_lz_wins_big_on_one_escape_heavy_band() {
    const ALPHABET: [f32; 5] = [0.0, 1.0e8, -3.0e7, 7.0e6, -9.0e5];
    let data = Tensor::from_fn([256, 256], |ix| ALPHABET[(ix[0] * 256 + ix[1]) % 5]);
    let eb = 1e-3;
    let plain = Config::new(ErrorBound::Absolute(eb));
    let off = compress(&data, &plain).unwrap();
    let on = compress(&data, &plain.with_escape_lz()).unwrap();
    assert!(
        off.len() * 2 > on.len() * 3,
        "escape-LZ off ({} B) must be > 1.5x escape-LZ on ({} B)",
        off.len(),
        on.len()
    );
    let out: Tensor<f32> = decompress(&on).unwrap();
    assert!(max_abs_error(data.as_slice(), out.as_slice()) <= eb);
}

/// The DEFLATE trial's decision on every medium payload of the three
/// dataset families (seed 4242, relative bound 1e-4): near-incompressible
/// APS bands skip the pass, Hurricane bands and the sparse ATM fields run
/// it, and ATM FREQSH skips it whole but runs it in bands.
#[test]
fn deflate_trial_decisions_on_the_medium_datasets() {
    let config = Config::new(ErrorBound::Relative(1e-4));
    let post_passed = |bytes: &[u8]| inspect_layout(bytes).unwrap().deflate_post_pass;

    let mut aps_skips = 0;
    for field in dataset(DatasetKind::Aps, Scale::Medium, 4242) {
        let archive = compress_chunked(&field.data, &config, 32, 2).unwrap();
        assert_eq!(archive.chunks.len(), 32);
        aps_skips += archive.chunks.iter().filter(|b| !post_passed(b)).count();
    }
    assert!(aps_skips >= 60, "{aps_skips} of 64 APS bands skip the pass");

    for field in dataset(DatasetKind::Hurricane, Scale::Medium, 4242) {
        let archive = compress_chunked(&field.data, &config, 16, 2).unwrap();
        assert_eq!(archive.chunks.len(), 16);
        for (band, bytes) in archive.chunks.iter().enumerate() {
            assert!(post_passed(bytes), "{} band {band} skipped", field.name);
        }
    }

    for field in dataset(DatasetKind::Atm, Scale::Medium, 4242) {
        let runs = post_passed(&compress(&field.data, &config).unwrap());
        assert_eq!(runs, field.name != "FREQSH", "{}", field.name);
        if field.name == "FREQSH" {
            // Each band leads with its own Huffman table, whose statistics
            // differ from its code stream's: the pass saves about 5% of
            // every band, and only the segmented price sees it.
            let archive = compress_chunked(&field.data, &config, 16, 2).unwrap();
            for (band, bytes) in archive.chunks.iter().enumerate() {
                assert!(post_passed(bytes), "FREQSH band {band} skipped");
            }
        }
    }
}

#[test]
fn valid_magic_with_corrupt_body_never_panics() {
    let data = Tensor::from_fn([32, 32], |ix| (ix[0] + ix[1]) as f32);
    let packed = compress(&data, &Config::new(ErrorBound::Absolute(0.01))).unwrap();
    // Flip every byte position one at a time (first 256 positions).
    for pos in 0..packed.len().min(256) {
        let mut copy = packed.clone();
        copy[pos] = copy[pos].wrapping_add(0x5B);
        let _ = decompress::<f32>(&copy); // Err or Ok both fine; no panic.
    }
}

#[test]
fn system_gzip_interoperates_when_available() {
    // Cross-validation against the reference implementation; skipped when
    // the host has no gzip binary.
    use std::process::Command;
    if Command::new("gzip").arg("--version").output().is_err() {
        eprintln!("skipping: no system gzip");
        return;
    }
    let data: Vec<u8> = (0..40_000u32)
        .flat_map(|i| ((i as f32 * 0.001).sin()).to_le_bytes())
        .collect();
    let dir = std::env::temp_dir().join("szr_gzip_interop");
    std::fs::create_dir_all(&dir).unwrap();
    // Ours -> system gunzip.
    let ours = dir.join("ours.gz");
    std::fs::write(&ours, szr::baselines::gzip::gzip_compress(&data)).unwrap();
    let out = Command::new("gzip")
        .args(["-dc", ours.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "system gunzip rejected our stream");
    assert_eq!(out.stdout, data);
    // System gzip -> our decoder.
    let raw = dir.join("raw.bin");
    std::fs::write(&raw, &data).unwrap();
    let sys = Command::new("gzip")
        .args(["-c", raw.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(sys.status.success());
    assert_eq!(
        szr::baselines::gzip::gzip_decompress(&sys.stdout).unwrap(),
        data
    );
}
