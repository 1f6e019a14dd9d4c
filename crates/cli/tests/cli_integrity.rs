//! Integration tests for `szr verify` and `szr decompress --salvage`:
//! exit codes, section-named diagnostics, and the salvage report in both
//! text and JSON form, over intact and deliberately damaged archives.

use std::path::PathBuf;
use std::process::Command;

use szr_core::{Config, ErrorBound};
use szr_tensor::Tensor;

fn szr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_szr"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("szr_cli_integrity");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Generate a small field and compress it to a band archive; returns the
/// archive path.
fn make_band_archive(stem: &str) -> PathBuf {
    let raw = tmp(&format!("{stem}.bin"));
    let archive = tmp(&format!("{stem}.szr"));
    let gen = szr()
        .args([
            "gen",
            "--dataset",
            "atm",
            "--variable",
            "TS",
            "--scale",
            "small",
        ])
        .args(["--seed", "7", "--output", raw.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gen.status.success(), "gen failed: {gen:?}");
    let comp = szr()
        .args(["compress", "--input", raw.to_str().unwrap()])
        .args(["--dims", "90x180", "--rel", "1e-4"])
        .args(["--output", archive.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(comp.status.success(), "compress failed: {comp:?}");
    archive
}

fn flip_byte(path: &PathBuf, offset_from: impl Fn(usize) -> usize) -> PathBuf {
    let mut bytes = std::fs::read(path).unwrap();
    let at = offset_from(bytes.len());
    bytes[at] ^= 0x40;
    let out = tmp(&format!(
        "{}.damaged",
        path.file_name().unwrap().to_str().unwrap()
    ));
    std::fs::write(&out, &bytes).unwrap();
    out
}

#[test]
fn verify_accepts_fresh_band_archive() {
    let archive = make_band_archive("verify_ok");
    let out = szr()
        .args(["verify", "--input", archive.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "verify failed on intact archive: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("ok: band archive verified"),
        "unexpected verify output: {stdout}"
    );
    assert!(
        stdout.contains("v3"),
        "fresh archive should verify as v3: {stdout}"
    );
}

#[test]
fn verify_names_header_on_header_corruption() {
    let archive = make_band_archive("verify_header");
    // Bytes 9..17 hold the error bound f64; flipping a low mantissa bit
    // keeps the header parseable but breaks the header CRC.
    let damaged = flip_byte(&archive, |_| 9);
    let out = szr()
        .args(["verify", "--input", damaged.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "verify must exit 1 on damage");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("header:"),
        "expected header-section diagnostic, got: {stderr}"
    );
}

#[test]
fn verify_names_a_section_on_payload_corruption() {
    let archive = make_band_archive("verify_payload");
    // Last 8 bytes are the table/payload CRC trailer; byte len-9 is inside
    // the stored payload.
    let damaged = flip_byte(&archive, |len| len - 9);
    let out = szr()
        .args(["verify", "--input", damaged.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "verify must exit 1 on damage");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("header:") || stderr.contains("table:") || stderr.contains("payload:"),
        "expected a section-named diagnostic, got: {stderr}"
    );
}

#[test]
fn salvage_clean_band_archive_exits_zero_and_matches_plain_decode() {
    let archive = make_band_archive("salvage_clean");
    let plain = tmp("salvage_clean_plain.out");
    let salvaged = tmp("salvage_clean_salvage.out");
    let dec = szr()
        .args(["decompress", "--input", archive.to_str().unwrap()])
        .args(["--output", plain.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(dec.status.success(), "plain decompress failed: {dec:?}");
    let out = szr()
        .args(["decompress", "--input", archive.to_str().unwrap()])
        .args(["--output", salvaged.to_str().unwrap(), "--salvage"])
        .output()
        .unwrap();
    assert!(out.status.success(), "clean salvage must exit 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("salvage: 1 of 1 bands recovered, 0 damaged"),
        "unexpected salvage report: {stdout}"
    );
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&salvaged).unwrap(),
        "salvage of an intact archive must decode bit-identically"
    );
}

#[test]
fn salvage_damaged_band_archive_exits_one_with_report() {
    let archive = make_band_archive("salvage_damaged");
    let damaged = flip_byte(&archive, |len| len - 9);
    let out_path = tmp("salvage_damaged.out");
    let out = szr()
        .args(["decompress", "--input", damaged.to_str().unwrap()])
        .args(["--output", out_path.to_str().unwrap(), "--salvage"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "damaged salvage must exit 1: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("salvage: 0 of 1 bands recovered, 1 damaged"),
        "unexpected salvage report: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("1 of 1 bands damaged"),
        "unexpected salvage error: {stderr}"
    );
}

#[test]
fn salvage_json_report_on_intact_archive() {
    let archive = make_band_archive("salvage_json");
    let out_path = tmp("salvage_json.out");
    let out = szr()
        .args(["decompress", "--input", archive.to_str().unwrap()])
        .args(["--output", out_path.to_str().unwrap(), "--salvage=json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "clean salvage must exit 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().next().unwrap_or("");
    assert!(
        line.starts_with('{') && line.contains("\"recovered\"") && line.contains("\"damaged\""),
        "expected a JSON salvage report, got: {stdout}"
    );
}

#[test]
fn verify_accepts_pointwise_rel_archive() {
    let raw = tmp("verify_pwrel.bin");
    let archive = tmp("verify_pwrel.szr");
    let gen = szr()
        .args([
            "gen",
            "--dataset",
            "atm",
            "--variable",
            "TS",
            "--scale",
            "small",
        ])
        .args(["--seed", "11", "--output", raw.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gen.status.success(), "gen failed: {gen:?}");
    let comp = szr()
        .args(["compress", "--input", raw.to_str().unwrap()])
        .args(["--dims", "90x180", "--pointwise-rel", "1e-3"])
        .args(["--output", archive.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(comp.status.success(), "pwrel compress failed: {comp:?}");
    let out = szr()
        .args(["verify", "--input", archive.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "verify failed on pwrel archive: {out:?}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("pointwise-relative archive verified"));

    // Truncating the archive must be caught, not trusted.
    let bytes = std::fs::read(&archive).unwrap();
    let cut = tmp("verify_pwrel.trunc");
    std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
    let bad = szr()
        .args(["verify", "--input", cut.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        bad.status.code(),
        Some(1),
        "truncated pwrel must fail verify"
    );
}

/// Chunked containers: write one through the library API, damage a middle
/// band, and check that `szr decompress --salvage` recovers the others and
/// `szr verify` names the failing band.
#[test]
fn salvage_recovers_intact_bands_of_damaged_chunked_container() {
    let data = Tensor::from_fn([96, 40], |ix| {
        ((ix[0] as f32) * 0.05).sin() * 3.0 + ((ix[1] as f32) * 0.11).cos()
    });
    let config = Config::new(ErrorBound::Absolute(1e-3));
    let mut container = szr_parallel::compress_chunked(&data, &config, 4, 2).unwrap();
    assert!(
        container.chunks.len() >= 3,
        "want several bands for the test"
    );

    let intact_path = tmp("chunked_intact.szck");
    std::fs::write(&intact_path, container.to_bytes()).unwrap();
    let ok = szr()
        .args(["verify", "--input", intact_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        ok.status.success(),
        "verify failed on intact container: {ok:?}"
    );
    assert!(String::from_utf8_lossy(&ok.stdout).contains("ok: chunked container"));

    // Reference decode of the intact container.
    let reference: Tensor<f32> = szr_parallel::decompress_chunked(&container, 2).unwrap();

    // Damage band 1's payload (past its header) and write the container out.
    let mid = container.chunks[1].len() - 9;
    container.chunks[1][mid] ^= 0xFF;
    let damaged_path = tmp("chunked_damaged.szck");
    std::fs::write(&damaged_path, container.to_bytes()).unwrap();

    let bad = szr()
        .args(["verify", "--input", damaged_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        bad.status.code(),
        Some(1),
        "verify must fail on damaged container"
    );
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("band 1"),
        "verify should name the damaged band: {bad:?}"
    );

    let out_path = tmp("chunked_salvage.out");
    let salv = szr()
        .args(["decompress", "--input", damaged_path.to_str().unwrap()])
        .args([
            "--output",
            out_path.to_str().unwrap(),
            "--salvage",
            "--fill",
            "nan",
        ])
        .output()
        .unwrap();
    assert_eq!(
        salv.status.code(),
        Some(1),
        "damaged salvage must exit 1: {salv:?}"
    );
    let stdout = String::from_utf8_lossy(&salv.stdout);
    assert!(
        stdout.contains("1 damaged"),
        "report should count one damaged band: {stdout}"
    );

    // Untouched bands must come back bit-identical to the intact decode;
    // the damaged band's rows must be the fill value.
    let recovered = std::fs::read(&out_path).unwrap();
    let floats: Vec<f32> = recovered
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    assert_eq!(floats.len(), reference.len());
    let report_line = stdout.lines().find(|l| l.contains("band 1")).unwrap_or("");
    assert!(
        !report_line.is_empty(),
        "report should list band 1: {stdout}"
    );
    let mut saw_fill = false;
    for (i, (&got, &want)) in floats.iter().zip(reference.as_slice()).enumerate() {
        if got.is_nan() {
            saw_fill = true;
        } else {
            assert!(
                got.to_bits() == want.to_bits(),
                "row value {i} differs from intact decode: {got} vs {want}"
            );
        }
    }
    assert!(saw_fill, "damaged band rows should carry the NaN fill");
}

/// `--threads` reaches the chunked salvage path: an unparseable value is
/// rejected there as everywhere else, and the recovered bytes and report do
/// not depend on the worker count.
#[test]
fn salvage_honours_threads() {
    let data = Tensor::from_fn([96, 40], |ix| {
        ((ix[0] as f32) * 0.05).sin() * 3.0 + ((ix[1] as f32) * 0.11).cos()
    });
    let config = Config::new(ErrorBound::Absolute(1e-3));
    let mut container = szr_parallel::compress_chunked(&data, &config, 6, 2).unwrap();
    let mid = container.chunks[2].len() - 9;
    container.chunks[2][mid] ^= 0xFF;
    let damaged = tmp("salvage_threads.szck");
    std::fs::write(&damaged, container.to_bytes()).unwrap();

    let salvage = |threads: &str, out: &PathBuf| {
        szr()
            .args(["decompress", "--input", damaged.to_str().unwrap()])
            .args(["--output", out.to_str().unwrap(), "--salvage"])
            .args(["--threads", threads])
            .output()
            .unwrap()
    };
    let bad = salvage("nope", &tmp("salvage_threads_nope.out"));
    assert_eq!(bad.status.code(), Some(1), "--threads nope: {bad:?}");
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("--threads has an unparseable value"),
        "the error should name the flag: {bad:?}"
    );
    assert!(bad.stdout.is_empty(), "no salvage may run: {bad:?}");

    let (one, three) = (tmp("salvage_threads_1.out"), tmp("salvage_threads_3.out"));
    let a = salvage("1", &one);
    let b = salvage("3", &three);
    assert_eq!(
        a.status.code(),
        Some(1),
        "damaged salvage must exit 1: {a:?}"
    );
    assert_eq!(
        b.status.code(),
        Some(1),
        "damaged salvage must exit 1: {b:?}"
    );
    assert_eq!(
        a.stdout, b.stdout,
        "the report must not depend on --threads"
    );
    assert_eq!(
        std::fs::read(&one).unwrap(),
        std::fs::read(&three).unwrap(),
        "the recovered bytes must not depend on --threads"
    );
}
