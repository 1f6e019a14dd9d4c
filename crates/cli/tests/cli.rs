//! End-to-end tests of the `szr` binary (gen → compress → inspect →
//! decompress → verify).

use std::path::PathBuf;
use std::process::Command;

fn szr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_szr"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("szr_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn full_pipeline_respects_bound() {
    let raw = tmp("pipe.bin");
    let packed = tmp("pipe.szr");
    let restored = tmp("pipe_out.bin");

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
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );

    let comp = szr()
        .args(["compress", "--input", raw.to_str().unwrap()])
        .args(["--dims", "90x180", "--rel", "1e-4"])
        .args(["--output", packed.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        comp.status.success(),
        "{}",
        String::from_utf8_lossy(&comp.stderr)
    );

    let dec = szr()
        .args(["decompress", "--input", packed.to_str().unwrap()])
        .args(["--output", restored.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        dec.status.success(),
        "{}",
        String::from_utf8_lossy(&dec.stderr)
    );

    // Verify the bound directly on the file bytes.
    let orig = std::fs::read(&raw).unwrap();
    let back = std::fs::read(&restored).unwrap();
    assert_eq!(orig.len(), back.len());
    let floats = |b: &[u8]| -> Vec<f32> {
        b.chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    };
    let a = floats(&orig);
    let b = floats(&back);
    let range = a.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
        - a.iter().cloned().fold(f32::INFINITY, f32::min);
    let eb = 1e-4 * range as f64;
    for (x, y) in a.iter().zip(&b) {
        assert!((*x as f64 - *y as f64).abs() <= eb);
    }
}

#[test]
fn inspect_reports_header_fields() {
    let raw = tmp("ins.bin");
    let packed = tmp("ins.szr");
    szr()
        .args(["gen", "--dataset", "hurricane", "--scale", "small"])
        .args(["--output", raw.to_str().unwrap()])
        .status()
        .unwrap();
    szr()
        .args(["compress", "--input", raw.to_str().unwrap()])
        .args(["--dims", "10x50x50", "--abs", "0.5", "--layers", "2"])
        .args(["--output", packed.to_str().unwrap()])
        .status()
        .unwrap();
    let out = szr()
        .args(["inspect", "--input", packed.to_str().unwrap()])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("10x50x50"), "{text}");
    assert!(text.contains("layers          : 2"), "{text}");
    assert!(text.contains("f32"), "{text}");
}

#[test]
fn eval_reports_bound_respected() {
    let raw = tmp("eval.bin");
    szr()
        .args(["gen", "--dataset", "aps", "--scale", "small"])
        .args(["--output", raw.to_str().unwrap()])
        .status()
        .unwrap();
    let out = szr()
        .args(["eval", "--input", raw.to_str().unwrap()])
        .args(["--dims", "128x128", "--rel", "1e-3"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bound respected : yes"), "{text}");
}

#[test]
fn wrong_dims_fail_cleanly() {
    let raw = tmp("bad.bin");
    std::fs::write(&raw, vec![0u8; 100]).unwrap();
    let out = szr()
        .args(["compress", "--input", raw.to_str().unwrap()])
        .args(["--dims", "90x180", "--rel", "1e-4", "--output", "/dev/null"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("bytes"), "{text}");
}

#[test]
fn raw_length_must_match_the_dims() {
    // One element short and one element long, for both element sizes: the
    // length check runs before any value is read.
    for (dtype, elem) in [("f32", 4usize), ("f64", 8)] {
        let needs = 300 * 250 * elem;
        for len in [needs - elem, needs + elem] {
            let raw = tmp(&format!("len_{dtype}_{len}.bin"));
            std::fs::write(&raw, vec![0u8; len]).unwrap();
            let out = szr()
                .args(["compress", "--input", raw.to_str().unwrap()])
                .args(["--dims", "300x250", "--dtype", dtype, "--rel", "1e-4"])
                .args(["--output", "/dev/null"])
                .output()
                .unwrap();
            assert!(!out.status.success(), "{dtype}, {len} bytes");
            let text = String::from_utf8_lossy(&out.stderr);
            assert!(
                text.contains(&format!(
                    "{len} bytes but [300, 250] x {dtype} needs {needs}"
                )),
                "{text}"
            );
        }
    }
}

#[test]
fn raw_io_roundtrips_across_buffer_boundaries() {
    // 300×250 f64 values (600 000 bytes, not a multiple of the 64 KiB IO
    // buffer) through compress and decompress: every value comes back, in
    // order and within the bound.
    let raw = tmp("chunks.bin");
    let packed = tmp("chunks.szr");
    let restored = tmp("chunks_out.bin");
    let values: Vec<f64> = (0..300 * 250)
        .map(|f| (f as f64 * 0.013).sin() * 40.0)
        .collect();
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(&raw, bytes).unwrap();
    let runs = [
        szr()
            .args(["compress", "--input", raw.to_str().unwrap()])
            .args(["--dims", "300x250", "--dtype", "f64", "--abs", "1e-6"])
            .args(["--output", packed.to_str().unwrap()])
            .output(),
        szr()
            .args(["decompress", "--input", packed.to_str().unwrap()])
            .args(["--output", restored.to_str().unwrap()])
            .output(),
    ];
    for out in runs {
        let out = out.unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let back: Vec<f64> = std::fs::read(&restored)
        .unwrap()
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(back.len(), values.len());
    for (x, y) in values.iter().zip(&back) {
        assert!((x - y).abs() <= 1e-6, "{x} vs {y}");
    }
}

#[test]
fn missing_args_print_usage() {
    let out = szr().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn plan_recommends_and_auto_compress_honors_it() {
    let raw = tmp("plan.bin");
    szr()
        .args(["gen", "--dataset", "atm", "--scale", "small"])
        .args(["--seed", "3", "--output", raw.to_str().unwrap()])
        .status()
        .unwrap();

    // Target-ratio plan: parseable report, chosen candidate first.
    let report_path = tmp("plan.report");
    let out = szr()
        .args(["plan", "--input", raw.to_str().unwrap()])
        .args(["--dims", "90x180", "--target-ratio", "10"])
        .args(["--report", report_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("szr-plan v1"), "{text}");
    assert!(text.contains("candidate="), "{text}");
    assert_eq!(std::fs::read_to_string(&report_path).unwrap(), text);

    // Auto compress against the same goal: output must reach ~the target.
    let packed = tmp("plan_auto.szr");
    let comp = szr()
        .args(["compress", "--input", raw.to_str().unwrap()])
        .args(["--dims", "90x180", "--auto", "--target-ratio", "10"])
        .args(["--output", packed.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        comp.status.success(),
        "{}",
        String::from_utf8_lossy(&comp.stderr)
    );
    let raw_bytes = std::fs::metadata(&raw).unwrap().len() as f64;
    let packed_bytes = std::fs::metadata(&packed).unwrap().len() as f64;
    assert!(
        raw_bytes / packed_bytes >= 10.0 * 0.85,
        "achieved only {:.2}x",
        raw_bytes / packed_bytes
    );
}

#[test]
fn unreachable_plan_targets_report_infeasible() {
    let raw = tmp("plan_inf.bin");
    szr()
        .args(["gen", "--dataset", "aps", "--scale", "small"])
        .args(["--output", raw.to_str().unwrap()])
        .status()
        .unwrap();
    let report = tmp("plan_inf.report");
    // Pre-seed the report file: an infeasible run must overwrite it, not
    // leave a stale feasible plan behind for scripted sweeps to misread.
    std::fs::write(&report, "szr-plan v1\nstale\n").unwrap();
    let out = szr()
        .args(["plan", "--input", raw.to_str().unwrap()])
        .args(["--dims", "128x128", "--target-ratio", "100000"])
        .args(["--codecs", "sz14,fpzip"])
        .args(["--report", report.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("infeasible:"), "{text}");
    assert_eq!(std::fs::read_to_string(&report).unwrap(), text);

    // Conflicting goals are rejected, not silently resolved by precedence.
    let out = szr()
        .args(["plan", "--input", raw.to_str().unwrap()])
        .args(["--dims", "128x128", "--target-ratio", "10", "--rel", "1e-6"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("exactly one"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn pointwise_rel_mode_works_end_to_end() {
    let raw = tmp("pw.bin");
    let packed = tmp("pw.szr");
    // Exponentially spanning data: pointwise mode's home turf.
    let values: Vec<u8> = (0..10_000u32)
        .flat_map(|i| (10.0f32.powf(i as f32 / 1000.0)).to_le_bytes())
        .collect();
    std::fs::write(&raw, values).unwrap();
    let comp = szr()
        .args(["compress", "--input", raw.to_str().unwrap()])
        .args(["--dims", "10000", "--pointwise-rel", "1e-3"])
        .args(["--output", packed.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        comp.status.success(),
        "{}",
        String::from_utf8_lossy(&comp.stderr)
    );
    assert!(std::fs::metadata(&packed).unwrap().len() < 10_000);
}

#[test]
fn relative_bound_over_infinities_compresses() {
    // A 64×64 f32 field with every 211th value +Inf: the relative bound
    // must resolve against the finite values' range instead of panicking.
    let raw = tmp("inf.bin");
    let packed = tmp("inf.szr");
    let restored = tmp("inf_out.bin");
    let values: Vec<f32> = (0..64 * 64)
        .map(|f| {
            if f % 211 == 0 {
                f32::INFINITY
            } else {
                (f as f32 * 0.05).sin() * 30.0
            }
        })
        .collect();
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(&raw, bytes).unwrap();
    let comp = szr()
        .args(["compress", "--input", raw.to_str().unwrap()])
        .args(["--dims", "64x64", "--rel", "1e-4"])
        .args(["--output", packed.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        comp.status.success(),
        "{}",
        String::from_utf8_lossy(&comp.stderr)
    );
    let dec = szr()
        .args(["decompress", "--input", packed.to_str().unwrap()])
        .args(["--output", restored.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        dec.status.success(),
        "{}",
        String::from_utf8_lossy(&dec.stderr)
    );
    let back: Vec<f32> = std::fs::read(&restored)
        .unwrap()
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let finite = values.iter().filter(|v| v.is_finite());
    let range = finite.clone().cloned().fold(f32::NEG_INFINITY, f32::max)
        - finite.cloned().fold(f32::INFINITY, f32::min);
    let eb = 1e-4 * range as f64;
    assert_eq!(back.len(), values.len());
    for (x, y) in values.iter().zip(&back) {
        if x.is_finite() {
            assert!((*x as f64 - *y as f64).abs() <= eb);
        } else {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// `compress --auto` over a field holding ±Inf: the planner prices the
/// finite values' range, so a target ratio plans (instead of panicking on
/// an infinite error-bound ladder) and a relative bound resolves (instead
/// of to an infinite eb). Each archive decodes within the bound it was
/// planned at and keeps the infinities.
#[test]
fn auto_plans_over_infinities() {
    let raw = tmp("auto_inf.bin");
    let values: Vec<f32> = (0..64 * 64)
        .map(|f| {
            if f % 422 == 211 {
                f32::NEG_INFINITY
            } else if f % 211 == 0 {
                f32::INFINITY
            } else {
                (f as f32 * 0.05).sin() * 30.0 + (f / 64) as f32
            }
        })
        .collect();
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(&raw, bytes).unwrap();
    for (name, goal) in [
        ("ratio", ["--target-ratio", "8"]),
        ("rel", ["--rel", "1e-4"]),
    ] {
        let packed = tmp(&format!("auto_inf_{name}.szr"));
        let restored = tmp(&format!("auto_inf_{name}_out.bin"));
        let comp = szr()
            .args(["compress", "--input", raw.to_str().unwrap()])
            .args(["--dims", "64x64", "--auto"])
            .args(goal)
            .args(["--output", packed.to_str().unwrap()])
            .output()
            .unwrap();
        let log = String::from_utf8_lossy(&comp.stderr);
        assert!(comp.status.success(), "{name}: {log}");
        // "auto: layers L / 2^M - 1 intervals at eb E (...)"
        let eb: f64 = log
            .split("at eb ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|e| e.parse().ok())
            .unwrap_or_else(|| panic!("{name}: no planned eb in {log}"));
        assert!(eb.is_finite() && eb > 0.0, "{name}: eb {eb}");
        if name == "rel" {
            let finite = values.iter().filter(|v| v.is_finite());
            let range = finite.clone().cloned().fold(f32::NEG_INFINITY, f32::max)
                - finite.cloned().fold(f32::INFINITY, f32::min);
            assert!(
                eb <= 1e-4 * range as f64,
                "{name}: eb {eb} looser than --rel"
            );
        }
        let dec = szr()
            .args(["decompress", "--input", packed.to_str().unwrap()])
            .args(["--output", restored.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            dec.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&dec.stderr)
        );
        let back: Vec<f32> = std::fs::read(&restored)
            .unwrap()
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(back.len(), values.len());
        for (x, y) in values.iter().zip(&back) {
            if x.is_finite() {
                let err = (*x as f64 - *y as f64).abs();
                assert!(err <= eb, "{name}: error {err} > {eb}");
            } else {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}: infinity lost");
            }
        }
    }
}

/// `szr decompress` reads a stream container (SZST): a 4-band
/// `StreamCompressor` archive round-trips to the same bytes
/// `StreamDecompressor::collect_all` decodes.
#[test]
fn decompress_reads_stream_archives() {
    use szr_core::{Config, ErrorBound, StreamCompressor, StreamDecompressor};
    let data: Vec<f32> = (0..64 * 48)
        .map(|i| ((i / 48) as f32 * 0.09).sin() * 4.0 + ((i % 48) as f32 * 0.13).cos())
        .collect();
    let config = Config::new(ErrorBound::Absolute(1e-3));
    let mut stream = StreamCompressor::<f32>::new(&[48], 16, config).unwrap();
    stream.push(&data).unwrap();
    let bytes = stream.finish().unwrap();
    let decoder = StreamDecompressor::<f32>::new(&bytes).unwrap();
    assert_eq!(decoder.remaining_bands(), 4);
    let want = decoder.collect_all().unwrap();

    let packed = tmp("stream.szst");
    let restored = tmp("stream_out.bin");
    std::fs::write(&packed, &bytes).unwrap();
    let dec = szr()
        .args(["decompress", "--input", packed.to_str().unwrap()])
        .args(["--output", restored.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        dec.status.success(),
        "{}",
        String::from_utf8_lossy(&dec.stderr)
    );
    let got = std::fs::read(&restored).unwrap();
    let want: Vec<u8> = want
        .as_slice()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    assert_eq!(got, want);
}

/// Runs `cmd`, failing the test with its stderr when it fails.
fn run_ok(cmd: &mut Command) {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A 40×24×20 f32 field written raw to `name`, compressed to `name.szr`
/// (as 8 bands of 5 rows with `chunks`); returns (raw path, archive path).
fn packed_field(name: &str, chunks: Option<&str>) -> (PathBuf, PathBuf) {
    let raw = tmp(&format!("{name}.bin"));
    let packed = tmp(&format!("{name}.szr"));
    let values: Vec<u8> = (0..40 * 24 * 20)
        .flat_map(|i| {
            let (z, y, x) = (i / 480, (i / 20) % 24, i % 20);
            let v = (z as f32 * 0.17).sin() * 5.0 + (y as f32 * 0.11).cos() + x as f32 * 0.03;
            v.to_le_bytes()
        })
        .collect();
    std::fs::write(&raw, values).unwrap();
    let mut compress = szr();
    compress
        .args(["compress", "--input", raw.to_str().unwrap()])
        .args(["--dims", "40x24x20", "--abs", "1e-3"])
        .args(["--output", packed.to_str().unwrap()]);
    if let Some(chunks) = chunks {
        compress.args(["--chunks", chunks]);
    }
    run_ok(&mut compress);
    (raw, packed)
}

/// `szr decompress` of `packed` onto a fresh path: the reference bytes.
fn decoded(packed: &std::path::Path, name: &str) -> Vec<u8> {
    let out = tmp(name);
    let _ = std::fs::remove_file(&out);
    run_ok(
        szr()
            .args(["decompress", "--input", packed.to_str().unwrap()])
            .args(["--output", out.to_str().unwrap()]),
    );
    std::fs::read(&out).unwrap()
}

/// Region reads through the band index match the same bytes of the full
/// decode — band-aligned, cutting two bands, and the whole extent — and an
/// out-of-range region fails without creating its output.
#[test]
fn extract_matches_the_full_decode() {
    let (_, packed) = packed_field("extract", Some("8"));
    let full = decoded(&packed, "extract_full.bin");
    let row_bytes = 24 * 20 * 4;
    assert_eq!(full.len(), 40 * row_bytes);
    let roi = tmp("extract_roi.bin");
    for (a, b) in [(10usize, 20usize), (7, 13), (0, 40)] {
        let _ = std::fs::remove_file(&roi);
        run_ok(
            szr()
                .args(["extract", "--input", packed.to_str().unwrap()])
                .args(["--region", &format!("{a}:{b}")])
                .args(["--output", roi.to_str().unwrap(), "--threads", "3"]),
        );
        let got = std::fs::read(&roi).unwrap();
        assert_eq!(got, &full[a * row_bytes..b * row_bytes], "rows {a}..{b}");
    }
    let missing = tmp("extract_out_of_range.bin");
    let _ = std::fs::remove_file(&missing);
    let out = szr()
        .args(["extract", "--input", packed.to_str().unwrap()])
        .args(["--region", "30:41", "--output", missing.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(!missing.exists(), "a failed extract left its output");
}

/// Every decode over an existing, longer output leaves exactly the decoded
/// bytes: chunked, single-band and stream archives, and region reads.
#[test]
fn outputs_are_rewritten_in_place_over_longer_files() {
    use szr_core::{Config, ErrorBound, StreamCompressor};
    let (_, chunked) = packed_field("inplace_chunked", Some("8"));
    let (_, single) = packed_field("inplace_single", None);
    let stream = tmp("inplace_stream.szst");
    let mut compressor =
        StreamCompressor::<f32>::new(&[48], 16, Config::new(ErrorBound::Absolute(1e-3))).unwrap();
    let values: Vec<f32> = (0..64 * 48).map(|i| (i as f32 * 0.01).sin()).collect();
    compressor.push(&values).unwrap();
    std::fs::write(&stream, compressor.finish().unwrap()).unwrap();

    let stale = vec![0xA5u8; 1 << 20];
    let out = tmp("inplace_out.bin");
    for (packed, name) in [
        (&chunked, "inplace_ref_chunked.bin"),
        (&single, "inplace_ref_single.bin"),
        (&stream, "inplace_ref_stream.bin"),
    ] {
        let want = decoded(packed, name);
        std::fs::write(&out, &stale).unwrap();
        run_ok(
            szr()
                .args(["decompress", "--input", packed.to_str().unwrap()])
                .args(["--output", out.to_str().unwrap()]),
        );
        assert_eq!(std::fs::read(&out).unwrap(), want, "{name}");
    }
    let full = decoded(&chunked, "inplace_ref_extract.bin");
    let row_bytes = 24 * 20 * 4;
    std::fs::write(&out, &stale).unwrap();
    run_ok(
        szr()
            .args(["extract", "--input", chunked.to_str().unwrap()])
            .args(["--region", "3:17", "--output", out.to_str().unwrap()]),
    );
    assert_eq!(
        std::fs::read(&out).unwrap(),
        &full[3 * row_bytes..17 * row_bytes]
    );
}

/// A chunked archive whose band headers check out but whose band payload
/// does not decode fails, and leaves no output: neither a new file nor the
/// file it was about to overwrite.
#[test]
fn failed_chunked_decode_leaves_no_output() {
    let (_, packed) = packed_field("corrupt_chunked", Some("8"));
    let bytes = std::fs::read(&packed).unwrap();
    let mut archive = szr_parallel::ChunkedArchive::from_bytes(&bytes).unwrap();
    let band = &mut archive.chunks[5];
    band.truncate(band.len() / 2);
    let corrupt = tmp("corrupt_chunked_cut.szr");
    std::fs::write(&corrupt, archive.to_bytes()).unwrap();
    let out = tmp("corrupt_chunked_out.bin");
    for existing in [false, true] {
        let _ = std::fs::remove_file(&out);
        if existing {
            std::fs::write(&out, [1u8; 4096]).unwrap();
        }
        let run = szr()
            .args(["decompress", "--input", corrupt.to_str().unwrap()])
            .args(["--output", out.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(!run.status.success(), "existing output: {existing}");
        let text = String::from_utf8_lossy(&run.stderr);
        assert!(text.contains("corrupt archive"), "{text}");
        assert!(!out.exists(), "existing output: {existing}");
    }
}

/// `--output /dev/null` is a device, not a file to size or remove: chunked
/// and single-band decodes and region reads write to it and succeed.
#[cfg(unix)]
#[test]
fn decompress_to_dev_null_succeeds() {
    let (_, chunked) = packed_field("devnull_chunked", Some("8"));
    let (_, single) = packed_field("devnull_single", None);
    for packed in [&chunked, &single] {
        run_ok(
            szr()
                .args(["decompress", "--input", packed.to_str().unwrap()])
                .args(["--output", "/dev/null"]),
        );
    }
    run_ok(
        szr()
            .args(["extract", "--input", chunked.to_str().unwrap()])
            .args(["--region", "2:9", "--output", "/dev/null"]),
    );
    assert!(std::path::Path::new("/dev/null").exists());
}
