//! End-to-end checks of the binary's observability surface: `szr inspect`
//! on every archive family (including corrupt input, which must name the
//! failing section), and `--telemetry` report emission on stdout.

use std::path::PathBuf;
use std::process::{Command, Output};

use szr_core::{compress, Config, ErrorBound, StreamCompressor};
use szr_parallel::compress_chunked;
use szr_tensor::Tensor;

fn field() -> Tensor<f32> {
    Tensor::from_fn([48, 64], |ix| {
        ((ix[0] as f32) * 0.07).sin() * 12.0 + ((ix[1] as f32) * 0.05).cos() * 3.0
    })
}

fn tmp_file(name: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("szr-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_szr"))
        .args(args)
        .output()
        .unwrap()
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "command failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn inspect_reports_band_sections() {
    let config = Config::new(ErrorBound::Absolute(1e-3));
    let archive = compress(&field(), &config).unwrap();
    let path = tmp_file("band.szr", &archive);
    let text = stdout_of(&run(&["inspect", "--input", path.to_str().unwrap()]));
    std::fs::remove_file(&path).ok();
    assert!(
        text.contains("band archive (v3, self-contained, checksummed)"),
        "{text}"
    );
    assert!(text.contains("huffman block"), "{text}");
    assert!(text.contains("escape stream"), "{text}");
    assert!(text.contains("compression"), "{text}");
}

#[test]
fn inspect_walks_chunked_and_stream_containers() {
    let data = field();
    let config = Config::new(ErrorBound::Absolute(1e-3));

    let chunked = compress_chunked(&data, &config, 5, 2).unwrap().to_bytes();
    let path = tmp_file("chunked.szck", &chunked);
    let text = stdout_of(&run(&["inspect", "--input", path.to_str().unwrap()]));
    std::fs::remove_file(&path).ok();
    assert!(text.contains("chunked container (SZCK)"), "{text}");
    assert!(text.contains("bands           : 5"), "{text}");
    assert!(text.contains("band 4"), "{text}");

    let mut stream = StreamCompressor::<f32>::new(&[64], 12, config).unwrap();
    stream.push(data.as_slice()).unwrap();
    let bytes = stream.finish_stream().unwrap();
    let path = tmp_file("stream.szst", &bytes);
    let text = stdout_of(&run(&["inspect", "--input", path.to_str().unwrap()]));
    std::fs::remove_file(&path).ok();
    assert!(text.contains("stream container (SZST)"), "{text}");
    assert!(text.contains("inner dims      : 64"), "{text}");
    assert!(text.contains("band 0"), "{text}");
}

#[test]
fn inspect_names_the_failing_section_on_corrupt_input() {
    let config = Config::new(ErrorBound::Absolute(1e-3));
    let archive = compress(&field(), &config).unwrap();

    // Truncated mid-payload: the error must say which section died.
    let path = tmp_file("trunc.szr", &archive[..40]);
    let out = run(&["inspect", "--input", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("payload:") || err.contains("table:"),
        "unnamed section in: {err}"
    );

    // Truncated inside the header.
    let path = tmp_file("header.szr", &archive[..6]);
    let out = run(&["inspect", "--input", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("header:"), "unnamed section in: {err}");
}

#[test]
fn compress_telemetry_json_lands_on_stdout() {
    let data = field();
    let mut raw = Vec::with_capacity(data.len() * 4);
    for &v in data.as_slice() {
        raw.extend_from_slice(&v.to_le_bytes());
    }
    let input = tmp_file("raw.bin", &raw);
    let output = std::env::temp_dir().join(format!("szr-cli-test-{}-out.szr", std::process::id()));
    let text = stdout_of(&run(&[
        "compress",
        "--input",
        input.to_str().unwrap(),
        "--dims",
        "48x64",
        "--abs",
        "1e-3",
        "--output",
        output.to_str().unwrap(),
        "--telemetry=json",
    ]));
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();
    let json = text.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    for key in ["\"hit_rate\"", "\"spans\"", "\"bands\""] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
