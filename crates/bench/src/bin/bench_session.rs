//! Session-engine throughput recorder: fresh-vs-reused `CodecSession`,
//! staged-vs-fused encode, and the shared-table chunked + streaming
//! scenarios on the datagen fields, writing `BENCH_session.json` — the
//! perf-trajectory point for the session refactor (sibling: `bench_entropy`
//! / `BENCH_entropy.json`).
//!
//! ```text
//! cargo run --release -p szr-bench --bin bench_session [-- --out DIR]
//! ```
//!
//! The JSON holds MB/s for: session compress fresh vs reused vs fused on a
//! synthetic 512² grid, `codec_throughput/sz14_compress`-style numbers for
//! the chunked shared (staged) vs fused paths and the stream default vs
//! table-reuse mode on the three paper dataset families at `eb_rel = 1e-4`,
//! plus the decode direction: warm-session fused streaming decompression vs
//! the staged oracle, with the fused-over-staged speedup.

use std::time::Instant;
use szr_bench::codecs::absolute_bound;
use szr_core::oracle::decompress_staged;
use szr_core::{compress, CodecSession, Config, ErrorBound, StreamCompressor};
use szr_datagen::{dataset, DatasetKind, Scale};
use szr_parallel::{BandExecutor, Strategy};
use szr_tensor::Tensor;

/// Median-of-`reps` wall-clock seconds for one invocation of `f`.
fn time_median<F: FnMut() -> u64>(reps: usize, mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    let mut sink = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        sink ^= f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(sink);
    samples.sort_by(f64::total_cmp);
    samples[reps / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = ".".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("usage: bench_session [--out DIR]");
                    std::process::exit(2);
                });
            }
            _ => {
                eprintln!("usage: bench_session [--out DIR]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let reps = 7;
    let mut fields = Vec::new();

    // Fresh vs reused vs fused sessions on an interior-dominated grid.
    {
        let data = Tensor::from_fn([512usize, 512], |ix| {
            let s: usize = ix.iter().sum();
            (s as f32 * 0.013).sin() * 40.0
        });
        let mb = (data.len() * 4) as f64 / 1e6;
        let config = Config::new(ErrorBound::Relative(1e-4));
        let t_fresh = time_median(reps, || {
            let mut session = CodecSession::<f32>::new(config).unwrap();
            session.compress(&data).unwrap().len() as u64
        });
        let mut reused = CodecSession::<f32>::new(config).unwrap();
        reused.compress(&data).unwrap();
        let t_reused = time_median(reps, || reused.compress(&data).unwrap().len() as u64);
        let mut fused = CodecSession::<f32>::new(config).unwrap();
        fused.set_table_reuse(true);
        fused.compress(&data).unwrap();
        let t_fused = time_median(reps, || fused.compress(&data).unwrap().len() as u64);
        fields.push(("session_fresh_2d_mb_s".to_string(), mb / t_fresh));
        fields.push(("session_reused_2d_mb_s".to_string(), mb / t_reused));
        fields.push(("session_fused_2d_mb_s".to_string(), mb / t_fused));
        fields.push(("session_fused_speedup_2d".to_string(), t_reused / t_fused));
    }

    // The two fused acceptance scenarios on the paper dataset families:
    // shared-table chunked (staged vs fused) and streaming (default vs
    // table-reuse).
    for kind in [DatasetKind::Atm, DatasetKind::Aps, DatasetKind::Hurricane] {
        let field = dataset(kind, Scale::Small, 7).remove(0);
        let data = field.data;
        let mb = (data.len() * 4) as f64 / 1e6;
        let eb = absolute_bound(&data, 1e-4);
        let config = Config::new(ErrorBound::Absolute(eb));
        let name = kind.name().to_lowercase();

        let chunks = 16usize;
        let t_shared = time_median(reps, || {
            BandExecutor::new(1)
                .compress(&data, &config, chunks, Strategy::Shared)
                .unwrap()
                .compressed_bytes() as u64
        });
        let t_chunk_fused = time_median(reps, || {
            BandExecutor::new(1)
                .compress(&data, &config, chunks, Strategy::Fused)
                .unwrap()
                .compressed_bytes() as u64
        });
        fields.push((format!("chunked_shared_{name}_mb_s"), mb / t_shared));
        fields.push((format!("chunked_fused_{name}_mb_s"), mb / t_chunk_fused));
        fields.push((
            format!("chunked_fused_speedup_{name}"),
            t_shared / t_chunk_fused,
        ));

        let dims = data.dims().to_vec();
        let inner = &dims[1..];
        let band_rows = (dims[0] / 16).max(1);
        let mut staged = StreamCompressor::<f32>::new(inner, band_rows, config).unwrap();
        let t_stream = time_median(reps, || {
            staged.push(data.as_slice()).unwrap();
            staged.finish_stream().unwrap().len() as u64
        });
        let mut fused = StreamCompressor::<f32>::new(inner, band_rows, config)
            .unwrap()
            .with_table_reuse();
        let t_stream_fused = time_median(reps, || {
            fused.push(data.as_slice()).unwrap();
            fused.finish_stream().unwrap().len() as u64
        });
        fields.push((format!("stream_staged_{name}_mb_s"), mb / t_stream));
        fields.push((format!("stream_fused_{name}_mb_s"), mb / t_stream_fused));
        fields.push((
            format!("stream_fused_speedup_{name}"),
            t_stream / t_stream_fused,
        ));

        // Decode direction: warm-session fused streaming decode (symbols
        // pulled straight into row reconstruction) vs the staged oracle.
        let packed = compress(&data, &config).unwrap();
        let mut decoder = CodecSession::<f32>::new(config).unwrap();
        decoder.decompress(&packed).unwrap();
        let t_dec_fused = time_median(reps, || decoder.decompress(&packed).unwrap().len() as u64);
        let t_dec_staged = time_median(reps, || {
            decompress_staged::<f32>(&packed).unwrap().len() as u64
        });
        fields.push((format!("decode_fused_{name}_mb_s"), mb / t_dec_fused));
        fields.push((format!("decode_staged_{name}_mb_s"), mb / t_dec_staged));
        fields.push((
            format!("decode_fused_speedup_{name}"),
            t_dec_staged / t_dec_fused,
        ));
    }

    let mut json = String::from("{\n");
    for (i, (k, v)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        json.push_str(&format!("  \"{k}\": {v:.2}{comma}\n"));
    }
    json.push_str("}\n");

    let path = std::path::Path::new(&out_dir).join("BENCH_session.json");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&path, &json).expect("write BENCH_session.json");
    print!("{json}");
    eprintln!("wrote {}", path.display());
}
