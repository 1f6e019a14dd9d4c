//! Session bench — the fused table-reuse encode against the staged one.
//!
//! `session_fused/*` on an interior-dominated 512² grid: staged per-band
//! encode vs the fused table-reuse path (`codes` stream straight into the
//! Huffman bit writer, no intermediate `Vec<u32>`). No ledger workload runs
//! table reuse, so a regression that de-fuses the encode shows up only here,
//! as the two variants converging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use szr_core::{CodecSession, Config, ErrorBound};
use szr_tensor::Tensor;

fn wavy(dims: &[usize]) -> Tensor<f32> {
    Tensor::from_fn(dims, |ix| {
        let s: usize = ix.iter().sum();
        (s as f32 * 0.013).sin() * 40.0
    })
}

fn bench_fused_encode(c: &mut Criterion) {
    let data = wavy(&[512, 512]);
    let config = Config::new(ErrorBound::Relative(1e-4));
    let mut group = c.benchmark_group("session_fused/2d_512x512");
    group.throughput(Throughput::Bytes((data.len() * 4) as u64));
    let mut staged = CodecSession::<f32>::new(config).unwrap();
    staged.compress(&data).unwrap();
    group.bench_with_input(BenchmarkId::new("staged", "encode"), &(), |b, ()| {
        b.iter(|| staged.compress(&data).unwrap().len())
    });
    let mut fused = CodecSession::<f32>::new(config).unwrap();
    fused.set_table_reuse(true);
    fused.compress(&data).unwrap(); // staged seed; later calls fuse
    group.bench_with_input(BenchmarkId::new("fused", "encode"), &(), |b, ()| {
        b.iter(|| fused.compress(&data).unwrap().len())
    });
    group.finish();
}

criterion_group!(benches, bench_fused_encode);
criterion_main!(benches);
