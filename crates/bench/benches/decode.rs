//! Decode-path bench — the fused streaming decoder against the staged
//! oracle.
//!
//! `decode/*` is end-to-end decompression on the paper dataset families: a
//! warm `CodecSession::decompress` (Huffman symbols pulled straight into
//! row reconstruction, no intermediate symbol vector) vs
//! `szr_core::oracle::decompress_staged` (the retained
//! decode-all-then-reconstruct oracle). A regression that drops the fused
//! path back to staging shows up here as the two variants converging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use szr_bench::codecs::absolute_bound;
use szr_core::oracle::decompress_staged;
use szr_core::{compress, CodecSession, Config, ErrorBound};
use szr_datagen::{dataset, DatasetKind, Scale};

fn bench_decode(c: &mut Criterion) {
    for kind in [DatasetKind::Atm, DatasetKind::Aps, DatasetKind::Hurricane] {
        let field = dataset(kind, Scale::Small, 7).remove(0);
        let data = field.data;
        let eb = absolute_bound(&data, 1e-4);
        let config = Config::new(ErrorBound::Absolute(eb));
        let packed = compress(&data, &config).unwrap();
        let name = kind.name().to_lowercase();

        let mut group = c.benchmark_group(format!("decode/{name}"));
        group.throughput(Throughput::Elements(data.len() as u64));
        let mut session = CodecSession::<f32>::new(config).unwrap();
        session.decompress(&packed).unwrap();
        group.bench_with_input(BenchmarkId::new("fused", "session"), &(), |b, ()| {
            b.iter(|| session.decompress(&packed).unwrap().len())
        });
        group.bench_with_input(BenchmarkId::new("staged", "oracle"), &(), |b, ()| {
            b.iter(|| decompress_staged::<f32>(&packed).unwrap().len())
        });
        group.finish();
    }
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
