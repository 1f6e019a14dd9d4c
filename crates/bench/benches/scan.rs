//! Scan/quantize benches — the row-at-a-time predict→quantize engine
//! against the retained per-point oracle.
//!
//! Two layers of comparison on interior-dominated grids (512² and 64³):
//!
//! * `row_scan/*` — raw traversal cost: [`ScanKernel::scan_rows`] (rows
//!   walked in wavefront groups) vs the point visitor `ScanKernel::scan`,
//!   prediction only, with the point visitor run on both the
//!   dimension-specialised kernel (`point`) and the generic stencil walker
//!   (`generic`, [`ScanKernel::generic`]).
//! * `quantize/*` — the full first half of the pipeline:
//!   `CodecSession::quantize` (row path, batched hit test and code
//!   emission) vs `szr_core::oracle::quantize_slice_with_kernel_oracle`
//!   (point visitor).
//!
//! A regression that drops the row fast path back to per-point dispatch,
//! or de-specialises the kernel, shows up here as the variants converging.
//! No ledger workload runs the generic kernel, 3-D rows or two layers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use szr_core::oracle::quantize_slice_with_kernel_oracle;
use szr_core::{CodecSession, Config, ErrorBound, RowVisitor, ScanKernel};
use szr_tensor::{Shape, Tensor};

fn fields() -> [(&'static str, Vec<usize>); 2] {
    [
        ("2d_512x512", vec![512, 512]),
        ("3d_64x64x64", vec![64, 64, 64]),
    ]
}

fn wavy(dims: &[usize]) -> Tensor<f32> {
    Tensor::from_fn(dims, |ix| {
        let s: usize = ix.iter().sum();
        (s as f32 * 0.013).sin() * 40.0
    })
}

/// Prediction-consuming row visitor: the row-path equivalent of the `scan`
/// closure `|flat, pred| { acc ^= pred.to_bits(); values[flat] }`. The XOR
/// sink keeps every prediction observable without adding a serial
/// floating-point dependency of its own, so the bench measures traversal
/// cost, not accumulator latency.
struct PredSink<'a> {
    values: &'a [f32],
    acc: u64,
}

impl RowVisitor<f32> for PredSink<'_> {
    type Error = std::convert::Infallible;
    fn point(&mut self, flat: usize, pred: f64) -> f32 {
        self.acc ^= pred.to_bits();
        self.values[flat]
    }
}

fn bench_row_scan(c: &mut Criterion) {
    for (name, dims) in fields() {
        let shape = Shape::new(&dims);
        let data = wavy(&dims);
        let values = data.as_slice();
        let mut group = c.benchmark_group(format!("row_scan/{name}"));
        group.throughput(Throughput::Elements(shape.len() as u64));
        for layers in 1..=2usize {
            let mut kernel = ScanKernel::for_shape(layers, &shape);
            let mut buf = values.to_vec();
            group.bench_with_input(
                BenchmarkId::new(format!("n{layers}"), "rows"),
                &(),
                |b, ()| {
                    b.iter(|| {
                        let mut v = PredSink { values, acc: 0 };
                        match kernel.scan_rows(&shape, &mut buf, &mut v) {
                            Ok(()) => {}
                            Err(e) => match e {},
                        }
                        v.acc
                    })
                },
            );
            let mut generic = ScanKernel::generic(layers, shape.strides());
            for (variant, kernel) in [("point", &mut kernel), ("generic", &mut generic)] {
                group.bench_with_input(
                    BenchmarkId::new(format!("n{layers}"), variant),
                    &(),
                    |b, ()| {
                        b.iter(|| {
                            let mut acc = 0u64;
                            kernel.scan(&shape, &mut buf, |flat, pred| {
                                acc ^= pred.to_bits();
                                values[flat]
                            });
                            acc
                        })
                    },
                );
            }
        }
        group.finish();
    }
}

/// Read-only prediction sweep: `readonly_rows` (whole rows of predictions
/// materialized by the vectorized full-term pass — no carry tail at all)
/// vs the per-point `scan_readonly`. The traversal behind the hit-rate
/// estimator and the planner's sampling.
fn bench_readonly_scan(c: &mut Criterion) {
    for (name, dims) in fields() {
        let shape = Shape::new(&dims);
        let data = wavy(&dims);
        let values = data.as_slice();
        let mut group = c.benchmark_group(format!("readonly_scan/{name}"));
        group.throughput(Throughput::Elements(shape.len() as u64));
        for layers in 1..=2usize {
            let mut kernel = ScanKernel::for_shape(layers, &shape);
            group.bench_with_input(
                BenchmarkId::new(format!("n{layers}"), "rows"),
                &(),
                |b, ()| {
                    b.iter(|| {
                        let mut border = 0u64;
                        let mut interior = 0u64;
                        kernel.readonly_rows(
                            &shape,
                            values,
                            |_flat, pred| border ^= pred.to_bits(),
                            |_flat, preds| {
                                for p in preds {
                                    interior ^= p.to_bits();
                                }
                            },
                        );
                        border ^ interior
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("n{layers}"), "point"),
                &(),
                |b, ()| {
                    b.iter(|| {
                        let mut acc = 0u64;
                        kernel.scan_readonly(&shape, values, |_flat, pred| {
                            acc ^= pred.to_bits();
                        });
                        acc
                    })
                },
            );
        }
        group.finish();
    }
}

fn bench_quantize(c: &mut Criterion) {
    for (name, dims) in fields() {
        let shape = Shape::new(&dims);
        let data = wavy(&dims);
        let values = data.as_slice();
        let mut group = c.benchmark_group(format!("quantize/{name}"));
        group.throughput(Throughput::Elements(shape.len() as u64));
        for layers in 1..=2usize {
            let config = Config::new(ErrorBound::Relative(1e-4)).with_layers(layers);
            let mut kernel = ScanKernel::for_shape(layers, &shape);
            let mut session = CodecSession::new(config).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("n{layers}"), "rows"),
                &(),
                |b, ()| b.iter(|| session.quantize(values, &shape).unwrap().len()),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("n{layers}"), "oracle"),
                &(),
                |b, ()| {
                    b.iter(|| {
                        quantize_slice_with_kernel_oracle(values, &shape, &config, &mut kernel)
                            .unwrap()
                            .len()
                    })
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_row_scan, bench_readonly_scan, bench_quantize);
criterion_main!(benches);
