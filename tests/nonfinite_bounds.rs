//! A relative bound over a field holding infinities resolves against the
//! finite values' range: every compress entry point returns an archive
//! whose decode meets the bound on the finite values and reproduces the
//! infinities bit for bit (the CLI's `--rel` is covered in the CLI tests).
//! A pointwise-relative bound over values at the edge of the type's range
//! decodes them finite and within bound.

use std::sync::Arc;

use szr::parallel::{compress_chunked, decompress_chunked, BandExecutor, Strategy};
use szr::server::{ArchiveService, Backpressure, ServiceConfig};
use szr::{
    compress, compress_pointwise_rel, decompress, decompress_pointwise_rel, CodecSession, Config,
    DecodePolicy, ErrorBound, ScalarFloat, Tensor,
};

const REL: f64 = 1e-4;

/// 64×64 f32, every 211th value `+Inf` (every 422nd `−Inf` instead).
fn field_with_infinities() -> Tensor<f32> {
    Tensor::from_fn([64, 64], |ix| {
        let f = ix[0] * 64 + ix[1];
        if f % 422 == 211 {
            f32::NEG_INFINITY
        } else if f % 211 == 0 {
            f32::INFINITY
        } else {
            ((f as f32) * 0.05).sin() * 30.0 + ix[0] as f32
        }
    })
}

fn finite_range(data: &[f32]) -> f64 {
    let finite = data.iter().filter(|v| v.is_finite()).map(|&v| v as f64);
    let (lo, hi) = finite.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    });
    hi - lo
}

fn assert_decodes(what: &str, data: &Tensor<f32>, out: &Tensor<f32>) {
    let eb = REL * finite_range(data.as_slice());
    assert_eq!(out.dims(), data.dims(), "{what}");
    for (f, (&x, &y)) in data.as_slice().iter().zip(out.as_slice()).enumerate() {
        if x.is_finite() {
            let err = (x as f64 - y as f64).abs();
            assert!(err <= eb, "{what}: error {err} > {eb} at {f}");
        } else {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: infinity lost at {f}");
        }
    }
}

#[test]
fn relative_bound_with_infinities_compresses_on_every_entry_point() {
    let data = field_with_infinities();
    let config = Config::new(ErrorBound::Relative(REL));

    let bytes = compress(&data, &config).unwrap();
    assert_decodes("free function", &data, &decompress(&bytes).unwrap());

    let mut session = CodecSession::<f32>::new(config).unwrap();
    let bytes = session.compress(&data).unwrap();
    assert_decodes("session", &data, &session.decompress(&bytes).unwrap());

    let archive = compress_chunked(&data, &config, 4, 2).unwrap();
    assert_decodes("chunked", &data, &decompress_chunked(&archive, 2).unwrap());

    for strategy in [
        Strategy::Independent,
        Strategy::Shared,
        Strategy::Fused,
        Strategy::Planned,
    ] {
        let executor = BandExecutor::new(2);
        let archive = executor.compress(&data, &config, 4, strategy).unwrap();
        let out = executor.decompress(&archive, DecodePolicy::Strict).unwrap();
        assert_decodes(&format!("{strategy:?}"), &data, &out);
    }

    let svc = ArchiveService::<f32>::new(ServiceConfig {
        workers: 2,
        queue_jobs: 2,
        backpressure: Backpressure::Block,
        session_config: config,
    })
    .unwrap();
    let bytes = svc
        .submit_compress(Arc::new(data.clone()), config, 4, None)
        .unwrap()
        .wait()
        .unwrap();
    let out = svc
        .submit_decompress(Arc::new(bytes), DecodePolicy::Strict, None)
        .unwrap()
        .wait()
        .unwrap();
    assert_decodes("service", &data, &out);
}

/// 64×64 alternating `T::MAX` / `T::MIN`, one value at `T::MAX / (1 + eb/2)`,
/// through the pointwise-relative codec at `eb = 1e-4`: the log-domain
/// reconstruction of such values must not overflow to ±inf.
fn near_max_pointwise_rel_decodes_in_bound<T: ScalarFloat>() {
    let eb = 1e-4;
    let near_max = T::from_f64(T::MAX / (1.0 + eb / 2.0));
    let data = Tensor::from_fn([64, 64], |ix| {
        let f = ix[0] * 64 + ix[1];
        if f == 2080 {
            near_max
        } else if f % 2 == 0 {
            T::from_f64(T::MAX)
        } else {
            T::from_f64(-T::MAX)
        }
    });
    let config = Config::new(ErrorBound::Relative(eb));
    let bytes = compress_pointwise_rel(&data, eb, &config).unwrap();
    let out: Tensor<T> = decompress_pointwise_rel(&bytes).unwrap();
    for (i, (&a, &b)) in data.as_slice().iter().zip(out.as_slice()).enumerate() {
        let (a, b) = (a.to_f64(), b.to_f64());
        assert!(
            b.is_finite(),
            "{}: value {i} ({a:e}) decoded to {b}",
            T::NAME
        );
        assert!(
            (a - b).abs() <= eb * a.abs(),
            "{}: value {i} ({a:e}) decoded to {b:e}, outside eb·|x|",
            T::NAME
        );
    }
}

#[test]
fn pointwise_rel_decodes_near_max_values_finite_and_in_bound() {
    near_max_pointwise_rel_decodes_in_bound::<f32>();
    near_max_pointwise_rel_decodes_in_bound::<f64>();
}
