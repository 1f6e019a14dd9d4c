//! Every interval width a `Config` accepts writes an archive its own
//! decoder reads back. Each compress entry point either rejects the width
//! with `SzError::InvalidConfig` or returns an archive that decodes within
//! the bound. Widths past 28 bits would need code alphabets beyond the 2^28
//! symbols a decoder accepts from an archive header, so they are rejected.

use szr::parallel::{compress_chunked, decompress_chunked};
use szr::{compress, decompress, CodecSession, Config, ErrorBound, SzError, Tensor};

const EB: f64 = 1e-3;

fn field() -> Tensor<f32> {
    Tensor::from_fn([64, 64], |ix| {
        let f = ix[0] * 64 + ix[1];
        ((f as f32) * 0.05).sin() * 30.0 + ix[0] as f32
    })
}

/// Returns whether the entry point accepted the width; panics on any
/// other error and on an accepted width whose archive does not decode
/// within the bound.
fn accepted<A>(
    what: &str,
    data: &Tensor<f32>,
    compressed: Result<A, SzError>,
    decode: impl FnOnce(&A) -> Result<Tensor<f32>, SzError>,
) -> bool {
    let archive = match compressed {
        Ok(archive) => archive,
        Err(SzError::InvalidConfig(_)) => return false,
        Err(e) => panic!("{what}: compress failed with {e}"),
    };
    let out = decode(&archive).unwrap_or_else(|e| panic!("{what}: archive does not decode: {e}"));
    for (f, (&x, &y)) in data.as_slice().iter().zip(out.as_slice()).enumerate() {
        let err = (x as f64 - y as f64).abs();
        assert!(err <= EB, "{what}: error {err} > {EB} at {f}");
    }
    true
}

/// The fixed width `bits` and the adaptive ceiling `bits`, each with the
/// smallest value `Config` accepts for it.
fn configs(bits: u32) -> [(String, Config, u32); 2] {
    let config = Config::new(ErrorBound::Absolute(EB));
    [
        (
            format!("fixed {bits} bits"),
            config.with_interval_bits(bits),
            2,
        ),
        (
            format!("adaptive up to {bits} bits"),
            config.with_adaptive_intervals(0.99, bits),
            4,
        ),
    ]
}

/// Runs `compress`, `CodecSession::compress` and `compress_chunked` (two
/// bands on one thread, so one code table is live at a time) and returns
/// whether they accepted the config; they must agree.
fn entry_points_accept(what: &str, data: &Tensor<f32>, config: Config) -> bool {
    let free = accepted(
        &format!("{what}, compress"),
        data,
        compress(data, &config),
        |bytes| decompress(bytes),
    );
    let session = match CodecSession::<f32>::new(config) {
        Ok(mut session) => accepted(
            &format!("{what}, CodecSession::compress"),
            data,
            session.compress(data),
            |bytes| session.decompress(bytes),
        ),
        Err(SzError::InvalidConfig(_)) => false,
        Err(e) => panic!("{what}: CodecSession::new failed with {e}"),
    };
    let chunked = accepted(
        &format!("{what}, compress_chunked"),
        data,
        compress_chunked(data, &config, 2, 1),
        |archive| decompress_chunked(archive, 1),
    );
    assert_eq!(
        (session, chunked),
        (free, free),
        "{what}: entry points disagree"
    );
    free
}

#[test]
fn interval_widths_past_28_bits_are_rejected() {
    let data = field();
    for bits in [0, 1, 29, 30, 31] {
        for (what, config, _) in configs(bits) {
            assert!(!entry_points_accept(&what, &data, config), "{what}");
        }
    }
}

#[test]
fn every_accepted_interval_width_round_trips() {
    // A fixed width of `m` bits writes (and reads back) a 2^(m-1)-entry
    // code table, one at a time here: about 1.5 GB at peak for 28 bits,
    // and minutes of work for 25..=28 without optimisation. Release builds
    // (CI runs this test in release) cover every width; debug builds stop
    // at 22 bits.
    let widest = if cfg!(debug_assertions) { 22 } else { 28 };
    let data = field();
    for bits in 2..=widest {
        for (what, config, min_bits) in configs(bits) {
            assert_eq!(
                entry_points_accept(&what, &data, config),
                bits >= min_bits,
                "{what}"
            );
        }
    }
}
