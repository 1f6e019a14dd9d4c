//! Pointwise-relative error bounds via logarithmic preprocessing.
//!
//! §II of the paper distinguishes value-range-based relative bounds (what
//! SZ-1.4 ships) from *pointwise* relative bounds `|x − x̃| ≤ eb·|x|`
//! (footnote 1). Later SZ releases added pointwise mode through a
//! log-domain transform, and this module implements that extension:
//!
//! * compress `log2 |x|` under the absolute bound `log2(1 + eb)`, so that
//!   `|log2 x̃ − log2 x| ≤ log2(1+eb)` ⇒ `x̃/x ∈ [1/(1+eb), 1+eb]`, i.e.
//!   the relative error is within `eb` on reconstruction;
//! * signs, zeros, and non-finite values travel in a side channel of 2-bit
//!   flags (entropy-coded by the same DEFLATE pass as everything else);
//! * non-finite values, and finite ones so close to the type's maximum
//!   that their reconstruction could overflow it, are stored exactly.
//!
//! The bound guarantee is checked the same way the absolute pipeline checks
//! narrowing: after reconstructing `x̃ = sign · 2^{ỹ}` in the stored
//! precision, `|x̃ − x| ≤ eb·|x|` holds for every point (property-tested).

use crate::float::ScalarFloat;
use crate::{compress_slice_with_stats, decompress, Config, ErrorBound, Result, SzError};
use szr_bitstream::{ByteReader, ByteWriter};
use szr_tensor::{Shape, Tensor};

const MAGIC: [u8; 4] = *b"SZRL";

/// Per-point class in the side channel.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Zero = 0,
    Positive = 1,
    Negative = 2,
    /// Stored exactly in the escape section (NaN, ±inf, |x| near `T::MAX`).
    Escape = 3,
}

/// Compresses under a pointwise relative bound `|x − x̃| ≤ eb·|x|`.
///
/// `eb` must be in `(0, 1)`; bounds ≥ 1 would allow reconstructing
/// everything as zero, and bounds ≤ 0 are meaningless. Zeros reconstruct
/// exactly (the only value satisfying a relative bound on 0 is 0).
///
/// The `config` argument carries the layer/interval settings; its
/// `bound` field is ignored in favour of `eb`.
pub fn compress_pointwise_rel<T: ScalarFloat>(
    data: &Tensor<T>,
    eb: f64,
    config: &Config,
) -> Result<Vec<u8>> {
    if !(eb > 0.0 && eb < 1.0) {
        return Err(SzError::InvalidConfig(
            "pointwise relative bound must be in (0,1)",
        ));
    }
    let n = data.len();
    let values = data.as_slice();

    // Side channel + log-domain working array. Escaped/zero points carry a
    // neutral filler in the log array so prediction stays smooth.
    let mut classes = Vec::with_capacity(n);
    let mut logs: Vec<f64> = Vec::with_capacity(n);
    let mut escapes = ByteWriter::new();
    let mut last_log = 0.0f64;
    // A log-domain reconstruction may land up to a factor (1 + eb) above
    // |x|; beyond this magnitude that overflows `T`, so such values escape.
    let max_logged = T::MAX / (1.0 + eb);
    for &v in values {
        let x = v.to_f64();
        if x == 0.0 {
            classes.push(Class::Zero);
            logs.push(last_log);
        } else if x.is_finite() && x.abs() <= max_logged {
            classes.push(if x > 0.0 {
                Class::Positive
            } else {
                Class::Negative
            });
            last_log = x.abs().log2();
            logs.push(last_log);
        } else {
            classes.push(Class::Escape);
            logs.push(last_log);
            escapes.write_u64(v.to_bits_u64());
        }
    }

    // log2(1+eb) is the absolute budget in log space; halve it for safety
    // against the double rounding (log forward + exp2 backward in T).
    let log_eb = (1.0 + eb).log2() / 2.0;
    let log_config = Config {
        bound: ErrorBound::Absolute(log_eb),
        ..*config
    };
    let (log_archive, _) = compress_slice_with_stats(&logs, data.shape(), &log_config)?;

    // Class stream: 2 bits per point, deflated (mostly a constant run).
    let mut class_bits = szr_bitstream::BitWriter::with_capacity(n / 4 + 1);
    for &c in &classes {
        class_bits.write_bits(c as u64, 2);
    }
    let class_block = szr_deflate::deflate_compress(&class_bits.into_bytes());

    let mut out = ByteWriter::with_capacity(log_archive.len() + class_block.len() + 64);
    out.write_bytes(&MAGIC);
    out.write_u8(T::TYPE_TAG);
    out.write_f64(eb);
    out.write_varint(data.shape().ndim() as u64);
    for &d in data.shape().dims() {
        out.write_varint(d as u64);
    }
    out.write_len_prefixed(&class_block);
    out.write_len_prefixed(&log_archive);
    out.write_len_prefixed(escapes.as_bytes());
    // Seal the whole container — header, class stream, embedded log
    // archive, escape block — with one trailing CRC-32. The embedded
    // archive carries its own v3 section checksums, but the class/escape
    // side channels would otherwise be unprotected.
    let crc = szr_deflate::crc32(out.as_bytes());
    out.write_u32(crc);
    Ok(out.into_bytes())
}

/// Consumes and checks the container CRC-32 trailer after the three
/// len-prefixed sections. Archives written before the trailer existed end
/// exactly at the last section and are accepted as-is; anything else
/// trailing that is not a matching CRC is corruption.
fn verify_container_trailer(bytes: &[u8], reader: &mut ByteReader<'_>) -> Result<()> {
    match reader.remaining() {
        0 => Ok(()),
        4 => {
            let sealed = reader.pos();
            let stored = reader.read_u32()?;
            if szr_deflate::crc32(&bytes[..sealed]) != stored {
                return Err(SzError::Corrupt("payload: checksum mismatch".into()));
            }
            Ok(())
        }
        _ => Err(SzError::Corrupt(
            "payload: trailing bytes after sections".into(),
        )),
    }
}

/// Decompresses an archive produced by [`compress_pointwise_rel`].
pub fn decompress_pointwise_rel<T: ScalarFloat>(bytes: &[u8]) -> Result<Tensor<T>> {
    let mut reader = ByteReader::new(bytes);
    if reader.read_bytes(4)? != MAGIC {
        return Err(SzError::Corrupt("bad pointwise-relative magic".into()));
    }
    if reader.read_u8()? != T::TYPE_TAG {
        return Err(SzError::WrongType {
            expected: T::NAME,
            found: "other",
        });
    }
    let eb = reader.read_f64()?;
    if !(eb > 0.0 && eb < 1.0) {
        return Err(SzError::Corrupt("implausible pointwise bound".into()));
    }
    let ndim = reader.read_varint()? as usize;
    if ndim == 0 || ndim > 16 {
        return Err(SzError::Corrupt("implausible rank".into()));
    }
    let mut dims = Vec::with_capacity(ndim);
    let mut product = 1u128;
    for _ in 0..ndim {
        let d = reader.read_varint()? as usize;
        if d == 0 {
            return Err(SzError::Corrupt("zero extent".into()));
        }
        product *= d as u128;
        if product > 1 << 40 {
            return Err(SzError::Corrupt("implausible element count".into()));
        }
        dims.push(d);
    }
    let shape = Shape::new(&dims);
    let n = shape.len();
    // Bound the output allocation by the archive's actual size before
    // trusting the declared dims any further: a handful of bytes cannot
    // legitimately encode billions of points.
    crate::decompress::check_declared_len(n, bytes.len())?;
    let class_block = reader.read_len_prefixed()?;
    let log_archive = reader.read_len_prefixed()?;
    let escape_block = reader.read_len_prefixed()?;
    verify_container_trailer(bytes, &mut reader)?;

    let class_bytes = szr_deflate::deflate_decompress(class_block)
        .map_err(|e| SzError::Corrupt(e.to_string()))?;
    if class_bytes.len() * 4 < n {
        return Err(SzError::Corrupt("class stream too short".into()));
    }
    let logs: Tensor<f64> = decompress(log_archive)?;
    if logs.len() != n {
        return Err(SzError::Corrupt("log stream length mismatch".into()));
    }

    let mut class_reader = szr_bitstream::BitReader::new(&class_bytes);
    let mut escape_reader = ByteReader::new(escape_block);
    let mut out: Vec<T> = Vec::with_capacity(n);
    for &y in logs.as_slice() {
        let class = class_reader.read_bits(2)?;
        let value = match class {
            0 => T::from_f64(0.0),
            1 => T::from_f64(y.exp2()),
            2 => T::from_f64(-y.exp2()),
            3 => T::from_bits_u64(escape_reader.read_u64()?),
            _ => unreachable!("2-bit field"),
        };
        out.push(value);
    }
    Ok(Tensor::from_vec(shape, out))
}

/// Integrity walk of a pointwise-relative archive **without reconstructing
/// values** — the `szr verify` hook for the `SZRL` family. Checks the
/// framing and plausibility fields, inflates and sizes the class stream,
/// verifies the embedded log-domain band archive's v3 checksums through
/// [`crate::inspect_layout`], and checks the escape block holds exactly one
/// 8-byte record per escape-classed point.
///
/// # Errors
/// [`SzError::Corrupt`] naming the failing section.
pub fn verify_pointwise_rel(bytes: &[u8]) -> Result<()> {
    let mut reader = ByteReader::new(bytes);
    if reader.read_bytes(4)? != MAGIC {
        return Err(SzError::Corrupt("bad pointwise-relative magic".into()));
    }
    let tag = reader.read_u8()?;
    if tag > 1 {
        return Err(SzError::Corrupt(format!("header: unknown type tag {tag}")));
    }
    let eb = reader.read_f64()?;
    if !(eb > 0.0 && eb < 1.0) {
        return Err(SzError::Corrupt(
            "header: implausible pointwise bound".into(),
        ));
    }
    let ndim = reader.read_varint()? as usize;
    if ndim == 0 || ndim > 16 {
        return Err(SzError::Corrupt("header: implausible rank".into()));
    }
    let mut n = 1usize;
    let mut product = 1u128;
    for _ in 0..ndim {
        let d = reader.read_varint()? as usize;
        if d == 0 {
            return Err(SzError::Corrupt("header: zero extent".into()));
        }
        product *= d as u128;
        if product > 1 << 40 {
            return Err(SzError::Corrupt("header: implausible element count".into()));
        }
        n *= d;
    }
    crate::decompress::check_declared_len(n, bytes.len())?;
    let class_block = reader.read_len_prefixed()?;
    let log_archive = reader.read_len_prefixed()?;
    let escape_block = reader.read_len_prefixed()?;
    verify_container_trailer(bytes, &mut reader)?;

    let class_bytes = szr_deflate::deflate_decompress(class_block)
        .map_err(|e| SzError::Corrupt(format!("class stream: {e}")))?;
    if class_bytes.len() * 4 < n {
        return Err(SzError::Corrupt("class stream: too short".into()));
    }
    // The embedded log-domain archive carries the v3 section checksums;
    // inspect_layout verifies all of them without reconstruction.
    let layout = crate::decompress::inspect_layout(log_archive)
        .map_err(|e| SzError::Corrupt(format!("log archive: {e}")))?;
    if layout.info.len() != n {
        return Err(SzError::Corrupt("log archive: length mismatch".into()));
    }
    let mut class_reader = szr_bitstream::BitReader::new(&class_bytes);
    let mut escapes = 0usize;
    for _ in 0..n {
        if class_reader.read_bits(2)? == Class::Escape as u64 {
            escapes += 1;
        }
    }
    if escape_block.len() != 8 * escapes {
        return Err(SzError::Corrupt(format!(
            "escape block: {} bytes for {escapes} escape points",
            escape_block.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_pw_bound<T: ScalarFloat>(orig: &[T], recon: &[T], eb: f64) {
        for (i, (&a, &b)) in orig.iter().zip(recon).enumerate() {
            let (x, y) = (a.to_f64(), b.to_f64());
            if x == 0.0 {
                // Zeros reconstruct as +0.0 (the sign of zero is dropped).
                assert_eq!(y, 0.0, "point {i}: zero must reconstruct as zero");
            } else if !x.is_finite() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "point {i}: special value must be exact"
                );
            } else {
                assert!(
                    (x - y).abs() <= eb * x.abs() * (1.0 + 1e-12),
                    "point {i}: |{x} - {y}| > {eb}·|{x}|"
                );
            }
        }
    }

    fn config() -> Config {
        // The bound field is ignored by the pointwise path.
        Config::new(ErrorBound::Absolute(1.0))
    }

    #[test]
    fn pointwise_bound_holds_across_magnitudes() {
        // 20 decades in one array: exactly where range-relative bounds fail
        // and pointwise bounds shine.
        let data = Tensor::from_fn([2000], |ix| {
            let decade = (ix[0] % 20) as i32 - 10;
            (1.0 + (ix[0] as f64 * 0.1).sin().abs()) * 10f64.powi(decade)
        });
        for eb in [1e-2, 1e-4, 1e-6] {
            let packed = compress_pointwise_rel(&data, eb, &config()).unwrap();
            let out: Tensor<f64> = decompress_pointwise_rel(&packed).unwrap();
            check_pw_bound(data.as_slice(), out.as_slice(), eb);
        }
    }

    #[test]
    fn signs_zeros_and_infinities_are_preserved() {
        let data = Tensor::from_vec(
            [8],
            vec![
                1.5f32,
                -2.5,
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                1e-30,
                -1e30,
            ],
        );
        let packed = compress_pointwise_rel(&data, 1e-3, &config()).unwrap();
        let out: Tensor<f32> = decompress_pointwise_rel(&packed).unwrap();
        check_pw_bound(data.as_slice(), out.as_slice(), 1e-3);
        // Zeros come back as exactly +0.0 (sign of zero is not preserved,
        // matching SZ's pointwise mode).
        assert_eq!(out.as_slice()[2], 0.0);
        assert_eq!(out.as_slice()[4], f32::INFINITY);
        assert_eq!(out.as_slice()[5], f32::NEG_INFINITY);
    }

    #[test]
    fn smooth_log_data_compresses_well() {
        // Exponentially growing smooth signal: terrible for absolute bounds,
        // trivial in log space.
        let data = Tensor::from_fn([128, 128], |ix| {
            (10.0f64).powf(((ix[0] + ix[1]) as f64) * 0.02) as f32
        });
        let packed = compress_pointwise_rel(&data, 1e-3, &config()).unwrap();
        let cf = (data.len() * 4) as f64 / packed.len() as f64;
        assert!(cf > 8.0, "log-domain CF should be high, got {cf:.1}");
        let out: Tensor<f32> = decompress_pointwise_rel(&packed).unwrap();
        check_pw_bound(data.as_slice(), out.as_slice(), 1e-3);
    }

    #[test]
    fn invalid_bounds_are_rejected() {
        let data = Tensor::from_fn([4], |ix| ix[0] as f32 + 1.0);
        assert!(compress_pointwise_rel(&data, 0.0, &config()).is_err());
        assert!(compress_pointwise_rel(&data, 1.0, &config()).is_err());
        assert!(compress_pointwise_rel(&data, -0.5, &config()).is_err());
    }

    #[test]
    fn truncation_and_type_mismatch_error_cleanly() {
        let data = Tensor::from_fn([64], |ix| (ix[0] as f32 + 1.0) * 3.0);
        let packed = compress_pointwise_rel(&data, 1e-2, &config()).unwrap();
        assert!(matches!(
            decompress_pointwise_rel::<f64>(&packed),
            Err(SzError::WrongType { .. })
        ));
        for cut in [0, 5, 20, packed.len() / 2] {
            assert!(decompress_pointwise_rel::<f32>(&packed[..cut]).is_err());
        }
    }
}
