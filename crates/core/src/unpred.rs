//! Binary-representation analysis for unpredictable values.
//!
//! SZ stores points that miss every quantization interval by analyzing their
//! IEEE-754 representation (inherited from SZ-1.1 [9], §IV-A of the paper):
//! keep the sign and exponent, and only as many leading mantissa bits as the
//! error bound requires. A value with unbiased exponent `e` needs
//! `k = e − ⌊log2 eb⌋` mantissa bits for the truncation error `< 2^{e−k}` to
//! stay `≤ eb`; magnitudes at or below `eb` collapse to a single flag bit and
//! reconstruct as 0.
//!
//! For `eb_rel = 1e-4` on typical f32 data this stores ~15–20 bits instead
//! of 32 — "binary-representation analysis can reduce the data size to a
//! certain extent" (§IV-B), though still far more than a Huffman-coded
//! quantization code, which is why the hit rate dominates both ratio and
//! speed.

use crate::float::ScalarFloat;
use szr_bitstream::{BitReader, BitWriter, Result};

/// Encoder/decoder for unpredictable values at a fixed error bound.
#[derive(Debug, Clone, Copy)]
pub struct UnpredictableCodec {
    /// `⌊log2 eb⌋`, exact (adjusted against floating-point log error).
    eb_exp: i32,
    eb: f64,
}

impl UnpredictableCodec {
    /// Creates a codec for absolute bound `eb`.
    ///
    /// # Panics
    /// Panics unless `eb` is positive and finite.
    pub fn new(eb: f64) -> Self {
        assert!(eb.is_finite() && eb > 0.0, "error bound must be positive");
        // Exact floor(log2(eb)): start from the exponent field and adjust.
        let mut e = ((eb.to_bits() >> 52) & 0x7FF) as i32 - 1023;
        if (eb.to_bits() >> 52) & 0x7FF == 0 {
            // Subnormal bound: extremely tight; log2 is safe to use since
            // the adjust loops below correct any off-by-one.
            e = eb.log2().floor() as i32;
        }
        while e > -1074 && exp2(e) > eb {
            e -= 1;
        }
        while exp2(e + 1) <= eb {
            e += 1;
        }
        Self { eb_exp: e, eb }
    }

    /// Mantissa bits kept for a value with the given biased exponent field.
    fn mantissa_bits<T: ScalarFloat>(&self, biased: u64) -> u32 {
        let exp_max = (1u64 << T::EXPONENT_BITS) - 1;
        if biased == exp_max {
            // Inf/NaN: store everything; reconstruct exactly.
            return T::MANTISSA_BITS;
        }
        let e = if biased == 0 {
            1 - T::EXPONENT_BIAS // subnormal weight
        } else {
            biased as i32 - T::EXPONENT_BIAS
        };
        (e - self.eb_exp).clamp(0, T::MANTISSA_BITS as i32) as u32
    }

    /// Encodes `value`, returning the reconstruction the decoder will see.
    ///
    /// Layout: `flag(1)` — 0 ⇒ |value| ≤ eb, reconstruct 0; otherwise
    /// `sign(1) | exponent(E) | mantissa(k)` with `k` derived from the
    /// exponent (so the decoder recomputes it without side information).
    pub fn encode<T: ScalarFloat>(&self, value: T, out: &mut BitWriter) -> T {
        let v64 = value.to_f64();
        if v64.abs() <= self.eb {
            out.write_bit(false);
            return T::from_f64(0.0);
        }
        out.write_bit(true);
        let bits = value.to_bits_u64();
        let sign = bits >> (T::BITS - 1);
        let biased = (bits >> T::MANTISSA_BITS) & ((1u64 << T::EXPONENT_BITS) - 1);
        let mant = bits & ((1u64 << T::MANTISSA_BITS) - 1);
        let k = self.mantissa_bits::<T>(biased);
        out.write_bit(sign == 1);
        out.write_bits(biased, T::EXPONENT_BITS);
        if k > 0 {
            out.write_bits(mant >> (T::MANTISSA_BITS - k), k);
        }
        T::from_bits_u64(truncated_bits::<T>(sign, biased, mant, k))
    }

    /// The reconstruction [`Self::encode`] would store for `value`, without
    /// writing any bits — used by the wavefront quantizers, which need the
    /// escape reconstruction immediately (it feeds later predictions) but
    /// write the bits at the end of the scan group, in row-major order.
    /// Kept out of line: escapes are rare, and inlined this would bloat the
    /// scan's per-point path.
    #[cold]
    #[inline(never)]
    pub fn reconstruction<T: ScalarFloat>(&self, value: T) -> T {
        if value.to_f64().abs() <= self.eb {
            return T::from_f64(0.0);
        }
        let bits = value.to_bits_u64();
        let sign = bits >> (T::BITS - 1);
        let biased = (bits >> T::MANTISSA_BITS) & ((1u64 << T::EXPONENT_BITS) - 1);
        let mant = bits & ((1u64 << T::MANTISSA_BITS) - 1);
        let k = self.mantissa_bits::<T>(biased);
        T::from_bits_u64(truncated_bits::<T>(sign, biased, mant, k))
    }

    /// Decodes one value previously written by [`Self::encode`].
    pub fn decode<T: ScalarFloat>(&self, input: &mut BitReader<'_>) -> Result<T> {
        if !input.read_bit()? {
            return Ok(T::from_f64(0.0));
        }
        let sign = input.read_bit()? as u64;
        let biased = input.read_bits(T::EXPONENT_BITS)?;
        let k = self.mantissa_bits::<T>(biased);
        let mant_top = if k > 0 { input.read_bits(k)? } else { 0 };
        let bits = (sign << (T::BITS - 1))
            | (biased << T::MANTISSA_BITS)
            | (mant_top << (T::MANTISSA_BITS - k));
        Ok(T::from_bits_u64(bits))
    }

    /// Average storage cost in bits for a value with exponent field `biased`
    /// (used by size estimators).
    pub fn cost_bits<T: ScalarFloat>(&self, value: T) -> u32 {
        if value.to_f64().abs() <= self.eb {
            return 1;
        }
        let biased = (value.to_bits_u64() >> T::MANTISSA_BITS) & ((1u64 << T::EXPONENT_BITS) - 1);
        2 + T::EXPONENT_BITS + self.mantissa_bits::<T>(biased)
    }
}

fn exp2(e: i32) -> f64 {
    (e as f64).exp2()
}

/// IEEE-754 bits of the truncated reconstruction: sign and exponent kept,
/// only the top `k` mantissa bits retained.
#[inline]
fn truncated_bits<T: ScalarFloat>(sign: u64, biased: u64, mant: u64, k: u32) -> u64 {
    (sign << (T::BITS - 1))
        | (biased << T::MANTISSA_BITS)
        | ((mant >> (T::MANTISSA_BITS - k.min(T::MANTISSA_BITS))) << (T::MANTISSA_BITS - k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: ScalarFloat>(codec: &UnpredictableCodec, values: &[T]) -> Vec<T> {
        let mut w = BitWriter::new();
        let recon_enc: Vec<T> = values.iter().map(|&v| codec.encode(v, &mut w)).collect();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let recon_dec: Vec<T> = values
            .iter()
            .map(|_| codec.decode::<T>(&mut r).unwrap())
            .collect();
        for (a, b) in recon_enc.iter().zip(&recon_dec) {
            assert_eq!(
                a.to_bits_u64(),
                b.to_bits_u64(),
                "enc/dec reconstruction mismatch"
            );
        }
        recon_dec
    }

    #[test]
    fn truncation_respects_bound_f32() {
        let eb = 1e-3;
        let codec = UnpredictableCodec::new(eb);
        let values: Vec<f32> = vec![
            1.234_567_8,
            -9.876_543e4,
            3.2e-5, // below eb -> 0
            0.0,
            -0.062_5,
            f32::MIN_POSITIVE,
            1.0e30,
            -1.0e-30,
        ];
        let recon = roundtrip(&codec, &values);
        for (&v, &r) in values.iter().zip(&recon) {
            assert!(
                (v as f64 - r as f64).abs() <= eb,
                "value {v} recon {r} violates bound"
            );
        }
    }

    #[test]
    fn truncation_respects_bound_f64() {
        let eb = 1e-9;
        let codec = UnpredictableCodec::new(eb);
        let values: Vec<f64> = vec![
            std::f64::consts::PI,
            -2.718_281_828_459_045e10,
            1.0e-10,
            5.0e-9,
            -123_456.789_012_345,
        ];
        let recon = roundtrip(&codec, &values);
        for (&v, &r) in values.iter().zip(&recon) {
            assert!((v - r).abs() <= eb, "value {v} recon {r} violates bound");
        }
    }

    #[test]
    fn tiny_values_cost_one_bit() {
        let codec = UnpredictableCodec::new(0.1);
        assert_eq!(codec.cost_bits(0.05f32), 1);
        assert_eq!(codec.cost_bits(0.0f32), 1);
        // A normal value: 2 + 8 + k bits.
        assert!(codec.cost_bits(123.0f32) > 10);
    }

    #[test]
    fn looser_bounds_store_fewer_bits() {
        let tight = UnpredictableCodec::new(1e-6);
        let loose = UnpredictableCodec::new(1e-2);
        let v = 1234.567f32;
        assert!(loose.cost_bits(v) < tight.cost_bits(v));
    }

    #[test]
    fn reconstruction_matches_encode_bit_for_bit() {
        for eb in [1e-6, 1e-3, 0.25, 10.0] {
            let codec = UnpredictableCodec::new(eb);
            for v in [
                0.0f32,
                -0.0,
                1.234_567_8,
                -9.876_543e4,
                3.2e-5,
                f32::MIN_POSITIVE,
                f32::INFINITY,
                1.0e30,
            ] {
                let mut w = BitWriter::new();
                let enc = codec.encode(v, &mut w);
                let pure = codec.reconstruction(v);
                assert_eq!(enc.to_bits(), pure.to_bits(), "eb {eb} value {v}");
            }
            let codec = UnpredictableCodec::new(eb);
            for v in [0.0f64, std::f64::consts::PI, -2.7e100, 5.0e-9] {
                let mut w = BitWriter::new();
                let enc = codec.encode(v, &mut w);
                let pure = codec.reconstruction(v);
                assert_eq!(enc.to_bits(), pure.to_bits(), "eb {eb} value {v}");
            }
        }
    }

    #[test]
    fn bound_exactly_power_of_two() {
        // floor(log2(0.25)) must be exactly -2 despite fp log rounding.
        let codec = UnpredictableCodec::new(0.25);
        assert_eq!(codec.eb_exp, -2);
        let codec = UnpredictableCodec::new(1.0);
        assert_eq!(codec.eb_exp, 0);
        let codec = UnpredictableCodec::new(0.75);
        assert_eq!(codec.eb_exp, -1);
    }

    #[test]
    #[allow(clippy::excessive_precision)] // Avogadro, quoted in full
    fn full_precision_kept_when_bound_is_tiny() {
        // eb below one ulp of the value: k clamps to full mantissa, exact.
        let codec = UnpredictableCodec::new(1e-40);
        let mut w = BitWriter::new();
        let v = 6.02214076e23f32;
        let recon = codec.encode(v, &mut w);
        assert_eq!(recon.to_bits(), v.to_bits());
    }

    #[test]
    fn infinities_roundtrip_exactly() {
        let codec = UnpredictableCodec::new(1e-3);
        let values = [f32::INFINITY, f32::NEG_INFINITY];
        let mut w = BitWriter::new();
        let rec: Vec<f32> = values.iter().map(|&v| codec.encode(v, &mut w)).collect();
        assert_eq!(rec[0], f32::INFINITY);
        assert_eq!(rec[1], f32::NEG_INFINITY);
    }

    #[test]
    fn negative_values_keep_their_sign() {
        let codec = UnpredictableCodec::new(1e-4);
        let mut w = BitWriter::new();
        let recon = codec.encode(-42.4242f32, &mut w);
        assert!(recon < 0.0);
        assert!((recon as f64 + 42.4242).abs() <= 1e-4);
    }
}
