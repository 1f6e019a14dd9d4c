//! Scalar float abstraction: everything the codec needs from f32/f64.

use szr_metrics::Real;

/// The IEEE-754 scalar types the compressor understands.
///
/// The codec works in `f64` internally (predictions, interval arithmetic) and
/// converts back through `from_f64` before error-checking, so the bound is
/// enforced on the *stored* precision, not the working precision. Widening
/// to `f64` is [`Real::to_f64`], lossless for both supported types.
pub trait ScalarFloat: Real + PartialOrd + 'static {
    /// Total bits in the representation (32 or 64).
    const BITS: u32;
    /// Explicit mantissa bits (23 or 52).
    const MANTISSA_BITS: u32;
    /// Exponent field bits (8 or 11).
    const EXPONENT_BITS: u32;
    /// Exponent bias (127 or 1023).
    const EXPONENT_BIAS: i32;
    /// Type tag stored in archive headers.
    const TYPE_TAG: u8;
    /// Human-readable name for error messages.
    const NAME: &'static str;
    /// Largest finite value, widened to `f64`.
    const MAX: f64;

    /// Narrows from `f64` (rounds for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Raw IEEE-754 bits, widened to `u64`.
    fn to_bits_u64(self) -> u64;
    /// Reconstructs from raw bits (low `BITS` bits of the argument).
    fn from_bits_u64(bits: u64) -> Self;
}

impl ScalarFloat for f32 {
    const BITS: u32 = 32;
    const MANTISSA_BITS: u32 = 23;
    const EXPONENT_BITS: u32 = 8;
    const EXPONENT_BIAS: i32 = 127;
    const TYPE_TAG: u8 = 0;
    const NAME: &'static str = "f32";
    const MAX: f64 = f32::MAX as f64;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_bits_u64(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_bits_u64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

impl ScalarFloat for f64 {
    const BITS: u32 = 64;
    const MANTISSA_BITS: u32 = 52;
    const EXPONENT_BITS: u32 = 11;
    const EXPONENT_BIAS: i32 = 1023;
    const TYPE_TAG: u8 = 1;
    const NAME: &'static str = "f64";
    const MAX: f64 = f64::MAX;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_bits_u64(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits_u64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrips_bits() {
        for v in [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::MAX, -7.25e-30] {
            assert_eq!(f32::from_bits_u64(v.to_bits_u64()).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn f64_roundtrips_bits() {
        for v in [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, f64::MAX, -7.25e-300] {
            assert_eq!(f64::from_bits_u64(v.to_bits_u64()).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn widening_is_lossless() {
        let v = 1.000_000_1f32;
        assert_eq!(f32::from_f64(v.to_f64()), v);
    }

    #[test]
    fn constants_are_ieee754() {
        assert_eq!(
            <f32 as ScalarFloat>::MANTISSA_BITS + <f32 as ScalarFloat>::EXPONENT_BITS + 1,
            <f32 as ScalarFloat>::BITS
        );
        assert_eq!(
            <f64 as ScalarFloat>::MANTISSA_BITS + <f64 as ScalarFloat>::EXPONENT_BITS + 1,
            <f64 as ScalarFloat>::BITS
        );
    }
}
