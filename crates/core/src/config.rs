//! Compression configuration: error bounds, layer count, interval mode.

use crate::{Result, SzError};

/// The user-facing error-bound specification (§II, Metric 1).
///
/// The paper lets users set an absolute bound, a value-range-based relative
/// bound, or both (both ⇒ the tighter one wins at compression time, once the
/// data's value range is known).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// `|x − x~| ≤ eb` for every point.
    Absolute(f64),
    /// `|x − x~| ≤ eb · (x_max − x_min)` for every point.
    Relative(f64),
    /// Both bounds must hold.
    Both {
        /// Absolute component.
        abs: f64,
        /// Value-range-relative component.
        rel: f64,
    },
}

impl ErrorBound {
    /// Resolves to the effective absolute bound for data with value range
    /// `range`.
    ///
    /// Constant data (range 0) under a relative bound degenerates; we fall
    /// back to the smallest positive normal so compression still proceeds
    /// (every point predicts exactly anyway).
    pub fn effective(&self, range: f64) -> f64 {
        let eb = match *self {
            ErrorBound::Absolute(abs) => abs,
            ErrorBound::Relative(rel) => rel * range,
            ErrorBound::Both { abs, rel } => abs.min(rel * range),
        };
        if eb > 0.0 {
            eb
        } else {
            f64::MIN_POSITIVE
        }
    }

    fn validate(&self) -> Result<()> {
        let ok = |v: f64| v.is_finite() && v > 0.0;
        let valid = match *self {
            ErrorBound::Absolute(abs) => ok(abs),
            ErrorBound::Relative(rel) => ok(rel),
            ErrorBound::Both { abs, rel } => ok(abs) && ok(rel),
        };
        if valid {
            Ok(())
        } else {
            Err(SzError::InvalidConfig(
                "error bounds must be finite and positive",
            ))
        }
    }
}

/// How the number of quantization intervals is chosen (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntervalMode {
    /// Exactly `2^bits − 1` intervals.
    Fixed {
        /// The `m` in `2^m` codes; `2..=28`, so the `2^m`-symbol code
        /// alphabet stays within what a decoder accepts from an archive
        /// header (`szr_huffman::MAX_ALPHABET`, 2^28).
        bits: u32,
    },
    /// Sample the data and pick the smallest `m` reaching hit rate `theta`.
    Adaptive {
        /// Target prediction hitting rate θ (paper default behaviour: keep
        /// shrinking intervals until the rate would drop below θ).
        theta: f64,
        /// Upper limit on `m` (paper uses up to 65 535 intervals = 16 bits);
        /// `4..=28`, for the same reason as [`IntervalMode::Fixed`].
        max_bits: u32,
        /// Sample every `stride`-th point during estimation.
        sample_stride: usize,
    },
}

impl Default for IntervalMode {
    fn default() -> Self {
        IntervalMode::Adaptive {
            theta: 0.99,
            max_bits: 16,
            sample_stride: 5,
        }
    }
}

/// Full compressor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// The pointwise error guarantee.
    pub bound: ErrorBound,
    /// Prediction layer count `n` (paper default 1; see Table II for why).
    pub layers: usize,
    /// Interval-count policy.
    pub intervals: IntervalMode,
    /// Apply a DEFLATE pass to the payload sections (SZ's "best
    /// compression" mode, which the paper's evaluation ran). Costs some
    /// speed; wins big on low-entropy code streams (e.g. sparse fields,
    /// where Huffman's 1-bit-per-symbol floor binds). Each payload is
    /// priced first, and one predicted to shrink by under 2% is stored raw
    /// without running the pass.
    pub lossless_pass: bool,
    /// Error-decorrelation mode (the paper's §VIII future work): quantize
    /// on half-width intervals and add a deterministic dither of up to
    /// `±eb/2` to every reconstruction. The total error stays within `eb`,
    /// but errors become white instead of tracking the prediction surface —
    /// fixing the autocorrelation weakness Figure 9 shows on
    /// high-compression-factor data, at roughly one extra bit per value.
    pub decorrelate: bool,
    /// LZ over the escape stream: run the DEFLATE trial on the band's
    /// binary-representation escape bytes and, when it actually shrinks
    /// them, store the escape section compressed (escape-LZ band framing).
    /// Escape bytes are IEEE-754 fragments — usually incompressible, which
    /// is why this is off by default and trial-gated rather than
    /// unconditional — but clustered or repeating unpredictable values
    /// (sensor clipping, fill values, tiled artifacts) deflate well.
    pub escape_lz: bool,
}

impl Config {
    /// Creates a configuration with the paper's defaults: 1-layer
    /// prediction, adaptive interval selection, DEFLATE post-pass on.
    pub fn new(bound: ErrorBound) -> Self {
        Self {
            bound,
            layers: 1,
            intervals: IntervalMode::default(),
            lossless_pass: true,
            decorrelate: false,
            escape_lz: false,
        }
    }

    /// Enables the escape-stream DEFLATE trial (see the field docs).
    pub fn with_escape_lz(mut self) -> Self {
        self.escape_lz = true;
        self
    }

    /// Enables error-decorrelation mode (see the field docs).
    pub fn with_decorrelation(mut self) -> Self {
        self.decorrelate = true;
        self
    }

    /// Disables the DEFLATE post-pass (SZ's "fast" mode).
    pub fn without_lossless_pass(mut self) -> Self {
        self.lossless_pass = false;
        self
    }

    /// Sets the prediction layer count (`1..=8`).
    pub fn with_layers(mut self, layers: usize) -> Self {
        self.layers = layers;
        self
    }

    /// Fixes the interval count to `2^bits − 1`.
    pub fn with_interval_bits(mut self, bits: u32) -> Self {
        self.intervals = IntervalMode::Fixed { bits };
        self
    }

    /// Uses adaptive interval selection with the given hit-rate target.
    pub fn with_adaptive_intervals(mut self, theta: f64, max_bits: u32) -> Self {
        self.intervals = IntervalMode::Adaptive {
            theta,
            max_bits,
            sample_stride: 5,
        };
        self
    }

    /// Checks every field, returning the first problem found.
    pub fn validate(&self) -> Result<()> {
        self.bound.validate()?;
        if !(1..=8).contains(&self.layers) {
            return Err(SzError::InvalidConfig("layers must be in 1..=8"));
        }
        match self.intervals {
            IntervalMode::Fixed { bits } => {
                if !(2..=28).contains(&bits) {
                    return Err(SzError::InvalidConfig("interval bits must be in 2..=28"));
                }
            }
            IntervalMode::Adaptive {
                theta, max_bits, ..
            } => {
                if !(0.0..=1.0).contains(&theta) {
                    return Err(SzError::InvalidConfig("theta must be in 0..=1"));
                }
                if !(4..=28).contains(&max_bits) {
                    return Err(SzError::InvalidConfig(
                        "max interval bits must be in 4..=28",
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_bound_resolution() {
        assert_eq!(ErrorBound::Absolute(0.5).effective(100.0), 0.5);
        assert_eq!(ErrorBound::Relative(1e-3).effective(100.0), 0.1);
        assert_eq!(
            ErrorBound::Both {
                abs: 0.05,
                rel: 1e-3
            }
            .effective(100.0),
            0.05
        );
        assert_eq!(
            ErrorBound::Both {
                abs: 0.5,
                rel: 1e-3
            }
            .effective(100.0),
            0.1
        );
    }

    #[test]
    fn constant_data_relative_bound_degenerates_safely() {
        let eb = ErrorBound::Relative(1e-4).effective(0.0);
        assert!(eb > 0.0);
    }

    #[test]
    fn validation_rejects_bad_bounds() {
        assert!(Config::new(ErrorBound::Absolute(0.0)).validate().is_err());
        assert!(Config::new(ErrorBound::Absolute(f64::NAN))
            .validate()
            .is_err());
        assert!(Config::new(ErrorBound::Relative(-1.0)).validate().is_err());
        assert!(Config::new(ErrorBound::Absolute(1.0)).validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_layers_and_bits() {
        assert!(Config::new(ErrorBound::Absolute(1.0))
            .with_layers(0)
            .validate()
            .is_err());
        assert!(Config::new(ErrorBound::Absolute(1.0))
            .with_layers(9)
            .validate()
            .is_err());
        assert!(Config::new(ErrorBound::Absolute(1.0))
            .with_interval_bits(1)
            .validate()
            .is_err());
        assert!(Config::new(ErrorBound::Absolute(1.0))
            .with_interval_bits(31)
            .validate()
            .is_err());
        assert!(Config::new(ErrorBound::Absolute(1.0))
            .with_interval_bits(8)
            .validate()
            .is_ok());
    }

    #[test]
    fn defaults_match_the_paper() {
        let c = Config::new(ErrorBound::Relative(1e-4));
        assert_eq!(c.layers, 1);
        assert!(matches!(c.intervals, IntervalMode::Adaptive { .. }));
    }
}
