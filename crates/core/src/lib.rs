//! # szr-core — the SZ-1.4 error-bounded lossy compressor
//!
//! A from-scratch Rust implementation of the compression algorithm of
//! Tao, Di, Chen & Cappello, *"Significantly Improving Lossy Compression for
//! Scientific Data Sets Based on Multidimensional Prediction and
//! Error-Controlled Quantization"* (IPDPS 2017) — the algorithm released by
//! the authors as SZ-1.4.
//!
//! The compressor processes a d-dimensional floating-point array in row-major
//! scan order and, for every point:
//!
//! 1. **predicts** its value from already-reconstructed neighbors with the
//!    n-layer multidimensional predictor (§III, Eq. 11; n = 1 is the Lorenzo
//!    predictor and the paper's default);
//! 2. **quantizes** the prediction error onto `2^m − 1` uniform intervals of
//!    width `2·eb` (§IV-A); points outside the interval range are stored via
//!    *binary-representation analysis* — a truncated IEEE-754 encoding that
//!    still respects the bound;
//! 3. **entropy-codes** the quantization codes with an arbitrary-alphabet
//!    canonical Huffman coder (§IV's variable-length encoding).
//!
//! Decompression replays the same prediction from reconstructed values, so
//! every decoded point is within `eb` of the original *by construction* —
//! the central property the test-suite's property tests pin down.
//!
//! ## Quick example
//!
//! ```
//! use szr_core::{compress, decompress, Config, ErrorBound};
//! use szr_tensor::Tensor;
//!
//! let data = Tensor::from_fn([64, 64], |ix| {
//!     ((ix[0] as f32) * 0.1).sin() + ((ix[1] as f32) * 0.1).cos()
//! });
//! let config = Config::new(ErrorBound::Absolute(1e-3));
//! let archive = compress(&data, &config).unwrap();
//! let restored: Tensor<f32> = decompress(&archive).unwrap();
//! for (a, b) in data.as_slice().iter().zip(restored.as_slice()) {
//!     assert!((a - b).abs() <= 1e-3);
//! }
//! ```
//!
//! ## Sessions
//!
//! The free functions above build their pipeline state per call. Anything
//! compressing or decompressing repeatedly — streams, chunked workers,
//! planners — holds a [`CodecSession`] instead: it owns the scan kernels,
//! quantize/entropy buffers, and decode scratch, making steady-state
//! operation allocation-free, and it unlocks the fused quantize→encode
//! fast path (see [`CodecSession::set_table_reuse`]):
//!
//! ```
//! use szr_core::{CodecSession, Config, ErrorBound};
//! use szr_tensor::Tensor;
//!
//! let config = Config::new(ErrorBound::Absolute(1e-3));
//! let mut session = CodecSession::<f32>::new(config).unwrap();
//! for step in 0..3 {
//!     let band = Tensor::from_fn([32, 64], |ix| {
//!         ((ix[0] + step) as f32 * 0.1).sin() + (ix[1] as f32 * 0.07).cos()
//!     });
//!     let archive = session.compress(&band).unwrap();
//!     let back = session.decompress(&archive).unwrap();
//!     assert_eq!(back.dims(), band.dims());
//! }
//! ```
//!
//! ## Decoding into place
//!
//! [`CodecSession::decompress_into`] (and
//! [`CodecSession::decompress_shared_into`] for bands whose Huffman table
//! lives in their container) decodes straight into a caller's row-major
//! buffer — the way the paper's decompressor rebuilds every point into one
//! output array. Its contract:
//!
//! * the buffer holds exactly the element count the archive header
//!   declares, else [`SzError::OutputLength`];
//! * its prior contents are never read — every point is written before any
//!   later prediction reads it — so a reused or uninitialized-looking
//!   buffer needs no clearing;
//! * the errors are otherwise [`CodecSession::decompress`]'s
//!   ([`SzError::WrongType`], [`SzError::Corrupt`]), after which the
//!   buffer holds unspecified values;
//! * a warm session allocates nothing.
//!
//! `decompress` is that call on a freshly allocated buffer, and the
//! chunked, region, stream and service decodes of the other crates build
//! their one output the same way, band by band:
//!
//! ```
//! use szr_core::{CodecSession, Config, ErrorBound};
//! use szr_tensor::Tensor;
//!
//! let band = Tensor::from_fn([32, 64], |ix| (ix[0] as f32 * 0.1).sin() + ix[1] as f32);
//! let mut session = CodecSession::<f32>::new(Config::new(ErrorBound::Absolute(1e-3))).unwrap();
//! let archive = session.compress(&band).unwrap();
//! let mut rows = vec![f32::NAN; band.len()];
//! session.decompress_into(&archive, &mut rows).unwrap();
//! assert_eq!(rows, session.decompress(&archive).unwrap().as_slice());
//! assert!(session.decompress_into(&archive, &mut rows[1..]).is_err());
//! ```
//!
//! ## Streaming decode
//!
//! Decompression is *fused*: a pull-based Huffman symbol decoder
//! (`szr_huffman::SymbolDecoder`) feeds quantization codes straight into
//! the [`ScanKernel`] reconstruction one wavefront group of rows at a
//! time — no band-sized symbol vector is ever materialized, each group's
//! escapes are decoded before its points are visited (and its symbols
//! checked against the alphabet where the band's table codes symbols
//! outside it), and a warm session decoding into a caller's buffer
//! allocates nothing, DEFLATE-coded bands included.
//!
//! The batched passes — the decoder's alphabet and escape counts, the
//! sampler's predictions and hit test — are plain
//! loops the compiler vectorizes at the baseline target. There is one
//! implementation of each, with no runtime dispatch: each keeps the
//! per-point expression's operation order (no FMA contraction), so
//! archives and reconstructions do not depend on the machine.
//!
//! ## One way to run the codec on caller-owned state
//!
//! The free functions ([`compress`], [`decompress`], …) build their state
//! per call. Reusing kernels, buffers and tables across calls goes through
//! [`CodecSession`] — `compress_slice`, `quantize` / `encode` for staged
//! cross-band drivers, `decompress_into` / `decompress_shared_into` and
//! their allocating wrappers — and nothing else. The reference paths the fast paths are pinned against (the
//! per-point quantizer, the staged decode) live in [`oracle`], which is
//! for tests and benches and outside the supported API.
//!
//! ## Archive integrity (v3 framing) and escape-LZ (v5/v6)
//!
//! Band archives are written in the **v3 checksummed framing**: the v1/v2
//! layout plus a CRC-32 sealing the header fields (version byte 3 for
//! self-contained archives, 4 for shared-stream ones) and a trailing
//! `table CRC · payload CRC` pair over the pre-DEFLATE Huffman block and
//! escape block. The checksums are hashed in place during the write, so
//! the fused path's 1-allocation steady state is preserved. v1/v2 archives
//! remain fully decodable — they simply carry nothing to verify.
//!
//! The DEFLATE post-pass over a band payload (Huffman block plus escape
//! section) is priced before it runs, at every payload size: a payload the
//! trial predicts to shrink by under 2% is stored raw, exactly as with
//! [`Config::lossless_pass`] off, and DEFLATE never runs over it.
//!
//! Under [`Config::escape_lz`] the encoder additionally runs the DEFLATE
//! trial over the band's escape (binary-representation) stream.
//! When the trial *wins* — the deflated escape section is strictly smaller
//! — the band is emitted with version byte **5** (self-contained) or **6**
//! (shared-stream): the v3/v4 layout with the escape section stored
//! deflated. The trailer's payload CRC still covers the *raw* escape
//! bytes, so v5/v6 verification checks the inflation end to end. Losing
//! trials (IEEE-754 fragments are usually incompressible) emit byte-
//! identical v3/v4 archives, and the flag defaults to off.
//! [`escape_lz_trial_ratio`] exposes the same trial for planners pricing
//! the flag against sample data.
//!
//! How strictly a decode treats the checksums is a [`DecodePolicy`]:
//!
//! * [`DecodePolicy::Strict`] (the default everywhere) parses and
//!   structurally validates but does not recompute CRCs — today's behavior
//!   on old archives.
//! * [`DecodePolicy::Verify`] ([`decompress_with_policy`],
//!   [`CodecSession::set_decode_policy`]) recomputes every stored CRC and
//!   rejects a mismatching section with a typed [`SzError::Corrupt`] naming
//!   it (`header: …`, `table: …`, `payload: …` — the same section names
//!   `inspect_layout` uses).
//! * [`DecodePolicy::Salvage`] lets *container* decodes (`szr-parallel`'s
//!   chunked archives, [`StreamDecompressor`]) decode every intact band,
//!   fill damaged bands with a declared value, and report the damage as a
//!   [`SalvageReport`] instead of failing the whole decode.
//!
//! Every decode entry point also bounds untrusted-header allocations: a
//! declared element count implausible for the archive's actual byte length
//! is rejected before any output vector is sized from it. `szr verify`
//! exposes the full integrity walk (structure + checksums, no value
//! reconstruction) on the command line.

mod compress;
mod config;
mod decompress;
mod float;
mod kernel;
#[doc(hidden)]
pub mod oracle;
mod predict;
mod pwrel;
mod quant;
mod session;
mod stats;
mod stream;
mod unpred;

pub use compress::{
    compress, compress_slice_with_stats, compress_with_stats, escape_lz_trial_ratio,
    CompressionStats, HuffmanTable, QuantizedBand,
};
pub use config::{Config, ErrorBound, IntervalMode};
pub use decompress::{
    check_declared_len, decompress, decompress_with_policy, inspect, inspect_grid, inspect_layout,
    ArchiveInfo, BandDamage, BandGrid, BandLayout, DecodePolicy, SalvageReport,
};
pub use float::ScalarFloat;
pub use kernel::{KernelKind, RowVisitor, ScanKernel};
pub use predict::{layer_coefficients, predict_at, Stencil, StencilSet};
pub use pwrel::{compress_pointwise_rel, decompress_pointwise_rel, verify_pointwise_rel};
pub use quant::choose_interval_bits;
pub use session::{covering_codec, CodecSession};
pub use stats::{hit_rate_by_layer, quantization_histogram, PredictionBasis};
pub use stream::{StreamCompressor, StreamDecompressor};
pub use unpred::UnpredictableCodec;

/// Errors surfaced by compression and decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SzError {
    /// The configuration is unusable (message explains the field).
    InvalidConfig(&'static str),
    /// The archive bytes are malformed or truncated.
    Corrupt(String),
    /// The archive encodes a different scalar type than requested.
    WrongType {
        expected: &'static str,
        found: &'static str,
    },
    /// A decode into a caller's buffer was handed a buffer whose length
    /// is not the archive's declared element count.
    OutputLength {
        /// Elements the archive header declares.
        expected: usize,
        /// Elements the caller's buffer holds.
        found: usize,
    },
}

impl std::fmt::Display for SzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SzError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SzError::Corrupt(msg) => write!(f, "corrupt archive: {msg}"),
            SzError::WrongType { expected, found } => {
                write!(f, "archive holds {found} data, requested {expected}")
            }
            SzError::OutputLength { expected, found } => {
                write!(f, "archive holds {expected} values, output buffer {found}")
            }
        }
    }
}

impl std::error::Error for SzError {}

impl From<szr_bitstream::Error> for SzError {
    fn from(e: szr_bitstream::Error) -> Self {
        SzError::Corrupt(e.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SzError>;

#[cfg(test)]
mod proptests;
