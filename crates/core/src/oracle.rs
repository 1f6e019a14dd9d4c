//! Reference paths the fast paths are pinned against, for tests and
//! benches only: not part of the supported API.
//!
//! * [`quantize_slice_with_kernel_oracle`] quantizes through the per-point
//!   visitor instead of the wavefront row scan;
//! * [`decompress_staged`] / [`decompress_staged_shared`] Huffman-decode the
//!   whole symbol stream before reconstructing, instead of the fused
//!   decode.
//!
//! Each produces bytes and values identical to its production counterpart;
//! corrupt archives fail on both (possibly with different messages, since
//! the fused decode stops at the first bad group).

use crate::compress::{quantize_validated_impl, QuantizedBand};
use crate::config::Config;
use crate::float::ScalarFloat;
use crate::kernel::ScanKernel;
use crate::Result;
use szr_huffman::HuffmanCodec;
use szr_tensor::{Shape, Tensor};

/// Quantizes `values` through the per-point visitor — the slow-path oracle
/// the row engine is property-tested against. The band encodes to the same
/// archive as [`crate::CodecSession::quantize`]'s.
///
/// # Errors
/// [`crate::SzError::InvalidConfig`] for an unusable `config`, or a kernel
/// whose layer count or stride family does not match `config`/`shape`.
pub fn quantize_slice_with_kernel_oracle<T: ScalarFloat>(
    values: &[T],
    shape: &Shape,
    config: &Config,
    kernel: &mut ScanKernel,
) -> Result<QuantizedBand> {
    config.validate()?;
    quantize_validated_impl(values, shape, config, kernel, true, None)
}

/// The staged decode of a self-contained archive: bit-identical to
/// [`crate::decompress`].
///
/// # Errors
/// Same conditions as [`crate::decompress`].
pub fn decompress_staged<T: ScalarFloat>(bytes: &[u8]) -> Result<Tensor<T>> {
    crate::decompress::decompress_staged(bytes, None)
}

/// The staged decode of a band whose Huffman table may live in its
/// container: bit-identical to [`crate::CodecSession::decompress_shared`].
///
/// # Errors
/// Same conditions as [`crate::CodecSession::decompress_shared`].
pub fn decompress_staged_shared<T: ScalarFloat>(
    bytes: &[u8],
    codec: &HuffmanCodec,
) -> Result<Tensor<T>> {
    crate::decompress::decompress_staged(bytes, Some(codec))
}
