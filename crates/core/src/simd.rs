//! Explicit SIMD kernels for the scan hot paths, with runtime dispatch.
//!
//! The row engine's partial-sum fills, the sampler's hit-test `k` pass, and
//! the fused decoder's code→offset expansion all run long contiguous slice
//! loops. This module replaces reliance on autovectorization with explicit
//! `core::arch` x86-64 kernels — SSE2 for the pure multiply/add term passes,
//! AVX2 for everything (including the integer helpers SSE2 lacks) — behind a
//! runtime-detected dispatch level with a scalar fallback that is the
//! reference implementation on every other architecture.
//!
//! # Numerical identity policy
//!
//! Every SIMD kernel is **bit-identical** to its scalar fallback: same
//! per-lane operation order, plain mul-then-add (never fused multiply-add,
//! whose single rounding would diverge from the scalar path), division left
//! to the correctly-rounded hardware divide, and `round()` emulated as
//! truncate-then-adjust so half-away-from-zero ties match Rust's `f64::round`
//! (including NaN/∞ propagation). The unit tests pin each kernel against the
//! scalar reference over awkward lengths and special values.
//!
//! # Dispatch policy
//!
//! The level is detected once (`is_x86_feature_detected!`) and cached.
//! `SZR_FORCE_SCALAR=1` in the environment forces the scalar fallback for
//! the whole process (the CI SIMD-correctness job); [`force_scalar`] toggles
//! it in-process so benches can measure both paths in one run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Dispatch level for the slice kernels, from narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimdLevel {
    Scalar,
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Sse2,
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx2,
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);
static LEVEL: OnceLock<SimdLevel> = OnceLock::new();

fn base_level() -> SimdLevel {
    *LEVEL.get_or_init(|| {
        if std::env::var_os("SZR_FORCE_SCALAR").is_some_and(|v| v == "1") {
            FORCE_SCALAR.store(true, Ordering::Relaxed);
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                SimdLevel::Avx2
            } else {
                // SSE2 is part of the x86-64 baseline.
                SimdLevel::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdLevel::Scalar
        }
    })
}

/// The effective dispatch level for this call.
#[inline]
pub(crate) fn level() -> SimdLevel {
    let base = base_level();
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        SimdLevel::Scalar
    } else {
        base
    }
}

/// Human-readable name of the effective dispatch level (`"scalar"`,
/// `"sse2"`, `"avx2"`) — what the telemetry layer reports as the SIMD path
/// taken for the scan/decode batch kernels.
pub fn level_name() -> &'static str {
    match level() {
        SimdLevel::Scalar => "scalar",
        SimdLevel::Sse2 => "sse2",
        SimdLevel::Avx2 => "avx2",
    }
}

/// Forces (or releases) the scalar fallback process-wide. Exposed for the
/// SIMD-vs-scalar benches and the CI scalar-correctness job; not part of the
/// stable API.
#[doc(hidden)]
pub fn force_scalar(on: bool) {
    base_level(); // seed the cached detection (and the env override) first
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Scalar reference kernels. These loops are the semantics; the SIMD paths
// below replicate them lane for lane.
// ---------------------------------------------------------------------------

macro_rules! scalar_kernels {
    ($mod_name:ident, $t:ty) => {
        mod $mod_name {
            pub(super) fn term_set(dst: &mut [f64], src: &[$t], c: f64) {
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d = c * v as f64;
                }
            }

            pub(super) fn term_add(dst: &mut [f64], src: &[$t], c: f64) {
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d += c * v as f64;
                }
            }

            pub(super) fn k_pass(ks: &mut [f64], vals: &[$t], preds: &[f64], two_eb: f64) {
                for i in 0..ks.len() {
                    ks[i] = ((vals[i] as f64 - preds[i]) / two_eb).round().abs();
                }
            }
        }
    };
}

scalar_kernels!(scalar_f32, f32);
scalar_kernels!(scalar_f64, f64);

fn codes_to_offsets_scalar(codes: &[u32], out: &mut [f64], two_eb: f64, half: i64) {
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = two_eb * ((c as i64 - half) as f64);
    }
}

fn codes_max_scalar(codes: &[u32]) -> u32 {
    codes.iter().copied().max().unwrap_or(0)
}

fn count_zeros_scalar(codes: &[u32]) -> usize {
    codes.iter().filter(|&&c| c == 0).count()
}

// ---------------------------------------------------------------------------
// x86-64 kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    const ABS_MASK: i64 = 0x7FFF_FFFF_FFFF_FFFFu64 as i64;

    /// Loads 4 lanes at `p`, widened to f64 (exact for f32 sources).
    #[inline(always)]
    unsafe fn load4_f64(p: *const f64) -> __m256d {
        unsafe { _mm256_loadu_pd(p) }
    }

    #[inline(always)]
    unsafe fn load4_f32(p: *const f32) -> __m256d {
        unsafe { _mm256_cvtps_pd(_mm_loadu_ps(p)) }
    }

    macro_rules! avx2_kernels {
        ($mod_name:ident, $t:ty, $load4:ident) => {
            pub(super) mod $mod_name {
                use super::*;

                #[target_feature(enable = "avx2")]
                pub(in super::super) fn term_set(dst: &mut [f64], src: &[$t], c: f64) {
                    let n = dst.len();
                    let cv = _mm256_set1_pd(c);
                    let mut i = 0;
                    while i + 4 <= n {
                        let v = unsafe { $load4(src.as_ptr().add(i)) };
                        let r = _mm256_mul_pd(cv, v);
                        unsafe { _mm256_storeu_pd(dst.as_mut_ptr().add(i), r) };
                        i += 4;
                    }
                    while i < n {
                        dst[i] = c * src[i] as f64;
                        i += 1;
                    }
                }

                #[target_feature(enable = "avx2")]
                pub(in super::super) fn term_add(dst: &mut [f64], src: &[$t], c: f64) {
                    let n = dst.len();
                    let cv = _mm256_set1_pd(c);
                    let mut i = 0;
                    while i + 4 <= n {
                        let v = unsafe { $load4(src.as_ptr().add(i)) };
                        let acc = unsafe { load4_f64(dst.as_ptr().add(i)) };
                        // mul then add, matching the scalar `*d += c * v`
                        // rounding (no FMA contraction).
                        let r = _mm256_add_pd(acc, _mm256_mul_pd(cv, v));
                        unsafe { _mm256_storeu_pd(dst.as_mut_ptr().add(i), r) };
                        i += 4;
                    }
                    while i < n {
                        dst[i] += c * src[i] as f64;
                        i += 1;
                    }
                }

                #[target_feature(enable = "avx2")]
                pub(in super::super) fn k_pass(
                    ks: &mut [f64],
                    vals: &[$t],
                    preds: &[f64],
                    two_eb: f64,
                ) {
                    let n = ks.len();
                    let ebv = _mm256_set1_pd(two_eb);
                    let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(ABS_MASK));
                    let halfv = _mm256_set1_pd(0.5);
                    let onev = _mm256_set1_pd(1.0);
                    let mut i = 0;
                    while i + 4 <= n {
                        let v = unsafe { $load4(vals.as_ptr().add(i)) };
                        let p = unsafe { load4_f64(preds.as_ptr().add(i)) };
                        let d = _mm256_div_pd(_mm256_sub_pd(v, p), ebv);
                        // round() = half away from zero: truncate, then add
                        // ±1 where the (exact) fraction's magnitude ≥ 0.5.
                        // NaN/∞ flow through: trunc(NaN)=NaN, ∞-∞=NaN makes
                        // the compare false so ∞ stays ∞.
                        let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(d);
                        let frac = _mm256_sub_pd(d, t);
                        let frac_abs = _mm256_and_pd(frac, abs_mask);
                        let bump = _mm256_cmp_pd::<_CMP_GE_OQ>(frac_abs, halfv);
                        let signed_one = _mm256_or_pd(onev, _mm256_andnot_pd(abs_mask, d));
                        let rounded = _mm256_add_pd(t, _mm256_and_pd(signed_one, bump));
                        let k = _mm256_and_pd(rounded, abs_mask);
                        unsafe { _mm256_storeu_pd(ks.as_mut_ptr().add(i), k) };
                        i += 4;
                    }
                    while i < n {
                        ks[i] = ((vals[i] as f64 - preds[i]) / two_eb).round().abs();
                        i += 1;
                    }
                }
            }
        };
    }

    avx2_kernels!(avx2_f32, f32, load4_f32);
    avx2_kernels!(avx2_f64, f64, load4_f64);

    // SSE2 (the x86-64 baseline): 2-wide f64 term passes. The f32 sources
    // are widened lane by lane (`_mm_set_pd` of exact conversions) — the
    // arithmetic still runs 2-wide. The k-pass and integer helpers need
    // SSE4.1+ rounding / epu32 ops, so pre-AVX2 machines take the scalar
    // fallback for those.

    #[inline(always)]
    unsafe fn load2_f64(p: *const f64) -> __m128d {
        unsafe { _mm_loadu_pd(p) }
    }

    #[inline(always)]
    unsafe fn load2_f32(p: *const f32) -> __m128d {
        unsafe { _mm_set_pd(*p.add(1) as f64, *p as f64) }
    }

    macro_rules! sse2_kernels {
        ($mod_name:ident, $t:ty, $load2:ident) => {
            pub(super) mod $mod_name {
                use super::*;

                pub(in super::super) fn term_set(dst: &mut [f64], src: &[$t], c: f64) {
                    let n = dst.len();
                    let cv = unsafe { _mm_set1_pd(c) };
                    let mut i = 0;
                    while i + 2 <= n {
                        unsafe {
                            let v = $load2(src.as_ptr().add(i));
                            _mm_storeu_pd(dst.as_mut_ptr().add(i), _mm_mul_pd(cv, v));
                        }
                        i += 2;
                    }
                    while i < n {
                        dst[i] = c * src[i] as f64;
                        i += 1;
                    }
                }

                pub(in super::super) fn term_add(dst: &mut [f64], src: &[$t], c: f64) {
                    let n = dst.len();
                    let cv = unsafe { _mm_set1_pd(c) };
                    let mut i = 0;
                    while i + 2 <= n {
                        unsafe {
                            let v = $load2(src.as_ptr().add(i));
                            let acc = load2_f64(dst.as_ptr().add(i));
                            let r = _mm_add_pd(acc, _mm_mul_pd(cv, v));
                            _mm_storeu_pd(dst.as_mut_ptr().add(i), r);
                        }
                        i += 2;
                    }
                    while i < n {
                        dst[i] += c * src[i] as f64;
                        i += 1;
                    }
                }
            }
        };
    }

    sse2_kernels!(sse2_f32, f32, load2_f32);
    sse2_kernels!(sse2_f64, f64, load2_f64);

    /// `out[i] = two_eb * (codes[i] - half)` — the reconstruction offsets of
    /// a code row. Codes and `half` fit in i32 (interval bits ≤ 30), so the
    /// i32→f64 convert is exact and matches the scalar `(c as i64 - half)`.
    #[target_feature(enable = "avx2")]
    pub(super) fn codes_to_offsets(codes: &[u32], out: &mut [f64], two_eb: f64, half: i64) {
        let n = out.len();
        let halfv = _mm_set1_epi32(half as i32);
        let ebv = _mm256_set1_pd(two_eb);
        let mut i = 0;
        while i + 4 <= n {
            let c = unsafe { _mm_loadu_si128(codes.as_ptr().add(i) as *const __m128i) };
            let diff = _mm_sub_epi32(c, halfv);
            let d = _mm256_cvtepi32_pd(diff);
            unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_mul_pd(ebv, d)) };
            i += 4;
        }
        while i < n {
            out[i] = two_eb * ((codes[i] as i64 - half) as f64);
            i += 1;
        }
    }

    /// Maximum code in the row (0 for an empty row).
    #[target_feature(enable = "avx2")]
    pub(super) fn codes_max(codes: &[u32]) -> u32 {
        let n = codes.len();
        let mut best = _mm256_setzero_si256();
        let mut i = 0;
        while i + 8 <= n {
            let c = unsafe { _mm256_loadu_si256(codes.as_ptr().add(i) as *const __m256i) };
            best = _mm256_max_epu32(best, c);
            i += 8;
        }
        let mut lanes = [0u32; 8];
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, best) };
        let mut max = lanes.iter().copied().max().unwrap_or(0);
        while i < n {
            max = max.max(codes[i]);
            i += 1;
        }
        max
    }

    /// Number of zero codes (escapes) in the row.
    #[target_feature(enable = "avx2")]
    pub(super) fn count_zeros(codes: &[u32]) -> usize {
        let n = codes.len();
        let zero = _mm256_setzero_si256();
        let mut total = 0usize;
        let mut i = 0;
        while i + 8 <= n {
            let c = unsafe { _mm256_loadu_si256(codes.as_ptr().add(i) as *const __m256i) };
            let eq = _mm256_cmpeq_epi32(c, zero);
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32;
            total += mask.count_ones() as usize;
            i += 8;
        }
        while i < n {
            total += (codes[i] == 0) as usize;
            i += 1;
        }
        total
    }
}

// ---------------------------------------------------------------------------
// Dispatching entry points. Each picks the widest available kernel; the
// scalar arm doubles as the non-x86 implementation.
// ---------------------------------------------------------------------------

macro_rules! dispatch_float {
    ($t:ty, $scalar:ident, $sse2:ident, $avx2:ident) => {
        impl FloatSimd for $t {
            fn term_set(dst: &mut [f64], src: &[$t], c: f64) {
                match level() {
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx2 => unsafe { x86::$avx2::term_set(dst, src, c) },
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Sse2 => x86::$sse2::term_set(dst, src, c),
                    _ => $scalar::term_set(dst, src, c),
                }
            }

            fn term_add(dst: &mut [f64], src: &[$t], c: f64) {
                match level() {
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx2 => unsafe { x86::$avx2::term_add(dst, src, c) },
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Sse2 => x86::$sse2::term_add(dst, src, c),
                    _ => $scalar::term_add(dst, src, c),
                }
            }

            fn k_pass(ks: &mut [f64], vals: &[$t], preds: &[f64], two_eb: f64) {
                match level() {
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx2 => unsafe { x86::$avx2::k_pass(ks, vals, preds, two_eb) },
                    _ => $scalar::k_pass(ks, vals, preds, two_eb),
                }
            }
        }
    };
}

/// The per-element-type SIMD entry points (implemented for `f32`/`f64`,
/// dispatched through [`crate::ScalarFloat`]'s default methods).
pub(crate) trait FloatSimd: Sized {
    fn term_set(dst: &mut [f64], src: &[Self], c: f64);
    fn term_add(dst: &mut [f64], src: &[Self], c: f64);
    fn k_pass(ks: &mut [f64], vals: &[Self], preds: &[f64], two_eb: f64);
}

dispatch_float!(f32, scalar_f32, sse2_f32, avx2_f32);
dispatch_float!(f64, scalar_f64, sse2_f64, avx2_f64);

/// `out[i] = two_eb * (codes[i] - half)` — a quantized row's reconstruction
/// offsets, bit-identical to `Quantizer::reconstruct`'s
/// `2·eb · (code − half)` factor.
pub(crate) fn codes_to_offsets(codes: &[u32], out: &mut [f64], two_eb: f64, half: i64) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::codes_to_offsets(codes, out, two_eb, half) },
        _ => codes_to_offsets_scalar(codes, out, two_eb, half),
    }
}

/// Maximum code in a row (0 when empty) — the fused decoder's batched
/// alphabet-bound check.
pub(crate) fn codes_max(codes: &[u32]) -> u32 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::codes_max(codes) },
        _ => codes_max_scalar(codes),
    }
}

/// Number of zero (escape) codes in a row.
pub(crate) fn count_zeros(codes: &[u32]) -> usize {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::count_zeros(codes) },
        _ => count_zeros_scalar(codes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Awkward lengths around every vector width and tail combination.
    const LENS: [usize; 12] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33];

    fn f64_data(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt) as i64;
                (x as f64) * 1e-17 + (i as f64) * 0.37 - 3.0
            })
            .collect()
    }

    fn f32_data(n: usize, salt: u64) -> Vec<f32> {
        f64_data(n, salt).iter().map(|&v| v as f32).collect()
    }

    /// Runs `f` once with SIMD dispatch and once with the scalar fallback
    /// forced, returning both results.
    fn both<R>(mut f: impl FnMut() -> R) -> (R, R) {
        force_scalar(false);
        let simd = f();
        force_scalar(true);
        let scalar = f();
        force_scalar(false);
        (simd, scalar)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn term_passes_match_scalar_bit_for_bit() {
        for &n in &LENS {
            let a64 = f64_data(n, 1);
            let a32 = f32_data(n, 3);
            let mut dst = vec![0.0f64; n];

            macro_rules! check {
                ($name:expr, $run:expr) => {{
                    let (s, r) = both(|| {
                        dst.iter_mut().for_each(|d| *d = 0.125);
                        $run;
                        bits(&dst)
                    });
                    assert_eq!(s, r, "{} diverged at n={}", $name, n);
                }};
            }

            check!("term_set/f64", f64::term_set(&mut dst, &a64, 1.75));
            check!("term_set/f32", f32::term_set(&mut dst, &a32, -0.3));
            check!("term_add/f64", f64::term_add(&mut dst, &a64, 2.5));
            check!("term_add/f32", f32::term_add(&mut dst, &a32, -1.1));
        }
    }

    /// On an AVX2 machine the dispatcher never picks SSE2, so pin the SSE2
    /// kernels against the scalar reference directly.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_kernels_match_scalar_bit_for_bit() {
        for &n in &LENS {
            let a64 = f64_data(n, 31);
            let a32 = f32_data(n, 33);
            let mut got = vec![0.125f64; n];
            let mut want = vec![0.125f64; n];

            macro_rules! pin {
                ($name:expr, $sse2:expr, $scalar:expr) => {{
                    got.iter_mut().for_each(|d| *d = 0.125);
                    want.iter_mut().for_each(|d| *d = 0.125);
                    $sse2;
                    $scalar;
                    assert_eq!(bits(&got), bits(&want), "{} diverged at n={}", $name, n);
                }};
            }

            pin!(
                "sse2 term_set/f64",
                x86::sse2_f64::term_set(&mut got, &a64, 1.75),
                scalar_f64::term_set(&mut want, &a64, 1.75)
            );
            pin!(
                "sse2 term_set/f32",
                x86::sse2_f32::term_set(&mut got, &a32, -0.3),
                scalar_f32::term_set(&mut want, &a32, -0.3)
            );
            pin!(
                "sse2 term_add/f64",
                x86::sse2_f64::term_add(&mut got, &a64, 2.5),
                scalar_f64::term_add(&mut want, &a64, 2.5)
            );
            pin!(
                "sse2 term_add/f32",
                x86::sse2_f32::term_add(&mut got, &a32, -1.1),
                scalar_f32::term_add(&mut want, &a32, -1.1)
            );
        }
    }

    #[test]
    fn k_pass_matches_scalar_including_ties_and_specials() {
        // Half-integer ties exercise the away-from-zero emulation; NaN/∞
        // exercise propagation.
        let vals: Vec<f64> = vec![
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999,
            -0.50000001,
            3.0,
            -3.0,
            1e300,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1e-300,
        ];
        let preds = vec![0.0f64; vals.len()];
        for &two_eb in &[1.0, 0.125, 3.7e-5] {
            let mut ks = vec![0.0f64; vals.len()];
            let (s, r) = both(|| {
                f64::k_pass(&mut ks, &vals, &preds, two_eb);
                bits(&ks)
            });
            assert_eq!(s, r, "k_pass specials diverged (two_eb={two_eb})");
        }
        for &n in &LENS {
            let vals = f32_data(n, 7);
            let preds = f64_data(n, 8);
            let mut ks = vec![0.0f64; n];
            let (s, r) = both(|| {
                f32::k_pass(&mut ks, &vals, &preds, 2e-3);
                bits(&ks)
            });
            assert_eq!(s, r, "k_pass/f32 diverged at n={n}");
        }
    }

    #[test]
    fn integer_helpers_match_scalar() {
        for &n in &LENS {
            let codes: Vec<u32> = (0..n)
                .map(|i| {
                    let x = (i as u32).wrapping_mul(2654435761);
                    if x.is_multiple_of(5) {
                        0
                    } else {
                        x % (1 << 30)
                    }
                })
                .collect();
            let (sm, rm) = both(|| codes_max(&codes));
            assert_eq!(sm, rm, "codes_max at n={n}");
            assert_eq!(rm, codes.iter().copied().max().unwrap_or(0));
            let (sz, rz) = both(|| count_zeros(&codes));
            assert_eq!(sz, rz, "count_zeros at n={n}");
            assert_eq!(rz, codes.iter().filter(|&&c| c == 0).count());
            let mut out = vec![0.0f64; n];
            let (so, ro) = both(|| {
                codes_to_offsets(&codes, &mut out, 2.0 * 1e-3, 1 << 29);
                bits(&out)
            });
            assert_eq!(so, ro, "codes_to_offsets at n={n}");
        }
    }
}
