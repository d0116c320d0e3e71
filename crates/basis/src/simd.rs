//! f64 SIMD lane abstraction with runtime feature dispatch.
//!
//! The CPU analogue of the paper's vendor-tuned device kernels (§5.1):
//! every hot vector kernel in the solver routes through this module, which
//! picks between an AVX2+FMA code path (via `is_x86_feature_detected!`)
//! and a portable scalar path at process start, then holds that choice
//! fixed for the lifetime of the process.
//!
//! # The pinned lane-accumulation contract
//!
//! Bitwise reproducibility across runs, thread counts and elastic restarts
//! requires that the *rounding sequence* of every kernel is a pure
//! function of its inputs — never of the instruction set that happens to
//! execute it. This module pins one contract and implements it twice:
//!
//! 1. **Virtual lanes.** A slice of length `n` is processed as
//!    `n / 4` four-wide lane blocks in ascending order, then a scalar
//!    tail over the remaining `n % 4` elements in ascending index order.
//! 2. **Fused multiply-add everywhere.** Every multiply-accumulate is a
//!    single-rounding `f64::mul_add`. The AVX2 path compiles the same
//!    expression to `vfmadd` instructions; IEEE-754 fused semantics make
//!    the two bit-identical by construction, not by testing.
//! 3. **Pinned horizontal order.** Reductions keep four independent lane
//!    accumulators `l0..l3` (lane `j` accumulates indices `i ≡ j mod 4`
//!    of the block sweep) and combine them as `(l0 + l1) + (l2 + l3)`,
//!    then fold the tail elements in ascending index order onto that sum.
//! 4. **Pointwise kernels are order-free.** `axpy`/`xpby`/`hadamard` and
//!    the metric-combine kernels compute each output element from its own
//!    inputs only, so they may be applied to any subrange partition (the
//!    worker pool's disjoint chunks) without changing a single bit.
//!
//! The scalar path is therefore not a "close enough" fallback: it is the
//! *same function* in the mathematical sense, merely slower (scalar
//! `mul_add` may lower to a libm call on targets without FMA hardware).
//! `tests` assert the bitwise agreement; the dispatcher can be forced with
//! the `RBX_SIMD` environment variable (`scalar` or `avx2`) read once at
//! first use, which keeps the selection constant for the whole run — the
//! property the elastic-restart replay contract depends on.

use std::sync::OnceLock;

/// Virtual lane width (f64 elements per SIMD block).
pub const LANES: usize = 4;

/// The instruction-set level the dispatcher selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// 256-bit AVX2 with fused multiply-add.
    Avx2Fma,
    /// Portable scalar code with per-virtual-lane `f64::mul_add`.
    Scalar,
}

impl SimdLevel {
    /// Stable human-readable name (recorded in telemetry/bench metadata).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Avx2Fma => "avx2+fma",
            SimdLevel::Scalar => "scalar",
        }
    }
}

static LEVEL: OnceLock<SimdLevel> = OnceLock::new();

/// The process-wide kernel level: detected once on first use and held
/// fixed for the rest of the run (set `RBX_SIMD=scalar` to force the
/// portable path, `RBX_SIMD=avx2` to insist on the vector path).
pub fn level() -> SimdLevel {
    *LEVEL.get_or_init(|| {
        match std::env::var("RBX_SIMD").as_deref() {
            Ok("scalar") => return SimdLevel::Scalar,
            Ok("avx2") => return SimdLevel::Avx2Fma,
            _ => {}
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx2Fma;
            }
        }
        SimdLevel::Scalar
    })
}

/// Convenience for metadata sinks.
pub fn level_name() -> &'static str {
    level().name()
}

// ---------------------------------------------------------------------------
// Kernel bodies — written once, instantiated for both levels.
//
// Each `*_body` below is `#[inline(always)]` and expressed in virtual
// lanes; the `_avx2` twin is the same body compiled under
// `#[target_feature(enable = "avx2,fma")]`, where LLVM turns the lane
// arrays into ymm registers and the `mul_add` calls into vfmadd. Because
// `mul_add` has single-rounding semantics on both paths, the results are
// bitwise identical.
// ---------------------------------------------------------------------------

/// Macro generating the scalar entry, the AVX2 entry and the dispatching
/// public wrapper for one kernel body.
macro_rules! dispatch_kernel {
    ($(#[$doc:meta])* $name:ident, $scalar:ident, $avx2:ident, $body:ident,
     ($($arg:ident : $ty:ty),*)) => {
        $(#[$doc])*
        #[inline]
        #[allow(clippy::too_many_arguments)]
        pub fn $name($($arg: $ty),*) {
            match level() {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2Fma => {
                    // SAFETY: the dispatcher only returns Avx2Fma after
                    // `is_x86_feature_detected!` confirmed avx2 and fma
                    // (or the user forced it via RBX_SIMD on matching
                    // hardware).
                    unsafe { $avx2($($arg),*) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                SimdLevel::Avx2Fma => $body($($arg),*),
                SimdLevel::Scalar => $body($($arg),*),
            }
        }

        /// Portable-path twin of the dispatched kernel, exposed so tests
        /// can assert the bitwise lane contract without re-running the
        /// process under `RBX_SIMD=scalar`.
        #[inline]
        #[allow(clippy::too_many_arguments)]
        pub fn $scalar($($arg: $ty),*) {
            $body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        #[allow(clippy::too_many_arguments)]
        // SAFETY: callers must have verified avx2+fma support; the only
        // caller is the dispatcher above, which checks via `level()`.
        unsafe fn $avx2($($arg: $ty),*) {
            $body($($arg),*)
        }
    };
}

// --- dot products -----------------------------------------------------------

#[inline(always)]
pub(crate) fn dot_body_impl(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let blocks = n / LANES;
    let mut acc = [0.0f64; LANES];
    for blk in 0..blocks {
        let i = blk * LANES;
        for j in 0..LANES {
            acc[j] = a[i + j].mul_add(b[i + j], acc[j]);
        }
    }
    // Pinned horizontal order: (l0 + l1) + (l2 + l3), then the tail in
    // ascending index order.
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in blocks * LANES..n {
        s = a[i].mul_add(b[i], s);
    }
    s
}

#[inline(always)]
fn dot3_body_impl(a: &[f64], b: &[f64], w: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), w.len());
    let n = a.len().min(b.len()).min(w.len());
    let blocks = n / LANES;
    let mut acc = [0.0f64; LANES];
    for blk in 0..blocks {
        let i = blk * LANES;
        for j in 0..LANES {
            acc[j] = (a[i + j] * b[i + j]).mul_add(w[i + j], acc[j]);
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in blocks * LANES..n {
        s = (a[i] * b[i]).mul_add(w[i], s);
    }
    s
}

/// Lane-contract dot product `Σ a·b`. Returns-by-value kernels cannot use
/// the dispatch macro (it generates `()` signatures), so dispatch by hand.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only selected after feature detection.
        SimdLevel::Avx2Fma => unsafe { dot_avx2(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2Fma => dot_body_impl(a, b),
        SimdLevel::Scalar => dot_body_impl(a, b),
    }
}

/// Portable-path twin of [`dot`] (bitwise identical by the lane contract).
#[inline]
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    dot_body_impl(a, b)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
// SAFETY: callers must have verified avx2+fma support (the `dot`
// dispatcher checks via `level()`).
unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    dot_body_impl(a, b)
}

/// Lane-contract weighted dot product `Σ (a·b)·w` — the solver inner
/// product with inverse-multiplicity weights.
#[inline]
pub fn dot3(a: &[f64], b: &[f64], w: &[f64]) -> f64 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only selected after feature detection.
        SimdLevel::Avx2Fma => unsafe { dot3_avx2(a, b, w) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2Fma => dot3_body_impl(a, b, w),
        SimdLevel::Scalar => dot3_body_impl(a, b, w),
    }
}

/// Portable-path twin of [`dot3`].
#[inline]
pub fn dot3_scalar(a: &[f64], b: &[f64], w: &[f64]) -> f64 {
    dot3_body_impl(a, b, w)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
// SAFETY: callers must have verified avx2+fma support (the `dot3`
// dispatcher checks via `level()`).
unsafe fn dot3_avx2(a: &[f64], b: &[f64], w: &[f64]) -> f64 {
    dot3_body_impl(a, b, w)
}

// --- pointwise kernels (order-free, subrange-safe) --------------------------

#[inline(always)]
fn axpy_body(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = a.mul_add(xi, *yi);
    }
}

#[inline(always)]
fn xpby_body(x: &[f64], b: f64, y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = b.mul_add(*yi, xi);
    }
}

#[inline(always)]
fn hadamard_body(x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi *= xi;
    }
}

#[inline(always)]
fn fma_acc_body(a: &[f64], b: &[f64], acc: &mut [f64]) {
    debug_assert_eq!(a.len(), acc.len());
    debug_assert_eq!(b.len(), acc.len());
    for ((s, &ai), &bi) in acc.iter_mut().zip(a).zip(b) {
        *s = ai.mul_add(bi, *s);
    }
}

#[inline(always)]
fn combine3_body(
    out: &mut [f64],
    a0: &[f64],
    x0: &[f64],
    a1: &[f64],
    x1: &[f64],
    a2: &[f64],
    x2: &[f64],
) {
    let n = out.len();
    debug_assert!(a0.len() >= n && x0.len() >= n);
    debug_assert!(a1.len() >= n && x1.len() >= n);
    debug_assert!(a2.len() >= n && x2.len() >= n);
    // Pinned per-element chain: o = a0·x0 + (a1·x1 + a2·x2), innermost
    // product first, each step one fused rounding.
    for i in 0..n {
        let t = a1[i].mul_add(x1[i], a2[i] * x2[i]);
        out[i] = a0[i].mul_add(x0[i], t);
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn wcombine3_body(
    out: &mut [f64],
    w: &[f64],
    a0: &[f64],
    x0: &[f64],
    a1: &[f64],
    x1: &[f64],
    a2: &[f64],
    x2: &[f64],
) {
    let n = out.len();
    debug_assert!(w.len() >= n);
    for i in 0..n {
        let t = a1[i].mul_add(x1[i], a2[i] * x2[i]);
        out[i] = w[i] * a0[i].mul_add(x0[i], t);
    }
}

#[inline(always)]
fn masked_div_body(diag: &[f64], mask: &[f64], r: &[f64], z: &mut [f64]) {
    debug_assert_eq!(diag.len(), z.len());
    debug_assert_eq!(mask.len(), z.len());
    debug_assert_eq!(r.len(), z.len());
    // Divide every lane, then select: division is exactly rounded at any
    // width, and the select keeps the loop free of branches.
    for (((zi, &ri), &di), &mi) in z.iter_mut().zip(r).zip(diag).zip(mask) {
        let q = ri / di;
        *zi = if mi != 0.0 { q } else { 0.0 };
    }
}

dispatch_kernel!(
    /// Pointwise `y ← a·x + y` with fused rounding per element.
    axpy, axpy_scalar, axpy_avx2, axpy_body, (a: f64, x: &[f64], y: &mut [f64])
);

dispatch_kernel!(
    /// Pointwise `y ← x + b·y` with fused rounding per element.
    xpby, xpby_scalar, xpby_avx2, xpby_body, (x: &[f64], b: f64, y: &mut [f64])
);

dispatch_kernel!(
    /// Pointwise product `y ← x ∘ y` (single rounding per element already).
    hadamard, hadamard_scalar, hadamard_avx2, hadamard_body, (x: &[f64], y: &mut [f64])
);

dispatch_kernel!(
    /// Pointwise masked divide `z ← r / diag` where `mask ≠ 0`, `0`
    /// elsewhere — the Jacobi preconditioner.
    masked_div, masked_div_scalar, masked_div_avx2, masked_div_body,
    (diag: &[f64], mask: &[f64], r: &[f64], z: &mut [f64])
);

dispatch_kernel!(
    /// Pointwise fused accumulate `acc ← a ∘ b + acc` — the dealiased
    /// advection product loop.
    fma_acc, fma_acc_scalar, fma_acc_avx2, fma_acc_body, (a: &[f64], b: &[f64], acc: &mut [f64])
);

dispatch_kernel!(
    /// Pointwise metric combine `out ← a0∘x0 + a1∘x1 + a2∘x2` — the
    /// chain-rule step of the physical gradient.
    combine3, combine3_scalar, combine3_avx2, combine3_body,
    (out: &mut [f64], a0: &[f64], x0: &[f64], a1: &[f64], x1: &[f64], a2: &[f64], x2: &[f64])
);

dispatch_kernel!(
    /// Weighted metric combine `out ← w ∘ (a0∘x0 + a1∘x1 + a2∘x2)` — the
    /// weak-divergence integrand.
    wcombine3, wcombine3_scalar, wcombine3_avx2, wcombine3_body,
    (out: &mut [f64], w: &[f64], a0: &[f64], x0: &[f64],
     a1: &[f64], x1: &[f64], a2: &[f64], x2: &[f64])
);

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn level_is_stable_and_named() {
        let l = level();
        assert_eq!(l, level(), "level must be fixed for the process");
        assert!(!level_name().is_empty());
    }

    #[test]
    fn dispatched_matches_scalar_bitwise() {
        // Odd lengths exercise the tail path; the dispatched kernels must
        // agree with the portable twins to the last bit (the lane
        // contract), whatever level the host selected.
        for n in [1usize, 3, 4, 7, 64, 1001] {
            let a = vec_of(n, 1);
            let b = vec_of(n, 2);
            let w = vec_of(n, 3);
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_scalar(&a, &b).to_bits(),
                "dot n={n}"
            );
            assert_eq!(
                dot3(&a, &b, &w).to_bits(),
                dot3_scalar(&a, &b, &w).to_bits(),
                "dot3 n={n}"
            );
            let mut y1 = w.clone();
            let mut y2 = w.clone();
            axpy(0.37, &a, &mut y1);
            axpy_scalar(0.37, &a, &mut y2);
            assert_eq!(y1, y2, "axpy n={n}");
            xpby(&a, -1.3, &mut y1);
            xpby_scalar(&a, -1.3, &mut y2);
            assert_eq!(y1, y2, "xpby n={n}");
            hadamard(&a, &mut y1);
            hadamard_scalar(&a, &mut y2);
            assert_eq!(y1, y2, "hadamard n={n}");
            fma_acc(&a, &b, &mut y1);
            fma_acc_scalar(&a, &b, &mut y2);
            assert_eq!(y1, y2, "fma_acc n={n}");
            let mut o1 = vec![0.0; n];
            let mut o2 = vec![0.0; n];
            combine3(&mut o1, &a, &b, &b, &w, &w, &a);
            combine3_scalar(&mut o2, &a, &b, &b, &w, &w, &a);
            assert_eq!(o1, o2, "combine3 n={n}");
            wcombine3(&mut o1, &w, &a, &b, &b, &w, &w, &a);
            wcombine3_scalar(&mut o2, &w, &a, &b, &b, &w, &w, &a);
            assert_eq!(o1, o2, "wcombine3 n={n}");
        }
    }

    #[test]
    fn dot_agrees_with_naive_to_rounding() {
        let n = 4097;
        let a = vec_of(n, 11);
        let b = vec_of(n, 13);
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let fast = dot(&a, &b);
        assert!(
            (naive - fast).abs() <= 1e-12 * naive.abs().max(1.0),
            "{naive} vs {fast}"
        );
    }

    #[test]
    fn pointwise_kernels_are_subrange_safe() {
        // Applying a pointwise kernel chunk-by-chunk must reproduce the
        // whole-slice bits exactly — the property the worker pool's
        // disjoint-chunk dispatch relies on.
        let n = 533;
        let x = vec_of(n, 5);
        let y0 = vec_of(n, 6);
        let mut whole = y0.clone();
        axpy(2.5, &x, &mut whole);
        let mut chunked = y0.clone();
        for (s, e) in [(0usize, 100usize), (100, 101), (101, 400), (400, n)] {
            axpy(2.5, &x[s..e], &mut chunked[s..e]);
        }
        assert_eq!(whole, chunked);
    }
}
