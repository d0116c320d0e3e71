//! Degree-specialized fused element kernels.
//!
//! The sum-factorized Helmholtz apply used to be six separate sweeps over
//! each element (three derivatives, a metric combine, three transpose
//! accumulations); this module fuses them into two passes — grad →
//! geometric factors in one sweep, gradᵀ → mass term in the second. Every
//! contraction, here and in [`tensor3`], is a call of the register-blocked
//! body [`crate::tensor`] shares with the other contractions, with fused
//! multiply-adds in a pinned order per output (DESIGN.md §15). On AVX2
//! hosts the production node counts N = 4, 6, 8, 10, 12 run twins with a
//! compile-time N and other counts a twin with runtime bounds; the
//! portable path is the runtime-bounded body. All run the same body, so
//! the bits never depend on which instantiation executed.
//!
//! Determinism: for a fixed process the kernel level
//! ([`crate::simd::level`]) is constant, every loop nest below has a fixed
//! traversal order, and elements write disjoint output ranges — so the
//! fused apply is bitwise identical across thread counts, repeated
//! applies, and elastic restarts. The `_scalar` twins exist so tests can
//! assert the AVX2-vs-portable bit identity directly.

use crate::dense::DMat;
use crate::simd::{self, SimdLevel};
use crate::tensor::{rows, DerivMatrix, Init};
use std::hint::black_box;

/// Reusable buffers for [`helmholtz_element`]: three element-sized flux
/// fields and three plane-sized gradient slabs.
#[derive(Debug, Default)]
pub struct FusedScratch {
    wr: Vec<f64>,
    ws: Vec<f64>,
    wt: Vec<f64>,
    pr: Vec<f64>,
    ps: Vec<f64>,
    pt: Vec<f64>,
}

impl FusedScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, n: usize) {
        let nn = n * n * n;
        let plane = n * n;
        self.wr.resize(nn, 0.0);
        self.ws.resize(nn, 0.0);
        self.wt.resize(nn, 0.0);
        self.pr.resize(plane, 0.0);
        self.ps.resize(plane, 0.0);
        self.pt.resize(plane, 0.0);
    }
}

/// The fused two-pass Helmholtz element body. `d`/`dt` are the row-major
/// `n×n` derivative matrix and its transpose; `g` holds the six symmetric
/// geometric factors and `mass` the diagonal mass, all element-local
/// slices of length `n³`. Always inlined into the twins below, so a
/// compile-time `n` const-propagates. Every contraction is a call of the
/// blocked body [`rows`] with fused multiply-adds; only the metric
/// combine and the mass term are pointwise loops here.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn helm_body(
    n: usize,
    d: &[f64],
    dt: &[f64],
    g: &[&[f64]; 6],
    mass: &[f64],
    h1: f64,
    h2: f64,
    u: &[f64],
    y: &mut [f64],
    wr: &mut [f64],
    ws: &mut [f64],
    wt: &mut [f64],
    pr: &mut [f64],
    ps: &mut [f64],
    pt: &mut [f64],
) {
    let plane = n * n;
    let nn = plane * n;
    debug_assert!(u.len() >= nn && y.len() >= nn);
    debug_assert!(d.len() >= n * n && dt.len() >= n * n);

    if h1 == 0.0 {
        if h2 != 0.0 {
            for idx in 0..nn {
                y[idx] = h2 * mass[idx] * u[idx];
            }
        } else {
            y[..nn].fill(0.0);
        }
        return;
    }

    // Pass 1 — one sweep over u: reference gradient per z-plane, metric
    // combine (with h1 folded in) into the flux fields wr/ws/wt.
    let (d, dt) = (&d[..plane], &dt[..plane]);
    for (k, uk) in u[..nn].chunks_exact(plane).enumerate() {
        // ∂/∂t: pt[idx] = Σ_m D[k,m] · u[m-plane, idx].
        let drow = &d[k * n..(k + 1) * n];
        rows::<true>(plane, n, &mut pt[..plane], drow, u, Init::Zero, false);
        // ∂/∂s: ps[j·n + i] = Σ_m D[j,m] · u[k-plane, m·n + i].
        rows::<true>(n, n, &mut ps[..plane], d, uk, Init::Zero, false);
        // ∂/∂r: pr[j·n + i] = Σ_m u[k-plane, j·n + m] · Dᵀ[m,i].
        rows::<true>(n, n, &mut pr[..plane], uk, dt, Init::Zero, false);
        // Metric combine, h1 folded in: w_i = h1 · Σ_j G_ij (D_j u).
        let o = k * plane;
        for idx in 0..plane {
            let gi = o + idx;
            let (ur, us, ut) = (pr[idx], ps[idx], pt[idx]);
            wr[gi] = h1 * g[1][gi].mul_add(us, g[0][gi].mul_add(ur, g[2][gi] * ut));
            ws[gi] = h1 * g[3][gi].mul_add(us, g[1][gi].mul_add(ur, g[4][gi] * ut));
            wt[gi] = h1 * g[4][gi].mul_add(us, g[2][gi].mul_add(ur, g[5][gi] * ut));
        }
    }

    // Pass 2 — one sweep over the flux fields, accumulated in place in
    // y: y = Σ_i D_iᵀ w_i, then the mass term fused into the same plane.
    for (k, yk) in y[..nn].chunks_exact_mut(plane).enumerate() {
        let o = k * plane;
        // D_rᵀ: y[j·n + i] = Σ_m wr[k-plane, j·n + m] · D[m,i].
        rows::<true>(n, n, yk, &wr[o..o + plane], d, Init::Zero, false);
        // D_sᵀ: y[j·n + i] += Σ_m D[m,j] · ws[k-plane, m·n + i].
        rows::<true>(n, n, yk, dt, &ws[o..o + plane], Init::Dst, false);
        // D_tᵀ: y[idx] += Σ_m D[m,k] · wt[m-plane, idx].
        let dtrow = &dt[k * n..(k + 1) * n];
        rows::<true>(plane, n, yk, dtrow, &wt[..nn], Init::Dst, false);
        // The mass term: y = acc + (h2·B)·u.
        if h2 != 0.0 {
            for (idx, yv) in yk.iter_mut().enumerate() {
                let gi = o + idx;
                *yv = (h2 * mass[gi]).mul_add(u[gi], *yv);
            }
        }
    }
}

/// [`helm_body`] on the buffers of `s`. `inline(always)` is
/// load-bearing: the body must land *inside* each `target_feature` twin
/// for `mul_add` to lower to hardware `vfmadd` rather than a soft-fma
/// libcall.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn helm_on(
    n: usize,
    d: &[f64],
    dt: &[f64],
    g: &[&[f64]; 6],
    mass: &[f64],
    h1: f64,
    h2: f64,
    u: &[f64],
    y: &mut [f64],
    s: &mut FusedScratch,
) {
    helm_body(
        n, d, dt, g, mass, h1, h2, u, y, &mut s.wr, &mut s.ws, &mut s.wt, &mut s.pr, &mut s.ps,
        &mut s.pt,
    );
}

macro_rules! helm_dispatch_n {
    ($n:expr, $call:ident, $($args:tt)*) => {
        match $n {
            4 => $call::<4>($($args)*),
            6 => $call::<6>($($args)*),
            8 => $call::<8>($($args)*),
            10 => $call::<10>($($args)*),
            12 => $call::<12>($($args)*),
            _ => unreachable!(),
        }
    };
}

/// AVX2+FMA twin at a compile-time node count: the bound const-propagates
/// through the always-inlined body and `mul_add` lowers to `vfmadd`
/// (bitwise identical to the portable lowering by IEEE-754 fused
/// semantics).
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: callers must have verified avx2+fma support (the
// `helmholtz_element` dispatcher checks via `simd::level()`).
unsafe fn helm_fixed_avx2<const N: usize>(
    d: &[f64],
    dt: &[f64],
    g: &[&[f64]; 6],
    mass: &[f64],
    h1: f64,
    h2: f64,
    u: &[f64],
    y: &mut [f64],
    s: &mut FusedScratch,
) {
    helm_on(N, d, dt, g, mass, h1, h2, u, y, s);
}

/// AVX2+FMA twin at a run-time node count.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: callers must have verified avx2+fma support (the
// `helmholtz_element` dispatcher checks via `simd::level()`).
unsafe fn helm_dyn_avx2(
    n: usize,
    d: &[f64],
    dt: &[f64],
    g: &[&[f64]; 6],
    mass: &[f64],
    h1: f64,
    h2: f64,
    u: &[f64],
    y: &mut [f64],
    s: &mut FusedScratch,
) {
    helm_on(n, d, dt, g, mass, h1, h2, u, y, s);
}

/// Fused single-element Helmholtz apply `y = h₁·(DᵀGD)u + h₂·B u`.
///
/// `d` is the reference derivative matrix with its transpose, `g` the six
/// symmetric geometric-factor slices and
/// `mass` the diagonal mass for *this element* (length `n³` each). The
/// kernel level and the degree dispatch are both deterministic, so the
/// output bits are a pure function of the inputs.
#[allow(clippy::too_many_arguments)]
pub fn helmholtz_element(
    d: &DerivMatrix,
    g: &[&[f64]; 6],
    mass: &[f64],
    h1: f64,
    h2: f64,
    u: &[f64],
    y: &mut [f64],
    s: &mut FusedScratch,
) {
    let (n, dd, dt) = (d.n(), d.matrix().data(), d.transposed().data());
    s.prepare(n);
    match (simd::level(), n) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only selected after feature detection.
        (SimdLevel::Avx2Fma, 4 | 6 | 8 | 10 | 12) => unsafe {
            helm_dispatch_n!(n, helm_fixed_avx2, dd, dt, g, mass, h1, h2, u, y, s)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        (SimdLevel::Avx2Fma, _) => unsafe { helm_dyn_avx2(n, dd, dt, g, mass, h1, h2, u, y, s) },
        _ => helm_on(n, dd, dt, g, mass, h1, h2, u, y, s),
    }
}

/// Portable-path twin of [`helmholtz_element`] (bitwise identical by the
/// lane contract); exposed for the SIMD-vs-scalar identity tests.
#[allow(clippy::too_many_arguments)]
pub fn helmholtz_element_scalar(
    d: &DerivMatrix,
    g: &[&[f64]; 6],
    mass: &[f64],
    h1: f64,
    h2: f64,
    u: &[f64],
    y: &mut [f64],
    s: &mut FusedScratch,
) {
    let n = d.n();
    s.prepare(n);
    helm_on(
        n,
        d.matrix().data(),
        d.transposed().data(),
        g,
        mass,
        h1,
        h2,
        u,
        y,
        s,
    );
}

// ---------------------------------------------------------------------------
// Fused square tensor apply (the FDM sweep's contraction).
// ---------------------------------------------------------------------------

/// Scratch for [`tensor3`]: the two intermediate slabs.
#[derive(Debug, Default)]
pub struct Tensor3Scratch {
    t1: Vec<f64>,
    t2: Vec<f64>,
}

impl Tensor3Scratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, n: usize) {
        let nn = n * n * n;
        self.t1.resize(nn, 0.0);
        self.t2.resize(nn, 0.0);
    }
}

/// Square tensor-product body `(A3 ⊗ A2 ⊗ A1)·u`, all matrices `n×n`,
/// `a1t` the transpose of `A1` so pass 1 reads contiguous rows too. Each
/// output starts at the plain product of its first term — a bit-identical
/// peel of `fma(c·x + 0)` except that a `−0.0` product stays `−0.0` —
/// and adds the rest with one `mul_add` each; no zero skip.
///
/// `m` is the contraction length, equal to `n` but a run-time value even
/// where `n` is a constant, and the sources are passed unsliced so their
/// lengths do not bound it either: with a compile-time term count the
/// optimizer unrolls each block's term loop and then vectorizes the bare
/// loop around the blocks across blocks, gathering coefficients — at
/// N = 8 twice the time of the rolled term loop, whose running sums stay
/// in registers. (In [`helm_body`] the passes sit inside plane loops with
/// other work, and full unrolling is what serves them.)
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tensor3_body(
    n: usize,
    m: usize,
    a1t: &[f64],
    a2: &[f64],
    a3: &[f64],
    u: &[f64],
    out: &mut [f64],
    t1: &mut [f64],
    t2: &mut [f64],
) {
    let plane = n * n;
    let nn = plane * n;
    // Pass 1 — contract x: t1[col·n + a] = Σ_i A1[a,i] u[col·n + i].
    rows::<true>(n, m, &mut t1[..nn], u, a1t, Init::Product, false);
    // Pass 2 — contract y: t2[k-slab, b·n + i] = Σ_j A2[b,j] t1[k-slab, j·n + i].
    for (k, t2k) in t2[..nn].chunks_exact_mut(plane).enumerate() {
        rows::<true>(n, m, t2k, a2, &t1[k * plane..], Init::Product, false);
    }
    // Pass 3 — contract z: out[c-plane, idx] = Σ_k A3[c,k] t2[k-plane, idx].
    rows::<true>(plane, m, &mut out[..nn], a3, t2, Init::Product, false);
}

/// [`tensor3_body`] on the buffers of `s`, always inlined like
/// [`helm_on`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tensor3_on(
    n: usize,
    m: usize,
    a1t: &[f64],
    a2: &[f64],
    a3: &[f64],
    u: &[f64],
    out: &mut [f64],
    s: &mut Tensor3Scratch,
) {
    tensor3_body(n, m, a1t, a2, a3, u, out, &mut s.t1, &mut s.t2);
}

/// AVX2+FMA twin at a compile-time node count `N`; `m` is the same count
/// at run time (see [`tensor3_body`]).
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
// SAFETY: callers must have verified avx2+fma support (the `tensor3`
// dispatcher checks via `simd::level()`).
unsafe fn tensor3_fixed_avx2<const N: usize>(
    m: usize,
    a1t: &[f64],
    a2: &[f64],
    a3: &[f64],
    u: &[f64],
    out: &mut [f64],
    s: &mut Tensor3Scratch,
) {
    tensor3_on(N, m, a1t, a2, a3, u, out, s);
}

/// AVX2+FMA twin at a run-time node count.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
// SAFETY: callers must have verified avx2+fma support (the `tensor3`
// dispatcher checks via `simd::level()`).
unsafe fn tensor3_dyn_avx2(
    n: usize,
    a1t: &[f64],
    a2: &[f64],
    a3: &[f64],
    u: &[f64],
    out: &mut [f64],
    s: &mut Tensor3Scratch,
) {
    tensor3_on(n, n, a1t, a2, a3, u, out, s);
}

/// Fused square tensor apply `out = (A3 ⊗ A2 ⊗ A1)·u` for `n×n` matrices
/// (the FDM eigenbasis transforms), given `a1t = A1ᵀ`. Same dispatch and
/// determinism contract as [`helmholtz_element`].
pub fn tensor3(
    a1t: &DMat,
    a2: &DMat,
    a3: &DMat,
    u: &[f64],
    out: &mut [f64],
    s: &mut Tensor3Scratch,
) {
    let n = a1t.rows();
    debug_assert!(
        a1t.cols() == n && a2.rows() == n && a2.cols() == n && a3.rows() == n && a3.cols() == n,
        "tensor3 requires square same-size matrices"
    );
    s.prepare(n);
    let (d1, d2, d3) = (a1t.data(), a2.data(), a3.data());
    // The fixed-N twins take the contraction length hidden from the
    // optimizer, so it stays a run-time value (see `tensor3_body`).
    match (simd::level(), n) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only selected after feature detection.
        (SimdLevel::Avx2Fma, 4 | 6 | 8 | 10 | 12) => unsafe {
            helm_dispatch_n!(n, tensor3_fixed_avx2, black_box(n), d1, d2, d3, u, out, s)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        (SimdLevel::Avx2Fma, _) => unsafe { tensor3_dyn_avx2(n, d1, d2, d3, u, out, s) },
        _ => tensor3_on(n, n, d1, d2, d3, u, out, s),
    }
}

/// Portable-path twin of [`tensor3`] for the identity tests.
pub fn tensor3_scalar(
    a1t: &DMat,
    a2: &DMat,
    a3: &DMat,
    u: &[f64],
    out: &mut [f64],
    s: &mut Tensor3Scratch,
) {
    let n = a1t.rows();
    s.prepare(n);
    tensor3_on(n, n, a1t.data(), a2.data(), a3.data(), u, out, s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lagrange::deriv_matrix;
    use crate::quadrature::gll;
    use crate::tensor::{tensor_apply3_naive, TensorScratch};

    fn rand_vec(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    /// Reference six-pass Helmholtz element apply (the pre-fusion kernel).
    #[allow(clippy::too_many_arguments)]
    fn helm_reference(
        d: &DerivMatrix,
        g: &[&[f64]; 6],
        mass: &[f64],
        h1: f64,
        h2: f64,
        u: &[f64],
        y: &mut [f64],
        n: usize,
    ) {
        use crate::tensor::Axis;
        let nn = n * n * n;
        let mut ur = vec![0.0; nn];
        let mut us = vec![0.0; nn];
        let mut ut = vec![0.0; nn];
        let mut wr = vec![0.0; nn];
        let mut ws = vec![0.0; nn];
        let mut wt = vec![0.0; nn];
        d.apply(Axis::X, u, &mut ur);
        d.apply(Axis::Y, u, &mut us);
        d.apply(Axis::Z, u, &mut ut);
        for i in 0..nn {
            wr[i] = g[0][i] * ur[i] + g[1][i] * us[i] + g[2][i] * ut[i];
            ws[i] = g[1][i] * ur[i] + g[3][i] * us[i] + g[4][i] * ut[i];
            wt[i] = g[2][i] * ur[i] + g[4][i] * us[i] + g[5][i] * ut[i];
        }
        y.fill(0.0);
        d.apply_t_add(Axis::X, &wr, y);
        d.apply_t_add(Axis::Y, &ws, y);
        d.apply_t_add(Axis::Z, &wt, y);
        for i in 0..nn {
            y[i] = h1 * y[i] + h2 * mass[i] * u[i];
        }
    }

    fn synthetic_factors(nn: usize) -> ([Vec<f64>; 6], Vec<f64>) {
        // SPD-ish synthetic metric: diagonal-dominant symmetric tensor.
        let mk = |seed: u64, base: f64| -> Vec<f64> {
            rand_vec(nn, seed).iter().map(|v| base + 0.1 * v).collect()
        };
        let g = [
            mk(1, 2.0),
            mk(2, 0.1),
            mk(3, 0.1),
            mk(4, 2.2),
            mk(5, 0.1),
            mk(6, 1.9),
        ];
        let mass: Vec<f64> = rand_vec(nn, 7).iter().map(|v| 1.0 + 0.2 * v).collect();
        (g, mass)
    }

    #[test]
    fn fused_matches_reference_within_ulp_budget() {
        // The fused kernel uses fused multiply-adds, so bits differ from
        // the six-pass reference; agreement must hold to a tight relative
        // bound (the kernels are the same polynomial expression).
        for n in [4usize, 5, 6, 8, 10, 12] {
            let d = DerivMatrix::new(deriv_matrix(&gll(n).points));
            let nn = n * n * n;
            let (g, mass) = synthetic_factors(nn);
            let gr: [&[f64]; 6] = [&g[0], &g[1], &g[2], &g[3], &g[4], &g[5]];
            let u = rand_vec(nn, 42);
            let mut y_ref = vec![0.0; nn];
            helm_reference(&d, &gr, &mass, 1.3, 0.4, &u, &mut y_ref, n);
            let mut y_fused = vec![0.0; nn];
            let mut s = FusedScratch::new();
            helmholtz_element(&d, &gr, &mass, 1.3, 0.4, &u, &mut y_fused, &mut s);
            let scale = y_ref.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (a, b) in y_ref.iter().zip(&y_fused) {
                assert!((a - b).abs() <= 1e-12 * scale, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fused_dispatched_matches_scalar_bitwise() {
        for n in [4usize, 6, 8, 10, 12, 7] {
            let d = DerivMatrix::new(deriv_matrix(&gll(n).points));
            let nn = n * n * n;
            let (g, mass) = synthetic_factors(nn);
            let gr: [&[f64]; 6] = [&g[0], &g[1], &g[2], &g[3], &g[4], &g[5]];
            let u = rand_vec(nn, 9);
            let mut y1 = vec![0.0; nn];
            let mut y2 = vec![0.0; nn];
            let mut s = FusedScratch::new();
            helmholtz_element(&d, &gr, &mass, 0.8, 1.1, &u, &mut y1, &mut s);
            helmholtz_element_scalar(&d, &gr, &mass, 0.8, 1.1, &u, &mut y2, &mut s);
            for (a, b) in y1.iter().zip(&y2) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn fused_handles_degenerate_coefficients() {
        let n = 6;
        let d = DerivMatrix::new(deriv_matrix(&gll(n).points));
        let nn = n * n * n;
        let (g, mass) = synthetic_factors(nn);
        let gr: [&[f64]; 6] = [&g[0], &g[1], &g[2], &g[3], &g[4], &g[5]];
        let u = rand_vec(nn, 3);
        let mut s = FusedScratch::new();
        // h1 = 0: pure mass term.
        let mut y = vec![9.0; nn];
        helmholtz_element(&d, &gr, &mass, 0.0, 2.0, &u, &mut y, &mut s);
        for i in 0..nn {
            assert_eq!(y[i].to_bits(), (2.0 * mass[i] * u[i]).to_bits());
        }
        // h1 = h2 = 0: zero output.
        helmholtz_element(&d, &gr, &mass, 0.0, 0.0, &u, &mut y, &mut s);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tensor3_matches_naive_and_scalar() {
        for n in [4usize, 5, 6, 8, 10] {
            let a = DMat::from_fn(n, n, |i, j| ((i + 1) as f64).sin() * (j as f64 + 0.5));
            let b = DMat::from_fn(n, n, |i, j| (i as f64 - j as f64) * 0.3 + 1.0);
            let c = DMat::from_fn(n, n, |i, j| if i == j { 2.0 } else { 0.1 });
            let u = rand_vec(n * n * n, 42);
            let mut out = vec![0.0; n * n * n];
            let mut s = Tensor3Scratch::new();
            tensor3(&a.transpose(), &b, &c, &u, &mut out, &mut s);
            let naive = tensor_apply3_naive(&a, &b, &c, &u);
            let scale = naive.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (f, r) in out.iter().zip(&naive) {
                assert!((f - r).abs() <= 1e-11 * scale, "n={n}: {f} vs {r}");
            }
            let mut out2 = vec![0.0; n * n * n];
            tensor3_scalar(&a.transpose(), &b, &c, &u, &mut out2, &mut s);
            for (f, r) in out.iter().zip(&out2) {
                assert_eq!(f.to_bits(), r.to_bits(), "n={n} scalar twin");
            }
            // And against the legacy branchy apply, to rounding.
            let mut out3 = vec![0.0; n * n * n];
            let mut ts = TensorScratch::new();
            crate::tensor::tensor_apply3(&a, &b, &c, &u, &mut out3, &mut ts);
            for (f, r) in out.iter().zip(&out3) {
                assert!((f - r).abs() <= 1e-11 * scale, "n={n} vs legacy");
            }
        }
    }
}
