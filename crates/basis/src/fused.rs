//! Degree-specialized fused element kernels.
//!
//! The sum-factorized Helmholtz apply used to be six separate sweeps over
//! each element (three derivatives, a metric combine, three transpose
//! accumulations); this module fuses them into two register/cache-blocked
//! passes — grad → geometric factors in one sweep, gradᵀ → mass term in
//! the second — with every inner loop contiguous over the fastest (x)
//! index and expressed through the [`crate::simd`] lane contract (fused
//! multiply-add, pinned accumulation order). The production node counts
//! N = 4, 6, 8, 10, 12 instantiate const-generic bodies whose compile-time
//! bounds let the optimizer fully unroll and vectorize; other counts run
//! the identical body with runtime bounds, so every degree takes the fused
//! path and the bits never depend on which instantiation executed.
//!
//! Determinism: for a fixed process the kernel level
//! ([`crate::simd::level`]) is constant, every loop nest below has a fixed
//! traversal order, and elements write disjoint output ranges — so the
//! fused apply is bitwise identical across thread counts, repeated
//! applies, and elastic restarts. The `_scalar` twins exist so tests can
//! assert the AVX2-vs-portable bit identity directly.

use crate::dense::DMat;
use crate::simd::{self, SimdLevel};
use crate::tensor::DerivMatrix;

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
/// slices of length `n³`. Always inlined into the const-`N` and dynamic
/// instantiations below so the bounds const-propagate.
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
    for k in 0..n {
        let uk = &u[k * plane..(k + 1) * plane];
        // ∂/∂t: pt[idx] = Σ_m D[k,m] · u[m-plane, idx] — broadcast D
        // entry, contiguous accumulate over the whole plane.
        pt[..plane].fill(0.0);
        for m in 0..n {
            let c = d[k * n + m];
            let um = &u[m * plane..(m + 1) * plane];
            for i in 0..plane {
                pt[i] = c.mul_add(um[i], pt[i]);
            }
        }
        // ∂/∂s: ps[j·n + i] = Σ_m D[j,m] · u[k-plane, m·n + i].
        ps[..plane].fill(0.0);
        for j in 0..n {
            let pj = &mut ps[j * n..(j + 1) * n];
            for m in 0..n {
                let c = d[j * n + m];
                let um = &uk[m * n..(m + 1) * n];
                for i in 0..n {
                    pj[i] = c.mul_add(um[i], pj[i]);
                }
            }
        }
        // ∂/∂r: pr[j·n + i] = Σ_m u[k-plane, j·n + m] · Dᵀ[m,i] —
        // broadcast the pencil value, accumulate along Dᵀ rows.
        pr[..plane].fill(0.0);
        for j in 0..n {
            let pj = &mut pr[j * n..(j + 1) * n];
            let uj = &uk[j * n..(j + 1) * n];
            for m in 0..n {
                let c = uj[m];
                let dtr = &dt[m * n..(m + 1) * n];
                for i in 0..n {
                    pj[i] = c.mul_add(dtr[i], pj[i]);
                }
            }
        }
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

    // Pass 2 — one sweep over the flux fields: y = Σ_i D_iᵀ w_i, then the
    // mass term fused into the same plane write-out.
    for k in 0..n {
        let acc = &mut pr[..plane];
        acc.fill(0.0);
        // D_rᵀ: acc[j·n + i] += Σ_m wr[k-plane, j·n + m] · D[m,i].
        let wrk = &wr[k * plane..(k + 1) * plane];
        for j in 0..n {
            let aj = &mut acc[j * n..(j + 1) * n];
            let wj = &wrk[j * n..(j + 1) * n];
            for m in 0..n {
                let c = wj[m];
                let dr = &d[m * n..(m + 1) * n];
                for i in 0..n {
                    aj[i] = c.mul_add(dr[i], aj[i]);
                }
            }
        }
        // D_sᵀ: acc[j·n + i] += Σ_m D[m,j] · ws[k-plane, m·n + i].
        let wsk = &ws[k * plane..(k + 1) * plane];
        for m in 0..n {
            let wm = &wsk[m * n..(m + 1) * n];
            for j in 0..n {
                let c = d[m * n + j];
                let aj = &mut acc[j * n..(j + 1) * n];
                for i in 0..n {
                    aj[i] = c.mul_add(wm[i], aj[i]);
                }
            }
        }
        // D_tᵀ: acc[idx] += Σ_m D[m,k] · wt[m-plane, idx].
        for m in 0..n {
            let c = d[m * n + k];
            let wm = &wt[m * plane..(m + 1) * plane];
            for i in 0..plane {
                acc[i] = c.mul_add(wm[i], acc[i]);
            }
        }
        // Write-out with the mass term fused: y = acc + (h2·B)·u.
        let o = k * plane;
        if h2 != 0.0 {
            for idx in 0..plane {
                let gi = o + idx;
                y[gi] = (h2 * mass[gi]).mul_add(u[gi], acc[idx]);
            }
        } else {
            y[o..o + plane].copy_from_slice(acc);
        }
    }
}

/// Const-`N` instantiation: the bound const-propagates through the
/// always-inlined body, unrolling the `N`-length inner loops.
/// `inline(always)` is load-bearing: the body must land *inside* the
/// `target_feature` twin for `mul_add` to lower to hardware `vfmadd`
/// rather than a soft-fma libcall.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn helm_fixed<const N: usize>(
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
        N, d, dt, g, mass, h1, h2, u, y, &mut s.wr, &mut s.ws, &mut s.wt, &mut s.pr, &mut s.ps,
        &mut s.pt,
    );
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn helm_dyn(
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

/// AVX2+FMA twin of the fixed body — the same code compiled with the
/// vector features enabled, so `mul_add` lowers to `vfmadd` (bitwise
/// identical to the portable lowering by IEEE-754 fused semantics).
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
    helm_fixed::<N>(d, dt, g, mass, h1, h2, u, y, s);
}

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
    helm_dyn(n, d, dt, g, mass, h1, h2, u, y, s);
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
        (_, 4 | 6 | 8 | 10 | 12) => {
            helm_dispatch_n!(n, helm_fixed, dd, dt, g, mass, h1, h2, u, y, s)
        }
        (_, _) => helm_dyn(n, dd, dt, g, mass, h1, h2, u, y, s),
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
    helm_dyn(
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

/// Scratch for [`tensor3`] (two intermediate slabs plus the transposed
/// first matrix, so pass 1 runs broadcast-FMA like passes 2 and 3).
#[derive(Debug, Default)]
pub struct Tensor3Scratch {
    t1: Vec<f64>,
    t2: Vec<f64>,
    at: Vec<f64>,
}

impl Tensor3Scratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Square tensor-product body `(A3 ⊗ A2 ⊗ A1)·u`, all matrices `n×n`.
/// All three passes are broadcast fused accumulations with no zero-skip
/// branches; pass 1 contracts against the pre-transposed `a1t` so its
/// inner loop is contiguous too.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tensor3_body(
    n: usize,
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
    debug_assert!(u.len() >= nn && out.len() >= nn);
    // The first accumulation term of each pass is a plain multiply — a
    // bit-identical peel of `fma(c·x + 0)`, saving the zero-fill sweep.
    //
    // Pass 1 — contract x: t1[col·n + a] = Σ_i A1[a,i] u[col·n + i],
    // accumulated as broadcast-FMA along the rows of A1ᵀ.
    for col in 0..plane {
        let uin = &u[col * n..(col + 1) * n];
        let dst = &mut t1[col * n..(col + 1) * n];
        let c0 = uin[0];
        let row0 = &a1t[..n];
        for a in 0..n {
            dst[a] = c0 * row0[a];
        }
        for (i, &c) in uin.iter().enumerate().skip(1) {
            let row = &a1t[i * n..(i + 1) * n];
            for a in 0..n {
                dst[a] = c.mul_add(row[a], dst[a]);
            }
        }
    }
    // Pass 2 — contract y: t2[k-slab, b·n + i] = Σ_j A2[b,j] t1[k-slab, j·n + i].
    for k in 0..n {
        let t1k = &t1[k * plane..(k + 1) * plane];
        let t2k = &mut t2[k * plane..(k + 1) * plane];
        for b in 0..n {
            let dst = &mut t2k[b * n..(b + 1) * n];
            let c0 = a2[b * n];
            let src0 = &t1k[..n];
            for i in 0..n {
                dst[i] = c0 * src0[i];
            }
            for j in 1..n {
                let c = a2[b * n + j];
                let src = &t1k[j * n..(j + 1) * n];
                for i in 0..n {
                    dst[i] = c.mul_add(src[i], dst[i]);
                }
            }
        }
    }
    // Pass 3 — contract z: out[c-plane, idx] = Σ_k A3[c,k] t2[k-plane, idx].
    for c in 0..n {
        let dst = &mut out[c * plane..(c + 1) * plane];
        let m0 = a3[c * n];
        let src0 = &t2[..plane];
        for i in 0..plane {
            dst[i] = m0 * src0[i];
        }
        for k in 1..n {
            let m = a3[c * n + k];
            let src = &t2[k * plane..(k + 1) * plane];
            for i in 0..plane {
                dst[i] = m.mul_add(src[i], dst[i]);
            }
        }
    }
}

#[inline(always)]
fn tensor3_fixed<const N: usize>(
    a1t: &[f64],
    a2: &[f64],
    a3: &[f64],
    u: &[f64],
    out: &mut [f64],
    s: &mut Tensor3Scratch,
) {
    tensor3_body(N, a1t, a2, a3, u, out, &mut s.t1, &mut s.t2);
}

#[inline(always)]
fn tensor3_dyn(
    n: usize,
    a1t: &[f64],
    a2: &[f64],
    a3: &[f64],
    u: &[f64],
    out: &mut [f64],
    s: &mut Tensor3Scratch,
) {
    tensor3_body(n, a1t, a2, a3, u, out, &mut s.t1, &mut s.t2);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
// SAFETY: callers must have verified avx2+fma support (the `tensor3`
// dispatcher checks via `simd::level()`).
unsafe fn tensor3_fixed_avx2<const N: usize>(
    a1t: &[f64],
    a2: &[f64],
    a3: &[f64],
    u: &[f64],
    out: &mut [f64],
    s: &mut Tensor3Scratch,
) {
    tensor3_fixed::<N>(a1t, a2, a3, u, out, s);
}

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
    tensor3_dyn(n, a1t, a2, a3, u, out, s);
}

/// Transpose `a1` into the scratch (`n×n`); the resulting slice is what
/// pass 1 streams contiguously.
fn transpose_into(at: &mut Vec<f64>, a1: &[f64], n: usize) {
    at.resize(n * n, 0.0);
    for r in 0..n {
        for c in 0..n {
            at[c * n + r] = a1[r * n + c];
        }
    }
}

/// Fused square tensor apply `out = (A3 ⊗ A2 ⊗ A1)·u` for `n×n` matrices
/// (the FDM eigenbasis transforms). Same dispatch and determinism
/// contract as [`helmholtz_element`].
pub fn tensor3(
    a1: &DMat,
    a2: &DMat,
    a3: &DMat,
    u: &[f64],
    out: &mut [f64],
    s: &mut Tensor3Scratch,
) {
    let n = a1.rows();
    debug_assert!(
        a1.cols() == n && a2.rows() == n && a2.cols() == n && a3.rows() == n && a3.cols() == n,
        "tensor3 requires square same-size matrices"
    );
    let nn = n * n * n;
    s.t1.resize(nn, 0.0);
    s.t2.resize(nn, 0.0);
    let mut at = std::mem::take(&mut s.at);
    transpose_into(&mut at, a1.data(), n);
    let (d2, d3) = (a2.data(), a3.data());
    match (simd::level(), n) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only selected after feature detection.
        (SimdLevel::Avx2Fma, 4 | 6 | 8 | 10 | 12) => unsafe {
            helm_dispatch_n!(n, tensor3_fixed_avx2, &at, d2, d3, u, out, s)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        (SimdLevel::Avx2Fma, _) => unsafe { tensor3_dyn_avx2(n, &at, d2, d3, u, out, s) },
        (_, 4 | 6 | 8 | 10 | 12) => helm_dispatch_n!(n, tensor3_fixed, &at, d2, d3, u, out, s),
        (_, _) => tensor3_dyn(n, &at, d2, d3, u, out, s),
    }
    s.at = at;
}

/// Portable-path twin of [`tensor3`] for the identity tests.
pub fn tensor3_scalar(
    a1: &DMat,
    a2: &DMat,
    a3: &DMat,
    u: &[f64],
    out: &mut [f64],
    s: &mut Tensor3Scratch,
) {
    let n = a1.rows();
    let nn = n * n * n;
    s.t1.resize(nn, 0.0);
    s.t2.resize(nn, 0.0);
    let mut at = std::mem::take(&mut s.at);
    transpose_into(&mut at, a1.data(), n);
    tensor3_dyn(n, &at, a2.data(), a3.data(), u, out, s);
    s.at = at;
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
            tensor3(&a, &b, &c, &u, &mut out, &mut s);
            let naive = tensor_apply3_naive(&a, &b, &c, &u);
            let scale = naive.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (f, r) in out.iter().zip(&naive) {
                assert!((f - r).abs() <= 1e-11 * scale, "n={n}: {f} vs {r}");
            }
            let mut out2 = vec![0.0; n * n * n];
            tensor3_scalar(&a, &b, &c, &u, &mut out2, &mut s);
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
