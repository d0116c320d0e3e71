//! Tensor-product kernels for 3-D spectral elements.
//!
//! All element-local operators in the SEM factor into 1-D matrices applied
//! along each coordinate direction ("sum factorization"), turning an
//! O(n⁶) dense apply into O(n⁴) work per element. These kernels are the
//! hot path of the whole solver: the Helmholtz/Laplacian apply, dealiasing
//! interpolation, multigrid restriction/prolongation, the modal
//! compression transform and the element derivatives all reduce to calls
//! in this module.
//!
//! Element data layout: `idx = i + nx·(j + ny·k)` — the x index is fastest,
//! matching the inner loops below so that the innermost accesses are
//! contiguous.

use crate::dense::DMat;
use crate::simd::{self, SimdLevel, LANES};

/// Reusable scratch buffers for [`tensor_apply3`], avoiding per-call
/// allocation on the hot path. One scratch per worker thread.
#[derive(Debug, Default, Clone)]
pub struct TensorScratch {
    t1: Vec<f64>,
    t2: Vec<f64>,
    /// `Axᵀ`, so the x pass accumulates along contiguous rows.
    axt: Vec<f64>,
}

impl TensorScratch {
    /// Create an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the intermediates and transpose `ax` into `axt`. The passes
    /// overwrite every entry of `t1` and `t2`, so they need no zero fill.
    fn prepare(&mut self, ax: &DMat, ay: &DMat, az: &DMat) {
        let (mx, nx) = (ax.rows(), ax.cols());
        self.t1.resize(mx * ay.cols() * az.cols(), 0.0);
        self.t2.resize(mx * ay.rows() * az.cols(), 0.0);
        self.axt.resize(nx * mx, 0.0);
        let a = ax.data();
        for r in 0..mx {
            for c in 0..nx {
                self.axt[c * mx + r] = a[r * nx + c];
            }
        }
    }
}

/// Apply the tensor-product operator `(Az ⊗ Ay ⊗ Ax)` to `u`.
///
/// `u` has logical dimensions `(nx, ny, nz)` where `nx = ax.cols()` etc.;
/// `out` receives dimensions `(ax.rows(), ay.rows(), az.rows())`:
///
/// `out[a,b,c] = Σ_{i,j,k} Ax[a,i] · Ay[b,j] · Az[c,k] · u[i,j,k]`
///
/// Rectangular matrices are supported (dealiasing / grid transfer).
///
/// Bit contract: each pass forms every output as `+0.0` plus separately
/// rounded products (no fused multiply-add) in ascending contraction
/// index, and passes 2 and 3 skip exactly-zero matrix coefficients. The
/// AVX2 twin, the shape-specialized instantiations and the
/// runtime-bounded body all keep it, so which one runs never changes a
/// bit (DESIGN.md §15).
///
/// # Panics
///
/// If `u` or `out` does not have the length the matrix shapes give.
pub fn tensor_apply3(
    ax: &DMat,
    ay: &DMat,
    az: &DMat,
    u: &[f64],
    out: &mut [f64],
    scratch: &mut TensorScratch,
) {
    scratch.prepare(ax, ay, az);
    let shape = (ax.rows(), ax.cols());
    let uniform = shape == (ay.rows(), ay.cols()) && shape == (az.rows(), az.cols());
    let (ayd, azd) = (ay.data(), az.data());
    macro_rules! by_shape {
        ($(($r:literal, $c:literal)),* $(,)?) => {
            match (simd::level(), shape) {
                $(
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: Avx2Fma is only selected after feature
                    // detection confirmed avx2, the one feature the twin
                    // enables.
                    (SimdLevel::Avx2Fma, ($r, $c)) if uniform => unsafe {
                        apply3_fixed_avx2::<$r, $c>(ayd, azd, u, out, scratch)
                    },
                )*
                _ => apply3_dyn(ax, ay, az, u, out, scratch),
            }
        };
    }
    // On AVX2 hosts, compile-time instantiations when all three matrices
    // share one of the production shapes (rows, cols): dealiasing
    // ⌈3N/2⌉ × N and back for N = 4…12, the coarse grid's degree-1 and
    // degree-2 transfers (2 × N, 3 × N and back), and the square modal
    // transforms of the compression path. Anything else, and every shape
    // without AVX2, runs the portable runtime-bounded body: specializing
    // it too would double the instantiated code, and the code pages every
    // run maps, for hosts without AVX2 only.
    #[rustfmt::skip]
    by_shape!(
        (6, 4), (8, 5), (9, 6), (11, 7), (12, 8), (14, 9), (15, 10), (17, 11), (18, 12),
        (4, 6), (5, 8), (6, 9), (7, 11), (8, 12), (9, 14), (10, 15), (11, 17), (12, 18),
        (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (2, 11), (2, 12),
        (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (10, 2), (11, 2), (12, 2),
        (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (3, 11), (3, 12),
        (4, 3), (5, 3), (6, 3), (7, 3), (8, 3), (9, 3), (10, 3), (11, 3), (12, 3),
        (4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (9, 9), (10, 10), (11, 11), (12, 12),
    );
}

/// Portable twin of [`tensor_apply3`]: the runtime-bounded body at the
/// baseline instruction set — what `tensor_apply3` runs without AVX2 —
/// exposed so tests can assert that the dispatched path (specialized,
/// vectorized) reproduces it bit for bit.
pub fn tensor_apply3_scalar(
    ax: &DMat,
    ay: &DMat,
    az: &DMat,
    u: &[f64],
    out: &mut [f64],
    scratch: &mut TensorScratch,
) {
    scratch.prepare(ax, ay, az);
    apply3_dyn(ax, ay, az, u, out, scratch);
}

/// Runtime-bounded instantiation, for any shapes.
#[inline(always)]
fn apply3_dyn(ax: &DMat, ay: &DMat, az: &DMat, u: &[f64], out: &mut [f64], s: &mut TensorScratch) {
    apply3_body(
        [ax.rows(), ay.rows(), az.rows()],
        [ax.cols(), ay.cols(), az.cols()],
        &s.axt,
        ay.data(),
        az.data(),
        u,
        out,
        &mut s.t1,
        &mut s.t2,
    );
}

/// Compile-time `R × C` instantiation (all three matrices that shape)
/// for AVX2: the bounds const-propagate through the always-inlined body,
/// compiled for 256-bit vectors. Rust never contracts `a * b + c` into a
/// fused multiply-add, so it emits separate multiplies and adds and keeps
/// the bits of the portable body.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified avx2 support; the only caller is
// the `tensor_apply3` dispatcher, which checks via `simd::level()`.
unsafe fn apply3_fixed_avx2<const R: usize, const C: usize>(
    ay: &[f64],
    az: &[f64],
    u: &[f64],
    out: &mut [f64],
    s: &mut TensorScratch,
) {
    apply3_body([R; 3], [C; 3], &s.axt, ay, az, u, out, &mut s.t1, &mut s.t2);
}

/// The three contraction passes. `m`/`n` are the output/input extents
/// per direction, `axt` is `Axᵀ` (`nx × mx`), `ay`/`az` are row-major.
/// Literal extents const-propagate through the always-inlined body.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn apply3_body(
    m: [usize; 3],
    n: [usize; 3],
    axt: &[f64],
    ay: &[f64],
    az: &[f64],
    u: &[f64],
    out: &mut [f64],
    t1: &mut [f64],
    t2: &mut [f64],
) {
    let ([mx, my, mz], [nx, ny, nz]) = (m, n);
    // Short buffers must panic here: the chunked passes below would stop
    // early and leave stale `t1`/`t2` entries from an earlier call.
    let u = &u[..nx * ny * nz];
    let out = &mut out[..mx * my * mz];

    // Pass 1 — contract x: t1[a,j,k] = Σ_i Ax[a,i] u[i,j,k], along the
    // contiguous rows of Axᵀ (no zero skip: 0·∞ must stay NaN).
    rows::<false>(mx, nx, t1, u, axt, Init::Zero, false);

    // Pass 2 — contract y: t2[a,b,k] = Σ_j Ay[b,j] t1[a,j,k].
    for (t1k, t2k) in t1
        .chunks_exact(mx * ny)
        .zip(t2.chunks_exact_mut(mx * my))
        .take(nz)
    {
        rows::<false>(mx, ny, t2k, ay, t1k, Init::Zero, true);
    }

    // Pass 3 — contract z: out[a,b,c] = Σ_k Az[c,k] t2[a,b,k].
    rows::<false>(mx * my, nz, out, az, t2, Init::Zero, true);
}

/// Outputs one single-row block accumulates at once: four 4-lane vectors
/// of running sums, enough independent chains to hide the add latency.
const BLOCK: usize = 4 * LANES;

/// Output rows one multi-row block accumulates at once. With blocks of
/// at most two vectors per row that is eight running-sum vectors, which
/// leaves registers for the shared source and the broadcast coefficient.
const ROWS: usize = 4;

/// How each output's chain starts (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Init {
    /// At `+0.0`.
    Zero,
    /// At the output's current value (the transposed adds).
    Dst,
    /// At the plain product of the first term, the chain continuing
    /// from the second.
    Product,
}

/// The contraction body. `dst` holds rows of `len` outputs and `coefs`
/// one row of `terms` coefficients per output row; every row reads the
/// same `src`, whose row `t` holds the `len` values of term `t`:
/// `dst[r][a] = init + Σ_t coefs[r][t] · src[t·len + a]` for
/// `t < terms`, in ascending `t`, each term one multiply and one add
/// rounded separately, or one `mul_add` rounded once when `FMA` is set;
/// `skip_zero` drops exactly-zero coefficients (not with
/// [`Init::Product`]). Rows go in groups of [`ROWS`], then one of
/// two and a single one, and each group's outputs in blocks of
/// compile-time width, so the running sums stay in registers: a lone row
/// in blocks of [`BLOCK`], then one each of 8, 4 and 2 if they fit, then
/// a single output; a group in blocks of at most 8 per row. Grouping
/// only regroups outputs and leaves each output's chain unchanged. IEEE
/// multiplication commutes, so `c·s` here has the bits of the
/// `Ax[a,i]·u[i]` order pass 1 states.
#[inline(always)]
pub(crate) fn rows<const FMA: bool>(
    len: usize,
    terms: usize,
    dst: &mut [f64],
    coefs: &[f64],
    src: &[f64],
    init: Init,
    skip_zero: bool,
) {
    let nrows = dst.len() / len;
    let mut r0 = 0;
    while r0 + ROWS <= nrows {
        group::<ROWS, FMA>(len, terms, r0, dst, coefs, src, init, skip_zero);
        r0 += ROWS;
    }
    if r0 + 2 <= nrows {
        group::<2, FMA>(len, terms, r0, dst, coefs, src, init, skip_zero);
        r0 += 2;
    }
    if r0 < nrows {
        group::<1, FMA>(len, terms, r0, dst, coefs, src, init, skip_zero);
    }
}

/// Rows `r0..r0 + R` of [`rows`], in blocks of outputs.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn group<const R: usize, const FMA: bool>(
    len: usize,
    terms: usize,
    r0: usize,
    dst: &mut [f64],
    coefs: &[f64],
    src: &[f64],
    init: Init,
    skip_zero: bool,
) {
    let dst = &mut dst[r0 * len..(r0 + R) * len];
    let coefs = &coefs[r0 * terms..(r0 + R) * terms];
    let mut a0 = 0;
    while R == 1 && a0 + BLOCK <= len {
        block::<BLOCK, R, FMA>(a0, len, dst, coefs, src, init, skip_zero);
        a0 += BLOCK;
    }
    while a0 + 2 * LANES <= len {
        block::<{ 2 * LANES }, R, FMA>(a0, len, dst, coefs, src, init, skip_zero);
        a0 += 2 * LANES;
    }
    if a0 + LANES <= len {
        block::<LANES, R, FMA>(a0, len, dst, coefs, src, init, skip_zero);
        a0 += LANES;
    }
    if a0 + 2 <= len {
        block::<2, R, FMA>(a0, len, dst, coefs, src, init, skip_zero);
        a0 += 2;
    }
    if a0 < len {
        block::<1, R, FMA>(a0, len, dst, coefs, src, init, skip_zero);
    }
}

/// The `W` outputs starting at `a0` of each of the `R` rows of a
/// [`group`]: `R·W` running sums.
#[inline(always)]
fn block<const W: usize, const R: usize, const FMA: bool>(
    a0: usize,
    len: usize,
    dst: &mut [f64],
    coefs: &[f64],
    src: &[f64],
    init: Init,
    skip_zero: bool,
) {
    let terms = coefs.len() / R;
    let crow: [&[f64]; R] = std::array::from_fn(|r| &coefs[r * terms..(r + 1) * terms]);
    let mut acc = [[0.0f64; W]; R];
    match init {
        Init::Zero => {}
        Init::Dst => {
            for (r, a) in acc.iter_mut().enumerate() {
                a.copy_from_slice(&dst[r * len + a0..r * len + a0 + W]);
            }
        }
        Init::Product => {
            let s = &src[a0..a0 + W];
            for (a, c) in acc.iter_mut().zip(crow) {
                for (x, &sv) in a.iter_mut().zip(s) {
                    *x = c[0] * sv;
                }
            }
        }
    }
    for t in usize::from(init == Init::Product)..terms {
        let s = &src[t * len + a0..t * len + a0 + W];
        for (a, c) in acc.iter_mut().zip(crow) {
            let c = c[t];
            if skip_zero && c == 0.0 {
                continue;
            }
            for (x, &sv) in a.iter_mut().zip(s) {
                *x = if FMA { c.mul_add(sv, *x) } else { *x + c * sv };
            }
        }
    }
    for (r, a) in acc.iter().enumerate() {
        dst[r * len + a0..r * len + a0 + W].copy_from_slice(a);
    }
}

/// A reference-space direction of an element: `X` runs along the
/// fastest-varying index `i` of `idx = i + n·(j + n·k)`, `Z` along `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// The `i` (r) direction.
    X,
    /// The `j` (s) direction.
    Y,
    /// The `k` (t) direction.
    Z,
}

/// A square `n × n` 1-D collocation derivative matrix `D` kept with its
/// transpose, the two layouts the element derivatives read.
///
/// Every derivative is one pass of the contraction body of
/// [`tensor_apply3`] and keeps its bit contract (DESIGN.md §15): each
/// output is `+0.0` — or, for the transposed adds, the output's current
/// value — plus separately rounded products in ascending contraction
/// index. The AVX2 twin, instantiated for `n` = 4, 6, 8, 10 and 12, and
/// the portable body every other `n` and host runs give the same bits.
#[derive(Debug, Clone)]
pub struct DerivMatrix {
    d: DMat,
    dt: DMat,
}

impl DerivMatrix {
    /// Wrap `d`, the derivative matrix on `d.rows()` nodes.
    ///
    /// # Panics
    ///
    /// If `d` is not square.
    pub fn new(d: DMat) -> Self {
        assert_eq!(d.rows(), d.cols(), "a derivative matrix is square");
        Self {
            dt: d.transpose(),
            d,
        }
    }

    /// The matrix `D`, row-major: `D[i, m] = ℓ'_m(x_i)`.
    pub fn matrix(&self) -> &DMat {
        &self.d
    }

    /// Its transpose `Dᵀ`.
    pub(crate) fn transposed(&self) -> &DMat {
        &self.dt
    }

    /// The node count `n`.
    pub(crate) fn n(&self) -> usize {
        self.d.rows()
    }

    /// Reference-space derivative of one element's `n³` values `u` along
    /// `axis`: `out[i,j,k] = Σ_m D[i,m] u[m,j,k]` for [`Axis::X`],
    /// `Σ_m D[j,m] u[i,m,k]` for `Y` and `Σ_m D[k,m] u[i,j,m]` for `Z`.
    ///
    /// # Panics
    ///
    /// If `u` or `out` is shorter than `n³`.
    pub fn apply(&self, axis: Axis, u: &[f64], out: &mut [f64]) {
        self.dispatch(axis, false, u, out);
    }

    /// Accumulate the transposed derivative of `w` along `axis` onto
    /// `out`: `out[i,j,k] += Σ_m D[m,i] w[m,j,k]` for [`Axis::X`],
    /// `Σ_m D[m,j] w[i,m,k]` for `Y` and `Σ_m D[m,k] w[i,j,m]` for `Z`.
    ///
    /// # Panics
    ///
    /// If `w` or `out` is shorter than `n³`.
    pub fn apply_t_add(&self, axis: Axis, w: &[f64], out: &mut [f64]) {
        self.dispatch(axis, true, w, out);
    }

    /// Portable twin of [`DerivMatrix::apply`]: the runtime-bounded body
    /// at the baseline instruction set, exposed so tests can assert that
    /// the dispatched path reproduces it bit for bit.
    pub fn apply_scalar(&self, axis: Axis, u: &[f64], out: &mut [f64]) {
        deriv_body(
            self.d.rows(),
            axis,
            false,
            self.d.data(),
            self.dt.data(),
            u,
            out,
        );
    }

    /// Portable twin of [`DerivMatrix::apply_t_add`].
    pub fn apply_t_add_scalar(&self, axis: Axis, w: &[f64], out: &mut [f64]) {
        deriv_body(
            self.d.rows(),
            axis,
            true,
            self.d.data(),
            self.dt.data(),
            w,
            out,
        );
    }

    fn dispatch(&self, axis: Axis, add: bool, u: &[f64], out: &mut [f64]) {
        let (n, d, dt) = (self.n(), self.d.data(), self.dt.data());
        macro_rules! by_n {
            ($($n:literal),*) => {
                match (simd::level(), n) {
                    $(
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: Avx2Fma is only selected after feature
                        // detection confirmed avx2, the one feature the
                        // twin enables.
                        (SimdLevel::Avx2Fma, $n) => unsafe {
                            deriv_fixed_avx2::<$n>(axis, add, d, dt, u, out)
                        },
                    )*
                    _ => deriv_body(n, axis, add, d, dt, u, out),
                }
            };
        }
        // The element sizes of the paper's degree ladder, as in
        // `fused::helmholtz_element`; other sizes run the portable body.
        by_n!(4, 6, 8, 10, 12);
    }
}

/// Compile-time `N` instantiation of [`deriv_body`] for AVX2: separate
/// multiplies and adds in 256-bit vectors, the bits of the portable body.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified avx2 support; the only caller is
// `DerivMatrix::dispatch`, which checks via `simd::level()`.
unsafe fn deriv_fixed_avx2<const N: usize>(
    axis: Axis,
    add: bool,
    d: &[f64],
    dt: &[f64],
    u: &[f64],
    out: &mut [f64],
) {
    deriv_body(N, axis, add, d, dt, u, out);
}

/// One derivative of an `n³` element as the matching pass of
/// [`apply3_body`]: `X` is pass 1 with `Dᵀ` (with `D` itself for the
/// transposed add) as the source rows, `Y` and `Z` are passes 2 and 3
/// with the rows of `D` (of `Dᵀ` for the transposed add) as
/// coefficients. No zero skip: `0·∞` stays NaN.
#[inline(always)]
fn deriv_body(n: usize, axis: Axis, add: bool, d: &[f64], dt: &[f64], u: &[f64], out: &mut [f64]) {
    let plane = n * n;
    let u = &u[..plane * n];
    let out = &mut out[..plane * n];
    let (coef_rows, src_rows) = if add { (dt, d) } else { (d, dt) };
    let (coef_rows, src_rows) = (&coef_rows[..plane], &src_rows[..plane]);
    let init = if add { Init::Dst } else { Init::Zero };
    match axis {
        Axis::X => rows::<false>(n, n, out, u, src_rows, init, false),
        Axis::Y => {
            for (uk, ok) in u.chunks_exact(plane).zip(out.chunks_exact_mut(plane)) {
                rows::<false>(n, n, ok, coef_rows, uk, init, false);
            }
        }
        Axis::Z => rows::<false>(plane, n, out, coef_rows, u, init, false),
    }
}

/// Naive dense tensor-product apply, used only to validate the fast path.
pub fn tensor_apply3_naive(ax: &DMat, ay: &DMat, az: &DMat, u: &[f64]) -> Vec<f64> {
    let (nx, ny, nz) = (ax.cols(), ay.cols(), az.cols());
    let (mx, my, mz) = (ax.rows(), ay.rows(), az.rows());
    let mut out = vec![0.0; mx * my * mz];
    for c in 0..mz {
        for b in 0..my {
            for a in 0..mx {
                let mut acc = 0.0;
                for k in 0..nz {
                    for j in 0..ny {
                        for i in 0..nx {
                            acc += ax[(a, i)] * ay[(b, j)] * az[(c, k)] * u[i + nx * (j + ny * k)];
                        }
                    }
                }
                out[a + mx * (b + my * c)] = acc;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lagrange::{deriv_matrix, interp_matrix};
    use crate::quadrature::gll;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    fn rand_vec(len: usize, seed: u64) -> Vec<f64> {
        // Tiny deterministic LCG; no external RNG needed for these checks.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn fast_apply_matches_naive_square() {
        let n = 5;
        let a = DMat::from_fn(n, n, |i, j| ((i + 1) as f64).sin() * (j as f64 + 0.5));
        let b = DMat::from_fn(n, n, |i, j| (i as f64 - j as f64) * 0.3 + 1.0);
        let c = DMat::from_fn(n, n, |i, j| if i == j { 2.0 } else { 0.1 });
        let u = rand_vec(n * n * n, 42);
        let mut out = vec![0.0; n * n * n];
        let mut scratch = TensorScratch::new();
        tensor_apply3(&a, &b, &c, &u, &mut out, &mut scratch);
        let naive = tensor_apply3_naive(&a, &b, &c, &u);
        for (f, s) in out.iter().zip(&naive) {
            assert_close(*f, *s, 1e-11);
        }
    }

    #[test]
    fn fast_apply_matches_naive_rectangular() {
        let (n, m) = (4, 7);
        let a = DMat::from_fn(m, n, |i, j| (i * n + j) as f64 * 0.01 + 1.0);
        let u = rand_vec(n * n * n, 7);
        let mut out = vec![0.0; m * m * m];
        let mut scratch = TensorScratch::new();
        tensor_apply3(&a, &a, &a, &u, &mut out, &mut scratch);
        let naive = tensor_apply3_naive(&a, &a, &a, &u);
        for (f, s) in out.iter().zip(&naive) {
            assert_close(*f, *s, 1e-10);
        }
    }

    #[test]
    fn identity_apply_is_noop() {
        let n = 6;
        let i = DMat::eye(n);
        let u = rand_vec(n * n * n, 3);
        let mut out = vec![0.0; n * n * n];
        let mut scratch = TensorScratch::new();
        tensor_apply3(&i, &i, &i, &u, &mut out, &mut scratch);
        for (a, b) in out.iter().zip(&u) {
            assert_close(*a, *b, 0.0);
        }
    }

    #[test]
    fn derivs_exact_on_trilinear_monomials() {
        let n = 6;
        let pts = gll(n).points;
        let d = DerivMatrix::new(deriv_matrix(&pts));
        // u = x² y³ + z ⇒ ∂u/∂x = 2xy³, ∂u/∂y = 3x²y², ∂u/∂z = 1.
        let mut u = vec![0.0; n * n * n];
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let (x, y, z) = (pts[i], pts[j], pts[k]);
                    u[i + n * (j + n * k)] = x * x * y.powi(3) + z;
                }
            }
        }
        let mut ur = vec![0.0; n * n * n];
        let mut us = vec![0.0; n * n * n];
        let mut ut = vec![0.0; n * n * n];
        d.apply(Axis::X, &u, &mut ur);
        d.apply(Axis::Y, &u, &mut us);
        d.apply(Axis::Z, &u, &mut ut);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let (x, y, _z) = (pts[i], pts[j], pts[k]);
                    let idx = i + n * (j + n * k);
                    assert_close(ur[idx], 2.0 * x * y.powi(3), 1e-10);
                    assert_close(us[idx], 3.0 * x * x * y * y, 1e-10);
                    assert_close(ut[idx], 1.0, 1e-10);
                }
            }
        }
    }

    #[test]
    fn transpose_derivs_are_adjoint() {
        // ⟨D_x u, w⟩ == ⟨u, D_xᵀ w⟩ for all three directions.
        let n = 5;
        let pts = gll(n).points;
        let d = DerivMatrix::new(deriv_matrix(&pts));
        let u = rand_vec(n * n * n, 11);
        let w = rand_vec(n * n * n, 13);
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();

        let mut du = vec![0.0; n * n * n];
        let mut dtw = vec![0.0; n * n * n];
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            d.apply(axis, &u, &mut du);
            dtw.fill(0.0);
            d.apply_t_add(axis, &w, &mut dtw);
            assert_close(dot(&du, &w), dot(&u, &dtw), 1e-10);
        }
    }

    #[test]
    fn interp3_preserves_polynomials() {
        // Interpolating a degree-(n-1) trivariate polynomial to a finer GLL
        // grid and back must be the identity (both grids resolve it).
        let n = 5;
        let m = 8;
        let coarse = gll(n).points;
        let fine = gll(m).points;
        let up = interp_matrix(&coarse, &fine);
        let down = interp_matrix(&fine, &coarse);
        let mut u = vec![0.0; n * n * n];
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let (x, y, z) = (coarse[i], coarse[j], coarse[k]);
                    u[i + n * (j + n * k)] = x.powi(4) + y * z - 2.0 * x * y;
                }
            }
        }
        let mut scratch = TensorScratch::new();
        let mut fine_u = vec![0.0; m * m * m];
        tensor_apply3(&up, &up, &up, &u, &mut fine_u, &mut scratch);
        let mut back = vec![0.0; n * n * n];
        tensor_apply3(&down, &down, &down, &fine_u, &mut back, &mut scratch);
        for (a, b) in back.iter().zip(&u) {
            assert_close(*a, *b, 1e-10);
        }
    }

    #[test]
    fn scratch_reuse_across_sizes() {
        // The same scratch must be reusable for different problem sizes.
        let mut scratch = TensorScratch::new();
        for n in [3usize, 6, 4] {
            let i = DMat::eye(n);
            let u = rand_vec(n * n * n, n as u64);
            let mut out = vec![0.0; n * n * n];
            tensor_apply3(&i, &i, &i, &u, &mut out, &mut scratch);
            assert_eq!(out, u);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn short_input_panics() {
        // A short `u` must not leave stale scratch entries in the result:
        // fill the scratch with a full-size apply first, then fall short.
        let j = DMat::from_fn(6, 4, |r, c| (r + c) as f64);
        let mut scratch = TensorScratch::new();
        let mut out = vec![0.0; 6 * 6 * 6];
        tensor_apply3(&j, &j, &j, &rand_vec(64, 1), &mut out, &mut scratch);
        tensor_apply3(&j, &j, &j, &rand_vec(63, 2), &mut out, &mut scratch);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn short_output_panics() {
        let j = DMat::from_fn(6, 4, |r, c| (r + c) as f64);
        let mut out = vec![0.0; 6 * 6 * 6 - 1];
        tensor_apply3(
            &j,
            &j,
            &j,
            &rand_vec(64, 1),
            &mut out,
            &mut TensorScratch::new(),
        );
    }
}

#[cfg(test)]
mod deriv_tests {
    use super::*;
    use crate::lagrange::deriv_matrix;
    use crate::quadrature::gll;

    fn rand_vec(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    // The element derivatives as they were computed before they became
    // passes of the contraction body, kept literally as the reference
    // for their chains: `+0.0` (the output's value, for the transposed
    // adds) plus separately rounded products in ascending `m`. The
    // const-N bodies of N = 4, 6, …, 12 computed the same chains without
    // the zero skips.

    fn ref_x(d: &DMat, u: &[f64], out: &mut [f64], n: usize) {
        for col in 0..n * n {
            let uin = &u[col * n..(col + 1) * n];
            let dst = &mut out[col * n..(col + 1) * n];
            for i in 0..n {
                let mut acc = 0.0;
                for (dm, &uv) in d.row(i).iter().zip(uin) {
                    acc += dm * uv;
                }
                dst[i] = acc;
            }
        }
    }

    fn ref_y(d: &DMat, u: &[f64], out: &mut [f64], n: usize) {
        let plane = n * n;
        for k in 0..n {
            let uk = &u[k * plane..(k + 1) * plane];
            let ok = &mut out[k * plane..(k + 1) * plane];
            for j in 0..n {
                let dst = &mut ok[j * n..(j + 1) * n];
                dst.fill(0.0);
                for (m, &dm) in d.row(j).iter().enumerate() {
                    if dm == 0.0 {
                        continue;
                    }
                    for (o, &s) in dst.iter_mut().zip(&uk[m * n..(m + 1) * n]) {
                        *o += dm * s;
                    }
                }
            }
        }
    }

    fn ref_z(d: &DMat, u: &[f64], out: &mut [f64], n: usize) {
        let plane = n * n;
        for k in 0..n {
            let dst = &mut out[k * plane..(k + 1) * plane];
            dst.fill(0.0);
            for (m, &dm) in d.row(k).iter().enumerate() {
                if dm == 0.0 {
                    continue;
                }
                for (o, &s) in dst.iter_mut().zip(&u[m * plane..(m + 1) * plane]) {
                    *o += dm * s;
                }
            }
        }
    }

    fn ref_x_t_add(d: &DMat, w: &[f64], out: &mut [f64], n: usize) {
        for col in 0..n * n {
            let win = &w[col * n..(col + 1) * n];
            let dst = &mut out[col * n..(col + 1) * n];
            for (m, &wv) in win.iter().enumerate() {
                if wv == 0.0 {
                    continue;
                }
                for (o, &dm) in dst.iter_mut().zip(d.row(m)) {
                    *o += dm * wv;
                }
            }
        }
    }

    fn ref_y_t_add(d: &DMat, w: &[f64], out: &mut [f64], n: usize) {
        let plane = n * n;
        for k in 0..n {
            let wk = &w[k * plane..(k + 1) * plane];
            let ok = &mut out[k * plane..(k + 1) * plane];
            for m in 0..n {
                let src = &wk[m * n..(m + 1) * n];
                for (j, &dm) in d.row(m).iter().enumerate() {
                    if dm == 0.0 {
                        continue;
                    }
                    for (o, &s) in ok[j * n..(j + 1) * n].iter_mut().zip(src) {
                        *o += dm * s;
                    }
                }
            }
        }
    }

    fn ref_z_t_add(d: &DMat, w: &[f64], out: &mut [f64], n: usize) {
        let plane = n * n;
        for m in 0..n {
            let src = &w[m * plane..(m + 1) * plane];
            for (k, &dm) in d.row(m).iter().enumerate() {
                if dm == 0.0 {
                    continue;
                }
                for (o, &s) in out[k * plane..(k + 1) * plane].iter_mut().zip(src) {
                    *o += dm * s;
                }
            }
        }
    }

    type RefKernel = fn(&DMat, &[f64], &mut [f64], usize);

    fn assert_bits(label: &str, a: &[f64], b: &[f64]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label} index {i}: {x:e} vs {y:e}"
            );
        }
    }

    #[test]
    fn derivatives_keep_the_reference_chains_bitwise() {
        let forward: [(Axis, RefKernel); 3] =
            [(Axis::X, ref_x), (Axis::Y, ref_y), (Axis::Z, ref_z)];
        let transposed: [(Axis, RefKernel); 3] = [
            (Axis::X, ref_x_t_add),
            (Axis::Y, ref_y_t_add),
            (Axis::Z, ref_z_t_add),
        ];
        for n in 3..=12 {
            let nn = n * n * n;
            // The GLL matrix has exact zeros on its interior diagonal; the
            // second matrix adds signed zeros off the diagonal.
            let gll_d = deriv_matrix(&gll(n).points);
            let zero_laden = DMat::from_fn(n, n, |i, j| match (i + 2 * j) % 5 {
                0 => 0.0,
                1 => -0.0,
                _ => ((i * 5 + j) as f64 * 0.61).cos(),
            });
            for (which, dense) in [("gll", gll_d), ("zero-laden", zero_laden)] {
                let d = DerivMatrix::new(dense.clone());
                let u = rand_vec(nn, n as u64);
                let init = rand_vec(nn, 100 + n as u64);
                for (axis, reference) in forward {
                    let mut want = vec![0.0; nn];
                    reference(&dense, &u, &mut want, n);
                    let mut got = vec![0.0; nn];
                    d.apply(axis, &u, &mut got);
                    assert_bits(&format!("{which} {axis:?} n={n}"), &want, &got);
                    d.apply_scalar(axis, &u, &mut got);
                    assert_bits(&format!("{which} {axis:?} scalar n={n}"), &want, &got);
                }
                for (axis, reference) in transposed {
                    let mut want = init.clone();
                    reference(&dense, &u, &mut want, n);
                    let mut got = init.clone();
                    d.apply_t_add(axis, &u, &mut got);
                    assert_bits(&format!("{which} {axis:?}ᵀ n={n}"), &want, &got);
                    let mut got = init.clone();
                    d.apply_t_add_scalar(axis, &u, &mut got);
                    assert_bits(&format!("{which} {axis:?}ᵀ scalar n={n}"), &want, &got);
                }
            }
        }
    }

    #[test]
    fn derivatives_multiply_zero_coefficients() {
        // With a zero diagonal an infinite value meets a zero coefficient
        // in its own output: 0·∞ must make that output NaN, forward and
        // transposed, on every axis.
        let n = 6;
        let d = DerivMatrix::new(DMat::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else {
                (i as f64 - j as f64).recip()
            }
        }));
        let node = 2 + n * (2 + n * 2);
        let mut u = rand_vec(n * n * n, 9);
        u[node] = f64::INFINITY;
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            let mut out = vec![0.0; n * n * n];
            d.apply(axis, &u, &mut out);
            assert!(out[node].is_nan(), "{axis:?}: {}", out[node]);
            out.fill(0.0);
            d.apply_t_add(axis, &u, &mut out);
            assert!(out[node].is_nan(), "{axis:?} transposed: {}", out[node]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn short_derivative_input_panics() {
        let d = DerivMatrix::new(deriv_matrix(&gll(6).points));
        let mut out = vec![0.0; 6 * 6 * 6];
        d.apply(Axis::Y, &rand_vec(6 * 6 * 6 - 1, 3), &mut out);
    }
}
