//! Differential operators in physical space: gradient, curl, weak
//! divergence, and dealiased advection.
//!
//! All operators act on element-local storage and use the chain rule
//! through the inverse-map metrics of [`GeomFactors`]. The advection
//! operator implements the paper's "dealiasing (overintegration) according
//! to the 3/2-rule" (§6): velocities and gradients are interpolated to a
//! finer GLL grid, the nonlinear product is formed there, and the result is
//! L²-projected back through the diagonal coarse mass.

use rbx_basis::simd;
use rbx_basis::tensor::{tensor_apply3, Axis, TensorScratch};
use rbx_basis::{dealias_nodes, gll, interp_matrix, DMat};
use rbx_device::{loop_chunk, RangePtr, WorkerPool};
use rbx_mesh::GeomFactors;
use std::cell::RefCell;

/// Element count below which the pooled gradient, weak divergence and
/// dealiased advection run inline on the caller
/// ([`WorkerPool::for_each_range_min`]). Measured on commodity 4–8 core
/// hosts: element loops win pooled quickly, against a fixed ~10 µs pool
/// wake.
const GRAD_ELEMS: usize = 8;

/// Scratch buffers for the gradient/advection kernels.
#[derive(Debug, Default)]
pub struct DiffScratch {
    ur: Vec<f64>,
    us: Vec<f64>,
    ut: Vec<f64>,
}

/// Per-worker scratch for the pooled kernels; lives in a thread-local so
/// repeated dispatches reuse the same buffers (`resize` is a no-op once
/// warm — the zero-allocation dispatch contract of the pool runtime).
#[derive(Default)]
struct PoolDiffScratch {
    ds: DiffScratch,
    ts: TensorScratch,
    /// One element's physical gradient (advection; the curl keeps one
    /// component at a time in the first).
    grad: [Vec<f64>; 3],
    fine_a: [Vec<f64>; 3],
    fine_g: Vec<f64>,
    prod: Vec<f64>,
}

thread_local! {
    static POOL_SCRATCH: RefCell<PoolDiffScratch> = RefCell::new(PoolDiffScratch::default());
}

/// Pointwise physical gradient `(∂u/∂x, ∂u/∂y, ∂u/∂z)` of a scalar field.
pub fn phys_grad(
    geom: &GeomFactors,
    u: &[f64],
    gx: &mut [f64],
    gy: &mut [f64],
    gz: &mut [f64],
    scratch: &mut DiffScratch,
) {
    let nn = geom.nodes_per_element();
    debug_assert_eq!(u.len(), geom.total_nodes());
    for base in (0..geom.total_nodes()).step_by(nn) {
        let end = base + nn;
        let g = [&mut gx[base..end], &mut gy[base..end], &mut gz[base..end]];
        elem_grad(geom, base, &u[base..end], g, scratch);
    }
}

/// Physical gradient of the element whose nodes start at `base`: the
/// reference derivatives of its values `ue` combined through the
/// inverse-map metrics into `g`.
fn elem_grad(geom: &GeomFactors, base: usize, ue: &[f64], g: [&mut [f64]; 3], s: &mut DiffScratch) {
    ref_derivs(geom, ue, s);
    for (c, gc) in g.into_iter().enumerate() {
        combine_component(geom, base, c, gc, s);
    }
}

/// Component `c` of the physical gradient of the element whose nodes
/// start at `base` — the same bits [`phys_grad`] writes there — for
/// callers that need one component of a few elements.
pub(crate) fn elem_grad_component(
    geom: &GeomFactors,
    base: usize,
    ue: &[f64],
    c: usize,
    gc: &mut [f64],
    s: &mut DiffScratch,
) {
    ref_derivs(geom, ue, s);
    combine_component(geom, base, c, gc, s);
}

/// The three reference derivatives of one element's values into `s`.
fn ref_derivs(geom: &GeomFactors, ue: &[f64], s: &mut DiffScratch) {
    let nn = geom.nodes_per_element();
    for (axis, out) in [
        (Axis::X, &mut s.ur),
        (Axis::Y, &mut s.us),
        (Axis::Z, &mut s.ut),
    ] {
        out.resize(nn, 0.0);
        geom.d.apply(axis, ue, out);
    }
}

/// Physical component `c` from the reference derivatives in `s`.
fn combine_component(geom: &GeomFactors, base: usize, c: usize, gc: &mut [f64], s: &DiffScratch) {
    let end = base + s.ur.len();
    let dr = &geom.dr;
    simd::combine3(
        gc,
        &dr[c][base..end],
        &s.ur,
        &dr[3 + c][base..end],
        &s.us,
        &dr[6 + c][base..end],
        &s.ut,
    );
}

/// Pooled [`phys_grad`]: element chunks self-schedule across the pool's
/// workers, each writing its own elements' gradient nodes. Bitwise
/// identical to the serial kernel for every thread count.
pub fn phys_grad_with(
    geom: &GeomFactors,
    u: &[f64],
    gx: &mut [f64],
    gy: &mut [f64],
    gz: &mut [f64],
    pool: &WorkerPool,
) {
    let nn = geom.nodes_per_element();
    let nelv = geom.nelv;
    debug_assert_eq!(u.len(), geom.total_nodes());
    let gp = [RangePtr::new(gx), RangePtr::new(gy), RangePtr::new(gz)];
    let chunk = loop_chunk(nelv, pool.threads());
    pool.for_each_range_min(nelv, chunk, GRAD_ELEMS, |e0, e1| {
        POOL_SCRATCH.with(|cell| {
            let s = &mut cell.borrow_mut().ds;
            for e in e0..e1 {
                let (base, end) = (e * nn, (e + 1) * nn);
                let [gx, gy, gz] = &gp;
                // SAFETY: element ranges of distinct chunks are disjoint.
                let g = unsafe {
                    [
                        gx.range_mut(base, end),
                        gy.range_mut(base, end),
                        gz.range_mut(base, end),
                    ]
                };
                elem_grad(geom, base, &u[base..end], g, s);
            }
        });
    });
}

/// Pointwise curl `ω = ∇ × u` of a vector field, in one pooled pass over
/// the elements: per element, the gradient components each curl
/// component needs, combined as `ωx = ∂uz/∂y − ∂uy/∂z`,
/// `ωy = −∂uz/∂x + ∂ux/∂z` and `ωz = ∂uy/∂x − ∂ux/∂y`.
pub fn curl(geom: &GeomFactors, u: [&[f64]; 3], w: [&mut [f64]; 3], pool: &WorkerPool) {
    let nn = geom.nodes_per_element();
    let nelv = geom.nelv;
    let wp = w.map(RangePtr::new);
    let chunk = loop_chunk(nelv, pool.threads());
    pool.for_each_range_min(nelv, chunk, GRAD_ELEMS, |e0, e1| {
        POOL_SCRATCH.with(|cell| {
            let PoolDiffScratch { ds, grad, .. } = &mut *cell.borrow_mut();
            let g = &mut grad[0];
            g.resize(nn, 0.0);
            for e in e0..e1 {
                let (base, end) = (e * nn, (e + 1) * nn);
                let [ux, uy, uz] = u.map(|c| &c[base..end]);
                let [wx, wy, wz] = &wp;
                // SAFETY: element ranges of distinct chunks are disjoint.
                let (wx, wy, wz) = unsafe {
                    (
                        wx.range_mut(base, end),
                        wy.range_mut(base, end),
                        wz.range_mut(base, end),
                    )
                };
                ref_derivs(geom, uz, ds);
                combine_component(geom, base, 1, wx, ds);
                combine_component(geom, base, 0, g, ds);
                for (o, &v) in wy.iter_mut().zip(g.iter()) {
                    *o = -v;
                }
                ref_derivs(geom, uy, ds);
                combine_component(geom, base, 2, g, ds);
                for (o, &v) in wx.iter_mut().zip(g.iter()) {
                    *o -= v;
                }
                combine_component(geom, base, 0, wz, ds);
                ref_derivs(geom, ux, ds);
                combine_component(geom, base, 2, g, ds);
                for (o, &v) in wy.iter_mut().zip(g.iter()) {
                    *o += v;
                }
                combine_component(geom, base, 1, g, ds);
                for (o, &v) in wz.iter_mut().zip(g.iter()) {
                    *o -= v;
                }
            }
        });
    });
}

/// Weak divergence ("cdtp"): `out_i = (∇φ_i, v)` element-locally:
///
/// `out = Drᵀ(BJ·(r·v)) + Dsᵀ(BJ·(s·v)) + Dtᵀ(BJ·(t·v))`
///
/// where `BJ = w³·J` is the diagonal mass. The caller gather-scatters the
/// result to assemble it. This builds the pressure-Poisson right-hand side.
pub fn weak_divergence(
    geom: &GeomFactors,
    v: [&[f64]; 3],
    out: &mut [f64],
    scratch: &mut DiffScratch,
) {
    let nn = geom.nodes_per_element();
    for base in (0..geom.total_nodes()).step_by(nn) {
        elem_weak_divergence(geom, base, v, &mut out[base..base + nn], scratch);
    }
}

/// Pooled [`weak_divergence`]; bitwise identical to the serial kernel for
/// every thread count (per-element writes are disjoint across chunks).
pub fn weak_divergence_with(
    geom: &GeomFactors,
    v: [&[f64]; 3],
    out: &mut [f64],
    pool: &WorkerPool,
) {
    let nn = geom.nodes_per_element();
    let nelv = geom.nelv;
    let op = RangePtr::new(out);
    let chunk = loop_chunk(nelv, pool.threads());
    pool.for_each_range_min(nelv, chunk, GRAD_ELEMS, |e0, e1| {
        POOL_SCRATCH.with(|cell| {
            let s = &mut cell.borrow_mut().ds;
            for e in e0..e1 {
                let base = e * nn;
                // SAFETY: element ranges of distinct chunks are disjoint.
                let oe = unsafe { op.range_mut(base, base + nn) };
                elem_weak_divergence(geom, base, v, oe, s);
            }
        });
    });
}

/// [`weak_divergence`] of the element whose nodes start at `base`, into
/// that element's output `oe`.
fn elem_weak_divergence(
    geom: &GeomFactors,
    base: usize,
    v: [&[f64]; 3],
    oe: &mut [f64],
    s: &mut DiffScratch,
) {
    let end = base + oe.len();
    let dr = &geom.dr;
    let bj = &geom.mass[base..end];
    let [vx, vy, vz] = v.map(|c| &c[base..end]);
    for (c, wc) in [&mut s.ur, &mut s.us, &mut s.ut].into_iter().enumerate() {
        wc.resize(oe.len(), 0.0);
        simd::wcombine3(
            wc,
            bj,
            &dr[3 * c][base..end],
            vx,
            &dr[3 * c + 1][base..end],
            vy,
            &dr[3 * c + 2][base..end],
            vz,
        );
    }
    oe.fill(0.0);
    for (axis, wc) in [(Axis::X, &s.ur), (Axis::Y, &s.us), (Axis::Z, &s.ut)] {
        geom.d.apply_t_add(axis, wc, oe);
    }
}

/// Pointwise divergence `∇·v` (collocation), for diagnostics.
pub fn pointwise_divergence(
    geom: &GeomFactors,
    v: [&[f64]; 3],
    out: &mut [f64],
    scratch: &mut DiffScratch,
) {
    let ntot = geom.total_nodes();
    let mut gx = vec![0.0; ntot];
    let mut gy = vec![0.0; ntot];
    let mut gz = vec![0.0; ntot];
    phys_grad(geom, v[0], &mut gx, &mut gy, &mut gz, scratch);
    out.copy_from_slice(&gx);
    phys_grad(geom, v[1], &mut gx, &mut gy, &mut gz, scratch);
    for i in 0..ntot {
        out[i] += gy[i];
    }
    phys_grad(geom, v[2], &mut gx, &mut gy, &mut gz, scratch);
    for i in 0..ntot {
        out[i] += gz[i];
    }
}

/// 3/2-rule dealiasing apparatus for the advection operator.
pub struct Dealias {
    /// Fine 1-D node count `⌈3(p+1)/2⌉`.
    pub mf: usize,
    /// Coarse→fine interpolation matrix (per dimension).
    jmat: DMat,
    /// Its transpose, the fine→coarse projection.
    jt: DMat,
    /// Fine-grid diagonal mass per element node (`w_f³ · J_f`).
    bf: Vec<f64>,
    enabled: bool,
}

impl Dealias {
    /// Build the fine-grid quadrature for `geom`. With `enabled = false`
    /// the advection product is formed on the collocation grid instead
    /// (the ablation case).
    pub fn new(geom: &GeomFactors, enabled: bool) -> Self {
        let n = geom.nx1;
        let mf = dealias_nodes(geom.p);
        let fine = gll(mf);
        let jmat = interp_matrix(&geom.points, &fine.points);
        // Fine Jacobian by interpolation of the coarse Jacobian (exact for
        // trilinear elements; spectrally accurate for curved ones).
        let nn = n * n * n;
        let mmf = mf * mf * mf;
        let mut bf = vec![0.0; geom.nelv * mmf];
        let mut scratch = TensorScratch::new();
        let mut jf = vec![0.0; mmf];
        for e in 0..geom.nelv {
            tensor_apply3(
                &jmat,
                &jmat,
                &jmat,
                &geom.jac[e * nn..(e + 1) * nn],
                &mut jf,
                &mut scratch,
            );
            for k in 0..mf {
                for j in 0..mf {
                    for i in 0..mf {
                        let w3 = fine.weights[i] * fine.weights[j] * fine.weights[k];
                        bf[e * mmf + i + mf * (j + mf * k)] = w3 * jf[i + mf * (j + mf * k)];
                    }
                }
            }
        }
        Self {
            mf,
            jt: jmat.transpose(),
            jmat,
            bf,
            enabled,
        }
    }

    /// Dealiased advection: `out = (a·∇)v` as a pointwise field.
    ///
    /// The physical gradient of `v` is formed on the collocation grid;
    /// gradient and advecting velocity are interpolated to the fine grid,
    /// multiplied there, and projected back through the coarse mass.
    ///
    /// The serial one-field reference the solver's
    /// [`Dealias::advect_with`] is tested against, bit for bit.
    pub fn advect(
        &self,
        geom: &GeomFactors,
        a: [&[f64]; 3],
        v: &[f64],
        out: &mut [f64],
        scratch: &mut DiffScratch,
    ) {
        let ntot = geom.total_nodes();
        let mut gx = vec![0.0; ntot];
        let mut gy = vec![0.0; ntot];
        let mut gz = vec![0.0; ntot];
        phys_grad(geom, v, &mut gx, &mut gy, &mut gz, scratch);

        if !self.enabled {
            simd::combine3(&mut out[..ntot], a[0], &gx, a[1], &gy, a[2], &gz);
            return;
        }

        let n = geom.nx1;
        let nn = n * n * n;
        let mf = self.mf;
        let mmf = mf * mf * mf;
        let mut ts = TensorScratch::new();
        let mut fine_a = [vec![0.0; mmf], vec![0.0; mmf], vec![0.0; mmf]];
        let mut fine_g = vec![0.0; mmf];
        let mut prod = vec![0.0; mmf];
        for e in 0..geom.nelv {
            let base = e * nn;
            for d in 0..3 {
                self.interp(&a[d][base..base + nn], &mut fine_a[d], &mut ts);
            }
            prod.fill(0.0);
            for (d, g) in [&gx, &gy, &gz].into_iter().enumerate() {
                self.interp(&g[base..base + nn], &mut fine_g, &mut ts);
                simd::fma_acc(&fine_a[d], &fine_g, &mut prod);
            }
            self.project(geom, e, &mut prod, &mut out[base..base + nn], &mut ts);
        }
    }

    /// Coarse → fine interpolation of one element's values.
    fn interp(&self, ue: &[f64], fine: &mut [f64], ts: &mut TensorScratch) {
        tensor_apply3(&self.jmat, &self.jmat, &self.jmat, ue, fine, ts);
    }

    /// Weight element `e`'s fine-grid product by the fine mass and
    /// project it back: `B_c·out = Jᵀ(B_f·prod)`.
    fn project(
        &self,
        geom: &GeomFactors,
        e: usize,
        prod: &mut [f64],
        oe: &mut [f64],
        ts: &mut TensorScratch,
    ) {
        let nn = oe.len();
        let mmf = prod.len();
        simd::hadamard(&self.bf[e * mmf..(e + 1) * mmf], prod);
        tensor_apply3(&self.jt, &self.jt, &self.jt, prod, oe, ts);
        for (o, m) in oe.iter_mut().zip(&geom.mass[e * nn..(e + 1) * nn]) {
            *o /= m;
        }
    }

    /// Pooled advection of several fields by one velocity:
    /// `out[f] = (a·∇)v[f]` for every `f`, in one pass over the elements.
    /// Per element the velocity is interpolated to the fine grid once and
    /// shared by every field, and each field's gradient is formed in the
    /// worker's scratch. Every output is bitwise identical to a serial
    /// [`Dealias::advect`] of that field, for every thread count.
    pub fn advect_with<const F: usize>(
        &self,
        geom: &GeomFactors,
        a: [&[f64]; 3],
        v: [&[f64]; F],
        out: [&mut [f64]; F],
        pool: &WorkerPool,
    ) {
        let nn = geom.nodes_per_element();
        let nelv = geom.nelv;
        let mmf = self.mf * self.mf * self.mf;
        let op = out.map(RangePtr::new);
        let chunk = loop_chunk(nelv, pool.threads());
        pool.for_each_range_min(nelv, chunk, GRAD_ELEMS, |e0, e1| {
            POOL_SCRATCH.with(|cell| {
                let s = &mut *cell.borrow_mut();
                for g in &mut s.grad {
                    g.resize(nn, 0.0);
                }
                for f in &mut s.fine_a {
                    f.resize(mmf, 0.0);
                }
                s.fine_g.resize(mmf, 0.0);
                s.prod.resize(mmf, 0.0);
                for e in e0..e1 {
                    let (base, end) = (e * nn, (e + 1) * nn);
                    if self.enabled {
                        for (ad, fa) in a.iter().zip(&mut s.fine_a) {
                            self.interp(&ad[base..end], fa, &mut s.ts);
                        }
                    }
                    for (vf, of) in v.iter().zip(&op) {
                        let [gx, gy, gz] = &mut s.grad;
                        elem_grad(geom, base, &vf[base..end], [gx, gy, gz], &mut s.ds);
                        // SAFETY: element ranges of distinct chunks are disjoint.
                        let oe = unsafe { of.range_mut(base, end) };
                        if !self.enabled {
                            let [ax, ay, az] = a.map(|ad| &ad[base..end]);
                            simd::combine3(oe, ax, gx, ay, gy, az, gz);
                            continue;
                        }
                        s.prod.fill(0.0);
                        for (fa, g) in s.fine_a.iter().zip(&s.grad) {
                            self.interp(g, &mut s.fine_g, &mut s.ts);
                            simd::fma_acc(fa, &s.fine_g, &mut s.prod);
                        }
                        self.project(geom, e, &mut s.prod, oe, &mut s.ts);
                    }
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbx_mesh::cylinder::{cylinder_mesh, CylinderParams};
    use rbx_mesh::generators::box_mesh;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn gradient_exact_on_polynomial_box() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 2.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, 5);
        let ntot = geom.total_nodes();
        let u: Vec<f64> = (0..ntot)
            .map(|i| {
                let (x, y, z) = (geom.coords[0][i], geom.coords[1][i], geom.coords[2][i]);
                x * x * y + z * z * z - 2.0 * x * z
            })
            .collect();
        let mut gx = vec![0.0; ntot];
        let mut gy = vec![0.0; ntot];
        let mut gz = vec![0.0; ntot];
        let mut s = DiffScratch::default();
        phys_grad(&geom, &u, &mut gx, &mut gy, &mut gz, &mut s);
        for i in 0..ntot {
            let (x, y, z) = (geom.coords[0][i], geom.coords[1][i], geom.coords[2][i]);
            assert_close(gx[i], 2.0 * x * y - 2.0 * z, 1e-9);
            assert_close(gy[i], x * x, 1e-9);
            assert_close(gz[i], 3.0 * z * z - 2.0 * x, 1e-9);
        }
    }

    #[test]
    fn gradient_spectral_on_cylinder() {
        // Curved metrics: trig field converges spectrally; at degree 8 the
        // gradient should be accurate to ~1e-8 on a coarse o-grid.
        let mesh = cylinder_mesh(CylinderParams::default());
        let geom = GeomFactors::new(&mesh, 8);
        let ntot = geom.total_nodes();
        let u: Vec<f64> = (0..ntot)
            .map(|i| {
                let (x, y) = (geom.coords[0][i], geom.coords[1][i]);
                (2.0 * x).sin() * (1.5 * y).cos()
            })
            .collect();
        let mut gx = vec![0.0; ntot];
        let mut gy = vec![0.0; ntot];
        let mut gz = vec![0.0; ntot];
        let mut s = DiffScratch::default();
        phys_grad(&geom, &u, &mut gx, &mut gy, &mut gz, &mut s);
        let mut max_err = 0.0f64;
        for i in 0..ntot {
            let (x, y) = (geom.coords[0][i], geom.coords[1][i]);
            let ex = 2.0 * (2.0 * x).cos() * (1.5 * y).cos();
            let ey = -1.5 * (2.0 * x).sin() * (1.5 * y).sin();
            max_err = max_err.max((gx[i] - ex).abs()).max((gy[i] - ey).abs());
            max_err = max_err.max(gz[i].abs());
        }
        assert!(max_err < 1e-5, "max gradient error {max_err}");
    }

    #[test]
    fn curl_of_gradient_vanishes() {
        let mesh = box_mesh(2, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, 6);
        let ntot = geom.total_nodes();
        let phi: Vec<f64> = (0..ntot)
            .map(|i| {
                let (x, y, z) = (geom.coords[0][i], geom.coords[1][i], geom.coords[2][i]);
                x * x * y * z + y * y
            })
            .collect();
        let mut gx = vec![0.0; ntot];
        let mut gy = vec![0.0; ntot];
        let mut gz = vec![0.0; ntot];
        let mut s = DiffScratch::default();
        phys_grad(&geom, &phi, &mut gx, &mut gy, &mut gz, &mut s);
        let mut wx = vec![0.0; ntot];
        let mut wy = vec![0.0; ntot];
        let mut wz = vec![0.0; ntot];
        let pool = WorkerPool::new(1);
        curl(&geom, [&gx, &gy, &gz], [&mut wx, &mut wy, &mut wz], &pool);
        let max = wx
            .iter()
            .chain(&wy)
            .chain(&wz)
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max < 1e-8, "curl grad = {max}");
    }

    #[test]
    fn curl_of_rigid_rotation() {
        // u = (−y, x, 0) ⇒ ∇×u = (0, 0, 2).
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, 3);
        let ntot = geom.total_nodes();
        let ux: Vec<f64> = (0..ntot).map(|i| -geom.coords[1][i]).collect();
        let uy: Vec<f64> = (0..ntot).map(|i| geom.coords[0][i]).collect();
        let uz = vec![0.0; ntot];
        let mut wx = vec![0.0; ntot];
        let mut wy = vec![0.0; ntot];
        let mut wz = vec![0.0; ntot];
        let pool = WorkerPool::new(1);
        curl(&geom, [&ux, &uy, &uz], [&mut wx, &mut wy, &mut wz], &pool);
        for i in 0..ntot {
            assert_close(wx[i], 0.0, 1e-11);
            assert_close(wy[i], 0.0, 1e-11);
            assert_close(wz[i], 2.0, 1e-11);
        }
    }

    #[test]
    fn curl_is_bitwise_the_gradient_composition() {
        // The reference composes three full physical gradients, as the
        // curl did before it became one element pass.
        let meshes = [
            box_mesh(3, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false),
            cylinder_mesh(CylinderParams {
                n_z: 2,
                ..CylinderParams::default()
            }),
        ];
        for mesh in &meshes {
            let geom = GeomFactors::new(mesh, 5);
            let ntot = geom.total_nodes();
            let u: Vec<Vec<f64>> = (0..3)
                .map(|c| {
                    (0..ntot)
                        .map(|i| ((i * (31 + 7 * c) % 89) as f64) * 0.03 - 1.1)
                        .collect()
                })
                .collect();
            let mut s = DiffScratch::default();
            let g: Vec<[Vec<f64>; 3]> = u
                .iter()
                .map(|uc| {
                    let mut g = [vec![0.0; ntot], vec![0.0; ntot], vec![0.0; ntot]];
                    let [gx, gy, gz] = &mut g;
                    phys_grad(&geom, uc, gx, gy, gz, &mut s);
                    g
                })
                .collect();
            let (mut wx, mut wy, mut wz) = (vec![0.0; ntot], vec![0.0; ntot], vec![0.0; ntot]);
            for i in 0..ntot {
                wx[i] = g[2][1][i];
                wy[i] = -g[2][0][i];
                wx[i] -= g[1][2][i];
                wz[i] = g[1][0][i];
                wy[i] += g[0][2][i];
                wz[i] -= g[0][1][i];
            }
            for threads in [1usize, 3] {
                let pool = WorkerPool::new(threads);
                let mut w = [vec![0.0; ntot], vec![0.0; ntot], vec![0.0; ntot]];
                let [ox, oy, oz] = &mut w;
                curl(&geom, [&u[0], &u[1], &u[2]], [ox, oy, oz], &pool);
                for (c, (want, got)) in [&wx, &wy, &wz].into_iter().zip(&w).enumerate() {
                    let same = want
                        .iter()
                        .zip(got)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "curl component {c}, threads={threads}, nelv={}",
                        geom.nelv
                    );
                }
            }
        }
    }

    #[test]
    fn weak_divergence_pairs_with_gradient() {
        // uᵀ·cdtp(v) = ∫ ∇u·v for continuous u: check with u = x,
        // v = (y, 0, 0): ∫ y over the unit cube = 1/2.
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, 4);
        let ntot = geom.total_nodes();
        let u: Vec<f64> = geom.coords[0].clone();
        let vx: Vec<f64> = geom.coords[1].clone();
        let zero = vec![0.0; ntot];
        let mut out = vec![0.0; ntot];
        let mut s = DiffScratch::default();
        weak_divergence(&geom, [&vx, &zero, &zero], &mut out, &mut s);
        let pair: f64 = u.iter().zip(&out).map(|(a, b)| a * b).sum();
        assert_close(pair, 0.5, 1e-10);
    }

    #[test]
    fn pointwise_divergence_of_solenoidal_field() {
        // v = (y·z, x·z, x·y) is divergence free.
        let mesh = box_mesh(2, 2, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, 4);
        let ntot = geom.total_nodes();
        let vx: Vec<f64> = (0..ntot)
            .map(|i| geom.coords[1][i] * geom.coords[2][i])
            .collect();
        let vy: Vec<f64> = (0..ntot)
            .map(|i| geom.coords[0][i] * geom.coords[2][i])
            .collect();
        let vz: Vec<f64> = (0..ntot)
            .map(|i| geom.coords[0][i] * geom.coords[1][i])
            .collect();
        let mut div = vec![0.0; ntot];
        let mut s = DiffScratch::default();
        pointwise_divergence(&geom, [&vx, &vy, &vz], &mut div, &mut s);
        let max = div.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max < 1e-10, "divergence {max}");
    }

    #[test]
    fn advection_exact_on_low_degree_fields() {
        // (a·∇)v with polynomial data of low enough total degree must be
        // identical with and without dealiasing (both quadratures exact).
        let p = 4;
        let mesh = box_mesh(2, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, p);
        let ntot = geom.total_nodes();
        let ax: Vec<f64> = (0..ntot).map(|i| geom.coords[1][i]).collect(); // a = (y, 1, 0)
        let ones = vec![1.0; ntot];
        let zero = vec![0.0; ntot];
        let v: Vec<f64> = (0..ntot)
            .map(|i| geom.coords[0][i] * geom.coords[0][i]) // v = x²
            .collect();
        let mut s = DiffScratch::default();
        let dealias_on = Dealias::new(&geom, true);
        let dealias_off = Dealias::new(&geom, false);
        let mut out_on = vec![0.0; ntot];
        let mut out_off = vec![0.0; ntot];
        dealias_on.advect(&geom, [&ax, &ones, &zero], &v, &mut out_on, &mut s);
        dealias_off.advect(&geom, [&ax, &ones, &zero], &v, &mut out_off, &mut s);
        for i in 0..ntot {
            // (a·∇)v = y·2x.
            let expect = 2.0 * geom.coords[0][i] * geom.coords[1][i];
            assert_close(out_on[i], expect, 1e-9);
            assert_close(out_off[i], expect, 1e-9);
        }
    }

    #[test]
    fn pooled_kernels_match_serial_bitwise_across_thread_counts() {
        // The box has affine metrics; the cylinder's curved elements give
        // every metric term and the fine Jacobian a non-trivial value.
        let p = 4;
        let meshes = [
            box_mesh(3, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false),
            cylinder_mesh(CylinderParams {
                n_z: 2,
                ..CylinderParams::default()
            }),
        ];
        for mesh in &meshes {
            let geom = GeomFactors::new(mesh, p);
            let ntot = geom.total_nodes();
            let field = |seed: usize| -> Vec<f64> {
                (0..ntot)
                    .map(|i| ((i * (29 + seed) % 83) as f64) * 0.02 - 0.8)
                    .collect()
            };
            let u = field(0);
            let ax: Vec<f64> = (0..ntot).map(|i| geom.coords[1][i] - 0.3).collect();
            let ay: Vec<f64> = (0..ntot).map(|i| geom.coords[0][i] * 0.5).collect();
            let az: Vec<f64> = (0..ntot).map(|i| geom.coords[2][i] - 0.1).collect();
            // The advected fields: the velocity itself plus a scalar, as in
            // the solver's forcing.
            let t = field(4);
            let fields: [&[f64]; 4] = [&ax, &ay, &az, &t];
            let mut s = DiffScratch::default();

            let mut gx = vec![0.0; ntot];
            let mut gy = vec![0.0; ntot];
            let mut gz = vec![0.0; ntot];
            phys_grad(&geom, &u, &mut gx, &mut gy, &mut gz, &mut s);

            let mut wd = vec![0.0; ntot];
            weak_divergence(&geom, [&ax, &ay, &az], &mut wd, &mut s);

            // Serial reference: one `advect` call per field.
            let dealias = [Dealias::new(&geom, true), Dealias::new(&geom, false)];
            let adv: Vec<Vec<Vec<f64>>> = dealias
                .iter()
                .map(|d| {
                    fields
                        .iter()
                        .map(|f| {
                            let mut o = vec![0.0; ntot];
                            d.advect(&geom, [&ax, &ay, &az], f, &mut o, &mut s);
                            o
                        })
                        .collect()
                })
                .collect();

            for threads in [1usize, 4, 7] {
                let pool = rbx_device::WorkerPool::new(threads);
                let (mut px, mut py, mut pz) = (vec![0.0; ntot], vec![0.0; ntot], vec![0.0; ntot]);
                phys_grad_with(&geom, &u, &mut px, &mut py, &mut pz, &pool);
                assert_eq!(gx, px, "grad x threads={threads}");
                assert_eq!(gy, py, "grad y threads={threads}");
                assert_eq!(gz, pz, "grad z threads={threads}");

                let mut pwd = vec![0.0; ntot];
                weak_divergence_with(&geom, [&ax, &ay, &az], &mut pwd, &pool);
                assert_eq!(wd, pwd, "weak divergence threads={threads}");

                for (d, reference) in dealias.iter().zip(&adv) {
                    let mut o = [
                        vec![0.0; ntot],
                        vec![0.0; ntot],
                        vec![0.0; ntot],
                        vec![0.0; ntot],
                    ];
                    let [o0, o1, o2, o3] = &mut o;
                    d.advect_with(&geom, [&ax, &ay, &az], fields, [o0, o1, o2, o3], &pool);
                    for (f, (want, got)) in reference.iter().zip(&o).enumerate() {
                        let same = want
                            .iter()
                            .zip(got)
                            .all(|(x, y)| x.to_bits() == y.to_bits());
                        assert!(
                            same,
                            "advect field {f} dealias={} threads={threads} nelv={}",
                            d.enabled, geom.nelv
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fine_mass_integrates_volume() {
        let mesh = box_mesh(2, 2, 2, [0., 2.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, 3);
        let dealias = Dealias::new(&geom, true);
        let total: f64 = dealias.bf.iter().sum();
        assert_close(total, 2.0, 1e-10);
    }
}
