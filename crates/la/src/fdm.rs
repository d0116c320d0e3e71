//! Element-local fast diagonalization method (FDM).
//!
//! The fine level of the paper's additive Schwarz preconditioner solves
//! `Ãₖ⁻¹` per element with the fast diagonalization method: each element is
//! approximated by a separable box of matching extents, the 1-D generalized
//! eigenproblems `K̂ S = M̂ S Λ` are solved once per element and direction,
//! and each application is three small tensor contractions.
//!
//! The local solves act on the *whole* element with natural boundary
//! conditions. The per-element constant mode (zero eigenvalue in every
//! direction) is removed by pseudo-inversion; it is exactly the content
//! the coarse grid handles. Combined with weighted gather-scatter
//! averaging in [`crate::SchwarzMg`], this is the restricted-additive-
//! Schwarz analogue of Nek's overlapping solves (deviation documented in
//! DESIGN.md §6).

use rbx_basis::fused::{tensor3, Tensor3Scratch};
use rbx_basis::{sym_eig, DMat};
use rbx_device::{loop_chunk, RangePtr, WorkerPool};
use rbx_mesh::GeomFactors;
use std::cell::RefCell;

/// Element count below which the pooled sweep runs inline on the caller
/// ([`WorkerPool::for_each_range_min`]). Measured on commodity 4–8 core
/// hosts: element loops win pooled quickly, against a fixed ~10 µs pool
/// wake.
const FDM_ELEMS: usize = 8;

/// Per-thread scratch for the pooled FDM sweep (two element lattices plus
/// the tensor-contraction workspace), resized only on an order change.
#[derive(Default)]
struct FdmScratch {
    sw: Vec<f64>,
    tmp: Vec<f64>,
    ts: Tensor3Scratch,
}

thread_local! {
    static POOL_SCRATCH: RefCell<FdmScratch> = RefCell::new(FdmScratch::default());
}

/// Per-direction eigen-factors of one element.
struct ElemFactors {
    /// Eigenvalues per direction `[x, y, z]`.
    lambda: [Vec<f64>; 3],
    /// Eigenvector matrices per direction (B-orthonormal columns).
    s: [DMat; 3],
    /// Transposes, precomputed for the apply.
    st: [DMat; 3],
    /// Largest eigenvalue sum, for the pseudo-inverse threshold.
    lambda_max: f64,
}

/// Fast-diagonalization local solver for all elements of a rank.
pub struct ElementFdm {
    n: usize,
    factors: Vec<ElemFactors>,
}

impl ElementFdm {
    /// Build the per-element factorizations from the geometry.
    ///
    /// The 1-D reference stiffness is `K̂ab = Σ_q w_q D[q,a] D[q,b]`, the
    /// mass `M̂ = diag(w)`; both are scaled by the element's mean extent in
    /// each direction.
    pub fn new(geom: &GeomFactors) -> Self {
        let n = geom.nx1;
        let d = geom.d.matrix();
        let mut khat = DMat::zeros(n, n);
        for a in 0..n {
            for b in 0..n {
                let mut acc = 0.0;
                for q in 0..n {
                    acc += geom.weights[q] * d[(q, a)] * d[(q, b)];
                }
                khat[(a, b)] = acc;
            }
        }

        let nn = n * n * n;
        let mut factors = Vec::with_capacity(geom.nelv);
        for e in 0..geom.nelv {
            let base = e * nn;
            let ext = element_extents(geom, base, n);
            let mut lambda: [Vec<f64>; 3] = Default::default();
            let mut s = [DMat::zeros(0, 0), DMat::zeros(0, 0), DMat::zeros(0, 0)];
            let mut lambda_max = 0.0f64;
            for (dir, (lam, sm)) in lambda.iter_mut().zip(s.iter_mut()).enumerate() {
                let len = ext[dir].max(1e-14);
                // The 1-D mass `M̂ = diag(0.5·len·w)` has strictly positive
                // GLL weights, so the generalized problem `K̂S = M̂SΛ`
                // reduces to the ordinary symmetric eigenproblem of
                // `C = M̂^{-1/2} K̂ M̂^{-1/2}`. `sym_eig` (Jacobi rotations)
                // is total, which keeps this constructor infallible —
                // `S = M̂^{-1/2}·V` has B-orthonormal columns, exactly what
                // the fallible Cholesky-based solve produced before.
                let dinv: Vec<f64> = (0..n)
                    .map(|a| 1.0 / (0.5 * len * geom.weights[a]).sqrt())
                    .collect();
                let c = DMat::from_fn(n, n, |a, b| {
                    dinv[a] * ((2.0 / len) * khat[(a, b)]) * dinv[b]
                });
                let (vals, vecs) = sym_eig(&c);
                lambda_max = lambda_max.max(vals.last().copied().unwrap_or(0.0));
                *lam = vals;
                *sm = DMat::from_fn(n, n, |a, b| dinv[a] * vecs[(a, b)]);
            }
            let st = [s[0].transpose(), s[1].transpose(), s[2].transpose()];
            factors.push(ElemFactors {
                lambda,
                s,
                st,
                lambda_max,
            });
        }
        Self { n, factors }
    }

    /// Add the element-local corrections `z += Σₖ Rₖᵀ (h₁Ãₖ + h₂B̃ₖ)⁻¹ Rₖ r`
    /// for the Helmholtz coefficients `(h₁, h₂)`.
    ///
    /// `r` must already carry the inverse-multiplicity weighting; `z` is
    /// accumulated into. The output is element-discontinuous; the caller
    /// restores continuity by weighted gather-scatter averaging.
    pub fn apply_add(&self, r: &[f64], z: &mut [f64], h1: f64, h2: f64) {
        let nn = self.n * self.n * self.n;
        debug_assert_eq!(r.len(), self.factors.len() * nn);
        debug_assert_eq!(z.len(), r.len());
        // Per-apply scratch keeps `&self` immutable; two element-sized
        // buffers per apply are amortized over the element loop.
        let mut sw = vec![0.0; nn];
        let mut tmp = vec![0.0; nn];
        let mut scratch = Tensor3Scratch::new();
        self.apply_element_range(
            0,
            self.factors.len(),
            r,
            z,
            h1,
            h2,
            &mut sw,
            &mut tmp,
            &mut scratch,
        );
    }

    /// Pooled variant of [`ElementFdm::apply_add`]: the element sweep is
    /// dispatched on a persistent [`WorkerPool`] with per-thread scratch.
    /// Each element writes a disjoint block of `z`, so the result is
    /// bitwise identical to the serial sweep for every thread count.
    pub fn apply_add_with(&self, r: &[f64], z: &mut [f64], h1: f64, h2: f64, pool: &WorkerPool) {
        let nn = self.n * self.n * self.n;
        debug_assert_eq!(r.len(), self.factors.len() * nn);
        debug_assert_eq!(z.len(), r.len());
        let nelv = self.factors.len();
        let zp = RangePtr::new(z);
        let chunk = loop_chunk(nelv, pool.threads());
        pool.for_each_range_min(nelv, chunk, FDM_ELEMS, |e0, e1| {
            POOL_SCRATCH.with(|cell| {
                let s = &mut *cell.borrow_mut();
                s.sw.resize(nn, 0.0);
                s.tmp.resize(nn, 0.0);
                // SAFETY: element chunks are pairwise disjoint, so the node
                // ranges they map to are too.
                let zsub = unsafe { zp.range_mut(e0 * nn, e1 * nn) };
                self.apply_element_range(e0, e1, r, zsub, h1, h2, &mut s.sw, &mut s.tmp, &mut s.ts);
            });
        });
    }

    /// The element sweep over `e0..e1`; `z` holds exactly that range's
    /// nodes (`r` stays full-length, it is only read).
    #[allow(clippy::too_many_arguments)]
    fn apply_element_range(
        &self,
        e0: usize,
        e1: usize,
        r: &[f64],
        z: &mut [f64],
        h1: f64,
        h2: f64,
        sw: &mut [f64],
        tmp: &mut [f64],
        scratch: &mut Tensor3Scratch,
    ) {
        let n = self.n;
        let nn = n * n * n;
        for (e, f) in self.factors[e0..e1].iter().enumerate() {
            let base = (e0 + e) * nn;
            let zbase = e * nn;
            // w = Sᵀ r — fused square SIMD contraction straight off `r`;
            // `tensor3` takes its first factor transposed, so `S` itself.
            tensor3(
                &f.s[0],
                &f.st[1],
                &f.st[2],
                &r[base..base + nn],
                tmp,
                scratch,
            );
            // Scale by the pseudo-inverse of h1·(λx+λy+λz) + h2, branchless
            // over contiguous x-rows so the divisions vectorize. The select
            // keeps the exact pre-existing semantics: divide unless the
            // denominator sits under the pseudo-inverse floor.
            let floor = 1e-8 * (h1.abs() * f.lambda_max.max(1e-300) + h2.abs());
            let l0 = &f.lambda[0][..n];
            for k in 0..n {
                let l2k = f.lambda[2][k];
                for j in 0..n {
                    let l1j = f.lambda[1][j];
                    let row = &mut tmp[n * (j + n * k)..][..n];
                    for (x, &la) in row.iter_mut().zip(l0) {
                        let denom = h1 * (la + l1j + l2k) + h2;
                        *x = if denom.abs() <= floor {
                            0.0
                        } else {
                            *x / denom
                        };
                    }
                }
            }
            // z += S w. `axpy(1.0, ..)` is bitwise identical to the plain
            // add: fma(1·x + y) rounds once over an exact product.
            tensor3(&f.st[0], &f.s[1], &f.s[2], tmp, sw, scratch);
            rbx_basis::simd::axpy(1.0, &sw[..nn], &mut z[zbase..zbase + nn]);
        }
    }
}

/// Mean physical extent of an element in each reference direction,
/// measured between opposing face nodes.
fn element_extents(geom: &GeomFactors, base: usize, n: usize) -> [f64; 3] {
    let mut ext = [0.0f64; 3];
    let idx = |i: usize, j: usize, k: usize| base + i + n * (j + n * k);
    let dist = |a: usize, b: usize| -> f64 {
        let dx = geom.coords[0][a] - geom.coords[0][b];
        let dy = geom.coords[1][a] - geom.coords[1][b];
        let dz = geom.coords[2][a] - geom.coords[2][b];
        (dx * dx + dy * dy + dz * dz).sqrt()
    };
    let mut count = 0.0;
    for a in 0..n {
        for b in 0..n {
            ext[0] += dist(idx(0, a, b), idx(n - 1, a, b));
            ext[1] += dist(idx(a, 0, b), idx(a, n - 1, b));
            ext[2] += dist(idx(a, b, 0), idx(a, b, n - 1));
            count += 1.0;
        }
    }
    for v in &mut ext {
        *v /= count;
    }
    ext
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helmholtz::{HelmholtzOp, HelmholtzScratch};
    use rbx_comm::SingleComm;
    use rbx_gs::GatherScatter;
    use rbx_mesh::generators::box_mesh;

    #[test]
    fn full_mode_exact_inverse_on_affine_box_helmholtz() {
        // With a mass shift (h2 > 0) the full-element operator is
        // nonsingular and the full-element FDM must invert it exactly on a
        // single affine element: H z = r for the *local* (unassembled)
        // operator equals the assembled one on one element.
        let p = 4;
        let mesh = box_mesh(1, 1, 1, [0., 1.1], [0., 0.9], [0., 1.4], false, false);
        let geom = rbx_mesh::GeomFactors::new(&mesh, p);
        let comm = SingleComm::new();
        let gs = GatherScatter::build(&mesh, p, &[0], &[0], &comm);
        let n = p + 1;
        let nn = n * n * n;
        let mask = vec![1.0; nn];
        let (h1, h2) = (0.7, 2.5);
        let op = HelmholtzOp {
            geom: &geom,
            gs: &gs,
            mask: &mask,
            h1,
            h2,
        };
        let fdm = ElementFdm::new(&geom);

        let r: Vec<f64> = (0..nn).map(|i| ((i * 11) % 7) as f64 - 3.0).collect();
        let mut z = vec![0.0; nn];
        fdm.apply_add(&r, &mut z, h1, h2);
        let mut hz = vec![0.0; nn];
        let mut scratch = HelmholtzScratch::default();
        op.apply(&z, &mut hz, &mut scratch, &comm);
        for idx in 0..nn {
            assert!(
                (hz[idx] - r[idx]).abs() < 1e-8,
                "node {idx}: H·z = {} vs r = {}",
                hz[idx],
                r[idx]
            );
        }
    }

    #[test]
    fn full_mode_poisson_pseudo_inverse_kills_constant() {
        // Pure Poisson (h2 = 0): the constant component of r must map to a
        // zero-mean correction (constant mode excluded).
        let p = 4;
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = rbx_mesh::GeomFactors::new(&mesh, p);
        let fdm = ElementFdm::new(&geom);
        let nn = geom.total_nodes();
        let r = vec![1.0; nn]; // pure constant
        let mut z = vec![0.0; nn];
        fdm.apply_add(&r, &mut z, 1.0, 0.0);
        // The image of a constant under the pseudo-inverted operator is not
        // exactly zero nodally (the mass weighting is non-uniform), but its
        // B-weighted mean must vanish and its magnitude must stay bounded.
        let mean: f64 = z.iter().zip(&geom.mass).map(|(a, b)| a * b).sum::<f64>();
        assert!(mean.abs() < 1e-10, "constant mode leaked: {mean}");
    }

    #[test]
    fn apply_is_symmetric_positive() {
        let p = 4;
        let mesh = box_mesh(2, 2, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = rbx_mesh::GeomFactors::new(&mesh, p);
        let fdm = ElementFdm::new(&geom);
        let ntot = geom.total_nodes();
        let u: Vec<f64> = (0..ntot).map(|i| ((i * 13) % 11) as f64 - 5.0).collect();
        let w: Vec<f64> = (0..ntot).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let mut fu = vec![0.0; ntot];
        let mut fw = vec![0.0; ntot];
        fdm.apply_add(&u, &mut fu, 1.0, 0.1);
        fdm.apply_add(&w, &mut fw, 1.0, 0.1);
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let left = dot(&fu, &w);
        let right = dot(&u, &fw);
        assert!(
            (left - right).abs() < 1e-9 * left.abs().max(1.0),
            "asymmetric"
        );
        assert!(dot(&fu, &u) > 0.0, "not positive");
    }

    #[test]
    fn full_mode_touches_boundary_nodes() {
        let p = 3;
        let mesh = box_mesh(2, 1, 1, [0., 2.], [0., 1.], [0., 1.], false, false);
        let geom = rbx_mesh::GeomFactors::new(&mesh, p);
        let fdm = ElementFdm::new(&geom);
        let ntot = geom.total_nodes();
        let r: Vec<f64> = (0..ntot).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut z = vec![0.0; ntot];
        fdm.apply_add(&r, &mut z, 1.0, 0.0);
        // Some face-node corrections must be nonzero (full-rank fine level).
        let n = p + 1;
        let nonzero_boundary = z
            .iter()
            .enumerate()
            .filter(|(idx, v)| {
                let loc = idx % (n * n * n);
                let (i, j, k) = (loc % n, (loc / n) % n, loc / (n * n));
                let boundary = i == 0 || i == n - 1 || j == 0 || j == n - 1 || k == 0 || k == n - 1;
                boundary && v.abs() > 1e-12
            })
            .count();
        assert!(
            nonzero_boundary > 0,
            "no boundary corrections from the full-element solves"
        );
    }

    #[test]
    fn pooled_sweep_matches_serial_bitwise() {
        let p = 4;
        let mesh = box_mesh(3, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = rbx_mesh::GeomFactors::new(&mesh, p);
        let fdm = ElementFdm::new(&geom);
        let ntot = geom.total_nodes();
        let r: Vec<f64> = (0..ntot)
            .map(|i| ((i * 53 % 103) as f64) * 0.02 - 1.0)
            .collect();
        let mut z_serial = vec![0.1; ntot]; // nonzero: apply_add accumulates
        fdm.apply_add(&r, &mut z_serial, 1.3, 0.2);
        for threads in [1usize, 4, 7] {
            let pool = WorkerPool::new(threads);
            let mut z_pooled = vec![0.1; ntot];
            fdm.apply_add_with(&r, &mut z_pooled, 1.3, 0.2, &pool);
            for (a, b) in z_serial.iter().zip(&z_pooled) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }
}
