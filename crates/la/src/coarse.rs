//! Coarse-grid level of the hybrid Schwarz preconditioner.
//!
//! The paper (§5.3) solves the coarse problem `A₀` on *linear elements*
//! (the same mesh at polynomial degree 1) with "an approximate Krylov
//! solver, a preconditioned Conjugate Gradient method, with a fixed number
//! of iterations (≈10) and an element-wise block Jacobi preconditioner."
//! This module builds exactly that: degree-1 geometry, its own
//! gather-scatter, the restriction/prolongation transfer between the fine
//! GLL lattice and the element vertices, and the fixed-iteration PCG.

use crate::helmholtz::{HelmholtzOp, HelmholtzScratch};
use crate::jacobi::{assembled_diagonal, jacobi_apply};
use crate::krylov::pcg;
use crate::ops::{hadamard, ortho_project_mean_layout, DotProduct, ElemLayout};
use rbx_basis::tensor::{tensor_apply3, TensorScratch};
use rbx_basis::{gll, interp_matrix, DMat};
use rbx_comm::Communicator;
use rbx_gs::GatherScatter;
use rbx_mesh::{BoundaryTag, GeomFactors, HexMesh};
use rbx_telemetry::Telemetry;
use std::cell::RefCell;
use std::sync::Arc;

/// Buffers of one coarse correction, reused across applies. They live in
/// a thread-local, not in the `CoarseGrid`, because the overlapped
/// Schwarz mode runs the correction on the pool's `pair()` helper thread.
/// All are coarse- or element-sized, far below a field.
#[derive(Default)]
struct CoarseScratch {
    rc: Vec<f64>,
    zc: Vec<f64>,
    rhs: Vec<f64>,
    elem: Vec<f64>,
    ts: TensorScratch,
    hs: HelmholtzScratch,
}

thread_local! {
    static SCRATCH: RefCell<CoarseScratch> = RefCell::new(CoarseScratch::default());
}

/// The degree-1 coarse problem with fixed-iteration PCG solve.
pub struct CoarseGrid {
    /// Coarse geometry (degree 1).
    pub geom: GeomFactors,
    /// Coarse gather-scatter.
    pub gs: GatherScatter,
    /// Coarse Dirichlet mask (all ones for the pure-Neumann pressure case).
    pub mask: Vec<f64>,
    /// Assembled coarse operator diagonal (Jacobi preconditioner).
    diag: Vec<f64>,
    /// Coarse inner product (canonical: rank-count-invariant bits).
    dp: DotProduct,
    /// Coarse element layout for canonical mean projections.
    layout: Arc<ElemLayout>,
    /// Mass × inverse-multiplicity weights for mean projection.
    bw: Vec<f64>,
    /// Prolongation: degree-1 nodes → fine GLL nodes (per dimension,
    /// `n_fine × 2`).
    j_up: DMat,
    /// Restriction = prolongationᵀ (`2 × n_fine`).
    j_down: DMat,
    /// Fixed PCG iteration count (paper: ≈10).
    pub iterations: usize,
    /// Pure-Neumann problem (project out the constant null space).
    pub neumann: bool,
    fine_n: usize,
    coarse_n: usize,
    /// Observability handle (disabled by default; a single atomic load
    /// per stage when off).
    tel: Telemetry,
}

impl CoarseGrid {
    /// Build the coarse level for this rank's elements.
    ///
    /// `dirichlet_tags` lists the boundary tags that impose Dirichlet
    /// conditions on the *solved variable*; pass an empty slice for the
    /// pure-Neumann pressure Poisson problem (sets `neumann = true`).
    pub fn build(
        mesh: &HexMesh,
        fine_p: usize,
        part: &[usize],
        my_elems: &[usize],
        dirichlet_tags: &[BoundaryTag],
        comm: &dyn Communicator,
    ) -> Self {
        Self::build_with_order(mesh, fine_p, 1, part, my_elems, dirichlet_tags, comm)
    }

    /// Like [`CoarseGrid::build`] but with a configurable coarse polynomial
    /// degree (the paper's Eq. 3 is stated "for a general k-level
    /// formulation"; degree 1 is the production choice, higher degrees give
    /// a richer — and costlier — coarse space).
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_order(
        mesh: &HexMesh,
        fine_p: usize,
        coarse_p: usize,
        part: &[usize],
        my_elems: &[usize],
        dirichlet_tags: &[BoundaryTag],
        comm: &dyn Communicator,
    ) -> Self {
        assert!(
            coarse_p >= 1 && coarse_p < fine_p,
            "need 1 <= coarse_p < fine_p"
        );
        let sub = mesh.extract(my_elems);
        let geom = GeomFactors::new(&sub, coarse_p);
        let gs = GatherScatter::build(mesh, coarse_p, part, my_elems, comm);
        let neumann = dirichlet_tags.is_empty();
        let mask = if neumann {
            vec![1.0; geom.total_nodes()]
        } else {
            crate::bc::dirichlet_mask(mesh, coarse_p, my_elems, dirichlet_tags, &gs, comm)
        };
        let diag = assembled_diagonal(&geom, &gs, 1.0, 0.0, comm);
        let mult = gs.multiplicity(comm);
        let nc = coarse_p + 1;
        let layout = Arc::new(ElemLayout::new(
            nc * nc * nc,
            my_elems.to_vec(),
            mesh.num_elements(),
        ));
        let dp = DotProduct::with_layout(&mult, layout.clone());
        let bw: Vec<f64> = geom
            .mass
            .iter()
            .zip(dp.weights())
            .map(|(b, w)| b * w)
            .collect();

        let fine_pts = gll(fine_p + 1).points;
        let coarse_pts = gll(coarse_p + 1).points; // degree 1 → the endpoints
        let j_up = interp_matrix(&coarse_pts, &fine_pts);
        let j_down = j_up.transpose();

        Self {
            geom,
            gs,
            mask,
            diag,
            dp,
            layout,
            bw,
            j_up,
            j_down,
            iterations: 10,
            neumann,
            fine_n: fine_p + 1,
            coarse_n: coarse_p + 1,
            tel: Telemetry::disabled(),
        }
    }

    /// Share a telemetry handle; the coarse correction then records the
    /// `schwarz/coarse/{restrict,solve,prolong}` spans.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
    }

    /// Coarse dof count (local, duplicated storage): `nelv · (pc+1)³`.
    pub fn len(&self) -> usize {
        self.geom.total_nodes()
    }

    /// True when the rank owns no elements.
    pub fn is_empty(&self) -> bool {
        self.geom.nelv == 0
    }

    /// Restrict a (1/mult-weighted) fine residual to the coarse space:
    /// `r₀ = R₀ r`, assembled on the coarse level.
    pub fn restrict(
        &self,
        r_weighted: &[f64],
        r_coarse: &mut [f64],
        scratch: &mut TensorScratch,
        comm: &dyn Communicator,
    ) {
        let nf = self.fine_n;
        let nnf = nf * nf * nf;
        let nc = self.coarse_n;
        let nnc = nc * nc * nc;
        let nelv = self.geom.nelv;
        debug_assert_eq!(r_weighted.len(), nelv * nnf);
        debug_assert_eq!(r_coarse.len(), nelv * nnc);
        for e in 0..nelv {
            let rin = &r_weighted[e * nnf..(e + 1) * nnf];
            let rout = &mut r_coarse[e * nnc..(e + 1) * nnc];
            tensor_apply3(&self.j_down, &self.j_down, &self.j_down, rin, rout, scratch);
        }
        self.gs.apply(r_coarse, rbx_gs::GsOp::Add, comm);
        hadamard(&self.mask, r_coarse);
    }

    /// Prolongate a coarse correction to the fine lattice and add:
    /// `z += R₀ᵀ z₀`.
    pub fn prolong_add(&self, z_coarse: &[f64], z_fine: &mut [f64], scratch: &mut TensorScratch) {
        SCRATCH.with(|cell| {
            let elem = &mut cell.borrow_mut().elem;
            self.prolong_add_in(z_coarse, z_fine, scratch, elem);
        });
    }

    /// [`CoarseGrid::prolong_add`] with the element buffer passed in.
    fn prolong_add_in(
        &self,
        z_coarse: &[f64],
        z_fine: &mut [f64],
        scratch: &mut TensorScratch,
        elem: &mut Vec<f64>,
    ) {
        let nf = self.fine_n;
        let nnf = nf * nf * nf;
        let nc = self.coarse_n;
        let nnc = nc * nc * nc;
        elem.resize(nnf, 0.0);
        for e in 0..self.geom.nelv {
            let zin = &z_coarse[e * nnc..(e + 1) * nnc];
            tensor_apply3(&self.j_up, &self.j_up, &self.j_up, zin, elem, scratch);
            for (zf, b) in z_fine[e * nnf..(e + 1) * nnf].iter_mut().zip(elem.iter()) {
                *zf += b;
            }
        }
    }

    /// Approximately solve `A₀ z₀ = r₀` with the fixed-iteration
    /// block-Jacobi PCG. `z₀` is overwritten (starts from zero).
    pub fn solve(&self, r_coarse: &[f64], z_coarse: &mut [f64], comm: &dyn Communicator) {
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            self.solve_in(r_coarse, z_coarse, &mut s.rhs, &mut s.hs, comm);
        });
    }

    /// [`CoarseGrid::solve`] with its buffers passed in.
    fn solve_in(
        &self,
        r_coarse: &[f64],
        z_coarse: &mut [f64],
        rhs: &mut Vec<f64>,
        hs: &mut HelmholtzScratch,
        comm: &dyn Communicator,
    ) {
        rhs.clear();
        rhs.extend_from_slice(r_coarse);
        if self.neumann {
            // Solvability of the singular Neumann system requires
            // ⟨rhs, 1⟩ = 0 in the unique-dof inner product → project with
            // inverse-multiplicity weights (canonical reduction: the
            // projected rhs bits are identical for every rank count).
            ortho_project_mean_layout(rhs, self.dp.weights(), &self.layout, comm);
        }
        z_coarse.fill(0.0);
        let op = HelmholtzOp {
            geom: &self.geom,
            gs: &self.gs,
            mask: &self.mask,
            h1: 1.0,
            h2: 0.0,
        };
        let _ = pcg(
            |p, ap| op.apply(p, ap, hs, comm),
            |r, z| jacobi_apply(&self.diag, &self.mask, r, z),
            |a, b| self.dp.dot(a, b, comm),
            rhs,
            z_coarse,
            1e-14,
            1e-4,
            self.iterations,
        );
        if self.neumann {
            ortho_project_mean_layout(z_coarse, &self.bw, &self.layout, comm);
        }
    }

    /// Full coarse correction `z += R₀ᵀ A₀⁻¹ R₀ r` from a weighted fine
    /// residual.
    pub fn correct_add(&self, r_weighted: &[f64], z_fine: &mut [f64], comm: &dyn Communicator) {
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.rc.resize(self.len(), 0.0);
            s.zc.resize(self.len(), 0.0);
            // Absolute span paths: the overlapped Schwarz mode runs this on a
            // helper thread, and both modes must produce identical trees.
            {
                let _g = self.tel.span_abs("schwarz/coarse/restrict");
                self.restrict(r_weighted, &mut s.rc, &mut s.ts, comm);
            }
            {
                let _g = self.tel.span_abs("schwarz/coarse/solve");
                self.solve_in(&s.rc, &mut s.zc, &mut s.rhs, &mut s.hs, comm);
            }
            {
                let _g = self.tel.span_abs("schwarz/coarse/prolong");
                self.prolong_add_in(&s.zc, z_fine, &mut s.ts, &mut s.elem);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;

    fn setup(p: usize) -> (HexMesh, CoarseGrid, SingleComm, Vec<usize>) {
        let mesh = box_mesh(3, 3, 3, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let cg = CoarseGrid::build(
            &mesh,
            p,
            &part,
            &my,
            &[
                BoundaryTag::Wall,
                BoundaryTag::HotWall,
                BoundaryTag::ColdWall,
            ],
            &comm,
        );
        (mesh, cg, comm, my)
    }

    #[test]
    fn prolongation_of_linear_function_is_exact() {
        let p = 5;
        let (_mesh, cg, _comm, _my) = setup(p);
        let fine_geom = {
            let mesh = box_mesh(3, 3, 3, [0., 1.], [0., 1.], [0., 1.], false, false);
            GeomFactors::new(&mesh, p)
        };
        // Coarse nodal values of f = 2x - y + 3z.
        let f = |x: f64, y: f64, z: f64| 2.0 * x - y + 3.0 * z;
        let zc: Vec<f64> = (0..cg.len())
            .map(|i| {
                f(
                    cg.geom.coords[0][i],
                    cg.geom.coords[1][i],
                    cg.geom.coords[2][i],
                )
            })
            .collect();
        let mut zf = vec![0.0; fine_geom.total_nodes()];
        let mut scratch = TensorScratch::new();
        cg.prolong_add(&zc, &mut zf, &mut scratch);
        for i in 0..zf.len() {
            let expect = f(
                fine_geom.coords[0][i],
                fine_geom.coords[1][i],
                fine_geom.coords[2][i],
            );
            assert!((zf[i] - expect).abs() < 1e-11, "node {i}");
        }
    }

    #[test]
    fn restrict_is_adjoint_of_prolong() {
        // Use the Neumann (unmasked) coarse grid so the adjoint identity
        // holds without boundary-mask bookkeeping.
        let p = 4;
        let mesh = box_mesh(3, 3, 3, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let cg = CoarseGrid::build(&mesh, p, &part, &my, &[], &comm);
        let nf = p + 1;
        let nnf = nf * nf * nf;
        let n_fine = cg.geom.nelv * nnf;
        // ⟨R₀ r, z⟩_c (unique) must equal ⟨r, R₀ᵀ z⟩_f (unique) when r is
        // weighted: use identity multiplicities by choosing element-interior
        // test data. Simplest check: restriction of a constant-weighted
        // vector against prolongation of coarse basis.
        let r: Vec<f64> = (0..n_fine).map(|i| ((i % 17) as f64) - 8.0).collect();
        let zc: Vec<f64> = (0..cg.len()).map(|i| ((i % 5) as f64) - 2.0).collect();
        // Make coarse vector continuous.
        let mut zc_cont = zc.clone();
        let multc = cg.gs.multiplicity(&comm);
        cg.gs.average(&mut zc_cont, &multc, &comm);

        // left = Σ_unique (R₀ r)·zc — compute with coarse dot.
        let mut rc = vec![0.0; cg.len()];
        let mut scratch = TensorScratch::new();
        cg.restrict(&r, &mut rc, &mut scratch, &comm);
        let left = cg.dp.dot(&rc, &zc_cont, &comm);

        // right = Σ_local r·(R₀ᵀ zc) — r is the weighted residual, so the
        // plain local dot is the consistent pairing.
        let mut zf = vec![0.0; n_fine];
        cg.prolong_add(&zc_cont, &mut zf, &mut scratch);
        let right: f64 = r.iter().zip(&zf).map(|(a, b)| a * b).sum();
        assert!(
            (left - right).abs() < 1e-9 * left.abs().max(1.0),
            "{left} vs {right}"
        );
    }

    #[test]
    fn coarse_solve_reduces_residual() {
        let p = 4;
        let (_mesh, cg, comm, _my) = setup(p);
        // Random-ish masked continuous coarse rhs.
        let mut rhs: Vec<f64> = (0..cg.len())
            .map(|i| ((i * 31 % 19) as f64) - 9.0)
            .collect();
        cg.gs.apply(&mut rhs, rbx_gs::GsOp::Add, &comm);
        hadamard(&cg.mask, &mut rhs);
        let mut z = vec![0.0; cg.len()];
        cg.solve(&rhs, &mut z, &comm);
        // Residual after the fixed-iteration solve must be far below ‖rhs‖.
        let op = HelmholtzOp {
            geom: &cg.geom,
            gs: &cg.gs,
            mask: &cg.mask,
            h1: 1.0,
            h2: 0.0,
        };
        let mut az = vec![0.0; cg.len()];
        let mut scratch = HelmholtzScratch::default();
        op.apply(&z, &mut az, &mut scratch, &comm);
        let r0 = cg.dp.norm(&rhs, &comm);
        let res: Vec<f64> = rhs.iter().zip(&az).map(|(b, a)| b - a).collect();
        let r1 = cg.dp.norm(&res, &comm);
        assert!(
            r1 < 0.5 * r0,
            "coarse PCG barely reduced residual: {r1} vs {r0}"
        );
    }

    #[test]
    fn neumann_coarse_solution_has_zero_mean() {
        let p = 3;
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let cg = CoarseGrid::build(&mesh, p, &part, &my, &[], &comm);
        assert!(cg.neumann);
        let mut rhs: Vec<f64> = (0..cg.len()).map(|i| (i as f64 * 0.37).sin()).collect();
        cg.gs.apply(&mut rhs, rbx_gs::GsOp::Add, &comm);
        let mut z = vec![0.0; cg.len()];
        cg.solve(&rhs, &mut z, &comm);
        let weighted: f64 = z.iter().zip(&cg.bw).map(|(a, b)| a * b).sum();
        assert!(weighted.abs() < 1e-10, "mean not projected: {weighted}");
    }
}

#[cfg(test)]
mod multilevel_tests {
    use super::*;
    use crate::bc::dirichlet_mask;
    use crate::helmholtz::{HelmholtzOp, HelmholtzScratch};
    use crate::krylov::fgmres;
    use crate::ops::DotProduct;
    use crate::{ElementFdm, SchwarzMg, SchwarzMode};
    use rbx_comm::SingleComm;
    use rbx_device::WorkerPool;
    use rbx_mesh::generators::box_mesh;
    use std::sync::Arc;

    const ALL: [BoundaryTag; 3] = [
        BoundaryTag::Wall,
        BoundaryTag::HotWall,
        BoundaryTag::ColdWall,
    ];

    /// FGMRES iteration count with a Schwarz preconditioner whose coarse
    /// level has the given polynomial degree.
    fn iters_with_coarse_order(coarse_p: usize) -> usize {
        let p = 6;
        let mesh = box_mesh(3, 3, 3, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let geom = GeomFactors::new(&mesh, p);
        let gs = Arc::new(GatherScatter::build(&mesh, p, &part, &my, &comm));
        let mask = dirichlet_mask(&mesh, p, &my, &ALL, &gs, &comm);
        let mult = gs.multiplicity(&comm);
        let fdm = ElementFdm::new(&geom);
        let coarse = CoarseGrid::build_with_order(&mesh, p, coarse_p, &part, &my, &ALL, &comm);
        let schwarz = SchwarzMg::new(
            fdm,
            coarse,
            gs.clone(),
            &mult,
            mask.clone(),
            &geom.mass,
            1.0,
            0.0,
            &WorkerPool::new(1),
        );
        let op = HelmholtzOp {
            geom: &geom,
            gs: &gs,
            mask: &mask,
            h1: 1.0,
            h2: 0.0,
        };
        let dp = DotProduct::new(&mult);
        let n = geom.total_nodes();
        let mut x_true: Vec<f64> = (0..n)
            .map(|i| {
                (std::f64::consts::PI * geom.coords[0][i]).sin()
                    * (std::f64::consts::PI * geom.coords[1][i]).sin()
                    * (std::f64::consts::PI * geom.coords[2][i]).sin()
            })
            .collect();
        crate::ops::hadamard(&mask, &mut x_true);
        let mut b = vec![0.0; n];
        let mut scratch = HelmholtzScratch::default();
        op.apply(&x_true, &mut b, &mut scratch, &comm);
        let mut x = vec![0.0; n];
        let mut scratch2 = HelmholtzScratch::default();
        let stats = fgmres(
            |pv, ap| op.apply(pv, ap, &mut scratch2, &comm),
            |r, z| schwarz.apply(r, z, SchwarzMode::Serial, &comm),
            |a, c| dp.dot(a, c, &comm),
            &b,
            &mut x,
            1e-9,
            0.0,
            300,
            30,
        );
        assert!(stats.converged, "coarse_p = {coarse_p}: {stats:?}");
        stats.iterations
    }

    #[test]
    fn richer_coarse_space_does_not_hurt() {
        let it1 = iters_with_coarse_order(1);
        let it2 = iters_with_coarse_order(2);
        assert!(
            it2 <= it1,
            "degree-2 coarse space worse than degree-1: {it2} > {it1}"
        );
    }

    #[test]
    fn coarse_order_transfer_exact_on_matching_polynomials() {
        // Prolongation from a degree-2 coarse space reproduces quadratics.
        let p = 5;
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let cg = CoarseGrid::build_with_order(&mesh, p, 2, &part, &my, &[], &comm);
        let fine_geom = GeomFactors::new(&mesh, p);
        let f = |x: f64, y: f64, z: f64| x * x - 2.0 * y * z + 3.0 * z * z;
        let zc: Vec<f64> = (0..cg.len())
            .map(|i| {
                f(
                    cg.geom.coords[0][i],
                    cg.geom.coords[1][i],
                    cg.geom.coords[2][i],
                )
            })
            .collect();
        let mut zf = vec![0.0; fine_geom.total_nodes()];
        let mut scratch = rbx_basis::TensorScratch::new();
        cg.prolong_add(&zc, &mut zf, &mut scratch);
        for i in 0..zf.len() {
            let expect = f(
                fine_geom.coords[0][i],
                fine_geom.coords[1][i],
                fine_geom.coords[2][i],
            );
            assert!((zf[i] - expect).abs() < 1e-11, "node {i}");
        }
    }

    #[test]
    #[should_panic(expected = "coarse_p < fine_p")]
    fn coarse_order_must_be_below_fine() {
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let _ = CoarseGrid::build_with_order(&mesh, 3, 3, &[0], &[0], &[], &comm);
    }
}
