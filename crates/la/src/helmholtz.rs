//! Matrix-free spectral-element Helmholtz operator.
//!
//! `H u = h₁·A u + h₂·B u`, with the stiffness `A` applied per element by
//! sum-factorized tensor contractions — `w_i = Σ_j G_ij (D_j u)`, then
//! `Σ_i D_iᵀ w_i` — the "unassembled matrix on a per-element basis"
//! formulation the paper credits for SEM's high operational intensity.
//! The element kernel is the degree-specialized fused apply from
//! [`rbx_basis::fused`]: one pass grad → geometric factors, one pass
//! gradᵀ → mass, instead of six separate sweeps over element data.
//! Assembly across elements/ranks is a gather-scatter `Add`, and Dirichlet
//! conditions are imposed by masking.

use crate::ops::hadamard;
use rbx_basis::fused::{self, FusedScratch};
use rbx_comm::Communicator;
use rbx_device::{loop_chunk, RangePtr, WorkerPool};
use rbx_gs::{GatherScatter, GsOp};
use rbx_mesh::GeomFactors;
use std::cell::RefCell;

/// Element count below which the pooled apply runs inline on the caller
/// ([`WorkerPool::for_each_range_min`]). Measured on commodity 4–8 core
/// hosts: element loops win pooled quickly (a p=7 Helmholtz element is
/// ~5 µs of work), against a fixed ~10 µs pool wake.
const HELMHOLTZ_ELEMS: usize = 8;

thread_local! {
    /// Per-thread element scratch for the pooled apply: allocated on a
    /// thread's first range and resized only on a polynomial-order change,
    /// keeping the pool dispatch path allocation-free in the steady state.
    static POOL_SCRATCH: RefCell<HelmholtzScratch> = RefCell::new(HelmholtzScratch::default());
}

/// The assembled (in the weak sense) Helmholtz operator
/// `H = h₁·A + h₂·B` on the masked continuous subspace.
pub struct HelmholtzOp<'a> {
    /// Geometry and metric factors.
    pub geom: &'a GeomFactors,
    /// Gather-scatter operator for direct stiffness summation.
    pub gs: &'a GatherScatter,
    /// Dirichlet mask: 1.0 on free nodes, 0.0 on constrained nodes.
    pub mask: &'a [f64],
    /// Stiffness coefficient (e.g. viscosity).
    pub h1: f64,
    /// Mass coefficient (e.g. `bd/Δt`); 0 for a pure Laplacian.
    pub h2: f64,
}

/// Reusable per-apply scratch buffers (sized to one element); wraps the
/// fused kernel's scratch so the pooled path stays allocation-free in the
/// steady state.
#[derive(Debug, Default)]
pub struct HelmholtzScratch {
    fused: FusedScratch,
}

impl<'a> HelmholtzOp<'a> {
    /// Apply the element-local part only (no gather-scatter, no mask):
    /// `y_e = h₁·(DᵀGD)u_e + h₂·B_e u_e` for each element.
    pub fn apply_local(&self, u: &[f64], y: &mut [f64], scratch: &mut HelmholtzScratch) {
        let nn = self.geom.nodes_per_element();
        let nelv = self.geom.nelv;
        debug_assert_eq!(u.len(), nelv * nn);
        debug_assert_eq!(y.len(), nelv * nn);
        self.apply_element_range(0, u, y, scratch);
    }

    /// Like [`HelmholtzOp::apply_local`] but with the element loop
    /// dispatched on a persistent [`WorkerPool`] (dynamic chunk
    /// self-scheduling, per-thread scratch, zero per-call spawns or
    /// allocations). Element outputs are disjoint, so the result is
    /// bitwise identical to the serial apply for every thread count.
    pub fn apply_local_with(&self, u: &[f64], y: &mut [f64], pool: &WorkerPool) {
        let nn = self.geom.nodes_per_element();
        let nelv = self.geom.nelv;
        debug_assert_eq!(u.len(), nelv * nn);
        debug_assert_eq!(y.len(), nelv * nn);
        let yp = RangePtr::new(y);
        let chunk = loop_chunk(nelv, pool.threads());
        pool.for_each_range_min(nelv, chunk, HELMHOLTZ_ELEMS, |e0, e1| {
            POOL_SCRATCH.with(|cell| {
                let scratch = &mut *cell.borrow_mut();
                // SAFETY: element chunks are pairwise disjoint, so the node
                // ranges they map to are too.
                let ysub = unsafe { yp.range_mut(e0 * nn, e1 * nn) };
                self.apply_element_range(e0, &u[e0 * nn..e1 * nn], ysub, scratch);
            });
        });
    }

    /// Full pooled operator apply: pooled local part, gather-scatter
    /// assembly (itself pooled when the gather-scatter has a pool
    /// injected), then Dirichlet masking.
    pub fn apply_with(&self, u: &[f64], y: &mut [f64], pool: &WorkerPool, comm: &dyn Communicator) {
        self.apply_local_with(u, y, pool);
        self.gs.apply(y, GsOp::Add, comm);
        hadamard(self.mask, y);
    }

    /// Apply to a contiguous element range; `e_begin` locates the range in
    /// the geometry arrays, `u`/`y` hold exactly that range's nodes. Each
    /// element runs the fused two-pass kernel ([`rbx_basis::fused`]),
    /// degree-specialized for the production node counts.
    fn apply_element_range(
        &self,
        e_begin: usize,
        u: &[f64],
        y: &mut [f64],
        scratch: &mut HelmholtzScratch,
    ) {
        let n = self.geom.nx1;
        let nn = n * n * n;
        debug_assert_eq!(u.len() % nn, 0);
        let nelv = u.len() / nn;
        let d = &self.geom.d;
        let g = &self.geom.g;

        for e_local in 0..nelv {
            let base = (e_begin + e_local) * nn;
            let ue = &u[e_local * nn..(e_local + 1) * nn];
            let ye = &mut y[e_local * nn..(e_local + 1) * nn];
            let ge: [&[f64]; 6] = [
                &g[0][base..base + nn],
                &g[1][base..base + nn],
                &g[2][base..base + nn],
                &g[3][base..base + nn],
                &g[4][base..base + nn],
                &g[5][base..base + nn],
            ];
            fused::helmholtz_element(
                d,
                &ge,
                &self.geom.mass[base..base + nn],
                self.h1,
                self.h2,
                ue,
                ye,
                &mut scratch.fused,
            );
        }
    }

    /// Full operator apply: local part, gather-scatter assembly, then
    /// Dirichlet masking. Input `u` is expected continuous and masked.
    pub fn apply(
        &self,
        u: &[f64],
        y: &mut [f64],
        scratch: &mut HelmholtzScratch,
        comm: &dyn Communicator,
    ) {
        self.apply_local(u, y, scratch);
        self.gs.apply(y, GsOp::Add, comm);
        hadamard(self.mask, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::dirichlet_mask;
    use crate::ops::{DotProduct, ElemLayout};
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;
    use rbx_mesh::{BoundaryTag, GeomFactors};
    use std::sync::Arc;

    /// The inner product over the whole one-rank mesh of `setup`.
    fn whole_dp(geom: &GeomFactors, gs: &GatherScatter, comm: &SingleComm) -> DotProduct {
        let nel = geom.nelv;
        let layout = Arc::new(ElemLayout::new(
            geom.nodes_per_element(),
            (0..nel).collect(),
            nel,
        ));
        DotProduct::with_layout(&gs.multiplicity(comm), layout)
    }

    fn setup(nx: usize, p: usize) -> (rbx_mesh::HexMesh, GeomFactors, GatherScatter, SingleComm) {
        let mesh = box_mesh(nx, nx, nx, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, p);
        let comm = SingleComm::new();
        let part = vec![0usize; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let gs = GatherScatter::build(&mesh, p, &part, &my, &comm);
        (mesh, geom, gs, comm)
    }

    #[test]
    fn laplacian_of_constant_is_zero() {
        let (mesh, geom, gs, comm) = setup(2, 4);
        let mask = vec![1.0; geom.total_nodes()]; // no Dirichlet
        let op = HelmholtzOp {
            geom: &geom,
            gs: &gs,
            mask: &mask,
            h1: 1.0,
            h2: 0.0,
        };
        let u = vec![3.0; geom.total_nodes()];
        let mut y = vec![0.0; u.len()];
        let mut scratch = HelmholtzScratch::default();
        op.apply(&u, &mut y, &mut scratch, &comm);
        let max = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max < 1e-10, "A·const = {max}");
        drop(mesh);
    }

    #[test]
    fn operator_is_symmetric() {
        let (mesh, geom, gs, comm) = setup(2, 3);
        let mask = dirichlet_mask(
            &mesh,
            3,
            &(0..mesh.num_elements()).collect::<Vec<_>>(),
            &[
                BoundaryTag::Wall,
                BoundaryTag::HotWall,
                BoundaryTag::ColdWall,
            ],
            &gs,
            &comm,
        );
        let op = HelmholtzOp {
            geom: &geom,
            gs: &gs,
            mask: &mask,
            h1: 1.0,
            h2: 0.5,
        };
        let dp = whole_dp(&geom, &gs, &comm);
        let n = geom.total_nodes();
        let mut scratch = HelmholtzScratch::default();
        // Continuous masked random-ish vectors.
        let make = |seed: usize| -> Vec<f64> {
            let mut v: Vec<f64> = (0..n)
                .map(|i| (((i * 97 + seed * 31) % 101) as f64) * 0.02 - 1.0)
                .collect();
            gs.average(&mut v, &gs.multiplicity(&comm), &comm);
            hadamard(&mask, &mut v);
            v
        };
        let u = make(1);
        let w = make(2);
        let mut au = vec![0.0; n];
        let mut aw = vec![0.0; n];
        op.apply(&u, &mut au, &mut scratch, &comm);
        op.apply(&w, &mut aw, &mut scratch, &comm);
        let left = dp.dot(&au, &w, &comm);
        let right = dp.dot(&u, &aw, &comm);
        assert!(
            (left - right).abs() <= 1e-10 * left.abs().max(1.0),
            "asymmetry: {left} vs {right}"
        );
        // SPD on the masked subspace.
        let energy = dp.dot(&au, &u, &comm);
        assert!(energy > 0.0);
    }

    #[test]
    fn galerkin_laplacian_matches_quadratic() {
        // For u = x² on [0,1]³ with full mask, ⟨A u, u⟩ = ∫ |∇u|² = ∫ 4x² = 4/3.
        let (_mesh, geom, gs, comm) = setup(2, 5);
        let mask = vec![1.0; geom.total_nodes()];
        let op = HelmholtzOp {
            geom: &geom,
            gs: &gs,
            mask: &mask,
            h1: 1.0,
            h2: 0.0,
        };
        let u: Vec<f64> = geom.coords[0].iter().map(|&x| x * x).collect();
        let mut au = vec![0.0; u.len()];
        let mut scratch = HelmholtzScratch::default();
        op.apply(&u, &mut au, &mut scratch, &comm);
        let dp = whole_dp(&geom, &gs, &comm);
        let energy = dp.dot(&au, &u, &comm);
        assert!((energy - 4.0 / 3.0).abs() < 1e-10, "energy {energy}");
    }

    #[test]
    fn mass_term_integrates_volume() {
        // h1 = 0, h2 = 1: ⟨B·1, 1⟩ = volume.
        let (_mesh, geom, gs, comm) = setup(3, 3);
        let mask = vec![1.0; geom.total_nodes()];
        let op = HelmholtzOp {
            geom: &geom,
            gs: &gs,
            mask: &mask,
            h1: 0.0,
            h2: 1.0,
        };
        let u = vec![1.0; geom.total_nodes()];
        let mut y = vec![0.0; u.len()];
        let mut scratch = HelmholtzScratch::default();
        op.apply(&u, &mut y, &mut scratch, &comm);
        let dp = whole_dp(&geom, &gs, &comm);
        let vol = dp.dot(&y, &u, &comm);
        assert!((vol - 1.0).abs() < 1e-12, "volume {vol}");
    }
}

#[cfg(test)]
mod pooled_tests {
    use super::*;
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;
    use rbx_mesh::GeomFactors;

    #[test]
    fn pooled_apply_matches_serial_bitwise() {
        let p = 4;
        let mesh = box_mesh(3, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, p);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let gs = GatherScatter::build(&mesh, p, &part, &my, &comm);
        let mask = vec![1.0; geom.total_nodes()];
        let op = HelmholtzOp {
            geom: &geom,
            gs: &gs,
            mask: &mask,
            h1: 1.7,
            h2: 0.4,
        };
        let n = geom.total_nodes();
        let u: Vec<f64> = (0..n)
            .map(|i| ((i * 37 % 101) as f64) * 0.03 - 1.5)
            .collect();

        let mut y_serial = vec![0.0; n];
        let mut scratch = HelmholtzScratch::default();
        op.apply_local(&u, &mut y_serial, &mut scratch);

        for threads in [1usize, 2, 3, 5] {
            let pool = rbx_device::WorkerPool::new(threads);
            let mut y_pooled = vec![0.0; n];
            op.apply_local_with(&u, &mut y_pooled, &pool);
            for (a, b) in y_serial.iter().zip(&y_pooled) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }
}
