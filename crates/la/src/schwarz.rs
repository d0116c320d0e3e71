//! Two-level additive Schwarz preconditioner (paper Eq. 3), sequential
//! and task-overlapped.
//!
//! `M⁻¹ r = R₀ᵀ A₀⁻¹ R₀ r + Σₖ Rₖᵀ Ãₖ⁻¹ Rₖ r`
//!
//! The fine term solves each element with the fast diagonalization method
//! (natural boundary conditions, constant mode pseudo-inverted) and
//! restores continuity by weighted gather-scatter averaging; the coarse
//! term restricts to a low-degree copy of the mesh and solves it exactly
//! with the factor [`CoarseGrid`] builds once (one allreduce per apply).
//!
//! On the pure-Neumann pressure problem the output keeps whatever
//! constant the two terms produce: `A·1 = 0`, so a constant in `M⁻¹ r`
//! changes no Krylov residual, and the caller removes the mean from the
//! solution once per solve. That keeps the apply at one global reduction.
//!
//! The two terms are independent, which is the insight behind the paper's
//! §5.3 innovation: "exploit the available task-parallelism and launch the
//! left and the right part of (3) in parallel". [`SchwarzMode::Overlapped`]
//! runs the coarse-grid solve (its reduction and its small kernels) on
//! a separate thread concurrently with the element-local FDM sweep
//! (compute-heavy, no communication) — the CPU equivalent of the paper's
//! dual-stream, dual-OpenMP-thread formulation, with identical numerics:
//! the two modes produce bitwise-equal output.

use crate::coarse::CoarseGrid;
use crate::fdm::ElementFdm;
use crate::ops::hadamard;
use rbx_comm::Communicator;
use rbx_device::WorkerPool;
use rbx_gs::{GatherScatter, GsOp};
use rbx_telemetry::Telemetry;
use std::sync::Arc;

/// Execution strategy for the two additive terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchwarzMode {
    /// Coarse solve, then the fine sweep, one after the other.
    Serial,
    /// Coarse solve on the pool's helper thread, fine sweep on the calling
    /// thread and the pool's workers, concurrently. The short fine-level
    /// gather-scatter runs after the join (host-side communication, as on
    /// the GPU systems the paper targets).
    Overlapped,
}

/// The assembled two-level preconditioner for the Poisson problem
/// (`h1 = 1, h2 = 0`: the pressure operator, its only use). The fine
/// sweep always runs on the preconditioner's worker pool (one thread
/// unless told otherwise); both modes give the same bits for every thread
/// count.
pub struct SchwarzMg {
    /// Element-local fast-diagonalization solver (fine level).
    pub fdm: ElementFdm,
    /// Coarse level.
    pub coarse: CoarseGrid,
    /// Fine-level gather-scatter (for the weighted averaging of the local
    /// solves).
    gs: Arc<GatherScatter>,
    /// Inverse multiplicity of fine nodes (residual weighting).
    wt: Vec<f64>,
    /// Fine-level Dirichlet mask.
    mask: Vec<f64>,
    /// Observability handle (disabled by default).
    tel: Telemetry,
    /// Worker pool for the fine-level FDM sweep and, in overlapped mode,
    /// the coarse∥fine pairing on its helper thread.
    pool: WorkerPool,
}

impl SchwarzMg {
    /// Assemble the preconditioner.
    ///
    /// * `fdm` — built from the fine geometry;
    /// * `coarse` — built for the same boundary conditions as the target
    ///   operator;
    /// * `gs` — the fine-level gather-scatter;
    /// * `mult` — fine-node multiplicities;
    /// * `mask` — fine-level Dirichlet mask;
    /// * `pool` — where the fine sweep runs (`WorkerPool::new(1)` for one
    ///   thread; the bits do not depend on the thread count).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        fdm: ElementFdm,
        coarse: CoarseGrid,
        gs: Arc<GatherScatter>,
        mult: &[f64],
        mask: Vec<f64>,
        pool: &WorkerPool,
    ) -> Self {
        let wt: Vec<f64> = mult.iter().map(|&m| 1.0 / m).collect();
        Self {
            fdm,
            coarse,
            gs,
            wt,
            mask,
            tel: Telemetry::disabled(),
            pool: pool.clone(),
        }
    }

    /// Replace the worker pool the fine-level FDM sweep (and, in
    /// overlapped mode, the coarse∥fine pairing) runs on. The sweep's bits
    /// are the same for every thread count, so this changes where the work
    /// runs — never what it computes.
    pub fn set_pool(&mut self, pool: &WorkerPool) {
        self.pool = pool.clone();
    }

    /// Share a telemetry handle with this preconditioner and its coarse
    /// level. Each apply then records the paper's §5.3 sub-stages as
    /// absolute spans — `schwarz/coarse` (with restrict/solve/prolong
    /// children), `pool/fdm`, `schwarz/gs` — identically for the serial
    /// and the overlapped execution mode.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        self.coarse.set_telemetry(tel);
    }

    /// Apply `z = M⁻¹ r`.
    pub fn apply(&self, r: &[f64], z: &mut [f64], mode: SchwarzMode, comm: &dyn Communicator) {
        debug_assert_eq!(r.len(), self.wt.len());
        debug_assert_eq!(z.len(), r.len());
        // Weight the assembled residual so element-local restrictions do
        // not double-count shared nodes.
        // audit:allow(hot-alloc): both tasks read rw concurrently in overlapped mode — a shared immutable buffer, not reusable scratch under &self
        let rw: Vec<f64> = r.iter().zip(&self.wt).map(|(v, w)| v * w).collect();
        let n = z.len();
        // The two additive terms accumulate into *disjoint* buffers — that
        // disjointness is exactly what lets the coarse and fine tasks run
        // concurrently without synchronization (paper §5.3).
        // audit:allow(hot-alloc): disjoint per-apply buffer is the overlap-correctness mechanism; &self must stay immutable across both tasks
        let mut z_coarse = vec![0.0; n];
        // audit:allow(hot-alloc): disjoint per-apply buffer is the overlap-correctness mechanism; &self must stay immutable across both tasks
        let mut z_fine = vec![0.0; n];

        let coarse = &self.coarse;
        let tel = &self.tel;
        let rw_ref = &rw;
        let zc = &mut z_coarse;
        // Coarse task: restriction → exact solve (one allreduce) →
        // prolongation.
        let mut coarse_task = move || {
            let _g = tel.span_abs("schwarz/coarse");
            coarse.correct_add(rw_ref, zc, comm);
        };
        let zf = &mut z_fine;
        let mut fine_task = move || {
            let _g = tel.span_abs("pool/fdm");
            self.fdm.apply_add_with(rw_ref, zf, 1.0, 0.0, &self.pool);
        };
        match mode {
            SchwarzMode::Serial => {
                coarse_task();
                fine_task();
            }
            // The coarse task runs on the pool's persistent helper thread
            // — all its communication off the caller — while the caller
            // drives the pooled FDM sweep; no thread is spawned per apply.
            SchwarzMode::Overlapped => self.pool.pair(coarse_task, fine_task),
        }

        // Restore continuity of the fine-level corrections by weighted
        // averaging (restricted additive Schwarz combination).
        {
            let _g = self.tel.span_abs("schwarz/gs");
            for (v, w) in z_fine.iter_mut().zip(&self.wt) {
                *v *= w;
            }
            self.gs.apply(&mut z_fine, GsOp::Add, comm);
        }

        for i in 0..n {
            z[i] = z_coarse[i] + z_fine[i];
        }
        hadamard(&self.mask, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::dirichlet_mask;
    use crate::helmholtz::{HelmholtzOp, HelmholtzScratch};
    use crate::jacobi::{assembled_diagonal, jacobi_apply};
    use crate::krylov::{fgmres, pcg};
    use crate::ops::{DotProduct, ElemLayout};
    use rbx_comm::{run_on_ranks, SingleComm};
    use rbx_mesh::generators::box_mesh;
    use rbx_mesh::partition::{part_elements, partition_rcb};
    use rbx_mesh::{BoundaryTag, GeomFactors, HexMesh};

    const ALL_WALLS: [BoundaryTag; 3] = [
        BoundaryTag::Wall,
        BoundaryTag::HotWall,
        BoundaryTag::ColdWall,
    ];

    struct Setup {
        geom: GeomFactors,
        gs: Arc<GatherScatter>,
        mask: Vec<f64>,
        mult: Vec<f64>,
        schwarz: SchwarzMg,
    }

    impl Setup {
        /// The inner product over the whole one-rank mesh.
        fn dp(&self) -> DotProduct {
            let nel = self.geom.nelv;
            let n_per = self.geom.nodes_per_element();
            let layout = Arc::new(ElemLayout::new(n_per, (0..nel).collect(), nel));
            DotProduct::with_layout(&self.mult, layout)
        }
    }

    fn build(mesh: &HexMesh, p: usize, dirichlet: bool, comm: &dyn Communicator) -> Setup {
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let geom = GeomFactors::new(mesh, p);
        let gs = Arc::new(GatherScatter::build(mesh, p, &part, &my, comm));
        let mask = if dirichlet {
            dirichlet_mask(mesh, p, &my, &ALL_WALLS, &gs, comm)
        } else {
            vec![1.0; geom.total_nodes()]
        };
        let mult = gs.multiplicity(comm);
        let fdm = ElementFdm::new(&geom);
        let tags: &[BoundaryTag] = if dirichlet { &ALL_WALLS } else { &[] };
        let coarse = CoarseGrid::build(mesh, p, 1, &part, &my, tags, comm);
        let schwarz = SchwarzMg::new(
            fdm,
            coarse,
            gs.clone(),
            &mult,
            mask.clone(),
            &WorkerPool::new(1),
        );
        Setup {
            geom,
            gs,
            mask,
            mult,
            schwarz,
        }
    }

    #[test]
    fn overlapped_matches_serial_bitwise() {
        let p = 4;
        let mesh = box_mesh(3, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let s = build(&mesh, p, true, &comm);
        let n = s.geom.total_nodes();
        let mut r: Vec<f64> = (0..n).map(|i| ((i * 29 % 23) as f64) - 11.0).collect();
        s.gs.apply(&mut r, GsOp::Add, &comm);
        crate::ops::hadamard(&s.mask, &mut r);
        let mut z_serial = vec![0.0; n];
        let mut z_overlap = vec![0.0; n];
        s.schwarz
            .apply(&r, &mut z_serial, SchwarzMode::Serial, &comm);
        s.schwarz
            .apply(&r, &mut z_overlap, SchwarzMode::Overlapped, &comm);
        for i in 0..n {
            assert_eq!(
                z_serial[i].to_bits(),
                z_overlap[i].to_bits(),
                "node {i}: {} vs {}",
                z_serial[i],
                z_overlap[i]
            );
        }
    }

    #[test]
    fn pooled_apply_matches_serial_bitwise_across_thread_counts() {
        let p = 4;
        let mesh = box_mesh(3, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let s = build(&mesh, p, true, &comm);
        let n = s.geom.total_nodes();
        let mut r: Vec<f64> = (0..n).map(|i| ((i * 31 % 19) as f64) - 9.0).collect();
        s.gs.apply(&mut r, GsOp::Add, &comm);
        crate::ops::hadamard(&s.mask, &mut r);
        let mut z_ref = vec![0.0; n];
        s.schwarz.apply(&r, &mut z_ref, SchwarzMode::Serial, &comm);
        for threads in [1usize, 4, 7] {
            let mut s2 = build(&mesh, p, true, &comm);
            let pool = WorkerPool::new(threads);
            s2.schwarz.set_pool(&pool);
            for mode in [SchwarzMode::Serial, SchwarzMode::Overlapped] {
                let mut z = vec![0.0; n];
                s2.schwarz.apply(&r, &mut z, mode, &comm);
                for i in 0..n {
                    assert_eq!(
                        z_ref[i].to_bits(),
                        z[i].to_bits(),
                        "threads={threads} mode={mode:?} node {i}: {} vs {}",
                        z_ref[i],
                        z[i]
                    );
                }
            }
        }
    }

    #[test]
    fn preconditioner_is_positive() {
        let p = 4;
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let s = build(&mesh, p, true, &comm);
        let dp = s.dp();
        let n = s.geom.total_nodes();
        let mut r: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        s.gs.apply(&mut r, GsOp::Add, &comm);
        crate::ops::hadamard(&s.mask, &mut r);
        let mut z = vec![0.0; n];
        s.schwarz.apply(&r, &mut z, SchwarzMode::Serial, &comm);
        let zr = dp.dot(&z, &r, &comm);
        assert!(zr > 0.0, "⟨M⁻¹r, r⟩ = {zr}");
    }

    #[test]
    fn schwarz_beats_jacobi_on_poisson() {
        // Dirichlet Poisson; compare FGMRES+Schwarz against PCG+Jacobi in
        // iteration count at matched tolerance.
        let p = 5;
        let mesh = box_mesh(3, 3, 3, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let s = build(&mesh, p, true, &comm);
        let op = HelmholtzOp {
            geom: &s.geom,
            gs: &s.gs,
            mask: &s.mask,
            h1: 1.0,
            h2: 0.0,
        };
        let dp = s.dp();
        let diag = assembled_diagonal(&s.geom, &s.gs, 1.0, 0.0, &comm);
        let n = s.geom.total_nodes();

        let mut x_true: Vec<f64> = (0..n)
            .map(|i| {
                let x = s.geom.coords[0][i];
                let y = s.geom.coords[1][i];
                let z = s.geom.coords[2][i];
                (std::f64::consts::PI * x).sin()
                    * (std::f64::consts::PI * y).sin()
                    * (std::f64::consts::PI * z).sin()
            })
            .collect();
        crate::ops::hadamard(&s.mask, &mut x_true);
        let mut b = vec![0.0; n];
        let mut scratch = HelmholtzScratch::default();
        op.apply(&x_true, &mut b, &mut scratch, &comm);

        let mut x1 = vec![0.0; n];
        let mut scratch1 = HelmholtzScratch::default();
        let jacobi_stats = pcg(
            |pv, ap| op.apply(pv, ap, &mut scratch1, &comm),
            |r, z| jacobi_apply(&diag, &s.mask, r, z),
            |a, c| dp.dot(a, c, &comm),
            &b,
            &mut x1,
            1e-9,
            0.0,
            500,
        );

        let mut x2 = vec![0.0; n];
        let mut scratch2 = HelmholtzScratch::default();
        let schwarz_stats = fgmres(
            |pv, ap| op.apply(pv, ap, &mut scratch2, &comm),
            |r, z| s.schwarz.apply(r, z, SchwarzMode::Serial, &comm),
            |a, c| dp.dot(a, c, &comm),
            &b,
            &mut x2,
            1e-9,
            0.0,
            500,
            30,
        );

        assert!(
            jacobi_stats.converged && schwarz_stats.converged,
            "jacobi {jacobi_stats:?} schwarz {schwarz_stats:?}"
        );
        assert!(
            schwarz_stats.iterations < jacobi_stats.iterations,
            "schwarz {} !< jacobi {}",
            schwarz_stats.iterations,
            jacobi_stats.iterations
        );
        for (a, t) in x2.iter().zip(&x_true) {
            assert!((a - t).abs() < 1e-6);
        }
    }

    #[test]
    fn neumann_poisson_solve_with_schwarz() {
        // Pure-Neumann (pressure-like) Poisson: manufactured zero-mean
        // solution, FGMRES + overlapped Schwarz.
        let p = 4;
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let s = build(&mesh, p, false, &comm);
        let op = HelmholtzOp {
            geom: &s.geom,
            gs: &s.gs,
            mask: &s.mask,
            h1: 1.0,
            h2: 0.0,
        };
        let dp = s.dp();
        let n = s.geom.total_nodes();
        let bw: Vec<f64> = s
            .geom
            .mass
            .iter()
            .zip(dp.weights())
            .map(|(m, w)| m * w)
            .collect();
        let mut x_true: Vec<f64> = (0..n)
            .map(|i| {
                let x = s.geom.coords[0][i];
                (std::f64::consts::PI * x).cos()
            })
            .collect();
        crate::ops::ortho_project_mean(&mut x_true, &bw, dp.layout(), &comm);
        let mut b = vec![0.0; n];
        let mut scratch = HelmholtzScratch::default();
        op.apply(&x_true, &mut b, &mut scratch, &comm);

        let mut x = vec![0.0; n];
        let mut scratch2 = HelmholtzScratch::default();
        let stats = fgmres(
            |pv, ap| op.apply(pv, ap, &mut scratch2, &comm),
            |r, z| s.schwarz.apply(r, z, SchwarzMode::Overlapped, &comm),
            |a, c| dp.dot(a, c, &comm),
            &b,
            &mut x,
            1e-9,
            0.0,
            300,
            30,
        );
        assert!(stats.converged, "{stats:?}");
        crate::ops::ortho_project_mean(&mut x, &bw, dp.layout(), &comm);
        for (a, t) in x.iter().zip(&x_true) {
            assert!((a - t).abs() < 1e-5, "{a} vs {t}");
        }
    }

    #[test]
    fn multirank_overlapped_matches_single_rank_serial() {
        let p = 3;
        let mesh = box_mesh(4, 2, 1, [0., 4.], [0., 2.], [0., 1.], false, false);
        let n_per = (p + 1) * (p + 1) * (p + 1);

        // Reference on one rank.
        let comm1 = SingleComm::new();
        let s1 = build(&mesh, p, true, &comm1);
        let n = s1.geom.total_nodes();
        let mut r_ref: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) - 14.0).collect();
        s1.gs.apply(&mut r_ref, GsOp::Add, &comm1);
        crate::ops::hadamard(&s1.mask, &mut r_ref);
        let mut z_ref = vec![0.0; n];
        s1.schwarz
            .apply(&r_ref, &mut z_ref, SchwarzMode::Serial, &comm1);

        // 2-rank overlapped.
        let part = partition_rcb(&mesh, 2);
        let lists = part_elements(&part, 2);
        let (mesh_ref, part_ref, lists_ref, r_global) = (&mesh, &part, &lists, &r_ref);
        let results = run_on_ranks(2, move |comm| {
            let my = &lists_ref[comm.rank()];
            let geom = GeomFactors::new(&mesh_ref.extract(my), p);
            let gs = Arc::new(GatherScatter::build(mesh_ref, p, part_ref, my, comm));
            let mask = dirichlet_mask(mesh_ref, p, my, &ALL_WALLS, &gs, comm);
            let mult = gs.multiplicity(comm);
            let fdm = ElementFdm::new(&geom);
            let coarse = CoarseGrid::build(mesh_ref, p, 1, part_ref, my, &ALL_WALLS, comm);
            let pool = WorkerPool::new(1);
            let schwarz = SchwarzMg::new(fdm, coarse, gs.clone(), &mult, mask, &pool);
            let r: Vec<f64> = my
                .iter()
                .flat_map(|&ge| r_global[ge * n_per..(ge + 1) * n_per].to_vec())
                .collect();
            let mut z = vec![0.0; r.len()];
            schwarz.apply(&r, &mut z, SchwarzMode::Overlapped, comm);
            (my.clone(), z)
        });
        for (my, z) in results {
            for (le, &ge) in my.iter().enumerate() {
                for nd in 0..n_per {
                    let a = z[le * n_per + nd];
                    let b = z_ref[ge * n_per + nd];
                    assert!((a - b).abs() < 1e-10, "elem {ge} node {nd}: {a} vs {b}");
                }
            }
        }
    }
}
