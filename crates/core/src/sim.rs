//! The time-stepping driver: Karniadakis splitting with BDF/EXT.
//!
//! Each [`Simulation::step`] advances one Δt (paper §6):
//!
//! 1. **Explicit forcing** — dealiased advection `−(u·∇)u`, buoyancy
//!    `T·e_z`, and `−(u·∇)T`, pushed into the EXT history.
//! 2. **Pressure** — weak-divergence right-hand side of the extrapolated
//!    momentum (with the rotational `−ν∇×∇×u` correction), solved with
//!    GMRES + the hybrid Schwarz preconditioner, null space deflated.
//! 3. **Velocity** — three Helmholtz solves `(bd₀/Δt·B + ν·A)u = rhs`
//!    with block-Jacobi CG.
//! 4. **Temperature** — one Helmholtz solve with Dirichlet lifting for the
//!    hot/cold plates.
//!
//! Wall time is attributed to the paper's Fig. 4 phases throughout.

use crate::config::{SolverConfig, ThermalBc};
use crate::diffops::{curl, phys_grad_with, weak_divergence_with, Dealias};
use crate::error::{SimError, StepFault, StepPhase, StepVerdict};
use crate::fields::FlowState;
use crate::timeint::{bdf_coeffs_variable, effective_order, ext_coeffs_variable};
use crate::timers::{Phase, PhaseTimers};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbx_comm::Communicator;
use rbx_device::{PoolStats, WorkerPool};
use rbx_gs::{GatherScatter, GsOp};
use rbx_la::bc::{dirichlet_mask, set_on_tagged_faces};
use rbx_la::helmholtz::HelmholtzOp;
use rbx_la::jacobi::{assembled_diagonal, jacobi_apply};
use rbx_la::krylov::{fgmres, pcg, ResidualHistory, SolveStats};
use rbx_la::ops::{hadamard, ortho_project_mean, DotProduct, ElemLayout};
use rbx_la::{record_solve, CoarseGrid, ElementFdm, SchwarzMg, SolutionProjection, SolveHealth};
use rbx_mesh::{BoundaryTag, GeomFactors, HexMesh};
use rbx_telemetry::json::Value;
use rbx_telemetry::schema::TELEMETRY_SCHEMA;
use rbx_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

/// Velocity Dirichlet tags: every wall of the RBC cell is no-slip.
pub const VELOCITY_WALLS: [BoundaryTag; 3] = [
    BoundaryTag::Wall,
    BoundaryTag::HotWall,
    BoundaryTag::ColdWall,
];

/// Temperature Dirichlet tags: isothermal plates only (side walls
/// adiabatic → natural).
pub const TEMPERATURE_WALLS: [BoundaryTag; 2] = [BoundaryTag::HotWall, BoundaryTag::ColdWall];

/// Iteration cap of the velocity and temperature CG solves.
const V_MAXIT: usize = 200;

/// Pressure FGMRES iteration cap and restart length.
const P_MAXIT: usize = 200;
const P_RESTART: usize = 30;

/// Size of the pressure solution-projection space (previous-solution
/// recycling, Fischer 1998), always on as in NekRS.
pub const P_PROJECTION: usize = 8;

/// Temporal order of the BDF/EXT scheme: BDF3/EXT3 (paper §6), reached
/// after a 1 → 2 → 3 ramp over the first steps.
pub const TIME_ORDER: usize = 3;

/// Iteration counts and diagnostics from one time step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Pressure GMRES iterations.
    pub p_iters: usize,
    /// Final pressure residual.
    pub p_residual: f64,
    /// Velocity CG iterations (per component).
    pub v_iters: [usize; 3],
    /// Temperature CG iterations.
    pub t_iters: usize,
    /// Wall-clock seconds the step took (phase regions plus the small
    /// untimed remainder; excludes telemetry emission).
    pub wall_seconds: f64,
    /// Whether all solves met their tolerances.
    pub converged: bool,
    /// Health verdict for the step: solver breakdowns and a non-finite
    /// field scan, aggregated (see [`StepVerdict`]).
    pub verdict: StepVerdict,
}

/// One rank's share of an RBC simulation.
pub struct Simulation<'a> {
    /// Solver configuration.
    pub cfg: SolverConfig,
    /// The global mesh (replicated; only `my_elems` are computed on).
    pub mesh: &'a HexMesh,
    /// This rank's global element ids.
    pub my_elems: Vec<usize>,
    /// Communicator.
    pub comm: &'a dyn Communicator,
    /// Fine geometry of the local elements.
    pub geom: GeomFactors,
    /// Fine gather-scatter.
    pub gs: Arc<GatherScatter>,
    /// Node multiplicities.
    pub mult: Vec<f64>,
    /// Globally consistent inner product (canonical: the reduction bits
    /// are independent of the rank count — elastic-restart contract).
    pub dp: DotProduct,
    /// Element layout of the fine space (global ids, ascending).
    pub elem_layout: Arc<ElemLayout>,
    /// Velocity Dirichlet mask.
    pub mask_v: Vec<f64>,
    /// Temperature Dirichlet mask.
    pub mask_t: Vec<f64>,
    /// Pressure "mask" (all ones; pure Neumann).
    pub mask_p: Vec<f64>,
    /// Temperature Dirichlet lifting field, fixed at construction: ±0.5
    /// on the plates and 0 elsewhere, kept as its nonzero nodes.
    t_lift: Vec<(usize, f64)>,
    /// `H·t_lift` for the Helmholtz coefficients keyed by their bits
    /// (`None`: not computed, or computed in a step that diverged); empty
    /// until the first temperature solve.
    h_lift: Vec<f64>,
    h_lift_key: Option<(u64, u64)>,
    /// Pressure preconditioner.
    pub schwarz: SchwarzMg,
    /// Assembled diagonal of the stiffness `A`.
    diag_a: Vec<f64>,
    /// Assembled diagonal of the mass `B`.
    diag_b: Vec<f64>,
    /// Dealiasing apparatus.
    pub dealias: Dealias,
    /// Flow state.
    pub state: FlowState,
    /// Precomputed surface-flux contribution to the temperature RHS.
    flux_rhs: Vec<f64>,
    /// Per-phase timers (Fig. 4).
    pub timers: PhaseTimers,
    /// Observability handle (disabled by default; see
    /// [`Simulation::set_telemetry`]).
    pub tel: Telemetry,
    /// Stats of the most recent step.
    pub last: StepStats,
    /// Previous-solution recycling space for the pressure solve.
    p_proj: SolutionProjection,
    /// Worker pool every hot-path kernel runs on: one thread unless
    /// [`Simulation::set_pool`] installs a larger one.
    pool: WorkerPool,
    /// Pool counter snapshot at the end of the previous step, for per-step
    /// telemetry deltas.
    pool_prev: PoolStats,
    /// Gather-scatter byte counter at the end of the previous step, for
    /// the per-step `gs_bytes` delta in the step record.
    obs_prev_gs_bytes: u64,
    /// Cumulative `gs/shared` span seconds at the end of the previous
    /// step, for the per-step `comm_s` delta in the step record.
    obs_prev_comm_s: f64,
}

impl<'a> Simulation<'a> {
    /// Build the per-rank solver.
    ///
    /// `part` assigns every global element to a rank; `my_elems` are this
    /// rank's elements (consistent with `comm.rank()`).
    pub fn new(
        cfg: SolverConfig,
        mesh: &'a HexMesh,
        part: &[usize],
        my_elems: Vec<usize>,
        comm: &'a dyn Communicator,
    ) -> Self {
        let p = cfg.order;
        let sub = mesh.extract(&my_elems);
        let geom = GeomFactors::new(&sub, p);
        let gs = Arc::new(GatherScatter::build(mesh, p, part, &my_elems, comm));
        let mult = gs.multiplicity(comm);
        let n1 = p + 1;
        let elem_layout = Arc::new(ElemLayout::new(
            n1 * n1 * n1,
            my_elems.clone(),
            mesh.num_elements(),
        ));
        let dp = DotProduct::with_layout(&mult, elem_layout.clone());
        let mask_v = dirichlet_mask(mesh, p, &my_elems, &VELOCITY_WALLS, &gs, comm);
        // Thermal Dirichlet set depends on the plate condition: a flux-
        // heated bottom plate has no temperature constraint there.
        let t_dirichlet: &[BoundaryTag] = match cfg.thermal_bc {
            ThermalBc::Isothermal => &TEMPERATURE_WALLS,
            ThermalBc::BottomFluxTopIsothermal { .. } => &[BoundaryTag::ColdWall],
        };
        let mask_t = dirichlet_mask(mesh, p, &my_elems, t_dirichlet, &gs, comm);
        let mask_p = vec![1.0; geom.total_nodes()];
        let mut t_lift = vec![0.0; geom.total_nodes()];
        if matches!(cfg.thermal_bc, ThermalBc::Isothermal) {
            set_on_tagged_faces(mesh, p, &my_elems, BoundaryTag::HotWall, 0.5, &mut t_lift);
        }
        set_on_tagged_faces(mesh, p, &my_elems, BoundaryTag::ColdWall, -0.5, &mut t_lift);
        let t_lift: Vec<(usize, f64)> = t_lift
            .into_iter()
            .enumerate()
            .filter(|&(_, v)| v != 0.0)
            .collect();

        // Weak-form surface term for the imposed bottom flux:
        // rhs_T += ∮ φ·q dS on the hot plate.
        let mut flux_rhs = vec![0.0; geom.total_nodes()];
        if let ThermalBc::BottomFluxTopIsothermal { q } = cfg.thermal_bc {
            use rbx_mesh::topology::face_to_volume;
            let n = p + 1;
            let nn = n * n * n;
            for (le, &ge) in my_elems.iter().enumerate() {
                for f in 0..6 {
                    if mesh.face_tags[ge][f] == BoundaryTag::HotWall {
                        let w = geom.face_area_weights(le, f);
                        for b in 0..n {
                            for a in 0..n {
                                let (i, j, k) = face_to_volume(f, a, b, p);
                                flux_rhs[le * nn + i + n * (j + n * k)] += q * w[a + n * b];
                            }
                        }
                    }
                }
            }
        }

        // audit:allow(pool-discipline): setup, once per Simulation — the one-thread pool the step runs on until set_pool replaces it
        let pool = WorkerPool::new(1);
        gs.set_pool(&pool);
        let fdm = ElementFdm::new(&geom);
        // The coarse degree is clamped below the fine one, so every order
        // the solver accepts runs with the default coarse space.
        let coarse_p = cfg.coarse_order.min(p - 1);
        let coarse = CoarseGrid::build(mesh, p, coarse_p, part, &my_elems, &[], comm);
        let schwarz = SchwarzMg::new(fdm, coarse, gs.clone(), &mult, mask_p.clone(), &pool);

        let diag_a = assembled_diagonal(&geom, &gs, 1.0, 0.0, comm);
        let diag_b = assembled_diagonal(&geom, &gs, 0.0, 1.0, comm);
        let dealias = Dealias::new(&geom, cfg.dealias);
        let state = FlowState::new(geom.total_nodes());
        let p_proj = SolutionProjection::new(geom.total_nodes(), P_PROJECTION);

        Self {
            cfg,
            mesh,
            my_elems,
            comm,
            geom,
            gs,
            mult,
            dp,
            elem_layout,
            mask_v,
            mask_t,
            mask_p,
            h_lift: Vec::new(),
            h_lift_key: None,
            t_lift,
            schwarz,
            diag_a,
            diag_b,
            dealias,
            state,
            flux_rhs,
            timers: PhaseTimers::new(false),
            tel: Telemetry::disabled(),
            last: StepStats::default(),
            p_proj,
            pool_prev: pool.stats(),
            pool,
            obs_prev_gs_bytes: 0,
            obs_prev_comm_s: 0.0,
        }
    }

    /// Replace the worker pool every hot-path kernel runs on — Helmholtz
    /// applies inside the Krylov solves, the Schwarz FDM sweep (and its
    /// coarse∥fine overlap), the gather-scatter local phases, the dealiased
    /// advection/derivative kernels and the solver dot products. The step
    /// produces the same bits for every thread count × rank count: every
    /// reduction order is fixed by the mesh (per-element partials folded in
    /// global element order), never by the schedule or the partition.
    pub fn set_pool(&mut self, pool: &WorkerPool) {
        self.pool = pool.clone();
        self.pool_prev = pool.stats();
        self.schwarz.set_pool(pool);
        self.gs.set_pool(pool);
    }

    /// Local node count.
    pub fn n_local(&self) -> usize {
        self.geom.total_nodes()
    }

    /// Attach a shared telemetry handle and thread it through every
    /// instrumented layer: the phase timers (whose `step/<phase>` spans
    /// then land in the shared tree), the Schwarz preconditioner (coarse /
    /// FDM / gather sub-spans) and the gather-scatter operator (local vs
    /// shared phases with exchange-volume counters). Solve and step
    /// records flow to the handle's metrics registry and JSONL sink.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        let barrier = self.timers.barrier_sync;
        self.timers = PhaseTimers::with_telemetry(tel.clone(), barrier);
        self.schwarz.set_telemetry(tel);
        self.gs.set_telemetry(tel);
    }

    /// Pressure-projection recycling state (basis vectors and their images
    /// under the pressure operator), exposed so checkpoints can capture it:
    /// a restart that cold-starts the projection space takes a different
    /// Krylov trajectory from the uninterrupted run and breaks bitwise
    /// reproducibility.
    pub fn projection_state(&self) -> (&[Vec<f64>], &[Vec<f64>]) {
        (self.p_proj.basis(), self.p_proj.images())
    }

    /// Restore the pressure-projection space from checkpointed data.
    /// Returns `false` (leaving the space empty) when the shapes don't
    /// match this simulation's local layout.
    pub fn restore_projection(&mut self, basis: Vec<Vec<f64>>, images: Vec<Vec<f64>>) -> bool {
        self.p_proj.restore(basis, images)
    }

    /// Change the time-step size; subsequent steps use variable-step
    /// BDF/EXT coefficients built from the stored step history, so no
    /// restart of the multistep scheme is needed.
    pub fn set_dt(&mut self, dt: f64) {
        assert!(dt > 0.0, "time step must be positive");
        self.cfg.dt = dt;
    }

    /// CFL-targeting step-size controller: measures the current advective
    /// CFL and rescales `dt` toward `target_cfl`, limiting the change to
    /// ±20 % per call and `dt ≤ dt_max`. Returns the new step size.
    pub fn adapt_dt(&mut self, target_cfl: f64, dt_max: f64) -> f64 {
        assert!(target_cfl > 0.0 && dt_max > 0.0);
        let obs = crate::observables::Observables::new(&self.geom, self.mesh, &self.my_elems);
        let cfl = obs.cfl(
            [&self.state.u[0], &self.state.u[1], &self.state.u[2]],
            self.cfg.dt,
            self.comm,
        );
        let ratio = if cfl > 1e-12 {
            (target_cfl / cfl).clamp(0.8, 1.2)
        } else {
            1.2
        };
        let new_dt = (self.cfg.dt * ratio).min(dt_max);
        self.cfg.dt = new_dt;
        new_dt
    }

    /// Initialize the RBC state: zero velocity, conductive temperature
    /// profile plus a smooth deterministic perturbation that vanishes at
    /// the plates, plate temperatures enforced exactly.
    ///
    /// Assumes the cell spans `z ∈ [0, 1]` (both RBC generators do).
    pub fn init_rbc(&mut self) {
        let n = self.n_local();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        // A handful of smooth modes with seeded amplitudes: continuous by
        // construction, so no gather needed; identical on every rank.
        let modes: Vec<(f64, f64, f64, f64)> = (0..6)
            .map(|_| {
                (
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(1.0..4.0f64).round(),
                    rng.gen_range(1.0..4.0f64).round(),
                    rng.gen_range(1.0..3.0f64).round(),
                )
            })
            .collect();
        for i in 0..n {
            let x = self.geom.coords[0][i];
            let y = self.geom.coords[1][i];
            let z = self.geom.coords[2][i];
            let mut noise = 0.0;
            for &(a, kx, ky, kz) in &modes {
                noise += a
                    * (std::f64::consts::PI * kx * x).sin()
                    * (std::f64::consts::PI * ky * y).sin()
                    * (std::f64::consts::PI * kz * z).sin();
            }
            let conductive = match self.cfg.thermal_bc {
                ThermalBc::Isothermal => 0.5 - z,
                ThermalBc::BottomFluxTopIsothermal { q } => {
                    -0.5 + (q / self.cfg.diffusivity()) * (1.0 - z)
                }
            };
            self.state.t[i] =
                conductive + self.cfg.ic_noise * noise * (std::f64::consts::PI * z).sin();
            for d in 0..3 {
                self.state.u[d][i] = 0.0;
            }
            self.state.p[i] = 0.0;
        }
        // Enforce the plate values exactly.
        for i in 0..n {
            if self.mask_t[i] == 0.0 {
                self.state.t[i] = 0.0;
            }
        }
        for &(i, v) in &self.t_lift {
            if self.mask_t[i] == 0.0 {
                self.state.t[i] = v;
            }
        }
    }

    /// Compute the explicit forcings from the current state:
    /// `f = −(u·∇)u + T·e_z`, `f_T = −(u·∇)T`.
    // audit:allow(hot-alloc): field-sized scratch per call; a shared scratch arena is the planned fix (ROADMAP), and each allocation is amortized by the O(N) kernel work that follows
    fn compute_forcing(&self) -> ([Vec<f64>; 3], Vec<f64>) {
        let n = self.n_local();
        let u = &self.state.u;
        let mut f = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        let mut ft = vec![0.0; n];
        let span = self.tel.span_abs("pool/advect");
        let [f0, f1, f2] = &mut f;
        self.dealias.advect_with(
            &self.geom,
            [&u[0], &u[1], &u[2]],
            [&u[0], &u[1], &u[2], &self.state.t],
            [f0, f1, f2, &mut ft],
            &self.pool,
        );
        drop(span);
        for i in 0..n {
            f[0][i] = -f[0][i];
            f[1][i] = -f[1][i];
            f[2][i] = -f[2][i] + self.state.t[i]; // buoyancy T·e_z
            ft[i] = -ft[i];
        }
        (f, ft)
    }

    /// Advance one time step; returns the per-solve statistics.
    // audit:allow(det-wallclock): wall_start times the step for StepStats telemetry; it never touches fields, history, or checkpoints
    // audit:allow(hot-alloc): field-sized scratch per call; a shared scratch arena is the planned fix (ROADMAP), and each allocation is amortized by the O(N) kernel work that follows
    pub fn step(&mut self) -> StepStats {
        let wall_start = Instant::now();
        let n = self.n_local();
        let dt = self.cfg.dt;
        let nu = self.cfg.viscosity();
        let alpha = self.cfg.diffusivity();
        let istep = self.state.istep + 1;
        let mut stats = StepStats {
            converged: true,
            ..Default::default()
        };

        // ---- coefficients, explicit forcing + histories (Other) -----------
        struct Sums {
            su: [Vec<f64>; 3],
            st: Vec<f64>,
            u_ext: [Vec<f64>; 3],
            /// The BDF coefficient of the new level.
            bd0: f64,
        }
        let comm = self.comm;
        // Each region runs on a clone of the timers (an `Arc` bump) so its
        // closure can borrow `self`.
        let sums = self.timers.clone().region(Phase::Other, comm, || {
            let k = effective_order(istep, TIME_ORDER);
            // Step-size history (current step first) for variable-step
            // coefficients; uniform histories reproduce the classic
            // tables.
            let mut dts = vec![dt];
            dts.extend(self.state.dt_hist.iter().take(k.saturating_sub(1)));
            while dts.len() < k {
                dts.push(dt);
            }
            let bd = bdf_coeffs_variable(k, &dts);
            let ext = ext_coeffs_variable(k, &dts);

            let (f, ft) = self.compute_forcing();
            self.state.push_forcing_lag(f, ft, TIME_ORDER);
            self.state.push_solution_lag(TIME_ORDER);

            let mut su = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
            let mut st = vec![0.0; n];
            for (i, &bdi) in bd.iter().enumerate().skip(1) {
                let ul = &self.state.u_lag[i - 1];
                let tl = &self.state.t_lag[i - 1];
                let c = bdi / dt;
                for d in 0..3 {
                    for (s, v) in su[d].iter_mut().zip(&ul[d]) {
                        *s += c * v;
                    }
                }
                for (s, v) in st.iter_mut().zip(tl) {
                    *s += c * v;
                }
            }
            for (j, &ej) in ext.iter().enumerate() {
                let fl = &self.state.f_lag[j.min(self.state.f_lag.len() - 1)];
                let ftl = &self.state.ft_lag[j.min(self.state.ft_lag.len() - 1)];
                for d in 0..3 {
                    for (s, v) in su[d].iter_mut().zip(&fl[d]) {
                        *s += ej * v;
                    }
                }
                for (s, v) in st.iter_mut().zip(ftl) {
                    *s += ej * v;
                }
            }
            // Extrapolated velocity for the rotational pressure term.
            let mut u_ext = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
            for (j, &ej) in ext.iter().enumerate() {
                let ul = &self.state.u_lag[j.min(self.state.u_lag.len() - 1)];
                for d in 0..3 {
                    for (s, v) in u_ext[d].iter_mut().zip(&ul[d]) {
                        *s += ej * v;
                    }
                }
            }
            Sums {
                su,
                st,
                u_ext,
                bd0: bd[0],
            }
        });
        let Sums { su, st, u_ext, bd0 } = sums;

        // ---- pressure ------------------------------------------------------
        let p_stats = self.timers.clone().region(Phase::Pressure, comm, || {
            self.pressure_solve(&su, &u_ext, nu)
        });
        stats.p_iters = p_stats.iterations;
        stats.p_residual = p_stats.final_residual;
        stats.converged &= p_stats.converged;

        // ---- velocity ------------------------------------------------------
        let v_stats = self.timers.clone().region(Phase::Velocity, comm, || {
            self.velocity_solve(&su, nu, bd0 / dt)
        });
        for d in 0..3 {
            stats.v_iters[d] = v_stats[d].iterations;
            stats.converged &= v_stats[d].converged;
        }

        // ---- temperature ---------------------------------------------------
        let t_stats = self.timers.clone().region(Phase::Temperature, comm, || {
            self.temperature_solve(&st, alpha, bd0 / dt)
        });
        stats.t_iters = t_stats.iterations;
        stats.converged &= t_stats.converged;

        // The verdict scan (every field, every node) is real per-step work;
        // attribute it to Other so the Fig. 4 bins account for it, with the
        // step's closing bookkeeping.
        stats.verdict = self.timers.clone().region(Phase::Other, comm, || {
            let verdict = self.classify_step(&[
                (StepPhase::Pressure, p_stats.health),
                (StepPhase::Velocity(0), v_stats[0].health),
                (StepPhase::Velocity(1), v_stats[1].health),
                (StepPhase::Velocity(2), v_stats[2].health),
                (StepPhase::Temperature, t_stats.health),
            ]);
            self.state.istep = istep;
            self.state.time += dt;
            self.state.dt_hist.insert(0, dt);
            self.state.dt_hist.truncate(TIME_ORDER);
            verdict
        });
        // A faulted exchange may have corrupted the cached lifting term.
        if matches!(stats.verdict, StepVerdict::Diverged(_)) {
            self.h_lift_key = None;
        }

        self.timers.complete_step();
        stats.wall_seconds = wall_start.elapsed().as_secs_f64();
        self.record_step_telemetry(&stats, &p_stats, &v_stats, &t_stats);
        self.last = stats;
        stats
    }

    /// Push one completed step into the telemetry handle: per-solve
    /// records, step-loop metrics, and a `kind: "step"` JSONL record whose
    /// phase breakdown comes from the just-completed step's span deltas.
    /// A single atomic load when telemetry is disabled.
    fn record_step_telemetry(
        &mut self,
        stats: &StepStats,
        p_stats: &SolveStats,
        v_stats: &[SolveStats; 3],
        t_stats: &SolveStats,
    ) {
        if !self.tel.is_enabled() {
            return;
        }
        let now = self.pool.stats();
        let prev = std::mem::replace(&mut self.pool_prev, now);
        self.tel.gauge_set("rbx_pool_threads", now.threads as f64);
        self.tel.counter_add(
            "rbx_pool_dispatches_total",
            now.dispatches.saturating_sub(prev.dispatches),
        );
        self.tel.counter_add(
            "rbx_pool_chunks_total",
            now.chunks.saturating_sub(prev.chunks),
        );
        self.tel
            .counter_add("rbx_pool_items_total", now.items.saturating_sub(prev.items));
        self.tel.counter_add(
            "rbx_pool_grained_total",
            now.grained.saturating_sub(prev.grained),
        );
        // Constant for the whole process (the kernel level is pinned at
        // first use), but exported every step so any scrape sees it.
        self.tel.gauge_set(
            "rbx_kernel_simd_active",
            match rbx_basis::simd::level() {
                rbx_basis::simd::SimdLevel::Scalar => 0.0,
                _ => 1.0,
            },
        );
        record_solve(&self.tel, "fgmres", "pressure", p_stats);
        const V_LABELS: [&str; 3] = ["velocity_x", "velocity_y", "velocity_z"];
        for d in 0..3 {
            record_solve(&self.tel, "pcg", V_LABELS[d], &v_stats[d]);
        }
        record_solve(&self.tel, "pcg", "temperature", t_stats);

        let verdict = stats.verdict.token();
        self.tel.counter_add("rbx_steps_total", 1);
        self.tel.counter_add(
            &format!("rbx_step_verdict_total{{verdict=\"{verdict}\"}}"),
            1,
        );
        self.tel.gauge_set("rbx_step_dt", self.cfg.dt);
        self.tel.gauge_set("rbx_sim_time", self.state.time);
        self.tel
            .histogram_observe("rbx_step_wall_seconds", stats.wall_seconds);
        let obs = crate::observables::Observables::new(&self.geom, self.mesh, &self.my_elems);
        let cfl = obs.cfl(
            [&self.state.u[0], &self.state.u[1], &self.state.u[2]],
            self.cfg.dt,
            self.comm,
        );
        self.tel.gauge_set("rbx_cfl", cfl);
        let nusselt = obs.nusselt_wall(&self.state.t, BoundaryTag::HotWall, self.comm);
        self.tel.gauge_set("rbx_nusselt_hot", nusselt);

        let ph = self.timers.last_step_seconds();
        // "other" is the remainder bin: the measured Other region plus any
        // time between instrumented regions (allocation, guard churn, OS
        // preemption), so the four phases account for the full wall time.
        // The pure Other-region measurement stays visible as the
        // `step/other` span.
        let other = (stats.wall_seconds - ph[0] - ph[1] - ph[2]).max(ph[3]);
        // Observability extensions: per-step deltas of cumulative
        // gather-scatter traffic and inter-rank exchange time, so the
        // cross-rank aggregator can derive comm-vs-compute ratio and
        // bytes skew without access to this rank's registry.
        let gs_bytes_now = self.tel.metrics().counter("rbx_gs_bytes_total");
        let gs_bytes = gs_bytes_now.saturating_sub(self.obs_prev_gs_bytes);
        self.obs_prev_gs_bytes = gs_bytes_now;
        let comm_now = self.tel.tracer().seconds("gs/shared");
        let comm_s = (comm_now - self.obs_prev_comm_s).max(0.0);
        self.obs_prev_comm_s = comm_now;
        self.tel.emit(&Value::obj([
            ("schema", Value::str(TELEMETRY_SCHEMA)),
            ("kind", Value::str("step")),
            ("step", Value::int(self.state.istep as u64)),
            ("time", Value::num(self.state.time)),
            ("dt", Value::num(self.cfg.dt)),
            ("wall_s", Value::num(stats.wall_seconds)),
            (
                "phases",
                Value::obj([
                    ("pressure", Value::num(ph[0])),
                    ("velocity", Value::num(ph[1])),
                    ("temperature", Value::num(ph[2])),
                    ("other", Value::num(other)),
                ]),
            ),
            ("p_iters", Value::int(stats.p_iters as u64)),
            (
                "v_iters",
                Value::arr(stats.v_iters.iter().map(|&i| Value::int(i as u64))),
            ),
            ("t_iters", Value::int(stats.t_iters as u64)),
            ("verdict", Value::str(verdict)),
            ("rank", Value::int(self.comm.rank() as u64)),
            ("cfl", Value::num(cfl)),
            ("gs_bytes", Value::int(gs_bytes)),
            ("comm_s", Value::num(comm_s)),
        ]));
    }

    /// Advance one time step, surfacing an unusable state as an error.
    ///
    /// Identical to [`Simulation::step`] except that a
    /// [`StepVerdict::Diverged`] outcome becomes [`SimError::Diverged`] so
    /// callers (the fault-tolerant run loop in particular) cannot ignore
    /// it. A merely [`StepVerdict::Degraded`] step still returns `Ok` —
    /// the state is finite and usable.
    pub fn try_step(&mut self) -> Result<StepStats, SimError> {
        let stats = self.step();
        match stats.verdict {
            StepVerdict::Diverged(fault) => Err(SimError::Diverged {
                istep: self.state.istep,
                time: self.state.time,
                fault,
            }),
            _ => Ok(stats),
        }
    }

    /// Aggregate per-solve health and a direct field scan into one step
    /// verdict. A latched communication fault dominates everything: a
    /// timed-out or corrupt exchange NaN-poisons downstream data, so
    /// without this check the verdict would blame a misleading
    /// `NonFiniteResidual` instead of the root cause. Then fatal solver
    /// breakdowns, then non-finite fields (catches corruption the solvers
    /// never saw), then tolerance misses.
    fn classify_step(&self, solves: &[(StepPhase, SolveHealth)]) -> StepVerdict {
        if let Some(e) = self.comm.take_fault() {
            return StepVerdict::Diverged(StepFault::Comm { kind: e.kind() });
        }
        for &(phase, health) in solves {
            if health.is_fatal() {
                // Fatal health always carries an error; a fatal verdict
                // without one falls through to the field scan rather
                // than panicking inside the step loop.
                if let Some(error) = health.error() {
                    return StepVerdict::Diverged(StepFault::Solve { phase, error });
                }
                debug_assert!(false, "fatal health carries an error");
            }
        }
        if let Some(field) = self.find_non_finite() {
            return StepVerdict::Diverged(StepFault::NonFiniteField { field });
        }
        for &(phase, health) in solves {
            if let Some(error) = health.error() {
                return StepVerdict::Degraded(StepFault::Solve { phase, error });
            }
        }
        StepVerdict::Healthy
    }

    /// Name of the first primary field containing a non-finite value.
    pub fn find_non_finite(&self) -> Option<&'static str> {
        const U_NAMES: [&str; 3] = ["u[0]", "u[1]", "u[2]"];
        for d in 0..3 {
            if self.state.u[d].iter().any(|v| !v.is_finite()) {
                return Some(U_NAMES[d]);
            }
        }
        if self.state.p.iter().any(|v| !v.is_finite()) {
            return Some("p");
        }
        if self.state.t.iter().any(|v| !v.is_finite()) {
            return Some("t");
        }
        None
    }

    /// Drop the pressure solution-recycling space.
    ///
    /// Must be called whenever the state is replaced wholesale (checkpoint
    /// restore, rollback): the space is not part of the checkpoint, and a
    /// basis built from a diverged trajectory — or polluted by non-finite
    /// directions — would otherwise survive the rollback and poison every
    /// later pressure solve.
    pub fn reset_projection(&mut self) {
        self.p_proj.clear();
    }

    // audit:allow(hot-alloc): field-sized scratch per call; a shared scratch arena is the planned fix (ROADMAP), and each allocation is amortized by the O(N) kernel work that follows
    fn pressure_solve(&mut self, su: &[Vec<f64>; 3], u_ext: &[Vec<f64>; 3], nu: f64) -> SolveStats {
        let n = self.n_local();
        // S̃ = S − ν ∇×∇×u_ext (rotational correction). The curl
        // temporaries live in their own block, so they are freed before
        // the solve allocates its work vectors.
        let mut sx = su[0].clone();
        let mut sy = su[1].clone();
        let mut sz = su[2].clone();
        {
            let mut wx = vec![0.0; n];
            let mut wy = vec![0.0; n];
            let mut wz = vec![0.0; n];
            curl(
                &self.geom,
                [&u_ext[0], &u_ext[1], &u_ext[2]],
                [&mut wx, &mut wy, &mut wz],
                &self.pool,
            );
            let mut cx = vec![0.0; n];
            let mut cy = vec![0.0; n];
            let mut cz = vec![0.0; n];
            curl(
                &self.geom,
                [&wx, &wy, &wz],
                [&mut cx, &mut cy, &mut cz],
                &self.pool,
            );
            for i in 0..n {
                sx[i] -= nu * cx[i];
                sy[i] -= nu * cy[i];
                sz[i] -= nu * cz[i];
            }
        }
        let mut rhs = vec![0.0; n];
        weak_divergence_with(&self.geom, [&sx, &sy, &sz], &mut rhs, &self.pool);
        self.gs.apply(&mut rhs, GsOp::Add, self.comm);
        // Consistency projection: the singular Neumann system needs
        // ⟨rhs, 1⟩ = 0 in the *unique-dof* inner product, so the weights
        // are the inverse multiplicities (mass weighting here would break
        // solvability).
        ortho_project_mean(&mut rhs, self.dp.weights(), &self.elem_layout, self.comm);

        let op = HelmholtzOp {
            geom: &self.geom,
            gs: &self.gs,
            mask: &self.mask_p,
            h1: 1.0,
            h2: 0.0,
        };
        let dp = &self.dp;
        let comm = self.comm;
        let schwarz = &self.schwarz;
        let mode = self.cfg.schwarz_mode;
        let use_schwarz = self.cfg.schwarz_enabled;
        let diag_a = &self.diag_a;
        let mask_p = &self.mask_p;
        let mass = &self.geom.mass;
        let layout = &self.elem_layout;
        let pool = &self.pool;
        let tel = &self.tel;

        // Previous-solution recycling: remove the best approximation in the
        // stored A-orthonormal space, solve only for the remainder.
        let mut x0 = vec![0.0; n];
        self.p_proj.project_out(&mut rhs, &mut x0, dp, comm);
        let mut dx = vec![0.0; n];
        let stats = fgmres(
            |x, y| {
                let _g = tel.span_abs("pool/helmholtz");
                op.apply_with(x, y, pool, comm);
            },
            |r, z| {
                if use_schwarz {
                    schwarz.apply(r, z, mode, comm);
                } else {
                    jacobi_apply(diag_a, mask_p, r, z);
                    // Jacobi on pure Neumann: deflate constants.
                    ortho_project_mean(z, mass, layout, comm);
                }
            },
            |a, b| {
                let _g = tel.span_abs("pool/dot");
                dp.dot_with(a, b, pool, comm)
            },
            &rhs,
            &mut dx,
            self.cfg.p_tol,
            0.0,
            P_MAXIT,
            P_RESTART,
        );
        if !stats.converged {
            // Production-style diagnostic: a stalled pressure solve is the
            // first thing to debug in a failing DNS.
            eprintln!(
                "[rbx] pressure GMRES {}: {} iters, residual {:.3e} \
                 (initial {:.3e}, deflated rhs {:.3e}, projected guess {:.3e}, space {} vecs)",
                stats.health,
                stats.iterations,
                stats.final_residual,
                stats.initial_residual,
                dp.norm(&rhs, comm),
                dp.norm(&x0, comm),
                self.p_proj.len()
            );
        }
        let p = &mut self.state.p;
        for i in 0..n {
            p[i] = x0[i] + dx[i];
        }
        ortho_project_mean(p, mass, layout, comm);
        // Absorb the *full* solution, not just the correction: when the
        // space restarts (Fischer's policy clears it once full), the first
        // stored direction must carry the dominant pressure content or the
        // next solve cold-starts and can stall. Against a warm space the
        // A-orthogonalization reduces this to the correction automatically.
        let mut ap = vec![0.0; n];
        op.apply_with(p, &mut ap, pool, comm);
        let p_snapshot = self.state.p.clone();
        self.p_proj.absorb(&p_snapshot, &ap, dp, comm);
        stats
    }

    // audit:allow(hot-alloc): field-sized scratch per call; a shared scratch arena is the planned fix (ROADMAP), and each allocation is amortized by the O(N) kernel work that follows
    fn velocity_solve(&mut self, su: &[Vec<f64>; 3], nu: f64, bd0_dt: f64) -> [SolveStats; 3] {
        let n = self.n_local();
        // Pressure gradient (pointwise).
        let mut gx = vec![0.0; n];
        let mut gy = vec![0.0; n];
        let mut gz = vec![0.0; n];
        phys_grad_with(
            &self.geom,
            &self.state.p,
            &mut gx,
            &mut gy,
            &mut gz,
            &self.pool,
        );
        let grads = [gx, gy, gz];

        let diag: Vec<f64> = self
            .diag_a
            .iter()
            .zip(&self.diag_b)
            .map(|(a, b)| nu * a + bd0_dt * b)
            .collect();
        let op = HelmholtzOp {
            geom: &self.geom,
            gs: &self.gs,
            mask: &self.mask_v,
            h1: nu,
            h2: bd0_dt,
        };
        let dp = &self.dp;
        let comm = self.comm;
        let mask_v = &self.mask_v;
        let pool = &self.pool;
        let tel = &self.tel;
        let mut out = [SolveStats {
            iterations: 0,
            initial_residual: 0.0,
            final_residual: 0.0,
            converged: true,
            health: SolveHealth::Healthy,
            residuals: ResidualHistory::new(),
        }; 3];
        for d in 0..3 {
            let mut rhs = vec![0.0; n];
            for i in 0..n {
                rhs[i] = self.geom.mass[i] * (su[d][i] - grads[d][i]);
            }
            self.gs.apply(&mut rhs, GsOp::Add, comm);
            hadamard(mask_v, &mut rhs);
            // Initial guess: previous velocity (masked — walls are
            // homogeneous).
            let u = &mut self.state.u[d];
            hadamard(mask_v, u);
            out[d] = pcg(
                |x, y| {
                    let _g = tel.span_abs("pool/helmholtz");
                    op.apply_with(x, y, pool, comm);
                },
                |r, z| jacobi_apply(&diag, mask_v, r, z),
                |a, b| {
                    let _g = tel.span_abs("pool/dot");
                    dp.dot_with(a, b, pool, comm)
                },
                &rhs,
                u,
                0.0,
                self.cfg.v_tol,
                V_MAXIT,
            );
        }
        out
    }

    // audit:allow(hot-alloc): field-sized scratch per call; a shared scratch arena is the planned fix (ROADMAP), and each allocation is amortized by the O(N) kernel work that follows
    fn temperature_solve(&mut self, st: &[f64], alpha: f64, bd0_dt: f64) -> SolveStats {
        let n = self.n_local();
        // Lifting: solve for θ = T − T_lift with homogeneous plate values.
        // `H·T_lift` changes only with the coefficients (the BDF ramp, a
        // new dt), so it is applied once per coefficient pair.
        let key = (alpha.to_bits(), bd0_dt.to_bits());
        if self.h_lift_key != Some(key) {
            let op_unmasked = HelmholtzOp {
                geom: &self.geom,
                gs: &self.gs,
                mask: &self.mask_p, // all-ones: unmasked apply
                h1: alpha,
                h2: bd0_dt,
            };
            let mut t_lift = vec![0.0; n];
            for &(i, v) in &self.t_lift {
                t_lift[i] = v;
            }
            self.h_lift.resize(n, 0.0);
            op_unmasked.apply_with(&t_lift, &mut self.h_lift, &self.pool, self.comm);
            self.h_lift_key = Some(key);
        }
        let h_lift = &self.h_lift;

        let mut rhs = vec![0.0; n];
        for i in 0..n {
            rhs[i] = self.geom.mass[i] * st[i] + self.flux_rhs[i];
        }
        self.gs.apply(&mut rhs, GsOp::Add, self.comm);
        for i in 0..n {
            rhs[i] -= h_lift[i];
        }
        hadamard(&self.mask_t, &mut rhs);

        let diag: Vec<f64> = self
            .diag_a
            .iter()
            .zip(&self.diag_b)
            .map(|(a, b)| alpha * a + bd0_dt * b)
            .collect();
        let op = HelmholtzOp {
            geom: &self.geom,
            gs: &self.gs,
            mask: &self.mask_t,
            h1: alpha,
            h2: bd0_dt,
        };
        let dp = &self.dp;
        let comm = self.comm;
        let mask_t = &self.mask_t;
        let pool = &self.pool;
        let tel = &self.tel;
        // θ initial guess from the previous temperature (`t − 0` is `t`
        // off the plates).
        let mut theta = self.state.t.clone();
        for &(i, v) in &self.t_lift {
            theta[i] -= v;
        }
        hadamard(mask_t, &mut theta);
        let stats = pcg(
            |x, y| {
                let _g = tel.span_abs("pool/helmholtz");
                op.apply_with(x, y, pool, comm);
            },
            |r, z| jacobi_apply(&diag, mask_t, r, z),
            |a, b| {
                let _g = tel.span_abs("pool/dot");
                dp.dot_with(a, b, pool, comm)
            },
            &rhs,
            &mut theta,
            0.0,
            self.cfg.v_tol,
            V_MAXIT,
        );
        // Off the plates add the lift's 0 too: `−0 + 0` is `+0`, and
        // restarts are compared bit for bit.
        for (t, th) in self.state.t.iter_mut().zip(&theta) {
            *t = th + 0.0;
        }
        for &(i, v) in &self.t_lift {
            self.state.t[i] = theta[i] + v;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observables::Observables;
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;

    fn small_sim<'a>(cfg: SolverConfig, mesh: &'a HexMesh, comm: &'a SingleComm) -> Simulation<'a> {
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        Simulation::new(cfg, mesh, &part, my, comm)
    }

    #[test]
    fn pooled_steps_bitwise_identical_across_thread_counts() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let cfg = SolverConfig {
            ra: 1e4,
            order: 4,
            dt: 1e-3,
            ..Default::default()
        };
        let run = |threads: usize| {
            let mut sim = small_sim(cfg.clone(), &mesh, &comm);
            let pool = rbx_device::WorkerPool::new(threads);
            sim.set_pool(&pool);
            sim.init_rbc();
            for _ in 0..3 {
                let stats = sim.step();
                assert!(stats.converged, "threads={threads}: {stats:?}");
            }
            (
                sim.state.u.clone(),
                sim.state.p.clone(),
                sim.state.t.clone(),
            )
        };
        let (u1, p1, t1) = run(1);
        for threads in [4usize, 7] {
            let (u, p, t) = run(threads);
            for d in 0..3 {
                assert!(
                    u1[d]
                        .iter()
                        .zip(&u[d])
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "u[{d}] differs at {threads} threads"
                );
            }
            assert!(
                p1.iter().zip(&p).all(|(a, b)| a.to_bits() == b.to_bits()),
                "p differs at {threads} threads"
            );
            assert!(
                t1.iter().zip(&t).all(|(a, b)| a.to_bits() == b.to_bits()),
                "t differs at {threads} threads"
            );
        }
    }

    #[test]
    fn pooled_step_records_pool_spans_and_metrics() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let cfg = SolverConfig {
            ra: 1e4,
            order: 4,
            dt: 1e-3,
            ..Default::default()
        };
        let mut sim = small_sim(cfg, &mesh, &comm);
        let tel = Telemetry::enabled();
        sim.set_telemetry(&tel);
        let pool = rbx_device::WorkerPool::new(4);
        sim.set_pool(&pool);
        sim.init_rbc();
        sim.step();
        for span in [
            "pool/helmholtz",
            "pool/dot",
            "pool/advect",
            "pool/fdm",
            "pool/gs",
        ] {
            assert!(tel.tracer().calls(span) > 0, "missing span {span}");
        }
        assert_eq!(tel.metrics().gauge("rbx_pool_threads"), Some(4.0));
        assert!(tel.metrics().counter("rbx_pool_dispatches_total") > 0);
        assert!(tel.metrics().counter("rbx_pool_chunks_total") > 0);
        assert!(tel.metrics().counter("rbx_pool_items_total") > 0);
    }

    #[test]
    fn conduction_state_is_steady_below_onset() {
        // Ra far below onset: the conductive state must stay (nearly)
        // motionless and Nu must stay 1.
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let cfg = SolverConfig {
            ra: 100.0,
            order: 4,
            dt: 2e-3,
            ic_noise: 0.0,
            ..Default::default()
        };
        let mut sim = small_sim(cfg, &mesh, &comm);
        sim.init_rbc();
        for _ in 0..5 {
            let stats = sim.step();
            assert!(stats.converged, "{stats:?}");
        }
        let obs = Observables::new(&sim.geom, &mesh, &sim.my_elems);
        let ke = obs.kinetic_energy([&sim.state.u[0], &sim.state.u[1], &sim.state.u[2]], &comm);
        assert!(ke < 1e-10, "kinetic energy {ke} should stay ~0");
        let nu = obs.nusselt_wall(&sim.state.t, BoundaryTag::HotWall, &comm);
        assert!((nu - 1.0).abs() < 1e-6, "Nu = {nu}");
    }

    #[test]
    fn perturbed_run_stays_bounded_and_divergence_free() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let cfg = SolverConfig {
            ra: 5e3,
            order: 4,
            dt: 5e-3,
            ic_noise: 1e-2,
            ..Default::default()
        };
        let mut sim = small_sim(cfg, &mesh, &comm);
        sim.init_rbc();
        for _ in 0..10 {
            let stats = sim.step();
            assert!(stats.converged, "{stats:?}");
        }
        let obs = Observables::new(&sim.geom, &mesh, &sim.my_elems);
        let ke = obs.kinetic_energy([&sim.state.u[0], &sim.state.u[1], &sim.state.u[2]], &comm);
        assert!(ke.is_finite() && ke < 1.0, "kinetic energy {ke}");
        let div = obs.divergence_norm([&sim.state.u[0], &sim.state.u[1], &sim.state.u[2]], &comm);
        // Splitting schemes are not exactly divergence-free pointwise, but
        // the norm must be small relative to the velocity scale.
        assert!(div < 0.5, "divergence {div}");
        // Temperature bounds (maximum principle up to small overshoots).
        let tmax = sim.state.t.iter().cloned().fold(f64::MIN, f64::max);
        let tmin = sim.state.t.iter().cloned().fold(f64::MAX, f64::min);
        assert!(tmax < 0.6 && tmin > -0.6, "T ∈ [{tmin}, {tmax}]");
    }

    #[test]
    fn timers_attribute_pressure_dominance() {
        // The paper's Fig. 4: pressure dominates the step cost.
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let cfg = SolverConfig {
            ra: 1e4,
            order: 5,
            dt: 2e-3,
            ..Default::default()
        };
        let mut sim = small_sim(cfg, &mesh, &comm);
        sim.init_rbc();
        for _ in 0..3 {
            sim.step();
        }
        let pct = sim.timers.percentages();
        assert!(
            pct[0] > pct[2],
            "pressure {} !> temperature {}",
            pct[0],
            pct[2]
        );
        assert!(sim.timers.avg_per_step() > 0.0);
    }

    #[test]
    fn step_counter_and_time_advance() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let cfg = SolverConfig {
            ra: 1e3,
            order: 3,
            dt: 1e-3,
            ..Default::default()
        };
        let mut sim = small_sim(cfg, &mesh, &comm);
        sim.init_rbc();
        sim.step();
        sim.step();
        assert_eq!(sim.state.istep, 2);
        assert!((sim.state.time - 2e-3).abs() < 1e-15);
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;
    use rbx_telemetry::schema::validate_line;

    fn sim_with<'a>(
        mesh: &'a HexMesh,
        part: &'a [usize],
        comm: &'a SingleComm,
        tel: &Telemetry,
    ) -> Simulation<'a> {
        let cfg = SolverConfig {
            ra: 1e4,
            order: 3,
            dt: 2e-3,
            ic_noise: 1e-2,
            ..Default::default()
        };
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let mut sim = Simulation::new(cfg, mesh, part, my, comm);
        sim.set_telemetry(tel);
        sim.init_rbc();
        sim
    }

    #[test]
    fn steps_emit_schema_valid_records_and_metrics() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let tel = Telemetry::enabled();
        let path =
            std::env::temp_dir().join(format!("rbx-sim-telemetry-{}.jsonl", std::process::id()));
        tel.open_jsonl(&path).unwrap();
        let mut sim = sim_with(&mesh, &part, &comm, &tel);
        for _ in 0..3 {
            assert!(sim.step().converged);
        }
        tel.flush();

        // Every line is schema-valid; 3 steps × (5 solves + 1 step record).
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3 * 6, "{lines:#?}");
        for line in &lines {
            validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }

        // The step loop fed the registry.
        assert_eq!(tel.metrics().counter("rbx_steps_total"), 3);
        assert_eq!(
            tel.metrics()
                .counter("rbx_step_verdict_total{verdict=\"healthy\"}"),
            3
        );
        assert!(tel.metrics().gauge("rbx_step_dt").unwrap() > 0.0);
        // Gather-scatter traffic flowed through the shared handle (single
        // rank: local work only, but the spans must be there).
        assert!(tel.tracer().calls("pool/gs") > 0);
        // Schwarz sub-stages appear in the span tree.
        assert!(tel.tracer().calls("schwarz/coarse") > 0);
        assert!(tel.tracer().calls("pool/fdm") > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn phase_breakdown_sums_close_to_step_wall_time() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let tel = Telemetry::enabled();
        let mut sim = sim_with(&mesh, &part, &comm, &tel);
        sim.step(); // warm-up (allocator, code paths)
        let stats = sim.step();
        let phases: f64 = sim.timers.last_step_seconds().iter().sum();
        assert!(stats.wall_seconds > 0.0);
        assert!(
            phases <= stats.wall_seconds * 1.001,
            "phase sum {phases} exceeds wall {}",
            stats.wall_seconds
        );
        // The four regions cover everything but loop bookkeeping: within 1 %
        // of the step wall time (acceptance criterion).
        assert!(
            phases >= stats.wall_seconds * 0.99,
            "untimed remainder too large: phases {phases} vs wall {}",
            stats.wall_seconds
        );
    }

    #[test]
    fn disabled_telemetry_emits_nothing_and_last_stats_still_flow() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let tel = Telemetry::disabled();
        let mut sim = sim_with(&mesh, &part, &comm, &tel);
        let stats = sim.step();
        assert!(stats.wall_seconds > 0.0);
        assert_eq!(tel.jsonl_lines(), 0);
        assert!(tel.metrics().render_prometheus().is_empty());
        // PhaseTimers still record (they always do).
        assert!(sim.timers.total() > 0.0);
    }
}

#[cfg(test)]
mod health_tests {
    use super::*;
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;

    fn cfg() -> SolverConfig {
        SolverConfig {
            ra: 1e4,
            order: 3,
            dt: 2e-3,
            ic_noise: 1e-2,
            ..Default::default()
        }
    }

    fn small_sim<'a>(mesh: &'a HexMesh, comm: &'a SingleComm) -> Simulation<'a> {
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        Simulation::new(cfg(), mesh, &part, my, comm)
    }

    #[test]
    fn healthy_run_reports_healthy_verdict() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let mut sim = small_sim(&mesh, &comm);
        sim.init_rbc();
        for _ in 0..3 {
            let stats = sim.step();
            assert!(stats.converged);
            assert!(stats.verdict.is_healthy(), "{:?}", stats.verdict);
            assert_eq!(stats.verdict.fault(), None);
        }
    }

    #[test]
    fn cached_lifting_term_is_bitwise_the_recomputed_one() {
        // Across the BDF ramp (steps 1–3) and a dt change, a run that
        // keeps `H·T_lift` matches one that recomputes it every step.
        let mesh = box_mesh(2, 1, 2, [0., 2.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let mut cached = small_sim(&mesh, &comm);
        let mut fresh = small_sim(&mesh, &comm);
        cached.init_rbc();
        fresh.init_rbc();
        for step in 1..=8 {
            if step == 6 {
                cached.set_dt(1.5e-3);
                fresh.set_dt(1.5e-3);
            }
            fresh.h_lift_key = None;
            assert!(cached.step().verdict.is_healthy());
            assert!(fresh.step().verdict.is_healthy());
        }
        assert!(cached.h_lift_key.is_some());
        let fields = |s: &Simulation<'_>| {
            let st = &s.state;
            [&st.u[0], &st.u[1], &st.u[2], &st.p, &st.t]
                .into_iter()
                .flat_map(|f| f.iter().map(|v| v.to_bits()))
                .collect::<Vec<u64>>()
        };
        assert_eq!(fields(&cached), fields(&fresh));
    }

    #[test]
    fn nan_seeded_field_diverges_within_one_step() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let mut sim = small_sim(&mesh, &comm);
        sim.init_rbc();
        assert!(sim.step().converged);
        // A single NaN anywhere in the velocity (bad reduction, cosmic
        // ray, injected fault) must be flagged on the very next step, not
        // silently ground through the full iteration budget.
        sim.state.u[0][3] = f64::NAN;
        let stats = sim.step();
        assert!(!stats.converged);
        assert!(stats.verdict.is_diverged(), "{:?}", stats.verdict);
        // And it must be cheap: solvers bail immediately on non-finite
        // residuals instead of iterating to the cap.
        assert!(
            stats.p_iters == 0 && stats.t_iters == 0,
            "solvers iterated on NaN: {stats:?}"
        );
    }

    #[test]
    fn try_step_surfaces_divergence_as_error() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let mut sim = small_sim(&mesh, &comm);
        sim.init_rbc();
        assert!(sim.try_step().is_ok());
        sim.state.t[0] = f64::INFINITY;
        let err = sim.try_step().expect_err("Inf state must error");
        match err {
            SimError::Diverged { istep, fault, .. } => {
                assert_eq!(istep, 2);
                // Display must name the phase or the field.
                let msg = fault.to_string();
                assert!(!msg.is_empty());
            }
            other => panic!("wrong error kind: {other}"),
        }
    }

    #[test]
    fn find_non_finite_names_the_field() {
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let mut sim = small_sim(&mesh, &comm);
        sim.init_rbc();
        assert_eq!(sim.find_non_finite(), None);
        sim.state.p[0] = f64::NAN;
        assert_eq!(sim.find_non_finite(), Some("p"));
        sim.state.p[0] = 0.0;
        sim.state.u[2][0] = f64::NEG_INFINITY;
        assert_eq!(sim.find_non_finite(), Some("u[2]"));
    }
}

#[cfg(test)]
mod projection_tests {
    use super::*;
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;

    #[test]
    fn pressure_projection_reduces_iterations() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        // Without projection: the space is emptied before every step.
        let run = |project: bool| -> usize {
            let cfg = SolverConfig {
                ra: 1e4,
                order: 4,
                dt: 2e-3,
                ic_noise: 1e-2,
                ..Default::default()
            };
            let part = vec![0; mesh.num_elements()];
            let my: Vec<usize> = (0..mesh.num_elements()).collect();
            let mut sim = Simulation::new(cfg, &mesh, &part, my, &comm);
            sim.init_rbc();
            let mut total = 0;
            for _ in 0..12 {
                if !project {
                    sim.reset_projection();
                }
                let st = sim.step();
                assert!(st.converged, "{st:?}");
                total += st.p_iters;
            }
            total
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without,
            "projection did not reduce pressure iterations: {with} !< {without}"
        );
    }

    #[test]
    fn projection_preserves_solution_quality() {
        // Fields with and without projection must agree (same operator,
        // same tolerance).
        let mesh = box_mesh(2, 2, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let run = |project: bool| -> Vec<f64> {
            let cfg = SolverConfig {
                ra: 1e4,
                order: 3,
                dt: 2e-3,
                ic_noise: 1e-2,
                p_tol: 1e-10,
                ..Default::default()
            };
            let part = vec![0; mesh.num_elements()];
            let my: Vec<usize> = (0..mesh.num_elements()).collect();
            let mut sim = Simulation::new(cfg, &mesh, &part, my, &comm);
            sim.init_rbc();
            for _ in 0..6 {
                if !project {
                    sim.reset_projection();
                }
                assert!(sim.step().converged);
            }
            sim.state.t.clone()
        };
        let a = run(false);
        let b = run(true);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }
}

#[cfg(test)]
mod adaptive_dt_tests {
    use super::*;
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;

    #[test]
    fn variable_steps_keep_solution_accurate() {
        // A run with deliberately nonuniform steps must track the
        // uniform-step reference closely (variable-step coefficients keep
        // full order through the changes).
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let base = SolverConfig {
            ra: 1e4,
            order: 4,
            dt: 1e-3,
            ic_noise: 1e-2,
            ..Default::default()
        };
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();

        // Reference: 12 uniform steps of 1e-3 → t = 0.012.
        let mut a = Simulation::new(base.clone(), &mesh, &part, my.clone(), &comm);
        a.init_rbc();
        for _ in 0..12 {
            assert!(a.step().converged);
        }

        // Variable: mix of 0.5e-3 and 1.5e-3 reaching the same time.
        let mut b = Simulation::new(base, &mesh, &part, my, &comm);
        b.init_rbc();
        let pattern = [
            1e-3, 0.5e-3, 1.5e-3, 1e-3, 0.5e-3, 1.5e-3, 1e-3, 0.5e-3, 1.5e-3, 1e-3, 0.5e-3, 1.5e-3,
        ];
        for &dt in &pattern {
            b.set_dt(dt);
            assert!(b.step().converged);
        }
        assert!((a.state.time - b.state.time).abs() < 1e-12);
        let max_d = a
            .state
            .t
            .iter()
            .zip(&b.state.t)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        // Different step sequences incur different (small) temporal errors;
        // they must agree to the scheme's accuracy, far below field scale.
        assert!(max_d < 1e-5, "variable-step run diverged: {max_d:.3e}");
    }

    #[test]
    fn adapt_dt_moves_toward_target_cfl() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let cfg = SolverConfig {
            ra: 1e5,
            order: 4,
            dt: 1e-4,
            ic_noise: 0.05,
            ..Default::default()
        };
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let mut sim = Simulation::new(cfg, &mesh, &part, my, &comm);
        sim.init_rbc();
        for _ in 0..5 {
            assert!(sim.step().converged);
        }
        // Velocities are tiny → CFL far below target → controller raises dt
        // (capped at +20 % per call and by dt_max).
        let dt0 = sim.cfg.dt;
        let dt1 = sim.adapt_dt(0.3, 5e-3);
        assert!(dt1 > dt0, "controller failed to raise dt: {dt0} → {dt1}");
        assert!(dt1 <= dt0 * 1.2 + 1e-18, "rate limit violated");
        // dt_max cap respected under repeated growth.
        for _ in 0..40 {
            sim.adapt_dt(0.3, 2e-3);
        }
        assert!(sim.cfg.dt <= 2e-3 + 1e-18);
        // Still integrates stably at the adapted step.
        assert!(sim.step().converged);
    }
}

#[cfg(test)]
mod thermal_bc_tests {
    use super::*;
    use crate::config::ThermalBc;
    use crate::observables::Observables;
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;

    #[test]
    fn flux_bc_conductive_state_is_steady() {
        // With q = α the conductive flux profile equals the isothermal one
        // (slope −1); starting from it, the run must stay put (below onset)
        // and the measured wall gradient must match −q/α.
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let ra = 100.0;
        let alpha = 1.0 / (ra * 1.0f64).sqrt();
        let cfg = SolverConfig {
            ra,
            order: 4,
            dt: 2e-3,
            ic_noise: 0.0,
            thermal_bc: ThermalBc::BottomFluxTopIsothermal { q: alpha },
            ..Default::default()
        };
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let mut sim = Simulation::new(cfg, &mesh, &part, my, &comm);
        sim.init_rbc();
        // Initial profile: −0.5 + (1 − z), i.e. T(0) = 0.5, T(1) = −0.5.
        let t0_max = sim.state.t.iter().cloned().fold(f64::MIN, f64::max);
        assert!((t0_max - 0.5).abs() < 1e-12, "bottom T {t0_max}");
        for _ in 0..15 {
            let st = sim.step();
            assert!(st.converged, "{st:?}");
        }
        let obs = Observables::new(&sim.geom, &mesh, &sim.my_elems);
        // Hot-plate Nusselt (−∂T/∂z at the plate) must remain 1 — the flux
        // condition imposes exactly the conduction gradient.
        let nu = obs.nusselt_wall(&sim.state.t, BoundaryTag::HotWall, &comm);
        assert!(
            (nu - 1.0).abs() < 1e-3,
            "imposed-flux gradient drifted: Nu {nu}"
        );
        let ke = obs.kinetic_energy([&sim.state.u[0], &sim.state.u[1], &sim.state.u[2]], &comm);
        assert!(ke < 1e-10, "spurious motion under flux BC: {ke:.3e}");
    }

    #[test]
    fn flux_bc_relaxes_to_imposed_gradient() {
        // Start from the WRONG profile (isothermal-style) under a doubled
        // flux; diffusion must steepen the plate gradient toward −q/α.
        let mesh = box_mesh(1, 1, 3, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let ra = 25.0f64; // strongly diffusive
        let alpha = 1.0 / ra.sqrt();
        let q = 2.0 * alpha; // target slope −2
        let cfg = SolverConfig {
            ra,
            order: 4,
            dt: 5e-3,
            ic_noise: 0.0,
            thermal_bc: ThermalBc::BottomFluxTopIsothermal { q },
            ..Default::default()
        };
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let mut sim = Simulation::new(cfg, &mesh, &part, my, &comm);
        sim.init_rbc();
        // Overwrite the initial condition with the slope −1 profile.
        for i in 0..sim.n_local() {
            let z = sim.geom.coords[2][i];
            sim.state.t[i] = 0.5 - z;
        }
        let g0 = Observables::new(&sim.geom, &mesh, &sim.my_elems).nusselt_wall(
            &sim.state.t,
            BoundaryTag::HotWall,
            &comm,
        );
        assert!((g0 - 1.0).abs() < 1e-10);
        for _ in 0..400 {
            assert!(sim.step().converged);
        }
        let g1 = Observables::new(&sim.geom, &mesh, &sim.my_elems).nusselt_wall(
            &sim.state.t,
            BoundaryTag::HotWall,
            &comm,
        );
        // −∂T/∂z at the plate approaches q/α = 2.
        assert!(
            (g1 - 2.0).abs() < 0.05,
            "plate gradient {g1} did not relax toward 2"
        );
    }
}

#[cfg(test)]
mod prandtl_tests {
    use super::*;
    use crate::observables::Observables;
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;

    #[test]
    fn water_like_prandtl_conduction_is_steady() {
        // Pr = 7 (water): distinct ν and α exercise the independent
        // Helmholtz coefficients; below onset the conduction state holds.
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let cfg = SolverConfig {
            ra: 300.0,
            pr: 7.0,
            order: 4,
            dt: 2e-3,
            ic_noise: 0.0,
            ..Default::default()
        };
        assert!((cfg.viscosity() / cfg.diffusivity() - 7.0).abs() < 1e-12);
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let mut sim = Simulation::new(cfg, &mesh, &part, my, &comm);
        sim.init_rbc();
        for _ in 0..10 {
            let st = sim.step();
            assert!(st.converged, "{st:?}");
        }
        let obs = Observables::new(&sim.geom, &mesh, &sim.my_elems);
        let nu = obs.nusselt_wall(&sim.state.t, BoundaryTag::HotWall, &comm);
        assert!((nu - 1.0).abs() < 1e-5, "Pr = 7 conduction Nu {nu}");
        let ke = obs.kinetic_energy([&sim.state.u[0], &sim.state.u[1], &sim.state.u[2]], &comm);
        assert!(ke < 1e-12, "Pr = 7 spurious motion {ke:.3e}");
    }

    #[test]
    fn low_prandtl_runs_stably() {
        // Pr = 0.1 (liquid-metal-like): advection-dominated temperature.
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let cfg = SolverConfig {
            ra: 5e3,
            pr: 0.1,
            order: 4,
            dt: 2e-3,
            ic_noise: 1e-2,
            ..Default::default()
        };
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let mut sim = Simulation::new(cfg, &mesh, &part, my, &comm);
        sim.init_rbc();
        for _ in 0..10 {
            let st = sim.step();
            assert!(st.converged, "{st:?}");
        }
        let tmax = sim.state.t.iter().cloned().fold(f64::MIN, f64::max);
        assert!(tmax.is_finite() && tmax < 0.7);
    }
}
