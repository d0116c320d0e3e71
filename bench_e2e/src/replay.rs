//! Developed-state replay: repeated set-ups, timed windows, the traced
//! run and the isolated layer calls, as executed on every rank.
//!
//! A window rewinds the simulation to the restored developed state and
//! runs `CaseSpec::window` steps. Every window therefore does bit-identical
//! work — the same pressure iterations step by step — so window-to-window
//! differences are host noise, which the medians taken in `report` filter.

use rbx::comm::{Communicator, Payload, SingleComm};
use rbx::compress::{compress_field, AsyncFieldCompressor, CompressionConfig};
use rbx::core::{
    read_checkpoint, CaseSetup, CheckpointSet, FlowState, Observables, Phase, Simulation,
    StepVerdict,
};
use rbx::device::WorkerPool;
use rbx::gs::GsOp;
use rbx::io::{AsyncBplWriter, StepData, Variable};
use rbx::la::{HelmholtzOp, SchwarzMode};
use rbx::mesh::BoundaryTag;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::comm::{CommCounts, CountingComm};
use crate::host::{HostDelta, HostSample};
use crate::report::STEP_TAIL_QUANTILE;
use crate::state::perturb;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{CaseSpec, Scale, Workload};

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed windows (per phase in a traced run).
    pub seconds: f64,
    /// Also make the traced run.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
    /// Cache and output directory.
    pub work_dir: PathBuf,
}

/// Fewest timed windows a phase runs, whatever `--seconds` says.
const MIN_WINDOWS: usize = 3;
/// Steps of the untimed warm-up before the timed windows: enough to fault
/// in every buffer and warm the caches.
const WARMUP_STEPS: usize = 10;
/// Most timed windows a phase runs.
const MAX_WINDOWS: usize = 400;
/// Fewest timed set-ups, and the least time they take together.
const MIN_SETUPS: usize = 9;
const MIN_SETUP_SECONDS: f64 = 1.0;
const MAX_SETUPS: usize = 200;
/// Checkpoint cadence and rotation of the workflow (`run_dns` flags
/// `--checkpoint-every 2 --checkpoint-keep 2`). Compressed snapshots take
/// the steps in between: with a snapshot every step, the double-buffered
/// encoder dropped about one in 5 000 on a 2-vCPU host whenever its thread
/// went unscheduled for one whole step.
const CHECKPOINT_EVERY: usize = 2;
const CHECKPOINT_KEEP: usize = 2;
/// Repetitions of each isolated layer call in the traced run.
const ISOLATED_REPS: usize = 30;
const ISOLATED_CHEAP_REPS: usize = 300;

/// Iterations of one step: pressure, velocity x/y/z, temperature.
pub type Iters = [usize; 5];

/// Observables at the end of a window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Observed {
    /// Volume-averaged Nusselt number.
    pub nu_volume: f64,
    /// Hot-plate Nusselt number.
    pub nu_wall: f64,
    /// Kinetic energy.
    pub ke: f64,
}

/// Worker-pool counter deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounts {
    /// Parallel regions dispatched.
    pub dispatches: u64,
    /// Chunks issued.
    pub chunks: u64,
    /// Loops kept on the caller by the grain gates.
    pub grained: u64,
}

/// One timed window, as seen from this rank.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Wall seconds, barrier to barrier.
    pub wall_s: f64,
    /// Wall seconds of each `Simulation::step` call (the sampling and
    /// output the workflow does after it are in `wall_s` only).
    pub step_s: Vec<f64>,
    /// Iterations of each step.
    pub iters: Vec<Iters>,
    /// Process CPU, run-queue wait and host steal over the window.
    pub host: HostDelta,
    /// Worker-pool activity over the steps.
    pub pool: PoolCounts,
    /// Communicator activity over the steps (traced run only).
    pub comm: CommCounts,
    /// Observables after the last step.
    pub end: Observed,
    /// Steps, snapshots and checkpoint writes attempted.
    pub attempted: u64,
    /// Degraded or diverged steps.
    pub degraded: u64,
    /// Snapshots the encoder refused.
    pub dropped: u64,
    /// Checkpoint writes that failed.
    pub write_errors: u64,
}

impl Window {
    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.degraded + self.dropped + self.write_errors
    }
}

/// What the traced run adds.
pub struct Traced {
    /// Timed windows, tracing on.
    pub windows: Vec<Window>,
    /// Milliseconds per step of each `PhaseTimers` phase, in `Phase::ALL`
    /// order.
    pub phase_ms: [f64; 4],
    /// Spans of the whole traced run, set-ups and isolated calls included.
    pub tracer: Tracer,
    /// What the isolated layer calls measured besides their spans.
    pub isolated: Isolated,
}

/// Counts and sizes from the isolated layer calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Isolated {
    /// Bytes sent per gather-scatter apply.
    pub gs_bytes_per_apply: f64,
    /// Compression ratio of the developed `uz`.
    pub compress_ratio: f64,
    /// Element-kernel flops of one Helmholtz apply, counted from sizes.
    pub helmholtz_flops: f64,
    /// Element-kernel bytes of one Helmholtz apply, counted from sizes.
    pub helmholtz_bytes: f64,
}

/// Everything one rank measured.
pub struct RankOutcome {
    /// Seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// Timed windows, tracing off.
    pub untraced: Vec<Window>,
    /// The traced run, when asked for.
    pub traced: Option<Traced>,
}

/// A simulation restored to the seeded developed state, with that state
/// kept for rewinding.
struct Rig<'a> {
    sim: Simulation<'a>,
    pool: WorkerPool,
    start: FlowState,
    basis: Vec<Vec<f64>>,
    images: Vec<Vec<f64>>,
}

impl<'a> Rig<'a> {
    /// Set up: `Simulation::new` (gather-scatter, Schwarz/FDM/coarse),
    /// the worker pool, and the restore of the developed state.
    fn new(
        opts: &Options,
        spec: &CaseSpec,
        case: &'a CaseSetup,
        comm: &'a dyn Communicator,
        chk: &Path,
        tr: &mut Tracer,
    ) -> Result<Self, String> {
        let mut sim = Simulation::new(
            spec.solver_config(),
            &case.mesh,
            &case.part,
            case.elems[comm.rank()].clone(),
            comm,
        );
        let pool = WorkerPool::new(opts.workload.threads());
        sim.set_pool(&pool);
        tr.span("checkpoint.read", |_| read_checkpoint(&mut sim, chk))
            .map_err(|e| format!("restore {}: {e}", chk.display()))?;
        perturb(&mut sim, opts.seed);
        let start = sim.state.clone();
        let (basis, images) = sim.projection_state();
        let (basis, images) = (basis.to_vec(), images.to_vec());
        Ok(Self {
            sim,
            pool,
            start,
            basis,
            images,
        })
    }

    /// Return to the developed state: fields, histories and the pressure
    /// projection space.
    fn rewind(&mut self) -> Result<(), String> {
        self.sim.state = self.start.clone();
        if self
            .sim
            .restore_projection(self.basis.clone(), self.images.clone())
        {
            Ok(())
        } else {
            Err("projection space does not fit on rewind".into())
        }
    }

    fn observe(&self) -> Observed {
        let sim = &self.sim;
        let obs = Observables::new(&sim.geom, sim.mesh, &sim.my_elems);
        let u = &sim.state.u;
        Observed {
            nu_volume: obs.nusselt_volume(&u[2], &sim.state.t, sim.cfg.ra, sim.cfg.pr, sim.comm),
            nu_wall: obs.nusselt_wall(&sim.state.t, BoundaryTag::HotWall, sim.comm),
            ke: obs.kinetic_energy([&u[0], &u[1], &u[2]], sim.comm),
        }
    }

    /// The per-step sample of `run_dns`: both Nusselt numbers, KE, CFL.
    fn sample(&self) -> [f64; 5] {
        let sim = &self.sim;
        let obs = Observables::new(&sim.geom, sim.mesh, &sim.my_elems);
        let (u, t, comm) = (&sim.state.u, &sim.state.t, sim.comm);
        [
            obs.nusselt_volume(&u[2], t, sim.cfg.ra, sim.cfg.pr, comm),
            obs.nusselt_wall(t, BoundaryTag::HotWall, comm),
            obs.nusselt_wall(t, BoundaryTag::ColdWall, comm),
            obs.kinetic_energy([&u[0], &u[1], &u[2]], comm),
            obs.cfl([&u[0], &u[1], &u[2]], sim.cfg.dt, comm),
        ]
    }
}

/// The workflow's outputs: async compressed snapshots into a field file,
/// and rotating durable checkpoints.
struct Outputs {
    encoder: AsyncFieldCompressor,
    fields: AsyncBplWriter,
    checkpoints: CheckpointSet,
}

impl Outputs {
    fn open(dir: &Path, sim: &Simulation<'_>) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join("fields.bpl");
        let fields = AsyncBplWriter::create(&path, 4)
            .map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self {
            encoder: AsyncFieldCompressor::new(
                &sim.geom,
                sim.cfg.order + 1,
                CompressionConfig::default(),
            ),
            fields,
            checkpoints: CheckpointSet::new(dir.join("checkpoints"), CHECKPOINT_KEEP),
        })
    }

    fn forward(fields: &AsyncBplWriter, done: rbx::compress::CompressedField) {
        let shape = vec![done.compressed.data.len() as u64];
        fields.put(StepData {
            step: done.step,
            time: done.time,
            vars: vec![Variable::bytes(
                "uz_compressed",
                shape,
                done.compressed.data,
            )],
        });
    }

    /// Sample after every step; then snapshot on odd steps and checkpoint
    /// on even ones.
    fn after_step(&mut self, rig: &Rig<'_>, tr: &mut Tracer, w: &mut Window) {
        let sim = &rig.sim;
        black_box(tr.span("observables.sample", |_| rig.sample()));
        while let Some(done) = self.encoder.poll() {
            Self::forward(&self.fields, done);
        }
        w.attempted += 1;
        if sim.state.istep % CHECKPOINT_EVERY == 1 {
            let step = sim.state.istep as u64;
            let accepted = tr.span("compress.submit", |_| {
                self.encoder
                    .try_submit(step, sim.state.time, "uz", &sim.state.u[2])
            });
            if !accepted {
                w.dropped += 1;
            }
        } else if tr
            .span("checkpoint.write", |_| self.checkpoints.write(sim))
            .is_err()
        {
            w.write_errors += 1;
        }
    }

    /// Drain the encoder into the field file and close it.
    fn close(self) -> Result<(), String> {
        let (tail, _) = self.encoder.finish();
        for done in tail {
            Self::forward(&self.fields, done);
        }
        self.fields
            .close()
            .map(|_| ())
            .map_err(|e| format!("close field file: {e}"))
    }
}

/// Run one window from the developed state. Every rank calls this; the
/// barriers on `sync` put the slowest rank inside the wall time.
fn window(
    rig: &mut Rig<'_>,
    mut out: Option<&mut Outputs>,
    tr: &mut Tracer,
    counting: Option<&CountingComm<'_>>,
    sync: &dyn Communicator,
    steps: usize,
) -> Result<Window, String> {
    rig.rewind()?;
    let mut w = Window::default();
    sync.barrier();
    let host0 = HostSample::now()?;
    let pool0 = rig.pool.stats();
    let comm0 = counting.map(CountingComm::counts).unwrap_or_default();
    let t0 = Instant::now();
    tr.span("window", |tr| {
        for _ in 0..steps {
            tr.span("step", |tr| {
                let ts = Instant::now();
                let st = tr.span("sim.step", |_| rig.sim.step());
                w.step_s.push(ts.elapsed().as_secs_f64());
                w.attempted += 1;
                if !st.converged || st.verdict != StepVerdict::Healthy {
                    w.degraded += 1;
                }
                w.iters.push([
                    st.p_iters,
                    st.v_iters[0],
                    st.v_iters[1],
                    st.v_iters[2],
                    st.t_iters,
                ]);
                if let Some(out) = out.as_deref_mut() {
                    out.after_step(rig, tr, &mut w);
                }
            });
        }
    });
    let pool1 = rig.pool.stats();
    let comm1 = counting.map(CountingComm::counts).unwrap_or_default();
    sync.barrier();
    w.wall_s = t0.elapsed().as_secs_f64();
    w.host = HostSample::now()?.since(&host0);
    w.pool = PoolCounts {
        dispatches: pool1.dispatches - pool0.dispatches,
        chunks: pool1.chunks - pool0.chunks,
        grained: pool1.grained - pool0.grained,
    };
    w.comm = comm1.since(&comm0);
    w.end = rig.observe();
    Ok(w)
}

/// Rank 0's decision, shared with every rank so all run the same windows.
fn agree(sync: &dyn Communicator, more: bool) -> bool {
    let mut p = Payload::U64(vec![u64::from(more)]);
    sync.bcast(0, &mut p);
    matches!(p, Payload::U64(v) if v.first() == Some(&1))
}

/// An untimed warm-up, then timed windows until `seconds` have
/// passed, at least [`MIN_WINDOWS`] ran, and the pooled step times can
/// carry the tail percentile.
fn replay(
    rig: &mut Rig<'_>,
    mut out: Option<&mut Outputs>,
    tr: &mut Tracer,
    counting: Option<&CountingComm<'_>>,
    sync: &dyn Communicator,
    spec: &CaseSpec,
    seconds: f64,
) -> Result<Vec<Window>, String> {
    let mut quiet = Tracer::new(false);
    let warmup = spec.window.min(WARMUP_STEPS);
    window(rig, out.as_deref_mut(), &mut quiet, None, sync, warmup)?;
    // Phase timers count from the first timed window on.
    rig.sim.timers.reset();
    let t0 = Instant::now();
    let mut windows: Vec<Window> = Vec::new();
    loop {
        windows.push(window(
            rig,
            out.as_deref_mut(),
            tr,
            counting,
            sync,
            spec.window,
        )?);
        let steps: Vec<f64> = windows.iter().flat_map(|w| w.step_s.clone()).collect();
        let more = windows.len() < MAX_WINDOWS
            && (windows.len() < MIN_WINDOWS
                || t0.elapsed() < Duration::from_secs_f64(seconds)
                || stats::percentile(&steps, STEP_TAIL_QUANTILE).is_none());
        if !agree(sync, more) {
            return Ok(windows);
        }
    }
}

/// Time repeated set-ups after one warm-up: build the case, set up the
/// simulation on every rank and restore the developed state.
fn setups(
    opts: &Options,
    spec: &CaseSpec,
    base: &dyn Communicator,
    chk: &Path,
    tr: &mut Tracer,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let t_all = Instant::now();
    for i in 0.. {
        base.barrier();
        let t0 = Instant::now();
        let case = spec.build(opts.workload.ranks());
        let rig = tr.span("setup", |tr| Rig::new(opts, spec, &case, base, chk, tr))?;
        base.barrier();
        let dt = t0.elapsed().as_secs_f64();
        black_box(&rig.sim.state);
        if i > 0 {
            times.push(dt);
        }
        let more = times.len() < MAX_SETUPS
            && (times.len() < MIN_SETUPS || t_all.elapsed().as_secs_f64() < MIN_SETUP_SECONDS);
        if !agree(base, more) {
            break;
        }
    }
    Ok(times)
}

/// Make `reps` calls of `f`, each in a span named `name`.
fn isolated<T>(tr: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) {
    for _ in 0..reps {
        black_box(tr.span(name, |_| f()));
    }
}

/// Layer calls timed in isolation on the developed fields the traced
/// windows left behind. Every rank makes the same calls (several are
/// collective).
fn isolated_calls(
    rig: &Rig<'_>,
    tr: &mut Tracer,
    counting: &CountingComm<'_>,
    workflow: bool,
    out_dir: &Path,
) -> Result<Isolated, String> {
    let sim = &rig.sim;
    let pool = &rig.pool;
    let comm = sim.comm;
    let u0 = sim.state.u[0].clone();
    let n = sim.n_local();
    let mut y = vec![0.0; n];

    // Velocity Helmholtz operator (BDF3 mass coefficient).
    let op = HelmholtzOp {
        geom: &sim.geom,
        gs: &sim.gs,
        mask: &sim.mask_v,
        h1: sim.cfg.viscosity(),
        h2: 11.0 / (6.0 * sim.cfg.dt),
    };
    isolated(tr, "helmholtz.apply_with", ISOLATED_REPS, || {
        op.apply_with(&u0, &mut y, pool, comm)
    });
    // Element kernel, counted from array sizes: three derivatives and
    // three transposed derivatives (2n^4 flops each), the metric combine
    // (15n^3), the sum of the three transposed terms (2n^3) and the h1/h2
    // mass update (3n^3); reads u, six metric arrays and the mass matrix,
    // writes y.
    let nx = sim.geom.nx1 as f64;
    let elems = sim.geom.nelv as f64;
    let helmholtz_flops = elems * (12.0 * nx.powi(4) + 20.0 * nx.powi(3));
    let helmholtz_bytes = elems * 8.0 * 9.0 * nx.powi(3);

    let r = sim.state.p.clone();
    isolated(tr, "schwarz.apply", ISOLATED_REPS, || {
        sim.schwarz.apply(&r, &mut y, SchwarzMode::Serial, comm)
    });
    isolated(tr, "schwarz.apply_overlapped", ISOLATED_REPS, || {
        sim.schwarz.apply(&r, &mut y, SchwarzMode::Overlapped, comm)
    });
    let u1 = &sim.state.u[1];
    isolated(tr, "ops.dot_with", ISOLATED_CHEAP_REPS, || {
        sim.dp.dot_with(&u0, u1, pool, comm)
    });

    let before = counting.counts();
    for _ in 0..ISOLATED_CHEAP_REPS {
        y.copy_from_slice(&u0);
        tr.span("gs.apply", |_| sim.gs.apply(&mut y, GsOp::Add, comm));
    }
    let gs_bytes_per_apply =
        counting.counts().since(&before).bytes as f64 / ISOLATED_CHEAP_REPS as f64;

    let basis = rbx::basis::ModalBasis::new(sim.cfg.order + 1);
    let cfg = CompressionConfig::default();
    let mut ratio = 0.0;
    isolated(tr, "compress.field", ISOLATED_REPS, || {
        let c = compress_field(&sim.state.u[2], &sim.geom, &basis, &cfg);
        ratio = c.ratio();
    });

    // The box workloads do not sample or checkpoint in their step loop;
    // time those layers here so every workload reports them.
    if !workflow {
        isolated(tr, "observables.sample", ISOLATED_REPS, || rig.sample());
        let set = CheckpointSet::new(out_dir.join("checkpoints"), CHECKPOINT_KEEP);
        for _ in 0..3 {
            tr.span("checkpoint.write", |_| set.write(sim))
                .map_err(|e| format!("checkpoint write: {e}"))?;
        }
    }
    Ok(Isolated {
        gs_bytes_per_apply,
        compress_ratio: ratio,
        helmholtz_flops,
        helmholtz_bytes,
    })
}

/// Set up on `comm`, replay, and close the workflow's outputs; returns
/// the rig for the isolated calls that follow a traced run.
#[allow(clippy::too_many_arguments)]
fn replay_phase<'a>(
    opts: &Options,
    spec: &CaseSpec,
    case: &'a CaseSetup,
    comm: &'a dyn Communicator,
    sync: &dyn Communicator,
    chk: &Path,
    tr: &mut Tracer,
    counting: Option<&CountingComm<'_>>,
) -> Result<(Rig<'a>, Vec<Window>), String> {
    let mut rig = Rig::new(opts, spec, case, comm, chk, tr)?;
    let out_dir = opts.work_dir.join("out").join(opts.workload.name());
    let mut out = match opts.workload.workflow() {
        true => Some(Outputs::open(&out_dir, &rig.sim)?),
        false => None,
    };
    let windows = replay(
        &mut rig,
        out.as_mut(),
        tr,
        counting,
        sync,
        spec,
        opts.seconds,
    )?;
    if let Some(out) = out {
        out.close()?;
    }
    Ok((rig, windows))
}

/// Everything one rank does in a run. `transport` is the rank's raw
/// communicator (`run_on_ranks`); a one-rank workload runs on a
/// `SingleComm` instead.
pub fn run_rank(
    opts: &Options,
    spec: &CaseSpec,
    chk: &Path,
    transport: &dyn Communicator,
) -> Result<RankOutcome, String> {
    let single = SingleComm::new();
    let base: &dyn Communicator = if transport.size() == 1 {
        &single
    } else {
        transport
    };
    let workflow = opts.workload.workflow();
    let mut tracer = Tracer::new(opts.trace);
    let setup_s = setups(opts, spec, base, chk, &mut tracer)?;

    let case = spec.build(opts.workload.ranks());
    let (_, untraced) = replay_phase(
        opts,
        spec,
        &case,
        base,
        base,
        chk,
        &mut Tracer::new(false),
        None,
    )?;

    let traced = if opts.trace {
        let counting = CountingComm::new(base);
        let (rig, windows) = replay_phase(
            opts,
            spec,
            &case,
            &counting,
            base,
            chk,
            &mut tracer,
            Some(&counting),
        )?;
        let timers = &rig.sim.timers;
        let nsteps = timers.steps().max(1) as f64;
        let phase_ms = Phase::ALL.map(|p| 1e3 * timers.seconds(p) / nsteps);
        let out_dir = opts.work_dir.join("out").join(opts.workload.name());
        let isolated = isolated_calls(&rig, &mut tracer, &counting, workflow, &out_dir)?;
        Some(Traced {
            windows,
            phase_ms,
            tracer,
            isolated,
        })
    } else {
        None
    };
    Ok(RankOutcome {
        setup_s,
        untraced,
        traced,
    })
}
