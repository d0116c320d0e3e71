//! The run loop: build, start, checkpoint, detect, roll back, retune,
//! resume — and, on more than one rank, shrink past a dead rank.
//!
//! Week-long DNS campaigns meet faults the solver cannot prevent: an
//! aggressive time step that finally trips nonlinear instability, a bad
//! node producing NaNs, a torn or bit-rotten checkpoint, a rank that dies
//! for good. The [`ResilientRunner`] owns the whole run.
//! [`ResilientRunner::run`] partitions the mesh over the live ranks,
//! builds the [`Simulation`], starts it fresh or from a restart file, and
//! drives one segment per partition; each segment
//! ([`ResilientRunner::run_with`]) wraps [`Simulation::try_step`] with a
//! recovery state machine:
//!
//! ```text
//!         ┌────────────── healthy step ──────────────┐
//!         ▼                                          │
//!   ┌──────────┐  every K steps   ┌────────────┐     │
//!   │ stepping ├─────────────────►│ checkpoint ├─────┘
//!   └────┬─────┘                  └────────────┘
//!        │ diverged (NaN / fatal solver breakdown)
//!        ▼
//!   ┌──────────┐ restore newest verified generation; on repeat failure
//!   │ rollback ├ at the same step, escalate to older generations;
//!   └────┬─────┘ dt ← max(dt·factor, dt_min)
//!        │ budget left? resume stepping : RecoveryExhausted
//!        ▼
//!   ┌──────────┐ only on a communication fault, with > 1 rank: vote
//!   │  shrink  ├ (rbx_comm::elastic), repartition onto the survivors,
//!   └──────────┘ restore the newest verified generation, next segment
//! ```
//!
//! Every transition is recorded as a [`RecoveryEvent`], so a post-mortem
//! can reconstruct exactly what the run did. Injected faults (via
//! [`FaultPlan`]) drive the same code paths as real ones. Because every
//! global reduction and gather-scatter combine folds in canonical
//! global-element order, the physics after a shrink is byte-identical to
//! a run launched at the surviving rank count.

use crate::checkpoint::{read_checkpoint, CheckpointError, CheckpointSet};
use crate::config::SolverConfig;
use crate::error::{SimError, StepFault};
use crate::faultinject::FaultPlan;
use crate::repartition::plan_repartition;
use crate::sim::{Simulation, StepStats};
use rbx_comm::elastic::{is_shrink_sentinel, shrink_vote, SHRINK_REASON};
use rbx_comm::{Communicator, SubsetComm};
use rbx_device::WorkerPool;
use rbx_mesh::HexMesh;
use rbx_telemetry::json::Value;
use rbx_telemetry::schema::TELEMETRY_SCHEMA;
use rbx_telemetry::Telemetry;
use std::fmt;
use std::path::{Path, PathBuf};

/// Tunables for the recovery loop.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Total rollbacks allowed before giving up.
    pub max_rollbacks: usize,
    /// Multiply dt by this after every rollback (< 1).
    pub dt_factor: f64,
    /// Never reduce dt below this.
    pub min_dt: f64,
    /// Write a checkpoint every this many completed steps.
    pub checkpoint_every: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_rollbacks: 5,
            dt_factor: 0.5,
            min_dt: 1e-10,
            checkpoint_every: 10,
        }
    }
}

/// One entry in the recovery loop's structured event log.
#[derive(Debug)]
pub enum RecoveryEvent {
    /// A checkpoint generation is durable (and pruned into rotation).
    CheckpointWritten {
        /// Step the checkpoint captures.
        istep: usize,
        /// Where it was written.
        path: PathBuf,
        /// Wall-clock seconds from the hand-off to the writer until the
        /// generation was durable (input to the checkpoint-latency-growth
        /// health detector).
        write_s: f64,
    },
    /// A checkpoint write failed; the run continued on older generations.
    CheckpointWriteFailed {
        /// Step whose checkpoint failed.
        istep: usize,
        /// Why.
        error: String,
    },
    /// A step completed but one or more solves missed tolerance.
    DegradedStep {
        /// The degraded step.
        istep: usize,
        /// First fault observed.
        fault: String,
    },
    /// A step produced an unusable state.
    Divergence {
        /// The diverged step.
        istep: usize,
        /// What went wrong.
        fault: String,
    },
    /// A checkpoint generation failed verification during restore.
    GenerationRejected {
        /// The rejected file.
        path: PathBuf,
        /// Why it was rejected.
        error: String,
    },
    /// A communication fault was healed: the runtime left the poisoned
    /// epoch collectively and all ranks agreed on a common restored step.
    CommRecovered {
        /// Step the run resumes from (after rank alignment).
        istep: usize,
        /// Kind token of the originating communication fault.
        kind: String,
        /// The fresh communication epoch.
        epoch: u64,
    },
    /// Permanent rank death survived: the remaining ranks agreed on a
    /// shrink epoch, repartitioned the dead ranks' elements, and resumed
    /// from the last verified checkpoint at the smaller width.
    Shrink {
        /// Rank count before the shrink.
        from_ranks: usize,
        /// Rank count after the shrink.
        to_ranks: usize,
        /// Global ranks declared dead, ascending.
        dead: Vec<usize>,
        /// Step the run resumes from.
        istep: usize,
    },
    /// State was rolled back and the time step reduced.
    RolledBack {
        /// Step the run had reached when it diverged.
        from_step: usize,
        /// Step of the restored checkpoint.
        to_step: usize,
        /// Generation restored.
        path: PathBuf,
        /// Time step after reduction.
        new_dt: f64,
        /// Generations deliberately skipped (escalation), beyond any that
        /// failed verification.
        skipped_generations: usize,
    },
}

impl RecoveryEvent {
    /// Machine token for the event kind — the `rbx.telemetry.v1` recovery
    /// vocabulary (`validate_recovery` rejects anything else).
    pub fn token(&self) -> &'static str {
        match self {
            RecoveryEvent::CheckpointWritten { .. } => "checkpoint_written",
            RecoveryEvent::CheckpointWriteFailed { .. } => "checkpoint_write_failed",
            RecoveryEvent::DegradedStep { .. } => "degraded_step",
            RecoveryEvent::Divergence { .. } => "divergence",
            RecoveryEvent::GenerationRejected { .. } => "generation_rejected",
            RecoveryEvent::CommRecovered { .. } => "comm_recovered",
            RecoveryEvent::Shrink { .. } => "shrink",
            RecoveryEvent::RolledBack { .. } => "rolled_back",
        }
    }

    /// The event as a `kind: "recovery"` telemetry record. `step` is the
    /// step the event is anchored to, when the variant has one.
    pub fn telemetry_record(&self) -> Value {
        let step = match self {
            RecoveryEvent::CheckpointWritten { istep, .. }
            | RecoveryEvent::CheckpointWriteFailed { istep, .. }
            | RecoveryEvent::DegradedStep { istep, .. }
            | RecoveryEvent::Divergence { istep, .. }
            | RecoveryEvent::CommRecovered { istep, .. }
            | RecoveryEvent::Shrink { istep, .. } => Some(*istep),
            RecoveryEvent::RolledBack { from_step, .. } => Some(*from_step),
            RecoveryEvent::GenerationRejected { .. } => None,
        };
        let mut fields = vec![
            ("schema", Value::str(TELEMETRY_SCHEMA)),
            ("kind", Value::str("recovery")),
            ("event", Value::str(self.token())),
            ("detail", Value::str(self.to_string())),
        ];
        if let Some(s) = step {
            fields.push(("step", Value::int(s as u64)));
        }
        if let RecoveryEvent::CheckpointWritten { write_s, .. } = self {
            fields.push(("write_s", Value::num(*write_s)));
        }
        Value::obj(fields)
    }
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryEvent::CheckpointWritten { istep, path, .. } => {
                write!(f, "step {istep}: checkpoint written to {}", path.display())
            }
            RecoveryEvent::CheckpointWriteFailed { istep, error } => {
                write!(f, "step {istep}: checkpoint write FAILED: {error}")
            }
            RecoveryEvent::DegradedStep { istep, fault } => {
                write!(f, "step {istep}: degraded ({fault})")
            }
            RecoveryEvent::Divergence { istep, fault } => {
                write!(f, "step {istep}: DIVERGED ({fault})")
            }
            RecoveryEvent::GenerationRejected { path, error } => {
                write!(f, "restore rejected {}: {error}", path.display())
            }
            RecoveryEvent::CommRecovered { istep, kind, epoch } => {
                write!(
                    f,
                    "comm fault ({kind}) healed: resuming from step {istep} in epoch {epoch}"
                )
            }
            RecoveryEvent::Shrink {
                from_ranks,
                to_ranks,
                dead,
                istep,
            } => {
                write!(
                    f,
                    "shrink {from_ranks} → {to_ranks} ranks (dead: {dead:?}); resuming from step {istep}"
                )
            }
            RecoveryEvent::RolledBack {
                from_step,
                to_step,
                path,
                new_dt,
                skipped_generations,
            } => {
                write!(
                    f,
                    "rolled back {from_step} → {to_step} from {} (dt → {new_dt:.3e}, {skipped_generations} generation(s) skipped)",
                    path.display()
                )
            }
        }
    }
}

/// Summary of a completed resilient run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Step counter at completion (== the requested target).
    pub steps_completed: usize,
    /// Rollbacks performed, over every partition of the run.
    pub rollbacks: usize,
    /// Shrinks survived (each one drops the dead ranks and repartitions).
    pub shrinks: usize,
    /// Rank count the run finished at.
    pub final_ranks: usize,
    /// dt at the end of the run.
    pub final_dt: f64,
    /// Full structured event log, in order, including
    /// [`RecoveryEvent::Shrink`] entries at each width change.
    pub events: Vec<RecoveryEvent>,
    /// Flight-recorder post-mortem files written during the run.
    pub flight_dumps: Vec<PathBuf>,
}

/// What the caller of [`ResilientRunner::run`] sees of the run. The solver
/// is built inside the run (and rebuilt after a shrink), so this is the
/// only view of it.
pub trait RunObserver {
    /// A solver was built and started: fresh, from the restart file, or —
    /// after a shrink — from the newest verified checkpoint on the new
    /// partition. Every live rank calls this once per partition.
    fn start(&mut self, sim: &Simulation<'_>) {
        let _ = sim;
    }
    /// A step completed with a usable state. After a rollback the
    /// replayed steps are seen again.
    fn step(&mut self, sim: &Simulation<'_>, stats: &StepStats);
    /// The run reached its target; `sim` holds the final state. Every
    /// surviving rank calls this, so it may run collectives on `sim.comm`.
    fn finish(&mut self, sim: &Simulation<'_>) {
        let _ = sim;
    }
}

/// A run that only wants its [`RunReport`].
impl RunObserver for () {
    fn step(&mut self, _: &Simulation<'_>, _: &StepStats) {}
}

/// Append an event to the run log, mirroring it to the simulation's
/// telemetry handle (a `kind: "recovery"` JSONL record plus an event-kind
/// counter) when one is attached and enabled.
fn log_event(sim: &Simulation<'_>, events: &mut Vec<RecoveryEvent>, ev: RecoveryEvent) {
    if sim.tel.is_enabled() {
        sim.tel.counter_add(
            &format!("rbx_recovery_events_total{{event=\"{}\"}}", ev.token()),
            1,
        );
        sim.tel.emit(&ev.telemetry_record());
    }
    events.push(ev);
}

/// Owns a run: builds the [`Simulation`] and drives it to a target step
/// with checkpointing, health monitoring, rollback-based recovery and —
/// on more than one rank — shrink-and-continue.
///
/// All ranks share one checkpoint directory (checkpoints are
/// topology-independent and written collectively), which is what makes
/// restoring onto fewer ranks possible at all.
pub struct ResilientRunner {
    /// Rotation set used for periodic checkpoints, rollback, the restart
    /// fallback and the restore after a shrink.
    pub checkpoints: CheckpointSet,
    /// Recovery tunables.
    pub policy: RecoveryPolicy,
    /// Fault schedule (defaults to none); drives the same code paths as
    /// real faults.
    pub faults: FaultPlan,
    /// Directory for flight-recorder post-mortem dumps (`None` disables
    /// dumping even when the telemetry handle carries a ring).
    pub flight_dir: Option<PathBuf>,
    /// Dump files written so far in this run — readable even when the run
    /// exits with an error (the exhausted-recovery dump is the interesting
    /// one).
    pub flight_dumps: Vec<PathBuf>,
}

impl ResilientRunner {
    /// A runner over `checkpoints` with the given policy and no injected
    /// faults.
    pub fn new(checkpoints: CheckpointSet, policy: RecoveryPolicy) -> Self {
        Self {
            checkpoints,
            policy,
            faults: FaultPlan::none(),
            flight_dir: None,
            flight_dumps: Vec::new(),
        }
    }

    /// Attach a deterministic fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Dump the telemetry flight ring into `dir` on every divergence, on
    /// recovery exhaustion and on a peer's shrink summons, so post-mortems
    /// carry the last K steps of context.
    pub fn with_flight_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight_dir = Some(dir.into());
        self
    }

    /// Write a flight-recorder dump for the current state, if a flight
    /// directory is configured and the telemetry ring holds anything.
    /// Dump failures are swallowed: post-mortem capture must never make a
    /// bad situation worse.
    fn dump_flight(&mut self, sim: &Simulation<'_>, reason: &str, istep: usize) {
        let dir = match &self.flight_dir {
            Some(d) => d,
            None => return,
        };
        if sim.tel.flight_len() == 0 {
            return;
        }
        let rank = sim.comm.rank();
        let path = dir.join(format!("flight_r{rank}_s{istep}_{reason}.jsonl"));
        if std::fs::create_dir_all(dir).is_ok()
            && sim
                .tel
                .dump_flight(&path, rank, sim.comm.size(), reason, istep as u64)
                .is_ok()
        {
            self.flight_dumps.push(path);
        }
    }

    /// Own a whole run on `comm`: partition `mesh` over the live ranks,
    /// build the solver with the caller's `pool` and `tel`, start it —
    /// fresh ([`Simulation::init_rbc`]) or from `restart`, which falls back
    /// to the newest verified generation of [`Self::checkpoints`] when the
    /// file is rejected — and step it `steps` steps with rollback.
    ///
    /// On more than one rank, a budget exhausted on a communication fault
    /// (or on a peer's shrink sentinel) runs the survivor vote
    /// ([`shrink_vote`]). Survivors repartition onto the smaller width,
    /// restore the newest verified generation of the shared,
    /// topology-independent checkpoint set, log a
    /// [`RecoveryEvent::Shrink`] and continue to the same target with a
    /// fresh rollback budget; a rank voted dead gets
    /// [`SimError::Evicted`]. A budget exhausted with a clean epoch is a
    /// numerical divergence that no shrink can fix, and returns at once.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        cfg: &SolverConfig,
        mesh: &HexMesh,
        comm: &dyn Communicator,
        pool: &WorkerPool,
        tel: &Telemetry,
        restart: Option<&Path>,
        steps: usize,
        obs: &mut dyn RunObserver,
    ) -> Result<RunReport, SimError> {
        let world = comm.size();
        assert!(
            world <= 64,
            "shrink protocol bitmask supports at most 64 ranks"
        );
        self.flight_dumps.clear();
        let mut report = RunReport::default();
        let mut live: Vec<usize> = (0..world).collect();
        let mut prev_part: Option<Vec<usize>> = None;
        let mut shrunk_from: Option<(usize, Vec<usize>)> = None;
        // Fixed by the first start: a shrink resumes toward the same step.
        let mut fixed_target: Option<usize> = None;
        loop {
            // The full world steps on the caller's communicator itself, with
            // its own collectives; only a shrunk one needs the renumbered
            // view over the survivors.
            let subset;
            let c: &dyn Communicator = if live.len() == world {
                comm
            } else {
                subset = SubsetComm::new(comm, live.clone()).expect("calling rank is live");
                &subset
            };
            let plan =
                plan_repartition(mesh, cfg.order, live.len(), prev_part.as_deref(), Some(tel))?;
            let mut sim = {
                let _span = tel.span_abs("repartition/rebuild");
                Simulation::new(
                    cfg.clone(),
                    mesh,
                    &plan.part,
                    plan.elems[c.rank()].clone(),
                    c,
                )
            };
            sim.set_pool(pool);
            sim.set_telemetry(tel);
            let target = match fixed_target {
                None => {
                    if let Some(path) = restart {
                        // Topology-independent restore: the file may have
                        // been written at any rank count. A rejected file
                        // (truncated, bit-flipped, stale metadata) falls
                        // back to the newest verified generation instead
                        // of aborting the campaign; every rank reads the
                        // same files and so reaches the same decision.
                        if let Err(e) = read_checkpoint(&mut sim, path) {
                            let ev = RecoveryEvent::GenerationRejected {
                                path: path.to_path_buf(),
                                error: e.to_string(),
                            };
                            log_event(&sim, &mut report.events, ev);
                            // Without a generation to fall back to, the
                            // restart file's own rejection is the cause.
                            let newest =
                                self.restore_newest(&mut sim, &mut report.events, Some(path));
                            if newest.is_err() {
                                return Err(SimError::Checkpoint(e));
                            }
                        }
                    } else {
                        sim.init_rbc();
                    }
                    *fixed_target.insert(sim.state.istep + steps)
                }
                Some(t) => {
                    {
                        let _span = tel.span_abs("repartition/restore");
                        self.restore_newest(&mut sim, &mut report.events, None)?;
                    }
                    if let Some((from_ranks, dead)) = shrunk_from.take() {
                        tel.counter_add("rbx_recovery_shrink_total", 1);
                        let ev = RecoveryEvent::Shrink {
                            from_ranks,
                            to_ranks: live.len(),
                            dead,
                            istep: sim.state.istep,
                        };
                        log_event(&sim, &mut report.events, ev);
                    }
                    t
                }
            };
            obs.start(&sim);
            match self.segment(&mut sim, target, &mut report, |s, st| obs.step(s, st)) {
                Ok(()) => {
                    obs.finish(&sim);
                    return Ok(report);
                }
                // A permanently dead rank re-fails every retry, so the
                // budget runs out on a communication fault (or on a peer's
                // sentinel): vote, and shrink past the dead.
                Err(SimError::RecoveryExhausted { retries, last })
                    if live.len() > 1 && comm.poisoned().is_some() =>
                {
                    let exhausted = || SimError::RecoveryExhausted {
                        retries,
                        last: last.clone(),
                    };
                    let survivors =
                        shrink_vote(comm, &live, report.shrinks).ok_or_else(exhausted)?;
                    if !survivors.contains(&comm.rank()) {
                        return Err(SimError::Evicted {
                            istep: sim.state.istep,
                            survivors: survivors.len(),
                        });
                    }
                    if survivors.len() == live.len() {
                        // Nobody is dead: shrinking cannot fix this.
                        return Err(exhausted());
                    }
                    let dead = live
                        .iter()
                        .copied()
                        .filter(|r| !survivors.contains(r))
                        .collect();
                    report.shrinks += 1;
                    shrunk_from = Some((live.len(), dead));
                    prev_part = Some(plan.part);
                    live = survivors;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Advance a caller-built `sim` to `target_step` — one segment of
    /// [`ResilientRunner::run`] on a fixed partition — recovering from
    /// divergence by rolling back to the newest verified checkpoint and
    /// reducing dt. `on_step` sees only steps that completed with a usable
    /// state.
    pub fn run_with(
        &mut self,
        sim: &mut Simulation<'_>,
        target_step: usize,
        on_step: impl FnMut(&Simulation<'_>, &StepStats),
    ) -> Result<RunReport, SimError> {
        self.flight_dumps.clear();
        let mut report = RunReport::default();
        self.segment(sim, target_step, &mut report, on_step)?;
        Ok(report)
    }

    /// Restore the newest verified generation, logging every newer one it
    /// had to reject; `tried` (an already rejected file) is not read again.
    fn restore_newest(
        &mut self,
        sim: &mut Simulation<'_>,
        events: &mut Vec<RecoveryEvent>,
        tried: Option<&Path>,
    ) -> Result<(), SimError> {
        let _ = self.settle_checkpoint(sim, events);
        let outcome = self
            .checkpoints
            .restore_latest_except(sim, tried)
            .map_err(SimError::Checkpoint)?;
        for (path, error) in outcome.rejected {
            let error = error.to_string();
            log_event(
                sim,
                events,
                RecoveryEvent::GenerationRejected { path, error },
            );
        }
        Ok(())
    }

    /// The step loop of one partition. Appends to `report`; the rollback
    /// budget is this segment's own. Returns only after the last
    /// checkpoint generation has settled and been logged.
    fn segment(
        &mut self,
        sim: &mut Simulation<'_>,
        target_step: usize,
        report: &mut RunReport,
        on_step: impl FnMut(&Simulation<'_>, &StepStats),
    ) -> Result<(), SimError> {
        let result = self.step_loop(sim, target_step, report, on_step);
        // A failure of the last generation degrades rotation depth like a
        // mid-run one: logged, not fatal.
        let _ = self.settle_checkpoint(sim, &mut report.events);
        result
    }

    fn step_loop(
        &mut self,
        sim: &mut Simulation<'_>,
        target_step: usize,
        report: &mut RunReport,
        mut on_step: impl FnMut(&Simulation<'_>, &StepStats),
    ) -> Result<(), SimError> {
        let events = &mut report.events;
        let mut rollbacks = 0usize;
        let mut skip_escalation = 0usize;
        let mut last_divergence_step: Option<usize> = None;

        // Anchor checkpoint, settled before the first step: the first
        // rollback needs a target even if the very first step diverges.
        // Failure here is fatal — a run that cannot write its anchor has
        // no recovery story at all.
        self.checkpoint_now(sim, events)?;
        self.settle_checkpoint(sim, events)?;
        while sim.state.istep < target_step {
            let next = sim.state.istep + 1;
            self.faults.before_step(sim, next);
            match sim.try_step() {
                Ok(stats) => {
                    if let Some(fault) = stats.verdict.fault() {
                        log_event(
                            sim,
                            events,
                            RecoveryEvent::DegradedStep {
                                istep: sim.state.istep,
                                fault: fault.to_string(),
                            },
                        );
                    }
                    on_step(sim, &stats);
                    // `checkpoint_every == 0` means anchor-only: recovery
                    // still works, it just always rolls back to the start.
                    let due = self.policy.checkpoint_every > 0
                        && (sim.state.istep.is_multiple_of(self.policy.checkpoint_every)
                            || sim.state.istep == target_step);
                    if due {
                        // Mid-run write failures degrade rotation depth but
                        // must not kill a healthy simulation.
                        let _ = self.checkpoint_now(sim, events);
                    }
                }
                Err(SimError::Diverged { istep, fault, .. }) => {
                    // A peer has installed the shrink sentinel: the
                    // shrink protocol owns the epoch from here. Exit
                    // immediately — recovering would tear the sentinel
                    // down mid-summons, and rolling back would burn
                    // budget on a fault that is not ours to heal.
                    if sim.comm.poisoned().is_some_and(|e| is_shrink_sentinel(&e)) {
                        self.dump_flight(sim, "shrink", istep);
                        return Err(SimError::RecoveryExhausted {
                            retries: rollbacks,
                            last: SHRINK_REASON.to_string(),
                        });
                    }
                    log_event(
                        sim,
                        events,
                        RecoveryEvent::Divergence {
                            istep,
                            fault: fault.to_string(),
                        },
                    );
                    self.dump_flight(sim, "divergence", istep);
                    if rollbacks >= self.policy.max_rollbacks {
                        self.dump_flight(sim, "recovery_exhausted", istep);
                        return Err(SimError::RecoveryExhausted {
                            retries: rollbacks,
                            last: fault.to_string(),
                        });
                    }
                    let comm_fault = matches!(fault, StepFault::Comm { .. });
                    if comm_fault {
                        // Leave the poisoned epoch collectively before
                        // touching state: every rank's step fails once the
                        // epoch is poisoned, so every rank reaches this
                        // rendezvous.
                        sim.comm.recover_epoch();
                    }
                    // Re-diverging at the same step after a rollback means
                    // the newest generation (or the dt reduction) is not
                    // enough — escalate to older generations.
                    if last_divergence_step == Some(istep) {
                        skip_escalation += 1;
                    } else {
                        skip_escalation = 0;
                        last_divergence_step = Some(istep);
                    }
                    let from_step = istep;
                    // The generation in flight lands (and is logged) before
                    // the restore reads the set.
                    let _ = self.settle_checkpoint(sim, events);
                    let outcome = match self.checkpoints.restore_skipping(sim, skip_escalation) {
                        Ok(o) => o,
                        Err(e) => {
                            return Err(SimError::RecoveryExhausted {
                                retries: rollbacks,
                                last: e.to_string(),
                            })
                        }
                    };
                    for (path, error) in &outcome.rejected {
                        log_event(
                            sim,
                            events,
                            RecoveryEvent::GenerationRejected {
                                path: path.clone(),
                                error: error.to_string(),
                            },
                        );
                    }
                    // A comm fault is transient — the physics was fine.
                    // Keep dt unchanged so the replayed trajectory is
                    // bit-identical to a fault-free run; reduce it only for
                    // genuine numerical divergence.
                    let new_dt = if comm_fault {
                        sim.cfg.dt
                    } else {
                        (sim.cfg.dt * self.policy.dt_factor).max(self.policy.min_dt)
                    };
                    sim.set_dt(new_dt);
                    if comm_fault {
                        self.align_restored_step(sim, skip_escalation, rollbacks)?;
                        log_event(
                            sim,
                            events,
                            RecoveryEvent::CommRecovered {
                                istep: sim.state.istep,
                                kind: match fault {
                                    StepFault::Comm { kind } => kind.token().to_string(),
                                    _ => unreachable!(),
                                },
                                epoch: sim.comm.epoch(),
                            },
                        );
                    }
                    rollbacks += 1;
                    report.rollbacks += 1;
                    log_event(
                        sim,
                        events,
                        RecoveryEvent::RolledBack {
                            from_step,
                            to_step: sim.state.istep,
                            path: outcome.path,
                            new_dt,
                            skipped_generations: skip_escalation,
                        },
                    );
                }
                Err(other) => return Err(other),
            }
        }

        report.steps_completed = sim.state.istep;
        report.final_ranks = sim.comm.size();
        report.final_dt = sim.cfg.dt;
        report.flight_dumps = self.flight_dumps.clone();
        Ok(())
    }

    /// Distributed rollback alignment after a communication fault.
    ///
    /// With ragged step tails, one rank can have checkpointed step N
    /// before noticing the poisoned epoch while a peer only holds N−K:
    /// resuming from different steps would desynchronize every collective.
    /// All ranks agree on min/max of their restored steps; ranks above the
    /// minimum restore progressively older generations until everyone
    /// matches. Every rank runs the same number of rounds (the break is a
    /// *global* condition), so the collectives inside the loop stay
    /// matched.
    fn align_restored_step(
        &mut self,
        sim: &mut Simulation<'_>,
        base_skip: usize,
        rollbacks: usize,
    ) -> Result<(), SimError> {
        if sim.comm.size() <= 1 {
            return Ok(());
        }
        let mut extra = base_skip;
        // Generous bound: one round per checkpoint generation plus slack
        // for re-poisoned alignment rounds.
        const MAX_ROUNDS: usize = 16;
        for _ in 0..MAX_ROUNDS {
            let mut v = [sim.state.istep as f64, -(sim.state.istep as f64)];
            sim.comm.allreduce_min(&mut v);
            if sim.comm.take_fault().is_some() || !v[0].is_finite() || !v[1].is_finite() {
                // The shrink sentinel takes precedence over healing: once
                // a peer has summoned the survivor vote, recovering here
                // would tear the sentinel down (or block in a rendezvous
                // the voting peer will never join). Hand control to the
                // shrink protocol instead.
                if sim.comm.poisoned().is_some_and(|e| is_shrink_sentinel(&e)) {
                    return Err(SimError::RecoveryExhausted {
                        retries: rollbacks,
                        last: SHRINK_REASON.to_string(),
                    });
                }
                // The alignment collective itself hit a fault (chaos can
                // strike here too): heal the epoch and retry the round.
                sim.comm.recover_epoch();
                continue;
            }
            let lo = v[0];
            let hi = -v[1];
            if lo == hi {
                return Ok(());
            }
            if (sim.state.istep as f64) > lo {
                extra += 1;
                if let Err(e) = self.checkpoints.restore_skipping(sim, extra) {
                    return Err(SimError::RecoveryExhausted {
                        retries: rollbacks,
                        last: e.to_string(),
                    });
                }
            }
        }
        Err(SimError::RecoveryExhausted {
            retries: rollbacks,
            last: "rank step alignment did not converge".into(),
        })
    }

    /// Hand a checkpoint generation to the set now, honoring any armed
    /// write-fault. The previous generation is settled and logged first,
    /// so a failure this returns is this generation's own; its success is
    /// logged when it settles.
    fn checkpoint_now(
        &mut self,
        sim: &Simulation<'_>,
        events: &mut Vec<RecoveryEvent>,
    ) -> Result<(), CheckpointError> {
        let _ = self.settle_checkpoint(sim, events);
        let istep = sim.state.istep;
        let result = match self.faults.take_write_failure(istep) {
            Some(source) => Err(CheckpointError::Io {
                path: self.checkpoints.path_for_step(istep),
                source,
            }),
            None => self.checkpoints.write(sim).map(|_| ()),
        };
        if let Err(e) = &result {
            log_write_failed(sim, events, istep, e);
        }
        result
    }

    /// Wait for the generation in flight and log how it ended:
    /// `checkpoint_written` once it is durable — after the fault plan's
    /// corrupt-after-write hook has had its chance at the file — or
    /// `checkpoint_write_failed`.
    fn settle_checkpoint(
        &mut self,
        sim: &Simulation<'_>,
        events: &mut Vec<RecoveryEvent>,
    ) -> Result<(), CheckpointError> {
        match self.checkpoints.settle() {
            Ok(None) => Ok(()),
            Ok(Some(g)) => {
                sim.tel
                    .histogram_observe("rbx_checkpoint_write_seconds", g.write_s);
                self.faults.after_checkpoint_write(g.istep, &g.path);
                let ev = RecoveryEvent::CheckpointWritten {
                    istep: g.istep,
                    path: g.path,
                    write_s: g.write_s,
                };
                log_event(sim, events, ev);
                Ok(())
            }
            Err(e) => {
                let istep = match &e {
                    CheckpointError::WriteFailed { istep, .. } => *istep,
                    _ => sim.state.istep,
                };
                log_write_failed(sim, events, istep, &e);
                Err(e)
            }
        }
    }
}

/// Log a failed checkpoint generation.
fn log_write_failed(
    sim: &Simulation<'_>,
    events: &mut Vec<RecoveryEvent>,
    istep: usize,
    e: &CheckpointError,
) {
    let ev = RecoveryEvent::CheckpointWriteFailed {
        istep,
        error: e.to_string(),
    };
    log_event(sim, events, ev);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;
    use std::path::Path;

    fn cfg() -> SolverConfig {
        SolverConfig {
            ra: 1e4,
            order: 3,
            dt: 2e-3,
            ic_noise: 1e-2,
            ..Default::default()
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rbx_recovery_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sim_in<'a>(
        mesh: &'a rbx_mesh::HexMesh,
        part: &'a [usize],
        comm: &'a SingleComm,
    ) -> Simulation<'a> {
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let mut sim = Simulation::new(cfg(), mesh, part, my, comm);
        sim.init_rbc();
        sim
    }

    fn policy(every: usize, max_rollbacks: usize) -> RecoveryPolicy {
        RecoveryPolicy {
            checkpoint_every: every,
            max_rollbacks,
            ..Default::default()
        }
    }

    #[test]
    fn fault_free_run_reaches_target_without_rollbacks() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let mut sim = sim_in(&mesh, &part, &comm);
        let dir = tmpdir("clean");
        let mut runner = ResilientRunner::new(CheckpointSet::new(&dir, 3), policy(2, 3));
        let mut observed = 0usize;
        let report = runner.run_with(&mut sim, 6, |_, stats| {
            assert!(stats.converged);
            observed += 1;
        });
        let report = report.unwrap();
        assert_eq!(report.steps_completed, 6);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(observed, 6);
        // Anchor + steps 2, 4, 6.
        let written = report
            .events
            .iter()
            .filter(|e| matches!(e, RecoveryEvent::CheckpointWritten { .. }))
            .count();
        assert_eq!(written, 4, "{:#?}", report.events);
        assert!(!runner.checkpoints.generations().is_empty());
    }

    #[test]
    fn recovers_from_injected_nan_with_rollback_and_dt_reduction() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let mut sim = sim_in(&mesh, &part, &comm);
        let dt0 = sim.cfg.dt;
        let dir = tmpdir("nan");
        let mut runner = ResilientRunner::new(CheckpointSet::new(&dir, 3), policy(2, 3))
            .with_faults(FaultPlan::new(11).inject_nan_at(5));
        let report = runner.run_with(&mut sim, 8, |_, _| {}).unwrap();
        assert_eq!(report.steps_completed, 8);
        assert_eq!(report.rollbacks, 1);
        assert!((report.final_dt - dt0 * 0.5).abs() < 1e-18, "dt not halved");
        assert_eq!(
            sim.find_non_finite(),
            None,
            "state must be clean after recovery"
        );
        // The log tells the whole story: divergence at 5, rollback to 4.
        assert!(
            report
                .events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::Divergence { istep: 5, .. })),
            "{:#?}",
            report.events
        );
        assert!(
            report.events.iter().any(|e| matches!(
                e,
                RecoveryEvent::RolledBack {
                    from_step: 5,
                    to_step: 4,
                    ..
                }
            )),
            "{:#?}",
            report.events
        );
        assert_eq!(runner.faults.pending(), 0);
    }

    #[test]
    fn corrupted_newest_generation_is_skipped_during_rollback() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let mut sim = sim_in(&mesh, &part, &comm);
        let dir = tmpdir("corrupt");
        // Checkpoint at 2 and 4; the one at 4 gets a bit flip on disk; NaN
        // at 5 forces a rollback that must reject generation 4 and land on
        // generation 2.
        let mut runner = ResilientRunner::new(CheckpointSet::new(&dir, 3), policy(2, 3))
            .with_faults(FaultPlan::new(23).corrupt_checkpoint_at(4).inject_nan_at(5));
        let report = runner.run_with(&mut sim, 8, |_, _| {}).unwrap();
        assert_eq!(report.steps_completed, 8);
        assert_eq!(report.rollbacks, 1);
        assert!(
            report.events.iter().any(|e| matches!(
                e,
                RecoveryEvent::GenerationRejected { path, .. }
                    if path.to_string_lossy().contains("chk_0000000004")
            )),
            "{:#?}",
            report.events
        );
        assert!(
            report.events.iter().any(|e| matches!(
                e,
                RecoveryEvent::RolledBack {
                    from_step: 5,
                    to_step: 2,
                    ..
                }
            )),
            "{:#?}",
            report.events
        );
    }

    #[test]
    fn checkpoint_write_failure_mid_run_is_tolerated() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let mut sim = sim_in(&mesh, &part, &comm);
        let dir = tmpdir("wfail");
        let mut runner = ResilientRunner::new(CheckpointSet::new(&dir, 3), policy(2, 3))
            .with_faults(FaultPlan::new(3).fail_write_at(4));
        let report = runner.run_with(&mut sim, 6, |_, _| {}).unwrap();
        assert_eq!(report.steps_completed, 6);
        assert!(
            report
                .events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::CheckpointWriteFailed { istep: 4, .. })),
            "{:#?}",
            report.events
        );
        // The generation at step 4 must simply be absent from rotation.
        assert!(!Path::new(&dir).join("chk_0000000004.bpl").exists());
    }

    #[test]
    fn run_with_leaves_its_final_generation_durable() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let mut sim = sim_in(&mesh, &part, &comm);
        let dir = tmpdir("final_durable");
        let mut runner = ResilientRunner::new(CheckpointSet::new(&dir, 3), policy(2, 3));
        let report = runner.run_with(&mut sim, 5, |_, _| {}).unwrap();
        let last = report.events.iter().rev().find_map(|e| match e {
            RecoveryEvent::CheckpointWritten { istep, path, .. } => Some((*istep, path.clone())),
            _ => None,
        });
        let (istep, path) = last.expect("a checkpoint_written event");
        assert_eq!(istep, 5);
        // Durable without any further call on the set.
        let mut fresh = sim_in(&mesh, &part, &comm);
        read_checkpoint(&mut fresh, &path).unwrap();
        assert_eq!(fresh.state.istep, 5);
        assert!(runner.checkpoints.settle().unwrap().is_none());
    }

    #[test]
    fn unwritable_checkpoint_directory_is_one_failed_event() {
        use rbx_telemetry::Telemetry;
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let mut sim = sim_in(&mesh, &part, &comm);
        let tel = Telemetry::enabled();
        sim.set_telemetry(&tel);
        let blocker = tmpdir("unwritable").join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let set = CheckpointSet::new(blocker.join("chk"), 3);
        let mut runner = ResilientRunner::new(set, policy(2, 3));
        // The anchor cannot land, which is fatal.
        let err = runner.run_with(&mut sim, 4, |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("step 0"), "{err}");
        assert_eq!(
            tel.metrics()
                .counter("rbx_recovery_events_total{event=\"checkpoint_write_failed\"}"),
            1
        );
        assert_eq!(sim.state.istep, 0, "no step before the anchor settled");
    }

    #[test]
    fn recovery_events_flow_to_telemetry_schema_valid() {
        use rbx_telemetry::schema::validate_line;
        use rbx_telemetry::Telemetry;

        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let mut sim = sim_in(&mesh, &part, &comm);
        let tel = Telemetry::enabled();
        let jsonl = std::env::temp_dir().join(format!(
            "rbx-recovery-telemetry-{}.jsonl",
            std::process::id()
        ));
        tel.open_jsonl(&jsonl).unwrap();
        sim.set_telemetry(&tel);
        let dir = tmpdir("telemetry");
        let mut runner = ResilientRunner::new(CheckpointSet::new(&dir, 3), policy(2, 3))
            .with_faults(FaultPlan::new(11).inject_nan_at(5));
        let report = runner.run_with(&mut sim, 8, |_, _| {}).unwrap();
        assert_eq!(report.rollbacks, 1);
        tel.flush();

        let text = std::fs::read_to_string(&jsonl).unwrap();
        let mut kinds = std::collections::HashSet::new();
        let mut events = Vec::new();
        for line in text.lines() {
            validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let v = rbx_telemetry::json::Value::parse(line).unwrap();
            let kind = v.get("kind").unwrap().as_str().unwrap().to_string();
            if kind == "recovery" {
                events.push(v.get("event").unwrap().as_str().unwrap().to_string());
            }
            kinds.insert(kind);
        }
        // Step, solve and recovery records interleave in one stream.
        assert!(kinds.contains("step") && kinds.contains("solve") && kinds.contains("recovery"));
        // The whole recovery story made it to the sink, in order.
        assert!(
            events.contains(&"checkpoint_written".to_string()),
            "{events:?}"
        );
        assert!(events.contains(&"divergence".to_string()), "{events:?}");
        assert!(events.contains(&"rolled_back".to_string()), "{events:?}");
        let div = events.iter().position(|e| e == "divergence").unwrap();
        let rb = events.iter().position(|e| e == "rolled_back").unwrap();
        assert!(div < rb, "divergence must precede rollback: {events:?}");
        // And the counters agree with the in-memory log.
        assert_eq!(
            tel.metrics()
                .counter("rbx_recovery_events_total{event=\"rolled_back\"}"),
            1
        );
        std::fs::remove_file(&jsonl).ok();
    }

    #[test]
    fn every_event_variant_serializes_to_a_valid_record() {
        use rbx_telemetry::schema::validate_record;

        let all = [
            RecoveryEvent::CheckpointWritten {
                istep: 4,
                path: PathBuf::from("/tmp/chk_4.bpl"),
                write_s: 0.012,
            },
            RecoveryEvent::CheckpointWriteFailed {
                istep: 6,
                error: "disk full".into(),
            },
            RecoveryEvent::DegradedStep {
                istep: 7,
                fault: "pressure stagnated".into(),
            },
            RecoveryEvent::Divergence {
                istep: 8,
                fault: "NaN in u[0]".into(),
            },
            RecoveryEvent::GenerationRejected {
                path: PathBuf::from("/tmp/chk_4.bpl"),
                error: "checksum mismatch".into(),
            },
            RecoveryEvent::RolledBack {
                from_step: 8,
                to_step: 4,
                path: PathBuf::from("/tmp/chk_4.bpl"),
                new_dt: 1e-3,
                skipped_generations: 0,
            },
        ];
        for ev in &all {
            let rec = ev.telemetry_record();
            validate_record(&rec).unwrap_or_else(|e| panic!("{e}: {rec}"));
            assert_eq!(rec.get("event").unwrap().as_str().unwrap(), ev.token());
        }
    }

    #[test]
    fn persistent_divergence_exhausts_the_budget() {
        let mesh = box_mesh(1, 1, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let mut sim = sim_in(&mesh, &part, &comm);
        let dir = tmpdir("exhaust");
        // A fresh fault on every step the run can reach: no amount of
        // rolling back helps, so the budget (2) must run out.
        let mut runner = ResilientRunner::new(CheckpointSet::new(&dir, 3), policy(100, 2))
            .with_faults(
                FaultPlan::new(5)
                    .inject_nan_at(3)
                    .inject_nan_at(4)
                    .inject_nan_at(5)
                    .inject_nan_at(6),
            );
        let err = runner.run_with(&mut sim, 20, |_, _| {}).unwrap_err();
        match err {
            SimError::RecoveryExhausted { retries, .. } => assert_eq!(retries, 2),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn two_rank_divergence_exhausts_without_a_survivor_vote() {
        use rbx_comm::{run_on_ranks, CommTuning};
        use rbx_device::WorkerPool;
        use rbx_telemetry::Telemetry;
        use std::time::Instant;

        let mesh = box_mesh(2, 1, 2, [0., 2.], [0., 1.], [0., 1.], false, false);
        let dir = tmpdir("two_rank_exhaust");
        let started = Instant::now();
        let out = run_on_ranks(2, |comm| {
            // A fresh NaN on every step either rank can reach: numerical
            // divergence on both ranks, with a clean comm epoch throughout.
            let faults = (1..=6).fold(FaultPlan::new(5), |f, s| f.inject_nan_at(s));
            let mut runner = ResilientRunner::new(CheckpointSet::new(&dir, 3), policy(100, 2))
                .with_faults(faults);
            let pool = WorkerPool::new(1);
            let tel = Telemetry::disabled();
            runner.run(&cfg(), &mesh, &comm, &pool, &tel, None, 20, &mut ())
        });
        let elapsed = started.elapsed();
        for (rank, r) in out.into_iter().enumerate() {
            match r {
                Err(SimError::RecoveryExhausted { retries, .. }) => assert_eq!(retries, 2),
                other => panic!("rank {rank}: expected RecoveryExhausted, got {other:?}"),
            }
        }
        // The vote's presence window alone is 20 receive timeouts (100 s at
        // the default); a run that entered it could not finish this soon.
        let window = CommTuning::default().recv_timeout * 20;
        assert!(
            elapsed < window / 4,
            "numerical divergence waited {elapsed:?} (vote window {window:?})"
        );
    }
}
