//! `run_dns` — the production-style DNS driver.
//!
//! A configurable Rayleigh-Bénard run with the full workflow of the paper:
//! time stepping, running statistics and z-profiles, periodic compressed
//! field output, checkpointing with rotation, and optional in-situ
//! streaming POD. The library's [`ResilientRunner`] owns the run: it
//! partitions the mesh, builds and starts (or restarts) each rank's
//! solver, and rolls a diverged step back to the last good checkpoint
//! with a reduced dt instead of aborting the campaign. This binary only
//! samples each step and reads the final state ([`RankObserver`]).
//!
//! ```sh
//! cargo run --release -p rbx-bench --bin run_dns -- \
//!     --case cylinder --gamma 1.0 --ra 1e5 --order 5 --dt 1.5e-3 \
//!     --steps 500 --sample-every 20 --checkpoint-every 200 --pod
//! ```
//!
//! A deterministic fault-injection demo (NaN mid-flight, recovered by
//! rollback + dt reduction; bit-flipped checkpoint rejected by checksum):
//!
//! ```sh
//! run_dns --steps 40 --checkpoint-every 5 \
//!     --inject-nan-at 17 --corrupt-checkpoint-at 15 --fault-seed 42
//! ```
//!
//! All flags are optional; defaults give a small box run. Outputs land in
//! `target/dns_run/` (override with `--out`).
//!
//! Every run is one per-rank body, [`run_rank`]: on a [`SingleComm`] for
//! a one-rank world, on each of N in-process ranks for `--ranks N`, each
//! solver rank stepping with `--threads` workers (default: cores / N).
//! Checkpoints are topology-independent, so a run checkpointed at one
//! rank count restarts at any other via `--restart`, with the partition
//! rebuilt by the restart repartitioner (a rejected restart file falls
//! back to the newest verified generation under `OUT/checkpoints/`):
//!
//! ```sh
//! run_dns --ranks 4 --steps 200 --checkpoint-every 100   # checkpoint at 4
//! run_dns --ranks 2 --steps 100 \
//!     --restart target/dns_run/checkpoints/chk_0000000200.bpl  # restart at 2
//! ```
//!
//! `--analysis-ranks K` dedicates K extra ranks to the asynchronous
//! in-situ analysis plane (DESIGN.md §16): solver ranks ship compressed
//! field slabs over a bounded best-effort channel and never block on
//! analysis — a full queue or a dead analysis rank degrades to
//! drop-with-counter (`rbx_insitu_dropped_total`), and the solver
//! trajectory stays byte-identical to an analysis-free run (without
//! analysis ranks, a lone solver rank writes snapshots to `fields.bpl`).
//! `--telemetry-jsonl FILE` is used verbatim in a one-rank world and as
//! `FILE.rank{r}.jsonl` per rank otherwise:
//!
//! ```sh
//! run_dns --ranks 4 --analysis-ranks 2 --steps 200 --sample-every 10 \
//!     --telemetry-jsonl target/dns_run/tel.jsonl
//! ```

use rbx::comm::{run_on_ranks, Communicator, SingleComm, SlabSender};
use rbx::compress::{
    AsyncCompressorStats, AsyncFieldCompressor, CompressedField, CompressionConfig,
};
use rbx::core::sim::StepStats;
use rbx::core::stats::{RunningMean, ZProfiles};
use rbx::core::{
    CaseSetup, CheckpointSet, FaultPlan, Observables, RecoveryEvent, RecoveryPolicy,
    ResilientRunner, RunObserver, RunReport, Simulation, SolverConfig,
};
use rbx::device::{PoolStats, WorkerPool};
use rbx::insitu::PodConsumer;
use rbx::io::{staging_channel, AsyncBplWriter, StagingWriter, StepData, Variable};
use rbx::mesh::BoundaryTag;
use rbx::obs::prom::PromServer;
use rbx::obs::{HealthConfig, HealthMonitor};
use rbx::telemetry::json::Value;
use rbx::telemetry::schema::TELEMETRY_SCHEMA;
use rbx::telemetry::Telemetry;
use std::path::PathBuf;

#[derive(Debug)]
struct Args {
    case: String,
    gamma: f64,
    ra: f64,
    order: usize,
    coarse_order: Option<usize>,
    dt: f64,
    steps: usize,
    ranks: usize,
    analysis_ranks: usize,
    threads: usize,
    resolution: usize,
    sample_every: usize,
    checkpoint_every: usize,
    checkpoint_keep: usize,
    max_rollbacks: usize,
    dt_factor: f64,
    fault_seed: u64,
    inject_nan_at: Vec<usize>,
    corrupt_checkpoint_at: Vec<usize>,
    fail_checkpoint_at: Vec<usize>,
    pod: bool,
    restart: Option<PathBuf>,
    out: PathBuf,
    telemetry_jsonl: Option<PathBuf>,
    telemetry_prom: Option<PathBuf>,
    trace_depth: Option<usize>,
    json_summary: Option<PathBuf>,
    prom_listen: Option<String>,
    health_jsonl: Option<PathBuf>,
    flight: usize,
}

/// Report a usage error on stderr and exit nonzero without a panic
/// backtrace — this is an operator mistake, not a program bug.
fn die(msg: &str) -> ! {
    eprintln!("run_dns: error: {msg}");
    std::process::exit(2);
}

/// The value following `flag`, parsed; names the flag and the offending
/// input on error.
fn value<T: std::str::FromStr>(flag: &str, it: &mut impl Iterator<Item = String>) -> T {
    let raw = it
        .next()
        .unwrap_or_else(|| die(&format!("missing value for {flag}")));
    raw.parse()
        .unwrap_or_else(|_| die(&format!("invalid value {raw:?} for {flag}")))
}

fn parse_args() -> Args {
    let mut args = Args {
        case: "box".into(),
        gamma: 2.0,
        ra: 1e5,
        order: 5,
        coarse_order: None,
        dt: 2e-3,
        steps: 300,
        ranks: 1,
        analysis_ranks: 0,
        threads: 0, // set below: --threads, or the cores shared among --ranks
        resolution: 3,
        sample_every: 20,
        checkpoint_every: 0,
        checkpoint_keep: 3,
        max_rollbacks: 5,
        dt_factor: 0.5,
        fault_seed: 0,
        inject_nan_at: Vec::new(),
        corrupt_checkpoint_at: Vec::new(),
        fail_checkpoint_at: Vec::new(),
        pod: false,
        restart: None,
        out: PathBuf::from("target/dns_run"),
        telemetry_jsonl: None,
        telemetry_prom: None,
        trace_depth: None,
        json_summary: None,
        prom_listen: None,
        health_jsonl: None,
        flight: 0,
    };
    let mut threads = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--case" => args.case = value(&flag, it),
            "--gamma" => args.gamma = value(&flag, it),
            "--ra" => args.ra = value(&flag, it),
            "--order" => args.order = value(&flag, it),
            "--coarse-order" => args.coarse_order = Some(value(&flag, it)),
            "--dt" => args.dt = value(&flag, it),
            "--steps" => args.steps = value(&flag, it),
            "--ranks" => args.ranks = value(&flag, it),
            "--analysis-ranks" => args.analysis_ranks = value(&flag, it),
            "--threads" => threads = Some(value(&flag, it)),
            "--resolution" => args.resolution = value(&flag, it),
            "--sample-every" => args.sample_every = value(&flag, it),
            "--checkpoint-every" => args.checkpoint_every = value(&flag, it),
            "--checkpoint-keep" => args.checkpoint_keep = value(&flag, it),
            "--max-rollbacks" => args.max_rollbacks = value(&flag, it),
            "--dt-factor" => args.dt_factor = value(&flag, it),
            "--fault-seed" => args.fault_seed = value(&flag, it),
            "--inject-nan-at" => args.inject_nan_at.push(value(&flag, it)),
            "--corrupt-checkpoint-at" => args.corrupt_checkpoint_at.push(value(&flag, it)),
            "--fail-checkpoint-at" => args.fail_checkpoint_at.push(value(&flag, it)),
            "--pod" => args.pod = true,
            "--restart" => args.restart = Some(value(&flag, it)),
            "--out" => args.out = value(&flag, it),
            "--telemetry-jsonl" => args.telemetry_jsonl = Some(value(&flag, it)),
            "--telemetry-prom" => args.telemetry_prom = Some(value(&flag, it)),
            "--trace-depth" => args.trace_depth = Some(value(&flag, it)),
            "--json-summary" => args.json_summary = Some(value(&flag, it)),
            "--prom-listen" => args.prom_listen = Some(value(&flag, it)),
            "--health-jsonl" => args.health_jsonl = Some(value(&flag, it)),
            "--flight" => args.flight = value(&flag, it),
            "--help" | "-h" => {
                println!(
                    "flags: --case box|cylinder --gamma G --ra RA --order P \
                     --coarse-order N --dt DT \
                     --steps N --ranks N --analysis-ranks K --threads N --resolution R \
                     --sample-every N --checkpoint-every N \
                     --checkpoint-keep K --max-rollbacks N --dt-factor F \
                     --fault-seed S --inject-nan-at STEP --corrupt-checkpoint-at STEP \
                     --fail-checkpoint-at STEP --pod --restart CHECKPOINT.bpl \
                     --out DIR \
                     --telemetry-jsonl FILE.jsonl --telemetry-prom FILE.prom \
                     --trace-depth N --json-summary FILE.json \
                     --prom-listen ADDR:PORT --health-jsonl FILE.jsonl --flight N"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other} (try --help)")),
        }
    }
    if !args.dt.is_finite() || args.dt <= 0.0 {
        die("--dt must be a positive finite number");
    }
    // The coarse level of the pressure preconditioner needs a degree of
    // at least 1, strictly below the fine order.
    if args.order < 2 {
        die("--order must be at least 2");
    }
    if let Some(c) = args.coarse_order {
        if c < 1 || c >= args.order {
            die(&format!(
                "--coarse-order must be in 1..{} (below --order {})",
                args.order, args.order
            ));
        }
    }
    if !(args.dt_factor > 0.0 && args.dt_factor < 1.0) {
        die("--dt-factor must be in (0, 1)");
    }
    if args.ranks == 0 || args.ranks > 64 {
        die("--ranks must be in 1..=64 (survivor masks are 64-bit)");
    }
    // Default: share the cores among the solver ranks.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    args.threads = threads.unwrap_or((cores / args.ranks).max(1));
    if args.threads == 0 {
        die("--threads must be at least 1");
    }
    if args.ranks + args.analysis_ranks > 64 {
        die("--ranks plus --analysis-ranks must not exceed 64");
    }
    if args.analysis_ranks > 0 && args.sample_every == 0 {
        die("--analysis-ranks needs --sample-every > 0 (slabs ship on sample steps)");
    }
    args
}

/// This rank's JSONL stream: the `--telemetry-jsonl` path verbatim in a
/// one-rank world, `tel.jsonl` → `tel.rank3.jsonl` otherwise. One stream
/// per rank is what `rbx-obs merge` expects.
fn jsonl_path(args: &Args, rank: usize) -> Option<PathBuf> {
    let base = args.telemetry_jsonl.as_ref()?;
    Some(if args.ranks + args.analysis_ranks == 1 {
        base.clone()
    } else {
        base.with_extension(format!("rank{rank}.jsonl"))
    })
}

/// This rank's telemetry handle: off (a single relaxed atomic load per
/// hook) unless an observability surface was requested — then it runs
/// enabled even without a JSONL sink (the flight ring, health detectors,
/// and live scrape endpoint all feed off the same emit path).
fn rank_telemetry(args: &Args, rank: usize) -> Telemetry {
    let tel = Telemetry::disabled();
    tel.set_enabled(
        args.telemetry_jsonl.is_some()
            || args.telemetry_prom.is_some()
            || args.prom_listen.is_some()
            || args.health_jsonl.is_some()
            || args.flight > 0,
    );
    if let Some(path) = jsonl_path(args, rank) {
        if let Err(e) = tel.open_jsonl(&path) {
            die(&format!(
                "cannot create telemetry JSONL {}: {e}",
                path.display()
            ));
        }
    }
    tel
}

/// Install the online health detectors (tap on the telemetry stream) and
/// the optional live Prometheus scrape endpoint.
fn attach_observers(tel: &Telemetry, args: &Args) -> (Option<HealthMonitor>, Option<PromServer>) {
    let mut mon = HealthMonitor::new(HealthConfig::default(), tel);
    if let Some(path) = &args.health_jsonl {
        mon = mon.with_jsonl(path).unwrap_or_else(|e| {
            die(&format!(
                "cannot create health JSONL {}: {e}",
                path.display()
            ))
        });
        println!("  health: detector events -> {}", path.display());
    }
    mon.install(tel);
    let prom = args.prom_listen.as_deref().map(|addr| {
        let s = rbx::obs::prom::serve(tel, addr)
            .unwrap_or_else(|e| die(&format!("cannot bind --prom-listen {addr}: {e}")));
        println!("  telemetry: live scrape endpoint on http://{}/", s.addr());
        s
    });
    (Some(mon), prom)
}

/// Recovery events aggregated by token, for the machine-readable summary.
fn recovery_totals(events: &[RecoveryEvent]) -> Vec<(&'static str, Value)> {
    let mut totals: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for e in events {
        *totals.entry(e.token()).or_insert(0) += 1;
    }
    totals
        .into_iter()
        .map(|(k, v)| (k, Value::int(v)))
        .collect()
}

/// Everything `main` builds once and every rank reads.
struct RunCtx {
    args: Args,
    case: CaseSetup,
    cfg: SolverConfig,
}

/// Where a solver rank's compressed `uz` snapshots go, chosen once per
/// run: the slab channel to its analysis peer when analysis ranks exist,
/// `fields.bpl` when a single solver rank owns the whole field.
enum Sink<'c> {
    File(AsyncBplWriter),
    Slab(SlabSender<'c>, usize),
}

impl Sink<'_> {
    fn put(&mut self, done: CompressedField) {
        match self {
            Self::File(fields) => {
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
            Self::Slab(tx, _) => {
                let body = rbx::io::encode_slab_body(
                    done.step,
                    done.time,
                    &done.var,
                    &done.compressed.to_bytes(),
                );
                let _ = tx.offer(&body);
            }
        }
    }
}

/// End-of-run counters of one rank's snapshot pipeline.
struct SnapshotOut {
    encoded: AsyncCompressorStats,
    /// Snapshots in `fields.bpl`, or slabs handed to the wire.
    delivered: u64,
    /// Slabs dropped on a full credit window.
    dropped: u64,
    /// The analysis peer, when it stalled or died.
    stalled: Option<usize>,
}

/// What a solver rank hands back for the run summary. Every rank fills
/// it; the summary reads rank 0's, plus every rank's flight dumps and
/// snapshot counters.
struct SolverOut {
    report: RunReport,
    elapsed: f64,
    faults_fired: Vec<String>,
    nu_volume: RunningMean,
    pool: PoolStats,
    phase_pct: [f64; 4],
    underresolved: f64,
    snapshots: Option<SnapshotOut>,
    pod: Option<(usize, usize, f64)>,
    tel: Telemetry,
    health: Option<HealthMonitor>,
    /// Held only to keep the live scrape endpoint up until the summary is
    /// out: the last scrape sees the final counters.
    _prom: Option<PromServer>,
}

/// One world rank's result: a solver rank's summary inputs, or what a
/// dedicated analysis rank saw.
enum RankOut {
    Solver(Box<SolverOut>),
    Analysis {
        rank: usize,
        outcome: Result<rbx::insitu::AnalysisOutcome, rbx::insitu::InsituError>,
    },
}

/// A solver rank's view of the run it hands the [`ResilientRunner`]: the
/// per-step sampling (observables, z-profiles, snapshots, the vitals of
/// the cross-rank imbalance detector) and the reads of the final state.
struct RankObserver<'r, 'c> {
    args: &'r Args,
    rank: usize,
    tel: &'r Telemetry,
    health: Option<HealthMonitor>,
    sink: Option<Sink<'c>>,
    encoder: Option<AsyncFieldCompressor>,
    /// Counters of the encoders already drained (one per partition).
    encoded: AsyncCompressorStats,
    pod: Option<(StagingWriter, PodConsumer)>,
    nu_volume: RunningMean,
    profiles: ZProfiles,
    obs_csv: String,
    /// Out-of-band vitals for the cross-rank imbalance detector:
    /// step → (reports, wall max, wall sum).
    pending: std::collections::BTreeMap<u64, (usize, f64, f64)>,
    /// After a rollback the runner replays steps already sampled; skip
    /// those so the observables CSV stays monotone in step number.
    last_sampled: usize,
    t0: Option<std::time::Instant>,
    // Read from the final state by `finish`.
    elapsed: f64,
    snapshots: Option<SnapshotOut>,
    pod_out: Option<(usize, usize, f64)>,
    underresolved: f64,
    phase_pct: [f64; 4],
}

impl RankObserver<'_, '_> {
    /// End the in-situ POD stream and collect its result. A crashed POD
    /// consumer degrades to a warning — the run's outputs are already on
    /// disk and must not be lost to an analysis failure.
    fn close_pod(&mut self) {
        let Some((w, consumer)) = self.pod.take() else {
            return;
        };
        w.close();
        match consumer.join() {
            Ok(p) => {
                let sv = p.singular_values();
                let total: f64 = sv.iter().map(|s| s * s).sum();
                let lead = sv.first().map_or(0.0, |s| s * s / total);
                self.pod_out = Some((p.count(), p.rank(), lead));
            }
            Err(e) => eprintln!("run_dns: warning: in-situ POD consumer failed: {e}"),
        }
    }

    /// Finish the current encoder: its tail goes to the sink, its counters
    /// into `encoded`.
    fn drain_encoder(&mut self) {
        if let (Some(enc), Some(sink)) = (self.encoder.take(), self.sink.as_mut()) {
            let (tail, stats) = enc.finish();
            for done in tail {
                sink.put(done);
            }
            self.encoded.submitted += stats.submitted;
            self.encoded.busy_dropped += stats.busy_dropped;
        }
    }
}

impl RunObserver for RankObserver<'_, '_> {
    fn start(&mut self, sim: &Simulation<'_>) {
        // Field compression runs off the critical path on the solver's
        // local geometry, so each partition gets its own encoder: the
        // sample step only snapshots into the double-buffered encoder
        // (drop-if-busy) and forwards finished encodings to the sink
        // (drop-if-full on the slab channel). Nothing on this path can
        // block or fail the step.
        self.drain_encoder();
        if self.sink.is_some() {
            let n = self.args.order + 1;
            self.encoder = Some(AsyncFieldCompressor::new(
                &sim.geom,
                n,
                CompressionConfig::default(),
            ));
        }
        if self.t0.is_some() {
            return;
        }
        let rank0 = self.rank == 0;
        if rank0 && self.args.restart.is_some() {
            println!(
                "  restarted at step {} (t = {:.4})",
                sim.state.istep, sim.state.time
            );
        }
        // Mesh quality report (pre-flight check, as a production campaign
        // would run before burning machine time).
        let nel = sim.my_elems.len() as f64;
        let [aspect, jacobian]: [f64; 2] = rbx::mesh::quality_summary(&sim.geom).into();
        let mut q = [aspect, jacobian, nel, -nel];
        sim.comm.allreduce_max(&mut q);
        if rank0 {
            println!(
                "  mesh quality: max aspect ratio {:.2}, max Jacobian ratio {:.2}; {}..{} elements per rank",
                q[0], q[1], -q[3], q[2]
            );
        }
        // In-situ POD runs on a one-rank world only, which never shrinks.
        self.pod = self.args.pod.then(|| {
            let (w, r) = staging_channel(4);
            let c = PodConsumer::spawn(r, "uz", sim.geom.mass.clone(), 12)
                .unwrap_or_else(|e| die(&format!("cannot start in-situ POD consumer: {e}")));
            (w, c)
        });
        self.t0 = Some(std::time::Instant::now());
    }

    fn step(&mut self, sim: &Simulation<'_>, st: &StepStats) {
        let (args, tel, rank) = (self.args, self.tel, self.rank);
        let rank0 = rank == 0;
        let step = sim.state.istep;
        if tel.is_enabled() && args.ranks > 1 {
            // Every step, off the collective path: fire-and-forget this
            // rank's wall time at rank 0, which drains whatever has
            // arrived and folds complete step groups into the detector.
            let my = rbx::comm::StepHealthReport {
                rank,
                step: step as u64,
                wall_s: st.wall_seconds,
            };
            if !rank0 {
                rbx::comm::send_step_health(sim.comm, &my);
            } else {
                let batch =
                    rbx::comm::drain_step_health(sim.comm, std::time::Duration::from_millis(1));
                let gathered = batch.len() as u64;
                tel.counter_add(rbx::telemetry::names::OBS_GATHER_REPORTS_TOTAL, gathered);
                for r in std::iter::once(&my).chain(&batch) {
                    let e = self.pending.entry(r.step).or_insert((0, 0.0, 0.0));
                    *e = (e.0 + 1, e.1.max(r.wall_s), e.2 + r.wall_s);
                }
                let (solver_n, health) = (sim.comm.size(), self.health.as_ref());
                self.pending.retain(|&s, &mut (c, max, sum)| {
                    if c < solver_n {
                        return true;
                    }
                    let mean = sum / c as f64;
                    if let Some(mon) = health.filter(|_| mean > 0.0) {
                        mon.observe_imbalance(s, max / mean);
                    }
                    false
                });
                // A report lost on the wire must not pin its step group
                // (and the map) forever.
                while self.pending.len() > 256 {
                    self.pending.pop_first();
                }
            }
        }
        if args.sample_every == 0
            || !step.is_multiple_of(args.sample_every)
            || step <= self.last_sampled
        {
            return;
        }
        self.last_sampled = step;
        // Collective reductions: every rank participates, rank 0 records.
        let obs = Observables::new(&sim.geom, sim.mesh, &sim.my_elems);
        let u = [&sim.state.u[0][..], &sim.state.u[1], &sim.state.u[2]];
        let t = &sim.state.t;
        let nu_v = obs.nusselt_volume(u[2], t, sim.cfg.ra, sim.cfg.pr, sim.comm);
        let nu_h = obs.nusselt_wall(t, BoundaryTag::HotWall, sim.comm);
        let nu_c = obs.nusselt_wall(t, BoundaryTag::ColdWall, sim.comm);
        let ke = obs.kinetic_energy(u, sim.comm);
        let cfl = obs.cfl(u, sim.cfg.dt, sim.comm);
        self.nu_volume.push(nu_v);
        self.profiles.sample(&sim.geom, u, t);
        if rank0 {
            self.obs_csv += &format!(
                "{step},{},{nu_v},{nu_h},{nu_c},{ke},{cfl},{}\n",
                sim.state.time, st.p_iters
            );
            println!(
                "  step {step:>6}  t = {:.3}  Nu = {nu_v:.4}  KE = {ke:.3e}  CFL = {cfl:.3}  p-its = {}",
                sim.state.time, st.p_iters
            );
        }
        if let (Some(enc), Some(sink)) = (self.encoder.as_mut(), self.sink.as_mut()) {
            if !enc.try_submit(step as u64, sim.state.time, "uz", &sim.state.u[2]) {
                tel.counter_add(rbx::telemetry::names::INSITU_COMPRESS_BUSY_TOTAL, 1);
            }
            while let Some(done) = enc.poll() {
                sink.put(done);
            }
            if let Sink::Slab(tx, dest) = sink {
                let s = tx.stats();
                tel.emit(&rbx::telemetry::schema::insitu_sender_record(
                    step as u64,
                    rank as u64,
                    *dest as u64,
                    s.sent,
                    s.dropped,
                    s.acked,
                    s.inflight_highwater,
                    tx.is_stalled(),
                ));
            }
        }
        if let Some((w, _)) = &self.pod {
            let snapshot = StepData {
                step: step as u64,
                time: sim.state.time,
                vars: vec![Variable::f64(
                    "uz",
                    vec![sim.n_local() as u64],
                    sim.state.u[2].clone(),
                )],
            };
            if w.put(snapshot).is_err() {
                // The consumer exited: stop feeding it and report why.
                self.close_pod();
            }
        }
    }

    fn finish(&mut self, sim: &Simulation<'_>) {
        self.elapsed = self.t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
        // Drain the encoder tail (snapshots still in flight when the loop
        // ended) into the sink and close it; the slab CLOSE frame lets the
        // analysis peer exit cleanly instead of waiting out its idle
        // deadline.
        self.drain_encoder();
        self.snapshots = self.sink.take().map(|sink| {
            let (delivered, dropped, stalled) = match sink {
                Sink::File(fields) => match fields.close() {
                    Ok(n) => (n as u64, 0, None),
                    Err(e) => {
                        eprintln!("run_dns: warning: field file close failed: {e}");
                        (0, 0, None)
                    }
                },
                Sink::Slab(mut tx, dest) => {
                    tx.close();
                    let s = tx.stats();
                    (s.sent, s.dropped, tx.is_stalled().then_some(dest))
                }
            };
            SnapshotOut {
                encoded: self.encoded,
                delivered,
                dropped,
                stalled,
            }
        });
        // Every rank reduces the profiles; rank 0 writes them and the
        // observables it recorded.
        let out = &self.args.out;
        if self.rank == 0 {
            if let Err(e) = std::fs::write(out.join("observables.csv"), &self.obs_csv) {
                eprintln!("run_dns: warning: could not write observables.csv: {e}");
            }
            if let Err(e) = self
                .profiles
                .write_csv(sim.comm, &out.join("z_profiles.csv"))
            {
                eprintln!("run_dns: warning: could not write z_profiles.csv: {e}");
            }
        } else {
            self.profiles.finalize(sim.comm);
        }
        self.close_pod();
        // Post-run resolution check (spectral tail energy of the
        // temperature).
        let indicator = rbx::core::SpectralIndicator::new(self.args.order + 1);
        self.underresolved =
            indicator.underresolved_fraction(&sim.geom, &sim.state.t, 1e-4, sim.comm);
        self.phase_pct = sim.timers.percentages();
    }
}

/// The per-rank body. Ranks `0..--ranks` are solver ranks; ranks past
/// them are dedicated analysis ranks. With an analysis plane the solver
/// ranks communicate over a [`rbx::comm::SubsetComm`] covering exactly
/// themselves, so collectives — and hence the trajectory — are unchanged
/// by `--analysis-ranks`; slabs travel solver rank `r` → analysis rank
/// `N + (r mod K)` on the world communicator.
fn run_rank(ctx: &RunCtx, world: &dyn Communicator) -> RankOut {
    let args = &ctx.args;
    let (solver_n, analysis_k) = (args.ranks, args.analysis_ranks);
    let rank = world.rank();
    let tel = rank_telemetry(args, rank);
    if rank >= solver_n {
        // Dedicated analysis rank: never joins a solver collective, never
        // touches the checkpoint set. It drains slab channels from its
        // assigned solver peers until they close (or die — the idle
        // deadline covers a world that stopped sending).
        let me = rank - solver_n;
        let cfg = rbx::insitu::AnalysisConfig {
            senders: (0..solver_n).filter(|s| s % analysis_k == me).collect(),
            idle_timeout: std::time::Duration::from_secs(60),
            ..Default::default()
        };
        let outcome = rbx::insitu::run_analysis_rank(world, &cfg, &tel);
        tel.flush();
        return RankOut::Analysis { rank, outcome };
    }
    let subset;
    let comm: &dyn Communicator = if analysis_k > 0 {
        subset = rbx::comm::SubsetComm::new(world, (0..solver_n).collect())
            .expect("solver rank is in the solver subset");
        &subset
    } else {
        world
    };
    // Persistent worker pool for every hot-path kernel; the pooled step is
    // bitwise identical for any --threads value.
    let pool = WorkerPool::new(args.threads);

    // Observability is per rank (own JSONL stream, own flight ring); the
    // health detectors and live export run on rank 0, fed out-of-band by
    // the other ranks.
    if let Some(depth) = args.trace_depth {
        tel.set_trace_depth(depth);
    }
    if args.flight > 0 {
        tel.attach_flight(args.flight);
    }
    let (health, prom) = if rank == 0 && tel.is_enabled() {
        attach_observers(&tel, args)
    } else {
        (None, None)
    };

    let sink = if analysis_k > 0 {
        let dest = solver_n + rank % analysis_k;
        let mut tx = SlabSender::new(world, dest, 8);
        tx.set_telemetry(&tel);
        Some(Sink::Slab(tx, dest))
    } else if solver_n == 1 {
        let f = AsyncBplWriter::create(&args.out.join("fields.bpl"), 4)
            .unwrap_or_else(|e| die(&format!("cannot create field file: {e}")));
        Some(Sink::File(f))
    } else {
        None
    };
    let mut faults = FaultPlan::new(args.fault_seed);
    for &s in &args.inject_nan_at {
        faults = faults.inject_nan_at(s);
    }
    for &s in &args.corrupt_checkpoint_at {
        faults = faults.corrupt_checkpoint_at(s);
    }
    for &s in &args.fail_checkpoint_at {
        faults = faults.fail_write_at(s);
    }
    let policy = RecoveryPolicy {
        max_rollbacks: args.max_rollbacks,
        dt_factor: args.dt_factor,
        checkpoint_every: args.checkpoint_every,
        ..Default::default()
    };
    let checkpoints = CheckpointSet::new(args.out.join("checkpoints"), args.checkpoint_keep);
    let mut runner = ResilientRunner::new(checkpoints, policy).with_faults(faults);
    if args.flight > 0 {
        runner = runner.with_flight_dir(args.out.join("flight"));
    }
    let mut obs = RankObserver {
        args,
        rank,
        tel: &tel,
        health,
        sink,
        encoder: None,
        encoded: AsyncCompressorStats::default(),
        pod: None,
        nu_volume: RunningMean::default(),
        profiles: ZProfiles::new(0.0, 1.0, 8),
        obs_csv: String::from("step,time,nu_volume,nu_hot,nu_cold,kinetic_energy,cfl,p_iters\n"),
        pending: Default::default(),
        last_sampled: 0,
        t0: None,
        elapsed: 0.0,
        snapshots: None,
        pod_out: None,
        underresolved: 0.0,
        phase_pct: [0.0; 4],
    };
    let report = runner.run(
        &ctx.cfg,
        &ctx.case.mesh,
        comm,
        &pool,
        &tel,
        args.restart.as_deref(),
        args.steps,
        &mut obs,
    );
    let report = report.unwrap_or_else(|e| {
        eprintln!("run_dns: error: simulation failed on rank {rank}: {e}");
        std::process::exit(1);
    });
    tel.flush();
    RankOut::Solver(Box::new(SolverOut {
        report,
        elapsed: obs.elapsed,
        faults_fired: std::mem::take(&mut runner.faults.fired),
        nu_volume: obs.nu_volume,
        pool: pool.stats(),
        phase_pct: obs.phase_pct,
        underresolved: obs.underresolved,
        snapshots: obs.snapshots,
        pod: obs.pod_out,
        health: obs.health,
        tel,
        _prom: prom,
    }))
}

/// The end-of-run summary, once for the whole world: the human-readable
/// table and the `kind: "summary"` record shared by rank 0's JSONL stream
/// and the optional `--json-summary` file.
fn summarize(args: &Args, results: Vec<RankOut>) {
    let mut solvers = Vec::new();
    let mut analysis = Vec::new();
    for r in results {
        match r {
            RankOut::Solver(s) => solvers.push(*s),
            RankOut::Analysis { rank, outcome } => analysis.push((rank, outcome)),
        }
    }
    let r0 = &solvers[0];
    let report = &r0.report;

    let elapsed = r0.elapsed;
    let ms_per_step = 1e3 * elapsed / args.steps.max(1) as f64;
    let pct = r0.phase_pct;
    let pstats = r0.pool;
    println!("\n── run summary ───────────────────────────────────────────");
    let row = |k: &str, v: String| println!("  {k:<22} {v}");
    row("ranks", format!("{}", args.ranks));
    if args.analysis_ranks > 0 {
        row("analysis ranks", format!("{}", args.analysis_ranks));
    }
    row("steps completed", format!("{}", report.steps_completed));
    row(
        "wall time",
        format!("{elapsed:.2} s ({ms_per_step:.1} ms/step)"),
    );
    row(
        "worker pool",
        format!(
            "{} threads, {} dispatches, {} grain-gated, {} chunks",
            pstats.threads, pstats.dispatches, pstats.grained, pstats.chunks
        ),
    );
    row(
        "kernels",
        format!("simd {}", rbx::basis::simd::level_name()),
    );
    row("rollbacks", format!("{}", report.rollbacks));
    row("final dt", format!("{}", report.final_dt));
    row("recovery events", format!("{}", report.events.len()));
    if let Some(mon) = &r0.health {
        row("health events", format!("{}", mon.event_count()));
    }
    if r0.nu_volume.count() > 0 {
        row(
            "Nu(vol)",
            format!(
                "{:.4} ± {:.4} over {} samples",
                r0.nu_volume.mean(),
                r0.nu_volume.std(),
                r0.nu_volume.count()
            ),
        );
    }
    let snaps: Vec<&SnapshotOut> = solvers
        .iter()
        .filter_map(|s| s.snapshots.as_ref())
        .collect();
    let total = |f: fn(&SnapshotOut) -> u64| snaps.iter().map(|s| f(s)).sum::<u64>();
    if !snaps.is_empty() {
        let (delivered, busy) = (total(|s| s.delivered), total(|s| s.encoded.busy_dropped));
        if args.analysis_ranks > 0 {
            let full = total(|s| s.dropped);
            row(
                "in-situ slabs",
                format!(
                    "{delivered} sent, {full} dropped (window full), {busy} dropped (encoder busy)"
                ),
            );
        } else {
            let encoded = total(|s| s.encoded.submitted);
            row(
                "field samples",
                format!("{delivered} in fields.bpl ({encoded} encoded async, {busy} dropped busy)"),
            );
        }
    }
    if let Some((count, rank, lead)) = r0.pod {
        row(
            "in-situ POD",
            format!("{count} snapshots, rank {rank}, leading mode {lead:.4}"),
        );
    }
    row(
        "resolution monitor",
        format!(
            "{:.1} % of elements exceed 1e-4 spectral tail",
            100.0 * r0.underresolved
        ),
    );
    row(
        "phase split",
        format!(
            "P {:.0} % | V {:.0} % | T {:.0} % | other {:.0} %",
            pct[0], pct[1], pct[2], pct[3]
        ),
    );
    row("outputs", args.out.display().to_string());
    for f in &r0.faults_fired {
        println!("  [fault]    {f}");
    }
    for e in &report.events {
        println!("  [recovery] {e}");
    }
    for (rank, s) in solvers.iter().enumerate() {
        if let Some(dest) = s.snapshots.as_ref().and_then(|s| s.stalled) {
            println!(
                "  [insitu]   solver rank {rank}: analysis rank {dest} stalled or dead \
                 (degraded to drop-with-counter)"
            );
        }
    }
    for (rank, outcome) in &analysis {
        match outcome {
            Ok(o) => {
                let pods = o
                    .pods
                    .iter()
                    .map(|p| format!("r{}:{} snaps rank {}", p.src, p.count, p.rank))
                    .collect::<Vec<_>>()
                    .join(", ");
                println!(
                    "  [insitu]   analysis rank {rank}: {} slabs, {} corrupt, {} gaps{}{}",
                    o.received,
                    o.corrupt,
                    o.gaps,
                    if o.idle_exit { ", idle exit" } else { "" },
                    if pods.is_empty() {
                        String::new()
                    } else {
                        format!(" | pod {pods}")
                    }
                );
            }
            Err(e) => eprintln!("run_dns: warning: analysis rank {rank} failed: {e}"),
        }
    }
    // Flight dumps land per rank; surface all of them, not just rank 0's.
    for p in solvers.iter().flat_map(|s| &s.report.flight_dumps) {
        println!("  [flight]   post-mortem ring dump in {}", p.display());
    }

    let summary = Value::obj([
        ("schema", Value::str(TELEMETRY_SCHEMA)),
        ("kind", Value::str("summary")),
        ("steps", Value::int(report.steps_completed as u64)),
        ("wall_s", Value::num(elapsed)),
        ("ms_per_step", Value::num(ms_per_step)),
        ("rollbacks", Value::int(report.rollbacks as u64)),
        ("final_dt", Value::num(report.final_dt)),
        ("threads", Value::int(pstats.threads as u64)),
        ("pool_dispatches", Value::int(pstats.dispatches)),
        ("pool_grained", Value::int(pstats.grained)),
        ("simd", Value::str(rbx::basis::simd::level_name())),
        (
            "phase_pct",
            Value::obj([
                ("pressure", Value::num(pct[0])),
                ("velocity", Value::num(pct[1])),
                ("temperature", Value::num(pct[2])),
                ("other", Value::num(pct[3])),
            ]),
        ),
        (
            "recovery_events",
            Value::arr(report.events.iter().map(|e| e.telemetry_record())),
        ),
        (
            "recovery_totals",
            Value::obj(recovery_totals(&report.events)),
        ),
        (
            "flight_dumps",
            Value::arr(
                report
                    .flight_dumps
                    .iter()
                    .map(|p| Value::str(p.display().to_string())),
            ),
        ),
    ]);
    let tel = &r0.tel;
    if tel.is_enabled() {
        tel.emit(&summary);
        tel.flush();
        if let Some(path) = jsonl_path(args, 0) {
            println!(
                "  telemetry: {} JSONL records in {}",
                tel.jsonl_lines(),
                path.display()
            );
        }
        if let Some(path) = &args.telemetry_prom {
            match tel.write_prometheus(path) {
                Ok(()) => println!("  telemetry: Prometheus snapshot in {}", path.display()),
                Err(e) => eprintln!("run_dns: warning: could not write {}: {e}", path.display()),
            }
        }
    }
    if let Some(path) = &args.json_summary {
        if let Err(e) = std::fs::write(path, format!("{summary}\n")) {
            eprintln!("run_dns: warning: could not write {}: {e}", path.display());
        } else {
            println!("  json summary in {}", path.display());
        }
    }
    if let Some(mon) = &r0.health {
        mon.flush();
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        die(&format!(
            "cannot create output dir {}: {e}",
            args.out.display()
        ));
    }
    let world = args.ranks + args.analysis_ranks;
    for (flag, set) in [
        ("--pod", args.pod),
        ("--inject-nan-at", !args.inject_nan_at.is_empty()),
        (
            "--corrupt-checkpoint-at",
            !args.corrupt_checkpoint_at.is_empty(),
        ),
        ("--fail-checkpoint-at", !args.fail_checkpoint_at.is_empty()),
    ] {
        if set && world > 1 {
            die(&format!(
                "{flag} is single-rank only (drop --ranks/--analysis-ranks)"
            ));
        }
    }

    let case = match args.case.as_str() {
        "box" => rbx::core::rbc_box_case(args.gamma, args.resolution, args.resolution, false, 1),
        "cylinder" => rbx::core::rbc_cylinder_case(args.gamma, (args.resolution / 2).max(1), 1),
        other => die(&format!("unknown case {other:?} for --case (box|cylinder)")),
    };
    let mut cfg = SolverConfig {
        ra: args.ra,
        order: args.order,
        dt: args.dt,
        ic_noise: 0.05,
        ..Default::default()
    };
    // Echo the coarse degree the solver runs, not the unclamped default.
    cfg.coarse_order = args
        .coarse_order
        .unwrap_or(cfg.coarse_order)
        .min(args.order - 1);
    // Every rank owns at least one element (the runner's repartitioner
    // balances them by its cost model).
    let nelem = case.mesh.num_elements();
    if args.ranks > nelem {
        die(&format!(
            "--ranks {} exceeds the {nelem} elements of the mesh",
            args.ranks
        ));
    }
    println!(
        "run_dns: {} case, Γ = {}, Ra = {:.1e}, degree {}, dt = {}",
        args.case, args.gamma, args.ra, args.order, args.dt
    );
    println!(
        "  {} rank(s) × {} thread(s), {} analysis rank(s)",
        args.ranks, args.threads, args.analysis_ranks
    );
    println!(
        "  {nelem} elements, {} grid points, {} steps",
        nelem * (args.order + 1).pow(3),
        args.steps
    );
    println!("  config: {}", cfg.to_json());

    let ctx = RunCtx { args, case, cfg };
    let results = if world == 1 {
        vec![run_rank(&ctx, &SingleComm::new())]
    } else {
        run_on_ranks(world, |comm| run_rank(&ctx, comm))
    };
    summarize(&ctx.args, results);
}
