//! Chaos-hardened communication acceptance tests.
//!
//! Seeded message-level faults (drop / delay / corruption) are injected
//! under the production comm stack — `HardenedComm<ChaosComm<ThreadComm>>`
//! — while a distributed RBC run executes under the `ResilientRunner`.
//! The acceptance bar: the run completes via collective abort-and-rollback
//! with zero panics and zero deadlocks, and the final checkpoint is
//! **byte-identical** to a fault-free run (comm faults are transient, so
//! the replayed trajectory must not drift). A *persistent* sender crash
//! no longer merely exhausts the budget: the runner converts it
//! into a shrink-and-continue — survivors vote the dead rank out,
//! repartition its elements from the shared topology-free checkpoint, and
//! finish the run at the smaller width.
//!
//! All ranks share one checkpoint directory: checkpoints are written
//! collectively into a single topology-independent file, which is what
//! makes restore-onto-fewer-ranks possible in the first place.

use rbx::comm::{
    run_on_ranks_tuned, ChaosComm, CommFaultPlan, CommTuning, Communicator, HardenedComm,
};
use rbx::core::{
    CheckpointSet, RecoveryEvent, RecoveryPolicy, ResilientRunner, SimError, Simulation,
    SolverConfig,
};
use rbx::device::WorkerPool;
use rbx::telemetry::schema::validate_line;
use rbx::telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::time::Duration;

const STEPS: usize = 5;

fn test_cfg() -> SolverConfig {
    SolverConfig {
        ra: 2e4,
        order: 3,
        dt: 2e-3,
        ic_noise: 1e-2,
        ..Default::default()
    }
}

/// Short deadlines so fault detection (and therefore the whole matrix)
/// is fast; the poll slice and pending bound keep their defaults.
fn chaos_tuning() -> CommTuning {
    CommTuning {
        recv_timeout: Duration::from_millis(120),
        retries: 1,
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rbx_comm_chaos_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn case_for(nranks: usize) -> rbx::core::CaseSetup {
    match nranks {
        2 => rbx::core::rbc_box_case(1.0, 2, 2, false, 2),
        4 => rbx::core::rbc_box_case(2.0, 4, 2, false, 4),
        n => panic!("no case wired for {n} ranks"),
    }
}

struct RankOutcome {
    rollbacks: usize,
    comm_recovered: usize,
    faults_fired: u64,
    final_checkpoint: Vec<u8>,
}

/// Run STEPS resilient steps on `nranks` ranks under the full hardened
/// stack. `plan: None` runs fault-free (chaos stays disarmed) — the
/// byte-identity baseline over the *same* stack. All ranks checkpoint
/// into the shared `dir` (collective topology-free writes).
fn run_chaos_case(nranks: usize, dir: &Path, plan: Option<CommFaultPlan>) -> Vec<RankOutcome> {
    let case = case_for(nranks);
    let cfg = test_cfg();
    let (case_ref, cfg_ref, plan_ref) = (&case, &cfg, &plan);
    run_on_ranks_tuned(nranks, chaos_tuning(), move |tc| {
        let armed = plan_ref.is_some();
        let plan = plan_ref.clone().unwrap_or_else(|| CommFaultPlan::new(0));
        let chaos = ChaosComm::new(tc, plan);
        // Setup traffic (partition handshakes, initial masks) is not the
        // target of this test: arm the plan only for the stepped run.
        chaos.set_armed(false);
        let comm = HardenedComm::new(chaos);
        let mut sim = Simulation::new(
            cfg_ref.clone(),
            &case_ref.mesh,
            &case_ref.part,
            case_ref.elems[tc.rank()].clone(),
            &comm,
        );
        sim.init_rbc();

        let policy = RecoveryPolicy {
            checkpoint_every: 2,
            max_rollbacks: 6,
            ..Default::default()
        };
        let mut runner = ResilientRunner::new(CheckpointSet::new(dir, 4), policy);

        comm.inner().set_armed(armed);
        let report = runner
            .run_with(&mut sim, STEPS, |_, _| {})
            .unwrap_or_else(|e| panic!("rank {}: chaos run failed: {e}", tc.rank()));
        comm.inner().set_armed(false);

        assert_eq!(sim.state.istep, STEPS);
        assert_eq!(sim.find_non_finite(), None, "rank {}", tc.rank());
        let final_path = runner.checkpoints.path_for_step(STEPS);
        RankOutcome {
            rollbacks: report.rollbacks,
            comm_recovered: report
                .events
                .iter()
                .filter(|e| matches!(e, RecoveryEvent::CommRecovered { .. }))
                .count(),
            faults_fired: comm.inner().faults_fired(),
            final_checkpoint: std::fs::read(&final_path)
                .unwrap_or_else(|e| panic!("rank {}: final checkpoint: {e}", tc.rank())),
        }
    })
}

#[test]
fn seeded_fault_matrix_heals_and_matches_fault_free_run() {
    for &nranks in &[2usize, 4] {
        let base_dir = tmpdir(&format!("baseline_{nranks}"));
        let baseline = run_chaos_case(nranks, &base_dir, None);
        for out in &baseline {
            assert_eq!(out.rollbacks, 0);
            assert_eq!(out.faults_fired, 0);
        }

        // One-shot ops land inside step 1 (each step issues hundreds of
        // armed sends), far from the final step, so no fault can race the
        // run's teardown.
        let matrix: Vec<(&str, CommFaultPlan, bool)> = vec![
            ("drop", CommFaultPlan::new(101).drop_send_at(0, 60), true),
            (
                "delay",
                CommFaultPlan::new(102).delay_send_at(1 % nranks, 45),
                false,
            ),
            (
                "corrupt",
                CommFaultPlan::new(103).corrupt_send_at(nranks - 1, 75),
                true,
            ),
        ];
        for (name, plan, must_roll_back) in matrix {
            let dir = tmpdir(&format!("{name}_{nranks}"));
            let outcomes = run_chaos_case(nranks, &dir, Some(plan));

            let fired: u64 = outcomes.iter().map(|o| o.faults_fired).sum();
            assert!(fired >= 1, "{name}/{nranks}: no fault actually fired");
            if must_roll_back {
                // A lost or corrupted frame forces a collective rollback;
                // every rank heals through the same comm-recovery path.
                for (r, o) in outcomes.iter().enumerate() {
                    assert!(
                        o.rollbacks >= 1,
                        "{name}/{nranks} rank {r}: expected a rollback"
                    );
                    assert!(
                        o.comm_recovered >= 1,
                        "{name}/{nranks} rank {r}: no comm_recovered event"
                    );
                }
            }
            // The replayed trajectory must carry no trace of the fault:
            // final checkpoints byte-identical to the fault-free run.
            for (r, (o, b)) in outcomes.iter().zip(&baseline).enumerate() {
                assert!(
                    o.final_checkpoint == b.final_checkpoint,
                    "{name}/{nranks} rank {r}: final checkpoint differs from fault-free run"
                );
            }
        }
    }
}

/// A permanently crashed sender no longer kills the job: the survivors
/// vote it out, repartition, restore the shared topology-free checkpoint,
/// and finish at the smaller width. The dead rank exits with a clean
/// eviction, the survivor reports exactly one shrink, and nobody sees
/// `RecoveryExhausted`.
#[test]
fn persistent_sender_crash_shrinks_and_continues() {
    let nranks = 2;
    let case = case_for(nranks);
    let cfg = test_cfg();
    let dir = tmpdir("crash");
    let chk = dir.join("chk");
    std::fs::create_dir_all(&chk).unwrap();
    // Tighter deadlines still: every retry of the crashed rank re-fails,
    // so the run's wall time is bounded by budget x deadline.
    let tuning = CommTuning {
        recv_timeout: Duration::from_millis(60),
        retries: 0,
        ..Default::default()
    };
    let calib_chk = dir.join("calib_chk");
    std::fs::create_dir_all(&calib_chk).unwrap();
    let (case_ref, cfg_ref, dir_ref, chk_ref, calib_ref) = (&case, &cfg, &dir, &chk, &calib_chk);
    let outcomes = run_on_ranks_tuned(nranks, tuning, move |tc| {
        let policy = RecoveryPolicy {
            checkpoint_every: 2,
            max_rollbacks: 1,
            ..Default::default()
        };
        let pool = WorkerPool::new(1);
        // Calibration pass: build the world and write the anchor with a
        // benign plan, counting armed send ops. The crash threshold then
        // lands just past setup — the job starts healthy and rank 1 goes
        // permanently silent early in the stepped run.
        let setup_ops = {
            let chaos = ChaosComm::new(&tc, CommFaultPlan::new(7));
            let comm = HardenedComm::new(chaos);
            comm.inner().set_armed(true);
            ResilientRunner::new(CheckpointSet::new(calib_ref, 4), policy)
                .run(
                    cfg_ref,
                    &case_ref.mesh,
                    &comm,
                    &pool,
                    &Telemetry::disabled(),
                    None,
                    0,
                    &mut (),
                )
                .unwrap_or_else(|e| panic!("rank {}: calibration errored: {e}", tc.rank()));
            comm.inner().send_ops()
        };
        let plan = CommFaultPlan::new(7).crash_sends_from(1, setup_ops + 50);
        let chaos = ChaosComm::new(&tc, plan);
        let comm = HardenedComm::new(chaos);
        let tel = Telemetry::enabled();
        let jsonl = dir_ref.join(format!("rank{}.jsonl", tc.rank()));
        tel.open_jsonl(&jsonl).unwrap();
        comm.set_telemetry(&tel);
        let mut runner = ResilientRunner::new(CheckpointSet::new(chk_ref, 4), policy);
        comm.inner().set_armed(true);
        let out = runner.run(
            cfg_ref,
            &case_ref.mesh,
            &comm,
            &pool,
            &tel,
            None,
            STEPS,
            &mut (),
        );
        let prom = dir_ref.join(format!("rank{}.prom", tc.rank()));
        tel.write_prometheus(&prom).unwrap();
        (out, std::fs::read_to_string(&prom).unwrap(), jsonl)
    });

    // Rank 1 (the crashed sender) must learn of its own eviction.
    match &outcomes[1].0 {
        Err(SimError::Evicted { survivors, .. }) => assert_eq!(*survivors, 1),
        other => panic!("rank 1 should be evicted, got {other:?}"),
    }
    // Rank 0 survives, shrinks exactly once, and finishes all steps solo.
    let (report, prom, jsonl) = match &outcomes[0] {
        (Ok(r), prom, jsonl) => (r, prom, jsonl),
        (other, ..) => panic!("rank 0 should complete via shrink, got {other:?}"),
    };
    assert_eq!(report.steps_completed, STEPS);
    assert_eq!(report.shrinks, 1);
    assert_eq!(report.final_ranks, 1);
    let shrinks: Vec<(usize, usize)> = report
        .events
        .iter()
        .filter_map(|e| match e {
            RecoveryEvent::Shrink {
                from_ranks,
                to_ranks,
                ..
            } => Some((*from_ranks, *to_ranks)),
            _ => None,
        })
        .collect();
    assert_eq!(shrinks, vec![(2, 1)], "events: {:?}", report.events);
    assert!(
        prom.contains("rbx_recovery_shrink_total 1"),
        "prometheus export must count the shrink:\n{prom}"
    );
    // The telemetry stream records the shrink as a schema-valid recovery
    // event.
    let text = std::fs::read_to_string(jsonl).unwrap();
    let mut saw_shrink = false;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        validate_line(line)
            .unwrap_or_else(|e| panic!("invalid telemetry record: {e}\n  line: {line}"));
        if line.contains("\"shrink\"") {
            saw_shrink = true;
        }
    }
    assert!(saw_shrink, "telemetry stream must record the shrink event");
}

#[test]
fn chaos_run_emits_schema_valid_telemetry() {
    let nranks = 2;
    let case = case_for(nranks);
    let cfg = test_cfg();
    let dir = tmpdir("telemetry");
    let chk = dir.join("chk");
    std::fs::create_dir_all(&chk).unwrap();
    let (case_ref, cfg_ref, dir_ref, chk_ref) = (&case, &cfg, &dir, &chk);
    let outcomes = run_on_ranks_tuned(nranks, chaos_tuning(), move |tc| {
        let chaos = ChaosComm::new(tc, CommFaultPlan::new(11).drop_send_at(0, 60));
        chaos.set_armed(false);
        let comm = HardenedComm::new(chaos);
        let tel = Telemetry::enabled();
        let jsonl = dir_ref.join(format!("rank{}.jsonl", tc.rank()));
        tel.open_jsonl(&jsonl).unwrap();
        comm.set_telemetry(&tel);
        let mut sim = Simulation::new(
            cfg_ref.clone(),
            &case_ref.mesh,
            &case_ref.part,
            case_ref.elems[tc.rank()].clone(),
            &comm,
        );
        sim.init_rbc();
        sim.set_telemetry(&tel);
        let policy = RecoveryPolicy {
            checkpoint_every: 2,
            max_rollbacks: 6,
            ..Default::default()
        };
        let mut runner = ResilientRunner::new(CheckpointSet::new(chk_ref, 4), policy);
        comm.inner().set_armed(true);
        let report = runner
            .run_with(&mut sim, STEPS, |_, _| {})
            .expect("telemetry chaos run");
        comm.inner().set_armed(false);
        let prom = dir_ref.join(format!("rank{}.prom", tc.rank()));
        tel.write_prometheus(&prom).unwrap();
        (jsonl, prom, report.rollbacks)
    });

    let total_rollbacks: usize = outcomes.iter().map(|(_, _, r)| r).sum();
    assert!(
        total_rollbacks >= 1,
        "the dropped frame must force a rollback"
    );
    let mut saw_comm_recovered = false;
    let mut saw_comm_metric = false;
    for (jsonl, prom, _) in &outcomes {
        let text = std::fs::read_to_string(jsonl).unwrap();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            validate_line(line)
                .unwrap_or_else(|e| panic!("invalid telemetry record: {e}\n  line: {line}"));
            if line.contains("comm_recovered") {
                saw_comm_recovered = true;
            }
        }
        let prom_text = std::fs::read_to_string(prom).unwrap();
        if prom_text.contains("rbx_comm_epoch_aborts_total")
            || prom_text.contains("rbx_comm_timeouts_total")
        {
            saw_comm_metric = true;
        }
    }
    assert!(
        saw_comm_recovered,
        "telemetry stream must record the comm recovery"
    );
    assert!(
        saw_comm_metric,
        "prometheus export must carry the comm fault counters"
    );
}
