//! End-to-end acceptance for the observability plane.
//!
//! A 4-rank run with full observability on — per-rank JSONL
//! streams, flight rings, health detectors on rank 0 — hits a permanent
//! sender crash. The acceptance bar:
//!
//! * every surviving rank leaves a schema-valid `rbx.flight.v1`
//!   post-mortem dump (the flight recorder fired at the shrink),
//! * rank 0's health stream carries a critical `shrink` event,
//! * merging the per-rank streams yields a schema-valid `rbx.timeline.v1`
//!   timeline with per-step imbalance and straggler attribution.
//!
//! This is the workflow an operator would actually run after a node
//! loss: read the flight dumps, merge the streams, look at the timeline.

use rbx::comm::{
    run_on_ranks_tuned, ChaosComm, CommFaultPlan, CommTuning, Communicator, HardenedComm,
};
use rbx::core::{
    CheckpointSet, RecoveryEvent, RecoveryPolicy, ResilientRunner, SimError, SolverConfig,
};
use rbx::device::WorkerPool;
use rbx::obs::{merge_files, HealthConfig, HealthMonitor};
use rbx::telemetry::json::Value;
use rbx::telemetry::schema::{
    validate_flight_header, validate_health, validate_line, validate_timeline_record,
};
use rbx::telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::time::Duration;

const STEPS: usize = 5;
const NRANKS: usize = 4;

fn test_cfg() -> SolverConfig {
    SolverConfig {
        ra: 2e4,
        order: 3,
        dt: 2e-3,
        ic_noise: 1e-2,
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rbx_obs_e2e_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Validate one flight dump: header line, then telemetry records, with
/// the header's record count honest.
fn check_flight_dump(path: &Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read flight dump {}: {e}", path.display()));
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().unwrap_or_else(|| {
        panic!("flight dump {} is empty", path.display());
    });
    let hv = Value::parse(header).expect("flight header must parse");
    validate_flight_header(&hv)
        .unwrap_or_else(|e| panic!("{}: invalid header: {e}", path.display()));
    // A crash can surface as a divergence (NaN through the dead rank's
    // exchanges) before the shrink protocol runs; any of the known
    // post-mortem reasons is a valid trigger.
    let reason = hv.get("reason").and_then(Value::as_str).unwrap_or("");
    assert!(
        ["shrink", "divergence", "recovery_exhausted"].contains(&reason),
        "unknown dump reason {reason:?} in {}",
        path.display()
    );
    let mut records = 0usize;
    for line in lines {
        validate_line(line)
            .unwrap_or_else(|e| panic!("{}: invalid record: {e}\n  line: {line}", path.display()));
        records += 1;
    }
    assert!(records > 0, "{}: no records in dump", path.display());
    assert_eq!(
        hv.get("records").and_then(Value::as_u64),
        Some(records as u64),
        "{}: header record count is dishonest",
        path.display()
    );
}

#[test]
fn crash_leaves_flight_dumps_health_events_and_a_mergeable_timeline() {
    let case = rbx::core::rbc_box_case(2.0, 4, 2, false, NRANKS);
    let cfg = test_cfg();
    let dir = tmpdir("crash");
    let chk = dir.join("chk");
    let flight = dir.join("flight");
    let calib_chk = dir.join("calib_chk");
    std::fs::create_dir_all(&chk).unwrap();
    std::fs::create_dir_all(&calib_chk).unwrap();
    // Short deadlines: every retry against the crashed rank re-fails, so
    // wall time stays bounded by budget x deadline.
    let tuning = CommTuning {
        recv_timeout: Duration::from_millis(60),
        retries: 0,
        ..Default::default()
    };
    let (case_ref, cfg_ref, dir_ref, chk_ref, flight_ref, calib_ref) =
        (&case, &cfg, &dir, &chk, &flight, &calib_chk);
    let outcomes = run_on_ranks_tuned(NRANKS, tuning, move |tc| {
        let policy = RecoveryPolicy {
            checkpoint_every: 2,
            max_rollbacks: 1,
            ..Default::default()
        };
        let pool = WorkerPool::new(1);
        // Calibration pass: count armed send ops through setup + a clean
        // run, so the crash threshold lands just past setup — the job
        // starts healthy and the last rank goes permanently silent early
        // in the stepped run.
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
        let plan = CommFaultPlan::new(7).crash_sends_from(NRANKS - 1, setup_ops + 50);
        let chaos = ChaosComm::new(&tc, plan);
        let comm = HardenedComm::new(chaos);

        // Full observability on every rank: JSONL stream + flight ring;
        // the health detectors run on rank 0 only.
        let tel = Telemetry::enabled();
        let jsonl = dir_ref.join(format!("tel.rank{}.jsonl", tc.rank()));
        tel.open_jsonl(&jsonl).unwrap();
        tel.attach_flight(128);
        comm.set_telemetry(&tel);
        let health = (tc.rank() == 0).then(|| {
            let mon = HealthMonitor::new(HealthConfig::default(), &tel)
                .with_jsonl(&dir_ref.join("health.jsonl"))
                .unwrap();
            mon.install(&tel);
            mon
        });

        let mut runner = ResilientRunner::new(CheckpointSet::new(chk_ref, 4), policy)
            .with_flight_dir(flight_ref);
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
        tel.flush();
        if let Some(mon) = &health {
            mon.flush();
        }
        let shrink_health_events = health.map(|m| {
            m.events()
                .iter()
                .filter(|e| e.get("detector").and_then(Value::as_str) == Some("shrink"))
                .count()
        });
        (out, jsonl, shrink_health_events)
    });

    // The crashed sender learns of its own eviction; everyone else
    // completes through the shrink.
    match &outcomes[NRANKS - 1].0 {
        Err(SimError::Evicted { survivors, .. }) => assert_eq!(*survivors, NRANKS - 1),
        other => panic!("rank {} should be evicted, got {other:?}", NRANKS - 1),
    }
    for (rank, (out, _, _)) in outcomes.iter().enumerate().take(NRANKS - 1) {
        let report = match out {
            Ok(r) => r,
            other => panic!("rank {rank} should complete via shrink, got {other:?}"),
        };
        assert_eq!(report.steps_completed, STEPS, "rank {rank}");
        assert_eq!(
            report.shrinks, 1,
            "rank {rank}: expected exactly one shrink"
        );
        assert_eq!(report.final_ranks, NRANKS - 1, "rank {rank}");
        assert!(
            report.events.iter().any(|e| matches!(
                e,
                RecoveryEvent::Shrink { from_ranks, to_ranks, .. }
                    if (*from_ranks, *to_ranks) == (NRANKS, NRANKS - 1)
            )),
            "rank {rank}: no {NRANKS} → {} shrink event: {:?}",
            NRANKS - 1,
            report.events
        );
        // The flight recorder fired on every survivor: at least one
        // schema-valid post-mortem dump, honest about its contents.
        assert!(
            !report.flight_dumps.is_empty(),
            "rank {rank}: no flight dump at the shrink"
        );
        for dump in &report.flight_dumps {
            check_flight_dump(dump);
        }
    }

    // Rank 0's health detectors saw the shrink, in-memory and on disk.
    let shrink_events = outcomes[0].2.expect("rank 0 ran the health monitor");
    assert!(shrink_events >= 1, "no shrink health event on rank 0");
    let health_text = std::fs::read_to_string(dir.join("health.jsonl")).unwrap();
    let mut saw_shrink = false;
    for line in health_text.lines().filter(|l| !l.trim().is_empty()) {
        let v = Value::parse(line).expect("health line must parse");
        validate_health(&v).unwrap_or_else(|e| panic!("invalid health event: {e}\n  line: {line}"));
        if v.get("detector").and_then(Value::as_str) == Some("shrink") {
            saw_shrink = true;
            assert_eq!(v.get("severity").and_then(Value::as_str), Some("critical"));
        }
    }
    assert!(saw_shrink, "health stream must record the shrink");

    // The operator workflow: merge the per-rank streams into one
    // schema-valid timeline with imbalance + straggler per step.
    let streams: Vec<PathBuf> = outcomes.iter().map(|(_, j, _)| j.clone()).collect();
    let tl = merge_files(&streams, None).expect("merge must read all streams");
    assert_eq!(tl.streams, NRANKS);
    assert!(tl.ranks >= NRANKS - 1, "timeline saw {} rank(s)", tl.ranks);
    assert!(!tl.steps.is_empty(), "timeline has no steps");
    for step in &tl.steps {
        assert!(
            step.imbalance >= 1.0 - 1e-9,
            "step {}: imbalance",
            step.step
        );
        assert!(
            step.straggler < NRANKS,
            "step {}: straggler {} out of range",
            step.step,
            step.straggler
        );
    }
    let out_path = dir.join("timeline.jsonl");
    let file = std::fs::File::create(&out_path).unwrap();
    tl.write_jsonl(std::io::BufWriter::new(file)).unwrap();
    let text = std::fs::read_to_string(&out_path).unwrap();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = Value::parse(line).expect("timeline line must parse");
        validate_timeline_record(&v)
            .unwrap_or_else(|e| panic!("invalid timeline record: {e}\n  line: {line}"));
    }
}
