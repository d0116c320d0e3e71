//! End-to-end observability acceptance tests: a telemetry-enabled RBC run
//! must emit a schema-valid JSONL stream whose per-step phase breakdown
//! accounts for the measured wall time, bridge recovery events into the
//! same stream, and export a Prometheus snapshot — while a disabled handle
//! stays completely silent.

use rbx::comm::SingleComm;
use rbx::core::{
    CheckpointSet, FaultPlan, RecoveryPolicy, ResilientRunner, Simulation, SolverConfig,
};
use rbx::telemetry::json::Value;
use rbx::telemetry::schema::validate_line;
use rbx::telemetry::Telemetry;
use std::path::PathBuf;

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
    let dir = std::env::temp_dir().join(format!("rbx_telemetry_e2e_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn make_sim<'a>(case: &'a rbx::core::CaseSetup, comm: &'a SingleComm) -> Simulation<'a> {
    let mut sim = Simulation::new(
        test_cfg(),
        &case.mesh,
        &case.part,
        case.elems[0].clone(),
        comm,
    );
    sim.init_rbc();
    sim
}

fn read_records(path: &PathBuf) -> Vec<Value> {
    let text = std::fs::read_to_string(path).expect("read JSONL");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            validate_line(l).unwrap_or_else(|e| panic!("invalid record: {e}\n  line: {l}"));
            Value::parse(l).unwrap()
        })
        .collect()
}

#[test]
fn enabled_run_emits_valid_stream_with_phase_accounting() {
    let case = rbx::core::rbc_box_case(1.0, 2, 2, false, 1);
    let comm = SingleComm::new();
    let mut sim = make_sim(&case, &comm);

    let dir = tmpdir("stream");
    let jsonl = dir.join("tel.jsonl");
    let tel = Telemetry::enabled();
    tel.open_jsonl(&jsonl).unwrap();
    sim.set_telemetry(&tel);

    for _ in 0..4 {
        assert!(sim.step().verdict.is_healthy());
    }
    tel.flush();

    let records = read_records(&jsonl);
    let steps: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("kind").and_then(|k| k.as_str()) == Some("step"))
        .collect();
    let solves = records
        .iter()
        .filter(|r| r.get("kind").and_then(|k| k.as_str()) == Some("solve"))
        .count();
    assert_eq!(steps.len(), 4, "one step record per time step");
    // pressure + 3 velocity components + temperature per step
    assert_eq!(solves, 4 * 5, "one solve record per linear solve");

    // The phase breakdown must account for the step's wall time: phases
    // are interior measurements, so their sum is ≤ wall and within 1 %.
    for rec in &steps {
        let wall = rec.get("wall_s").and_then(|v| v.as_f64()).unwrap();
        let phases = rec.get("phases").expect("phases object");
        let sum: f64 = ["pressure", "velocity", "temperature", "other"]
            .iter()
            .map(|k| phases.get(k).and_then(|v| v.as_f64()).unwrap())
            .sum();
        assert!(
            sum >= 0.99 * wall && sum <= 1.001 * wall,
            "phase sum {sum} vs wall {wall} drifted more than 1 %"
        );
    }

    // The span tree carries the sub-phase attribution: gather-scatter and
    // Schwarz internals show up as hierarchical paths.
    let snap = tel.tracer().snapshot();
    let paths: Vec<&str> = snap.iter().map(|s| s.path.as_str()).collect();
    for want in ["pool/gs", "schwarz/coarse", "pool/fdm"] {
        assert!(
            paths.contains(&want),
            "missing span path {want:?} in {paths:?}"
        );
    }

    // Prometheus snapshot exports both metrics and span aggregates.
    let prom = dir.join("tel.prom");
    tel.write_prometheus(&prom).unwrap();
    let text = std::fs::read_to_string(&prom).unwrap();
    // (no rbx_gs_bytes_total here: a single-rank run has no shared
    // exchange; the multi-rank traffic counters are covered in rbx-gs.)
    for needle in [
        "rbx_steps_total 4",
        "rbx_solve_iterations",
        "rbx_span_seconds_total",
        "rbx_step_wall_seconds",
    ] {
        assert!(
            text.contains(needle),
            "Prometheus snapshot missing {needle:?}"
        );
    }
}

#[test]
fn recovery_events_bridge_into_the_stream() {
    let case = rbx::core::rbc_box_case(1.0, 2, 2, false, 1);
    let comm = SingleComm::new();
    let mut sim = make_sim(&case, &comm);

    let dir = tmpdir("recovery");
    let jsonl = dir.join("tel.jsonl");
    let tel = Telemetry::enabled();
    tel.open_jsonl(&jsonl).unwrap();
    sim.set_telemetry(&tel);

    let policy = RecoveryPolicy {
        checkpoint_every: 2,
        dt_factor: 0.5,
        ..Default::default()
    };
    let faults = FaultPlan::new(42).inject_nan_at(3);
    let mut runner =
        ResilientRunner::new(CheckpointSet::new(dir.join("chk"), 3), policy).with_faults(faults);
    let report = runner
        .run_with(&mut sim, 5, |_, _| {})
        .expect("run completes");
    assert_eq!(report.rollbacks, 1);
    tel.flush();

    let records = read_records(&jsonl);
    let events: Vec<&str> = records
        .iter()
        .filter(|r| r.get("kind").and_then(|k| k.as_str()) == Some("recovery"))
        .map(|r| r.get("event").and_then(|e| e.as_str()).unwrap())
        .collect();
    assert!(events.contains(&"divergence"), "events: {events:?}");
    assert!(events.contains(&"rolled_back"), "events: {events:?}");
    assert!(events.contains(&"checkpoint_written"), "events: {events:?}");

    // The same story is visible as labelled counters.
    let m = tel.metrics();
    assert_eq!(
        m.counter("rbx_recovery_events_total{event=\"divergence\"}"),
        1
    );
    assert_eq!(
        m.counter("rbx_recovery_events_total{event=\"rolled_back\"}"),
        1
    );
}

#[test]
fn disabled_telemetry_is_silent() {
    let case = rbx::core::rbc_box_case(1.0, 2, 2, false, 1);
    let comm = SingleComm::new();
    let mut sim = make_sim(&case, &comm);
    // No set_telemetry: the default handle is disabled.
    for _ in 0..2 {
        assert!(sim.step().verdict.is_healthy());
    }
    assert!(sim.tel.tracer().snapshot().is_empty());
    assert!(sim.tel.metrics().render_prometheus().is_empty());
}
