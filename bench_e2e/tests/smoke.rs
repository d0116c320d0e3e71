//! Tiny-case smoke runs of every workload through the whole harness —
//! developed-state generation, set-ups, replay, the correctness gate, the
//! traced run and the isolated layer calls — and a check that every
//! metric the harness reports is declared, with its unit, in the
//! repository's BENCHMARK.json.

use rbx_bench_e2e::{run, Options, RunResult, Scale, Workload};
use std::path::PathBuf;

fn smoke(workload: Workload, trace: bool) -> RunResult {
    let opts = Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke_{}_{trace}", workload.name())),
    };
    let r = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        r.verdict.correct,
        "{}: {:?}",
        workload.name(),
        r.verdict.problems
    );
    assert_eq!(r.verdict.failed, 0, "{}", workload.name());
    assert!(r.verdict.attempted > 0);
    for m in &r.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    r
}

/// Every reported metric appears in BENCHMARK.json with the same unit.
fn assert_declared(r: &RunResult) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for m in &r.metrics {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

fn check(workload: Workload) {
    let untraced = smoke(workload, false);
    let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
    assert_eq!(
        names,
        ["ms_per_step", "cpu_ms_per_step", "setup_s", "peak_rss_mb"]
    );
    assert!(untraced.metrics.iter().all(|m| m.value > 0.0));
    assert_declared(&untraced);
    let traced = smoke(workload, true);
    assert_eq!(traced.metrics.len(), 38);
    assert_declared(&traced);
}

#[test]
fn box_serial_smoke() {
    check(Workload::BoxSerial);
}

#[test]
fn box_threads2_smoke() {
    check(Workload::BoxThreads2);
}

#[test]
fn box_ranks2_smoke() {
    check(Workload::BoxRanks2);
}

#[test]
fn cylinder_workflow_smoke() {
    check(Workload::CylWorkflow);
}
