//! End-to-end contract of the `run_dns` binary: every rank layout runs the
//! same per-rank body, so a tiny box run checkpoints the same bytes, writes
//! the same observables header and emits one `kind: "summary"` record at
//! `--ranks 1`, `--ranks 2` and `--ranks 1 --analysis-ranks 1`; a
//! corrupt restart file falls back to the newest verified generation and
//! is rejected once; an order the coarse level cannot sit below, or a
//! coarse order outside `1..order`, is a usage error.

use rbx::telemetry::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Run `run_dns` on a 2×2×2 box at order 3 for 10 steps with `extra`
/// rank flags, writing into a fresh `out/<name>`; returns that directory.
fn run(name: &str, extra: &[&str]) -> PathBuf {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("run_dns_cli")
        .join(name);
    let _ = std::fs::remove_dir_all(&out);
    run_in(&out, extra);
    out
}

/// [`run`] into an existing `out` directory (its checkpoints included).
fn run_in(out: &Path, extra: &[&str]) {
    let summary = out.join("summary.json");
    let status = Command::new(env!("CARGO_BIN_EXE_run_dns"))
        .args(["--steps", "10", "--order", "3", "--resolution", "2"])
        .args(["--checkpoint-every", "10", "--sample-every", "5"])
        .args(["--threads", "1", "--out"])
        .arg(out)
        .arg("--json-summary")
        .arg(&summary)
        .args(extra)
        .output()
        .expect("run_dns starts");
    assert!(
        status.status.success(),
        "run_dns {extra:?} failed:\n{}",
        String::from_utf8_lossy(&status.stderr)
    );
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn rank_layouts_share_checkpoint_bytes_summary_and_observables_header() {
    let layouts: [(&str, &[&str]); 3] = [
        ("ranks1", &["--ranks", "1"]),
        ("ranks2", &["--ranks", "2"]),
        (
            "ranks1_analysis1",
            &["--ranks", "1", "--analysis-ranks", "1"],
        ),
    ];
    let outs: Vec<PathBuf> = layouts.iter().map(|(n, a)| run(n, a)).collect();

    let checkpoint = |d: &PathBuf| read(&d.join("checkpoints/chk_0000000010.bpl"));
    let header = |d: &PathBuf| {
        let csv = String::from_utf8(read(&d.join("observables.csv"))).expect("utf-8 csv");
        csv.lines().next().expect("csv header").to_string()
    };
    let reference = checkpoint(&outs[0]);
    for (out, (name, _)) in outs.iter().zip(&layouts) {
        assert!(
            checkpoint(out) == reference,
            "{name}: final checkpoint differs from --ranks 1"
        );
        assert_eq!(header(out), header(&outs[0]), "{name}: observables header");

        let text = String::from_utf8(read(&out.join("summary.json"))).expect("utf-8 summary");
        let records: Vec<Value> = text
            .lines()
            .map(|l| Value::parse(l).expect("summary line is JSON"))
            .collect();
        assert_eq!(records.len(), 1, "{name}: one summary record");
        let rec = &records[0];
        assert_eq!(rec.get("kind").and_then(Value::as_str), Some("summary"));
        assert_eq!(rec.get("steps").and_then(Value::as_u64), Some(10), "{name}");
    }
}

#[test]
fn corrupt_restart_falls_back_to_the_newest_verified_generation() {
    // Checkpoints at 0, 10 and 20 on two ranks; keep the good step-20 bytes.
    let out = run("restart_fallback", &["--ranks", "2", "--steps", "20"]);
    let chk20 = out.join("checkpoints/chk_0000000020.bpl");
    let good = read(&chk20);
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x10;
    std::fs::write(&chk20, &bad).unwrap();

    // Restart from the corrupt file: the run must reject it, resume from
    // generation 10, and step 10 → 20 onto the same bytes as before.
    let restart = chk20.to_str().expect("utf-8 path");
    run_in(&out, &["--ranks", "2", "--restart", restart]);
    let text = String::from_utf8(read(&out.join("summary.json"))).expect("utf-8 summary");
    let rec = Value::parse(text.trim()).expect("summary is JSON");
    assert_eq!(rec.get("steps").and_then(Value::as_u64), Some(20));
    let events = rec
        .get("recovery_events")
        .and_then(Value::as_arr)
        .expect("recovery_events array");
    let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    // Rejected once: the fallback walk does not read the file again.
    let rejections = events
        .iter()
        .filter(|e| {
            field(e, "event") == "generation_rejected"
                && field(e, "detail").contains("chk_0000000020.bpl")
        })
        .count();
    assert_eq!(
        rejections, 1,
        "the corrupt restart file must be rejected exactly once: {text}"
    );
    let anchor = events
        .iter()
        .find(|e| field(e, "event") == "checkpoint_written")
        .expect("an anchor checkpoint");
    assert_eq!(
        anchor.get("step").and_then(Value::as_u64),
        Some(10),
        "the run resumed from the wrong generation: {text}"
    );
    assert!(
        read(&chk20) == good,
        "re-written step-20 checkpoint differs from the original run's"
    );
}

#[test]
fn order_one_is_a_usage_error() {
    // The coarse level of the pressure preconditioner needs degree ≥ 1
    // below the fine order, so the fine order must be at least 2: a usage
    // error, not a panic.
    let out = Command::new(env!("CARGO_BIN_EXE_run_dns"))
        .args(["--order", "1", "--steps", "1", "--resolution", "1"])
        .output()
        .expect("run_dns starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("--order must be at least 2"), "{stderr}");
}

/// `run_dns` on a one-element box at order 3 for one step with `extra`
/// flags; returns the exit code, stdout and stderr.
fn run_once(name: &str, extra: &[&str]) -> (Option<i32>, String, String) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("run_dns_cli")
        .join(name);
    let _ = std::fs::remove_dir_all(&out);
    let res = Command::new(env!("CARGO_BIN_EXE_run_dns"))
        .args(["--steps", "1", "--order", "3", "--resolution", "1"])
        .args(["--threads", "1", "--out"])
        .arg(&out)
        .args(extra)
        .output()
        .expect("run_dns starts");
    (
        res.status.code(),
        String::from_utf8_lossy(&res.stdout).into_owned(),
        String::from_utf8_lossy(&res.stderr).into_owned(),
    )
}

#[test]
fn coarse_order_flag_is_echoed_and_range_checked() {
    let coarse_order = |stdout: &str| {
        let line = stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix("config: "))
            .expect("a config line");
        let cfg = Value::parse(line).expect("config is JSON");
        cfg.get("coarse_order").and_then(Value::as_u64)
    };
    // The paper's linear coarse space, and the default (degree 2).
    let (code, stdout, stderr) = run_once("coarse_order_1", &["--coarse-order", "1"]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert_eq!(coarse_order(&stdout), Some(1), "{stdout}");
    let (code, stdout, stderr) = run_once("coarse_order_default", &[]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert_eq!(coarse_order(&stdout), Some(2), "{stdout}");
    // Outside 1 ≤ N < --order: a usage error.
    for bad in ["0", "3"] {
        let (code, _, stderr) = run_once("coarse_order_bad", &["--coarse-order", bad]);
        assert_eq!(code, Some(2), "--coarse-order {bad}: stderr:\n{stderr}");
        assert!(
            stderr.contains("--coarse-order must be in 1..3"),
            "{stderr}"
        );
    }
}
