//! End-to-end time-step benchmark of the rbx solver.
//!
//! Every run restores a developed state, replays a fixed window of steps
//! from it several times in one process, and reports medians over the
//! windows (tracing off). A traced run adds a counting communicator and
//! spans around each layer call, and gives the per-layer metrics. See
//! README.md in this directory for the workloads and the metric table.

pub mod comm;
pub mod host;
pub mod replay;
pub mod report;
pub mod state;
pub mod stats;
pub mod trace;
pub mod workload;

pub use replay::Options;
pub use report::{Metric, Verdict};
pub use workload::{Scale, Workload};

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Correctness, attempted and failed operations.
    pub verdict: Verdict,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable notes: set-up, replay plan, host noise.
    pub notes: Vec<String>,
}

/// Run one workload as `opts` says.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let spec = opts.workload.case(opts.scale);
    let (chk, generated) = state::developed_state(&spec, &opts.work_dir)?;
    let mut notes = Vec::new();
    if let Some(s) = generated {
        notes.push(format!(
            "developed state generated in {s:.2} s ({} steps, counted in no metric)",
            spec.base_steps
        ));
    }
    let ranks = opts.workload.ranks();
    let mut outcomes =
        rbx::comm::run_on_ranks(ranks, |tc| replay::run_rank(opts, &spec, &chk, tc)).into_iter();
    let r = outcomes.next().expect("rank 0 ran")?;
    for (i, o) in outcomes.enumerate() {
        o.map_err(|e| format!("rank {}: {e}", i + 1))?;
    }

    let verdict = report::verdict(&spec, &r);
    let windows = &r.untraced;
    let host = report::host_total(windows);
    let seq: Vec<String> = windows[0].iters.iter().map(|i| i[0].to_string()).collect();
    notes.push(format!(
        "{}: {} set-ups, {} windows of {} steps from step {} (seed {}), pressure iterations {}",
        opts.workload.name(),
        r.setup_s.len(),
        windows.len(),
        spec.window,
        spec.base_steps,
        opts.seed,
        seq.join(" ")
    ));
    let per_window: Vec<String> = windows
        .iter()
        .map(|w| format!("{:.2}", 1e3 * w.wall_s / w.step_s.len() as f64))
        .collect();
    let end = windows[0].end;
    notes.push(format!(
        "window ms/step {}; end of window: volume Nu {:.9}, wall Nu {:.9}, KE {:.9e}",
        per_window.join(" "),
        end.nu_volume,
        end.nu_wall,
        end.ke
    ));
    let sum = |f: fn(&replay::Window) -> u64| windows.iter().map(f).sum::<u64>();
    notes.push(format!(
        "failed operations: {} degraded steps, {} dropped snapshots, {} failed checkpoint writes",
        sum(|w| w.degraded),
        sum(|w| w.dropped),
        sum(|w| w.write_errors)
    ));
    notes.push(format!(
        "host noise over the timed windows: steal {:.1} %, run-queue wait {:.2} ms/step",
        100.0 * host.steal_frac(),
        1e3 * host.runq_s / windows.iter().map(|w| w.step_s.len()).sum::<usize>() as f64
    ));
    let metrics = match &r.traced {
        Some(t) => {
            let path = opts.work_dir.join("trace").join(format!(
                "{}_seed{}_rank0.jsonl",
                opts.workload.name(),
                opts.seed
            ));
            t.tracer
                .write_jsonl(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            notes.push(format!(
                "traced run: {} windows, {} spans written to {}",
                t.windows.len(),
                t.tracer.spans().len(),
                path.display()
            ));
            report::per_layer(&r, t, &chk)?
        }
        None => report::end_to_end(&r, host::peak_rss_mb()?),
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    Ok(RunResult {
        verdict,
        metrics,
        notes,
    })
}
