//! From rank 0's measurements to the run's verdict and metrics.

use std::path::Path;

use crate::host::HostDelta;
use crate::replay::{Iters, RankOutcome, Traced, Window};
use crate::stats::{mean, median, nearest_rank, percentile};
use crate::workload::CaseSpec;

/// Quantile of `Simulation::step` wall time reported as
/// `sim.step_ms_p95`. The projection restarts make roughly one step in ten
/// a spike, so the 90th percentile sits on the edge between spikes and
/// ordinary steps and jumps with the spike count of a window; the 95th
/// lies inside the spikes.
pub const STEP_TAIL_QUANTILE: f64 = 0.95;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in BENCHMARK.json.
    pub name: &'static str,
    /// Unit, as in BENCHMARK.json.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Every window passed the correctness gate and replayed identically.
    pub correct: bool,
    /// Operations attempted: steps, snapshots, checkpoint writes and
    /// end-of-window correctness checks.
    pub attempted: u64,
    /// Operations failed: degraded or diverged steps, dropped snapshots,
    /// failed checkpoint writes and failed correctness checks.
    pub failed: u64,
    /// Why the run is not correct, one line per reason.
    pub problems: Vec<String>,
}

/// Check every window — untraced and traced — against the correctness
/// gate and against the first window's iteration sequence.
pub fn verdict(spec: &CaseSpec, r: &RankOutcome) -> Verdict {
    let traced: &[Window] = r.traced.as_ref().map_or(&[], |t| &t.windows);
    let all: Vec<(&str, usize, &Window)> = r
        .untraced
        .iter()
        .enumerate()
        .map(|(i, w)| ("untraced", i, w))
        .chain(traced.iter().enumerate().map(|(i, w)| ("traced", i, w)))
        .collect();
    let mut v = Verdict {
        correct: true,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let reference = &r.untraced[0].iters;
    for (phase, i, w) in all {
        v.attempted += w.attempted + 1;
        v.failed += w.failed();
        if let Err(e) = spec.check(w.end.nu_volume, w.end.nu_wall, w.end.ke) {
            v.failed += 1;
            v.correct = false;
            v.problems
                .push(format!("correctness gate, {phase} window {i}: {e}"));
        }
        if let Some(e) = replay_mismatch(reference, &w.iters) {
            v.correct = false;
            v.problems
                .push(format!("replay not deterministic, {phase} window {i}: {e}"));
        }
    }
    v
}

/// Where `got` departs from the reference iteration sequence, if it does.
pub fn replay_mismatch(reference: &[Iters], got: &[Iters]) -> Option<String> {
    if reference.len() != got.len() {
        return Some(format!("{} steps vs {}", got.len(), reference.len()));
    }
    reference
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .map(|s| {
            format!(
                "step {s} of the window ran {:?} iterations, the first window {:?}",
                got[s], reference[s]
            )
        })
}

fn per_step_ms(windows: &[Window], f: impl Fn(&Window) -> f64) -> Vec<f64> {
    windows
        .iter()
        .map(|w| 1e3 * f(w) / w.step_s.len() as f64)
        .collect()
}

/// Median wall milliseconds per step over `windows`.
pub fn ms_per_step(windows: &[Window]) -> f64 {
    median(&per_step_ms(windows, |w| w.wall_s))
}

/// Host activity summed over `windows`.
pub fn host_total(windows: &[Window]) -> HostDelta {
    let mut h = HostDelta::default();
    for w in windows {
        h.add(&w.host);
    }
    h
}

fn total_steps(windows: &[Window]) -> f64 {
    windows.iter().map(|w| w.step_s.len()).sum::<usize>() as f64
}

/// The end-to-end metrics of the untraced windows.
pub fn end_to_end(r: &RankOutcome, peak_rss_mb: f64) -> Vec<Metric> {
    let w = &r.untraced;
    vec![
        metric("ms_per_step", "ms", ms_per_step(w)),
        metric(
            "cpu_ms_per_step",
            "ms",
            median(&per_step_ms(w, |w| w.host.cpu_s)),
        ),
        metric("setup_s", "s", median(&r.setup_s)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// The tail of `Simulation::step` wall time over `windows`, in ms.
fn step_tail_ms(windows: &[Window]) -> Result<f64, String> {
    let steps_ms: Vec<f64> = windows
        .iter()
        .flat_map(|w| &w.step_s)
        .map(|s| 1e3 * s)
        .collect();
    percentile(&steps_ms, STEP_TAIL_QUANTILE).ok_or_else(|| {
        format!(
            "sim.step_ms_p95 refused: {} timed steps leave fewer than 10 above it",
            steps_ms.len()
        )
    })
}

/// The per-layer metrics of the traced run.
pub fn per_layer(r: &RankOutcome, t: &Traced, checkpoint: &Path) -> Result<Vec<Metric>, String> {
    let w = &t.windows;
    let steps = total_steps(w);
    let spans = |name: &str| -> Result<f64, String> {
        let d = t.tracer.durations(name);
        if d.is_empty() {
            Err(format!("traced run recorded no {name} span"))
        } else {
            Ok(median(&d))
        }
    };
    let first = &w[0].iters;
    let p_iters: Vec<f64> = first.iter().map(|i| i[0] as f64).collect();
    let v_iters: Vec<f64> = first
        .iter()
        .flat_map(|i| [i[1], i[2], i[3]])
        .map(|n| n as f64)
        .collect();
    let t_iters: Vec<f64> = first.iter().map(|i| i[4] as f64).collect();
    let [pressure_ms, velocity_ms, temperature_ms, other_ms] = t.phase_ms;
    let per_step = |f: &dyn Fn(&Window) -> u64| w.iter().map(f).sum::<u64>() as f64 / steps;
    let host = host_total(w);
    let iso = &t.isolated;
    let helmholtz_s = spans("helmholtz.apply_with")?;
    let bytes = std::fs::metadata(checkpoint)
        .map_err(|e| format!("{}: {e}", checkpoint.display()))?
        .len();
    Ok(vec![
        metric("sim.pressure_ms", "ms", pressure_ms),
        metric("sim.velocity_ms", "ms", velocity_ms),
        metric("sim.temperature_ms", "ms", temperature_ms),
        metric("sim.other_ms", "ms", other_ms),
        metric("sim.step_ms_p95", "ms", step_tail_ms(w)?),
        metric("krylov.p_iters_mean", "count", mean(&p_iters)),
        metric("krylov.p_iters_p90", "count", nearest_rank(&p_iters, 0.9)),
        metric(
            "krylov.p_iters_max",
            "count",
            p_iters.iter().copied().fold(0.0, f64::max),
        ),
        metric("krylov.v_iters_mean", "count", mean(&v_iters)),
        metric("krylov.t_iters_mean", "count", mean(&t_iters)),
        metric(
            "krylov.p_ms_per_iter",
            "ms",
            pressure_ms / mean(&p_iters).max(1.0),
        ),
        metric(
            "krylov.degraded_steps",
            "count",
            w.iter().map(|w| w.degraded).sum::<u64>() as f64 / w.len() as f64,
        ),
        metric("helmholtz.apply_us", "us", 1e6 * helmholtz_s),
        metric(
            "helmholtz.gflops_computed",
            "GFLOP/s",
            iso.helmholtz_flops / helmholtz_s * 1e-9,
        ),
        metric(
            "helmholtz.gbs_computed",
            "GB/s",
            iso.helmholtz_bytes / helmholtz_s * 1e-9,
        ),
        metric("schwarz.apply_us", "us", 1e6 * spans("schwarz.apply")?),
        metric(
            "schwarz.overlapped_apply_us",
            "us",
            1e6 * spans("schwarz.apply_overlapped")?,
        ),
        metric("ops.dot_us", "us", 1e6 * spans("ops.dot_with")?),
        metric("gs.apply_us", "us", 1e6 * spans("gs.apply")?),
        metric("gs.shared_bytes_per_apply", "B", iso.gs_bytes_per_apply),
        metric(
            "pool.dispatches_per_step",
            "count",
            per_step(&|w| w.pool.dispatches),
        ),
        metric(
            "pool.chunks_per_step",
            "count",
            per_step(&|w| w.pool.chunks),
        ),
        metric(
            "pool.grained_per_step",
            "count",
            per_step(&|w| w.pool.grained),
        ),
        metric(
            "pool.worker_cpu_frac",
            "ratio",
            host.pool_cpu_s / host.cpu_s.max(f64::MIN_POSITIVE),
        ),
        metric(
            "comm.allreduces_per_step",
            "count",
            per_step(&|w| w.comm.allreduces),
        ),
        metric("comm.msgs_per_step", "count", per_step(&|w| w.comm.msgs)),
        metric("comm.bytes_per_step", "B", per_step(&|w| w.comm.bytes)),
        metric(
            "comm.wait_ms_per_step",
            "ms",
            per_step(&|w| w.comm.wait_ns) * 1e-6,
        ),
        metric(
            "checkpoint.write_ms",
            "ms",
            1e3 * spans("checkpoint.write")?,
        ),
        metric("checkpoint.read_ms", "ms", 1e3 * spans("checkpoint.read")?),
        metric("checkpoint.bytes", "B", bytes as f64),
        metric("compress.field_ms", "ms", 1e3 * spans("compress.field")?),
        metric("compress.ratio", "ratio", iso.compress_ratio),
        metric(
            "compress.drops",
            "count",
            w.iter().map(|w| w.dropped).sum::<u64>() as f64,
        ),
        metric(
            "observables.sample_ms",
            "ms",
            1e3 * spans("observables.sample")?,
        ),
        metric("host.steal_frac", "ratio", host.steal_frac()),
        metric(
            "host.runq_wait_ms_per_step",
            "ms",
            1e3 * host.runq_s / steps,
        ),
        metric(
            "trace.overhead_frac",
            "ratio",
            ms_per_step(w) / ms_per_step(&r.untraced) - 1.0,
        ),
    ])
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn json_line(v: &Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct,
        v.attempted,
        v.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(step_s: &[f64], iters: &[Iters]) -> Window {
        Window {
            wall_s: step_s.iter().sum(),
            step_s: step_s.to_vec(),
            iters: iters.to_vec(),
            ..Default::default()
        }
    }

    #[test]
    fn ms_per_step_is_the_median_window() {
        let it = [[1, 1, 1, 1, 1]; 2];
        let ws = vec![
            window(&[0.010, 0.010], &it),
            window(&[0.011, 0.011], &it),
            // A window stretched by steal does not move the median.
            window(&[0.050, 0.050], &it),
        ];
        assert!((ms_per_step(&ws) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn replay_mismatch_names_the_step() {
        let a = [[3, 1, 1, 1, 2], [9, 1, 1, 1, 2]];
        let mut b = a;
        assert_eq!(replay_mismatch(&a, &b), None);
        b[1][0] = 10;
        let e = replay_mismatch(&a, &b).expect("differs");
        assert!(e.contains("step 1"), "{e}");
        assert!(replay_mismatch(&a, &a[..1]).is_some());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let v = Verdict {
            correct: true,
            attempted: 40,
            failed: 0,
            problems: Vec::new(),
        };
        let line = json_line(&v, &[metric("ms_per_step", "ms", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 40, \"failed\": 0, \"metrics\": \
             {\"ms_per_step\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
