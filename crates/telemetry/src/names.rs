//! Canonical span-path and metric-name registry for `rbx.telemetry.v1`.
//!
//! Every span path and metric name the production code emits is declared
//! here, once, next to its kind and meaning. The `rbx-audit` analyzer
//! cross-checks string literals at instrumentation call sites in
//! `crates/{core,la,gs}` against this table, so instrumentation and schema
//! cannot silently diverge: renaming a span in code without updating the
//! registry (or vice versa) fails CI.
//!
//! Dashboards and the JSONL/Prometheus consumers should treat this module
//! as the source of truth for what a given name means.

/// Kind of a registered metric, matching how the `MetricsRegistry` is fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter (`counter_add`).
    Counter,
    /// Last-write-wins gauge (`gauge_set`).
    Gauge,
    /// Log-bucketed histogram (`histogram_observe`).
    Histogram,
}

/// A registered metric: base name (labels stripped), kind, and meaning.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Base name without any `{label=...}` suffix.
    pub name: &'static str,
    pub kind: MetricKind,
    /// One-line description for dashboards.
    pub help: &'static str,
}

/// A registered span path (absolute, `/`-separated).
#[derive(Debug, Clone, Copy)]
pub struct SpanDef {
    pub path: &'static str,
    pub help: &'static str,
}

/// All span paths production code opens, as absolute paths. Spans opened
/// with the *relative* [`crate::Telemetry::span`] API nest under whichever
/// span is innermost on the calling thread; the registry lists the paths
/// they produce in the canonical step-loop nesting.
pub const SPANS: &[SpanDef] = &[
    SpanDef {
        path: "step/pressure",
        help: "pressure RHS assembly + Poisson solve (Fig. 4 bin)",
    },
    SpanDef {
        path: "step/velocity",
        help: "velocity RHS + Helmholtz solves (Fig. 4 bin)",
    },
    SpanDef {
        path: "step/temperature",
        help: "temperature RHS + Helmholtz solve (Fig. 4 bin)",
    },
    SpanDef {
        path: "step/other",
        help: "advection, lag shuffling, everything else (Fig. 4 bin)",
    },
    SpanDef {
        path: "schwarz/coarse",
        help: "two-level Schwarz coarse correction (restrict+solve+prolong)",
    },
    SpanDef {
        path: "schwarz/coarse/restrict",
        help: "fine-to-coarse restriction transfer",
    },
    SpanDef {
        path: "schwarz/coarse/solve",
        help: "coarse-space direct/iterative solve",
    },
    SpanDef {
        path: "schwarz/coarse/prolong",
        help: "coarse-to-fine prolongation transfer",
    },
    SpanDef {
        path: "coarse/factor",
        help: "coarse-grid set-up: global numbering, nested-dissection ordering, assembly and Cholesky factorisation (once per Simulation)",
    },
    SpanDef {
        path: "schwarz/gs",
        help: "weighted gather-scatter averaging after the overlap joins",
    },
    SpanDef {
        path: "gs/shared",
        help: "gather-scatter: inter-rank exchange + combine",
    },
    SpanDef {
        path: "pool/helmholtz",
        help: "pooled Helmholtz operator apply inside a Krylov solve",
    },
    SpanDef {
        path: "pool/dot",
        help: "pooled deterministic dot product inside a Krylov solve",
    },
    SpanDef {
        path: "pool/advect",
        help: "pooled dealiased advection of velocity and temperature",
    },
    SpanDef {
        path: "pool/fdm",
        help: "pooled element-FDM sweep (Schwarz fine level)",
    },
    SpanDef {
        path: "pool/gs",
        help: "pooled gather-scatter local gather / scatter phase",
    },
    SpanDef {
        path: "comm/recv",
        help: "hardened deadline receive (unframe + dedupe + resequence)",
    },
    SpanDef {
        path: "comm/retry",
        help: "receive retry after a timeout (backoff applied)",
    },
    SpanDef {
        path: "comm/abort",
        help: "poisoned-epoch abort: collective drain and epoch bump",
    },
    SpanDef {
        path: "repartition/plan",
        help: "restart repartitioner: RCB over the surviving rank count",
    },
    SpanDef {
        path: "repartition/rebuild",
        help: "rebuild of simulation + gather-scatter on the new partition",
    },
    SpanDef {
        path: "repartition/restore",
        help: "topology-free checkpoint restore onto the new partition",
    },
];

/// All metric base names production code feeds. Call sites may append
/// `{label=value}` suffixes; the audit strips those before the lookup.
pub const METRICS: &[MetricDef] = &[
    MetricDef {
        name: "rbx_steps_total",
        kind: MetricKind::Counter,
        help: "completed time steps",
    },
    MetricDef {
        name: "rbx_step_verdict_total",
        kind: MetricKind::Counter,
        help: "step verdicts by outcome label",
    },
    MetricDef {
        name: "rbx_step_dt",
        kind: MetricKind::Gauge,
        help: "current time-step size",
    },
    MetricDef {
        name: "rbx_sim_time",
        kind: MetricKind::Gauge,
        help: "simulated time",
    },
    MetricDef {
        name: "rbx_cfl",
        kind: MetricKind::Gauge,
        help: "advective CFL number of the last step",
    },
    MetricDef {
        name: "rbx_nusselt_hot",
        kind: MetricKind::Gauge,
        help: "instantaneous Nusselt number at the hot plate",
    },
    MetricDef {
        name: "rbx_step_wall_seconds",
        kind: MetricKind::Histogram,
        help: "wall-clock seconds per completed step",
    },
    MetricDef {
        name: "rbx_solve_iterations",
        kind: MetricKind::Histogram,
        help: "Krylov iterations per solve, labelled by solver/label",
    },
    MetricDef {
        name: "rbx_solve_initial_residual",
        kind: MetricKind::Histogram,
        help: "initial residual norm per solve",
    },
    MetricDef {
        name: "rbx_solve_final_residual",
        kind: MetricKind::Histogram,
        help: "final residual norm per solve",
    },
    MetricDef {
        name: "rbx_solve_outcome_total",
        kind: MetricKind::Counter,
        help: "solve outcomes by solver/health labels",
    },
    MetricDef {
        name: "rbx_recovery_events_total",
        kind: MetricKind::Counter,
        help: "resilience events by event label",
    },
    MetricDef {
        name: "rbx_gs_messages_total",
        kind: MetricKind::Counter,
        help: "gather-scatter messages exchanged",
    },
    MetricDef {
        name: "rbx_gs_bytes_total",
        kind: MetricKind::Counter,
        help: "gather-scatter payload bytes exchanged",
    },
    MetricDef {
        name: "rbx_pool_threads",
        kind: MetricKind::Gauge,
        help: "worker-pool size (workers + calling thread)",
    },
    MetricDef {
        name: "rbx_pool_dispatches_total",
        kind: MetricKind::Counter,
        help: "parallel regions dispatched to the worker pool",
    },
    MetricDef {
        name: "rbx_pool_chunks_total",
        kind: MetricKind::Counter,
        help: "self-scheduled chunks claimed across pool dispatches",
    },
    MetricDef {
        name: "rbx_pool_grained_total",
        kind: MetricKind::Counter,
        help: "parallel regions run inline because the work sat below the tuned grain crossover",
    },
    MetricDef {
        name: "rbx_kernel_simd_active",
        kind: MetricKind::Gauge,
        help: "active SIMD kernel level (0 = scalar, 1 = avx2+fma); fixed for a whole run",
    },
    MetricDef {
        name: "rbx_pool_items_total",
        kind: MetricKind::Counter,
        help: "loop iterations covered by pool dispatches",
    },
    MetricDef {
        name: "rbx_comm_timeouts_total",
        kind: MetricKind::Counter,
        help: "receives that exhausted their deadline and retry budget",
    },
    MetricDef {
        name: "rbx_comm_retries_total",
        kind: MetricKind::Counter,
        help: "receive retry attempts after a timed-out attempt",
    },
    MetricDef {
        name: "rbx_comm_corrupt_detected_total",
        kind: MetricKind::Counter,
        help: "frames rejected by the CRC-64 framing check",
    },
    MetricDef {
        name: "rbx_comm_duplicates_total",
        kind: MetricKind::Counter,
        help: "duplicated frames shed by sequence-number dedupe",
    },
    MetricDef {
        name: "rbx_comm_reordered_total",
        kind: MetricKind::Counter,
        help: "out-of-order frames parked for in-order delivery",
    },
    MetricDef {
        name: "rbx_comm_epoch_aborts_total",
        kind: MetricKind::Counter,
        help: "poisoned-epoch aborts recovered from",
    },
    MetricDef {
        name: "rbx_comm_pending_highwater",
        kind: MetricKind::Gauge,
        help: "high-water mark of the unmatched-message pending buffer",
    },
    MetricDef {
        name: "rbx_recovery_shrink_total",
        kind: MetricKind::Counter,
        help: "shrink-and-continue events (permanent rank death survived)",
    },
    MetricDef {
        name: "rbx_repartition_moved_elements",
        kind: MetricKind::Counter,
        help: "elements reassigned to a different rank by the restart repartitioner",
    },
    MetricDef {
        name: "rbx_flight_dumps_total",
        kind: MetricKind::Counter,
        help: "flight-recorder post-mortem dumps written",
    },
    MetricDef {
        name: "rbx_obs_phase_gap_total",
        kind: MetricKind::Counter,
        help: "steps whose phase spans failed to sum to wall time within 1%",
    },
    MetricDef {
        name: "rbx_health_events_total",
        kind: MetricKind::Counter,
        help: "online health-detector events by detector label",
    },
    MetricDef {
        name: "rbx_checkpoint_write_seconds",
        kind: MetricKind::Histogram,
        help: "wall-clock seconds per checkpoint write (latency-growth detector input)",
    },
    MetricDef {
        name: "rbx_obs_gather_reports_total",
        kind: MetricKind::Counter,
        help: "out-of-band step-health reports drained by rank 0",
    },
    MetricDef {
        name: "rbx_insitu_dropped_total",
        kind: MetricKind::Counter,
        help: "analysis slabs dropped by the solver-side tap (full window or dead analysis rank)",
    },
    MetricDef {
        name: "rbx_insitu_slabs_sent_total",
        kind: MetricKind::Counter,
        help: "analysis slabs accepted into the best-effort slab channel",
    },
    MetricDef {
        name: "rbx_insitu_queue_highwater",
        kind: MetricKind::Gauge,
        help: "high-water mark of unacked slabs in flight to the analysis plane",
    },
    MetricDef {
        name: "rbx_insitu_slabs_received_total",
        kind: MetricKind::Counter,
        help: "slabs decoded and analyzed by the analysis ranks",
    },
    MetricDef {
        name: "rbx_insitu_corrupt_total",
        kind: MetricKind::Counter,
        help: "slabs rejected by the analysis plane (framing, body, or payload decode)",
    },
    MetricDef {
        name: "rbx_insitu_gap_total",
        kind: MetricKind::Counter,
        help: "sequence gaps observed by analysis ranks (slabs dropped upstream)",
    },
    MetricDef {
        name: "rbx_insitu_compress_busy_total",
        kind: MetricKind::Counter,
        help: "field snapshots dropped because both async-compressor buffer slots were busy",
    },
    MetricDef {
        name: "rbx_insitu_records_total",
        kind: MetricKind::Counter,
        help: "rbx.insitu.v1 records emitted by the analysis plane",
    },
];

/// Metric fed by [`crate::Telemetry::dump_flight`].
pub const FLIGHT_DUMPS_TOTAL: &str = "rbx_flight_dumps_total";
/// Metric fed by the cross-rank aggregator's phase-sum re-verification.
pub const OBS_PHASE_GAP_TOTAL: &str = "rbx_obs_phase_gap_total";
/// Metric fed by the online health monitor (label: detector name).
pub const HEALTH_EVENTS_TOTAL: &str = "rbx_health_events_total";
/// Histogram fed by the resilient runner around checkpoint writes.
pub const CHECKPOINT_WRITE_SECONDS: &str = "rbx_checkpoint_write_seconds";
/// Metric fed by rank 0 when draining out-of-band step-health reports.
pub const OBS_GATHER_REPORTS_TOTAL: &str = "rbx_obs_gather_reports_total";
/// Metric fed by the solver-side slab tap on every dropped slab.
pub const INSITU_DROPPED_TOTAL: &str = "rbx_insitu_dropped_total";
/// Metric fed by the solver-side slab tap on every accepted slab.
pub const INSITU_SLABS_SENT_TOTAL: &str = "rbx_insitu_slabs_sent_total";
/// Gauge fed by the solver-side slab tap: unacked slabs in flight.
pub const INSITU_QUEUE_HIGHWATER: &str = "rbx_insitu_queue_highwater";
/// Metric fed by the analysis-rank runtime per decoded slab.
pub const INSITU_SLABS_RECEIVED_TOTAL: &str = "rbx_insitu_slabs_received_total";
/// Metric fed by the analysis-rank runtime per rejected slab.
pub const INSITU_CORRUPT_TOTAL: &str = "rbx_insitu_corrupt_total";
/// Metric fed by the analysis-rank runtime on observed sequence gaps.
pub const INSITU_GAP_TOTAL: &str = "rbx_insitu_gap_total";
/// Metric fed at the async-compressor call site on busy drops.
pub const INSITU_COMPRESS_BUSY_TOTAL: &str = "rbx_insitu_compress_busy_total";
/// Metric fed by the analysis-rank runtime per emitted record.
pub const INSITU_RECORDS_TOTAL: &str = "rbx_insitu_records_total";

/// Strip a `{label=...}` suffix from a metric name, returning the base
/// name the registry is keyed by.
pub fn metric_base(name: &str) -> &str {
    match name.find('{') {
        Some(i) => &name[..i],
        None => name,
    }
}

/// Look up a metric by (label-stripped) name.
pub fn find_metric(name: &str) -> Option<&'static MetricDef> {
    let base = metric_base(name);
    METRICS.iter().find(|m| m.name == base)
}

/// Look up a span path.
pub fn find_span(path: &str) -> Option<&'static SpanDef> {
    SPANS.iter().find(|s| s.path == path)
}

/// Is `path` a registered span path, or a descendant of one produced by
/// nesting relative spans under a registered absolute path?
pub fn span_registered(path: &str) -> bool {
    find_span(path).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_hit_registered_names() {
        assert!(find_span("pool/fdm").is_some());
        assert!(find_span("nope/nope").is_none());
        assert_eq!(
            find_metric("rbx_steps_total").map(|m| m.kind),
            Some(MetricKind::Counter)
        );
        assert!(find_metric("rbx_bogus").is_none());
    }

    #[test]
    fn label_suffixes_are_stripped() {
        let m = find_metric("rbx_solve_outcome_total{solver=pcg,health=healthy}")
            .expect("labelled lookup");
        assert_eq!(m.name, "rbx_solve_outcome_total");
        assert_eq!(m.kind, MetricKind::Counter);
        assert_eq!(metric_base("rbx_cfl"), "rbx_cfl");
    }

    #[test]
    fn registry_has_no_duplicates() {
        for (i, a) in METRICS.iter().enumerate() {
            for b in &METRICS[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate metric {}", a.name);
            }
        }
        for (i, a) in SPANS.iter().enumerate() {
            for b in &SPANS[i + 1..] {
                assert_ne!(a.path, b.path, "duplicate span {}", a.path);
            }
        }
    }
}
