//! Versioned record schemas and validators.
//!
//! Every record the telemetry sinks emit carries a `schema` field so
//! consumers (and CI) can check compatibility before reading anything
//! else. Two schemas exist:
//!
//! * `rbx.telemetry.v1` — the JSONL event stream from a run: one record
//!   per time step (`kind: "step"`), per Krylov solve (`"solve"`), per
//!   resilience event (`"recovery"`), plus one end-of-run `"summary"`.
//! * `rbx.bench.v1` — versioned benchmark results from the figure bins
//!   (`fig2_overlap`, `fig4_breakdown`): a column-major table plus
//!   free-form metadata, consumed as-is by the CI artifact step.

use crate::json::Value;

/// Telemetry event-stream schema identifier.
pub const TELEMETRY_SCHEMA: &str = "rbx.telemetry.v1";

/// Benchmark record schema identifier.
pub const BENCH_SCHEMA: &str = "rbx.bench.v1";

/// Flight-recorder post-mortem dump schema identifier. A dump file is one
/// `flight_header` line followed by the retained `rbx.telemetry.v1`
/// records oldest-first.
pub const FLIGHT_SCHEMA: &str = "rbx.flight.v1";

/// Cross-rank merged timeline schema identifier: one `timeline_header`
/// line, one `tstep` line per aligned step with derived metrics, one
/// trailing `tsummary` line.
pub const TIMELINE_SCHEMA: &str = "rbx.timeline.v1";

/// Online health-event schema identifier (one `health` record per
/// detector raise/clear transition).
pub const HEALTH_SCHEMA: &str = "rbx.health.v1";

/// In-situ analysis-plane schema identifier: `sender` records from the
/// solver-side slab tap, `slab` records from the analysis ranks, one
/// `analysis_summary` per analysis rank at end of run.
pub const INSITU_SCHEMA: &str = "rbx.insitu.v1";

fn require<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn require_num(v: &Value, key: &str) -> Result<f64, String> {
    require(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} must be a number"))
}

fn require_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    require(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

fn require_int(v: &Value, key: &str) -> Result<u64, String> {
    require(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
}

/// Residual fields may be non-finite on a broken solve; the JSON writer
/// serializes NaN/Inf as `null`, so the schema admits both.
fn require_num_or_null(v: &Value, key: &str) -> Result<(), String> {
    let f = require(v, key)?;
    if f.as_f64().is_none() && !matches!(f, Value::Null) {
        return Err(format!(
            "field {key:?} must be a number or null (non-finite)"
        ));
    }
    Ok(())
}

fn require_num_arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    let arr = require(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} must be an array"))?;
    for (i, item) in arr.iter().enumerate() {
        if item.as_f64().is_none() {
            return Err(format!("field {key:?}[{i}] must be a number"));
        }
    }
    Ok(arr)
}

/// Validate one line of a run's JSONL stream. Solver streams are mostly
/// `rbx.telemetry.v1` records but may interleave `rbx.health.v1` events
/// and `rbx.insitu.v1` analysis-plane records (they share the sink);
/// dispatch on the `schema` field so mixed streams stay valid.
pub fn validate_line(line: &str) -> Result<(), String> {
    let v = Value::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    match require_str(&v, "schema")? {
        HEALTH_SCHEMA => validate_health(&v),
        INSITU_SCHEMA => validate_insitu(&v),
        _ => validate_record(&v),
    }
}

/// Validate one parsed `rbx.telemetry.v1` record.
pub fn validate_record(v: &Value) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != TELEMETRY_SCHEMA {
        return Err(format!(
            "unknown schema {schema:?} (expected {TELEMETRY_SCHEMA:?})"
        ));
    }
    let kind = require_str(v, "kind")?;
    match kind {
        "step" => validate_step(v),
        "solve" => validate_solve(v),
        "recovery" => validate_recovery(v),
        "summary" => validate_summary(v),
        other => Err(format!("unknown record kind {other:?}")),
    }
}

fn validate_step(v: &Value) -> Result<(), String> {
    require_int(v, "step")?;
    require_num(v, "time")?;
    require_num(v, "dt")?;
    let wall = require_num(v, "wall_s")?;
    if wall < 0.0 {
        return Err("wall_s must be non-negative".to_string());
    }
    let phases = require(v, "phases")?;
    let fields = phases
        .as_obj()
        .ok_or_else(|| "field \"phases\" must be an object".to_string())?;
    for name in ["pressure", "velocity", "temperature", "other"] {
        let val = phases
            .get(name)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("phases.{name} must be a number"))?;
        if val < 0.0 {
            return Err(format!("phases.{name} must be non-negative"));
        }
    }
    if fields.len() != 4 {
        return Err("phases must have exactly the four Fig. 4 bins".to_string());
    }
    require_int(v, "p_iters")?;
    let v_iters = require_num_arr(v, "v_iters")?;
    if v_iters.len() != 3 {
        return Err("v_iters must have 3 entries".to_string());
    }
    require_int(v, "t_iters")?;
    require_str(v, "verdict")?;
    // Multirank / observability extensions: optional, but typed when
    // present. `cfl` may be null — a diverged step has no finite CFL and
    // non-finite numbers serialize as null.
    for key in ["rank", "gs_bytes", "comm_s"] {
        if let Some(f) = v.get(key) {
            if f.as_f64().is_none() {
                return Err(format!("field {key:?} must be a number when present"));
            }
        }
    }
    if let Some(f) = v.get("cfl") {
        if f.as_f64().is_none() && !matches!(f, Value::Null) {
            return Err("field \"cfl\" must be a number or null when present".to_string());
        }
    }
    Ok(())
}

fn validate_solve(v: &Value) -> Result<(), String> {
    let solver = require_str(v, "solver")?;
    if !matches!(solver, "pcg" | "fgmres") {
        return Err(format!("unknown solver {solver:?}"));
    }
    require_str(v, "label")?;
    require_int(v, "iterations")?;
    require_num_or_null(v, "initial_residual")?;
    require_num_or_null(v, "final_residual")?;
    require(v, "converged")?
        .as_bool()
        .ok_or_else(|| "field \"converged\" must be a boolean".to_string())?;
    require_str(v, "health")?;
    let hist = require(v, "residual_history")?
        .as_arr()
        .ok_or_else(|| "field \"residual_history\" must be an array".to_string())?;
    for (i, item) in hist.iter().enumerate() {
        if item.as_f64().is_none() && !matches!(item, Value::Null) {
            return Err(format!("residual_history[{i}] must be a number or null"));
        }
    }
    if hist.len() > 16 {
        return Err(format!(
            "residual_history holds at most 16 entries, got {}",
            hist.len()
        ));
    }
    Ok(())
}

fn validate_recovery(v: &Value) -> Result<(), String> {
    let event = require_str(v, "event")?;
    const EVENTS: [&str; 8] = [
        "checkpoint_written",
        "checkpoint_write_failed",
        "degraded_step",
        "divergence",
        "generation_rejected",
        "comm_recovered",
        "shrink",
        "rolled_back",
    ];
    if !EVENTS.contains(&event) {
        return Err(format!("unknown recovery event {event:?}"));
    }
    require_str(v, "detail")?;
    Ok(())
}

fn validate_summary(v: &Value) -> Result<(), String> {
    require_int(v, "steps")?;
    require_num(v, "wall_s")?;
    require(v, "recovery_events")?
        .as_arr()
        .ok_or_else(|| "field \"recovery_events\" must be an array".to_string())?;
    Ok(())
}

/// Validate the header line of a `rbx.flight.v1` post-mortem dump. The
/// remaining lines of a dump file are ordinary `rbx.telemetry.v1` records
/// (validate each with [`validate_line`]).
pub fn validate_flight_header(v: &Value) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != FLIGHT_SCHEMA {
        return Err(format!(
            "unknown schema {schema:?} (expected {FLIGHT_SCHEMA:?})"
        ));
    }
    let kind = require_str(v, "kind")?;
    if kind != "flight_header" {
        return Err(format!(
            "flight dump must open with flight_header, got {kind:?}"
        ));
    }
    let rank = require_int(v, "rank")?;
    let ranks = require_int(v, "ranks")?;
    if ranks == 0 || rank >= ranks {
        return Err(format!("rank {rank} out of range for {ranks} ranks"));
    }
    let reason = require_str(v, "reason")?;
    if reason.is_empty() {
        return Err("reason must be non-empty".to_string());
    }
    require_int(v, "step")?;
    require_int(v, "records")?;
    require_int(v, "overwritten")?;
    Ok(())
}

/// Validate one line of a `rbx.timeline.v1` merged timeline.
pub fn validate_timeline_record(v: &Value) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != TIMELINE_SCHEMA {
        return Err(format!(
            "unknown schema {schema:?} (expected {TIMELINE_SCHEMA:?})"
        ));
    }
    let kind = require_str(v, "kind")?;
    match kind {
        "timeline_header" => {
            let ranks = require_int(v, "ranks")?;
            if ranks == 0 {
                return Err("ranks must be positive".to_string());
            }
            require_int(v, "streams")?;
            Ok(())
        }
        "tstep" => {
            require_int(v, "step")?;
            let ranks_seen = require_int(v, "ranks_seen")?;
            if ranks_seen == 0 {
                return Err("ranks_seen must be positive".to_string());
            }
            let wall_max = require_num(v, "wall_max_s")?;
            let wall_mean = require_num(v, "wall_mean_s")?;
            if wall_max < 0.0 || wall_mean < 0.0 {
                return Err("wall times must be non-negative".to_string());
            }
            let imb = require_num(v, "imbalance")?;
            if imb.is_finite() && imb < 1.0 - 1e-9 {
                return Err(format!("imbalance is max/mean, must be >= 1, got {imb}"));
            }
            let straggler = require_int(v, "straggler")?;
            if straggler >= ranks_seen {
                return Err(format!(
                    "straggler rank {straggler} out of range for {ranks_seen} ranks seen"
                ));
            }
            require_num_or_null(v, "comm_ratio")?;
            require_num_or_null(v, "gs_skew")?;
            require_int(v, "phase_gap_ranks")?;
            let phases = require(v, "phases")?;
            phases
                .as_obj()
                .ok_or_else(|| "field \"phases\" must be an object".to_string())?;
            for name in ["pressure", "velocity", "temperature", "other"] {
                phases
                    .get(name)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("phases.{name} must be a number"))?;
            }
            Ok(())
        }
        "tsummary" => {
            require_int(v, "steps")?;
            require_int(v, "ranks")?;
            require_num_or_null(v, "imbalance_mean")?;
            require_num_or_null(v, "imbalance_max")?;
            require_int(v, "phase_gap_total")?;
            require_int(v, "replayed_records")?;
            Ok(())
        }
        other => Err(format!("unknown timeline record kind {other:?}")),
    }
}

/// Detector names the health schema admits.
pub const HEALTH_DETECTORS: [&str; 9] = [
    "cfl_spike",
    "residual_stall",
    "iteration_drift",
    "imbalance",
    "checkpoint_latency",
    "shrink",
    "degraded_step",
    "insitu_drops",
    "insitu_dead",
];

/// Validate one `rbx.health.v1` event record.
pub fn validate_health(v: &Value) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != HEALTH_SCHEMA {
        return Err(format!(
            "unknown schema {schema:?} (expected {HEALTH_SCHEMA:?})"
        ));
    }
    let kind = require_str(v, "kind")?;
    if kind != "health" {
        return Err(format!(
            "health record kind must be \"health\", got {kind:?}"
        ));
    }
    let detector = require_str(v, "detector")?;
    if !HEALTH_DETECTORS.contains(&detector) {
        return Err(format!("unknown detector {detector:?}"));
    }
    let severity = require_str(v, "severity")?;
    if !matches!(severity, "info" | "warn" | "critical") {
        return Err(format!("unknown severity {severity:?}"));
    }
    let state = require_str(v, "state")?;
    if !matches!(state, "raise" | "clear") {
        return Err(format!("state must be raise|clear, got {state:?}"));
    }
    require_int(v, "step")?;
    require_num_or_null(v, "value")?;
    require_num_or_null(v, "threshold")?;
    require_str(v, "detail")?;
    Ok(())
}

/// Build a `rbx.health.v1` event record.
pub fn health_record(
    detector: &str,
    severity: &str,
    state: &str,
    step: u64,
    value: f64,
    threshold: f64,
    detail: &str,
) -> Value {
    Value::obj([
        ("schema", Value::str(HEALTH_SCHEMA)),
        ("kind", Value::str("health")),
        ("detector", Value::str(detector)),
        ("severity", Value::str(severity)),
        ("state", Value::str(state)),
        ("step", Value::int(step)),
        ("value", Value::num(value)),
        ("threshold", Value::num(threshold)),
        ("detail", Value::str(detail)),
    ])
}

/// Validate one `rbx.insitu.v1` record.
pub fn validate_insitu(v: &Value) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != INSITU_SCHEMA {
        return Err(format!(
            "unknown schema {schema:?} (expected {INSITU_SCHEMA:?})"
        ));
    }
    match require_str(v, "kind")? {
        "sender" => {
            require_int(v, "step")?;
            require_int(v, "rank")?;
            require_int(v, "dest")?;
            let sent = require_int(v, "sent")?;
            require_int(v, "dropped")?;
            let acked = require_int(v, "acked")?;
            if acked > sent {
                return Err(format!("acked {acked} exceeds sent {sent}"));
            }
            require_int(v, "inflight_hw")?;
            require(v, "stalled")?
                .as_bool()
                .ok_or_else(|| "field \"stalled\" must be a boolean".to_string())?;
            Ok(())
        }
        "slab" => {
            require_int(v, "step")?;
            require_int(v, "src")?;
            require_num(v, "time")?;
            require_str(v, "var")?;
            let points = require_int(v, "points")?;
            if points == 0 {
                return Err("points must be positive".to_string());
            }
            for key in ["min", "max", "mean", "l2"] {
                require_num_or_null(v, key)?;
            }
            Ok(())
        }
        "analysis_summary" => {
            require_int(v, "rank")?;
            require_int(v, "received")?;
            require_int(v, "corrupt")?;
            require_int(v, "gaps")?;
            require_int(v, "pod_count")?;
            require_int(v, "pod_rank")?;
            Ok(())
        }
        other => Err(format!("unknown insitu record kind {other:?}")),
    }
}

/// Build the solver-side `sender` record of `rbx.insitu.v1`: slab-channel
/// counters of one solver rank at one sample point.
#[allow(clippy::too_many_arguments)]
pub fn insitu_sender_record(
    step: u64,
    rank: u64,
    dest: u64,
    sent: u64,
    dropped: u64,
    acked: u64,
    inflight_hw: u64,
    stalled: bool,
) -> Value {
    Value::obj([
        ("schema", Value::str(INSITU_SCHEMA)),
        ("kind", Value::str("sender")),
        ("step", Value::int(step)),
        ("rank", Value::int(rank)),
        ("dest", Value::int(dest)),
        ("sent", Value::int(sent)),
        ("dropped", Value::int(dropped)),
        ("acked", Value::int(acked)),
        ("inflight_hw", Value::int(inflight_hw)),
        ("stalled", Value::Bool(stalled)),
    ])
}

/// Build the analysis-side `slab` record of `rbx.insitu.v1`: one decoded
/// slab with its field statistics.
#[allow(clippy::too_many_arguments)]
pub fn insitu_slab_record(
    step: u64,
    src: u64,
    time: f64,
    var: &str,
    points: u64,
    min: f64,
    max: f64,
    mean: f64,
    l2: f64,
) -> Value {
    Value::obj([
        ("schema", Value::str(INSITU_SCHEMA)),
        ("kind", Value::str("slab")),
        ("step", Value::int(step)),
        ("src", Value::int(src)),
        ("time", Value::num(time)),
        ("var", Value::str(var)),
        ("points", Value::int(points)),
        ("min", Value::num(min)),
        ("max", Value::num(max)),
        ("mean", Value::num(mean)),
        ("l2", Value::num(l2)),
    ])
}

/// Build the end-of-run `analysis_summary` record of `rbx.insitu.v1`.
pub fn insitu_summary_record(
    rank: u64,
    received: u64,
    corrupt: u64,
    gaps: u64,
    pod_count: u64,
    pod_rank: u64,
) -> Value {
    Value::obj([
        ("schema", Value::str(INSITU_SCHEMA)),
        ("kind", Value::str("analysis_summary")),
        ("rank", Value::int(rank)),
        ("received", Value::int(received)),
        ("corrupt", Value::int(corrupt)),
        ("gaps", Value::int(gaps)),
        ("pod_count", Value::int(pod_count)),
        ("pod_rank", Value::int(pod_rank)),
    ])
}

/// Validate a `rbx.bench.v1` benchmark record.
pub fn validate_bench(v: &Value) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "unknown schema {schema:?} (expected {BENCH_SCHEMA:?})"
        ));
    }
    require_str(v, "name")?;
    let columns = require(v, "columns")?
        .as_arr()
        .ok_or_else(|| "field \"columns\" must be an array".to_string())?;
    for (i, c) in columns.iter().enumerate() {
        if c.as_str().is_none() {
            return Err(format!("columns[{i}] must be a string"));
        }
    }
    let rows = require(v, "rows")?
        .as_arr()
        .ok_or_else(|| "field \"rows\" must be an array".to_string())?;
    for (i, row) in rows.iter().enumerate() {
        let row = row
            .as_arr()
            .ok_or_else(|| format!("rows[{i}] must be an array"))?;
        if row.len() != columns.len() {
            return Err(format!(
                "rows[{i}] has {} entries for {} columns",
                row.len(),
                columns.len()
            ));
        }
        for (j, cell) in row.iter().enumerate() {
            if cell.as_f64().is_none() && cell.as_str().is_none() {
                return Err(format!("rows[{i}][{j}] must be a number or string"));
            }
        }
    }
    if v.get("meta").map(|m| m.as_obj().is_none()) == Some(true) {
        return Err("field \"meta\" must be an object when present".to_string());
    }
    Ok(())
}

/// Build the skeleton of a bench record; callers fill `rows` and `meta`.
pub fn bench_record(
    name: &str,
    columns: &[&str],
    rows: Vec<Vec<Value>>,
    meta: Vec<(&'static str, Value)>,
) -> Value {
    Value::obj([
        ("schema", Value::str(BENCH_SCHEMA)),
        ("name", Value::str(name)),
        (
            "columns",
            Value::arr(columns.iter().map(|c| Value::str(*c))),
        ),
        ("rows", Value::arr(rows.into_iter().map(Value::Arr))),
        ("meta", Value::obj(meta)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_record() -> Value {
        Value::obj([
            ("schema", Value::str(TELEMETRY_SCHEMA)),
            ("kind", Value::str("step")),
            ("step", Value::int(12)),
            ("time", Value::num(0.012)),
            ("dt", Value::num(1e-3)),
            ("wall_s", Value::num(0.05)),
            (
                "phases",
                Value::obj([
                    ("pressure", Value::num(0.04)),
                    ("velocity", Value::num(0.005)),
                    ("temperature", Value::num(0.003)),
                    ("other", Value::num(0.002)),
                ]),
            ),
            ("p_iters", Value::int(19)),
            (
                "v_iters",
                Value::arr([Value::int(4), Value::int(4), Value::int(5)]),
            ),
            ("t_iters", Value::int(4)),
            ("verdict", Value::str("healthy")),
        ])
    }

    #[test]
    fn valid_step_roundtrips_through_text() {
        let rec = step_record();
        validate_record(&rec).unwrap();
        validate_line(&rec.to_string()).unwrap();
    }

    #[test]
    fn step_missing_phase_rejected() {
        let mut rec = step_record();
        if let Value::Obj(fields) = &mut rec {
            for (k, v) in fields.iter_mut() {
                if k == "phases" {
                    *v = Value::obj([("pressure", Value::num(1.0))]);
                }
            }
        }
        assert!(validate_record(&rec).is_err());
    }

    #[test]
    fn wrong_schema_rejected() {
        let rec = Value::obj([
            ("schema", Value::str("rbx.telemetry.v999")),
            ("kind", Value::str("step")),
        ]);
        let err = validate_record(&rec).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
    }

    #[test]
    fn solve_history_bound_enforced() {
        let mut hist = Vec::new();
        for i in 0..17 {
            hist.push(Value::num(1.0 / (i + 1) as f64));
        }
        let rec = Value::obj([
            ("schema", Value::str(TELEMETRY_SCHEMA)),
            ("kind", Value::str("solve")),
            ("solver", Value::str("fgmres")),
            ("label", Value::str("pressure")),
            ("iterations", Value::int(17)),
            ("initial_residual", Value::num(1.0)),
            ("final_residual", Value::num(1e-8)),
            ("converged", Value::Bool(true)),
            ("health", Value::str("healthy")),
            ("residual_history", Value::Arr(hist)),
        ]);
        let err = validate_record(&rec).unwrap_err();
        assert!(err.contains("at most 16"), "{err}");
    }

    #[test]
    fn broken_solve_with_null_residuals_is_valid() {
        // A NaN residual round-trips as null through the writer; the record
        // of a broken solve must still validate (it is the interesting one).
        let rec = Value::obj([
            ("schema", Value::str(TELEMETRY_SCHEMA)),
            ("kind", Value::str("solve")),
            ("solver", Value::str("fgmres")),
            ("label", Value::str("pressure")),
            ("iterations", Value::int(0)),
            ("initial_residual", Value::Null),
            ("final_residual", Value::Null),
            ("converged", Value::Bool(false)),
            ("health", Value::str("non_finite")),
            ("residual_history", Value::Arr(vec![Value::Null])),
        ]);
        validate_record(&rec).unwrap();
        validate_line(&rec.to_string()).unwrap();
        // But a string there is still rejected.
        let bad = Value::obj([
            ("schema", Value::str(TELEMETRY_SCHEMA)),
            ("kind", Value::str("solve")),
            ("solver", Value::str("pcg")),
            ("label", Value::str("t")),
            ("iterations", Value::int(1)),
            ("initial_residual", Value::str("oops")),
            ("final_residual", Value::num(1.0)),
            ("converged", Value::Bool(true)),
            ("health", Value::str("healthy")),
            ("residual_history", Value::Arr(vec![])),
        ]);
        assert!(validate_record(&bad).is_err());
    }

    #[test]
    fn recovery_event_names_checked() {
        let ok = Value::obj([
            ("schema", Value::str(TELEMETRY_SCHEMA)),
            ("kind", Value::str("recovery")),
            ("event", Value::str("rolled_back")),
            ("detail", Value::str("rolled back to step 40")),
            ("step", Value::int(44)),
        ]);
        validate_record(&ok).unwrap();
        let bad = Value::obj([
            ("schema", Value::str(TELEMETRY_SCHEMA)),
            ("kind", Value::str("recovery")),
            ("event", Value::str("exploded")),
            ("detail", Value::str("boom")),
        ]);
        assert!(validate_record(&bad).is_err());
    }

    #[test]
    fn step_optional_obs_fields_typed() {
        let mut rec = step_record();
        if let Value::Obj(fields) = &mut rec {
            fields.push(("rank".to_string(), Value::int(2)));
            fields.push(("cfl".to_string(), Value::num(0.31)));
            fields.push(("gs_bytes".to_string(), Value::int(8192)));
            fields.push(("comm_s".to_string(), Value::num(0.004)));
        }
        validate_record(&rec).unwrap();
        validate_line(&rec.to_string()).unwrap();
        if let Value::Obj(fields) = &mut rec {
            for (k, v) in fields.iter_mut() {
                if k == "cfl" {
                    *v = Value::str("fast");
                }
            }
        }
        assert!(validate_record(&rec).is_err());
    }

    fn flight_header() -> Value {
        Value::obj([
            ("schema", Value::str(FLIGHT_SCHEMA)),
            ("kind", Value::str("flight_header")),
            ("rank", Value::int(1)),
            ("ranks", Value::int(4)),
            ("reason", Value::str("shrink")),
            ("step", Value::int(57)),
            ("records", Value::int(64)),
            ("overwritten", Value::int(120)),
        ])
    }

    #[test]
    fn flight_header_roundtrips() {
        let rec = flight_header();
        validate_flight_header(&rec).unwrap();
        let parsed = Value::parse(&rec.to_string()).unwrap();
        validate_flight_header(&parsed).unwrap();
    }

    #[test]
    fn flight_header_rank_range_checked() {
        let mut rec = flight_header();
        if let Value::Obj(fields) = &mut rec {
            for (k, v) in fields.iter_mut() {
                if k == "rank" {
                    *v = Value::int(4);
                }
            }
        }
        let err = validate_flight_header(&rec).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let mut rec = flight_header();
        if let Value::Obj(fields) = &mut rec {
            for (k, v) in fields.iter_mut() {
                if k == "reason" {
                    *v = Value::str("");
                }
            }
        }
        assert!(validate_flight_header(&rec).is_err());
    }

    fn tstep_record() -> Value {
        Value::obj([
            ("schema", Value::str(TIMELINE_SCHEMA)),
            ("kind", Value::str("tstep")),
            ("step", Value::int(9)),
            ("ranks_seen", Value::int(4)),
            ("wall_max_s", Value::num(0.031)),
            ("wall_mean_s", Value::num(0.027)),
            ("imbalance", Value::num(0.031 / 0.027)),
            ("straggler", Value::int(2)),
            ("comm_ratio", Value::num(0.18)),
            ("gs_skew", Value::num(1.4)),
            ("phase_gap_ranks", Value::int(0)),
            (
                "phases",
                Value::obj([
                    ("pressure", Value::num(0.02)),
                    ("velocity", Value::num(0.004)),
                    ("temperature", Value::num(0.002)),
                    ("other", Value::num(0.001)),
                ]),
            ),
        ])
    }

    #[test]
    fn timeline_records_roundtrip() {
        let header = Value::obj([
            ("schema", Value::str(TIMELINE_SCHEMA)),
            ("kind", Value::str("timeline_header")),
            ("ranks", Value::int(4)),
            ("streams", Value::int(4)),
        ]);
        validate_timeline_record(&header).unwrap();
        validate_timeline_record(&Value::parse(&header.to_string()).unwrap()).unwrap();

        let tstep = tstep_record();
        validate_timeline_record(&tstep).unwrap();
        validate_timeline_record(&Value::parse(&tstep.to_string()).unwrap()).unwrap();

        let summary = Value::obj([
            ("schema", Value::str(TIMELINE_SCHEMA)),
            ("kind", Value::str("tsummary")),
            ("steps", Value::int(40)),
            ("ranks", Value::int(4)),
            ("imbalance_mean", Value::num(1.12)),
            ("imbalance_max", Value::num(1.55)),
            ("phase_gap_total", Value::int(1)),
            ("replayed_records", Value::int(3)),
        ]);
        validate_timeline_record(&summary).unwrap();
        validate_timeline_record(&Value::parse(&summary.to_string()).unwrap()).unwrap();
    }

    #[test]
    fn timeline_tstep_invariants_checked() {
        // imbalance below 1 is impossible for max/mean.
        let mut rec = tstep_record();
        if let Value::Obj(fields) = &mut rec {
            for (k, v) in fields.iter_mut() {
                if k == "imbalance" {
                    *v = Value::num(0.5);
                }
            }
        }
        assert!(validate_timeline_record(&rec).is_err());
        // straggler must index a seen rank.
        let mut rec = tstep_record();
        if let Value::Obj(fields) = &mut rec {
            for (k, v) in fields.iter_mut() {
                if k == "straggler" {
                    *v = Value::int(9);
                }
            }
        }
        assert!(validate_timeline_record(&rec).is_err());
    }

    #[test]
    fn health_record_roundtrips_and_rejects_unknown_detector() {
        let rec = health_record(
            "cfl_spike",
            "warn",
            "raise",
            42,
            0.92,
            0.65,
            "cfl 0.92 > 2x median",
        );
        validate_health(&rec).unwrap();
        validate_health(&Value::parse(&rec.to_string()).unwrap()).unwrap();
        let bad = health_record("vibes", "warn", "raise", 1, 0.0, 0.0, "");
        assert!(validate_health(&bad).is_err());
        let bad_sev = health_record("imbalance", "catastrophic", "raise", 1, 2.0, 1.5, "x");
        assert!(validate_health(&bad_sev).is_err());
        let bad_state = health_record("imbalance", "warn", "flap", 1, 2.0, 1.5, "x");
        assert!(validate_health(&bad_state).is_err());
    }

    #[test]
    fn insitu_records_roundtrip_and_reject_bad_shapes() {
        let sender = insitu_sender_record(7, 1, 4, 20, 3, 18, 2, false);
        validate_insitu(&sender).unwrap();
        validate_line(&sender.to_string()).unwrap();

        let slab = insitu_slab_record(7, 1, 0.014, "uz", 4096, -0.9, 1.1, 0.02, 0.4);
        validate_insitu(&slab).unwrap();
        validate_line(&slab.to_string()).unwrap();

        let summary = insitu_summary_record(4, 57, 1, 2, 19, 6);
        validate_insitu(&summary).unwrap();
        validate_line(&summary.to_string()).unwrap();

        // acked can never exceed sent.
        let bad = insitu_sender_record(7, 1, 4, 5, 0, 9, 2, false);
        assert!(validate_insitu(&bad).is_err());
        // Empty slabs are impossible.
        let bad = insitu_slab_record(7, 1, 0.0, "uz", 0, 0.0, 0.0, 0.0, 0.0);
        assert!(validate_insitu(&bad).is_err());
        let bad = Value::obj([
            ("schema", Value::str(INSITU_SCHEMA)),
            ("kind", Value::str("vibes")),
        ]);
        assert!(validate_insitu(&bad).is_err());
    }

    #[test]
    fn mixed_streams_dispatch_by_schema() {
        // A health event and an insitu record in a telemetry stream both
        // validate line-by-line.
        let health = health_record("insitu_drops", "warn", "raise", 9, 12.0, 5.0, "drops");
        validate_line(&health.to_string()).unwrap();
        let new_detectors = ["insitu_drops", "insitu_dead", "degraded_step"];
        for d in new_detectors {
            validate_health(&health_record(d, "critical", "raise", 1, 1.0, 0.0, "x")).unwrap();
        }
        assert!(validate_line("{\"schema\":\"rbx.insitu.v1\",\"kind\":\"nope\"}").is_err());
    }

    #[test]
    fn bench_rows_must_match_columns() {
        let good = bench_record(
            "fig2_overlap",
            &["mode", "seconds"],
            vec![vec![Value::str("serial"), Value::num(1.25)]],
            vec![("order", Value::int(7))],
        );
        validate_bench(&good).unwrap();
        let bad = bench_record(
            "fig2_overlap",
            &["mode", "seconds"],
            vec![vec![Value::str("serial")]],
            vec![],
        );
        assert!(validate_bench(&bad).is_err());
    }
}
