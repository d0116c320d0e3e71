//! Online health detectors: streaming anomaly detection over the
//! telemetry record stream, with hysteresis.
//!
//! A degrading run should say *why* before it dies. The
//! [`HealthMonitor`] taps the live record stream (installed via
//! [`rbx_telemetry::Telemetry::set_tap`]) and runs five streaming
//! detectors, each comparing the current value against a baseline
//! learned from the first records of the run:
//!
//! * `cfl_spike` — CFL above a multiple of its baseline (incipient
//!   advective instability, the usual prelude to NaN).
//! * `residual_stall` — consecutive unconverged pressure solves (the
//!   preconditioner has stopped matching the operator).
//! * `iteration_drift` — pressure iteration count drifting above its
//!   baseline (slow conditioning decay that never trips a verdict).
//! * `imbalance` — cross-rank load imbalance above threshold (fed by the
//!   out-of-band gather on rank 0, not derivable from one rank's stream).
//! * `checkpoint_latency` — checkpoint writes slowing down (filesystem
//!   contention; the first sign the I/O subsystem is sick).
//!
//! Two more fire immediately (no hysteresis), because neither is a
//! trend: `shrink` when a shrink recovery event passes through (rank
//! death), and `degraded_step` when a step record's verdict is
//! `degraded` (a solve hit its iteration limit or stopped converging, but
//! the state stayed finite).
//!
//! The in-situ analysis plane (DESIGN.md §16) adds two more, fed by the
//! `rbx.insitu.v1` `sender` records the solver-side slab tap emits:
//!
//! * `insitu_drops` — the drop counter is still growing after the
//!   hysteresis window (sustained backpressure: analysis is falling
//!   behind and slabs are being shed).
//! * `insitu_dead` — a sender's stall latch is set (consecutive drops
//!   with zero acks): the analysis rank is gone and the plane has
//!   degraded to drop-with-counter. Fires immediately, once per dead
//!   analysis rank — like `shrink`, death is not a trend.
//!
//! Every raise/clear transition becomes a typed `rbx.health.v1` record,
//! appended to an optional JSONL file and counted on
//! `rbx_health_events_total{detector=...}`. Hysteresis (N consecutive bad
//! samples to raise, M consecutive good to clear) keeps a value hovering
//! at the threshold from flooding the log.

use rbx_telemetry::json::Value;
use rbx_telemetry::schema::health_record;
use rbx_telemetry::Telemetry;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Detector tunables.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Raise `cfl_spike` when CFL exceeds this multiple of baseline.
    pub cfl_ratio: f64,
    /// Never raise `cfl_spike` below this absolute CFL (startup noise).
    pub cfl_floor: f64,
    /// Raise `iteration_drift` when the pressure iteration count exceeds
    /// this multiple of baseline.
    pub iter_ratio: f64,
    /// Raise `imbalance` when max/mean step wall time exceeds this.
    pub imbalance_threshold: f64,
    /// Raise `checkpoint_latency` when a write exceeds this multiple of
    /// the baseline write time.
    pub ckpt_ratio: f64,
    /// Samples used to learn each baseline (mean of the first N).
    pub baseline_window: usize,
    /// Consecutive bad samples before a detector raises.
    pub raise_after: usize,
    /// Consecutive good samples before a raised detector clears.
    pub clear_after: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            cfl_ratio: 2.0,
            cfl_floor: 0.6,
            iter_ratio: 1.5,
            imbalance_threshold: 1.5,
            ckpt_ratio: 3.0,
            baseline_window: 8,
            raise_after: 3,
            clear_after: 3,
        }
    }
}

/// Raise-after-N / clear-after-M debouncer.
#[derive(Debug, Default)]
struct Hysteresis {
    bad: usize,
    good: usize,
    raised: bool,
}

/// A detector state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transition {
    Raise,
    Clear,
}

impl Hysteresis {
    fn feed(&mut self, bad: bool, raise_after: usize, clear_after: usize) -> Option<Transition> {
        if bad {
            self.bad += 1;
            self.good = 0;
            if !self.raised && self.bad >= raise_after {
                self.raised = true;
                return Some(Transition::Raise);
            }
        } else {
            self.good += 1;
            self.bad = 0;
            if self.raised && self.good >= clear_after {
                self.raised = false;
                return Some(Transition::Clear);
            }
        }
        None
    }
}

/// Baseline learned from the first N samples (their mean).
#[derive(Debug, Default)]
struct Baseline {
    sum: f64,
    n: usize,
}

impl Baseline {
    fn feed(&mut self, v: f64, window: usize) -> Option<f64> {
        if self.n < window {
            self.sum += v;
            self.n += 1;
            return None;
        }
        Some(self.sum / self.n as f64)
    }
}

#[derive(Default)]
struct MonitorState {
    last_step: u64,
    cfl_base: Baseline,
    cfl_hyst: Hysteresis,
    iter_base: Baseline,
    iter_hyst: Hysteresis,
    stall_hyst: Hysteresis,
    imb_hyst: Hysteresis,
    ckpt_base: Baseline,
    ckpt_hyst: Hysteresis,
    insitu_drop_hyst: Hysteresis,
    insitu_last_dropped: u64,
    insitu_dead_fired: std::collections::HashSet<u64>,
    events: Vec<Value>,
    sink: Option<std::fs::File>,
    sink_failed: bool,
}

/// Streaming health monitor. Cheap to clone (`Arc`-shared); safe to feed
/// from the telemetry emit tap.
#[derive(Clone)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    tel: Telemetry,
    state: Arc<Mutex<MonitorState>>,
}

impl HealthMonitor {
    /// A monitor counting its events on `tel`'s
    /// `rbx_health_events_total{detector=...}` counters.
    pub fn new(cfg: HealthConfig, tel: &Telemetry) -> Self {
        Self {
            cfg,
            tel: tel.clone(),
            state: Arc::new(Mutex::new(MonitorState::default())),
        }
    }

    /// Also append every event to a JSONL file at `path`.
    pub fn with_jsonl(self, path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        self.lock().sink = Some(file);
        Ok(self)
    }

    /// Install this monitor as `tel`'s emit tap. The monitor only ever
    /// touches `tel`'s metrics registry from inside the tap (never
    /// `emit`), which the tap contract allows.
    pub fn install(&self, tel: &Telemetry) {
        let me = self.clone();
        tel.set_tap(Arc::new(move |rec: &Value| me.observe_record(rec)));
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MonitorState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Feed one telemetry record (any kind; irrelevant kinds are free).
    pub fn observe_record(&self, v: &Value) {
        match v.get("kind").and_then(Value::as_str) {
            Some("step") => self.observe_step(v),
            Some("solve") => self.observe_solve(v),
            Some("recovery") => self.observe_recovery(v),
            Some("sender") => self.observe_insitu_sender(v),
            _ => {}
        }
    }

    /// Feed one `rbx.insitu.v1` `sender` record (the solver-side slab
    /// tap's counters). Sustained drop growth raises `insitu_drops`; a
    /// set stall latch raises `insitu_dead` immediately, once per dead
    /// analysis rank.
    fn observe_insitu_sender(&self, v: &Value) {
        let cfg = self.cfg;
        let mut st = self.lock();
        let step = v
            .get("step")
            .and_then(Value::as_u64)
            .unwrap_or(st.last_step);
        st.last_step = st.last_step.max(step);
        let dropped = v.get("dropped").and_then(Value::as_u64).unwrap_or(0);
        let growing = dropped > st.insitu_last_dropped;
        st.insitu_last_dropped = st.insitu_last_dropped.max(dropped);
        if let Some(tr) = st
            .insitu_drop_hyst
            .feed(growing, cfg.raise_after, cfg.clear_after)
        {
            self.event(
                &mut st,
                "insitu_drops",
                "warn",
                tr,
                step,
                dropped as f64,
                0.0,
                "analysis slabs being shed (backpressure or dead analysis rank)",
            );
        }
        let stalled = matches!(v.get("stalled"), Some(Value::Bool(true)));
        if stalled {
            let dest = v.get("dest").and_then(Value::as_u64).unwrap_or(u64::MAX);
            if st.insitu_dead_fired.insert(dest) {
                self.event(
                    &mut st,
                    "insitu_dead",
                    "critical",
                    Transition::Raise,
                    step,
                    dest as f64,
                    0.0,
                    &format!("analysis rank {dest} unresponsive; degraded to drop-with-counter"),
                );
            }
        }
    }

    fn observe_step(&self, v: &Value) {
        let cfg = self.cfg;
        let mut st = self.lock();
        if let Some(step) = v.get("step").and_then(Value::as_u64) {
            st.last_step = step;
        }
        let step = st.last_step;
        if v.get("verdict").and_then(Value::as_str) == Some("degraded") {
            // The record does not say which solve degraded the step, so
            // the event carries the pressure count without blaming it.
            let iters = v.get("p_iters").and_then(Value::as_f64).unwrap_or(f64::NAN);
            self.event(
                &mut st,
                "degraded_step",
                "warn",
                Transition::Raise,
                step,
                iters,
                0.0,
                &format!("step {step} degraded (p_iters {iters:.0})"),
            );
        }
        if let Some(cfl) = v.get("cfl").and_then(Value::as_f64) {
            if let Some(base) = st.cfl_base.feed(cfl, cfg.baseline_window) {
                let threshold = (base * cfg.cfl_ratio).max(cfg.cfl_floor);
                let bad = cfl > threshold;
                if let Some(tr) = st.cfl_hyst.feed(bad, cfg.raise_after, cfg.clear_after) {
                    self.event(
                        &mut st,
                        "cfl_spike",
                        "warn",
                        tr,
                        step,
                        cfl,
                        threshold,
                        &format!("cfl {cfl:.3} vs baseline {base:.3}"),
                    );
                }
            }
        }
        if let Some(iters) = v.get("p_iters").and_then(Value::as_f64) {
            if let Some(base) = st.iter_base.feed(iters, cfg.baseline_window) {
                let threshold = (base * cfg.iter_ratio).max(base + 2.0);
                let bad = iters > threshold;
                if let Some(tr) = st.iter_hyst.feed(bad, cfg.raise_after, cfg.clear_after) {
                    self.event(
                        &mut st,
                        "iteration_drift",
                        "warn",
                        tr,
                        step,
                        iters,
                        threshold,
                        &format!("pressure iterations {iters:.0} vs baseline {base:.1}"),
                    );
                }
            }
        }
    }

    fn observe_solve(&self, v: &Value) {
        if v.get("label").and_then(Value::as_str) != Some("pressure") {
            return;
        }
        let cfg = self.cfg;
        let mut st = self.lock();
        let step = st.last_step;
        let converged = v.get("converged").and_then(|b| match b {
            Value::Bool(x) => Some(*x),
            _ => None,
        });
        if let Some(conv) = converged {
            if let Some(tr) = st.stall_hyst.feed(!conv, cfg.raise_after, cfg.clear_after) {
                let final_r = v
                    .get("final_residual")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN);
                self.event(
                    &mut st,
                    "residual_stall",
                    "critical",
                    tr,
                    step,
                    final_r,
                    0.0,
                    &format!(
                        "{} consecutive unconverged pressure solves",
                        cfg.raise_after
                    ),
                );
            }
        }
    }

    fn observe_recovery(&self, v: &Value) {
        let cfg = self.cfg;
        let event = v.get("event").and_then(Value::as_str).unwrap_or("");
        let mut st = self.lock();
        let step = v
            .get("step")
            .and_then(Value::as_u64)
            .unwrap_or(st.last_step);
        match event {
            "shrink" => {
                let detail = v.get("detail").and_then(Value::as_str).unwrap_or("shrink");
                let detail = detail.to_string();
                self.event(
                    &mut st,
                    "shrink",
                    "critical",
                    Transition::Raise,
                    step,
                    0.0,
                    0.0,
                    &detail,
                );
            }
            "checkpoint_written" => {
                if let Some(write_s) = v.get("write_s").and_then(Value::as_f64) {
                    // Checkpoints are sparse: a short baseline, and raise
                    // on the first slow write (no multi-sample debounce —
                    // the next sample may be minutes away).
                    if let Some(base) = st.ckpt_base.feed(write_s, cfg.baseline_window.min(3)) {
                        let threshold = base * cfg.ckpt_ratio;
                        let bad = write_s > threshold;
                        if let Some(tr) = st.ckpt_hyst.feed(bad, 1, 1) {
                            self.event(
                                &mut st,
                                "checkpoint_latency",
                                "warn",
                                tr,
                                step,
                                write_s,
                                threshold,
                                &format!("checkpoint write {write_s:.3}s vs baseline {base:.3}s"),
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Feed a cross-rank imbalance sample (rank 0 computes this from the
    /// out-of-band step-health reports; a single rank's stream cannot).
    pub fn observe_imbalance(&self, step: u64, imbalance: f64) {
        let cfg = self.cfg;
        let mut st = self.lock();
        st.last_step = st.last_step.max(step);
        let bad = imbalance > cfg.imbalance_threshold;
        if let Some(tr) = st.imb_hyst.feed(bad, cfg.raise_after, cfg.clear_after) {
            self.event(
                &mut st,
                "imbalance",
                "warn",
                tr,
                step,
                imbalance,
                cfg.imbalance_threshold,
                &format!("load imbalance {imbalance:.2} (max/mean wall)"),
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn event(
        &self,
        st: &mut MonitorState,
        detector: &str,
        severity: &str,
        tr: Transition,
        step: u64,
        value: f64,
        threshold: f64,
        detail: &str,
    ) {
        let state = match tr {
            Transition::Raise => "raise",
            Transition::Clear => "clear",
        };
        let rec = health_record(detector, severity, state, step, value, threshold, detail);
        self.tel.counter_add(
            &format!("rbx_health_events_total{{detector=\"{detector}\"}}"),
            1,
        );
        if !st.sink_failed {
            if let Some(f) = st.sink.as_mut() {
                if writeln!(f, "{rec}").is_err() {
                    st.sink_failed = true;
                }
            }
        }
        st.events.push(rec);
    }

    /// All events so far (clones; the monitor keeps its copy).
    pub fn events(&self) -> Vec<Value> {
        self.lock().events.clone()
    }

    /// Number of events so far.
    pub fn event_count(&self) -> usize {
        self.lock().events.len()
    }

    /// Flush the JSONL sink, if any.
    pub fn flush(&self) {
        let mut st = self.lock();
        if let Some(f) = st.sink.as_mut() {
            let _ = f.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbx_telemetry::schema::validate_health;

    fn step_rec(step: u64, cfl: f64, p_iters: u64) -> Value {
        Value::obj([
            ("kind", Value::str("step")),
            ("step", Value::int(step)),
            ("cfl", Value::num(cfl)),
            ("p_iters", Value::int(p_iters)),
        ])
    }

    fn monitor() -> (HealthMonitor, Telemetry) {
        let tel = Telemetry::enabled();
        let cfg = HealthConfig {
            baseline_window: 3,
            raise_after: 2,
            clear_after: 2,
            ..Default::default()
        };
        (HealthMonitor::new(cfg, &tel), tel)
    }

    #[test]
    fn cfl_spike_raises_and_clears_with_hysteresis() {
        let (mon, tel) = monitor();
        // Baseline: three calm steps at cfl 0.3.
        for s in 1..=3 {
            mon.observe_record(&step_rec(s, 0.3, 10));
        }
        // One bad sample must NOT raise (hysteresis).
        mon.observe_record(&step_rec(4, 2.0, 10));
        assert_eq!(mon.event_count(), 0);
        // Second consecutive bad sample raises.
        mon.observe_record(&step_rec(5, 2.1, 10));
        let events = mon.events();
        assert_eq!(events.len(), 1);
        validate_health(&events[0]).unwrap();
        assert_eq!(
            events[0].get("detector").and_then(Value::as_str),
            Some("cfl_spike")
        );
        assert_eq!(
            events[0].get("state").and_then(Value::as_str),
            Some("raise")
        );
        // Two good samples clear.
        mon.observe_record(&step_rec(6, 0.3, 10));
        mon.observe_record(&step_rec(7, 0.3, 10));
        let events = mon.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("state").and_then(Value::as_str),
            Some("clear")
        );
        assert_eq!(
            tel.metrics()
                .counter("rbx_health_events_total{detector=\"cfl_spike\"}"),
            2
        );
    }

    #[test]
    fn iteration_drift_detected() {
        let (mon, _tel) = monitor();
        for s in 1..=3 {
            mon.observe_record(&step_rec(s, 0.3, 10));
        }
        for s in 4..=5 {
            mon.observe_record(&step_rec(s, 0.3, 40));
        }
        let events = mon.events();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(
            events[0].get("detector").and_then(Value::as_str),
            Some("iteration_drift")
        );
    }

    #[test]
    fn residual_stall_on_consecutive_unconverged_pressure_solves() {
        let (mon, _tel) = monitor();
        let solve = |conv: bool| {
            Value::obj([
                ("kind", Value::str("solve")),
                ("label", Value::str("pressure")),
                ("converged", Value::Bool(conv)),
                ("final_residual", Value::num(1e-3)),
            ])
        };
        mon.observe_record(&solve(false));
        assert_eq!(mon.event_count(), 0);
        mon.observe_record(&solve(false));
        let events = mon.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("detector").and_then(Value::as_str),
            Some("residual_stall")
        );
        // Unconverged *velocity* solves must not count.
        let (mon2, _t) = monitor();
        let v = Value::obj([
            ("kind", Value::str("solve")),
            ("label", Value::str("velocity_x")),
            ("converged", Value::Bool(false)),
        ]);
        mon2.observe_record(&v);
        mon2.observe_record(&v);
        assert_eq!(mon2.event_count(), 0);
    }

    #[test]
    fn imbalance_and_shrink_events() {
        let (mon, _tel) = monitor();
        mon.observe_imbalance(1, 2.0);
        mon.observe_imbalance(2, 2.0);
        let events = mon.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("detector").and_then(Value::as_str),
            Some("imbalance")
        );
        // Shrink fires immediately, no hysteresis.
        let shrink = Value::obj([
            ("kind", Value::str("recovery")),
            ("event", Value::str("shrink")),
            ("detail", Value::str("shrink 4 -> 3 ranks")),
            ("step", Value::int(12)),
        ]);
        mon.observe_record(&shrink);
        let events = mon.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("detector").and_then(Value::as_str),
            Some("shrink")
        );
        assert_eq!(events[1].get("step").and_then(Value::as_u64), Some(12));
        for e in &events {
            validate_health(e).unwrap();
        }
    }

    #[test]
    fn degraded_step_raises_at_once_on_every_degraded_step() {
        let (mon, tel) = monitor();
        let rec = |step: u64, verdict: &str| {
            Value::obj([
                ("kind", Value::str("step")),
                ("step", Value::int(step)),
                ("p_iters", Value::int(200)),
                ("verdict", Value::str(verdict)),
            ])
        };
        mon.observe_record(&rec(1, "healthy"));
        assert_eq!(mon.event_count(), 0);
        // No hysteresis and no learned baseline: the first degraded step
        // raises, and so does each one after it.
        mon.observe_record(&rec(2, "degraded"));
        mon.observe_record(&rec(3, "healthy"));
        mon.observe_record(&rec(4, "degraded"));
        let events = mon.events();
        assert_eq!(events.len(), 2, "{events:?}");
        for (e, step) in events.iter().zip([2, 4]) {
            validate_health(e).unwrap();
            assert_eq!(
                e.get("detector").and_then(Value::as_str),
                Some("degraded_step")
            );
            assert_eq!(e.get("severity").and_then(Value::as_str), Some("warn"));
            assert_eq!(e.get("state").and_then(Value::as_str), Some("raise"));
            assert_eq!(e.get("step").and_then(Value::as_u64), Some(step));
            assert_eq!(e.get("value").and_then(Value::as_f64), Some(200.0));
        }
        assert_eq!(
            tel.metrics()
                .counter("rbx_health_events_total{detector=\"degraded_step\"}"),
            2
        );
    }

    #[test]
    fn checkpoint_latency_growth_detected() {
        let (mon, _tel) = monitor();
        let ckpt = |step: u64, write_s: f64| {
            Value::obj([
                ("kind", Value::str("recovery")),
                ("event", Value::str("checkpoint_written")),
                ("detail", Value::str("checkpoint")),
                ("step", Value::int(step)),
                ("write_s", Value::num(write_s)),
            ])
        };
        for s in 1..=3 {
            mon.observe_record(&ckpt(s * 10, 0.01));
        }
        mon.observe_record(&ckpt(40, 0.2));
        let events = mon.events();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(
            events[0].get("detector").and_then(Value::as_str),
            Some("checkpoint_latency")
        );
    }

    #[test]
    fn insitu_drops_raise_on_sustained_growth_and_dead_fires_once() {
        let (mon, _tel) = monitor();
        let sender = |step: u64, dropped: u64, stalled: bool| {
            rbx_telemetry::schema::insitu_sender_record(step, 0, 4, 10, dropped, 5, 2, stalled)
        };
        // One growing sample does not raise (raise_after = 2).
        mon.observe_record(&sender(1, 1, false));
        assert_eq!(mon.event_count(), 0);
        mon.observe_record(&sender(2, 3, false));
        let events = mon.events();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(
            events[0].get("detector").and_then(Value::as_str),
            Some("insitu_drops")
        );
        assert_eq!(
            events[0].get("severity").and_then(Value::as_str),
            Some("warn")
        );
        // Flat counters clear the detector again.
        mon.observe_record(&sender(3, 3, false));
        mon.observe_record(&sender(4, 3, false));
        let events = mon.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("state").and_then(Value::as_str),
            Some("clear")
        );
        // Stall latch: critical, immediately, once per analysis rank.
        mon.observe_record(&sender(5, 3, true));
        mon.observe_record(&sender(6, 3, true));
        let events = mon.events();
        assert_eq!(events.len(), 3, "{events:?}");
        assert_eq!(
            events[2].get("detector").and_then(Value::as_str),
            Some("insitu_dead")
        );
        assert_eq!(
            events[2].get("severity").and_then(Value::as_str),
            Some("critical")
        );
        for e in &events {
            validate_health(e).unwrap();
        }
    }

    #[test]
    fn tap_installation_feeds_monitor() {
        let tel = Telemetry::enabled();
        let cfg = HealthConfig {
            baseline_window: 1,
            raise_after: 1,
            clear_after: 1,
            ..Default::default()
        };
        let mon = HealthMonitor::new(cfg, &tel);
        mon.install(&tel);
        tel.emit(&step_rec(1, 0.3, 10));
        tel.emit(&step_rec(2, 5.0, 10));
        assert_eq!(mon.event_count(), 1);
    }
}
