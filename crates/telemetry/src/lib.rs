//! # rbx-telemetry — the measurement substrate
//!
//! The paper's evaluation (Fig. 2 overlap gain, Fig. 4 per-step wall-time
//! breakdown, Table 1 platform comparison) rests on "MPI_Wtime timings
//! around relevant code regions, with global synchronisation points"
//! (§6.1). This crate is that instrumentation layer, grown past the
//! original four-bin `PhaseTimers`:
//!
//! * [`span::SpanTracer`] — hierarchical wall-clock spans ("regions") with
//!   nesting, per-span counters and path-keyed aggregation, so pressure
//!   time can be attributed below the phase level (coarse solve, fine FDM,
//!   CRS transfer, Krylov iterations).
//! * [`metrics::MetricsRegistry`] — counters, gauges and log-bucketed
//!   histograms fed by solver, gather-scatter and step-loop hooks.
//! * [`sink::JsonlSink`] + [`metrics::MetricsRegistry::render_prometheus`]
//!   — machine-readable export: a JSONL event stream (one record per step,
//!   per solve, per recovery event) and a Prometheus text-exposition
//!   snapshot.
//! * [`schema`] — versioned record schemas (`rbx.telemetry.v1`,
//!   `rbx.bench.v1`) with validators, so CI can check every emitted line.
//!
//! The [`Telemetry`] handle ties these together. It is an `Arc`-shared,
//! thread-safe handle that components clone at construction time. When
//! disabled (the default), every instrumentation point reduces to a single
//! relaxed atomic load — cheap enough to leave compiled into the hot
//! paths.

pub mod json;
pub mod metrics;
pub mod names;
pub mod ring;
pub mod schema;
pub mod sink;
pub mod span;

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use json::Value;
use metrics::MetricsRegistry;
use ring::FlightRing;
use sink::JsonlSink;
use span::{SpanGuard, SpanTracer};

/// Observer invoked (outside any sink lock) for every emitted record.
/// Used by the online health detectors to see the step stream without
/// the producer knowing they exist. Must not call back into
/// [`Telemetry::emit`] on the same handle.
pub type EmitTap = Arc<dyn Fn(&Value) + Send + Sync>;

struct TelemetryInner {
    enabled: AtomicBool,
    tracer: SpanTracer,
    metrics: MetricsRegistry,
    sink: Mutex<Option<JsonlSink>>,
    flight: Mutex<Option<FlightRing>>,
    tap: Mutex<Option<EmitTap>>,
}

/// Shared observability handle. Cloning is cheap (an `Arc` bump); all
/// clones observe the same tracer, registry and sink.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    fn with_enabled(enabled: bool) -> Self {
        Self {
            inner: Arc::new(TelemetryInner {
                enabled: AtomicBool::new(enabled),
                tracer: SpanTracer::new(),
                metrics: MetricsRegistry::new(),
                sink: Mutex::new(None),
                flight: Mutex::new(None),
                tap: Mutex::new(None),
            }),
        }
    }

    /// A disabled handle: every instrumentation call is a near-no-op
    /// (single relaxed atomic load). This is what components construct by
    /// default.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// An enabled handle collecting spans and metrics (no sink until
    /// [`Telemetry::open_jsonl`]).
    pub fn enabled() -> Self {
        Self::with_enabled(true)
    }

    /// Switch collection on/off at runtime.
    pub fn set_enabled(&self, on: bool) {
        // ordering: a lone on/off flag — no data is published through it
        // (tracer/metrics state lives behind its own locks), and a span
        // racing the toggle may harmlessly record or skip one event.
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Is collection active? Hot paths gate on this single load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        // ordering: advisory read of the enabled flag (see set_enabled);
        // keeping this Relaxed is what makes disabled-telemetry hot paths
        // a single uncontended load.
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// The span tracer (always accessible; its spans record regardless of
    /// the enabled flag — use [`Telemetry::span`]/[`Telemetry::span_abs`]
    /// for gated spans).
    pub fn tracer(&self) -> &SpanTracer {
        &self.inner.tracer
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Open a span nested under the calling thread's innermost open span.
    /// No-op (no allocation, no lock) when disabled.
    #[inline]
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if self.is_enabled() {
            self.inner.tracer.span(name)
        } else {
            SpanGuard::noop()
        }
    }

    /// Open a span at an absolute path, ignoring the thread's current
    /// stack. Used where work hops threads (the overlapped Schwarz coarse
    /// solve) so both execution modes produce identical span paths.
    #[inline]
    pub fn span_abs(&self, path: &str) -> SpanGuard<'_> {
        if self.is_enabled() {
            self.inner.tracer.span_at(path)
        } else {
            SpanGuard::noop()
        }
    }

    /// Record one call of `path` that took `seconds`, timed before the
    /// handle was attached (a set-up stage). No-op when disabled.
    pub fn record_span(&self, path: &str, seconds: f64) {
        if self.is_enabled() {
            self.inner.tracer.record_at(path, seconds);
        }
    }

    /// Add to a counter metric (gated).
    #[inline]
    pub fn counter_add(&self, name: &str, v: u64) {
        if self.is_enabled() {
            self.inner.metrics.counter_add(name, v);
        }
    }

    /// Set a gauge metric (gated).
    #[inline]
    pub fn gauge_set(&self, name: &str, v: f64) {
        if self.is_enabled() {
            self.inner.metrics.gauge_set(name, v);
        }
    }

    /// Observe a value into a log-bucketed histogram (gated).
    #[inline]
    pub fn histogram_observe(&self, name: &str, v: f64) {
        if self.is_enabled() {
            self.inner.metrics.histogram_observe(name, v);
        }
    }

    /// Cap span recording depth (spans nested deeper than this are
    /// timed-out of existence: they still nest but don't record).
    pub fn set_trace_depth(&self, depth: usize) {
        self.inner.tracer.set_max_depth(depth);
    }

    /// Attach a JSONL sink; subsequent [`Telemetry::emit`] calls append
    /// one line per record.
    pub fn open_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let sink = JsonlSink::create(path)?;
        *self.inner.sink.lock().unwrap_or_else(|e| e.into_inner()) = Some(sink);
        Ok(())
    }

    /// Emit a record: feed the flight ring (if attached), write to the
    /// JSONL sink (if attached), then invoke the emit tap (if installed)
    /// — in that order, each behind its own short lock so a slow consumer
    /// never blocks the others. Returns whether the record reached the
    /// sink. I/O errors are swallowed after the first failure (telemetry
    /// must never take down a simulation).
    pub fn emit(&self, record: &Value) -> bool {
        if !self.is_enabled() {
            return false;
        }
        {
            let mut guard = self.inner.flight.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(ring) = guard.as_mut() {
                ring.push(record);
            }
        }
        let wrote = {
            let mut guard = self.inner.sink.lock().unwrap_or_else(|e| e.into_inner());
            match guard.as_mut() {
                Some(sink) => sink.write(record),
                None => false,
            }
        };
        // Clone the tap out of its lock before calling, so the callback
        // runs without holding any telemetry lock (it may inspect metrics
        // or write its own files, but must not re-enter emit).
        let tap = self
            .inner
            .tap
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if let Some(tap) = tap {
            tap(record);
        }
        wrote
    }

    /// Attach a flight ring retaining the last `capacity` emitted records
    /// for post-mortem dumps. Replaces any existing ring.
    pub fn attach_flight(&self, capacity: usize) {
        *self.inner.flight.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(FlightRing::new(capacity));
    }

    /// Number of records currently retained by the flight ring.
    pub fn flight_len(&self) -> usize {
        self.inner
            .flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map_or(0, FlightRing::len)
    }

    /// Dump the flight ring as a `rbx.flight.v1` post-mortem file: one
    /// header line identifying the dumping rank and trigger, then the
    /// retained records oldest-first. Returns the record count written
    /// (0 with no error if no ring is attached). The ring keeps its
    /// contents — several triggers may dump the same window.
    pub fn dump_flight(
        &self,
        path: &Path,
        rank: usize,
        ranks: usize,
        reason: &str,
        step: u64,
    ) -> std::io::Result<usize> {
        let guard = self.inner.flight.lock().unwrap_or_else(|e| e.into_inner());
        let ring = match guard.as_ref() {
            Some(r) => r,
            None => return Ok(0),
        };
        let header = Value::obj([
            ("schema", Value::str(schema::FLIGHT_SCHEMA)),
            ("kind", Value::str("flight_header")),
            ("rank", Value::int(rank as u64)),
            ("ranks", Value::int(ranks as u64)),
            ("reason", Value::str(reason)),
            ("step", Value::int(step)),
            ("records", Value::int(ring.len() as u64)),
            ("overwritten", Value::int(ring.overwritten())),
        ]);
        let mut out = String::with_capacity(256 + ring.slot_bytes() + ring.len());
        header.write_into(&mut out);
        out.push('\n');
        for line in ring.iter() {
            out.push_str(line);
            out.push('\n');
        }
        let n = ring.len();
        drop(guard);
        std::fs::write(path, out)?;
        self.counter_add(names::FLIGHT_DUMPS_TOTAL, 1);
        Ok(n)
    }

    /// Install (or replace) the emit tap. The callback sees every record
    /// that passes the enabled gate, after sink write, outside all locks.
    pub fn set_tap(&self, tap: EmitTap) {
        *self.inner.tap.lock().unwrap_or_else(|e| e.into_inner()) = Some(tap);
    }

    /// Remove the emit tap.
    pub fn clear_tap(&self) {
        *self.inner.tap.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Lines written to the JSONL sink so far.
    pub fn jsonl_lines(&self) -> u64 {
        self.inner
            .sink
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map_or(0, |s| s.lines())
    }

    /// Flush the JSONL sink (if any).
    pub fn flush(&self) {
        if let Some(sink) = self
            .inner
            .sink
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            sink.flush();
        }
    }

    /// Write a Prometheus text-exposition snapshot of the metrics
    /// registry, including span aggregates as `rbx_span_seconds_total` /
    /// `rbx_span_calls_total` series.
    pub fn write_prometheus(&self, path: &Path) -> std::io::Result<()> {
        let mut out = self.inner.metrics.render_prometheus();
        out.push_str(&self.inner.tracer.render_prometheus());
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        {
            let _g = tel.span("pressure");
            tel.counter_add("rbx_steps_total", 1);
            tel.gauge_set("rbx_step_dt", 1e-3);
            tel.histogram_observe("rbx_solve_iterations", 12.0);
        }
        assert!(tel.tracer().snapshot().is_empty());
        assert!(tel.metrics().render_prometheus().is_empty());
        assert!(!tel.emit(&Value::Null));
    }

    #[test]
    fn enabled_handle_collects() {
        let tel = Telemetry::enabled();
        {
            let _p = tel.span("pressure");
            let _k = tel.span("krylov");
            tel.counter_add("rbx_steps_total", 2);
        }
        let snap = tel.tracer().snapshot();
        let paths: Vec<&str> = snap.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"pressure"));
        assert!(paths.contains(&"pressure/krylov"));
        assert!(tel
            .metrics()
            .render_prometheus()
            .contains("rbx_steps_total 2"));
    }

    #[test]
    fn flight_ring_fed_without_sink() {
        // The flight recorder must see records even when no JSONL sink is
        // open (a crash post-mortem is most valuable on runs that weren't
        // streaming telemetry to disk).
        let tel = Telemetry::enabled();
        tel.attach_flight(4);
        for i in 0..9u64 {
            let rec = Value::obj([("kind", Value::str("step")), ("step", Value::int(i))]);
            assert!(!tel.emit(&rec)); // no sink -> not written
        }
        assert_eq!(tel.flight_len(), 4);
        let dir = std::env::temp_dir().join("rbx_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        let n = tel.dump_flight(&path, 0, 2, "divergence", 8).unwrap();
        assert_eq!(n, 4);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = Value::parse(lines.next().unwrap()).unwrap();
        schema::validate_flight_header(&header).unwrap();
        assert_eq!(header.get("records").and_then(Value::as_u64), Some(4));
        assert_eq!(header.get("overwritten").and_then(Value::as_u64), Some(5));
        assert_eq!(lines.count(), 4);
        assert!(tel
            .metrics()
            .render_prometheus()
            .contains("rbx_flight_dumps_total 1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_without_ring_is_noop() {
        let tel = Telemetry::enabled();
        let path = std::env::temp_dir().join("rbx_flight_never_written.jsonl");
        std::fs::remove_file(&path).ok();
        assert_eq!(tel.dump_flight(&path, 0, 1, "x", 0).unwrap(), 0);
        assert!(!path.exists());
    }

    #[test]
    fn tap_sees_emitted_records() {
        use std::sync::atomic::AtomicU64;
        let tel = Telemetry::enabled();
        let seen = Arc::new(AtomicU64::new(0));
        let seen_tap = Arc::clone(&seen);
        tel.set_tap(Arc::new(move |rec: &Value| {
            if rec.get("kind").and_then(Value::as_str) == Some("step") {
                // ordering: test-only event counter, asserted after the
                // single-threaded emit calls return.
                seen_tap.fetch_add(1, Ordering::Relaxed);
            }
        }));
        tel.emit(&Value::obj([("kind", Value::str("step"))]));
        tel.emit(&Value::obj([("kind", Value::str("solve"))]));
        tel.emit(&Value::obj([("kind", Value::str("step"))]));
        assert_eq!(seen.load(Ordering::Relaxed), 2);
        tel.clear_tap();
        tel.emit(&Value::obj([("kind", Value::str("step"))]));
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        other.counter_add("c", 5);
        assert!(tel.metrics().render_prometheus().contains("c 5"));
        tel.set_enabled(false);
        assert!(!other.is_enabled());
    }
}
