//! Hierarchical span tracing.
//!
//! A *span* is a named, timed region. Spans nest: opening a span while
//! another is open on the same thread records the child under the
//! parent's path (`"step/pressure/krylov"`). Aggregation is path-keyed —
//! total seconds, call count and user counters per distinct path — which
//! is exactly the shape the paper's Fig. 2/Fig. 4 analyses need (spans
//! are wall-clock, so a parent's time includes its children; sibling
//! breakdowns are computed by the consumer).
//!
//! Threading: each thread has its own span stack (keyed by `ThreadId`),
//! so spans opened on a helper thread (the overlapped Schwarz coarse
//! solve) don't corrupt the main thread's nesting. Cross-thread regions
//! that must share a path with their serial counterpart use
//! [`SpanTracer::span_at`] with an absolute path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStat {
    /// Full path, `/`-separated.
    pub path: String,
    /// Times the span was opened.
    pub calls: u64,
    /// Total wall-clock seconds (children included).
    pub seconds: f64,
    /// User counters recorded on the span, summed over calls.
    pub counters: Vec<(String, u64)>,
}

#[derive(Default)]
struct SpanAgg {
    calls: u64,
    seconds: f64,
    counters: HashMap<String, u64>,
}

#[derive(Default)]
struct TracerState {
    agg: HashMap<String, SpanAgg>,
    /// Per-thread stack of open span paths. The `bool` marks whether the
    /// span records (false once the depth cap is exceeded — it still
    /// occupies a stack slot so deeper spans see the true depth).
    stacks: HashMap<ThreadId, Vec<(String, bool)>>,
}

/// Thread-safe hierarchical span tracer.
pub struct SpanTracer {
    state: Mutex<TracerState>,
    max_depth: AtomicUsize,
}

impl Default for SpanTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanTracer {
    pub fn new() -> Self {
        Self {
            state: Mutex::new(TracerState::default()),
            max_depth: AtomicUsize::new(usize::MAX),
        }
    }

    /// Cap recording depth; spans nested deeper than `depth` levels are
    /// opened but not recorded.
    pub fn set_max_depth(&self, depth: usize) {
        // ordering: standalone tuning knob — no other data is published
        // with it, and a racing span seeing the old depth is harmless.
        self.max_depth.store(depth.max(1), Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open a span nested under the calling thread's innermost open span
    /// (or at the root when none is open).
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let tid = std::thread::current().id();
        let mut st = self.lock();
        let stack = st.stacks.entry(tid).or_default();
        let path = match stack.last() {
            Some((parent, _)) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        let depth = stack.len() + 1;
        // ordering: advisory read of the depth cap (see set_max_depth).
        let record = depth <= self.max_depth.load(Ordering::Relaxed);
        stack.push((path, record));
        drop(st);
        SpanGuard {
            tracer: Some(self),
            start: Instant::now(),
            counters: Vec::new(),
        }
    }

    /// Open a span at an absolute path, regardless of the thread's stack.
    /// Children opened on the same thread nest under it as usual.
    pub fn span_at(&self, path: &str) -> SpanGuard<'_> {
        let tid = std::thread::current().id();
        let mut st = self.lock();
        let stack = st.stacks.entry(tid).or_default();
        let depth = path.split('/').count();
        // ordering: advisory read of the depth cap (see set_max_depth).
        let record = depth <= self.max_depth.load(Ordering::Relaxed);
        stack.push((path.to_string(), record));
        drop(st);
        SpanGuard {
            tracer: Some(self),
            start: Instant::now(),
            counters: Vec::new(),
        }
    }

    fn close(&self, elapsed: f64, counters: &[(&'static str, u64)]) {
        let tid = std::thread::current().id();
        let mut st = self.lock();
        let Some(stack) = st.stacks.get_mut(&tid) else {
            return;
        };
        let Some((path, record)) = stack.pop() else {
            return;
        };
        if stack.is_empty() {
            st.stacks.remove(&tid);
        }
        if !record {
            return;
        }
        let agg = st.agg.entry(path).or_default();
        agg.calls += 1;
        agg.seconds += elapsed;
        for &(k, v) in counters {
            *agg.counters.entry(k.to_string()).or_default() += v;
        }
    }

    /// Record one completed call of an absolute `path` that was timed
    /// elsewhere.
    pub fn record_at(&self, path: &str, seconds: f64) {
        let mut st = self.lock();
        let agg = st.agg.entry(path.to_string()).or_default();
        agg.calls += 1;
        agg.seconds += seconds;
    }

    /// Total seconds recorded under an exact path.
    pub fn seconds(&self, path: &str) -> f64 {
        self.lock().agg.get(path).map_or(0.0, |a| a.seconds)
    }

    /// Times a path was opened.
    pub fn calls(&self, path: &str) -> u64 {
        self.lock().agg.get(path).map_or(0, |a| a.calls)
    }

    /// A counter summed over all calls of a path.
    pub fn counter(&self, path: &str, key: &str) -> u64 {
        self.lock()
            .agg
            .get(path)
            .map_or(0, |a| a.counters.get(key).copied().unwrap_or(0))
    }

    /// All aggregates, sorted by path.
    pub fn snapshot(&self) -> Vec<SpanStat> {
        let st = self.lock();
        let mut out: Vec<SpanStat> = st
            .agg
            .iter()
            .map(|(path, a)| {
                let mut counters: Vec<(String, u64)> =
                    a.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
                counters.sort();
                SpanStat {
                    path: path.clone(),
                    calls: a.calls,
                    seconds: a.seconds,
                    counters,
                }
            })
            .collect();
        out.sort_by(|a, b| a.path.cmp(&b.path));
        out
    }

    /// Clear all aggregates (open spans keep nesting correctly; their
    /// recordings start fresh).
    pub fn reset(&self) {
        self.lock().agg.clear();
    }

    /// Span aggregates as Prometheus text-exposition series.
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        if snap.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str("# TYPE rbx_span_seconds_total counter\n");
        for s in &snap {
            out.push_str(&format!(
                "rbx_span_seconds_total{{span=\"{}\"}} {}\n",
                s.path, s.seconds
            ));
        }
        out.push_str("# TYPE rbx_span_calls_total counter\n");
        for s in &snap {
            out.push_str(&format!(
                "rbx_span_calls_total{{span=\"{}\"}} {}\n",
                s.path, s.calls
            ));
        }
        out
    }
}

/// RAII guard closing its span on drop. Obtained from
/// [`SpanTracer::span`]/[`SpanTracer::span_at`] (recording) or
/// [`SpanGuard::noop`] (inert, used when telemetry is disabled).
pub struct SpanGuard<'a> {
    tracer: Option<&'a SpanTracer>,
    start: Instant,
    counters: Vec<(&'static str, u64)>,
}

impl SpanGuard<'_> {
    /// An inert guard: carries no tracer, records nothing on drop.
    pub fn noop() -> SpanGuard<'static> {
        SpanGuard {
            tracer: None,
            start: Instant::now(),
            counters: Vec::new(),
        }
    }

    /// Add to a per-span counter (e.g. bytes moved inside this region).
    /// Summed into the span's aggregate on drop.
    pub fn record(&mut self, key: &'static str, v: u64) {
        if self.tracer.is_none() {
            return;
        }
        for entry in &mut self.counters {
            if entry.0 == key {
                entry.1 += v;
                return;
            }
        }
        self.counters.push((key, v));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            tracer.close(self.start.elapsed().as_secs_f64(), &self.counters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_paths() {
        let t = SpanTracer::new();
        {
            let _a = t.span("step");
            {
                let _b = t.span("pressure");
                let _c = t.span("krylov");
            }
            let _d = t.span("velocity");
        }
        let paths: Vec<String> = t.snapshot().into_iter().map(|s| s.path).collect();
        assert_eq!(
            paths,
            vec![
                "step",
                "step/pressure",
                "step/pressure/krylov",
                "step/velocity"
            ]
        );
        assert_eq!(t.calls("step"), 1);
    }

    #[test]
    fn child_time_bounded_by_parent() {
        let t = SpanTracer::new();
        {
            let _p = t.span("parent");
            std::thread::sleep(std::time::Duration::from_millis(5));
            {
                let _c = t.span("child");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
        let parent = t.seconds("parent");
        let child = t.seconds("parent/child");
        assert!(child > 0.0);
        assert!(child <= parent, "child {child} > parent {parent}");
        // Parent includes its own 5ms on top of the child.
        assert!(parent >= child + 0.004);
    }

    #[test]
    fn depth_cap_drops_deep_spans_only() {
        let t = SpanTracer::new();
        t.set_max_depth(2);
        {
            let _a = t.span("a");
            let _b = t.span("b");
            let _c = t.span("c"); // depth 3: not recorded
            let _d = t.span("d"); // depth 4: not recorded
        }
        let paths: Vec<String> = t.snapshot().into_iter().map(|s| s.path).collect();
        assert_eq!(paths, vec!["a", "a/b"]);
    }

    #[test]
    fn absolute_spans_share_paths_across_threads() {
        let t = SpanTracer::new();
        {
            let _serial = t.span_at("schwarz/coarse");
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _overlapped = t.span_at("schwarz/coarse");
            });
        });
        assert_eq!(t.calls("schwarz/coarse"), 2);
    }

    #[test]
    fn per_span_counters_sum() {
        let t = SpanTracer::new();
        for _ in 0..3 {
            let mut g = t.span("gs/shared");
            g.record("bytes", 128);
            g.record("bytes", 64);
            g.record("messages", 2);
        }
        assert_eq!(t.counter("gs/shared", "bytes"), 3 * 192);
        assert_eq!(t.counter("gs/shared", "messages"), 6);
    }

    #[test]
    fn threads_have_independent_stacks() {
        let t = SpanTracer::new();
        let _outer = t.span("outer");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Fresh thread: no inherited parent.
                let _g = t.span("helper");
            });
        });
        assert_eq!(t.calls("helper"), 1);
        assert_eq!(t.calls("outer/helper"), 0);
    }

    #[test]
    fn reset_clears_aggregates() {
        let t = SpanTracer::new();
        {
            let _g = t.span("x");
        }
        t.reset();
        assert!(t.snapshot().is_empty());
    }
}
