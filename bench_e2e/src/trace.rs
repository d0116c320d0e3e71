//! In-memory span recorder for the traced run.
//!
//! The harness records a span around each call it makes into a layer —
//! name, start, end and the span that caused it — keeps them in memory,
//! and writes them as JSON lines when the run ends. A disabled tracer
//! only runs the closure, which is how the untraced run is measured.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `step` or `checkpoint.write`.
    pub name: &'static str,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder of one rank.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Write the spans as JSON lines (`id`, `name`, `start`, `end`,
    /// `parent`, times in seconds).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"parent\":{parent}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_spans_and_records_parents() {
        let mut tr = Tracer::new(true);
        let v = tr.span("window", |tr| {
            tr.span("step", |_| 1) + tr.span("step", |tr| tr.span("checkpoint.write", |_| 2))
        });
        assert_eq!(v, 3);
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.end >= x.start));
        assert_eq!(tr.durations("step").len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("step", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
