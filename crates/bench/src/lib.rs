//! Shared helpers for the experiment binaries and criterion benches.
//!
//! Every paper table/figure has a binary in `src/bin/` (see DESIGN.md §4
//! for the experiment index); the helpers here build representative solver
//! states and handle output files under `target/experiments/`.

use rbx::comm::SingleComm;
use rbx::core::{CaseSetup, Simulation, SolverConfig};
use std::path::PathBuf;

/// Build a single-rank simulation whose borrowed inputs are leaked so the
/// `Simulation` can be returned from a helper (experiment binaries are
/// one-shot processes; the leak is intentional and bounded).
pub fn leaked_sim(case: CaseSetup, cfg: SolverConfig) -> Simulation<'static> {
    let case = Box::leak(Box::new(case));
    let comm = Box::leak(Box::new(SingleComm::new()));
    let all: Vec<usize> = (0..case.mesh.num_elements()).collect();
    let part = vec![0usize; case.mesh.num_elements()];
    let part = Box::leak(Box::new(part));
    let mut sim = Simulation::new(cfg, &case.mesh, part, all, comm);
    sim.init_rbc();
    sim
}

/// A developed laptop-scale RBC state: Γ = 2 box, Ra = 10⁵, run for
/// `steps` time steps from the seeded initial condition, with the Schwarz
/// coarse level at degree `coarse_order` (1 reproduces the paper's §5.3
/// linear coarse space; the solver default is 2).
pub fn developed_box(order: usize, coarse_order: usize, steps: usize) -> Simulation<'static> {
    let case = rbx::core::rbc_box_case(2.0, 3, 3, false, 1);
    let cfg = SolverConfig {
        ra: 1e5,
        order,
        dt: 2e-3,
        ic_noise: 0.05,
        coarse_order,
        ..Default::default()
    };
    let mut sim = leaked_sim(case, cfg);
    for _ in 0..steps {
        let st = sim.step();
        assert!(
            st.converged,
            "solver diverged while preparing state: {st:?}"
        );
    }
    sim
}

/// Output directory for experiment artifacts (`target/experiments/<name>`).
pub fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from("target/experiments").join(name);
    std::fs::create_dir_all(&dir).expect("create experiment output dir");
    dir
}

/// Write CSV rows (with a header) to `path`.
pub fn write_csv(path: &std::path::Path, header: &str, rows: &[String]) {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("create csv"));
    writeln!(f, "{header}").unwrap();
    for r in rows {
        writeln!(f, "{r}").unwrap();
    }
}

/// Render a simple text timeline of `desim` trace events (Fig. 2 style),
/// bucketing each stream's kernel spans onto a character raster.
pub fn render_timeline(trace: &[rbx::device::TraceEvent], width: usize) -> String {
    render_timeline_unit(trace, width, "time units")
}

/// Like [`render_timeline`] with an explicit unit label for the span line
/// (device-simulator traces are in µs).
pub fn render_timeline_unit(trace: &[rbx::device::TraceEvent], width: usize, unit: &str) -> String {
    if trace.is_empty() {
        return "(empty trace)".into();
    }
    let t0 = trace.iter().map(|e| e.start).fold(f64::MAX, f64::min);
    let t1 = trace.iter().map(|e| e.end).fold(f64::MIN, f64::max);
    let span = (t1 - t0).max(1e-12);
    let nstreams = trace.iter().map(|e| e.stream).max().unwrap_or(0) + 1;
    let mut rows = vec![vec![b'.'; width]; nstreams];
    for e in trace {
        let a = (((e.start - t0) / span) * (width - 1) as f64) as usize;
        let b = (((e.end - t0) / span) * (width - 1) as f64) as usize;
        let glyph = e.name.bytes().next().unwrap_or(b'#');
        for cell in &mut rows[e.stream][a..=b.min(width - 1)] {
            *cell = glyph;
        }
    }
    let mut out = String::new();
    for (s, row) in rows.iter().enumerate() {
        out.push_str(&format!("  stream {s}: "));
        out.push_str(std::str::from_utf8(row).unwrap());
        out.push('\n');
    }
    out.push_str(&format!("  (span: {span:.1} {unit})\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn developed_box_advances() {
        let sim = developed_box(3, 2, 3);
        assert_eq!(sim.state.istep, 3);
    }

    #[test]
    fn timeline_renders_streams() {
        use rbx::device::TraceEvent;
        let trace = vec![
            TraceEvent {
                worker: 0,
                stream: 0,
                name: "a".into(),
                start: 0.0,
                end: 0.5,
            },
            TraceEvent {
                worker: 1,
                stream: 1,
                name: "b".into(),
                start: 0.2,
                end: 1.0,
            },
        ];
        let s = render_timeline(&trace, 40);
        assert!(s.contains("stream 0"));
        assert!(s.contains("stream 1"));
        assert!(s.contains('a'));
        assert!(s.contains('b'));
    }
}
