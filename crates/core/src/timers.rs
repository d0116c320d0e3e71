//! Per-phase wall-time accounting (the paper's Fig. 4 categories).
//!
//! The paper measures "average time per time-step … using MPI_Wtime
//! timings around relevant code regions, with global synchronisation
//! points" (§6.1) and reports the wall-time distribution of one time step
//! split into Pressure, Velocity, Temperature and the rest (Fig. 4).
//!
//! [`PhaseTimers`] is now a thin view over the hierarchical span tracer in
//! [`rbx_telemetry`]: each phase region records a span at the absolute
//! path `step/<phase>`, so any deeper spans opened inside the region
//! (Schwarz sub-stages, gather-scatter exchanges) land in the same tree
//! and phase totals can be attributed below the Fig. 4 level. The four-bin
//! seconds/percentages API is unchanged.

use rbx_comm::Communicator;
use rbx_telemetry::Telemetry;

/// Time-step phase, matching Fig. 4's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Pressure RHS assembly + Poisson solve (incl. preconditioner).
    Pressure,
    /// Velocity RHS + the three Helmholtz solves.
    Velocity,
    /// Temperature RHS + Helmholtz solve.
    Temperature,
    /// Everything else (advection evaluation, lag shuffling, …).
    Other,
}

impl Phase {
    /// All phases in display order.
    pub const ALL: [Phase; 4] = [
        Phase::Pressure,
        Phase::Velocity,
        Phase::Temperature,
        Phase::Other,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Pressure => "Pressure",
            Phase::Velocity => "Velocity",
            Phase::Temperature => "Temperature",
            Phase::Other => "Other",
        }
    }

    /// Span path the phase records under (absolute, see
    /// [`rbx_telemetry::span::SpanTracer::span_at`]).
    pub fn span_path(self) -> &'static str {
        match self {
            Phase::Pressure => "step/pressure",
            Phase::Velocity => "step/velocity",
            Phase::Temperature => "step/temperature",
            Phase::Other => "step/other",
        }
    }
}

/// Accumulating per-phase timers with optional global synchronization at
/// region boundaries (the paper's methodology).
///
/// Backed by the shared [`Telemetry`] span tracer: regions record
/// unconditionally (this type exists to time things), independent of the
/// handle's enabled flag which only gates the *extra* instrumentation
/// sprinkled through solver internals.
#[derive(Debug, Clone)]
pub struct PhaseTimers {
    tel: Telemetry,
    /// Tracer totals at the end of the previous completed step, used to
    /// compute per-step deltas.
    prev: [f64; 4],
    /// Per-phase seconds of the last completed step.
    last_step: [f64; 4],
    steps: usize,
    /// Synchronize ranks at region boundaries for honest attribution.
    pub barrier_sync: bool,
}

impl Default for PhaseTimers {
    fn default() -> Self {
        Self::new(false)
    }
}

impl PhaseTimers {
    /// Fresh timers on a private telemetry handle; `barrier_sync` adds a
    /// barrier before each region starts/ends so time is attributed like
    /// the paper's measurements.
    pub fn new(barrier_sync: bool) -> Self {
        Self::with_telemetry(Telemetry::enabled(), barrier_sync)
    }

    /// Timers recording into a shared telemetry handle, so the phase spans
    /// appear in the same tree as the rest of the run's instrumentation.
    pub fn with_telemetry(tel: Telemetry, barrier_sync: bool) -> Self {
        Self {
            tel,
            prev: [0.0; 4],
            last_step: [0.0; 4],
            steps: 0,
            barrier_sync,
        }
    }

    /// The backing telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    fn slot(phase: Phase) -> usize {
        match phase {
            Phase::Pressure => 0,
            Phase::Velocity => 1,
            Phase::Temperature => 2,
            Phase::Other => 3,
        }
    }

    /// Time a region attributed to `phase`. The trailing barrier (when
    /// enabled) is inside the timed region, as in the paper's methodology.
    pub fn region<T>(&self, phase: Phase, comm: &dyn Communicator, f: impl FnOnce() -> T) -> T {
        if self.barrier_sync {
            comm.barrier();
        }
        let guard = self.tel.tracer().span_at(phase.span_path());
        let out = f();
        if self.barrier_sync {
            comm.barrier();
        }
        drop(guard);
        out
    }

    /// Mark one completed time step (for per-step averages and deltas).
    pub fn complete_step(&mut self) {
        self.steps += 1;
        for (i, p) in Phase::ALL.iter().enumerate() {
            let cur = self.tel.tracer().seconds(p.span_path());
            self.last_step[Self::slot(*p)] = cur - self.prev[i];
            self.prev[i] = cur;
        }
    }

    /// Accumulated seconds for a phase.
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.tel.tracer().seconds(phase.span_path())
    }

    /// Total accumulated seconds across phases.
    pub fn total(&self) -> f64 {
        Phase::ALL.iter().map(|p| self.seconds(*p)).sum()
    }

    /// Completed steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Per-phase seconds of the most recently completed step, in
    /// [`Phase::ALL`] order.
    pub fn last_step_seconds(&self) -> [f64; 4] {
        self.last_step
    }

    /// Percentage breakdown in [`Phase::ALL`] order (the Fig. 4 pie).
    /// All zeros before anything was timed.
    pub fn percentages(&self) -> [f64; 4] {
        let total = self.total();
        if total == 0.0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for (i, p) in Phase::ALL.iter().enumerate() {
            out[i] = 100.0 * self.seconds(*p) / total;
        }
        out
    }

    /// Average seconds per completed step.
    pub fn avg_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.total() / self.steps as f64
        }
    }

    /// Reset all accumulators (e.g. after transient warm-up steps, as the
    /// paper removes "initial transient iterations"). Clears the *entire*
    /// backing tracer, so sub-phase spans restart with the phases.
    pub fn reset(&mut self) {
        self.tel.tracer().reset();
        self.prev = [0.0; 4];
        self.last_step = [0.0; 4];
        self.steps = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbx_comm::SingleComm;

    #[test]
    fn regions_accumulate_and_break_down() {
        let comm = SingleComm::new();
        let mut t = PhaseTimers::new(false);
        t.region(Phase::Pressure, &comm, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.region(Phase::Velocity, &comm, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.complete_step();
        assert!(t.seconds(Phase::Pressure) >= 0.018);
        assert!(t.seconds(Phase::Velocity) >= 0.004);
        assert_eq!(t.seconds(Phase::Temperature), 0.0);
        let pct = t.percentages();
        assert!(pct[0] > pct[1]);
        assert!((pct.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!(t.avg_per_step() > 0.0);
        assert_eq!(t.steps(), 1);
    }

    #[test]
    fn reset_clears() {
        let comm = SingleComm::new();
        let mut t = PhaseTimers::new(false);
        t.region(Phase::Other, &comm, || {});
        t.complete_step();
        t.reset();
        assert_eq!(t.total(), 0.0);
        assert_eq!(t.steps(), 0);
    }

    #[test]
    fn region_returns_value() {
        let comm = SingleComm::new();
        let t = PhaseTimers::new(true);
        let v = t.region(Phase::Pressure, &comm, || 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn untimed_timers_report_exact_zero_percentages() {
        // Regression: the old implementation floored the total at 1e-300,
        // returning garbage ~0 values instead of exact zeros.
        let t = PhaseTimers::new(false);
        assert_eq!(t.percentages(), [0.0; 4]);
        assert_eq!(t.total(), 0.0);
    }

    #[test]
    fn per_step_deltas_isolate_each_step() {
        let comm = SingleComm::new();
        let mut t = PhaseTimers::new(false);
        t.region(Phase::Pressure, &comm, || {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        t.complete_step();
        let first = t.last_step_seconds();
        assert!(first[0] >= 0.008, "{first:?}");
        t.region(Phase::Velocity, &comm, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.complete_step();
        let second = t.last_step_seconds();
        // The second step did no pressure work; its delta must not carry
        // the first step's pressure time.
        assert!(second[0] < 0.002, "{second:?}");
        assert!(second[1] >= 0.004, "{second:?}");
    }

    #[test]
    fn phase_regions_feed_the_shared_span_tree() {
        let comm = SingleComm::new();
        let tel = Telemetry::enabled();
        let t = PhaseTimers::with_telemetry(tel.clone(), false);
        t.region(Phase::Pressure, &comm, || {
            // Nested instrumentation lands under the phase span.
            let _inner = tel.span("krylov");
        });
        assert_eq!(tel.tracer().calls("step/pressure"), 1);
        assert_eq!(tel.tracer().calls("step/pressure/krylov"), 1);
    }
}
