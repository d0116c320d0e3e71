//! Discrete-event device simulator (virtual time).
//!
//! Reproduces the GPU scheduling semantics the paper's task-parallel
//! additive Schwarz preconditioner exploits (§5.3, Fig. 2) in **virtual
//! time**: kernels carry declared durations, host threads issue launches
//! with a per-launch latency, streams execute in order on a bounded set
//! of executors with priorities. Results are exact, deterministic, and
//! host-independent — this is what the Fig. 2 experiment measures.
//!
//! Model:
//! * each **host thread** issues its launch list sequentially; issuing a
//!   launch costs the host `launch_latency`; the kernel becomes available
//!   to the device at the host's issue completion time;
//! * each **stream** runs its kernels FIFO;
//! * at most `executors` kernels run concurrently;
//! * under contention, the runnable head with the earliest feasible start
//!   wins; ties go to the higher-priority stream (CUDA-priority
//!   behaviour).

/// Relative priority of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StreamPriority {
    /// Default priority.
    Normal,
    /// Scheduled ahead of `Normal` work when executors are contended.
    High,
}

/// One kernel-execution span for timeline output.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Executor slot that ran the kernel.
    pub worker: usize,
    /// Stream the kernel was launched on.
    pub stream: usize,
    /// Kernel label.
    pub name: String,
    /// Virtual time execution began, µs.
    pub start: f64,
    /// Virtual time execution finished, µs.
    pub end: f64,
}

/// One kernel to launch: target stream and execution duration (µs).
#[derive(Debug, Clone)]
pub struct SimKernel {
    /// Stream index the kernel is launched onto.
    pub stream: usize,
    /// Kernel label (for the trace).
    pub name: String,
    /// Device execution time, µs.
    pub duration_us: f64,
}

/// Simulation input: device shape plus per-host-thread launch sequences.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Concurrent executor slots.
    pub executors: usize,
    /// Host-side cost per launch, µs.
    pub launch_latency_us: f64,
    /// Priority of each stream (index = stream id).
    pub stream_priorities: Vec<StreamPriority>,
}

/// Simulation output.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Virtual makespan, µs (last kernel completion).
    pub makespan_us: f64,
    /// Executed spans.
    pub trace: Vec<TraceEvent>,
    /// Device busy time per executor, µs.
    pub executor_busy_us: Vec<f64>,
}

impl SimResult {
    /// Device utilization: busy time over (executors × makespan).
    pub fn utilization(&self) -> f64 {
        let busy: f64 = self.executor_busy_us.iter().sum();
        busy / (self.executor_busy_us.len() as f64 * self.makespan_us.max(1e-300))
    }
}

/// Run the simulation. `host_threads[h]` is the launch sequence issued by
/// host thread `h` (all host threads start at t = 0, as in an OpenMP
/// parallel region).
pub fn simulate(config: &SimConfig, host_threads: &[Vec<SimKernel>]) -> SimResult {
    assert!(config.executors >= 1);
    let nstreams = config.stream_priorities.len();

    // 1. Host phase: compute each kernel's availability time.
    #[derive(Debug)]
    struct Pending {
        name: String,
        duration: f64,
        available_at: f64,
    }
    let mut queues: Vec<std::collections::VecDeque<Pending>> =
        (0..nstreams).map(|_| Default::default()).collect();
    for launches in host_threads {
        let mut clock = 0.0;
        for k in launches {
            assert!(k.stream < nstreams, "kernel targets unknown stream");
            clock += config.launch_latency_us;
            queues[k.stream].push_back(Pending {
                name: k.name.clone(),
                duration: k.duration_us,
                available_at: clock,
            });
        }
    }

    // 2. Device phase: in-order streams, bounded executors, priority ties.
    let mut exec_free = vec![0.0f64; config.executors];
    let mut exec_busy = vec![0.0f64; config.executors];
    let mut stream_last_end = vec![0.0f64; nstreams];
    let mut trace = Vec::new();
    let mut makespan = 0.0f64;

    loop {
        // Candidate = head of each non-empty stream.
        let mut best: Option<(f64, std::cmp::Reverse<StreamPriority>, usize, usize)> = None;
        for s in 0..nstreams {
            if let Some(head) = queues[s].front() {
                // Earliest executor.
                let (ex, ex_free) = exec_free
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
                    .map(|(i, &t)| (i, t))
                    .expect("at least one executor");
                let start = head.available_at.max(stream_last_end[s]).max(ex_free);
                let key = (start, std::cmp::Reverse(config.stream_priorities[s]), s, ex);
                best = match best {
                    None => Some(key),
                    Some(b) if key < b => Some(key),
                    other => other,
                };
            }
        }
        let Some((start, _, s, ex)) = best else { break };
        let head = queues[s].pop_front().expect("candidate head exists");
        let end = start + head.duration;
        exec_free[ex] = end;
        exec_busy[ex] += head.duration;
        stream_last_end[s] = end;
        makespan = makespan.max(end);
        trace.push(TraceEvent {
            worker: ex,
            stream: s,
            name: head.name,
            start,
            end,
        });
    }

    SimResult {
        makespan_us: makespan,
        trace,
        executor_busy_us: exec_busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(stream: usize, name: &str, us: f64) -> SimKernel {
        SimKernel {
            stream,
            name: name.into(),
            duration_us: us,
        }
    }

    fn cfg(executors: usize, latency: f64, prios: &[StreamPriority]) -> SimConfig {
        SimConfig {
            executors,
            launch_latency_us: latency,
            stream_priorities: prios.to_vec(),
        }
    }

    #[test]
    fn single_stream_serializes_and_pays_latency() {
        let c = cfg(2, 5.0, &[StreamPriority::Normal]);
        let launches = vec![vec![
            kernel(0, "a", 10.0),
            kernel(0, "b", 10.0),
            kernel(0, "c", 10.0),
        ]];
        let r = simulate(&c, &launches);
        // First kernel available at 5 (one launch), runs 10; later kernels
        // are ready before the stream frees, so back-to-back: 5 + 30 = 35.
        assert!((r.makespan_us - 35.0).abs() < 1e-9, "{}", r.makespan_us);
        // In-order.
        assert!(r.trace[0].end <= r.trace[1].start + 1e-12);
    }

    #[test]
    fn two_streams_overlap_on_two_executors() {
        let c = cfg(2, 1.0, &[StreamPriority::Normal, StreamPriority::Normal]);
        let launches = vec![vec![kernel(0, "A", 100.0)], vec![kernel(1, "B", 100.0)]];
        let r = simulate(&c, &launches);
        assert!((r.makespan_us - 101.0).abs() < 1e-9, "{}", r.makespan_us);
        assert!(r.utilization() > 0.9);
    }

    #[test]
    fn one_executor_serializes_two_streams() {
        let c = cfg(1, 1.0, &[StreamPriority::Normal, StreamPriority::Normal]);
        let launches = vec![vec![kernel(0, "A", 100.0)], vec![kernel(1, "B", 100.0)]];
        let r = simulate(&c, &launches);
        assert!((r.makespan_us - 201.0).abs() < 1e-9, "{}", r.makespan_us);
    }

    #[test]
    fn priority_wins_ties() {
        // Both heads feasible at t = 1 on the single executor; the High
        // stream must run first.
        let c = cfg(1, 1.0, &[StreamPriority::Normal, StreamPriority::High]);
        let launches = vec![vec![kernel(0, "low", 10.0)], vec![kernel(1, "high", 10.0)]];
        let r = simulate(&c, &launches);
        let high = r.trace.iter().find(|t| t.name == "high").unwrap();
        let low = r.trace.iter().find(|t| t.name == "low").unwrap();
        assert!(high.start < low.start, "high {high:?} vs low {low:?}");
    }

    #[test]
    fn launch_latency_throttles_single_host_thread() {
        // 20 tiny kernels from one host thread: makespan dominated by the
        // host issue rate, not execution.
        let c = cfg(2, 10.0, &[StreamPriority::Normal]);
        let launches = vec![(0..20).map(|i| kernel(0, &format!("k{i}"), 1.0)).collect()];
        let r = simulate(&c, &launches);
        assert!(
            (r.makespan_us - (20.0 * 10.0 + 1.0)).abs() < 1e-9,
            "{}",
            r.makespan_us
        );
    }

    #[test]
    fn dual_host_threads_hide_launch_latency() {
        // Same 20 kernels split over two host threads + two streams:
        // the issue streams proceed concurrently.
        let c = cfg(2, 10.0, &[StreamPriority::Normal, StreamPriority::Normal]);
        let launches: Vec<Vec<SimKernel>> = vec![
            (0..10).map(|i| kernel(0, &format!("a{i}"), 1.0)).collect(),
            (0..10).map(|i| kernel(1, &format!("b{i}"), 1.0)).collect(),
        ];
        let r = simulate(&c, &launches);
        assert!(
            (r.makespan_us - (10.0 * 10.0 + 1.0)).abs() < 1e-9,
            "{}",
            r.makespan_us
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let c = cfg(2, 3.0, &[StreamPriority::High, StreamPriority::Normal]);
        let launches = vec![
            (0..15)
                .map(|i| kernel(0, &format!("c{i}"), 12.0))
                .collect::<Vec<_>>(),
            (0..4).map(|i| kernel(1, &format!("F{i}"), 80.0)).collect(),
        ];
        let a = simulate(&c, &launches);
        let b = simulate(&c, &launches);
        assert_eq!(a.makespan_us, b.makespan_us);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.iter().zip(&b.trace) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.name, y.name);
        }
    }

    #[test]
    fn trace_respects_executor_capacity() {
        // 4 streams, 2 executors: at no virtual instant may more than two
        // kernels be executing.
        let c = cfg(2, 0.5, &[StreamPriority::Normal; 4]);
        let launches: Vec<Vec<SimKernel>> = (0..4)
            .map(|s| {
                (0..5)
                    .map(|i| kernel(s, &format!("s{s}k{i}"), 7.0))
                    .collect()
            })
            .collect();
        let r = simulate(&c, &launches);
        let mut events: Vec<(f64, i32)> = Vec::new();
        for t in &r.trace {
            events.push((t.start, 1));
            events.push((t.end, -1));
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)) // ends before starts at equal times
        });
        let mut active = 0;
        for (_, d) in events {
            active += d;
            assert!(active <= 2, "more kernels active than executors");
        }
        assert_eq!(r.trace.len(), 20);
    }
}
