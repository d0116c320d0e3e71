//! # rbx-device — device abstraction layer
//!
//! Neko interfaces with accelerators through a device abstraction layer
//! that manages memory, transfers and kernel launches, with CUDA/HIP/OpenCL
//! implementations behind it (paper §5.1). This reproduction runs on
//! CPUs only, so per DESIGN.md the layer is backed by:
//!
//! * [`pool`] — a data-parallel worker pool over OS threads for
//!   element-loop kernels (a one-thread pool is the serial executor);
//! * [`desim`] — a discrete-event device simulator reproducing, in
//!   virtual time, the *scheduling semantics* the paper's task-overlapped
//!   preconditioner exploits: asynchronous kernel launches with a
//!   host-side launch latency, in-order streams, stream priorities, and
//!   a bounded number of concurrent executor slots. The Fig. 2 experiment
//!   (launch-latency hiding + coarse/fine overlap) runs on it.

pub mod desim;
pub mod explore;
pub mod pool;

pub use desim::{simulate, SimConfig, SimKernel, SimResult, StreamPriority, TraceEvent};
pub use pool::{loop_chunk, PoolStats, RangePtr, WorkerPool};

/// Virtual-GPU stream semantics, checked on the [`desim`] model: in-order
/// streams, cross-stream overlap, executor serialization, priority under
/// contention, host-side launch latency and the execution trace.
#[cfg(test)]
mod vgpu {
    #[cfg(test)]
    mod tests {
        use crate::desim::{simulate, SimConfig, SimKernel, StreamPriority};

        fn kernel(stream: usize, name: &str, us: f64) -> SimKernel {
            SimKernel {
                stream,
                name: name.into(),
                duration_us: us,
            }
        }

        fn quick_cfg(executors: usize, streams: &[StreamPriority]) -> SimConfig {
            SimConfig {
                executors,
                launch_latency_us: 1.0,
                stream_priorities: streams.to_vec(),
            }
        }

        #[test]
        fn kernels_on_one_stream_run_in_order() {
            let c = quick_cfg(2, &[StreamPriority::Normal]);
            let launches = vec![(0..10).map(|i| kernel(0, &format!("k{i}"), 3.0)).collect()];
            let r = simulate(&c, &launches);
            let names: Vec<&str> = r.trace.iter().map(|t| t.name.as_str()).collect();
            let expected: Vec<String> = (0..10).map(|i| format!("k{i}")).collect();
            assert_eq!(names, expected);
            for w in r.trace.windows(2) {
                assert!(w[0].end <= w[1].start, "{:?} overlaps {:?}", w[0], w[1]);
            }
        }

        #[test]
        fn two_streams_overlap() {
            let c = quick_cfg(2, &[StreamPriority::Normal; 2]);
            let launches = vec![vec![kernel(0, "a", 30_000.0), kernel(1, "b", 30_000.0)]];
            let r = simulate(&c, &launches);
            assert!(
                r.makespan_us < 55_000.0,
                "no overlap: makespan = {} µs for 2×30 ms kernels on 2 executors",
                r.makespan_us
            );
            assert_ne!(r.trace[0].worker, r.trace[1].worker);
        }

        #[test]
        fn single_executor_serializes() {
            let c = quick_cfg(1, &[StreamPriority::Normal; 2]);
            let launches = vec![vec![kernel(0, "a", 20_000.0), kernel(1, "b", 20_000.0)]];
            let r = simulate(&c, &launches);
            assert!(r.makespan_us >= 40_000.0, "{}", r.makespan_us);
        }

        #[test]
        fn high_priority_stream_scheduled_first() {
            // One executor busy with a long kernel; a high- and a
            // low-priority kernel are queued behind it. The high one must
            // run first even though it was launched last.
            let c = quick_cfg(1, &[StreamPriority::Normal, StreamPriority::High]);
            let launches = vec![vec![
                kernel(0, "blocker", 30_000.0),
                kernel(0, "low", 1.0),
                kernel(1, "high", 1.0),
            ]];
            let r = simulate(&c, &launches);
            let order: Vec<&str> = r.trace.iter().map(|t| t.name.as_str()).collect();
            assert_eq!(order, ["blocker", "high", "low"]);
        }

        #[test]
        fn trace_records_spans() {
            let c = quick_cfg(2, &[StreamPriority::Normal]);
            let launches = vec![vec![
                kernel(0, "alpha", 2_000.0),
                kernel(0, "beta", 2_000.0),
            ]];
            let r = simulate(&c, &launches);
            assert_eq!(r.trace.len(), 2);
            let alpha = r.trace.iter().find(|t| t.name == "alpha").unwrap();
            let beta = r.trace.iter().find(|t| t.name == "beta").unwrap();
            assert!(alpha.end <= beta.start, "in-order violated");
            assert!(alpha.end > alpha.start);
            assert_eq!((alpha.stream, beta.stream), (0, 0));
        }

        #[test]
        fn launch_latency_costs_host_time() {
            // Five empty kernels from one host thread at 2 ms per launch:
            // the last becomes available only after the host paid 10 ms.
            let c = SimConfig {
                executors: 2,
                launch_latency_us: 2_000.0,
                stream_priorities: vec![StreamPriority::Normal],
            };
            let launches = vec![(0..5).map(|_| kernel(0, "nop", 0.0)).collect()];
            let r = simulate(&c, &launches);
            assert!(
                r.makespan_us >= 10_000.0,
                "host paid only {} µs",
                r.makespan_us
            );
        }
    }
}
