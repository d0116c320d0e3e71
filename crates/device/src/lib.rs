//! # rbx-device — device abstraction layer
//!
//! Neko interfaces with accelerators through a device abstraction layer
//! that manages memory, transfers and kernel launches, with CUDA/HIP/OpenCL
//! implementations behind it (paper §5.1). No GPUs exist in this
//! environment, so per DESIGN.md the layer is backed by:
//!
//! * [`host`] — immediate, synchronous execution (the reference backend);
//! * [`pool`] — a data-parallel worker pool over OS threads for
//!   element-loop kernels;
//! * [`vgpu`] — a **virtual GPU** reproducing the *scheduling semantics*
//!   the paper's task-overlapped preconditioner exploits: asynchronous
//!   kernel launches with a host-side launch latency, in-order streams,
//!   stream priorities, events, and a bounded number of concurrent
//!   executor slots. Kernels are real Rust closures, so the overlapped
//!   additive-Schwarz code path runs the real math under GPU-like
//!   scheduling constraints, and the Fig. 2 experiment (launch-latency
//!   hiding + coarse/fine overlap) is measurable.

pub mod desim;
pub mod explore;
pub mod host;
pub mod pool;
pub mod tuning;
pub mod vgpu;

pub use desim::{simulate, SimConfig, SimKernel, SimResult};
pub use host::HostBackend;
pub use pool::{loop_chunk, reduce_chunk, PoolStats, RangePtr, WorkerPool};
pub use tuning::{set_tuning, tuning, KernelTuning};
pub use vgpu::{busy_wait, Event, Stream, StreamPriority, TraceEvent, VgpuConfig, VirtualGpu};
