//! # RBX — spectral-element Rayleigh-Bénard DNS in Rust
//!
//! A from-scratch reproduction of the system described in *"Exploring the
//! Ultimate Regime of Turbulent Rayleigh-Bénard Convection Through
//! Unprecedented Spectral-Element Simulations"* (Jansson et al., SC '23):
//! a Neko-style matrix-free spectral-element solver for Boussinesq
//! convection with a task-overlapped hybrid Schwarz pressure
//! preconditioner, in-situ spectral compression and streaming POD, and the
//! benchmark workflow reproducing the paper's evaluation.
//!
//! This facade re-exports the public API of every subsystem crate:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`basis`] | `rbx-basis` | quadrature, Lagrange/Legendre, tensor kernels |
//! | [`mesh`] | `rbx-mesh` | hex meshes, cylinder o-grid, metrics, partitioning |
//! | [`comm`] | `rbx-comm` | Communicator trait, thread-backed ranks |
//! | [`gs`] | `rbx-gs` | two-phase gather-scatter |
//! | [`la`] | `rbx-la` | Helmholtz operator, Krylov, Schwarz preconditioner |
//! | [`device`] | `rbx-device` | worker pool, discrete-event device simulator |
//! | [`core`] | `rbx-core` | the RBC solver: splitting scheme, observables |
//! | [`compress`] | `rbx-compress` | modal truncation + lossless codecs |
//! | [`io`] | `rbx-io` | BPL container, async + staging engines |
//! | [`insitu`] | `rbx-insitu` | streaming POD |
//! | [`perf`] | `rbx-perf` | LUMI/Leonardo models, scaling, Nu(Ra) regimes |
//! | [`telemetry`] | `rbx-telemetry` | span tracer, metrics registry, JSONL/Prometheus export |
//! | [`obs`] | `rbx-obs` | cross-rank timeline merge, health detectors, live export |
//!
//! ## Quickstart
//!
//! ```
//! use rbx::core::{Simulation, SolverConfig};
//! use rbx::comm::SingleComm;
//!
//! let case = rbx::core::rbc_box_case(1.0, 2, 2, false, 1);
//! let comm = SingleComm::new();
//! let cfg = SolverConfig { ra: 1e4, order: 3, dt: 2e-3, ..Default::default() };
//! let mut sim = Simulation::new(cfg, &case.mesh, &case.part, case.elems[0].clone(), &comm);
//! sim.init_rbc();
//! let stats = sim.step();
//! assert!(stats.converged);
//! ```

pub use rbx_basis as basis;
pub use rbx_comm as comm;
pub use rbx_compress as compress;
pub use rbx_core as core;
pub use rbx_device as device;
pub use rbx_gs as gs;
pub use rbx_insitu as insitu;
pub use rbx_io as io;
pub use rbx_la as la;
pub use rbx_mesh as mesh;
pub use rbx_obs as obs;
pub use rbx_perf as perf;
pub use rbx_telemetry as telemetry;
