// Index-style loops mirror the tensor/lattice math throughout; the
// iterator forms clippy suggests would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

//! # rbx-core — the Rayleigh-Bénard DNS solver
//!
//! The paper's primary code path: the incompressible Navier-Stokes
//! equations coupled to a temperature field under the Boussinesq
//! approximation (paper Eq. 1), discretized with the spectral-element
//! method and integrated in time with the Karniadakis splitting scheme —
//! mixed implicit-explicit BDF3/EXT3, dealiased (3/2-rule) advection,
//! pressure solved by GMRES with the hybrid Schwarz-multigrid
//! preconditioner, velocity and temperature by block-Jacobi CG (paper §6).
//!
//! The [`Simulation`] driver owns the full per-rank solver state, advances
//! one time step per [`Simulation::step`] call, and accounts every phase in
//! the same categories as the paper's Fig. 4 (Pressure / Velocity /
//! Temperature / Other).

pub mod case;
pub mod checkpoint;
pub mod config;
pub mod diffops;
pub mod error;
pub mod faultinject;
pub mod fields;
pub mod observables;
pub mod recovery;
pub mod repartition;
pub mod resolution;
pub mod sim;
pub mod slice;
pub mod stats;
pub mod timeint;
pub mod timers;

pub use case::{rbc_box_case, rbc_cylinder_case, CaseSetup};
pub use checkpoint::{
    read_checkpoint, write_checkpoint, CheckpointError, CheckpointSet, DurableGeneration,
    RestoreOutcome,
};
pub use config::SolverConfig;
pub use diffops::Dealias;
pub use error::{SimError, StepFault, StepPhase, StepVerdict};
pub use faultinject::{FaultAction, FaultPlan};
pub use fields::FlowState;
pub use observables::Observables;
pub use recovery::{RecoveryEvent, RecoveryPolicy, ResilientRunner, RunObserver, RunReport};
pub use repartition::{plan_repartition, RepartitionPlan};
pub use resolution::{ElementResolution, SpectralIndicator};
pub use sim::Simulation;
pub use stats::{RunStatistics, RunningMean, ZProfiles};
pub use timeint::{bdf_coeffs, ext_coeffs};
pub use timers::{Phase, PhaseTimers};
