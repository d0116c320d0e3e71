// Index-style loops mirror the tensor/lattice math throughout; the
// iterator forms clippy suggests would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

//! # rbx-la — matrix-free operators, Krylov solvers, preconditioners
//!
//! The discrete heart of the solver stack:
//!
//! * [`ops`] — vector kernels and the rank-aware inner product (shared
//!   nodes weighted by inverse multiplicity, reduced over the
//!   communicator);
//! * [`helmholtz`] — the matrix-free spectral-element Helmholtz/Laplace
//!   operator `H = h₁·A + h₂·B` evaluated per element as `Dᵀ(G∘D)` plus
//!   diagonal mass, followed by gather-scatter assembly and boundary
//!   masking, exactly the unassembled-operator structure the paper's §5.1
//!   describes;
//! * [`bc`] — Dirichlet masks derived from mesh boundary tags;
//! * [`krylov`] — preconditioned conjugate gradients and flexible
//!   GMRES(m) (pressure uses GMRES, velocity/temperature use CG, paper §6);
//! * [`jacobi`] — the assembled-diagonal (block-Jacobi in Nek parlance)
//!   preconditioner;
//! * [`fdm`] — element-local fast diagonalization solves;
//! * [`coarse`] — the low-degree coarse-grid problem (degree 2 by default;
//!   the paper's §5.3 uses linear elements), solved exactly with a
//!   Cholesky factor built once at set-up;
//! * [`cholesky`] — the sparse Cholesky factorisation and the
//!   nested-dissection ordering behind it;
//! * [`schwarz`] — the two-level additive Schwarz preconditioner
//!   `M⁻¹ = R₀ᵀA₀⁻¹R₀ + Σ RᵏᵀÃᵏ⁻¹Rᵏ` (paper Eq. 3), in both the serial
//!   and the **task-overlapped** formulation that runs the coarse solve
//!   concurrently with the fine-level local solves.

pub mod bc;
pub mod cholesky;
pub mod coarse;
pub mod error;
pub mod fdm;
pub mod helmholtz;
pub mod instrument;
pub mod jacobi;
pub mod krylov;
pub mod ops;
pub mod projection;
pub mod schwarz;

pub use bc::dirichlet_mask;
pub use coarse::CoarseGrid;
pub use error::{SolveError, SolveHealth};
pub use fdm::ElementFdm;
pub use helmholtz::HelmholtzOp;
pub use instrument::record_solve;
pub use jacobi::assembled_diagonal;
pub use krylov::{fgmres, pcg, ResidualHistory, SolveStats};
pub use ops::{DotProduct, ElemLayout};
pub use projection::SolutionProjection;
pub use schwarz::{SchwarzMg, SchwarzMode};
