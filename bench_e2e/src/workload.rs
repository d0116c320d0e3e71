//! The benchmark's workloads and the reference cases they run.
//!
//! Three workloads share one Γ = 2 box (Ra = 1e5, p = 7, 64 elements,
//! 32 768 points) and differ only in how the step is executed — one rank
//! with a pool of one, one rank with a pool of two, two ranks with a pool
//! of one each — so a change to one parallel layer shows on the workload
//! that exercises it and is predicted flat on the others. The fourth runs
//! the Γ = 1 cylinder (an o-grid of 20 curved elements at p = 5) through
//! the sampling path of `run_dns`: observables every step, and on
//! alternate steps an asynchronously compressed `uz` snapshot or a durable
//! checkpoint. README.md gives the reasons in full.

use rbx::core::{rbc_box_case, rbc_cylinder_case, CaseSetup, SolverConfig};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Box, one rank, worker pool of one thread.
    BoxSerial,
    /// Box, one rank, worker pool of two threads.
    BoxThreads2,
    /// Box, two ranks, worker pool of one thread each.
    BoxRanks2,
    /// Cylinder with the `run_dns` sampling and checkpoint workflow.
    CylWorkflow,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::BoxSerial,
        Workload::BoxThreads2,
        Workload::BoxRanks2,
        Workload::CylWorkflow,
    ];

    /// Name on the command line and in BENCHMARK.json.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BoxSerial => "box64_p7_serial",
            Workload::BoxThreads2 => "box64_p7_threads2",
            Workload::BoxRanks2 => "box64_p7_ranks2",
            Workload::CylWorkflow => "cyl20_p5_workflow",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ranks (`run_on_ranks` threads) the step runs on.
    pub fn ranks(self) -> usize {
        match self {
            Workload::BoxRanks2 => 2,
            _ => 1,
        }
    }

    /// Worker-pool threads per rank.
    pub fn threads(self) -> usize {
        match self {
            Workload::BoxThreads2 => 2,
            _ => 1,
        }
    }

    /// Whether each step also samples, compresses and checkpoints.
    pub fn workflow(self) -> bool {
        self == Workload::CylWorkflow
    }

    /// The case this workload runs.
    pub fn case(self, scale: Scale) -> CaseSpec {
        let cylinder = self == Workload::CylWorkflow;
        match (cylinder, scale) {
            (false, Scale::Full) => CaseSpec {
                key: "box64_p7",
                geometry: Geometry::Box {
                    gamma: 2.0,
                    nx: 4,
                    nz: 4,
                },
                order: 7,
                base_steps: 104,
                window: 77,
                reference: Reference {
                    nu_volume: 1.012564318,
                    nu_wall: 1.000308209,
                    ke: 2.7579253e-5,
                },
            },
            (true, Scale::Full) => CaseSpec {
                key: "cyl20_p5",
                geometry: Geometry::Cylinder {
                    gamma: 1.0,
                    resolution: 1,
                },
                order: 5,
                base_steps: 107,
                window: 81,
                reference: Reference {
                    nu_volume: 1.008573230,
                    nu_wall: 1.000272054,
                    ke: 3.4116877e-6,
                },
            },
            (false, Scale::Tiny) => CaseSpec {
                key: "box8_p3",
                geometry: Geometry::Box {
                    gamma: 2.0,
                    nx: 2,
                    nz: 2,
                },
                order: 3,
                base_steps: 12,
                window: 4,
                reference: Reference {
                    nu_volume: 1.000154612,
                    nu_wall: 1.000000873,
                    ke: 2.9564843e-8,
                },
            },
            (true, Scale::Tiny) => CaseSpec {
                key: "cyl20_p3",
                geometry: Geometry::Cylinder {
                    gamma: 1.0,
                    resolution: 1,
                },
                order: 3,
                base_steps: 12,
                window: 4,
                reference: Reference {
                    nu_volume: 1.001954819,
                    nu_wall: 1.000003245,
                    ke: 7.4923050e-8,
                },
            },
        }
    }
}

/// Problem size: the benchmark's cases, or miniature ones for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The reference cases the benchmark measures.
    Full,
    /// Same code paths on a few elements at low order, for smoke tests.
    Tiny,
}

/// Cell geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Geometry {
    /// `nx × nx × nz` elements over `[0, γ]² × [0, 1]`, graded plates.
    Box { gamma: f64, nx: usize, nz: usize },
    /// The paper's cylinder o-grid at `resolution`.
    Cylinder { gamma: f64, resolution: usize },
}

/// Values the state at the end of a window must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// Volume-averaged Nusselt number.
    pub nu_volume: f64,
    /// Nusselt number at the hot plate.
    pub nu_wall: f64,
    /// Kinetic energy.
    pub ke: f64,
}

/// Relative tolerance on the Nusselt numbers. A reordered reduction or a
/// different preconditioner moves them by about the solver tolerances
/// (1e-7); the seeded perturbation by ~1e-8; a wrong physics term by far
/// more than this (the convective part of Nu is ~1e-2).
pub const NU_REL_TOL: f64 = 1e-4;
/// Relative tolerance on the kinetic energy, the quantity most sensitive
/// to the solver tolerances. The seeded perturbation moves it by ~1e-7.
pub const KE_REL_TOL: f64 = 1e-3;

/// A reference case: mesh, order, and the replay plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseSpec {
    /// Cache key of the developed state.
    pub key: &'static str,
    /// Cell geometry.
    pub geometry: Geometry,
    /// Polynomial order.
    pub order: usize,
    /// Steps from the initial condition to the developed state: past the
    /// BDF ramp by at least 100 steps and ending on a step that restarts
    /// the pressure projection space.
    pub base_steps: usize,
    /// Steps per replayed window: whole projection cycles of the
    /// unperturbed trajectory, and enough of them that the seed-to-seed
    /// spread of the window's pressure iterations stays near 4 %.
    pub window: usize,
    /// End-of-window reference values.
    pub reference: Reference,
}

impl CaseSpec {
    /// Mesh and partition over `nranks` ranks.
    pub fn build(&self, nranks: usize) -> CaseSetup {
        match self.geometry {
            Geometry::Box { gamma, nx, nz } => rbc_box_case(gamma, nx, nz, false, nranks),
            Geometry::Cylinder { gamma, resolution } => {
                rbc_cylinder_case(gamma, resolution, nranks)
            }
        }
    }

    /// Solver settings: `run_dns` defaults at Ra = 1e5.
    pub fn solver_config(&self) -> SolverConfig {
        SolverConfig {
            ra: 1e5,
            order: self.order,
            dt: 2e-3,
            ic_noise: 0.05,
            ..Default::default()
        }
    }

    /// Check end-of-window observables against the reference; the error
    /// names every quantity out of tolerance.
    pub fn check(&self, nu_volume: f64, nu_wall: f64, ke: f64) -> Result<(), String> {
        let r = &self.reference;
        let mut bad = Vec::new();
        for (what, got, want, tol) in [
            ("volume Nu", nu_volume, r.nu_volume, NU_REL_TOL),
            ("wall Nu", nu_wall, r.nu_wall, NU_REL_TOL),
            ("KE", ke, r.ke, KE_REL_TOL),
        ] {
            let rel = ((got - want) / want).abs();
            // A NaN observable fails too: it is not within tolerance.
            if rel.is_nan() || rel > tol {
                bad.push(format!(
                    "{what} {got:.9e} vs reference {want:.9e} (rel {rel:.2e} > {tol:.0e})"
                ));
            }
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("box"), None);
    }

    #[test]
    fn box_workloads_share_one_case() {
        for scale in [Scale::Full, Scale::Tiny] {
            let b = Workload::BoxSerial.case(scale);
            assert_eq!(Workload::BoxThreads2.case(scale), b);
            assert_eq!(Workload::BoxRanks2.case(scale), b);
            assert_ne!(Workload::CylWorkflow.case(scale).key, b.key);
        }
    }

    #[test]
    fn full_cases_have_the_stated_sizes() {
        let b = Workload::BoxSerial.case(Scale::Full);
        assert_eq!(b.build(1).mesh.num_elements(), 64);
        let c = Workload::CylWorkflow.case(Scale::Full);
        assert_eq!(c.build(1).mesh.num_elements(), 20);
        // At least 100 steps past the third-order BDF ramp.
        assert!(b.base_steps >= 103 && c.base_steps >= 103);
    }

    #[test]
    fn gate_rejects_out_of_tolerance_and_nan() {
        let c = Workload::BoxSerial.case(Scale::Full);
        let r = c.reference;
        assert!(c.check(r.nu_volume, r.nu_wall, r.ke).is_ok());
        assert!(c
            .check(r.nu_volume * (1.0 + 2.0 * NU_REL_TOL), r.nu_wall, r.ke)
            .is_err());
        assert!(c.check(r.nu_volume, r.nu_wall, r.ke * 1.5).is_err());
        assert!(c.check(f64::NAN, r.nu_wall, r.ke).is_err());
    }
}
