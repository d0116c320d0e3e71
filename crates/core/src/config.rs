//! Solver configuration.

use crate::sim::{P_PROJECTION, TIME_ORDER};
use rbx_la::SchwarzMode;
use rbx_telemetry::json::Value;

/// Thermal boundary condition at the plates.
///
/// Constant-temperature plates are the canonical RBC setup (and the
/// paper's); constant-flux heating is the experimentally relevant variant
/// whose role in the ultimate-regime debate is itself studied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThermalBc {
    /// T = +0.5 at the bottom plate, −0.5 at the top plate (paper setup).
    Isothermal,
    /// Imposed heat flux `q` into the fluid at the bottom plate, top plate
    /// isothermal at −0.5. The conductive steady profile has slope
    /// `−q/α`; `q = α` reproduces the isothermal conduction gradient.
    BottomFluxTopIsothermal {
        /// Non-dimensional heat flux into the fluid.
        q: f64,
    },
}

/// All tunables of one RBC simulation, mirroring the paper's §6 setup.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Rayleigh number (the control parameter of the Nu(Ra) question).
    pub ra: f64,
    /// Prandtl number (1 in the paper).
    pub pr: f64,
    /// Polynomial degree (paper: 7).
    pub order: usize,
    /// Time-step size in free-fall units.
    pub dt: f64,
    /// Use 3/2-rule dealiasing for advection (paper: yes).
    pub dealias: bool,
    /// Pressure GMRES: absolute tolerance.
    pub p_tol: f64,
    /// Polynomial degree of the Schwarz coarse level, clamped to
    /// `order − 1`. Default 2: the paper's linear elements (1) leave the
    /// coarse space too weak, and on the reference box degree 2 cuts the
    /// mean pressure iterations per step from ≈ 23–30 to ≈ 4–5 and the
    /// step time by more than half (DESIGN.md §6). Set 1 to reproduce the
    /// paper's configuration.
    pub coarse_order: usize,
    /// Schwarz execution mode for the pressure preconditioner.
    pub schwarz_mode: SchwarzMode,
    /// Use the Schwarz preconditioner for pressure (false = Jacobi, for
    /// ablation).
    pub schwarz_enabled: bool,
    /// Velocity/temperature CG: relative tolerance.
    pub v_tol: f64,
    /// Amplitude of the random perturbation seeding convection.
    pub ic_noise: f64,
    /// RNG seed for reproducible initial conditions.
    pub seed: u64,
    /// Thermal boundary condition at the plates.
    pub thermal_bc: ThermalBc,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            ra: 1e4,
            pr: 1.0,
            order: 7,
            dt: 1e-3,
            dealias: true,
            p_tol: 1e-7,
            coarse_order: 2,
            schwarz_mode: SchwarzMode::Serial,
            schwarz_enabled: true,
            v_tol: 1e-8,
            ic_noise: 1e-3,
            seed: 7,
            thermal_bc: ThermalBc::Isothermal,
        }
    }
}

impl SolverConfig {
    /// Non-dimensional kinematic viscosity `√(Pr/Ra)` (paper Eq. 1).
    pub fn viscosity(&self) -> f64 {
        (self.pr / self.ra).sqrt()
    }

    /// Non-dimensional thermal diffusivity `1/√(Ra·Pr)` (paper Eq. 1).
    pub fn diffusivity(&self) -> f64 {
        1.0 / (self.ra * self.pr).sqrt()
    }
}

impl SolverConfig {
    /// Serialize to a flat JSON object (for experiment records).
    pub fn to_json(&self) -> String {
        let schwarz_mode = match self.schwarz_mode {
            SchwarzMode::Serial => "serial",
            SchwarzMode::Overlapped => "overlapped",
        };
        let thermal_bc = match self.thermal_bc {
            ThermalBc::Isothermal => "isothermal".to_string(),
            ThermalBc::BottomFluxTopIsothermal { q } => format!("bottom_flux:{q}"),
        };
        Value::obj([
            ("ra", Value::num(self.ra)),
            ("pr", Value::num(self.pr)),
            ("order", Value::int(self.order as u64)),
            ("dt", Value::num(self.dt)),
            ("time_order", Value::int(TIME_ORDER as u64)),
            ("dealias", Value::Bool(self.dealias)),
            ("p_tol", Value::num(self.p_tol)),
            ("p_projection", Value::int(P_PROJECTION as u64)),
            ("coarse_order", Value::int(self.coarse_order as u64)),
            ("schwarz_mode", Value::str(schwarz_mode)),
            ("schwarz_enabled", Value::Bool(self.schwarz_enabled)),
            ("v_tol", Value::num(self.v_tol)),
            ("ic_noise", Value::num(self.ic_noise)),
            ("seed", Value::int(self.seed)),
            ("thermal_bc", Value::str(thermal_bc)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nondimensional_groups() {
        let c = SolverConfig {
            ra: 1e8,
            pr: 1.0,
            ..Default::default()
        };
        assert!((c.viscosity() - 1e-4).abs() < 1e-18);
        assert!((c.diffusivity() - 1e-4).abs() < 1e-18);
        let c2 = SolverConfig {
            ra: 1e6,
            pr: 4.0,
            ..Default::default()
        };
        assert!((c2.viscosity() - 2e-3).abs() < 1e-12);
        assert!((c2.diffusivity() - 5e-4).abs() < 1e-12);
    }

    #[test]
    fn json_round_trippable_fields() {
        let c = SolverConfig::default();
        let j = c.to_json();
        assert!(j.contains("\"ra\":10000"));
        assert!(j.contains("\"schwarz_mode\":\"serial\""));
    }
}
