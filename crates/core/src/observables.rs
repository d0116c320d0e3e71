//! Flow observables: Nusselt numbers, energy, divergence, CFL.
//!
//! The Nusselt number is the paper's scientific target (§3: "in exactly
//! which way Nu depends on Ra in the limit of large Ra"). Two independent
//! estimates are provided — the volume-averaged convective flux and the
//! plate-averaged conductive flux — whose agreement in a statistically
//! steady state is the standard resolution check in RBC studies.

use crate::diffops::{elem_grad_component, phys_grad, pointwise_divergence, DiffScratch};
use rbx_comm::{allreduce_scalar, allreduce_scalar_max, Communicator};
use rbx_mesh::topology::face_to_volume;
use rbx_mesh::{BoundaryTag, GeomFactors, HexMesh};

/// Observable calculator bound to a rank's geometry.
pub struct Observables<'a> {
    geom: &'a GeomFactors,
    mesh: &'a HexMesh,
    my_elems: &'a [usize],
}

impl<'a> Observables<'a> {
    /// Bind to the rank-local geometry, the global mesh and this rank's
    /// element list.
    pub fn new(geom: &'a GeomFactors, mesh: &'a HexMesh, my_elems: &'a [usize]) -> Self {
        Self {
            geom,
            mesh,
            my_elems,
        }
    }

    /// Global volume integral `∫ f dV` (element-local quadrature sums are
    /// exact without multiplicity weighting).
    pub fn integrate(&self, f: &[f64], comm: &dyn Communicator) -> f64 {
        let local: f64 = f.iter().zip(&self.geom.mass).map(|(v, b)| v * b).sum();
        allreduce_scalar(comm, local)
    }

    /// Global cell volume.
    pub fn volume(&self, comm: &dyn Communicator) -> f64 {
        allreduce_scalar(comm, self.geom.volume())
    }

    /// Volume-averaged Nusselt number `Nu = 1 + √(Ra·Pr)·⟨u_z·T⟩_V`
    /// (free-fall units, unit ΔT and height).
    pub fn nusselt_volume(
        &self,
        uz: &[f64],
        t: &[f64],
        ra: f64,
        pr: f64,
        comm: &dyn Communicator,
    ) -> f64 {
        // `integrate` of the pointwise product `uz·t`, without building it.
        let local: f64 = uz
            .iter()
            .zip(t)
            .zip(&self.geom.mass)
            .map(|((a, b), m)| a * b * m)
            .sum();
        let mean = allreduce_scalar(comm, local) / self.volume(comm);
        1.0 + (ra * pr).sqrt() * mean
    }

    /// Plate-averaged Nusselt number from the conductive wall flux:
    /// `Nu = ∓⟨∂T/∂z⟩_plate` (− on the hot bottom wall, + on the cold top
    /// wall, where the non-dimensional conductive profile has slope −1).
    pub fn nusselt_wall(&self, t: &[f64], tag: BoundaryTag, comm: &dyn Communicator) -> f64 {
        let n = self.geom.nx1;
        let nn = n * n * n;
        // ∂T/∂z of the elements that touch the plate, one at a time: the
        // gradient is element-local, so these are the full gradient's bits.
        let mut gz = vec![0.0; nn];
        let mut scratch = DiffScratch::default();
        let mut flux = 0.0;
        let mut area = 0.0;
        for (le, &ge) in self.my_elems.iter().enumerate() {
            let tags = &self.mesh.face_tags[ge];
            if !tags.contains(&tag) {
                continue;
            }
            let base = le * nn;
            elem_grad_component(
                self.geom,
                base,
                &t[base..base + nn],
                2,
                &mut gz,
                &mut scratch,
            );
            for (f, &face_tag) in tags.iter().enumerate() {
                if face_tag != tag {
                    continue;
                }
                let w = self.geom.face_area_weights(le, f);
                for b in 0..n {
                    for a in 0..n {
                        let (i, j, k) = face_to_volume(f, a, b, self.geom.p);
                        flux += w[a + n * b] * gz[i + n * (j + n * k)];
                        area += w[a + n * b];
                    }
                }
            }
        }
        let mut sums = [flux, area];
        comm.allreduce_sum(&mut sums);
        if sums[1] == 0.0 {
            return f64::NAN;
        }
        // Non-dimensional conduction has slope −1, so −⟨∂T/∂z⟩ is the
        // Nusselt number at either plate.
        -(sums[0] / sums[1])
    }

    /// Global kinetic energy `½∫|u|² dV`.
    pub fn kinetic_energy(&self, u: [&[f64]; 3], comm: &dyn Communicator) -> f64 {
        let sq: Vec<f64> = (0..u[0].len())
            .map(|i| u[0][i] * u[0][i] + u[1][i] * u[1][i] + u[2][i] * u[2][i])
            .collect();
        0.5 * self.integrate(&sq, comm)
    }

    /// L² norm of the pointwise divergence, `‖∇·u‖`.
    pub fn divergence_norm(&self, u: [&[f64]; 3], comm: &dyn Communicator) -> f64 {
        let ntot = self.geom.total_nodes();
        let mut div = vec![0.0; ntot];
        let mut scratch = DiffScratch::default();
        pointwise_divergence(self.geom, u, &mut div, &mut scratch);
        let sq: Vec<f64> = div.iter().map(|d| d * d).collect();
        self.integrate(&sq, comm).sqrt()
    }

    /// Viscous dissipation rate `ε = ν·⟨Σ_d |∇u_d|²⟩` (volume mean).
    ///
    /// In free-fall units the statistically steady balance is
    /// `ε = (Nu − 1)/√(Ra·Pr)` — the standard consistency check between
    /// the heat transport and the energy budget.
    pub fn dissipation(&self, u: [&[f64]; 3], nu: f64, comm: &dyn Communicator) -> f64 {
        let ntot = self.geom.total_nodes();
        let mut gx = vec![0.0; ntot];
        let mut gy = vec![0.0; ntot];
        let mut gz = vec![0.0; ntot];
        let mut scratch = DiffScratch::default();
        let mut sq = vec![0.0; ntot];
        for comp in u {
            phys_grad(self.geom, comp, &mut gx, &mut gy, &mut gz, &mut scratch);
            for i in 0..ntot {
                sq[i] += gx[i] * gx[i] + gy[i] * gy[i] + gz[i] * gz[i];
            }
        }
        nu * self.integrate(&sq, comm) / self.volume(comm)
    }

    /// Thermal dissipation rate `ε_T = α·⟨|∇T|²⟩` (volume mean). The
    /// steady balance is `ε_T = Nu/√(Ra·Pr)` in free-fall units.
    pub fn thermal_dissipation(&self, t: &[f64], alpha: f64, comm: &dyn Communicator) -> f64 {
        let ntot = self.geom.total_nodes();
        let mut gx = vec![0.0; ntot];
        let mut gy = vec![0.0; ntot];
        let mut gz = vec![0.0; ntot];
        let mut scratch = DiffScratch::default();
        phys_grad(self.geom, t, &mut gx, &mut gy, &mut gz, &mut scratch);
        let sq: Vec<f64> = (0..ntot)
            .map(|i| gx[i] * gx[i] + gy[i] * gy[i] + gz[i] * gz[i])
            .collect();
        alpha * self.integrate(&sq, comm) / self.volume(comm)
    }

    /// Kolmogorov length `η = (ν³/ε)^{1/4}`.
    pub fn kolmogorov_scale(nu: f64, dissipation: f64) -> f64 {
        (nu.powi(3) / dissipation.max(1e-300)).powf(0.25)
    }

    /// Resolution metric `max Δx / η`: the largest GLL spacing anywhere in
    /// the mesh relative to the Kolmogorov scale. Values ≲ π are the usual
    /// DNS criterion; the paper's mesh design (§6) targets exactly this at
    /// Ra = 10¹⁵ where `H/η ~ Ra^{3/8}`.
    pub fn resolution_metric(&self, eta: f64, comm: &dyn Communicator) -> f64 {
        let n = self.geom.nx1;
        let nn = n * n * n;
        let mut local_max = 0.0f64;
        let dist = |a: usize, b: usize| -> f64 {
            let dx = self.geom.coords[0][a] - self.geom.coords[0][b];
            let dy = self.geom.coords[1][a] - self.geom.coords[1][b];
            let dz = self.geom.coords[2][a] - self.geom.coords[2][b];
            (dx * dx + dy * dy + dz * dz).sqrt()
        };
        for e in 0..self.geom.nelv {
            let base = e * nn;
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n.saturating_sub(1) {
                        let a = base + i + n * (j + n * k);
                        local_max = local_max
                            .max(dist(a, a + 1))
                            .max(dist(
                                base + j + n * (i + n * k),
                                base + j + n * ((i + 1) + n * k),
                            ))
                            .max(dist(
                                base + j + n * (k + n * i),
                                base + j + n * (k + n * (i + 1)),
                            ));
                    }
                }
            }
        }
        allreduce_scalar_max(comm, local_max) / eta.max(1e-300)
    }

    /// CFL estimate `max |u_d|·Δt / h_d` over all nodes, with `h_d` the
    /// local GLL spacing in each direction.
    pub fn cfl(&self, u: [&[f64]; 3], dt: f64, comm: &dyn Communicator) -> f64 {
        let n = self.geom.nx1;
        let nn = n * n * n;
        let mut local_max = 0.0f64;
        for e in 0..self.geom.nelv {
            let base = e * nn;
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let idx = base + i + n * (j + n * k);
                        // Distance to the next node in each direction.
                        let spacing = |a: usize, b: usize| -> f64 {
                            let dx = self.geom.coords[0][a] - self.geom.coords[0][b];
                            let dy = self.geom.coords[1][a] - self.geom.coords[1][b];
                            let dz = self.geom.coords[2][a] - self.geom.coords[2][b];
                            (dx * dx + dy * dy + dz * dz).sqrt().max(1e-30)
                        };
                        let hi = if i + 1 < n {
                            spacing(idx, base + (i + 1) + n * (j + n * k))
                        } else {
                            spacing(idx, base + (i - 1) + n * (j + n * k))
                        };
                        let hj = if j + 1 < n {
                            spacing(idx, base + i + n * ((j + 1) + n * k))
                        } else {
                            spacing(idx, base + i + n * ((j - 1) + n * k))
                        };
                        let hk = if k + 1 < n {
                            spacing(idx, base + i + n * (j + n * (k + 1)))
                        } else {
                            spacing(idx, base + i + n * (j + n * (k - 1)))
                        };
                        let c = u[0][idx].abs() / hi + u[1][idx].abs() / hj + u[2][idx].abs() / hk;
                        local_max = local_max.max(c * dt);
                    }
                }
            }
        }
        allreduce_scalar_max(comm, local_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;

    fn setup(p: usize) -> (HexMesh, GeomFactors, Vec<usize>) {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, p);
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        (mesh, geom, my)
    }

    #[test]
    fn conductive_state_gives_nu_one() {
        // T = 0.5 − z, u = 0: both Nusselt estimates must be exactly 1.
        let (mesh, geom, my) = setup(5);
        let comm = SingleComm::new();
        let obs = Observables::new(&geom, &mesh, &my);
        let t: Vec<f64> = geom.coords[2].iter().map(|&z| 0.5 - z).collect();
        let uz = vec![0.0; geom.total_nodes()];
        let nu_v = obs.nusselt_volume(&uz, &t, 1e6, 1.0, &comm);
        assert!((nu_v - 1.0).abs() < 1e-12, "volume Nu {nu_v}");
        let nu_hot = obs.nusselt_wall(&t, BoundaryTag::HotWall, &comm);
        let nu_cold = obs.nusselt_wall(&t, BoundaryTag::ColdWall, &comm);
        assert!((nu_hot - 1.0).abs() < 1e-10, "hot Nu {nu_hot}");
        assert!((nu_cold - 1.0).abs() < 1e-10, "cold Nu {nu_cold}");
    }

    /// The plate Nusselt number from the full three-component gradient
    /// of every element: the reference the wall-only path must match.
    fn nusselt_wall_full_gradient(
        geom: &GeomFactors,
        mesh: &HexMesh,
        my: &[usize],
        t: &[f64],
        tag: BoundaryTag,
    ) -> f64 {
        let ntot = geom.total_nodes();
        let (mut gx, mut gy, mut gz) = (vec![0.0; ntot], vec![0.0; ntot], vec![0.0; ntot]);
        phys_grad(
            geom,
            t,
            &mut gx,
            &mut gy,
            &mut gz,
            &mut DiffScratch::default(),
        );
        let n = geom.nx1;
        let nn = n * n * n;
        let (mut flux, mut area) = (0.0, 0.0);
        for (le, &ge) in my.iter().enumerate() {
            for f in 0..6 {
                if mesh.face_tags[ge][f] != tag {
                    continue;
                }
                let w = geom.face_area_weights(le, f);
                for b in 0..n {
                    for a in 0..n {
                        let (i, j, k) = face_to_volume(f, a, b, geom.p);
                        flux += w[a + n * b] * gz[le * nn + i + n * (j + n * k)];
                        area += w[a + n * b];
                    }
                }
            }
        }
        -(flux / area)
    }

    #[test]
    fn wall_nusselt_is_bitwise_the_full_gradient_result() {
        use rbx_mesh::cylinder::{cylinder_mesh, CylinderParams};
        let comm = SingleComm::new();
        let meshes = [
            box_mesh(3, 2, 2, [0., 2.], [0., 1.], [0., 1.], false, false),
            cylinder_mesh(CylinderParams::default()),
        ];
        for mesh in &meshes {
            let geom = GeomFactors::new(mesh, 4);
            let my: Vec<usize> = (0..mesh.num_elements()).collect();
            let obs = Observables::new(&geom, mesh, &my);
            let [x, y, z] = &geom.coords;
            let t: Vec<f64> = (0..geom.total_nodes())
                .map(|i| 0.5 - z[i] + 0.1 * (3.0 * x[i]).sin() * (2.0 * y[i] + z[i]).cos())
                .collect();
            for tag in [BoundaryTag::HotWall, BoundaryTag::ColdWall] {
                let got = obs.nusselt_wall(&t, tag, &comm);
                let want = nusselt_wall_full_gradient(&geom, mesh, &my, &t, tag);
                assert!(got.is_finite());
                assert_eq!(got.to_bits(), want.to_bits(), "{tag:?}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn kinetic_energy_of_uniform_flow() {
        let (mesh, geom, my) = setup(3);
        let comm = SingleComm::new();
        let obs = Observables::new(&geom, &mesh, &my);
        let n = geom.total_nodes();
        let ux = vec![2.0; n];
        let uy = vec![0.0; n];
        let uz = vec![1.0; n];
        // ½∫(4+1) over unit volume = 2.5.
        let ke = obs.kinetic_energy([&ux, &uy, &uz], &comm);
        assert!((ke - 2.5).abs() < 1e-11, "{ke}");
    }

    #[test]
    fn divergence_norm_detects_compression() {
        let (mesh, geom, my) = setup(4);
        let comm = SingleComm::new();
        let obs = Observables::new(&geom, &mesh, &my);
        let n = geom.total_nodes();
        // u = (x, 0, 0): ∇·u = 1 → ‖∇·u‖ = √V = 1.
        let ux = geom.coords[0].clone();
        let zero = vec![0.0; n];
        let d = obs.divergence_norm([&ux, &zero, &zero], &comm);
        assert!((d - 1.0).abs() < 1e-10, "{d}");
        // Solenoidal u = (y, 0, 0) → 0.
        let uy_field = geom.coords[1].clone();
        let d0 = obs.divergence_norm([&uy_field, &zero, &zero], &comm);
        assert!(d0 < 1e-10, "{d0}");
    }

    #[test]
    fn cfl_scales_with_dt_and_velocity() {
        let (mesh, geom, my) = setup(4);
        let comm = SingleComm::new();
        let obs = Observables::new(&geom, &mesh, &my);
        let n = geom.total_nodes();
        let ux = vec![1.0; n];
        let zero = vec![0.0; n];
        let c1 = obs.cfl([&ux, &zero, &zero], 0.01, &comm);
        let c2 = obs.cfl([&ux, &zero, &zero], 0.02, &comm);
        assert!(c1 > 0.0);
        assert!((c2 / c1 - 2.0).abs() < 1e-12);
        // Doubling velocity doubles CFL.
        let ux2 = vec![2.0; n];
        let c3 = obs.cfl([&ux2, &zero, &zero], 0.01, &comm);
        assert!((c3 / c1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dissipation_of_shear_profile() {
        // u = (sin(πz), 0, 0): |∇u|² = π²cos²(πz), volume mean = π²/2.
        let (mesh, geom, my) = setup(6);
        let comm = SingleComm::new();
        let obs = Observables::new(&geom, &mesh, &my);
        let n = geom.total_nodes();
        let ux: Vec<f64> = geom.coords[2]
            .iter()
            .map(|&z| (std::f64::consts::PI * z).sin())
            .collect();
        let zero = vec![0.0; n];
        let nu = 0.01;
        let eps = obs.dissipation([&ux, &zero, &zero], nu, &comm);
        let expect = nu * std::f64::consts::PI.powi(2) / 2.0;
        assert!((eps - expect).abs() < 1e-8 * expect, "{eps} vs {expect}");
    }

    #[test]
    fn thermal_dissipation_of_conductive_profile() {
        // T = 0.5 − z: |∇T|² = 1 → ε_T = α.
        let (mesh, geom, my) = setup(4);
        let comm = SingleComm::new();
        let obs = Observables::new(&geom, &mesh, &my);
        let t: Vec<f64> = geom.coords[2].iter().map(|&z| 0.5 - z).collect();
        let alpha = 0.02;
        let eps_t = obs.thermal_dissipation(&t, alpha, &comm);
        assert!((eps_t - alpha).abs() < 1e-10, "{eps_t}");
    }

    #[test]
    fn kolmogorov_and_resolution() {
        let (mesh, geom, my) = setup(4);
        let comm = SingleComm::new();
        let obs = Observables::new(&geom, &mesh, &my);
        // η = (ν³/ε)^{1/4}: check the formula and a sane resolution number.
        let eta = Observables::kolmogorov_scale(1e-2, 1e-4);
        assert!((eta - (1e-6f64 / 1e-4).powf(0.25)).abs() < 1e-15);
        // For the unit box at degree 4, the largest spacing is ~0.17; with
        // η = 0.1 the metric is O(1) and positive.
        let m = obs.resolution_metric(0.1, &comm);
        assert!(m > 0.5 && m < 10.0, "resolution metric {m}");
    }

    #[test]
    fn nusselt_volume_reacts_to_convective_flux() {
        let (mesh, geom, my) = setup(3);
        let comm = SingleComm::new();
        let obs = Observables::new(&geom, &mesh, &my);
        let n = geom.total_nodes();
        let uz = vec![0.1; n];
        let t = vec![0.2; n];
        // ⟨u_z T⟩ = 0.02 → Nu = 1 + √(Ra) · 0.02 with Pr = 1.
        let nu = obs.nusselt_volume(&uz, &t, 1e4, 1.0, &comm);
        assert!((nu - 3.0).abs() < 1e-10, "{nu}");
    }

    #[test]
    fn nusselt_volume_is_bitwise_the_integrated_product() {
        // The formula as it read with the product field built first.
        let (mesh, geom, my) = setup(4);
        let comm = SingleComm::new();
        let obs = Observables::new(&geom, &mesh, &my);
        let uz: Vec<f64> = (0..geom.total_nodes())
            .map(|i| ((i * 37 % 101) as f64 * 0.173).sin())
            .collect();
        let t: Vec<f64> = geom.coords[2]
            .iter()
            .map(|&z| 0.5 - z + 0.01 * z.cos())
            .collect();
        let (ra, pr): (f64, f64) = (2.3e7, 0.7);
        let prod: Vec<f64> = uz.iter().zip(&t).map(|(a, b)| a * b).collect();
        let mean = obs.integrate(&prod, &comm) / obs.volume(&comm);
        let want = 1.0 + (ra * pr).sqrt() * mean;
        let got = obs.nusselt_volume(&uz, &t, ra, pr, &comm);
        assert_eq!(want.to_bits(), got.to_bits(), "{want:e} vs {got:e}");
    }
}
