//! The developed state every window replays from, and the seeded input.
//!
//! The developed state is a checkpoint `base_steps` steps past the initial
//! condition — past the BDF ramp, the cold-start GMRES iteration limit and
//! the first projection cycles — generated once per case and cached in the
//! work directory. Its generation time is reported on its own and belongs
//! to no metric. The checkpoint is topology-free, so the serial file also
//! restores on two ranks.
//!
//! `--seed` makes the run's input: a smooth temperature perturbation of
//! amplitude [`SEED_AMPLITUDE`] added to the restored state. It is small
//! next to the developed temperature fluctuations, so every seed replays
//! the same physics and the same reference values hold, yet no two seeds
//! give the solver bit-identical work.

use rbx::comm::SingleComm;
use rbx::core::{write_checkpoint, Simulation, StepVerdict};
use rbx::device::WorkerPool;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::workload::CaseSpec;

/// Amplitude of the seeded temperature perturbation.
pub const SEED_AMPLITUDE: f64 = 1e-8;

/// Where the developed state of `spec` is cached.
pub fn state_path(spec: &CaseSpec, work_dir: &Path) -> PathBuf {
    work_dir
        .join("state")
        .join(format!("{}_step{}.bpl", spec.key, spec.base_steps))
}

/// Path of the cached developed state of `spec` and, when it had to be
/// generated now, the seconds that took.
pub fn developed_state(spec: &CaseSpec, work_dir: &Path) -> Result<(PathBuf, Option<f64>), String> {
    let path = state_path(spec, work_dir);
    if path.exists() {
        return Ok((path, None));
    }
    let dir = path.parent().expect("state path has a parent");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let case = spec.build(1);
    let comm = SingleComm::new();
    let mut sim = Simulation::new(
        spec.solver_config(),
        &case.mesh,
        &case.part,
        case.elems[0].clone(),
        &comm,
    );
    let pool = WorkerPool::new(1);
    sim.set_pool(&pool);
    sim.init_rbc();
    for _ in 0..spec.base_steps {
        // Early steps may stop at the iteration limit (that is why runs
        // start here); only a diverged state is unusable.
        if let StepVerdict::Diverged(fault) = sim.step().verdict {
            return Err(format!(
                "developed state of {} diverged at step {}: {fault:?}",
                spec.key, sim.state.istep
            ));
        }
    }
    // write_checkpoint is atomic: a crash leaves no torn cache entry.
    write_checkpoint(&sim, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((path, Some(t0.elapsed().as_secs_f64())))
}

/// SplitMix64: a tiny, fixed, seedable generator for the perturbation.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Add the seed's temperature perturbation to `sim.state.t`: six smooth
/// modes with seeded amplitudes and wavenumbers, zero on the plates. It is
/// a function of the node coordinates, so it is continuous across
/// elements and identical on any partition.
pub fn perturb(sim: &mut Simulation<'_>, seed: u64) {
    let mut rng = SplitMix64(seed);
    let modes: Vec<[f64; 4]> = (0..6)
        .map(|_| {
            [
                2.0 * rng.unit() - 1.0,
                (1 + rng.next() % 4) as f64,
                (1 + rng.next() % 4) as f64,
                (1 + rng.next() % 3) as f64,
            ]
        })
        .collect();
    let pi = std::f64::consts::PI;
    let [x, y, z] = &sim.geom.coords;
    for (i, t) in sim.state.t.iter_mut().enumerate() {
        let shape: f64 = modes
            .iter()
            .map(|[a, kx, ky, kz]| {
                a * (pi * kx * x[i]).sin() * (pi * ky * y[i]).sin() * (pi * kz * z[i]).sin()
            })
            .sum();
        // The mask pins the Dirichlet plate values exactly.
        *t += SEED_AMPLITUDE * shape * sim.mask_t[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbation_is_seeded_and_spares_the_plates() {
        let case = rbx::core::rbc_box_case(1.0, 2, 2, false, 1);
        let comm = SingleComm::new();
        let cfg = rbx::core::SolverConfig {
            order: 3,
            ..Default::default()
        };
        let make = || {
            let mut sim = Simulation::new(
                cfg.clone(),
                &case.mesh,
                &case.part,
                case.elems[0].clone(),
                &comm,
            );
            sim.init_rbc();
            sim
        };
        let base = make().state.t;
        let run = |seed| {
            let mut sim = make();
            perturb(&mut sim, seed);
            sim.state.t
        };
        let (a, a2, b) = (run(1), run(1), run(2));
        assert_eq!(a, a2, "same seed, same input");
        assert_ne!(a, b, "another seed, another input");
        let mask = make().mask_t;
        for i in 0..base.len() {
            let d = (a[i] - base[i]).abs();
            assert!(d <= 6.0 * SEED_AMPLITUDE);
            if mask[i] == 0.0 {
                assert_eq!(d, 0.0, "plate value moved at node {i}");
            }
        }
    }
}
