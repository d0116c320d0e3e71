//! Offline (reference) POD by the method of snapshots, with the
//! rank-partitioned Gram reduction of the paper's parallel formulation.

use rbx_basis::{sym_eig, DMat};
use rbx_comm::Communicator;

/// Result of a POD: singular values (descending) and the corresponding
/// spatial modes (rank-local rows).
#[derive(Debug, Clone)]
pub struct PodResult {
    /// Singular values, descending.
    pub singular_values: Vec<f64>,
    /// Modes; `modes[k]` is the k-th spatial mode on this rank's nodes,
    /// orthonormal in the weighted inner product.
    pub modes: Vec<Vec<f64>>,
}

impl PodResult {
    /// Modal energies `σ²` normalized to sum to 1.
    pub fn energy_fractions(&self) -> Vec<f64> {
        let total: f64 = self.singular_values.iter().map(|s| s * s).sum();
        self.singular_values
            .iter()
            .map(|s| s * s / total.max(1e-300))
            .collect()
    }
}

/// Method-of-snapshots POD calculator.
pub struct PodBatch {
    /// Weighted inner-product weights (e.g. the diagonal mass); length =
    /// rank-local nodes.
    weights: Vec<f64>,
}

impl PodBatch {
    /// Create with the (rank-local) quadrature weights.
    pub fn new(weights: Vec<f64>) -> Self {
        Self { weights }
    }

    /// Compute the POD of `snapshots` (each of rank-local length). Every
    /// rank holds its share of every snapshot; the m×m Gram matrix is the
    /// only cross-rank reduction ("partitioned method of snapshots").
    ///
    /// Modes with relative energy below `1e-12` of the leading one (relative λ) are
    /// dropped.
    pub fn compute(&self, snapshots: &[Vec<f64>], comm: &dyn Communicator) -> PodResult {
        let m = snapshots.len();
        assert!(m >= 1, "need at least one snapshot");
        for s in snapshots {
            assert_eq!(s.len(), self.weights.len(), "snapshot length mismatch");
        }
        // Gram matrix G_ij = ⟨x_i, x_j⟩_w (assembled by allreduce).
        let mut gram = DMat::zeros(m, m);
        for i in 0..m {
            for j in i..m {
                let local: f64 = snapshots[i]
                    .iter()
                    .zip(&snapshots[j])
                    .zip(&self.weights)
                    .map(|((x, y), w)| x * y * w)
                    .sum();
                gram[(i, j)] = local;
                gram[(j, i)] = local;
            }
        }
        // One allreduce of the packed Gram.
        let mut packed: Vec<f64> = gram.data().to_vec();
        comm.allreduce_sum(&mut packed);
        let gram = DMat::from_vec(m, m, packed);

        let (vals, vecs) = sym_eig(&gram); // ascending
        let lead = vals.last().copied().unwrap_or(0.0).max(0.0);
        let mut singular_values = Vec::new();
        let mut modes = Vec::new();
        for k in (0..m).rev() {
            let lam = vals[k].max(0.0);
            if lam <= 1e-12 * lead || lam == 0.0 {
                continue;
            }
            let sigma = lam.sqrt();
            // φ_k = (1/σ) Σ_j V_jk x_j — local rows only.
            let mut mode = vec![0.0; self.weights.len()];
            for j in 0..m {
                let c = vecs[(j, k)] / sigma;
                for (mv, xv) in mode.iter_mut().zip(&snapshots[j]) {
                    *mv += c * xv;
                }
            }
            singular_values.push(sigma);
            modes.push(mode);
        }
        PodResult {
            singular_values,
            modes,
        }
    }

    /// The weights used by this calculator.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbx_comm::{run_on_ranks, SingleComm};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    /// Rank-2 synthetic snapshots: x_t = a_t·φ1 + b_t·φ2 with orthonormal
    /// φ's under uniform weights.
    fn rank2_snapshots(n: usize, m: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let w = vec![1.0 / n as f64; n];
        let phi1: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / n as f64).sin())
            .collect();
        let phi2: Vec<f64> = (0..n)
            .map(|i| (4.0 * std::f64::consts::PI * i as f64 / n as f64).cos())
            .collect();
        let snaps = (0..m)
            .map(|t| {
                let a = 3.0 * (0.3 * t as f64).cos();
                let b = 1.0 * (0.7 * t as f64).sin();
                (0..n).map(|i| a * phi1[i] + b * phi2[i]).collect()
            })
            .collect();
        (snaps, w)
    }

    #[test]
    fn all_zero_snapshots_yield_an_empty_result() {
        // A quiescent field (e.g. `uz` at rest) has no energetic modes.
        let comm = SingleComm::new();
        let pod = PodBatch::new(vec![0.25; 4]);
        let result = pod.compute(&[vec![0.0; 4], vec![0.0; 4]], &comm);
        assert!(result.singular_values.is_empty());
        assert!(result.modes.is_empty());
    }

    #[test]
    fn rank2_data_yields_two_modes() {
        let (snaps, w) = rank2_snapshots(128, 12);
        let comm = SingleComm::new();
        let pod = PodBatch::new(w);
        let result = pod.compute(&snaps, &comm);
        assert_eq!(
            result.singular_values.len(),
            2,
            "{:?}",
            result.singular_values
        );
        assert!(result.singular_values[0] > result.singular_values[1]);
        let e = result.energy_fractions();
        assert_close(e.iter().sum::<f64>(), 1.0, 1e-12);
    }

    #[test]
    fn modes_are_weight_orthonormal() {
        let (snaps, w) = rank2_snapshots(96, 10);
        let comm = SingleComm::new();
        let pod = PodBatch::new(w.clone());
        let result = pod.compute(&snaps, &comm);
        for a in 0..result.modes.len() {
            for b in 0..result.modes.len() {
                let dot: f64 = result.modes[a]
                    .iter()
                    .zip(&result.modes[b])
                    .zip(&w)
                    .map(|((x, y), wi)| x * y * wi)
                    .sum();
                let expect = if a == b { 1.0 } else { 0.0 };
                assert_close(dot, expect, 1e-9);
            }
        }
    }

    #[test]
    fn reconstruction_from_all_modes_is_exact() {
        let (snaps, w) = rank2_snapshots(64, 8);
        let comm = SingleComm::new();
        let pod = PodBatch::new(w.clone());
        let result = pod.compute(&snaps, &comm);
        // x ≈ Σ_k ⟨x, φ_k⟩ φ_k for x in the snapshot span.
        for x in &snaps {
            let mut recon = vec![0.0; x.len()];
            for mode in &result.modes {
                let coef: f64 = x
                    .iter()
                    .zip(mode)
                    .zip(&w)
                    .map(|((a, b), wi)| a * b * wi)
                    .sum();
                for (r, m) in recon.iter_mut().zip(mode) {
                    *r += coef * m;
                }
            }
            for (a, b) in x.iter().zip(&recon) {
                assert_close(*a, *b, 1e-8);
            }
        }
    }

    #[test]
    fn partitioned_matches_single_rank() {
        let (snaps, w) = rank2_snapshots(120, 9);
        let comm = SingleComm::new();
        let reference = PodBatch::new(w.clone()).compute(&snaps, &comm);

        // Split nodes across 3 ranks.
        let n = 120;
        let chunk = n / 3;
        let (snaps_ref, w_ref, reference_ref) = (&snaps, &w, &reference);
        run_on_ranks(3, move |comm| {
            let lo = comm.rank() * chunk;
            let hi = lo + chunk;
            let local_snaps: Vec<Vec<f64>> = snaps_ref.iter().map(|s| s[lo..hi].to_vec()).collect();
            let local_w = w_ref[lo..hi].to_vec();
            let pod = PodBatch::new(local_w);
            let result = pod.compute(&local_snaps, comm);
            assert_eq!(
                result.singular_values.len(),
                reference_ref.singular_values.len()
            );
            for (a, b) in result
                .singular_values
                .iter()
                .zip(&reference_ref.singular_values)
            {
                assert_close(*a, *b, 1e-10);
            }
            // Local mode rows match the reference slice up to sign.
            for (k, mode) in result.modes.iter().enumerate() {
                let ref_rows = &reference_ref.modes[k][lo..hi];
                let sign = if mode.iter().zip(ref_rows).map(|(a, b)| a * b).sum::<f64>() >= 0.0 {
                    1.0
                } else {
                    -1.0
                };
                for (a, b) in mode.iter().zip(ref_rows) {
                    assert_close(*a, sign * b, 1e-8);
                }
            }
        });
    }
}
