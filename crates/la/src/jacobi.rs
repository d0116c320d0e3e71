//! Assembled-diagonal (Jacobi) preconditioner.
//!
//! The diagonal of the unassembled Helmholtz operator is computed
//! analytically from the tensor-product structure (no operator probes),
//! then assembled with a gather-scatter `Add`. This is the "element-wise
//! block Jacobi" preconditioner the paper uses for the velocity and
//! temperature Helmholtz solves (and inside its coarse-grid PCG, which
//! this code replaces with an exact solve).

use rbx_basis::simd;
use rbx_comm::Communicator;
use rbx_gs::{GatherScatter, GsOp};
use rbx_mesh::GeomFactors;

/// Assembled diagonal of `H = h₁·A + h₂·B`.
///
/// Per element, the stiffness diagonal at node `(i,j,k)` is
/// `Σ_m D[m,i]²·G11[m,j,k] + Σ_m D[m,j]²·G22[i,m,k] + Σ_m D[m,k]²·G33[i,j,m]
///  + 2·D[i,i]·D[j,j]·G12[i,j,k] + 2·D[i,i]·D[k,k]·G13 + 2·D[j,j]·D[k,k]·G23`.
pub fn assembled_diagonal(
    geom: &GeomFactors,
    gs: &GatherScatter,
    h1: f64,
    h2: f64,
    comm: &dyn Communicator,
) -> Vec<f64> {
    let n = geom.nx1;
    let nn = n * n * n;
    let d = geom.d.matrix();
    let mut diag = vec![0.0; geom.total_nodes()];
    // Precompute columns of squared derivative entries.
    let mut dsq = vec![0.0; n * n]; // dsq[m + n*i] = D[m,i]²
    for i in 0..n {
        for m in 0..n {
            dsq[m + n * i] = d[(m, i)] * d[(m, i)];
        }
    }
    for e in 0..geom.nelv {
        let base = e * nn;
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let gi = base + i + n * (j + n * k);
                    let mut a = 0.0;
                    if h1 != 0.0 {
                        for m in 0..n {
                            a += dsq[m + n * i] * geom.g[0][base + m + n * (j + n * k)];
                            a += dsq[m + n * j] * geom.g[3][base + i + n * (m + n * k)];
                            a += dsq[m + n * k] * geom.g[5][base + i + n * (j + n * m)];
                        }
                        a += 2.0 * d[(i, i)] * d[(j, j)] * geom.g[1][gi];
                        a += 2.0 * d[(i, i)] * d[(k, k)] * geom.g[2][gi];
                        a += 2.0 * d[(j, j)] * d[(k, k)] * geom.g[4][gi];
                        a *= h1;
                    }
                    diag[gi] = a + h2 * geom.mass[gi];
                }
            }
        }
    }
    gs.apply(&mut diag, GsOp::Add, comm);
    diag
}

/// Apply the Jacobi preconditioner `z = diag⁻¹ r`, masked so constrained
/// nodes stay zero.
pub fn jacobi_apply(diag: &[f64], mask: &[f64], r: &[f64], z: &mut [f64]) {
    simd::masked_div(diag, mask, r, z);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helmholtz::{HelmholtzOp, HelmholtzScratch};
    use rbx_comm::SingleComm;
    use rbx_mesh::generators::box_mesh;

    #[test]
    fn diagonal_matches_operator_probe() {
        // diag(H)_ii = eᵢᵀ H eᵢ: probe with unit vectors (small case).
        let p = 3;
        let mesh = box_mesh(2, 1, 1, [0., 2.], [0., 1.], [0., 1.], false, false);
        let geom = rbx_mesh::GeomFactors::new(&mesh, p);
        let comm = SingleComm::new();
        let part = vec![0; 2];
        let my = vec![0, 1];
        let gs = GatherScatter::build(&mesh, p, &part, &my, &comm);
        let mask = vec![1.0; geom.total_nodes()];
        let (h1, h2) = (1.3, 0.7);
        let op = HelmholtzOp {
            geom: &geom,
            gs: &gs,
            mask: &mask,
            h1,
            h2,
        };
        let diag = assembled_diagonal(&geom, &gs, h1, h2, &comm);

        let ntot = geom.total_nodes();
        let mut e = vec![0.0; ntot];
        let mut he = vec![0.0; ntot];
        let mut scratch = HelmholtzScratch::default();
        let mult = gs.multiplicity(&comm);
        for i in (0..ntot).step_by(7) {
            e.fill(0.0);
            e[i] = 1.0;
            // Make the probe continuous: copy to all shared images.
            gs.apply(&mut e, rbx_gs::GsOp::Max, &comm);
            op.apply(&e, &mut he, &mut scratch, &comm);
            // For a continuous unit probe the operator diagonal entry is
            // he[i] (assembled), which must match the assembled diagonal.
            assert!(
                (he[i] - diag[i]).abs() <= 1e-9 * diag[i].abs().max(1.0),
                "node {i}: probe {} vs analytic {} (mult {})",
                he[i],
                diag[i],
                mult[i]
            );
        }
    }

    #[test]
    fn jacobi_apply_respects_mask() {
        let diag = vec![2.0, 4.0, 8.0];
        let mask = vec![1.0, 0.0, 1.0];
        let r = vec![2.0, 2.0, 2.0];
        let mut z = vec![9.0; 3];
        jacobi_apply(&diag, &mask, &r, &mut z);
        assert_eq!(z, vec![1.0, 0.0, 0.25]);
    }
}
