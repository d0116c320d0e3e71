//! Krylov-subspace recycling ("solution projection") for sequences of
//! related solves.
//!
//! Nek-family codes accelerate the per-step pressure solve by projecting
//! the new right-hand side onto the span of previous solutions (Fischer,
//! 1998): the best approximation in that subspace is removed before the
//! iterative solve, which then only resolves the (much smaller) remainder.
//! For smooth-in-time DNS fields this reliably cuts pressure iterations —
//! the same motivation as the paper's focus on the pressure solve being
//! the dominant cost (>85 % of a step, Fig. 4).
//!
//! The stored basis is A-orthonormalized, so the projection is computed
//! with dot products only (no extra operator applies beyond the ones
//! needed to A-orthonormalize each new entry, which reuses the solve's
//! final operator application).

use crate::ops::{DotProduct, ElemLayout};
use rbx_comm::Communicator;

/// Batched weighted pairings `⟨y, v_i⟩_w` for all stored directions in one
/// canonical reduction: per-element partials scattered by global element
/// id, one element-wise allreduce, sequential fold in global-element
/// order. Bits are independent of the rank count (see [`ElemLayout`]).
fn batched_dots_canonical(
    vs: &[Vec<f64>],
    y: &[f64],
    w: &[f64],
    layout: &ElemLayout,
    comm: &dyn Communicator,
) -> Vec<f64> {
    let e = layout.nelem_global;
    let np = layout.n_per;
    let k = vs.len();
    // audit:allow(hot-alloc): canonical-reduction scatter buffer, one per projection pass; see DotProduct::dot
    let mut partial = vec![0.0; k * e];
    for (row, xi) in vs.iter().enumerate() {
        let base = row * e;
        for (le, &ge) in layout.gids.iter().enumerate() {
            let lo = le * np;
            let mut acc = 0.0;
            for i in lo..lo + np {
                acc += y[i] * xi[i] * w[i];
            }
            partial[base + ge] = acc;
        }
    }
    layout.fold_sums(&mut partial, k, comm)
}

/// A-conjugate projection space for an SPD(-ish) operator.
pub struct SolutionProjection {
    /// Stored solutions `x_i` (A-orthonormal basis).
    basis: Vec<Vec<f64>>,
    /// Stored operator images `A·x_i`.
    images: Vec<Vec<f64>>,
    /// Maximum number of stored directions.
    max_vecs: usize,
    n: usize,
}

impl SolutionProjection {
    /// Create a projection space holding at most `max_vecs` directions for
    /// vectors of length `n`.
    pub fn new(n: usize, max_vecs: usize) -> Self {
        Self {
            basis: Vec::new(),
            images: Vec::new(),
            max_vecs,
            n,
        }
    }

    /// Number of stored directions.
    pub fn len(&self) -> usize {
        self.basis.len()
    }

    /// True when no directions are stored.
    pub fn is_empty(&self) -> bool {
        self.basis.is_empty()
    }

    /// Remove the best approximation from `b` and load it into `x0`:
    /// `x0 = Σ ⟨b, x_i⟩ x_i` (A-orthonormal basis ⇒ coefficients are plain
    /// dual pairings), `b ← b − Σ ⟨b, x_i⟩ A x_i`. Returns the fraction of
    /// `‖b‖` removed.
    pub fn project_out(
        &self,
        b: &mut [f64],
        x0: &mut [f64],
        dp: &DotProduct,
        comm: &dyn Communicator,
    ) -> f64 {
        debug_assert_eq!(b.len(), self.n);
        debug_assert_eq!(x0.len(), self.n);
        x0.fill(0.0);
        if self.basis.is_empty() {
            return 0.0;
        }
        let b0 = dp.norm(b, comm);
        if b0 == 0.0 {
            return 0.0;
        }
        // Batch the coefficients into one canonical allreduce (rank-count-
        // invariant bits — elastic-restart contract).
        let alphas = batched_dots_canonical(&self.basis, b, dp.weights(), dp.layout(), comm);
        for (i, &alpha) in alphas.iter().enumerate() {
            for k in 0..self.n {
                x0[k] += alpha * self.basis[i][k];
                b[k] -= alpha * self.images[i][k];
            }
        }
        let b1 = dp.norm(b, comm);
        1.0 - b1 / b0
    }

    /// Add the solve's correction `dx` (with its operator image `adx`) to
    /// the space, A-orthonormalizing against the stored basis. When full,
    /// the space restarts from this direction alone (Fischer's restart
    /// strategy).
    // audit:allow(hot-alloc): coefficient/coarse-space sized buffers, bounded well below field size
    pub fn absorb(&mut self, dx: &[f64], adx: &[f64], dp: &DotProduct, comm: &dyn Communicator) {
        debug_assert_eq!(dx.len(), self.n);
        debug_assert_eq!(adx.len(), self.n);
        if self.max_vecs == 0 {
            return;
        }
        if self.basis.len() >= self.max_vecs {
            // Full restart (Fischer's policy). Callers should absorb full
            // solutions rather than solver corrections so the first
            // direction after a restart carries the dominant content.
            self.basis.clear();
            self.images.clear();
        }
        let mut x = dx.to_vec();
        let mut ax = adx.to_vec();
        let anorm2_before = dp.dot(&ax, &x, comm);
        // `<=` alone does not reject NaN (all comparisons with NaN are
        // false); a non-finite direction absorbed here would poison every
        // later projected solve, surviving even checkpoint rollback.
        if !anorm2_before.is_finite() || anorm2_before <= 0.0 {
            return;
        }
        // A-orthogonalize with two Gram-Schmidt passes ("twice is enough")
        // so the stored basis stays numerically A-orthonormal over many
        // absorbs — a degraded basis poisons the deflated right-hand side
        // and stalls the outer solve.
        for _pass in 0..2 {
            if self.basis.is_empty() {
                break;
            }
            let betas = batched_dots_canonical(&self.basis, &ax, dp.weights(), dp.layout(), comm);
            for (i, &beta) in betas.iter().enumerate() {
                for k in 0..self.n {
                    x[k] -= beta * self.basis[i][k];
                    ax[k] -= beta * self.images[i][k];
                }
            }
        }
        // Normalize in the A-norm: ⟨A x, x⟩ = 1. Reject directions that are
        // (numerically) dependent on the stored space — keeping them would
        // make the projection coefficients ill-conditioned.
        let anorm2 = dp.dot(&ax, &x, comm);
        if anorm2 <= 1e-12 * anorm2_before {
            return; // direction already represented
        }
        let scale = 1.0 / anorm2.sqrt();
        for k in 0..self.n {
            x[k] *= scale;
            ax[k] *= scale;
        }
        self.basis.push(x);
        self.images.push(ax);
    }

    /// Drop all stored directions (e.g. after a time-step-size change that
    /// alters the operator).
    pub fn clear(&mut self) {
        self.basis.clear();
        self.images.clear();
    }

    /// Stored basis vectors (checkpoint serialization).
    pub fn basis(&self) -> &[Vec<f64>] {
        &self.basis
    }

    /// Stored operator images (checkpoint serialization).
    pub fn images(&self) -> &[Vec<f64>] {
        &self.images
    }

    /// Maximum number of stored directions.
    pub fn max_vecs(&self) -> usize {
        self.max_vecs
    }

    /// Replace the stored space wholesale (checkpoint restore). Returns
    /// `false` — leaving the space untouched — when the shapes do not
    /// match this projection's configuration.
    pub fn restore(&mut self, basis: Vec<Vec<f64>>, images: Vec<Vec<f64>>) -> bool {
        if basis.len() != images.len() || basis.len() > self.max_vecs {
            return false;
        }
        if basis.iter().chain(images.iter()).any(|v| v.len() != self.n) {
            return false;
        }
        self.basis = basis;
        self.images = images;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::pcg;
    use rbx_comm::SingleComm;
    use std::sync::Arc;

    /// Unit-weight inner product over `n` one-node elements on one rank.
    fn unit_dp(n: usize) -> DotProduct {
        let layout = Arc::new(ElemLayout::new(1, (0..n).collect(), n));
        DotProduct::with_layout(&vec![1.0; n], layout)
    }

    /// Dense SPD operator for testing: tridiag(−1, 4, −1).
    fn apply(x: &[f64], y: &mut [f64]) {
        let n = x.len();
        for i in 0..n {
            let mut acc = 4.0 * x[i];
            if i > 0 {
                acc -= x[i - 1];
            }
            if i + 1 < n {
                acc -= x[i + 1];
            }
            y[i] = acc;
        }
    }

    fn solve_with_projection(
        proj: &mut SolutionProjection,
        b: &[f64],
        dp: &DotProduct,
        comm: &SingleComm,
    ) -> (Vec<f64>, usize) {
        let n = b.len();
        let mut rhs = b.to_vec();
        let mut x0 = vec![0.0; n];
        proj.project_out(&mut rhs, &mut x0, dp, comm);
        let mut dx = vec![0.0; n];
        let stats = pcg(
            apply,
            |r, z| z.copy_from_slice(r),
            |a, c| dp.dot(a, c, comm),
            &rhs,
            &mut dx,
            1e-11,
            0.0,
            500,
        );
        let mut adx = vec![0.0; n];
        apply(&dx, &mut adx);
        proj.absorb(&dx, &adx, dp, comm);
        let x: Vec<f64> = x0.iter().zip(&dx).map(|(a, b)| a + b).collect();
        (x, stats.iterations)
    }

    #[test]
    fn projection_cuts_iterations_for_slowly_varying_rhs() {
        let n = 120;
        let comm = SingleComm::new();
        let dp = unit_dp(n);
        let mut proj = SolutionProjection::new(n, 8);
        // Slowly drifting rhs sequence (like pressure rhs over time steps).
        let rhs_at = |t: f64| -> Vec<f64> {
            (0..n)
                .map(|i| {
                    let x = i as f64 / n as f64;
                    (std::f64::consts::PI * x).sin() + 0.05 * (t + 3.0 * x).sin()
                })
                .collect()
        };
        let (_, first_iters) = solve_with_projection(&mut proj, &rhs_at(0.0), &dp, &comm);
        let mut later = Vec::new();
        for step in 1..6 {
            let (x, iters) =
                solve_with_projection(&mut proj, &rhs_at(step as f64 * 0.1), &dp, &comm);
            // Verify the combined solution actually solves the system.
            let mut ax = vec![0.0; n];
            apply(&x, &mut ax);
            let b = rhs_at(step as f64 * 0.1);
            let res: f64 = ax
                .iter()
                .zip(&b)
                .map(|(a, bv)| (a - bv) * (a - bv))
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-8, "step {step}: residual {res}");
            later.push(iters);
        }
        let avg_later = later.iter().sum::<usize>() as f64 / later.len() as f64;
        assert!(
            avg_later < first_iters as f64 * 0.7,
            "projection did not help: first {first_iters}, later {later:?}"
        );
    }

    #[test]
    fn projection_exact_for_repeated_rhs() {
        let n = 50;
        let comm = SingleComm::new();
        let dp = unit_dp(n);
        let mut proj = SolutionProjection::new(n, 4);
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let (_, first) = solve_with_projection(&mut proj, &b, &dp, &comm);
        let (x, second) = solve_with_projection(&mut proj, &b, &dp, &comm);
        assert!(first > 0);
        assert!(second <= 1, "repeated rhs still took {second} iterations");
        let mut ax = vec![0.0; n];
        apply(&x, &mut ax);
        for (a, bv) in ax.iter().zip(&b) {
            assert!((a - bv).abs() < 1e-8);
        }
    }

    #[test]
    fn restart_when_full_keeps_solving() {
        let n = 40;
        let comm = SingleComm::new();
        let dp = unit_dp(n);
        let mut proj = SolutionProjection::new(n, 2); // tiny space forces restarts
        for step in 0..6 {
            let b: Vec<f64> = (0..n).map(|i| ((i + step) as f64 * 0.3).sin()).collect();
            let (x, _) = solve_with_projection(&mut proj, &b, &dp, &comm);
            let mut ax = vec![0.0; n];
            apply(&x, &mut ax);
            let res: f64 = ax
                .iter()
                .zip(&b)
                .map(|(a, bv)| (a - bv) * (a - bv))
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-8, "step {step}: residual {res}");
            assert!(proj.len() <= 2);
        }
    }

    #[test]
    fn empty_space_is_noop() {
        let n = 10;
        let comm = SingleComm::new();
        let dp = unit_dp(n);
        let proj = SolutionProjection::new(n, 4);
        let mut b = vec![1.0; n];
        let mut x0 = vec![9.0; n];
        let removed = proj.project_out(&mut b, &mut x0, &dp, &comm);
        assert_eq!(removed, 0.0);
        assert!(x0.iter().all(|&v| v == 0.0));
        assert!(b.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn zero_capacity_absorbs_nothing() {
        let n = 10;
        let comm = SingleComm::new();
        let dp = unit_dp(n);
        let mut proj = SolutionProjection::new(n, 0);
        let dx = vec![1.0; n];
        let mut adx = vec![0.0; n];
        apply(&dx, &mut adx);
        proj.absorb(&dx, &adx, &dp, &comm);
        assert!(proj.is_empty());
    }
}
