//! Krylov solvers: preconditioned CG and flexible GMRES(m).
//!
//! The paper's solver configuration (§6): velocity and temperature use a
//! block-Jacobi-preconditioned conjugate gradient; pressure uses GMRES with
//! the hybrid Schwarz-multigrid preconditioner. Operators, preconditioners
//! and inner products are passed as closures so any combination of
//! [`crate::HelmholtzOp`], masks and communicators can be driven.

use crate::error::{SolveError, SolveHealth};

/// Residual growth beyond this factor of the initial residual is declared
/// divergence — the iterate is then treated as unusable.
const GROWTH_LIMIT: f64 = 1e8;
/// Iterations (CG) or restart cycles (GMRES) without meaningful progress
/// before declaring stagnation.
const STALL_ITERS: usize = 100;
const STALL_CYCLES: usize = 3;
/// "Meaningful progress": the best residual must improve by at least this
/// relative amount within the stall window.
const STALL_RTOL: f64 = 1e-3;

/// Bounded ring of the most recent residual norms of a solve.
///
/// Fixed-capacity and `Copy` so [`SolveStats`] stays a plain value type:
/// a solve taking thousands of iterations still costs exactly
/// [`ResidualHistory::CAP`] floats. Oldest entries are evicted first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualHistory {
    buf: [f64; Self::CAP],
    head: u8,
    len: u8,
}

impl Default for ResidualHistory {
    fn default() -> Self {
        Self::new()
    }
}

impl ResidualHistory {
    /// Entries retained (the tail of the residual curve).
    pub const CAP: usize = 16;

    pub const fn new() -> Self {
        Self {
            buf: [0.0; Self::CAP],
            head: 0,
            len: 0,
        }
    }

    /// Append a residual, evicting the oldest once full.
    pub fn push(&mut self, r: f64) {
        self.buf[self.head as usize] = r;
        self.head = (self.head + 1) % Self::CAP as u8;
        if (self.len as usize) < Self::CAP {
            self.len += 1;
        }
    }

    /// Number of retained entries (`≤ CAP`).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Retained residuals, oldest first.
    // audit:allow(hot-alloc): owned snapshot is the fn's contract; called at telemetry cadence, not per iteration
    pub fn to_vec(&self) -> Vec<f64> {
        let len = self.len as usize;
        let head = self.head as usize;
        // `head` points at the slot the *next* push writes; the oldest
        // retained entry sits `len` slots behind it.
        (0..len)
            .map(|i| self.buf[(head + Self::CAP - len + i) % Self::CAP])
            .collect()
    }
}

/// Outcome of a Krylov solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Initial residual norm.
    pub initial_residual: f64,
    /// Final residual norm.
    pub final_residual: f64,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
    /// How the solve ended: clean, recoverable shortfall, or fatal
    /// breakdown (non-finite / exploding residuals).
    pub health: SolveHealth,
    /// Tail of the residual curve (initial residual first on short
    /// solves), bounded at [`ResidualHistory::CAP`] entries.
    pub residuals: ResidualHistory,
}

impl SolveStats {
    fn converged_at(
        iterations: usize,
        initial: f64,
        residual: f64,
        residuals: ResidualHistory,
    ) -> Self {
        Self {
            iterations,
            initial_residual: initial,
            final_residual: residual,
            converged: true,
            health: SolveHealth::Healthy,
            residuals,
        }
    }

    fn failed(
        iterations: usize,
        initial: f64,
        residual: f64,
        error: SolveError,
        residuals: ResidualHistory,
    ) -> Self {
        Self {
            iterations,
            initial_residual: initial,
            final_residual: residual,
            converged: false,
            health: SolveHealth::Failed(error),
            residuals,
        }
    }
}

/// Preconditioned conjugate gradients for an SPD operator.
///
/// Solves `A x = b` starting from the provided `x`. `op(p, ap)` computes
/// `ap = A p`; `precond(r, z)` computes `z = M⁻¹ r` (copy for identity);
/// `dot` is the globally consistent inner product. Convergence is declared
/// when `‖r‖ ≤ tol_abs` or `‖r‖ ≤ tol_rel·‖r₀‖`.
#[allow(clippy::too_many_arguments)]
pub fn pcg(
    mut op: impl FnMut(&[f64], &mut [f64]),
    mut precond: impl FnMut(&[f64], &mut [f64]),
    dot: impl Fn(&[f64], &[f64]) -> f64,
    b: &[f64],
    x: &mut [f64],
    tol_abs: f64,
    tol_rel: f64,
    max_iter: usize,
) -> SolveStats {
    let n = b.len();
    debug_assert_eq!(x.len(), n);
    // CG workspace: four n-vectors allocated once per solve and reused by
    // every iteration, so the cost is amortized over the whole solve.
    // audit:allow(hot-alloc): once-per-solve workspace, amortized over all iterations
    let mut r = vec![0.0; n];
    // audit:allow(hot-alloc): once-per-solve workspace, amortized over all iterations
    let mut z = vec![0.0; n];
    // audit:allow(hot-alloc): once-per-solve workspace, amortized over all iterations
    let mut p = vec![0.0; n];
    // audit:allow(hot-alloc): once-per-solve workspace, amortized over all iterations
    let mut ap = vec![0.0; n];

    // r = b - A x
    op(x, &mut ap);
    for i in 0..n {
        r[i] = b[i] - ap[i];
    }
    let r0 = dot(&r, &r).sqrt();
    let mut hist = ResidualHistory::new();
    hist.push(r0);
    if !r0.is_finite() {
        // NaN/Inf already in the rhs or the initial guess: report instead
        // of iterating on garbage (every comparison against NaN is false,
        // so the loop below would otherwise burn the full budget).
        return SolveStats::failed(
            0,
            r0,
            r0,
            SolveError::NonFiniteResidual { iteration: 0 },
            hist,
        );
    }
    let target = tol_abs.max(tol_rel * r0);
    if r0 <= target {
        return SolveStats::converged_at(0, r0, r0, hist);
    }

    precond(&r, &mut z);
    p.copy_from_slice(&z);
    let mut rz = dot(&r, &z);
    let mut rnorm = r0;
    let mut iterations = 0;
    let mut failure: Option<SolveError> = None;
    let mut best = r0;
    let mut since_best = 0usize;

    for it in 1..=max_iter {
        iterations = it;
        op(&p, &mut ap);
        let pap = dot(&p, &ap);
        if !pap.is_finite() {
            failure = Some(SolveError::NonFiniteResidual { iteration: it });
            break;
        }
        if pap <= 0.0 {
            // Loss of positive-definiteness (round-off or bad operator);
            // bail with the current iterate.
            failure = Some(SolveError::IndefiniteOperator { iteration: it, pap });
            break;
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        rnorm = dot(&r, &r).sqrt();
        hist.push(rnorm);
        if !rnorm.is_finite() {
            failure = Some(SolveError::NonFiniteResidual { iteration: it });
            break;
        }
        if rnorm <= target {
            return SolveStats::converged_at(iterations, r0, rnorm, hist);
        }
        if rnorm > GROWTH_LIMIT * r0 {
            failure = Some(SolveError::Diverged {
                iteration: it,
                residual: rnorm,
                initial: r0,
            });
            break;
        }
        if rnorm < best * (1.0 - STALL_RTOL) {
            best = rnorm;
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= STALL_ITERS {
                failure = Some(SolveError::Stagnated {
                    iteration: it,
                    residual: rnorm,
                });
                break;
            }
        }
        precond(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    if rnorm.is_finite() && rnorm <= target {
        // A breakdown at an already-converged point still counts as a
        // clean solve (pAp round-off near the solution is routine).
        return SolveStats::converged_at(iterations, r0, rnorm, hist);
    }
    let error = failure.unwrap_or(SolveError::IterationLimit {
        iterations,
        residual: rnorm,
        target,
    });
    SolveStats::failed(iterations, r0, rnorm, error, hist)
}

/// Flexible GMRES with restart length `m` and right preconditioning.
///
/// Flexibility (storing the preconditioned directions) permits a
/// preconditioner that varies between applies — the paper's hybrid
/// Schwarz preconditioner, whose coarse level runs a fixed-iteration PCG.
#[allow(clippy::too_many_arguments)]
pub fn fgmres(
    mut op: impl FnMut(&[f64], &mut [f64]),
    mut precond: impl FnMut(&[f64], &mut [f64]),
    dot: impl Fn(&[f64], &[f64]) -> f64,
    b: &[f64],
    x: &mut [f64],
    tol_abs: f64,
    tol_rel: f64,
    max_iter: usize,
    restart: usize,
) -> SolveStats {
    let n = b.len();
    debug_assert_eq!(x.len(), n);
    let m = restart.max(1);

    // audit:allow(hot-alloc): once-per-solve workspace, amortized over all iterations
    let mut r = vec![0.0; n];
    // audit:allow(hot-alloc): once-per-solve workspace, amortized over all iterations
    let mut w = vec![0.0; n];
    op(x, &mut w);
    for i in 0..n {
        r[i] = b[i] - w[i];
    }
    let r0 = dot(&r, &r).sqrt();
    let mut hist = ResidualHistory::new();
    hist.push(r0);
    if !r0.is_finite() {
        return SolveStats::failed(
            0,
            r0,
            r0,
            SolveError::NonFiniteResidual { iteration: 0 },
            hist,
        );
    }
    let target = tol_abs.max(tol_rel * r0);
    if r0 <= target {
        return SolveStats::converged_at(0, r0, r0, hist);
    }

    let mut total_iters = 0;
    let mut beta = r0;
    let mut stalled_cycles = 0usize;

    loop {
        // Arnoldi basis V and preconditioned directions Z. Retaining both
        // across the cycle is what makes GMRES *flexible* (variable
        // preconditioners): this storage is algorithmically required, not
        // reusable scratch, and is amortized over the m iterations of the
        // cycle.
        // audit:allow(hot-alloc): retained Krylov basis — required by the algorithm, amortized over the restart cycle
        let mut v: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        // audit:allow(hot-alloc): retained preconditioned directions — required for flexibility, amortized over the cycle
        let mut zdirs: Vec<Vec<f64>> = Vec::with_capacity(m);
        // audit:allow(hot-alloc): m×m Hessenberg, once per restart cycle
        let mut h = vec![vec![0.0f64; m]; m + 1]; // h[i][j]
                                                  // audit:allow(hot-alloc): m-sized Givens coefficients, once per restart cycle
        let mut cs = vec![0.0f64; m];
        // audit:allow(hot-alloc): m-sized Givens coefficients, once per restart cycle
        let mut sn = vec![0.0f64; m];
        // audit:allow(hot-alloc): (m+1)-sized rhs of the least-squares system, once per restart cycle
        let mut g = vec![0.0f64; m + 1];
        g[0] = beta;

        // audit:allow(hot-alloc): v₀ joins the retained basis — storage the algorithm keeps, not scratch
        let mut v0 = r.clone();
        for val in v0.iter_mut() {
            *val /= beta;
        }
        v.push(v0);

        let mut k_used = 0;
        let mut res = beta;
        for j in 0..m {
            if total_iters >= max_iter {
                break;
            }
            total_iters += 1;
            k_used = j + 1;

            // audit:allow(hot-alloc): each z is pushed into zdirs and read back at the cycle-end update — retained, not scratch
            let mut z = vec![0.0; n];
            precond(&v[j], &mut z);
            op(&z, &mut w);
            zdirs.push(z);

            // Modified Gram-Schmidt.
            for (i, vi) in v.iter().enumerate() {
                let hij = dot(&w, vi);
                h[i][j] = hij;
                for (wv, vv) in w.iter_mut().zip(vi) {
                    *wv -= hij * vv;
                }
            }
            let hnext = dot(&w, &w).sqrt();
            h[j + 1][j] = hnext;
            if hnext > 1e-300 {
                // audit:allow(hot-alloc): the new basis vector joins the retained Arnoldi basis
                let mut vnext = w.clone();
                for val in vnext.iter_mut() {
                    *val /= hnext;
                }
                v.push(vnext);
            } else {
                // Happy breakdown: exact solution in the current space.
                // audit:allow(hot-alloc): happy-breakdown placeholder — reached at most once per solve
                v.push(vec![0.0; n]);
            }

            // Apply accumulated Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
                h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
                h[i][j] = t;
            }
            let denom = (h[j][j] * h[j][j] + h[j + 1][j] * h[j + 1][j]).sqrt();
            if denom > 0.0 {
                cs[j] = h[j][j] / denom;
                sn[j] = h[j + 1][j] / denom;
            } else {
                cs[j] = 1.0;
                sn[j] = 0.0;
            }
            h[j][j] = cs[j] * h[j][j] + sn[j] * h[j + 1][j];
            h[j + 1][j] = 0.0;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            res = g[j + 1].abs();
            // Givens estimate: free per-iteration residual curve.
            hist.push(res);
            if res <= target || !res.is_finite() {
                // Converged — or NaN/Inf contaminated the Hessenberg
                // update, in which case finishing the cycle is pointless;
                // the true-residual check below classifies the failure.
                break;
            }
        }

        // Solve the small triangular system and update x with Z directions.
        if k_used > 0 {
            // audit:allow(hot-alloc): k-sized triangular-solve vector, once per restart cycle
            let mut y = vec![0.0f64; k_used];
            for i in (0..k_used).rev() {
                let mut acc = g[i];
                for j in i + 1..k_used {
                    acc -= h[i][j] * y[j];
                }
                y[i] = acc / h[i][i];
            }
            for (j, yj) in y.iter().enumerate() {
                for i in 0..n {
                    x[i] += yj * zdirs[j][i];
                }
            }
        }

        // True residual for the restart / convergence decision.
        let prev_beta = beta;
        op(x, &mut w);
        for i in 0..n {
            r[i] = b[i] - w[i];
        }
        beta = dot(&r, &r).sqrt();
        // Record the *true* residual at cycle boundaries (the Givens
        // estimate drifts from it in finite precision).
        hist.push(beta);
        if !beta.is_finite() {
            return SolveStats::failed(
                total_iters,
                r0,
                beta,
                SolveError::NonFiniteResidual {
                    iteration: total_iters,
                },
                hist,
            );
        }
        if beta <= target {
            return SolveStats::converged_at(total_iters, r0, beta, hist);
        }
        if beta > GROWTH_LIMIT * r0 {
            return SolveStats::failed(
                total_iters,
                r0,
                beta,
                SolveError::Diverged {
                    iteration: total_iters,
                    residual: beta,
                    initial: r0,
                },
                hist,
            );
        }
        if total_iters >= max_iter {
            return SolveStats::failed(
                total_iters,
                r0,
                beta,
                SolveError::IterationLimit {
                    iterations: total_iters,
                    residual: beta,
                    target,
                },
                hist,
            );
        }
        // Restart-to-restart progress check: GMRES(m) that stops reducing
        // the true residual across cycles will never finish.
        if beta < prev_beta * (1.0 - STALL_RTOL) {
            stalled_cycles = 0;
        } else {
            stalled_cycles += 1;
            if stalled_cycles >= STALL_CYCLES {
                return SolveStats::failed(
                    total_iters,
                    r0,
                    beta,
                    SolveError::Stagnated {
                        iteration: total_iters,
                        residual: beta,
                    },
                    hist,
                );
            }
        }
        // `res` (the Givens-estimated residual) guided the inner loop; the
        // restart decision above uses the true residual.
        let _ = res;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense SPD test operator: tridiagonal (−1, d, −1).
    fn tridiag_apply(d: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        for i in 0..n {
            let mut acc = d * x[i];
            if i > 0 {
                acc -= x[i - 1];
            }
            if i + 1 < n {
                acc -= x[i + 1];
            }
            y[i] = acc;
        }
    }

    fn plain_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn cg_solves_spd_system() {
        let n = 50;
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let mut b = vec![0.0; n];
        tridiag_apply(4.0, &x_true, &mut b);
        let mut x = vec![0.0; n];
        let stats = pcg(
            |p, ap| tridiag_apply(4.0, p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-12,
            0.0,
            200,
        );
        assert!(stats.converged, "{stats:?}");
        for (a, t) in x.iter().zip(&x_true) {
            assert!((a - t).abs() < 1e-9);
        }
    }

    #[test]
    fn cg_zero_rhs_returns_immediately() {
        let n = 10;
        let b = vec![0.0; n];
        let mut x = vec![0.0; n];
        let stats = pcg(
            |p, ap| tridiag_apply(3.0, p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-12,
            0.0,
            10,
        );
        assert_eq!(stats.iterations, 0);
        assert!(stats.converged);
    }

    #[test]
    fn jacobi_preconditioner_reduces_cg_iterations() {
        // Strongly varying diagonal: D_i = 1 + i².
        let n = 80;
        let diag: Vec<f64> = (0..n).map(|i| 1.0 + (i * i) as f64).collect();
        let apply = |x: &[f64], y: &mut [f64]| {
            for i in 0..n {
                let mut acc = diag[i] * x[i];
                if i > 0 {
                    acc -= 0.3 * x[i - 1];
                }
                if i + 1 < n {
                    acc -= 0.3 * x[i + 1];
                }
                y[i] = acc;
            }
        };
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();

        let mut x_plain = vec![0.0; n];
        let plain = pcg(
            apply,
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x_plain,
            1e-10,
            0.0,
            500,
        );
        let mut x_prec = vec![0.0; n];
        let prec = pcg(
            apply,
            |r, z| {
                for i in 0..n {
                    z[i] = r[i] / diag[i];
                }
            },
            plain_dot,
            &b,
            &mut x_prec,
            1e-10,
            0.0,
            500,
        );
        assert!(plain.converged && prec.converged);
        assert!(
            prec.iterations < plain.iterations,
            "jacobi {} !< plain {}",
            prec.iterations,
            plain.iterations
        );
    }

    #[test]
    fn gmres_solves_nonsymmetric_system() {
        // Upwind-ish nonsymmetric operator.
        let n = 40;
        let apply = |x: &[f64], y: &mut [f64]| {
            for i in 0..n {
                let mut acc = 3.0 * x[i];
                if i > 0 {
                    acc -= 2.0 * x[i - 1];
                }
                if i + 1 < n {
                    acc -= 0.5 * x[i + 1];
                }
                y[i] = acc;
            }
        };
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut b = vec![0.0; n];
        apply(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let stats = fgmres(
            apply,
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-11,
            0.0,
            300,
            20,
        );
        assert!(stats.converged, "{stats:?}");
        for (a, t) in x.iter().zip(&x_true) {
            assert!((a - t).abs() < 1e-8);
        }
    }

    #[test]
    fn gmres_restarts_still_converge() {
        let n = 60;
        let apply = |x: &[f64], y: &mut [f64]| tridiag_apply(2.5, x, y);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = fgmres(
            apply,
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-10,
            0.0,
            2000,
            5, // tiny restart forces many cycles
        );
        assert!(stats.converged, "{stats:?}");
    }

    #[test]
    fn gmres_flexible_with_inner_iteration_preconditioner() {
        // Preconditioner = 3 CG iterations on the same operator (variable
        // preconditioner: classic FGMRES territory).
        let n = 30;
        let apply = |x: &[f64], y: &mut [f64]| tridiag_apply(4.0, x, y);
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut x = vec![0.0; n];
        let stats = fgmres(
            apply,
            |r, z| {
                z.fill(0.0);
                let _ = pcg(
                    |p, ap| tridiag_apply(4.0, p, ap),
                    |rr, zz| zz.copy_from_slice(rr),
                    plain_dot,
                    r,
                    z,
                    0.0,
                    0.0,
                    3,
                );
            },
            plain_dot,
            &b,
            &mut x,
            1e-10,
            0.0,
            100,
            30,
        );
        assert!(stats.converged, "{stats:?}");
        assert!(
            stats.iterations < 15,
            "too many outer iterations: {stats:?}"
        );
    }

    #[test]
    fn cg_flags_nan_rhs_without_iterating() {
        let n = 16;
        let mut b = vec![1.0; n];
        b[5] = f64::NAN;
        let mut x = vec![0.0; n];
        let stats = pcg(
            |p, ap| tridiag_apply(4.0, p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-9,
            0.0,
            100,
        );
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 0, "must not burn iterations on NaN");
        assert!(stats.health.is_fatal(), "{:?}", stats.health);
        assert!(matches!(
            stats.health.error(),
            Some(SolveError::NonFiniteResidual { iteration: 0 })
        ));
    }

    #[test]
    fn cg_flags_nan_from_operator() {
        // Operator goes non-finite mid-solve (e.g. corrupted geometry).
        let n = 16;
        let mut calls = 0usize;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = pcg(
            |p, ap| {
                tridiag_apply(4.0, p, ap);
                calls += 1;
                if calls > 2 {
                    ap[0] = f64::NAN;
                }
            },
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-12,
            0.0,
            100,
        );
        assert!(!stats.converged);
        assert!(stats.health.is_fatal(), "{:?}", stats.health);
    }

    #[test]
    fn cg_flags_indefinite_operator() {
        // Negated SPD operator: first curvature ⟨p, Ap⟩ is negative.
        let n = 12;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = pcg(
            |p, ap| {
                tridiag_apply(4.0, p, ap);
                for v in ap.iter_mut() {
                    *v = -*v;
                }
            },
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-12,
            0.0,
            100,
        );
        assert!(!stats.converged);
        assert!(matches!(
            stats.health.error(),
            Some(SolveError::IndefiniteOperator { .. })
        ));
        // Indefiniteness is a breakdown, not a runaway: not fatal.
        assert!(!stats.health.is_fatal());
    }

    #[test]
    fn cg_reports_iteration_limit() {
        let n = 200;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        // Near-singular tridiagonal (d = 2): needs ~n iterations; cap at 5.
        let stats = pcg(
            |p, ap| tridiag_apply(2.0, p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-14,
            0.0,
            5,
        );
        assert!(!stats.converged);
        assert!(matches!(
            stats.health.error(),
            Some(SolveError::IterationLimit { iterations: 5, .. })
        ));
        assert!(!stats.health.is_fatal());
    }

    #[test]
    fn gmres_flags_nan_rhs() {
        let n = 16;
        let mut b = vec![1.0; n];
        b[0] = f64::INFINITY;
        let mut x = vec![0.0; n];
        let stats = fgmres(
            |p, ap| tridiag_apply(3.0, p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-9,
            0.0,
            100,
            10,
        );
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 0);
        assert!(stats.health.is_fatal(), "{:?}", stats.health);
    }

    #[test]
    fn gmres_flags_nan_from_preconditioner() {
        let n = 16;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = fgmres(
            |p, ap| tridiag_apply(3.0, p, ap),
            |r, z| {
                z.copy_from_slice(r);
                z[3] = f64::NAN;
            },
            plain_dot,
            &b,
            &mut x,
            1e-9,
            0.0,
            100,
            10,
        );
        assert!(!stats.converged);
        assert!(stats.health.is_fatal(), "{:?}", stats.health);
    }

    #[test]
    fn healthy_solve_reports_healthy() {
        let n = 20;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = pcg(
            |p, ap| tridiag_apply(4.0, p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-9,
            0.0,
            100,
        );
        assert!(stats.converged);
        assert!(stats.health.is_healthy());
        assert_eq!(stats.health.error(), None);
    }

    #[test]
    fn residual_history_ring_is_bounded() {
        let mut h = ResidualHistory::new();
        assert!(h.is_empty());
        for i in 0..40 {
            h.push(i as f64);
        }
        // Capacity bound holds no matter how many pushes happened…
        assert_eq!(h.len(), ResidualHistory::CAP);
        // …and the ring keeps the newest entries, oldest first.
        let v = h.to_vec();
        assert_eq!(v.first(), Some(&24.0));
        assert_eq!(v.last(), Some(&39.0));
        assert_eq!(v.len(), ResidualHistory::CAP);
    }

    #[test]
    fn residual_history_partial_fill_is_ordered() {
        let mut h = ResidualHistory::new();
        h.push(3.0);
        h.push(2.0);
        h.push(1.0);
        assert_eq!(h.to_vec(), vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn solves_carry_bounded_residual_history() {
        // A long CG solve must retain exactly CAP entries ending in the
        // final residual; a short one starts from the initial residual.
        let n = 200;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let long = pcg(
            |p, ap| tridiag_apply(2.001, p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-12,
            0.0,
            500,
        );
        assert!(long.iterations > ResidualHistory::CAP, "{long:?}");
        let v = long.residuals.to_vec();
        assert_eq!(v.len(), ResidualHistory::CAP);
        assert_eq!(v.last().copied(), Some(long.final_residual));

        let mut x2 = vec![0.0; 20];
        let short = pcg(
            |p, ap| tridiag_apply(4.0, p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &[1.0; 20],
            &mut x2,
            1e-9,
            0.0,
            100,
        );
        assert!(short.iterations < ResidualHistory::CAP);
        let v = short.residuals.to_vec();
        assert_eq!(v.first().copied(), Some(short.initial_residual));
        assert_eq!(v.last().copied(), Some(short.final_residual));
        // The curve is monotone-ish: final well below initial.
        assert!(short.final_residual < short.initial_residual);
    }

    #[test]
    fn gmres_history_tracks_true_residual_at_cycles() {
        let n = 60;
        let apply = |x: &[f64], y: &mut [f64]| tridiag_apply(2.5, x, y);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = fgmres(
            apply,
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-10,
            0.0,
            2000,
            5,
        );
        assert!(stats.converged);
        let v = stats.residuals.to_vec();
        assert!(v.len() <= ResidualHistory::CAP);
        assert_eq!(v.last().copied(), Some(stats.final_residual));
    }

    #[test]
    fn stats_report_residual_drop() {
        let n = 20;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = pcg(
            |p, ap| tridiag_apply(4.0, p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            &b,
            &mut x,
            1e-9,
            0.0,
            100,
        );
        assert!(stats.initial_residual > stats.final_residual);
        assert!(stats.final_residual <= 1e-9);
    }
}
