//! Kernel specialization and its auto-tuning report.
//!
//! The paper's device layer "allows for vendor-specific optimizations,
//! with auto-tuning of key kernels" (§5.1). The CPU analogue: the hot
//! x-derivative contraction has const-generic specializations whose inner
//! loops carry compile-time bounds (letting the compiler unroll and
//! vectorize), and an auto-tuner that measures the generic and specialized
//! variants on a representative element batch and reports which to use.
//!
//! The dispatched entry point [`crate::tensor::deriv_x`] automatically
//! routes the common polynomial degrees (n = 4, 6, 8, 12 points — degrees
//! 3, 5, 7, 11) to the specialized code; [`autotune_deriv`] quantifies the
//! benefit on the running machine.

use crate::dense::DMat;
use crate::tensor::{deriv_x, deriv_x_generic};
use std::time::Instant;

/// Kernel signature measured by the tuner.
type DerivKernel<'a> = &'a mut dyn FnMut(&DMat, &[f64], &mut [f64], usize);

/// Result of one auto-tuning measurement.
#[derive(Debug, Clone, Copy)]
pub struct TuneResult {
    /// 1-D node count measured.
    pub n: usize,
    /// Seconds per element-batch apply, generic kernel.
    pub generic_secs: f64,
    /// Seconds per element-batch apply, dispatched (possibly specialized)
    /// kernel.
    pub dispatched_secs: f64,
}

impl TuneResult {
    /// Speedup of the dispatched path over the generic one.
    pub fn speedup(&self) -> f64 {
        self.generic_secs / self.dispatched_secs.max(1e-300)
    }
}

/// Measure generic vs dispatched x-derivative kernels on `nelem` synthetic
/// elements of `n` points per direction, `reps` repetitions each.
pub fn autotune_deriv(n: usize, nelem: usize, reps: usize) -> TuneResult {
    assert!(n >= 2 && nelem >= 1 && reps >= 1);
    let d = crate::lagrange::deriv_matrix(&crate::quadrature::gll(n).points);
    let nn = n * n * n;
    let u: Vec<f64> = (0..nelem * nn)
        .map(|i| ((i * 37 % 101) as f64) * 0.02 - 1.0)
        .collect();
    let mut out = vec![0.0; nelem * nn];

    let mut time_it = |f: DerivKernel| -> f64 {
        // Warm-up.
        for e in 0..nelem {
            f(
                &d,
                &u[e * nn..(e + 1) * nn],
                &mut out[e * nn..(e + 1) * nn],
                n,
            );
        }
        let t0 = Instant::now();
        for _ in 0..reps {
            for e in 0..nelem {
                f(
                    &d,
                    &u[e * nn..(e + 1) * nn],
                    &mut out[e * nn..(e + 1) * nn],
                    n,
                );
            }
        }
        t0.elapsed().as_secs_f64() / reps as f64
    };

    let mut generic =
        |d: &DMat, u: &[f64], out: &mut [f64], n: usize| deriv_x_generic(d, u, out, n);
    let mut dispatched = |d: &DMat, u: &[f64], out: &mut [f64], n: usize| deriv_x(d, u, out, n);
    let generic_secs = time_it(&mut generic);
    let dispatched_secs = time_it(&mut dispatched);
    TuneResult {
        n,
        generic_secs,
        dispatched_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autotune_produces_finite_timings() {
        let r = autotune_deriv(8, 8, 2);
        assert!(r.generic_secs > 0.0 && r.generic_secs.is_finite());
        assert!(r.dispatched_secs > 0.0 && r.dispatched_secs.is_finite());
        assert!(r.speedup() > 0.0);
        assert_eq!(r.n, 8);
    }
}
