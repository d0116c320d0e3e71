//! BDF / extrapolation coefficient tables.
//!
//! The paper (§6) integrates with "a mixed implicit-explicit scheme,
//! combining an extrapolation scheme and a backwards difference scheme,
//! both of order 3". The first steps ramp the order 1 → 2 → 3 since no
//! history exists yet.
//!
//! Conventions (uniform step Δt):
//!
//! * BDFk:  `(1/Δt)·(bd[0]·uⁿ⁺¹ − Σ_{i=1..k} bd[i]·uⁿ⁺¹⁻ⁱ) = F` — note
//!   the lagged coefficients are returned with the sign that *adds* them
//!   to the right-hand side.
//! * EXTk:  `fⁿ⁺¹ ≈ Σ_{j=1..k} ext[j-1]·fⁿ⁺¹⁻ʲ`.

/// BDF coefficients `[bd0, bd1, …, bdk]` for order `k ∈ {1, 2, 3}`.
///
/// `bd0` multiplies the implicit unknown; `bd1..` multiply the lagged
/// solutions on the right-hand side:
/// `bd0·uⁿ⁺¹/Δt = RHS + Σ bdᵢ·uⁿ⁺¹⁻ⁱ/Δt`.
// audit:allow(hot-alloc): coefficient/coarse-space sized buffers, bounded well below field size
pub fn bdf_coeffs(order: usize) -> Vec<f64> {
    match order {
        1 => vec![1.0, 1.0],
        2 => vec![1.5, 2.0, -0.5],
        3 => vec![11.0 / 6.0, 3.0, -1.5, 1.0 / 3.0],
        _ => {
            // `Simulation::new` rejects any other order; degrade to
            // backward Euler rather than panic if a bad order slips
            // into a release build anyway.
            debug_assert!(false, "BDF order {order} not supported (1..=3)");
            vec![1.0, 1.0]
        }
    }
}

/// Extrapolation coefficients `[e1, …, ek]` for order `k ∈ {1, 2, 3}`:
/// `fⁿ⁺¹ ≈ Σ eⱼ·fⁿ⁺¹⁻ʲ`.
pub fn ext_coeffs(order: usize) -> Vec<f64> {
    match order {
        1 => vec![1.0],
        2 => vec![2.0, -1.0],
        3 => vec![3.0, -3.0, 1.0],
        _ => panic!("EXT order {order} not supported (1..=3)"),
    }
}

/// Effective order at step `istep` (1-based) for a target order: ramps
/// 1, 2, 3, 3, … so that the scheme never references missing history.
pub fn effective_order(istep: usize, target: usize) -> usize {
    istep.min(target).max(1)
}

/// Variable-step BDF coefficients.
///
/// `dts[0]` is the step being taken (tⁿ⁺¹ − tⁿ), `dts[1]` the previous
/// step, …; at least `order` entries are required. Returns
/// `[bd0, bd1, …, bdk]` in the same convention as [`bdf_coeffs`]
/// (`bd0·uⁿ⁺¹/Δt = RHS + Σ bdᵢ·uⁿ⁺¹⁻ⁱ/Δt` with `Δt = dts[0]`), reducing
/// exactly to the classic table for uniform steps.
///
/// Derivation: find `c` with `Σᵢ cᵢ·p(τᵢ) = p′(0)` for all polynomials of
/// degree ≤ k, where `τ₀ = 0` and `τᵢ` are the (negative) offsets of the
/// history levels; then `bd₀ = c₀·Δt`, `bdᵢ = −cᵢ·Δt`.
// audit:allow(hot-alloc): coefficient/coarse-space sized buffers, bounded well below field size
pub fn bdf_coeffs_variable(order: usize, dts: &[f64]) -> Vec<f64> {
    debug_assert!((1..=3).contains(&order), "BDF order {order} not supported");
    debug_assert!(
        dts.len() >= order,
        "need {order} step sizes, got {}",
        dts.len()
    );
    debug_assert!(
        dts.iter().take(order).all(|&d| d > 0.0),
        "non-positive step size"
    );
    let k = order;
    // Offsets τ_0..τ_k relative to t^{n+1}.
    let mut tau = vec![0.0; k + 1];
    let mut acc = 0.0;
    for i in 1..=k {
        acc -= dts[i - 1];
        tau[i] = acc;
    }
    // Vandermonde system: row m enforces Σ c_i τ_i^m = δ_{m,1}.
    let a = rbx_basis::DMat::from_fn(k + 1, k + 1, |m, i| {
        if m == 0 {
            1.0
        } else {
            tau[i].powi(m as i32)
        }
    });
    let mut rhs = vec![0.0; k + 1];
    rhs[1] = 1.0;
    // Distinct positive time levels make the Vandermonde system
    // nonsingular, so `solve` cannot fail for validated inputs; if a
    // degenerate history sneaks through in release builds, degrade to
    // the uniform-step coefficients instead of panicking mid-step.
    let Ok(c) = a.solve(&rhs) else {
        debug_assert!(false, "singular BDF system: repeated time levels");
        return bdf_coeffs(k);
    };
    let dt = dts[0];
    let mut bd = Vec::with_capacity(k + 1);
    bd.push(c[0] * dt);
    for &ci in &c[1..] {
        bd.push(-ci * dt);
    }
    bd
}

/// Variable-step extrapolation coefficients: Lagrange weights that
/// evaluate a degree-(k−1) interpolant through the history levels at
/// `t = tⁿ⁺¹`. Reduces to [`ext_coeffs`] for uniform steps.
// audit:allow(hot-alloc): coefficient/coarse-space sized buffers, bounded well below field size
pub fn ext_coeffs_variable(order: usize, dts: &[f64]) -> Vec<f64> {
    debug_assert!((1..=3).contains(&order), "EXT order {order} not supported");
    debug_assert!(
        dts.len() >= order,
        "need {order} step sizes, got {}",
        dts.len()
    );
    let k = order;
    let mut tau = vec![0.0; k];
    let mut acc = 0.0;
    for i in 0..k {
        acc -= dts[i];
        tau[i] = acc;
    }
    (0..k)
        .map(|j| {
            let mut w = 1.0;
            for m in 0..k {
                if m != j {
                    w *= (0.0 - tau[m]) / (tau[j] - tau[m]);
                }
            }
            w
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BDF consistency: Σ lagged coefficients must equal bd0 (so constants
    /// are steady states), and first-moment condition gives the right
    /// derivative.
    #[test]
    fn bdf_reproduces_derivative_of_polynomials() {
        for order in 1..=3usize {
            let bd = bdf_coeffs(order);
            // Apply to u(t) = t^q at t=0 with history at t = -i·Δt, Δt = 1:
            // (bd0·u(0) − Σ bdᵢ·u(−i)) should equal u'(0)·Δt for q ≤ order.
            for q in 0..=order {
                let u = |t: f64| t.powi(q as i32);
                let mut val = bd[0] * u(0.0);
                for i in 1..=order {
                    val -= bd[i] * u(-(i as f64));
                }
                let expect = if q == 1 { 1.0 } else { 0.0 }; // d/dt t^q at 0
                assert!(
                    (val - expect).abs() < 1e-12,
                    "BDF{order} on t^{q}: {val} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn ext_reproduces_polynomials() {
        for order in 1..=3usize {
            let e = ext_coeffs(order);
            // f(t) = t^q extrapolated to t = 0 from t = −1, −2, … must be
            // exact for q < order.
            for q in 0..order {
                let f = |t: f64| t.powi(q as i32);
                let approx: f64 = e
                    .iter()
                    .enumerate()
                    .map(|(j, c)| c * f(-((j + 1) as f64)))
                    .sum();
                assert!(
                    (approx - f(0.0)).abs() < 1e-12,
                    "EXT{order} on t^{q}: {approx}"
                );
            }
        }
    }

    #[test]
    fn order_ramp() {
        assert_eq!(effective_order(1, 3), 1);
        assert_eq!(effective_order(2, 3), 2);
        assert_eq!(effective_order(3, 3), 3);
        assert_eq!(effective_order(99, 3), 3);
        assert_eq!(effective_order(5, 2), 2);
    }

    #[test]
    fn variable_bdf_reduces_to_uniform_table() {
        for order in 1..=3usize {
            let uniform = bdf_coeffs(order);
            let variable = bdf_coeffs_variable(order, &[0.01; 3]);
            for (a, b) in uniform.iter().zip(&variable) {
                assert!((a - b).abs() < 1e-12, "order {order}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn variable_ext_reduces_to_uniform_table() {
        for order in 1..=3usize {
            let uniform = ext_coeffs(order);
            let variable = ext_coeffs_variable(order, &[0.05; 3]);
            for (a, b) in uniform.iter().zip(&variable) {
                assert!((a - b).abs() < 1e-12, "order {order}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn variable_bdf_exact_on_polynomials_with_nonuniform_steps() {
        // Steps Δt = 0.3, 0.2, 0.5 (current → oldest); the scheme must
        // differentiate polynomials up to the order exactly.
        let dts = [0.3, 0.2, 0.5];
        for order in 1..=3usize {
            let bd = bdf_coeffs_variable(order, &dts);
            // History times relative to t^{n+1}.
            let mut tau = vec![0.0];
            let mut acc = 0.0;
            for i in 0..order {
                acc -= dts[i];
                tau.push(acc);
            }
            for q in 0..=order {
                let u = |t: f64| (t + 0.7).powi(q as i32);
                let du = |t: f64| {
                    if q == 0 {
                        0.0
                    } else {
                        q as f64 * (t + 0.7).powi(q as i32 - 1)
                    }
                };
                let mut val = bd[0] * u(tau[0]);
                for i in 1..=order {
                    val -= bd[i] * u(tau[i]);
                }
                let expect = dts[0] * du(0.0);
                assert!(
                    (val - expect).abs() < 1e-11,
                    "order {order}, t^{q}: {val} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn variable_ext_exact_on_polynomials_with_nonuniform_steps() {
        let dts = [0.1, 0.4, 0.25];
        for order in 1..=3usize {
            let e = ext_coeffs_variable(order, &dts);
            let mut tau = Vec::new();
            let mut acc = 0.0;
            for i in 0..order {
                acc -= dts[i];
                tau.push(acc);
            }
            for q in 0..order {
                let f = |t: f64| (t - 0.3).powi(q as i32);
                let approx: f64 = e.iter().zip(&tau).map(|(c, &t)| c * f(t)).sum();
                assert!(
                    (approx - f(0.0)).abs() < 1e-11,
                    "order {order}, t^{q}: {approx}"
                );
            }
        }
    }
}
