//! Carpenter–Kennedy five-stage, fourth-order, 2N-storage Runge–Kutta —
//! the explicit time stepper NekCEM uses (§III-A, ref. 11 of the paper).

/// Stage coefficients A (the "alpha" recurrence on the residual register).
pub(crate) const LSRK4_A: [f64; 5] = [
    0.0,
    -567301805773.0 / 1357537059087.0,
    -2404267990393.0 / 2016746695238.0,
    -3550918686646.0 / 2091501179385.0,
    -1275806237668.0 / 842570457699.0,
];

/// Stage coefficients B (the update weights).
pub(crate) const LSRK4_B: [f64; 5] = [
    1432997174477.0 / 9575080441755.0,
    5161836677717.0 / 13612068292357.0,
    1720146321549.0 / 2090206949498.0,
    3134564353537.0 / 4481467310338.0,
    2277821191437.0 / 14882151754819.0,
];

/// Stage times C (fractions of dt at which stages are evaluated).
pub(crate) const LSRK4_C: [f64; 5] = [
    0.0,
    1432997174477.0 / 9575080441755.0,
    2526269341429.0 / 6820363962896.0,
    2006345519317.0 / 3224310063776.0,
    2802321613138.0 / 2924317926251.0,
];

/// Advance `u` by one step of size `dt`, where `rhs(t, u, out)` evaluates
/// the semi-discrete right-hand side into `out`. `res` is the 2N-storage
/// residual register (same length as `u`, contents reused across calls —
/// zeroing is handled internally).
pub(crate) fn lsrk4_step<F>(u: &mut [f64], res: &mut [f64], t: f64, dt: f64, mut rhs: F)
where
    F: FnMut(f64, &[f64], &mut [f64]),
{
    debug_assert_eq!(u.len(), res.len());
    res.fill(0.0);
    let mut k = vec![0.0; u.len()];
    for s in 0..5 {
        rhs(t + LSRK4_C[s] * dt, u, &mut k);
        for i in 0..u.len() {
            res[i] = LSRK4_A[s] * res[i] + dt * k[i];
            u[i] += LSRK4_B[s] * res[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficients_are_consistent() {
        // First stage starts at t, last stage near t+dt.
        assert_eq!(LSRK4_C[0], 0.0);
        let c4 = LSRK4_C[4];
        assert!(c4 < 1.0 && c4 > 0.9, "{c4}");
        // c_2 equals b_1 for 2N-storage schemes.
        assert!((LSRK4_C[1] - LSRK4_B[0]).abs() < 1e-15);
    }

    #[test]
    fn exact_for_linear_ode() {
        // u' = 1: every consistent scheme integrates exactly.
        let mut u = [0.0];
        let mut res = [0.0];
        lsrk4_step(&mut u, &mut res, 0.0, 0.25, |_, _, k| k[0] = 1.0);
        assert!((u[0] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn fourth_order_convergence_on_exponential() {
        // u' = u, u(0)=1 -> u(1)=e. Error should fall ~16x per halving.
        let solve = |steps: usize| -> f64 {
            let dt = 1.0 / steps as f64;
            let mut u = [1.0];
            let mut res = [0.0];
            for s in 0..steps {
                lsrk4_step(&mut u, &mut res, s as f64 * dt, dt, |_, u, k| k[0] = u[0]);
            }
            (u[0] - std::f64::consts::E).abs()
        };
        let e1 = solve(8);
        let e2 = solve(16);
        let e3 = solve(32);
        let r12 = e1 / e2;
        let r23 = e2 / e3;
        assert!(r12 > 12.0 && r12 < 40.0, "rate {r12}");
        assert!(r23 > 12.0 && r23 < 40.0, "rate {r23}");
    }

    #[test]
    fn oscillator_energy_preserved_to_truncation() {
        // u'' = -u as a 2x2 system; one period with small dt keeps the
        // state to RK4 truncation (~dt⁴·T ≈ 1e-5).
        let steps = 200;
        let dt = std::f64::consts::TAU / steps as f64;
        let mut u = vec![1.0, 0.0];
        let mut res = vec![0.0; 2];
        for s in 0..steps {
            lsrk4_step(&mut u, &mut res, s as f64 * dt, dt, |_, u, k| {
                k[0] = u[1];
                k[1] = -u[0];
            });
        }
        assert!((u[0] - 1.0).abs() < 1e-5, "{}", u[0]);
        assert!(u[1].abs() < 1e-5, "{}", u[1]);
    }

    #[test]
    fn time_dependent_rhs_uses_stage_times() {
        // u' = cos(t): u(1) = sin(1). Wrong stage times would show up as a
        // large error.
        let steps = 20;
        let dt = 1.0 / steps as f64;
        let mut u = [0.0];
        let mut res = [0.0];
        for s in 0..steps {
            lsrk4_step(&mut u, &mut res, s as f64 * dt, dt, |t, _, k| {
                k[0] = t.cos()
            });
        }
        assert!((u[0] - 1.0f64.sin()).abs() < 1e-9);
    }
}
