//! Gauss–Lobatto–Legendre (GLL) nodes, weights, and differentiation.
//!
//! SEDG methods collocate on GLL points because the resulting mass matrix
//! is diagonal (§III-A: "requires no additional cost for mass matrix
//! inversion"). The nodes are the roots of `(1-x²) P'_N(x)`; weights are
//! `2 / (N(N+1) P_N(x)²)`; the differentiation matrix is the exact
//! derivative of the Lagrange basis at the nodes.

/// Legendre polynomial `P_n(x)` and its derivative, by the three-term
/// recurrence (stable for the orders used here, N ≤ ~40).
pub(crate) fn legendre(n: usize, x: f64) -> (f64, f64) {
    if n == 0 {
        return (1.0, 0.0);
    }
    let (mut p_prev, mut p) = (1.0, x);
    for k in 1..n {
        let kf = k as f64;
        let p_next = ((2.0 * kf + 1.0) * x * p - kf * p_prev) / (kf + 1.0);
        p_prev = p;
        p = p_next;
    }
    // P'_n from the standard identity (valid for |x| != 1; callers handle
    // the endpoints separately).
    let dp = if (1.0 - x * x).abs() < 1e-14 {
        // lim of n(n+1)/2 * x^(n-1)-ish endpoint derivative:
        let sign = if x > 0.0 {
            1.0
        } else {
            f64::from(if n.is_multiple_of(2) { -1 } else { 1 })
        };
        sign * (n * (n + 1)) as f64 / 2.0
    } else {
        (n as f64) * (x * p - p_prev) / (x * x - 1.0)
    };
    (p, dp)
}

/// GLL nodes for polynomial order `n` (`n+1` nodes in `[-1, 1]`),
/// ascending. Requires `n >= 1`.
#[allow(clippy::needless_range_loop)] // indexed form mirrors the math
pub(crate) fn gll_points(n: usize) -> Vec<f64> {
    assert!(n >= 1, "need polynomial order at least 1");
    let m = n + 1;
    let mut x = vec![0.0; m];
    x[0] = -1.0;
    x[n] = 1.0;
    // Interior nodes: roots of P'_n, found by Newton from Chebyshev
    // initial guesses (classic Hesthaven–Warburton construction).
    for i in 1..n {
        let mut xi = -(std::f64::consts::PI * i as f64 / n as f64).cos();
        for _ in 0..100 {
            // f = P'_n(xi); f' = P''_n via the Legendre ODE:
            // (1-x²) P'' - 2x P' + n(n+1) P = 0.
            let (p, dp) = legendre(n, xi);
            let ddp = (2.0 * xi * dp - (n * (n + 1)) as f64 * p) / (1.0 - xi * xi);
            let step = dp / ddp;
            xi -= step;
            if step.abs() < 1e-15 {
                break;
            }
        }
        x[i] = xi;
    }
    // Symmetrize to kill round-off drift.
    for i in 0..m / 2 {
        let avg = 0.5 * (x[i] - x[n - i]);
        x[i] = avg;
        x[n - i] = -avg;
    }
    x
}

/// GLL quadrature weights for the nodes of order `n`:
/// `w_i = 2 / (n(n+1) P_n(x_i)²)`.
pub(crate) fn gll_weights(points: &[f64]) -> Vec<f64> {
    let n = points.len() - 1;
    points
        .iter()
        .map(|&x| {
            let (p, _) = legendre(n, x);
            2.0 / ((n * (n + 1)) as f64 * p * p)
        })
        .collect()
}

/// Differentiation matrix `D[i][j] = l'_j(x_i)` for the Lagrange basis on
/// `points` (row-major, `(n+1)×(n+1)`).
pub(crate) fn diff_matrix(points: &[f64]) -> Vec<Vec<f64>> {
    let m = points.len();
    let n = m - 1;
    let mut d = vec![vec![0.0; m]; m];
    // Standard GLL formula via Legendre endpoint values.
    let pn: Vec<f64> = points.iter().map(|&x| legendre(n, x).0).collect();
    for i in 0..m {
        for j in 0..m {
            if i != j {
                d[i][j] = (pn[i] / pn[j]) / (points[i] - points[j]);
            }
        }
    }
    d[0][0] = -((n * (n + 1)) as f64) / 4.0;
    d[n][n] = (n * (n + 1)) as f64 / 4.0;
    d
}

/// Apply `D` to a vector: `out[i] = Σ_j D[i][j] v[j]`.
pub fn matvec(d: &[Vec<f64>], v: &[f64], out: &mut [f64]) {
    for (i, row) in d.iter().enumerate() {
        let mut acc = 0.0;
        for (j, &dij) in row.iter().enumerate() {
            acc += dij * v[j];
        }
        out[i] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legendre_known_values() {
        // P_2(x) = (3x²-1)/2, P'_2 = 3x.
        let (p, dp) = legendre(2, 0.5);
        assert!((p - (-0.125)).abs() < 1e-14);
        assert!((dp - 1.5).abs() < 1e-14);
        // P_n(1) = 1 for every n.
        for n in 0..10 {
            assert!((legendre(n, 1.0).0 - 1.0).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn gll_points_known_orders() {
        // N=1: ±1. N=2: ±1, 0. N=3: ±1, ±1/√5.
        let p1 = gll_points(1);
        assert!((p1[0] + 1.0).abs() < 1e-14 && (p1[1] - 1.0).abs() < 1e-14);
        let p2 = gll_points(2);
        assert!(p2[1].abs() < 1e-14);
        let p3 = gll_points(3);
        assert!((p3[1] + (1.0f64 / 5.0).sqrt()).abs() < 1e-12, "{}", p3[1]);
        assert!((p3[2] - (1.0f64 / 5.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn nodes_ascending_and_symmetric() {
        for n in [4usize, 7, 15, 24] {
            let p = gll_points(n);
            assert_eq!(p.len(), n + 1);
            assert!(p.windows(2).all(|w| w[0] < w[1]), "n={n}: {p:?}");
            for i in 0..p.len() {
                assert!((p[i] + p[n - i]).abs() < 1e-12, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn weights_sum_to_two_and_integrate_polynomials() {
        for n in [2usize, 5, 15] {
            let p = gll_points(n);
            let w = gll_weights(&p);
            let sum: f64 = w.iter().sum();
            assert!((sum - 2.0).abs() < 1e-12, "n={n} sum={sum}");
            // GLL is exact for degree 2n-1: integrate x².
            let ix2: f64 = p.iter().zip(&w).map(|(&x, &wi)| wi * x * x).sum();
            assert!((ix2 - 2.0 / 3.0).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn diff_matrix_differentiates_polynomials_exactly() {
        let n = 8;
        let pts = gll_points(n);
        let d = diff_matrix(&pts);
        // d/dx of x³ = 3x² (degree 3 ≤ N, so exact).
        let v: Vec<f64> = pts.iter().map(|&x| x * x * x).collect();
        let mut out = vec![0.0; n + 1];
        matvec(&d, &v, &mut out);
        for (i, &x) in pts.iter().enumerate() {
            assert!((out[i] - 3.0 * x * x).abs() < 1e-10, "i={i}");
        }
        // Rows sum to zero (derivative of the constant).
        for row in &d {
            let s: f64 = row.iter().sum();
            assert!(s.abs() < 1e-10);
        }
    }

    #[test]
    fn diff_matrix_high_order_trig_accuracy() {
        // Spectral accuracy: sin differentiates to cos with tiny error at
        // N=20 on [-1,1].
        let n = 20;
        let pts = gll_points(n);
        let d = diff_matrix(&pts);
        let v: Vec<f64> = pts.iter().map(|&x| x.sin()).collect();
        let mut out = vec![0.0; n + 1];
        matvec(&d, &v, &mut out);
        for (i, &x) in pts.iter().enumerate() {
            assert!(
                (out[i] - x.cos()).abs() < 1e-12,
                "i={i} err={}",
                (out[i] - x.cos()).abs()
            );
        }
    }
}
