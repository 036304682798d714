//! 1-D SEDG Maxwell solver.
//!
//! The normalized 1-D Maxwell system (transverse fields, unit material
//! constants) is
//!
//! ```text
//! ∂E/∂t = −∂H/∂x,     ∂H/∂t = −∂E/∂x
//! ```
//!
//! discretized with the discontinuous Galerkin spectral-element method:
//! `K` elements on a periodic interval, degree-`N` Lagrange bases on GLL
//! points, strong-form volume terms via the differentiation matrix, and
//! upwind numerical fluxes at the element interfaces ("communication only
//! at the element faces … through a numerical flux", §III-A). Time
//! advancing uses the five-stage LSRK4 of `rk`.
//!
//! The exact right-travelling wave `E = H = sin(k(x − t))` verifies the
//! implementation: the test suite asserts spectral convergence in `N`.

use crate::gll::{diff_matrix, gll_points, gll_weights};
use crate::rk::lsrk4_step;

/// A 1-D SEDG Maxwell solver on `[0, length)` with periodic boundaries.
#[derive(Debug, Clone)]
pub struct Maxwell1d {
    k_elems: usize,
    order: usize,
    length: f64,
    /// Physical node coordinates, element-major: `x[e*(N+1) + i]`.
    x: Vec<f64>,
    /// State: E then H, each `K*(N+1)` values.
    state: Vec<f64>,
    res: Vec<f64>,
    d: Vec<Vec<f64>>,
    w: Vec<f64>,
    /// 2/h (affine map Jacobian).
    rx: f64,
    time: f64,
}

impl Maxwell1d {
    /// A solver with `k_elems` elements of order `order` on `[0, length)`.
    pub fn new(k_elems: usize, order: usize, length: f64) -> Self {
        assert!(k_elems >= 2, "need at least two elements for interfaces");
        let pts = gll_points(order);
        let w = gll_weights(&pts);
        let d = diff_matrix(&pts);
        let h = length / k_elems as f64;
        let np = order + 1;
        let mut x = Vec::with_capacity(k_elems * np);
        for e in 0..k_elems {
            let x0 = e as f64 * h;
            for &r in &pts {
                x.push(x0 + (r + 1.0) * 0.5 * h);
            }
        }
        let n = k_elems * np;
        Maxwell1d {
            k_elems,
            order,
            length,
            x,
            state: vec![0.0; 2 * n],
            res: vec![0.0; 2 * n],
            d,
            w,
            rx: 2.0 / h,
            time: 0.0,
        }
    }

    /// Number of degrees of freedom per field.
    pub(crate) fn dofs(&self) -> usize {
        self.k_elems * (self.order + 1)
    }

    /// Node coordinates (element-major; interface nodes are duplicated).
    pub fn coords(&self) -> &[f64] {
        &self.x
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The E field values.
    pub fn e_field(&self) -> &[f64] {
        &self.state[..self.dofs()]
    }

    /// The H field values.
    pub fn h_field(&self) -> &[f64] {
        &self.state[self.dofs()..]
    }

    /// Set initial conditions from closures `e0(x)`, `h0(x)`.
    pub(crate) fn set_initial(&mut self, e0: impl Fn(f64) -> f64, h0: impl Fn(f64) -> f64) {
        let n = self.dofs();
        for i in 0..n {
            self.state[i] = e0(self.x[i]);
            self.state[n + i] = h0(self.x[i]);
        }
        self.time = 0.0;
    }

    /// Install a right-travelling plane wave `E = H = sin(2πm(x − t)/L)`.
    pub fn plane_wave(&mut self, mode: u32) {
        let k = std::f64::consts::TAU * f64::from(mode) / self.length;
        self.set_initial(|x| (k * x).sin(), |x| (k * x).sin());
    }

    /// Exact plane-wave solution at the current time (for error checks).
    pub(crate) fn plane_wave_exact(&self, mode: u32) -> Vec<f64> {
        let k = std::f64::consts::TAU * f64::from(mode) / self.length;
        self.x
            .iter()
            .map(|&x| (k * (x - self.time)).sin())
            .collect()
    }

    /// A CFL-stable time step: `dt = cfl · h / N²` (GLL nodes cluster as
    /// `h/N²` near element edges).
    pub fn stable_dt(&self, cfl: f64) -> f64 {
        let h = self.length / self.k_elems as f64;
        cfl * h / (self.order * self.order) as f64
    }

    /// Discrete energy `½ Σ w_i (E_i² + H_i²) (h/2)` — non-increasing for
    /// the upwind scheme.
    pub fn energy(&self) -> f64 {
        let np = self.order + 1;
        let n = self.dofs();
        let mut acc = 0.0;
        for e in 0..self.k_elems {
            for i in 0..np {
                let idx = e * np + i;
                acc += self.w[i] * (self.state[idx].powi(2) + self.state[n + idx].powi(2));
            }
        }
        acc * 0.5 / self.rx
    }

    /// Advance one LSRK4 step of size `dt`.
    pub fn step(&mut self, dt: f64) {
        let np = self.order + 1;
        let ke = self.k_elems;
        let n = ke * np;
        let d = self.d.clone();
        let w0 = self.w[0];
        let rx = self.rx;
        let mut state = std::mem::take(&mut self.state);
        let mut res = std::mem::take(&mut self.res);
        let t = self.time;
        lsrk4_step(&mut state, &mut res, t, dt, |_, u, out| {
            let (e, h) = u.split_at(n);
            // Volume terms: dE/dt = −rx·D·H, dH/dt = −rx·D·E per element.
            for el in 0..ke {
                let base = el * np;
                for i in 0..np {
                    let (mut de, mut dh) = (0.0, 0.0);
                    for j in 0..np {
                        de -= d[i][j] * h[base + j];
                        dh -= d[i][j] * e[base + j];
                    }
                    out[base + i] = rx * de;
                    out[n + base + i] = rx * dh;
                }
            }
            // Interface fluxes (periodic): at each interface the left
            // element's last node meets the right element's first node.
            // Upwind characteristics: w⁺ = E+H from the left, w⁻ = E−H
            // from the right.
            for el in 0..ke {
                let right_el = (el + 1) % ke;
                let lm = el * np + (np - 1); // minus side (left element)
                let rp = right_el * np; // plus side (right element)
                let e_star = 0.5 * ((e[lm] + h[lm]) + (e[rp] - h[rp]));
                let h_star = 0.5 * ((e[lm] + h[lm]) - (e[rp] - h[rp]));
                let lift = rx / w0; // w_0 == w_N on GLL grids
                                    // Strong form correction: +lift·(f − f*) at the right face
                                    // of the left element, −lift·(f − f*) at the left face of
                                    // the right element; f_E = H, f_H = E.
                out[lm] += lift * (h[lm] - h_star);
                out[n + lm] += lift * (e[lm] - e_star);
                out[rp] -= lift * (h[rp] - h_star);
                out[n + rp] -= lift * (e[rp] - e_star);
            }
        });
        self.state = state;
        self.res = res;
        self.time += dt;
    }

    /// Advance to time `t_end` with steps of at most `dt`.
    pub fn run_until(&mut self, t_end: f64, dt: f64) {
        while self.time < t_end - 1e-12 {
            let step = dt.min(t_end - self.time);
            self.step(step);
        }
    }

    /// Max-norm error against the exact plane wave of `mode` (call only if
    /// initialized with [`Maxwell1d::plane_wave`]).
    pub fn plane_wave_error(&self, mode: u32) -> f64 {
        let exact = self.plane_wave_exact(mode);
        let n = self.dofs();
        let mut err: f64 = 0.0;
        for (i, &ex) in exact.iter().enumerate() {
            err = err.max((self.state[i] - ex).abs());
            err = err.max((self.state[n + i] - ex).abs());
        }
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave_error(k_elems: usize, order: usize, t_end: f64) -> f64 {
        let mut s = Maxwell1d::new(k_elems, order, 1.0);
        s.plane_wave(1);
        let dt = s.stable_dt(0.5);
        s.run_until(t_end, dt);
        s.plane_wave_error(1)
    }

    #[test]
    fn plane_wave_is_resolved() {
        let err = wave_error(8, 8, 0.5);
        assert!(err < 1e-6, "err = {err}");
    }

    #[test]
    fn spectral_convergence_in_order() {
        let e4 = wave_error(6, 4, 0.25);
        let e6 = wave_error(6, 6, 0.25);
        let e8 = wave_error(6, 8, 0.25);
        assert!(e6 < e4 / 10.0, "N=4: {e4}, N=6: {e6}");
        assert!(e8 < e6 / 10.0, "N=6: {e6}, N=8: {e8}");
    }

    #[test]
    fn h_convergence_in_elements() {
        let e4 = wave_error(4, 4, 0.25);
        let e8 = wave_error(8, 4, 0.25);
        // Order-N DG converges at ~N+1 in h: halving h gains ≥ 2^4.
        assert!(e8 < e4 / 16.0, "K=4: {e4}, K=8: {e8}");
    }

    #[test]
    fn energy_non_increasing_with_upwind_flux() {
        let mut s = Maxwell1d::new(8, 6, 1.0);
        // A rough (underresolved) initial condition sheds energy through
        // the upwind dissipation; energy must never grow.
        s.set_initial(
            |x| if (0.25..0.5).contains(&x) { 1.0 } else { 0.0 },
            |_| 0.0,
        );
        let dt = s.stable_dt(0.3);
        let mut prev = s.energy();
        for _ in 0..200 {
            s.step(dt);
            let e = s.energy();
            assert!(e <= prev * (1.0 + 1e-12), "energy grew: {prev} -> {e}");
            prev = e;
        }
    }

    #[test]
    fn smooth_wave_conserves_energy_closely() {
        let mut s = Maxwell1d::new(8, 10, 1.0);
        s.plane_wave(2);
        let e0 = s.energy();
        s.run_until(0.5, s.stable_dt(0.4));
        let e1 = s.energy();
        assert!((e1 - e0).abs() / e0 < 1e-8, "e0={e0} e1={e1}");
    }

    #[test]
    fn full_period_returns_to_initial_state() {
        let mut s = Maxwell1d::new(10, 8, 1.0);
        s.plane_wave(1);
        let initial: Vec<f64> = s.e_field().to_vec();
        s.run_until(1.0, s.stable_dt(0.4)); // wave speed 1, period L = 1
        let err: f64 = s
            .e_field()
            .iter()
            .zip(&initial)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "after one period err = {err}");
    }

    #[test]
    fn coords_cover_domain() {
        let s = Maxwell1d::new(4, 3, 2.0);
        assert_eq!(s.coords().len(), s.dofs());
        assert!((s.coords()[0] - 0.0).abs() < 1e-14);
        assert!((s.coords().last().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(s.time(), 0.0);
    }
}
