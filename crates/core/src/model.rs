//! Analytic performance models from the paper (Eqs. 1–7).
//!
//! The paper derives two closed forms: the end-to-end *production time
//! improvement* from cheaper checkpoints (Eq. 1), and the *speedup of rbIO
//! over coIO* in total processor-seconds blocked by I/O (Eqs. 2–7). Both
//! are implemented literally so the benches can print model-vs-simulation
//! comparisons.

/// Eq. 1: production time improvement when checkpointing every `nc`
/// computation steps.
///
/// `ratio_old`/`ratio_new` are checkpoint-time over computation-step-time
/// ratios (the quantity of Fig. 7). With `ratio_old ≈ 1000` (1PFPP),
/// `ratio_new < 20` (rbIO) and `nc = 20` this gives the paper's ≈25×.
pub fn production_improvement(ratio_old: f64, ratio_new: f64, nc: f64) -> f64 {
    assert!(nc > 0.0);
    (ratio_old + nc) / (ratio_new + nc)
}

/// Inputs of the speedup analysis (§V-C2).
#[derive(Debug, Clone, Copy)]
pub struct SpeedupModel {
    /// Total ranks.
    pub np: f64,
    /// rbIO writers.
    pub ng: f64,
    /// Fraction of the writer's write time that workers remain blocked
    /// (λ ≈ 0 when writers flush between checkpoints).
    pub lambda: f64,
    /// coIO aggregate write bandwidth (bytes/s).
    pub bw_coio: f64,
    /// rbIO aggregate write bandwidth (bytes/s).
    pub bw_rbio: f64,
    /// Perceived bandwidth of the worker→writer handoff (bytes/s).
    pub bw_perceived: f64,
    /// Checkpoint size S (bytes).
    pub file_size: f64,
}

impl SpeedupModel {
    /// Eq. 3: total processor-seconds blocked under coIO,
    /// `T_coIO = np · S / BW_coIO`.
    pub(crate) fn t_coio(&self) -> f64 {
        self.np * self.file_size / self.bw_coio
    }

    /// Eq. 4: total processor-seconds blocked under rbIO,
    /// `T_rbIO = (np−ng)(S/BW_p + λS/BW_rbIO) + ng·S/BW_rbIO`.
    pub(crate) fn t_rbio(&self) -> f64 {
        let s = self.file_size;
        (self.np - self.ng) * (s / self.bw_perceived + self.lambda * s / self.bw_rbio)
            + self.ng * s / self.bw_rbio
    }

    /// Eq. 2/5: exact speedup `T_coIO / T_rbIO`.
    pub fn speedup(&self) -> f64 {
        self.t_coio() / self.t_rbio()
    }

    /// Eq. 6: the paper's approximation
    /// `1 / ((λ + (ng/np)(1−λ)) · BW_coIO/BW_rbIO)`
    /// (drops the `(np−ng)/np · BW_coIO/BW_p` term, which is ~1e-6).
    pub fn speedup_approx(&self) -> f64 {
        let ratio = self.bw_coio / self.bw_rbio;
        1.0 / ((self.lambda + (self.ng / self.np) * (1.0 - self.lambda)) * ratio)
    }

    /// Eq. 7: the λ→0 limit, `(np/ng) · BW_rbIO/BW_coIO`.
    pub fn speedup_limit(&self) -> f64 {
        (self.np / self.ng) * self.bw_rbio / self.bw_coio
    }
}

/// Paper-like defaults for the 64Ki-rank case: 64:1 grouping, λ≈0,
/// comparable raw bandwidths, TB/s-class perceived bandwidth.
impl Default for SpeedupModel {
    fn default() -> Self {
        SpeedupModel {
            np: 65536.0,
            ng: 1024.0,
            lambda: 0.0,
            bw_coio: 10.0e9,
            bw_rbio: 13.0e9,
            bw_perceived: 1.0e15,
            file_size: 156.0e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_reproduces_the_25x_claim() {
        // "For nc=20, Ratio_1pfpp is generally above 1000 while Ratio_rbIO
        // is under 20 … approximately 25× improvement."
        let x = production_improvement(1000.0, 20.0, 20.0);
        assert!((x - 25.5).abs() < 0.6, "got {x}");
        // Degenerate: same ratios -> no improvement.
        assert!((production_improvement(5.0, 5.0, 10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_zero_matches_limit() {
        let m = SpeedupModel::default();
        let s = m.speedup();
        let lim = m.speedup_limit();
        // With BW_p astronomically high and λ=0 the exact and limit forms
        // agree to a fraction of a percent.
        assert!((s / lim - 1.0).abs() < 0.01, "exact {s} vs limit {lim}");
        // np/ng = 64, bw ratio 1.3 -> ≈83×.
        assert!((lim - 64.0 * 1.3).abs() < 0.2, "{lim}");
    }

    #[test]
    fn approx_tracks_exact_across_lambda() {
        for lambda in [0.0, 0.1, 0.3, 0.5, 1.0] {
            let m = SpeedupModel {
                lambda,
                ..SpeedupModel::default()
            };
            let rel = m.speedup() / m.speedup_approx();
            assert!((rel - 1.0).abs() < 0.02, "λ={lambda}: exact/approx={rel}");
        }
    }

    #[test]
    fn worst_case_half_bandwidth_still_half_ratio() {
        // "Even in the worst case where BW_rbIO is roughly half of BW_coIO,
        // the speedup is still half of the ratio (i.e., 30×)" — with
        // np/ng = 64 the halved-bandwidth limit is 32.
        let m = SpeedupModel {
            bw_rbio: 5.0e9,
            bw_coio: 10.0e9,
            lambda: 0.0,
            ..SpeedupModel::default()
        };
        let lim = m.speedup_limit();
        assert!((lim - 32.0).abs() < 1e-9, "{lim}");
    }

    #[test]
    fn blocking_times_scale_sanely() {
        let m = SpeedupModel::default();
        // coIO blocks everyone for the full write; rbIO mostly for the
        // handoff. The totals must reflect that asymmetry.
        assert!(m.t_coio() > 50.0 * m.t_rbio());
        // More writers => more writer-seconds blocked.
        let m2 = SpeedupModel { ng: 4096.0, ..m };
        assert!(m2.t_rbio() > m.t_rbio());
    }
}
