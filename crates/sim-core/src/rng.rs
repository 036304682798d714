//! Seeded randomness for simulation noise.
//!
//! All stochastic terms in the machine models (service-time jitter, "normal
//! user load" outliers) are drawn from a [`SimRng`] seeded from the
//! experiment configuration, so every figure regenerates bit-identically.
//!
//! The generator is SplitMix64 — tiny, fast, and with well-understood
//! statistical quality for this purpose. We deliberately do not depend on a
//! distributions crate: the two distributions the models need (lognormal and
//! Bernoulli) are derived here from uniform draws.

/// Deterministic 64-bit generator (SplitMix64) with the distribution helpers
/// the machine models use.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from a seed. Distinct seeds give independent-looking
    /// streams; the same seed always gives the same stream.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point by mixing in a constant.
        SimRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Steele, Lea, Flood 2014).
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn uniform(&mut self) -> f64 {
        // 53 random bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in [lo, hi).
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller.
    pub(crate) fn standard_normal(&mut self) -> f64 {
        // u in (0,1] to keep ln() finite.
        let u = 1.0 - self.uniform();
        let v = self.uniform();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Lognormal multiplier with median 1 and shape `sigma`: exp(σ·N(0,1)).
    ///
    /// Used as multiplicative service-time jitter; σ≈0.1 gives a few percent
    /// of spread, σ≈1 gives heavy-tailed outliers.
    pub fn lognormal_jitter(&mut self, sigma: f64) -> f64 {
        (sigma * self.standard_normal()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(12345);
        let mut b = SimRng::new(12345);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval_and_roughly_centered() {
        let mut r = SimRng::new(99);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(2024);
        let n = 50_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.standard_normal();
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn lognormal_jitter_is_positive_with_median_near_one() {
        let mut r = SimRng::new(4242);
        let mut vals: Vec<f64> = (0..10_001).map(|_| r.lognormal_jitter(0.5)).collect();
        assert!(vals.iter().all(|&v| v > 0.0));
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = vals[vals.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median={median}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(1);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
