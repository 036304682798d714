//! Small statistics helpers used for experiment reporting.

use crate::time::SimTime;

/// Online mean accumulator (Welford's update).
#[derive(Debug, Clone, Default)]
pub(crate) struct OnlineStats {
    n: u64,
    mean: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub(crate) fn new() -> Self {
        OnlineStats::default()
    }

    /// Add one observation.
    pub(crate) fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
    }

    /// Sample mean (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
}

/// Percentile of a sample set by linear interpolation between order
/// statistics (the "exclusive" definition is unnecessary at our sample
/// sizes). `q` in `[0,1]`. Returns `None` on an empty slice.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Summary of a per-rank timing distribution (the paper's Figs. 9–11 are
/// exactly these distributions, plotted).
#[derive(Debug, Clone)]
pub struct TimingSummary {
    /// Observation count.
    pub count: usize,
    /// Minimum, in seconds.
    pub min_s: f64,
    /// Median, in seconds.
    pub median_s: f64,
    /// Mean, in seconds.
    pub mean_s: f64,
    /// 99th percentile, in seconds.
    pub p99_s: f64,
    /// Maximum (the slowest rank — what the paper's bandwidth divides by).
    pub max_s: f64,
}

impl TimingSummary {
    /// Summarize a set of per-rank times.
    pub fn from_times(times: &[SimTime]) -> Option<TimingSummary> {
        if times.is_empty() {
            return None;
        }
        let mut secs: Vec<f64> = times.iter().map(|t| t.as_secs_f64()).collect();
        secs.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        let mut stats = OnlineStats::new();
        for &s in &secs {
            stats.push(s);
        }
        Some(TimingSummary {
            count: secs.len(),
            min_s: secs[0],
            median_s: percentile(&secs, 0.5).expect("nonempty"),
            mean_s: stats.mean(),
            p99_s: percentile(&secs, 0.99).expect("nonempty"),
            max_s: *secs.last().expect("nonempty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_match_closed_form() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn timing_summary() {
        let times: Vec<SimTime> = (1..=100).map(SimTime::from_millis).collect();
        let s = TimingSummary::from_times(&times).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.min_s - 0.001).abs() < 1e-9);
        assert!((s.max_s - 0.100).abs() < 1e-9);
        assert!((s.median_s - 0.0505).abs() < 1e-6);
        assert!(TimingSummary::from_times(&[]).is_none());
    }
}
