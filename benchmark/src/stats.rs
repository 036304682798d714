//! The benchmark's own arithmetic: medians, percentiles, quartile spread.

/// Sorted copy of `xs` (NaN-free input).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median; 0.0 for an empty sample so an unused metric prints as 0.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Midmean (interquartile mean): the mean of what is left after the
/// lowest and the highest quarter of the samples are dropped. The
/// typical value the end-to-end rates are built on. It shrugs off a
/// window's stalls as a median does, but moves smoothly where a median
/// jumps: service restores are bimodal (≈10 ms, or ≈35 ms when a grant
/// parks behind the other tenant's fsync) at close to even odds, and
/// their median flips between the two modes from run to run.
pub fn midmean(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let drop = v.len() / 4;
    let mid = &v[drop..v.len() - drop];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

/// Nearest-rank percentile (`p` in 0..=100); 0.0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Largest sample; 0.0 for an empty sample.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method) — the acceptance check's spread is
/// defined with that function, so `compare` must agree with it.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; `None` below two
/// samples or at a zero median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// GB/s (10^9 bytes per second) for `bytes` moved in `secs`; 0.0 when
/// nothing was timed.
pub fn gbps(bytes: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes as f64 / secs / 1e9
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn midmean_drops_a_quarter_at_each_end() {
        assert_eq!(midmean(&[]), 0.0);
        assert_eq!(midmean(&[5.0]), 5.0);
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0); // too few to trim
        assert_eq!(midmean(&[100.0, 1.0, 2.0, 3.0]), 2.5);
        // A stall in under a quarter of the samples does not move it.
        let steady = [10.0; 8];
        let mut stalled = steady;
        stalled[3] = 900.0;
        assert_eq!(midmean(&stalled), midmean(&steady));
        // An even two-mode mix lands between the modes, where the median
        // of a 4:6 and of a 6:4 mix would sit on opposite modes.
        let mix = |slow: usize| -> Vec<f64> {
            (0..10)
                .map(|i| if i < slow { 35.0 } else { 10.0 })
                .collect()
        };
        assert_eq!((median(&mix(4)), median(&mix(6))), (10.0, 35.0));
        assert!((midmean(&mix(4)) - midmean(&mix(6))).abs() < 10.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
        assert_eq!(max(&xs), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&xs), Some(5.5 / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn gbps_uses_decimal_gigabytes() {
        assert_eq!(gbps(2_000_000_000, 2.0), 1.0);
        assert_eq!(gbps(1, 0.0), 0.0);
    }
}
