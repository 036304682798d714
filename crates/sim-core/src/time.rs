//! Virtual time.
//!
//! Simulated time is kept in integer nanoseconds so that event ordering is
//! exact and platform-independent; floating-point time is only used at the
//! reporting boundary.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds per second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// A point (or span) of virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic provided (`+`, `-`, saturating helpers) is the same in both
/// roles, matching common DES practice.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable time; useful as an "infinity" sentinel.
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative or non-finite inputs clamp to zero: model code computes
    /// durations from calibrated rates, and a tiny negative value from
    /// floating-point cancellation must not panic a long simulation.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * NS_PER_SEC as f64).round() as u64)
    }

    /// Whole nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    /// `self - other`, clamping at zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// `self + other`, clamping at `SimTime::MAX` instead of overflowing.
    #[inline]
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Convert a byte count and a bandwidth (bytes/second) into a transfer span.
///
/// Zero or non-finite bandwidth yields `SimTime::ZERO` for zero bytes and a
/// very large (but finite) span otherwise, so a misconfigured model stalls
/// visibly rather than dividing by zero.
#[inline]
pub fn transfer_time(bytes: u64, bytes_per_sec: f64) -> SimTime {
    if bytes == 0 {
        return SimTime::ZERO;
    }
    if !(bytes_per_sec.is_finite() && bytes_per_sec > 0.0) {
        return SimTime::from_nanos(u64::MAX / 4);
    }
    SimTime::from_secs_f64(bytes as f64 / bytes_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(0.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(4);
        assert_eq!((a + b).as_nanos(), 14);
        assert_eq!((a - b).as_nanos(), 6);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(SimTime::MAX.saturating_add(a), SimTime::MAX);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_folds() {
        let total: SimTime = (1..=4).map(SimTime::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn transfer_time_basics() {
        // 1 GiB at 1 GiB/s is one second.
        let gib = 1u64 << 30;
        let t = transfer_time(gib, gib as f64);
        assert_eq!(t.as_nanos(), NS_PER_SEC);
        assert_eq!(transfer_time(0, 0.0), SimTime::ZERO);
        // Zero bandwidth on nonzero bytes is "effectively forever", not a panic.
        assert!(transfer_time(1, 0.0).as_nanos() > NS_PER_SEC * 1_000_000);
    }
}
