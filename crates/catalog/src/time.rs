//! Simulated time.
//!
//! All simulator durations are [`SimDuration`] — a newtype over f64
//! microseconds — so they can never be confused with host wall-clock
//! `std::time::Duration` values.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A simulated duration in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimDuration(f64);

impl PartialOrd for SimDuration {
    #[expect(
        clippy::disallowed_methods,
        reason = "the IEEE 754 partial order a derive would give: simulated durations are finite, and a NaN compares unordered"
    )]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// From microseconds.
    pub fn from_micros(us: f64) -> Self {
        SimDuration(us)
    }

    /// As microseconds.
    pub fn as_micros(self) -> f64 {
        self.0
    }

    /// As milliseconds.
    pub(crate) fn as_millis(self) -> f64 {
        self.0 / 1_000.0
    }

    /// As seconds.
    pub fn as_secs(self) -> f64 {
        self.0 / 1_000_000.0
    }

    /// As minutes.
    pub fn as_mins(self) -> f64 {
        self.0 / 60_000_000.0
    }

    /// As hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3_600_000_000.0
    }

    /// Clamps negative durations (which can arise from noise or model
    /// arithmetic) to zero.
    pub fn max_zero(self) -> Self {
        SimDuration(self.0.max(0.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: f64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: f64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 60_000_000.0 {
            write!(f, "{:.2}min", self.as_mins())
        } else if us >= 1_000_000.0 {
            write!(f, "{:.2}s", self.as_secs())
        } else if us >= 1_000.0 {
            write!(f, "{:.2}ms", self.as_millis())
        } else {
            write!(f, "{us:.2}us")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let d = SimDuration::from_micros(2.5e6);
        assert_eq!(d.as_micros(), 2_500_000.0);
        assert_eq!(d.as_millis(), 2_500.0);
        assert_eq!(d.as_secs(), 2.5);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_micros(100.0);
        let b = SimDuration::from_micros(50.0);
        assert_eq!((a + b).as_micros(), 150.0);
        assert_eq!((a - b).as_micros(), 50.0);
        assert_eq!((a * 2.0).as_micros(), 200.0);
        assert_eq!((a / 4.0).as_micros(), 25.0);
    }

    #[test]
    fn sum_over_iterator() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_micros(i as f64)).sum();
        assert_eq!(total.as_micros(), 10.0);
    }

    #[test]
    fn max_zero_clamps() {
        let neg = SimDuration::from_micros(-5.0);
        assert_eq!(neg.max_zero(), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros(5.0).max_zero().as_micros(), 5.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_micros(12.0).to_string(), "12.00us");
        assert_eq!(SimDuration::from_micros(12e3).to_string(), "12.00ms");
        assert_eq!(SimDuration::from_micros(12e6).to_string(), "12.00s");
        assert_eq!(SimDuration::from_micros(120e6).to_string(), "2.00min");
    }
}
