//! Simulated time.
//!
//! The simulator measures time in integer nanoseconds since the start of the
//! run. [`SimTime`] is an absolute instant; durations are ordinary
//! [`std::time::Duration`] values, converted to nanoseconds on entry.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An absolute instant of simulated time, in nanoseconds since t = 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since the start of the simulation.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the simulation, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Construct from a number of whole seconds.
    #[inline]
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Elapsed duration since `earlier`. Saturates at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

/// Convert a [`Duration`] to simulator nanoseconds, saturating at `u64::MAX`.
#[inline]
fn dur_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(dur_nanos(d)))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::ZERO + Duration::from_millis(30);
        assert_eq!(t.as_nanos(), 30_000_000);
        assert_eq!(t - SimTime::ZERO, Duration::from_millis(30));
        let t2 = t + Duration::from_micros(5);
        assert_eq!(t2.since(t), Duration::from_micros(5));
        assert_eq!(t.since(t2), Duration::ZERO, "since saturates");
    }

    #[test]
    fn adding_past_the_end_of_time_saturates() {
        let mut t = SimTime::from_secs(1);
        assert_eq!(t + Duration::MAX, SimTime::MAX);
        assert_eq!(t + Duration::from_nanos(u64::MAX), SimTime::MAX);
        t += Duration::MAX;
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert_eq!(format!("{}", SimTime::from_secs(1)), "1.000000s");
    }
}
