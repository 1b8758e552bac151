//! Simulation time: nanosecond-resolution instants and durations.
//!
//! All simulator state is keyed on [`SimTime`], a monotonically increasing
//! instant measured from the start of the simulation. Wall-clock time is
//! never consulted anywhere in the workspace; this is what makes every
//! experiment deterministic and replayable.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Nanoseconds in one second.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An instant in simulated time, measured in nanoseconds since simulation
/// start.
///
/// ```
/// use flashflow_simnet::time::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_secs(30);
/// assert_eq!(t.as_secs_f64(), 30.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from whole seconds since simulation start.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Builds an instant from fractional seconds since simulation start.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid SimTime seconds: {secs}");
        SimTime((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Whole seconds since simulation start (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(earlier <= self, "duration_since: {earlier:?} is after {self:?}");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference; zero if `earlier` is later than `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a duration from fractional seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid SimDuration seconds: {secs}");
        SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Builds a duration from whole hours.
    pub fn from_hours(hours: u64) -> Self {
        SimDuration::from_secs(hours * 3600)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Whole seconds (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// True if this duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
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
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_secs_f64(), 10.5);
        assert_eq!(t.as_secs(), 10);
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_millis(500));
    }

    #[test]
    fn duration_construction_units_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3000));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_secs(3600));
    }

    #[test]
    fn saturating_duration_is_zero_backwards() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(9);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_duration_since(a), SimDuration::from_secs(4));
    }

    #[test]
    #[should_panic]
    fn duration_since_panics_backwards() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn fractional_seconds_round() {
        let d = SimDuration::from_secs_f64(0.1);
        assert_eq!(d.as_nanos(), 100_000_000);
        assert!((d.as_secs_f64() - 0.1).abs() < 1e-12);
    }
}
