//! Bandwidth and data-size units.
//!
//! The simulator's native units are **bytes** and **bytes per second**
//! (`f64`), while the paper reports **Mbit/s** and **Gbit/s**. These helpers
//! keep conversions explicit so a stray factor of 8 can't sneak in.

/// A transfer rate in bytes per second.
///
/// ```
/// use flashflow_simnet::units::Rate;
/// let r = Rate::from_mbit(100.0);
/// assert_eq!(r.bytes_per_sec(), 12_500_000.0);
/// assert!((r.as_mbit() - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rate(f64);

impl Rate {
    /// The zero rate.
    pub const ZERO: Rate = Rate(0.0);

    /// A rate from raw bytes per second.
    ///
    /// # Panics
    /// Panics if `bps` is negative or not finite.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(bps.is_finite() && bps >= 0.0, "invalid rate: {bps} B/s");
        Rate(bps)
    }

    /// A rate from megabits per second (decimal megabits, as the paper uses).
    pub fn from_mbit(mbit: f64) -> Self {
        Rate::from_bytes_per_sec(mbit * 1e6 / 8.0)
    }

    /// `const` variant of [`Rate::from_mbit`] for use in constants. Unlike
    /// the runtime constructors it cannot validate its argument, so it is
    /// reserved for literal values.
    pub const fn from_const_mbit(mbit: f64) -> Self {
        Rate(mbit * 1e6 / 8.0)
    }

    /// A rate from gigabits per second.
    pub fn from_gbit(gbit: f64) -> Self {
        Rate::from_mbit(gbit * 1000.0)
    }

    /// A rate from kilobits per second.
    pub fn from_kbit(kbit: f64) -> Self {
        Rate::from_bytes_per_sec(kbit * 1e3 / 8.0)
    }

    /// Raw bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Megabits per second.
    pub fn as_mbit(self) -> f64 {
        self.0 * 8.0 / 1e6
    }

    /// Gigabits per second.
    pub fn as_gbit(self) -> f64 {
        self.as_mbit() / 1000.0
    }

    /// The smaller of two rates.
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// The larger of two rates.
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }

    /// Scales the rate by a non-negative factor.
    ///
    /// # Panics
    /// Panics if `k` is negative or not finite.
    pub fn scale(self, k: f64) -> Rate {
        Rate::from_bytes_per_sec(self.0 * k)
    }

    /// True if this rate is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl std::fmt::Display for Rate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= Rate::from_gbit(1.0).0 {
            write!(f, "{:.3} Gbit/s", self.as_gbit())
        } else {
            write!(f, "{:.2} Mbit/s", self.as_mbit())
        }
    }
}

impl std::ops::Add for Rate {
    type Output = Rate;
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Rate {
    type Output = Rate;
    fn sub(self, rhs: Rate) -> Rate {
        Rate((self.0 - rhs.0).max(0.0))
    }
}

impl std::iter::Sum for Rate {
    fn sum<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        Rate(iter.map(|r| r.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_agree() {
        assert_eq!(Rate::from_gbit(1.0).as_mbit(), 1000.0);
        assert_eq!(Rate::from_mbit(8.0).bytes_per_sec(), 1e6);
        assert_eq!(Rate::from_kbit(8000.0), Rate::from_mbit(8.0));
    }

    #[test]
    fn sub_saturates_at_zero() {
        let a = Rate::from_mbit(5.0);
        let b = Rate::from_mbit(10.0);
        assert_eq!(a - b, Rate::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Rate::from_mbit(250.0)), "250.00 Mbit/s");
        assert_eq!(format!("{}", Rate::from_gbit(1.5)), "1.500 Gbit/s");
    }

    #[test]
    #[should_panic]
    fn negative_rate_rejected() {
        let _ = Rate::from_bytes_per_sec(-1.0);
    }
}
