//! Cell schedulers: KIST for normal traffic, a dedicated scheduler for
//! measurement traffic, and the background/measurement ratio governor.
//!
//! Tor's KIST scheduler is designed for priority scheduling across *many*
//! sockets and is "incapable of fully utilizing a high capacity link when
//! it has a small number of active sockets" (paper Appendix C, citing Tor
//! ticket #29427). FlashFlow therefore installs a separate measurement
//! scheduler at the target "to ensure high throughput even with fewer
//! sockets than typical for a Tor relay" (§4.1).
//!
//! In the fluid model a scheduler is a per-socket rate ceiling. The ratio
//! governor implements §4.1's rule that a relay being measured forwards as
//! much normal traffic as possible subject to a maximum fraction `r` of
//! the total.

use flashflow_simnet::units::Rate;

/// Per-socket throughput ceiling under KIST with few sockets. Calibrated
/// so that the Appendix C lab relay saturates its 1,248 Mbit/s CPU at
/// roughly 13 sockets, as the paper reports.
const KIST_PER_SOCKET_CAP: Rate = Rate::from_const_mbit(96.0);

/// Which cell scheduler handles a bundle of sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Tor's default scheduler: per-socket write limits.
    Kist,
    /// FlashFlow's measurement scheduler: no artificial per-socket limit.
    Measurement,
}

impl Scheduler {
    /// The aggregate rate ceiling this scheduler imposes on a bundle of
    /// `sockets` sockets, if any.
    pub fn bundle_cap(self, sockets: u32) -> Option<f64> {
        match self {
            Scheduler::Kist => {
                Some(f64::from(sockets.max(1)) * KIST_PER_SOCKET_CAP.bytes_per_sec())
            }
            Scheduler::Measurement => None,
        }
    }
}

/// §4.1's normal-traffic ratio rule: given measurement throughput `x`
/// (bytes/s) and the configured maximum normal-traffic fraction `r`, the
/// most normal traffic the relay may forward is `x · r / (1 − r)`.
///
/// # Panics
/// Panics if `r` is outside `[0, 1)`.
pub fn background_allowance(measurement_rate: f64, r: f64) -> f64 {
    assert!((0.0..1.0).contains(&r), "ratio r must be in [0, 1), got {r}");
    measurement_rate * r / (1.0 - r)
}

/// The aggregation-side clamp (§4.1): the BWAuth limits the *reported*
/// per-second normal traffic `y` to the largest value consistent with the
/// measured traffic `x` and the ratio `r`.
pub fn clamp_reported_background(y: f64, x: f64, r: f64) -> f64 {
    y.min(background_allowance(x, r))
}

/// Dynamic controller a measured relay runs each tick: it watches the
/// measurement traffic rate and sets the background gate's capacity so
/// that normal traffic never exceeds the `r` fraction of the total.
#[derive(Debug, Clone, Copy)]
pub struct RatioGovernor {
    /// Maximum normal-traffic fraction of the total.
    pub r: f64,
    /// Floor on the background allowance so client circuits survive a
    /// momentary measurement stall (bytes/s).
    pub floor: f64,
}

impl RatioGovernor {
    /// A governor for the given ratio.
    ///
    /// # Panics
    /// Panics if `r` is outside `[0, 1)`.
    pub fn new(r: f64) -> Self {
        assert!((0.0..1.0).contains(&r), "ratio r must be in [0, 1), got {r}");
        RatioGovernor { r, floor: 64.0 * 1024.0 }
    }

    /// The background-gate capacity to apply for the next tick, given the
    /// measurement rate observed in the last tick.
    pub fn gate_capacity(&self, measurement_rate: f64) -> f64 {
        background_allowance(measurement_rate, self.r).max(self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kist_caps_scale_with_sockets() {
        let one = Scheduler::Kist.bundle_cap(1).unwrap();
        let twenty = Scheduler::Kist.bundle_cap(20).unwrap();
        assert!((twenty / one - 20.0).abs() < 1e-9);
        // 13 sockets should unlock ≈ the lab CPU limit of 1248 Mbit/s.
        let thirteen = Scheduler::Kist.bundle_cap(13).unwrap();
        assert!((thirteen * 8.0 / 1e6 - 1248.0).abs() < 1.0);
    }

    #[test]
    fn measurement_scheduler_is_uncapped() {
        assert_eq!(Scheduler::Measurement.bundle_cap(1), None);
        assert_eq!(Scheduler::Measurement.bundle_cap(160), None);
    }

    #[test]
    fn ratio_arithmetic_matches_paper() {
        // r = 0.25 ⇒ background may be one third of measurement traffic,
        // i.e. a quarter of the total.
        let x = 120.0;
        let allowance = background_allowance(x, 0.25);
        assert!((allowance - 40.0).abs() < 1e-9);
        let total = x + allowance;
        assert!((allowance / total - 0.25).abs() < 1e-9);
    }

    #[test]
    fn ratio_zero_allows_nothing() {
        assert_eq!(background_allowance(1000.0, 0.0), 0.0);
    }

    #[test]
    fn clamp_only_reduces() {
        assert_eq!(clamp_reported_background(10.0, 1000.0, 0.25), 10.0);
        let clamped = clamp_reported_background(1e9, 300.0, 0.25);
        assert!((clamped - 100.0).abs() < 1e-9);
    }

    #[test]
    fn governor_has_floor() {
        let g = RatioGovernor::new(0.1);
        assert_eq!(g.gate_capacity(0.0), g.floor);
        assert!(g.gate_capacity(100e6) > g.floor);
    }

    #[test]
    #[should_panic]
    fn ratio_one_rejected() {
        let _ = background_allowance(1.0, 1.0);
    }
}
