//! Fluid-level Tor relays: rate limits, CPU, ratio enforcement, and
//! observed-bandwidth tracking.
//!
//! A relay contributes three resources to the engine beyond its host NICs:
//!
//! * a **token bucket** implementing `RelayBandwidthRate`/`Burst` (§2) —
//!   the burst allowance produces the one-second spike at measurement
//!   start visible in Figure 7;
//! * a **CPU** modelling Tor's single-threaded cell processing (Appendix
//!   C: 1,248 Mbit/s on the lab hardware, 890 Mbit/s on US-SW), with a
//!   small per-socket overhead so throughput declines past the socket
//!   sweet spot (Figures 11/14);
//! * a **background gate** the ratio governor (§4.1) tightens while the
//!   relay is being measured, so normal traffic never exceeds the fraction
//!   `r` of the total.
//!
//! Honest relays report the normal traffic they actually forwarded during
//! a measurement; a malicious relay can report the maximum the ratio
//! allows while forwarding none (§5) — the [`BackgroundReporting`] policy
//! selects which.

use flashflow_simnet::host::HostId;
use flashflow_simnet::resource::ResourceId;
use flashflow_simnet::stats::SecondsAccumulator;
use flashflow_simnet::units::Rate;

use crate::observed::ObservedBandwidth;
use crate::sched::RatioGovernor;

/// Identifies a relay within a [`crate::netbuild::TorNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelayId(pub(crate) usize);

impl RelayId {
    /// The raw index of this relay.
    pub fn index(self) -> usize {
        self.0
    }
}

/// How a relay reports its forwarded normal traffic during a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackgroundReporting {
    /// Report the truth (what actually crossed the background gate).
    #[default]
    Honest,
    /// Report the maximum the ratio permits while forwarding nothing —
    /// the §5 inflation strategy bounded by `1/(1-r)`.
    InflateToAllowance,
}

/// Static configuration of a relay.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Display name.
    pub name: String,
    /// `RelayBandwidthRate`: sustained rate limit, if any.
    pub rate_limit: Option<Rate>,
    /// Maximum normal-traffic fraction `r` enforced during measurement.
    pub ratio: f64,
    /// Reporting honesty during measurements.
    pub reporting: BackgroundReporting,
}

impl RelayConfig {
    /// An unlimited, honest relay with the paper's default ratio
    /// `r = 0.25`.
    pub fn new(name: impl Into<String>) -> Self {
        RelayConfig {
            name: name.into(),
            rate_limit: None,
            ratio: 0.25,
            reporting: BackgroundReporting::Honest,
        }
    }

    /// Applies a `RelayBandwidthRate` limit.
    pub fn with_rate_limit(mut self, limit: Rate) -> Self {
        self.rate_limit = Some(limit);
        self
    }

    /// Sets the measurement ratio `r`.
    ///
    /// # Panics
    /// Panics if `r` is outside `[0, 1)`.
    pub fn with_ratio(mut self, r: f64) -> Self {
        assert!((0.0..1.0).contains(&r), "ratio must be in [0,1)");
        self.ratio = r;
        self
    }

    /// Makes the relay lie about its background traffic (§5's bounded
    /// inflation attack).
    pub fn with_inflated_reporting(mut self) -> Self {
        self.reporting = BackgroundReporting::InflateToAllowance;
        self
    }
}

/// Per-second traffic record a measured relay produces (its side of the
/// §4.1 protocol).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RelaySecondReport {
    /// Bytes of normal (client) traffic the relay *claims* to have
    /// forwarded this second.
    pub reported_background: f64,
    /// Bytes of normal traffic it actually forwarded (ground truth, not
    /// visible to the BWAuth).
    pub actual_background: f64,
}

/// Runtime state of one relay.
#[derive(Debug)]
pub struct Relay {
    /// Host the relay runs on.
    pub host: HostId,
    /// CPU resource (cell processing).
    pub cpu: ResourceId,
    /// Token-bucket rate limiter.
    pub limiter: ResourceId,
    /// Background gate tightened during measurement.
    pub bg_gate: ResourceId,
    /// Static configuration.
    pub config: RelayConfig,
    /// Observed-bandwidth self-measurement state.
    pub observed: ObservedBandwidth,
    pub(crate) obs_acc: SecondsAccumulator,
    pub(crate) governor: Option<RatioGovernor>,
    /// Per-second background reports accumulated during the current
    /// measurement.
    pub(crate) bg_report_acc: SecondsAccumulator,
    pub(crate) bg_actual_acc: SecondsAccumulator,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_defaults() {
        let c = RelayConfig::new("r1");
        assert_eq!(c.ratio, 0.25);
        assert!(c.rate_limit.is_none());
        assert_eq!(c.reporting, BackgroundReporting::Honest);
    }

    #[test]
    fn config_builder_options() {
        let c = RelayConfig::new("r2")
            .with_rate_limit(Rate::from_mbit(250.0))
            .with_ratio(0.1)
            .with_inflated_reporting();
        assert_eq!(c.rate_limit, Some(Rate::from_mbit(250.0)));
        assert_eq!(c.ratio, 0.1);
        assert_eq!(c.reporting, BackgroundReporting::InflateToAllowance);
    }

    #[test]
    #[should_panic]
    fn invalid_ratio_rejected() {
        let _ = RelayConfig::new("bad").with_ratio(1.0);
    }
}
