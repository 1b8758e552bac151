//! FlashFlow's configuration parameters and the derived excess factor.
//!
//! §6.1 fixes the deployment parameters after the Appendix E sweeps:
//! `s = 160` measurement sockets (the count that maximises throughput on
//! the slowest host, Fig. 14), multiplier `m = 2.25` (the smallest that
//! avoids low outliers, Fig. 15), a 30-second measurement slot summarised
//! by the median per-second throughput (Fig. 16), and error bounds
//! `ε₁ = 0.20`, `ε₂ = 0.05`. §6.2 selects the background-traffic ratio
//! `r = 0.25`, bounding a lying relay's inflation at `1/(1−r) = 1.33`.
//! §4.1 sets the spot-check probability `p = 10⁻⁵` and §4.3 the 24-hour
//! measurement period.

use flashflow_simnet::time::SimDuration;

/// All tunable FlashFlow parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Total TCP sockets used across all measurers (`s`).
    pub sockets: u32,
    /// Capacity multiplier (`m`): measurer capacity reserved per unit of
    /// estimated relay capacity.
    pub multiplier: f64,
    /// Measurement slot length (`t`).
    pub slot: SimDuration,
    /// Lower error bound (`ε₁`): estimates may undershoot by this factor.
    pub epsilon1: f64,
    /// Upper error bound (`ε₂`): estimates may overshoot by this factor.
    pub epsilon2: f64,
    /// Maximum normal-traffic fraction during measurement (`r`).
    pub ratio: f64,
    /// Probability each sent cell is recorded and checked (`p`).
    pub check_probability: f64,
    /// Measurement period length (how often each relay is measured).
    pub period: SimDuration,
}

impl Params {
    /// The paper's recommended deployment parameters.
    pub fn paper() -> Self {
        Params {
            sockets: 160,
            multiplier: 2.25,
            slot: SimDuration::from_secs(30),
            epsilon1: 0.20,
            epsilon2: 0.05,
            ratio: 0.25,
            check_probability: 1e-5,
            period: SimDuration::from_hours(24),
        }
    }

    /// The excess allocation factor `f = m(1+ε₂)/(1−ε₁)` (§4.2): the
    /// measurer capacity reserved per unit of estimated relay capacity,
    /// padded so that an estimate at the upper error bound still satisfies
    /// the acceptance test.
    pub fn excess_factor(&self) -> f64 {
        self.multiplier * (1.0 + self.epsilon2) / (1.0 - self.epsilon1)
    }

    /// The §4.2 acceptance threshold for a measurement that used
    /// `allocated` total measurer capacity: the estimate `z` is conclusive
    /// iff `z < allocated · (1−ε₁)/m`.
    pub fn acceptance_threshold(&self, allocated_bytes_per_sec: f64) -> f64 {
        allocated_bytes_per_sec * (1.0 - self.epsilon1) / self.multiplier
    }

    /// Number of measurement slots in one period.
    pub fn slots_per_period(&self) -> u64 {
        self.period.as_nanos() / self.slot.as_nanos()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if self.sockets == 0 {
            return Err(ParamsError("sockets must be positive"));
        }
        if !(self.multiplier.is_finite() && self.multiplier >= 1.0) {
            return Err(ParamsError("multiplier must be >= 1"));
        }
        if self.slot.is_zero() {
            return Err(ParamsError("slot must be positive"));
        }
        if !(0.0..1.0).contains(&self.epsilon1) {
            return Err(ParamsError("epsilon1 must be in [0, 1)"));
        }
        if !(0.0..1.0).contains(&self.epsilon2) {
            return Err(ParamsError("epsilon2 must be in [0, 1)"));
        }
        if !(0.0..1.0).contains(&self.ratio) {
            return Err(ParamsError("ratio must be in [0, 1)"));
        }
        if !(0.0..=1.0).contains(&self.check_probability) {
            return Err(ParamsError("check probability must be in [0, 1]"));
        }
        if self.period < self.slot {
            return Err(ParamsError("period must be at least one slot"));
        }
        Ok(())
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::paper()
    }
}

/// A parameter-validation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamsError(&'static str);

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid FlashFlow parameters: {}", self.0)
    }
}

impl std::error::Error for ParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_are_valid() {
        let p = Params::paper();
        p.validate().unwrap();
        assert_eq!(p.sockets, 160);
        assert_eq!(p.slot, SimDuration::from_secs(30));
    }

    #[test]
    fn excess_factor_matches_paper() {
        // f = 2.25 × 1.05 / 0.80 = 2.953… — §7 rounds this to 2.84 with
        // the (1+ε₂) factor omitted from the numerator in one place; we
        // verify the formula itself.
        let p = Params::paper();
        let f = p.excess_factor();
        assert!((f - 2.25 * 1.05 / 0.8).abs() < 1e-12);
        assert!((2.8..3.0).contains(&f), "f = {f}");
    }

    #[test]
    fn inflation_bound_is_1_33() {
        let p = Params::paper();
        let bound = crate::security::max_inflation_factor(p.ratio);
        assert!((bound - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn acceptance_threshold_consistency() {
        // If the prior z0 was correct and we allocated f·z0, a measurement
        // at exactly (1+ε₂)·z0 passes the acceptance test (§4.2's algebra).
        let p = Params::paper();
        let z0 = 1000.0;
        let allocated = p.excess_factor() * z0;
        let threshold = p.acceptance_threshold(allocated);
        let z = (1.0 + p.epsilon2) * z0;
        assert!(z <= threshold * (1.0 + 1e-12), "z {z} > threshold {threshold}");
    }

    #[test]
    fn slots_per_period() {
        let p = Params::paper();
        assert_eq!(p.slots_per_period(), 24 * 3600 / 30);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut p = Params::paper();
        p.multiplier = 0.5;
        assert!(p.validate().is_err());
        let mut p = Params::paper();
        p.ratio = 1.0;
        assert!(p.validate().is_err());
        let mut p = Params::paper();
        p.sockets = 0;
        assert!(p.validate().is_err());
        let mut p = Params::paper();
        p.period = SimDuration::from_secs(1);
        assert!(p.validate().is_err());
    }
}
