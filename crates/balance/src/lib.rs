//! # flashflow-balance
//!
//! The Tor load-balancing systems FlashFlow is compared against
//! (paper §8, Table 2), re-implemented from their published descriptions:
//!
//! * [`torflow`] — the deployed scanner: 2-hop download probes × advertised
//!   bandwidth self-reports;
//! * [`eigenspeed`] — peer observation matrix + principal eigenvector;
//! * [`attacks`] — the weight-inflation attack scenarios producing
//!   Table 2's "Attack Advantage" column.

pub mod attacks;
pub mod eigenspeed;
pub mod torflow;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::attacks::{peerflow_advantage_bound, torflow_attack, AttackOutcome};
    pub use crate::eigenspeed::{
        eigenspeed, EigenSpeedConfig, EigenSpeedResult, ObservationMatrix,
    };
    pub use crate::torflow::compute_weights;
}
