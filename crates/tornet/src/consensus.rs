//! Server descriptors, consensus documents, and DirAuth voting.
//!
//! §2 of the paper: relays publish self-measurements in *server
//! descriptors* every 18 hours; every hour the Directory Authorities vote
//! a *network consensus* assigning each relay a load-balancing weight;
//! clients pick relays with probability proportional to the normalized
//! weights. Each DirAuth trusts some BWAuth, and the consensus weight is
//! the median of the trusted BWAuths' measurements (§4 "Trust and
//! Diversity").

use std::collections::BTreeMap;

use flashflow_simnet::time::SimTime;
use flashflow_simnet::units::Rate;

use crate::relay::RelayId;

/// One relay's entry in a consensus. `K` names the relay: a simulated
/// network's [`RelayId`] by default, or whatever key a deployment's
/// roster already has (the vote only orders and matches keys).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsensusEntry<K = RelayId> {
    /// The relay.
    pub relay: K,
    /// Its (unnormalized) consensus weight.
    pub weight: f64,
    /// Its advertised bandwidth at consensus time.
    pub advertised: Rate,
}

/// A network consensus document.
#[derive(Debug, Clone, PartialEq)]
pub struct Consensus<K = RelayId> {
    /// When the consensus takes effect.
    pub valid_after: SimTime,
    /// Per-relay entries, sorted by relay id.
    pub entries: Vec<ConsensusEntry<K>>,
}

impl<K: Ord + Copy> Consensus<K> {
    /// Builds a consensus from entries (sorts them by relay id).
    pub fn new(valid_after: SimTime, mut entries: Vec<ConsensusEntry<K>>) -> Self {
        entries.sort_by_key(|e| e.relay);
        Consensus { valid_after, entries }
    }

    /// Total weight across relays.
    fn total_weight(&self) -> f64 {
        self.entries.iter().map(|e| e.weight).sum()
    }

    /// A relay's normalized weight (its circuit-selection probability),
    /// or `None` if absent.
    pub fn normalized_weight(&self, relay: K) -> Option<f64> {
        let total = self.total_weight();
        if total <= 0.0 {
            return None;
        }
        self.entries.iter().find(|e| e.relay == relay).map(|e| e.weight / total)
    }

    /// Iterates `(relay, normalized weight)` pairs.
    pub fn normalized(&self) -> Vec<(K, f64)> {
        let total = self.total_weight();
        if total <= 0.0 {
            return self.entries.iter().map(|e| (e.relay, 0.0)).collect();
        }
        self.entries.iter().map(|e| (e.relay, e.weight / total)).collect()
    }
}

/// The low-median Tor's voting uses: for an even count, take the lower of
/// the two middle values (matching `dirvote.c`).
fn low_median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN weight"));
    Some(values[(values.len() - 1) / 2])
}

/// The Directory Authorities: they collect per-BWAuth weight votes and
/// publish the consensus.
#[derive(Debug, Clone)]
pub struct DirAuths {
    /// Number of authorities (the live network runs 9).
    pub count: usize,
}

impl DirAuths {
    /// A directory-authority quorum of `count` members.
    ///
    /// # Panics
    /// Panics if `count` is zero.
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "need at least one DirAuth");
        DirAuths { count }
    }

    /// Votes a consensus: each relay's weight is the low-median of the
    /// weights reported by the BWAuth votes that include it. A relay must
    /// appear in a majority of votes to be included (it is otherwise
    /// unmeasured and excluded, as on the live network).
    pub fn vote<K: Ord + Copy>(
        &self,
        valid_after: SimTime,
        bwauth_votes: &[BTreeMap<K, f64>],
        advertised: &BTreeMap<K, Rate>,
    ) -> Consensus<K> {
        assert!(!bwauth_votes.is_empty(), "need at least one vote");
        let majority = bwauth_votes.len() / 2 + 1;
        // Every vote's weights, grouped by relay: each vote is already in
        // relay order, so the stable sort only merges them.
        let mut reports: Vec<(K, f64)> =
            bwauth_votes.iter().flat_map(|vote| vote.iter().map(|(r, w)| (*r, *w))).collect();
        reports.sort_by_key(|&(relay, _)| relay);
        let mut weights = Vec::with_capacity(bwauth_votes.len());
        let entries = reports
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|run| run.len() >= majority)
            .map(|run| {
                let relay = run[0].0;
                weights.clear();
                weights.extend(run.iter().map(|&(_, weight)| weight));
                ConsensusEntry {
                    relay,
                    weight: low_median(&mut weights).expect("non-empty"),
                    advertised: advertised.get(&relay).copied().unwrap_or(Rate::ZERO),
                }
            })
            .collect();
        Consensus::new(valid_after, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: usize) -> RelayId {
        // RelayIds are opaque outside the crate; build via transparent ctor.
        RelayId(i)
    }

    #[test]
    fn normalized_weights_sum_to_one() {
        let c = Consensus::new(
            SimTime::ZERO,
            vec![
                ConsensusEntry { relay: rid(0), weight: 10.0, advertised: Rate::ZERO },
                ConsensusEntry { relay: rid(1), weight: 30.0, advertised: Rate::ZERO },
            ],
        );
        assert_eq!(c.normalized_weight(rid(0)), Some(0.25));
        assert_eq!(c.normalized_weight(rid(1)), Some(0.75));
        let sum: f64 = c.normalized().iter().map(|(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn low_median_even_takes_lower() {
        assert_eq!(low_median(&mut [1.0, 2.0, 3.0, 4.0]), Some(2.0));
        assert_eq!(low_median(&mut [5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(low_median(&mut []), None);
    }

    #[test]
    fn vote_takes_median_across_bwauths() {
        let auths = DirAuths::new(3);
        let votes: Vec<BTreeMap<RelayId, f64>> = vec![
            BTreeMap::from([(rid(0), 100.0), (rid(1), 10.0)]),
            BTreeMap::from([(rid(0), 120.0), (rid(1), 14.0)]),
            BTreeMap::from([(rid(0), 90.0), (rid(1), 12.0)]),
        ];
        let adv = BTreeMap::from([(rid(0), Rate::from_mbit(100.0))]);
        let c = auths.vote(SimTime::ZERO, &votes, &adv);
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.entries[0].weight, 100.0);
        assert_eq!(c.entries[1].weight, 12.0);
    }

    #[test]
    fn vote_excludes_minority_measured_relays() {
        let auths = DirAuths::new(3);
        let votes: Vec<BTreeMap<RelayId, f64>> = vec![
            BTreeMap::from([(rid(0), 100.0), (rid(1), 10.0)]),
            BTreeMap::from([(rid(0), 120.0)]),
            BTreeMap::from([(rid(0), 90.0)]),
        ];
        let c = auths.vote(SimTime::ZERO, &votes, &BTreeMap::new());
        // rid(1) only appears in 1 of 3 votes: excluded.
        assert_eq!(c.entries.len(), 1);
        assert_eq!(c.entries[0].relay, rid(0));
    }

    #[test]
    fn median_resists_one_malicious_bwauth() {
        // A single lying BWAuth reporting 100× cannot move the median.
        let auths = DirAuths::new(3);
        let votes: Vec<BTreeMap<RelayId, f64>> = vec![
            BTreeMap::from([(rid(0), 100.0)]),
            BTreeMap::from([(rid(0), 105.0)]),
            BTreeMap::from([(rid(0), 10_000.0)]), // liar
        ];
        let c = auths.vote(SimTime::ZERO, &votes, &BTreeMap::new());
        assert_eq!(c.entries[0].weight, 105.0);
    }
}
