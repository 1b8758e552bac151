//! Partitioning a roster into measurement rounds — a stand-in for the
//! paper's schedule, not an implementation of it.
//!
//! The paper (§4.2, §4.3) gives relay `j` an allocation of `f·z₀ⱼ`
//! split over measurers with unequal capacities, packs as many relays
//! into a slot as the team's spare capacity allows, and re-measures a
//! relay whose estimate the allocation may have clipped from
//! `max(z, 2·z₀)`. That loop exists once, in
//! `flashflow_core::sequence::measure_period` (the decision alone is
//! `sequence::judge`), over plain numbers and a caller-supplied slot
//! executor, so this daemon can run it with a round of processes as the
//! executor: `EchoEntry.capacity` is the estimate, the round's summed
//! `rate_cap` the allocation. ROADMAP's "the daemon runs the paper's
//! schedule" item makes that switch and deletes this module; it waits on
//! relays with a forwarding limit, because an unbounded relay can never
//! pass the acceptance test.
//!
//! Until then: every item costs the same fixed blast (the deployment
//! commands one `rate_cap` per measurer whatever the relay's prior),
//! each relay is measured once, and a round carries as many items as
//! that fixed cost fits into the team budget. Each round is one
//! `measure_echo_period` call whose items run concurrently by
//! construction: they are the items of one `MeasurementEngine`, which
//! opens every item's sessions before its first tick and releases each
//! item's `Go` as soon as that item's own peers are armed.
//!
//! Packing is largest prior first (the order `measure_period` uses),
//! deterministic given the same pending set — which matters because a
//! restarted coordinator replans from its journal and should walk the
//! remainder in a predictable order.

use crate::roster::RosterEntry;

/// One round of concurrent measurements: roster indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Roster indices measured concurrently in this round.
    pub items: Vec<usize>,
}

/// Round-packing knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlanConfig {
    /// Aggregate team blast budget (bytes/s): k measurers × per-item
    /// commanded rate × concurrent items must stay under this.
    pub team_capacity: f64,
    /// Commanded blast per item across the whole team (bytes/s) — the
    /// paper's `excess × prior`, here a fixed per-item cost because the
    /// echo deployment commands one rate per measurer.
    pub per_item_blast: f64,
    /// Hard cap on items per round (`0` = no cap beyond capacity):
    /// `flashflow-coord --round-max`.
    pub round_max: usize,
}

impl PlanConfig {
    /// Items one round can carry under this configuration (at least 1 —
    /// a relay larger than the team still gets a best-effort round).
    pub fn items_per_round(&self) -> usize {
        let by_capacity = if self.per_item_blast > 0.0 {
            (self.team_capacity / self.per_item_blast).floor() as usize
        } else {
            usize::MAX
        };
        let capped = match self.round_max {
            0 => by_capacity,
            max => by_capacity.min(max),
        };
        capped.max(1)
    }
}

/// Packs `pending` (the not-yet-measured remainder of a roster) into
/// rounds: largest prior first, each round filled to the capacity
/// bound. Deterministic; an empty `pending` yields no rounds.
pub fn plan_rounds(pending: &[RosterEntry], cfg: &PlanConfig) -> Vec<Round> {
    let mut order: Vec<&RosterEntry> = pending.iter().collect();
    // total_cmp instead of partial_cmp: a NaN prior (a corrupt roster
    // line) must not panic the daemon mid-period — it sorts to an
    // extreme and gets measured like everything else.
    order.sort_by(|a, b| b.prior.total_cmp(&a.prior).then(a.ix.cmp(&b.ix)));
    let per_round = cfg.items_per_round();
    order
        .chunks(per_round)
        .map(|chunk| Round { items: chunk.iter().map(|e| e.ix).collect() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roster::roster_fingerprint;

    fn entries(priors: &[f64]) -> Vec<RosterEntry> {
        priors
            .iter()
            .enumerate()
            .map(|(ix, &prior)| RosterEntry { ix, fp: roster_fingerprint(1, ix), prior })
            .collect()
    }

    #[test]
    fn rounds_respect_the_team_capacity() {
        let pending = entries(&[10.0, 40.0, 20.0, 30.0, 5.0]);
        // 2 items of 100k blast fit in 250k of team.
        let cfg = PlanConfig { team_capacity: 250_000.0, per_item_blast: 100_000.0, round_max: 0 };
        let rounds = plan_rounds(&pending, &cfg);
        assert_eq!(rounds.len(), 3);
        assert!(rounds.iter().all(|r| r.items.len() <= 2));
        // Largest prior leads.
        assert_eq!(rounds[0].items[0], 1);
        let all: Vec<usize> = rounds.iter().flat_map(|r| r.items.clone()).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "every pending item is scheduled exactly once");
    }

    #[test]
    fn an_oversized_relay_still_gets_a_round() {
        let pending = entries(&[1e12]);
        let cfg = PlanConfig { team_capacity: 100.0, per_item_blast: 1e9, round_max: 0 };
        let rounds = plan_rounds(&pending, &cfg);
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].items, vec![0]);
    }

    #[test]
    fn round_max_caps_concurrency_below_capacity() {
        let pending = entries(&[1.0, 2.0, 3.0, 4.0]);
        let cfg = PlanConfig { team_capacity: 1e9, per_item_blast: 1.0, round_max: 3 };
        let rounds = plan_rounds(&pending, &cfg);
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].items.len(), 3);
    }

    #[test]
    fn planning_is_deterministic() {
        let pending = entries(&[7.0, 7.0, 3.0]);
        let cfg = PlanConfig { team_capacity: 10.0, per_item_blast: 4.0, round_max: 0 };
        assert_eq!(plan_rounds(&pending, &cfg), plan_rounds(&pending, &cfg));
    }
}
