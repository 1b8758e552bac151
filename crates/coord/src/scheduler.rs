//! Partitioning a roster into measurement rounds.
//!
//! The paper's schedule (§4.3) allocates the team's aggregate capacity
//! across concurrent measurements: relay `j` gets `excess × prior_j`
//! of blast so the measurement saturates it, and as many relays run
//! concurrently as the team can saturate at once. Here each round is
//! one `measure_echo_period` call, and every item in a round runs
//! concurrently against the k measurer processes by construction: the
//! round's items are the items of one `MeasurementEngine`, which opens
//! every item's sessions before its first tick and releases each item's
//! `Go` as soon as that item's own peers are armed. So the round's
//! total commanded blast (`k × per-measurer rate per item`) must fit
//! inside the team budget.
//!
//! Packing is greedy, largest prior first (the order
//! `BwAuth::measure_network` uses), deterministic given the same
//! pending set — which matters because a restarted coordinator replans
//! from its journal and should walk the remainder in a predictable
//! order.

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
    /// Hard cap on items per round (`0` = no cap beyond capacity);
    /// bounds the `--sessions`-style fan-out per round.
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
