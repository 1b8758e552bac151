//! The relay roster a measurement period walks: every relay the daemon
//! is responsible for, with the prior capacity estimate the scheduler
//! packs rounds by (§4.3: the schedule allocates team capacity
//! proportionally to each relay's previous estimate).
//!
//! Two sources, both deterministic in the seed so a restarted
//! coordinator rebuilds the *identical* roster its journal refers to:
//!
//! * `shadow_roster` — the `flashflow-shadow` private-network sample
//!   (the paper's 5%-scale 328-relay configuration by default), whose
//!   log-normal capacities become the priors;
//! * [`synth_roster`] — capacities drawn from the `flashflow-metrics`
//!   synthetic consensus corpus, for scaling the roster past the Shadow
//!   sample toward full-network size. Only the relays' ground truths
//!   are walked ([`flashflow_metrics::synth::truths`]), not their
//!   archive series, so a 1000-relay roster builds in under a
//!   millisecond — a cost every coordinator start, restart included,
//!   pays before it commands anything.
//!
//! Roster fingerprints are derived from `(seed, index)` with a
//! splitmix64 mix — stable across restarts, distinct across relays, and
//! exactly the identifier journal records and `EchoItem`s carry.

use flashflow_proto::msg::FINGERPRINT_LEN;

/// Where a roster's relay population and priors come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RosterSource {
    /// The `flashflow-shadow` private-network sample.
    Shadow,
    /// The `flashflow-metrics` synthetic corpus.
    Synth,
}

impl RosterSource {
    /// The source's stable name (journal field / CLI value).
    pub fn name(self) -> &'static str {
        match self {
            RosterSource::Shadow => "shadow",
            RosterSource::Synth => "synth",
        }
    }

    /// Parses a CLI/config value.
    ///
    /// # Errors
    /// Names the unknown source.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "shadow" => Ok(RosterSource::Shadow),
            "synth" => Ok(RosterSource::Synth),
            other => Err(format!("unknown roster source {other:?} (want shadow|synth)")),
        }
    }
}

/// One relay the daemon measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RosterEntry {
    /// Index in the roster (stable across restarts; the journal's key).
    pub ix: usize,
    /// The relay's wire fingerprint.
    pub fp: [u8; FINGERPRINT_LEN],
    /// Prior capacity estimate (bytes/s) the scheduler packs by.
    pub prior: f64,
}

/// The full relay population of one measurement period.
#[derive(Debug, Clone)]
pub struct Roster {
    /// Where the population came from.
    pub source: RosterSource,
    /// The seed it was derived from.
    pub seed: u64,
    /// The relays, in index order.
    pub entries: Vec<RosterEntry>,
}

/// splitmix64: the standard 64-bit finalizing mix (public domain,
/// Steele et al.), used here to derive stable per-relay identifiers.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The roster fingerprint of relay `ix` under `seed`: a splitmix64
/// stream over `(seed, ix)`, so fingerprints are distinct per relay and
/// reproducible across coordinator restarts.
pub fn roster_fingerprint(seed: u64, ix: usize) -> [u8; FINGERPRINT_LEN] {
    let mut fp = [0u8; FINGERPRINT_LEN];
    let mut state = splitmix64(seed ^ 0xF1A5_4F10_0000_0000 ^ ix as u64);
    for chunk in fp.chunks_mut(8) {
        state = splitmix64(state);
        let bytes = state.to_be_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    fp
}

/// The measurement secret for attempt derivation of relay `ix` in
/// `period` under `secret_seed`. Deterministic so a restarted
/// coordinator re-derives the secret an in-flight journal record refers
/// to — though recovery always prefers the journaled secret itself (the
/// journal is the authority; the derivation only has to be
/// collision-free). The period enters because long-lived peers remember
/// every nonce they accepted: a second period re-deriving the first
/// one's secrets would be refused as a replay.
pub fn item_secret(secret_seed: u64, period: u64, ix: usize) -> u64 {
    let period = period.wrapping_sub(1).rotate_left(40);
    splitmix64(secret_seed ^ 0x5EC2_E700_0000_0000 ^ (ix as u64).rotate_left(17) ^ period)
}

/// Builds a roster from the `flashflow-shadow` private-network sample:
/// `relays` hosts with log-normal capacities (`None` keeps the paper's
/// 328-relay 5%-scale count). Deterministic in `seed`.
fn shadow_roster(seed: u64, relays: Option<usize>) -> Roster {
    let mut cfg = flashflow_shadow::config::ShadowConfig::paper_scale(seed);
    if let Some(n) = relays {
        cfg.relays = n;
    }
    let net = flashflow_shadow::sample::build_network(&cfg);
    let entries = net
        .capacities
        .iter()
        .enumerate()
        .map(|(ix, &prior)| RosterEntry { ix, fp: roster_fingerprint(seed, ix), prior })
        .collect();
    Roster { source: RosterSource::Shadow, seed, entries }
}

/// The synthetic-corpus configuration a `relays`-relay roster draws
/// from: a 0.05-year archive (73 six-hour steps) whose population holds
/// at `relays`, so the first `relays` relays are the step-zero spawns.
fn synth_config(seed: u64, relays: usize) -> flashflow_metrics::synth::SynthConfig {
    flashflow_metrics::synth::SynthConfig {
        years: 0.05,
        initial_relays: relays,
        final_relays: relays,
        ..flashflow_metrics::synth::SynthConfig::paper_scale(seed)
    }
}

/// Builds a roster from the `flashflow-metrics` synthetic corpus:
/// `relays` capacities drawn from the calibrated log-normal the archive
/// generator uses, scaling the roster toward full-network size.
/// Deterministic in `seed`.
pub fn synth_roster(seed: u64, relays: usize) -> Roster {
    // The truths-only walk: the same priors `synth::generate` would
    // give, without the utilisation and weight series it would draw
    // (and this roster would throw away) for every relay.
    let entries = flashflow_metrics::synth::truths(&synth_config(seed, relays))
        .take(relays)
        .enumerate()
        .map(|(ix, truth)| RosterEntry {
            ix,
            fp: roster_fingerprint(seed, ix),
            prior: truth.capacity,
        })
        .collect();
    Roster { source: RosterSource::Synth, seed, entries }
}

/// Builds the roster named by `source`.
pub fn build(source: RosterSource, seed: u64, relays: Option<usize>) -> Roster {
    match source {
        RosterSource::Shadow => shadow_roster(seed, relays),
        RosterSource::Synth => synth_roster(seed, relays.unwrap_or(328)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_roster_is_deterministic_and_distinct() {
        let a = shadow_roster(7, Some(12));
        let b = shadow_roster(7, Some(12));
        assert_eq!(a.entries.len(), 12);
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.fp, y.fp);
            assert_eq!(x.prior, y.prior);
        }
        let mut fps: Vec<_> = a.entries.iter().map(|e| e.fp).collect();
        fps.sort();
        fps.dedup();
        assert_eq!(fps.len(), 12, "fingerprints must be distinct");
        assert!(a.entries.iter().map(|e| e.prior).sum::<f64>() > 0.0);
    }

    #[test]
    fn shadow_roster_defaults_to_the_paper_scale() {
        let r = shadow_roster(3, None);
        assert_eq!(r.entries.len(), 328);
    }

    #[test]
    fn synth_roster_draws_positive_capacities() {
        let r = synth_roster(11, 16);
        assert_eq!(r.entries.len(), 16);
        assert!(r.entries.iter().all(|e| e.prior > 0.0));
        let again = synth_roster(11, 16);
        assert_eq!(r.entries[3].prior, again.entries[3].prior, "deterministic in the seed");
    }

    #[test]
    fn synth_priors_are_the_generated_archives_capacities() {
        for (seed, relays) in [(11, 1000), (7301, 1), (3, 17), (42, 250)] {
            let archive = flashflow_metrics::synth::generate(&synth_config(seed, relays));
            let priors: Vec<u64> =
                synth_roster(seed, relays).entries.iter().map(|e| e.prior.to_bits()).collect();
            let capacities: Vec<u64> =
                archive.truths.iter().take(relays).map(|t| t.capacity.to_bits()).collect();
            assert_eq!(priors.len(), relays, "seed {seed}");
            assert_eq!(priors, capacities, "seed {seed}, {relays} relays");
        }
    }

    #[test]
    fn secrets_and_fingerprints_do_not_collide_across_indices() {
        let secrets: std::collections::BTreeSet<u64> =
            (0..512).map(|ix| item_secret(99, 1, ix)).collect();
        assert_eq!(secrets.len(), 512);
    }

    #[test]
    fn secrets_do_not_repeat_across_periods() {
        let secrets: std::collections::BTreeSet<u64> = (1..=8)
            .flat_map(|period| (0..512).map(move |ix| item_secret(99, period, ix)))
            .collect();
        assert_eq!(secrets.len(), 8 * 512);
    }
}
