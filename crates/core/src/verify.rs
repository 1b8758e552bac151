//! Random spot-checking of echoed measurement cells (§4.1, §5).
//!
//! Measurement cells carry random bytes. The measurer records each sent
//! cell's contents with probability `p` (the paper suggests `10⁻⁵`) and
//! compares the echoed contents: a target that forges responses — skipping
//! decryption, or answering before receiving — returns bytes that cannot
//! match the recorded plaintext, so forging `k` cells evades detection
//! with probability only `(1−p)^k`.
//!
//! The checker here operates on *real* cells through the byte-accurate
//! protocol layer of `flashflow-tornet`: sampled cells are sealed with the
//! circuit's onion cipher, processed by an honest or forging target, and
//! compared byte for byte.

use flashflow_simnet::rng::SimRng;
use flashflow_tornet::cell::{CircId, PAYLOAD_LEN};
use flashflow_tornet::circuit::{MeasurementCircuit, MeasurementTarget};
use flashflow_tornet::crypto::SecretKey;

/// How the target behaves when echoing measurement cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetBehavior {
    /// Decrypt and echo correctly.
    Honest,
    /// Forge this fraction of responses (echo garbage without doing the
    /// decryption work).
    Forging {
        /// Fraction of cells forged, in `[0, 1]`.
        fraction: f64,
    },
}

/// Outcome of the spot-check process for one measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerificationOutcome {
    /// Cells that were recorded and checked.
    pub cells_checked: u64,
    /// Checked cells whose echo did not match.
    pub mismatches: u64,
}

impl VerificationOutcome {
    /// True if every checked cell echoed correctly.
    pub fn passed(&self) -> bool {
        self.mismatches == 0
    }
}

/// Probability that a relay forging `k` responses evades detection when
/// each cell is checked independently with probability `p` (§5).
pub fn evasion_probability(p: f64, k: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p out of range");
    (1.0 - p).powf(k as f64)
}

/// Number of cells a measurement of `bytes` total traffic comprises.
fn cells_in(bytes: f64) -> u64 {
    (bytes / flashflow_tornet::cell::CELL_LEN as f64).floor() as u64
}

/// Samples how many of `cells` get recorded for checking at probability
/// `p`, using a normal approximation for large counts and exact Bernoulli
/// draws for small ones.
fn sample_checked_count(cells: u64, p: f64, rng: &mut SimRng) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p out of range");
    if cells == 0 || p == 0.0 {
        return 0;
    }
    if cells < 10_000 {
        let mut count = 0;
        for _ in 0..cells {
            if rng.gen_bool(p) {
                count += 1;
            }
        }
        return count;
    }
    let mean = cells as f64 * p;
    let sd = (cells as f64 * p * (1.0 - p)).sqrt();
    rng.gen_normal(mean, sd).round().max(0.0) as u64
}

/// Runs the spot-check protocol for a measurement that transferred
/// `total_bytes`, with real sealed cells for each sampled check.
///
/// The measurer and target perform an authenticated handshake, the
/// measurer seals random payloads, and the target processes them per
/// `behavior`. Only the sampled (checked) cells are materialised — the
/// unsampled ones affect nothing, which is exactly why the protocol is
/// cheap for the measurer.
pub fn spot_check(
    total_bytes: f64,
    check_probability: f64,
    behavior: TargetBehavior,
    rng: &mut SimRng,
) -> VerificationOutcome {
    let n_cells = cells_in(total_bytes);
    let checked = sample_checked_count(n_cells, check_probability, rng);

    // Handshake.
    let measurer_secret = SecretKey::from_entropy(rng.next_u64());
    let target_secret = SecretKey::from_entropy(rng.next_u64());
    let mut circuit = MeasurementCircuit::build(CircId(1), measurer_secret, target_secret.public());
    let mut target = MeasurementTarget::accept(target_secret, measurer_secret.public());

    let forge_fraction = match behavior {
        TargetBehavior::Honest => 0.0,
        TargetBehavior::Forging { fraction } => {
            assert!((0.0..=1.0).contains(&fraction), "bad forge fraction");
            fraction
        }
    };

    let mut mismatches = 0;
    for _ in 0..checked {
        // Random plaintext the measurer records.
        let mut plain = [0u8; PAYLOAD_LEN];
        for b in plain.iter_mut() {
            *b = (rng.next_u64() & 0xFF) as u8;
        }
        let sealed = circuit.seal(&plain);
        let echoed = if rng.gen_bool(forge_fraction) {
            // Forged: the relay answers without decrypting (it returns the
            // ciphertext unchanged — the cheapest possible forgery).
            sealed
        } else {
            target.process(sealed)
        };
        if MeasurementCircuit::open_echo(&echoed) != plain {
            mismatches += 1;
        }
    }

    VerificationOutcome { cells_checked: checked, mismatches }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_target_always_passes() {
        let mut rng = SimRng::seed_from_u64(1);
        // 1 GB of measurement traffic at p = 1e-5 → ≈19 checks.
        let outcome = spot_check(1e9, 1e-5, TargetBehavior::Honest, &mut rng);
        assert!(outcome.passed());
        assert!(outcome.cells_checked > 0, "expected some checks at this volume");
    }

    #[test]
    fn full_forgery_is_caught_with_enough_checks() {
        let mut rng = SimRng::seed_from_u64(2);
        let outcome = spot_check(1e9, 1e-4, TargetBehavior::Forging { fraction: 1.0 }, &mut rng);
        assert!(!outcome.passed());
        assert_eq!(outcome.mismatches, outcome.cells_checked);
    }

    #[test]
    fn zero_probability_checks_nothing() {
        let mut rng = SimRng::seed_from_u64(3);
        let outcome = spot_check(1e9, 0.0, TargetBehavior::Forging { fraction: 1.0 }, &mut rng);
        assert_eq!(outcome.cells_checked, 0);
        assert!(outcome.passed(), "no checks, no detection — hence p must be positive");
    }

    #[test]
    fn evasion_probability_matches_formula() {
        assert_eq!(evasion_probability(0.5, 1), 0.5);
        assert!((evasion_probability(1e-5, 100_000) - (1.0f64 - 1e-5).powf(1e5)).abs() < 1e-12);
        // Forging a full 30-second gigabit measurement ≈ 9 M cells:
        // detection is essentially certain.
        let cells = cells_in(125e6 * 30.0);
        assert!(evasion_probability(1e-5, cells) < 1e-30);
    }

    #[test]
    fn cells_in_converts_bytes() {
        assert_eq!(cells_in(5140.0), 10);
        assert_eq!(cells_in(0.0), 0);
        assert_eq!(cells_in(513.0), 0);
    }

    #[test]
    fn sampled_count_tracks_mean_for_large_n() {
        let mut rng = SimRng::seed_from_u64(4);
        let n = 10_000_000u64;
        let p = 1e-5;
        let count = sample_checked_count(n, p, &mut rng);
        // Mean 100, sd 10 — allow ±6 sd.
        assert!((40..=160).contains(&count), "count {count}");
    }

    #[test]
    fn partial_forgery_usually_caught_at_scale() {
        // A relay forging 10% of a 30 s gigabit measurement faces ≈9 M
        // forged cells × p=1e-5 ≈ 9 expected catches.
        let mut rng = SimRng::seed_from_u64(5);
        let mut caught = 0;
        for _ in 0..10 {
            let outcome =
                spot_check(125e6 * 30.0, 1e-5, TargetBehavior::Forging { fraction: 0.1 }, &mut rng);
            if !outcome.passed() {
                caught += 1;
            }
        }
        assert!(caught >= 9, "caught only {caught}/10");
    }
}
