//! Scripted reference peers: the in-memory run every transport or
//! scaling claim is checked against.
//!
//! Benches, examples, and harness tests all need the same thing: a
//! self-contained round whose peers answer the handshake and then
//! report fixed per-second byte counts over in-memory links —
//! deterministic numbers to compare a real deployment with. [`run`]
//! builds exactly that as **one** [`MeasurementEngine`] whose item `g`
//! is the round's `g`-th item, so the driving loop (pump to quiescence,
//! act on `Start`, report, tick, collect events, snapshot) lives in one
//! place instead of being re-implemented per harness.

use flashflow_proto::endpoint::Endpoint;
use flashflow_proto::msg::{MeasureSpec, PeerRole, AUTH_TOKEN_LEN, FINGERPRINT_LEN};
use flashflow_proto::session::{
    CoordinatorSession, MeasurerAction, MeasurerSession, SessionTimeouts,
};
use flashflow_proto::transport::Duplex;
use flashflow_simnet::time::{SimDuration, SimTime};

use crate::engine::{EngineEvent, EngineSnapshot, MeasurementEngine, SampleLedger};

/// One scripted peer of an item: its role and the constant
/// per-second byte counts it reports once the slot starts.
#[derive(Debug, Clone, Copy)]
pub struct ScriptedPeer {
    /// Protocol role.
    pub role: PeerRole,
    /// Background bytes reported per second (`y_j` share).
    pub bg: u64,
    /// Measurement bytes reported per second (`x_j` share).
    pub measured: u64,
}

impl ScriptedPeer {
    /// A measurer blasting `rate` bytes per second.
    pub fn measurer(rate: u64) -> Self {
        ScriptedPeer { role: PeerRole::Measurer, bg: 0, measured: rate }
    }

    /// The target reporting `bg` background bytes per second.
    pub fn target(bg: u64) -> Self {
        ScriptedPeer { role: PeerRole::Target, bg, measured: 0 }
    }
}

/// Link and clock knobs for a scripted round.
#[derive(Debug, Clone, Copy)]
pub struct ScriptConfig {
    /// Commanded slot length in seconds.
    pub slot_secs: u32,
    /// One-way latency of each in-memory link.
    pub link_latency: SimDuration,
    /// Link re-chunking size (`usize::MAX` = whole writes).
    pub link_chunk: usize,
    /// Simulated time advanced per driving tick.
    pub tick: SimDuration,
    /// Engine hard deadline (wall against scripting bugs).
    pub hard_deadline: SimDuration,
    /// Driving ticks before the round declares itself wedged.
    pub max_ticks: u64,
}

impl Default for ScriptConfig {
    fn default() -> Self {
        ScriptConfig {
            slot_secs: 5,
            link_latency: SimDuration::ZERO,
            link_chunk: usize::MAX,
            tick: SimDuration::from_secs(1),
            hard_deadline: SimDuration::from_secs(300),
            max_ticks: 2_000,
        }
    }
}

/// What a scripted round left behind: every engine event in order, the
/// ledger already fed with them, and the detached peer directory the
/// ledger's per-item views take.
#[derive(Debug)]
pub struct ScriptedRun {
    /// Every event, per-item order preserved.
    pub events: Vec<EngineEvent>,
    /// The sample quarantine, fed with every event.
    pub ledger: SampleLedger,
    /// Final state of every conversation.
    pub peers: EngineSnapshot,
}

/// Runs one self-contained round to completion: one engine over `items`
/// (each a set of scripted peers; item `g` of the engine is `items[g]`),
/// links, sessions and peers all created here.
///
/// The coordinator sessions raise their report-ahead cap to the slot
/// length: scripted peers report a "second" per driving tick, which can
/// legitimately outpace the scripted clock.
///
/// # Panics
/// Panics if the round has not finished after `cfg.max_ticks` ticks.
pub fn run(items: &[Vec<ScriptedPeer>], cfg: ScriptConfig) -> ScriptedRun {
    let token = [0xA5u8; AUTH_TOKEN_LEN];
    let timeouts = SessionTimeouts::default();
    let mut builder = MeasurementEngine::builder();
    let mut locals = Vec::new();
    for (item_ix, peers) in items.iter().enumerate() {
        let mut fp = [0u8; FINGERPRINT_LEN];
        fp[..8].copy_from_slice(&(item_ix as u64).to_be_bytes());
        for (peer_ix, peer) in peers.iter().enumerate() {
            let spec = MeasureSpec {
                relay_fp: fp,
                slot_secs: cfg.slot_secs,
                sockets: if peer.role == PeerRole::Measurer { 8 } else { 0 },
                rate_cap: peer.measured,
                ..MeasureSpec::default()
            };
            let nonce = (item_ix * 64 + peer_ix) as u64 + 1;
            let (ca, cb) = Duplex::new(cfg.link_latency, cfg.link_chunk).into_endpoints();
            builder.add_peer(
                item_ix,
                CoordinatorSession::new(token, peer.role, spec, nonce, timeouts)
                    .with_report_ahead_cap(cfg.slot_secs),
                Box::new(ca),
            );
            locals.push((
                Endpoint::new(MeasurerSession::new(token, peer.role, nonce, timeouts), cb),
                *peer,
                false, // started
                0u32,  // reported
            ));
        }
    }
    let mut engine = builder.hard_deadline(SimTime::ZERO + cfg.hard_deadline).build(SimTime::ZERO);
    let mut events = Vec::new();
    let mut ledger = SampleLedger::new();
    for tick in 0..cfg.max_ticks {
        let now = SimTime::ZERO + cfg.tick * tick as f64;
        loop {
            let mut moved = engine.pump(now);
            for (ep, ..) in locals.iter_mut() {
                moved |= ep.pump(now);
            }
            if !moved {
                break;
            }
        }
        for (ep, peer, started, reported) in locals.iter_mut() {
            while let Some(a) = ep.session_mut().poll_action() {
                if matches!(a, MeasurerAction::Start { .. }) {
                    *started = true;
                }
            }
            if *started && *reported < cfg.slot_secs && !ep.is_terminal() {
                ep.session_mut().report_second(peer.bg, peer.measured);
                *reported += 1;
            }
            ep.tick(now);
        }
        engine.finish_tick(now);
        while let Some(ev) = engine.poll_event() {
            ledger.observe(&ev);
            events.push(ev);
        }
        if engine.is_finished() {
            return ScriptedRun { events, ledger, peers: engine.snapshot() };
        }
    }
    panic!("scripted round wedged after {} ticks", cfg.max_ticks);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_completes_with_ordered_events_and_its_own_series() {
        const SLOT_SECS: u32 = 3;
        let items: Vec<Vec<ScriptedPeer>> = (0..10u64)
            .map(|g| {
                let rate = 1_000 * (g + 1);
                vec![ScriptedPeer::measurer(rate), ScriptedPeer::target(rate / 10)]
            })
            .collect();
        let run = run(&items, ScriptConfig { slot_secs: SLOT_SECS, ..ScriptConfig::default() });
        assert!(run.peers.all_clean());
        assert_eq!(run.peers.item_count(), 10);
        for g in 0..10 {
            // Per-item event order: Go before every sample, one
            // ItemComplete at the end.
            let of_g: Vec<&EngineEvent> = run
                .events
                .iter()
                .filter(|e| match **e {
                    EngineEvent::GoReleased { item, .. }
                    | EngineEvent::Sample { item, .. }
                    | EngineEvent::ItemComplete { item } => item == g,
                    _ => false,
                })
                .collect();
            assert!(matches!(of_g.first(), Some(EngineEvent::GoReleased { .. })), "{of_g:?}");
            assert!(matches!(of_g.last(), Some(EngineEvent::ItemComplete { .. })), "{of_g:?}");
            assert_eq!(of_g.len(), 2 + 2 * SLOT_SECS as usize, "item {g}: {of_g:?}");
            let (x, y) = run.ledger.merged_series(&run.peers, g);
            let rate = 1_000.0 * (g as f64 + 1.0);
            assert_eq!(x, vec![rate; SLOT_SECS as usize], "item {g}");
            assert_eq!(y, vec![(rate / 10.0).floor(); SLOT_SECS as usize], "item {g}");
        }
    }
}
