//! The round loop in memory (§4.1, §7): a deployment's peers as
//! conversations at the far end of simulated links.
//!
//! [`crate::echo::run_rounds`] runs rounds against measurer and relay
//! processes over TCP. [`simulate_rounds`] runs the same loop (its
//! staging, `Go` gates, per-attempt nonces, hard deadline and
//! [`RoundSource`]) with every peer in memory: each control session's
//! transport is one end of a [`Duplex`] link (40 ms one way, re-chunked
//! at 97 bytes so every message is reassembled), its far end the
//! processes' own peer conversation ([`PeerConversation`]), and **only**
//! session actions start or stop traffic. Each simulated peer process
//! (each deployment measurer, and the relay) has one replay window its
//! conversations claim their `Auth` nonce in, as a process does.
//! Per-second byte counts cross the link as `SecondReport` frames, so
//! the estimate comes from what the frames said. [`run_scripted`] is the
//! one-round case, as [`crate::echo::run_round`] is over sockets.
//!
//! The links own the clock, and nothing sleeps: each wait moves it to
//! the earliest of the loop's wake (a `Go` gate, a staging time), the
//! next frame landing on any link, the next deadline of any peer's
//! conversation (a session timeout, or report `j` at its `Go` + (j+1) s)
//! and one 100 ms step on, then steps every conversation. What the peers
//! *do* is the one parameter, a [`PeerBehaviour`], which supplies the
//! conversation's hooks; [`Scripted`] is the fixed-rate behaviour keyed
//! by relay fingerprint, the deterministic reference a deployment's
//! numbers are compared against.

use std::collections::HashMap;
use std::io;

use flashflow_procutil::peer::{Hooks, PeerConversation};
use flashflow_proto::msg::FINGERPRINT_LEN;
use flashflow_proto::session::{MeasurerAction, MeasurerSession, ReplayWindow, SessionTimeouts};
use flashflow_proto::transport::{Duplex, DuplexEnd, Transport};
use flashflow_simnet::time::{SimDuration, SimTime};

use crate::echo::{drive, one_round, Dial, EchoDeployment, EchoItem, Links, RoundSource, Staged};
use crate::engine::{EngineEvent, EngineSnapshot};

/// The longest one wait moves the clock: how late a coordinator timeout can fire.
const STEP: SimDuration = SimDuration::from_millis(100);

/// What the peers of in-memory rounds do: the one parameter of
/// [`simulate_rounds`].
pub trait PeerBehaviour {
    /// Moves the world's traffic to `now`, at every wait of the loop.
    fn advance(&mut self, _now: SimTime) {}
    /// Carries out one of `peer`'s session actions; only these start or
    /// stop traffic.
    fn act(&mut self, _peer: SimPeer, _action: MeasurerAction, _now: SimTime) {}
    /// Second `j` of `peer`'s slot as `(bg, measured)` bytes, asked once
    /// it is due; `None` silences the peer for the rest of its slot.
    fn second(&mut self, peer: SimPeer, j: u32) -> Option<(u64, u64)>;
}

/// A peer of an in-memory round, as its behaviour sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimPeer {
    /// Connection order over the whole run, from 0: round by round, item
    /// by item, each item's measurers and then its relay.
    pub id: usize,
    /// The relay its item measures.
    pub relay_fp: [u8; FINGERPRINT_LEN],
    /// Which of the deployment's measurers it is; `None` for the relay.
    pub measurer: Option<usize>,
}

/// In-memory links: the loop's clock and every peer's far end, moved
/// by `behaviour`.
pub(crate) struct InMemory<'a, B> {
    behaviour: &'a mut B,
    now: SimTime,
    timeouts: SessionTimeouts,
    /// Peers connected so far: the next one's id.
    connected: usize,
    /// One replay window per simulated peer process: each of the
    /// deployment's measurers in order, then the relay.
    windows: Vec<ReplayWindow>,
}

impl<'a, B: PeerBehaviour> InMemory<'a, B> {
    pub(crate) fn new(deployment: &EchoDeployment, behaviour: &'a mut B) -> Self {
        InMemory {
            behaviour,
            now: SimTime::ZERO,
            timeouts: SessionTimeouts::for_speedup(deployment.speedup),
            connected: 0,
            windows: vec![ReplayWindow::default(); deployment.measurers.len() + 1],
        }
    }
}

/// The peer half of one conversation, and who it is.
pub(crate) struct LocalPeer {
    who: SimPeer,
    talk: PeerConversation<DuplexEnd>,
}

/// A behaviour's hooks for one peer's conversation, claiming in the
/// replay window of the process it stands for.
struct SimHooks<'a, B> {
    behaviour: &'a mut B,
    who: SimPeer,
    window: &'a mut ReplayWindow,
}

impl<B: PeerBehaviour> Hooks for SimHooks<'_, B> {
    fn claim(&mut self, nonce: u64) -> bool {
        self.window.witness(nonce)
    }
    fn act(&mut self, action: MeasurerAction, now: SimTime, _reported: u32) {
        self.behaviour.act(self.who, action, now);
    }
    fn second(&mut self, second: u32) -> Option<(u64, u64)> {
        self.behaviour.second(self.who, second)
    }
}

impl<B: PeerBehaviour> Links for InMemory<'_, B> {
    type Round = Vec<LocalPeer>;

    fn now(&self) -> SimTime {
        self.now
    }

    fn connect(&mut self, round: &mut Vec<LocalPeer>, peer: Dial) -> Box<dyn Transport> {
        let who = SimPeer { id: self.connected, relay_fp: peer.relay_fp, measurer: peer.measurer };
        self.connected += 1;
        let session = MeasurerSession::new(peer.token, peer.role, who.id as u64, self.timeouts);
        let (coord_end, peer_end) = Duplex::new(SimDuration::from_millis(40), 97).into_endpoints();
        round.push(LocalPeer { who, talk: PeerConversation::new(session, peer_end) });
        Box::new(coord_end)
    }

    /// Moves the clock to the earliest of `wake`, the next landing frame,
    /// the next conversation deadline and one `STEP` on, and steps every
    /// peer's conversation.
    fn wait(
        &mut self,
        now: SimTime,
        rounds: &mut [Staged<Vec<LocalPeer>>],
        wake: Option<SimTime>,
    ) -> io::Result<()> {
        let peers = rounds.iter().flat_map(|round| &round.link);
        let due =
            peers.flat_map(|p| [p.talk.endpoint().transport().next_delivery(), p.talk.deadline()]);
        let now = due.flatten().chain(wake).filter(|&at| at > now).fold(now + STEP, SimTime::min);
        self.now = now;
        self.behaviour.advance(now);
        let relay = self.windows.len() - 1;
        for p in rounds.iter_mut().flat_map(|round| &mut round.link) {
            let window = &mut self.windows[p.who.measurer.unwrap_or(relay)];
            let mut hooks = SimHooks { behaviour: &mut *self.behaviour, who: p.who, window };
            p.talk.step(now, true, false, &mut hooks);
        }
        Ok(())
    }
}

/// Runs `source`'s rounds against `deployment`'s peers in memory, as
/// `behaviour` makes them act: [`crate::echo::run_rounds`]' loop on a
/// simulated clock (see the [module docs](self)).
pub fn simulate_rounds(
    deployment: &EchoDeployment,
    behaviour: &mut impl PeerBehaviour,
    source: &mut dyn RoundSource,
) {
    drive(&mut InMemory::new(deployment, behaviour), deployment, source);
}

/// Runs one round of `items` in memory: [`simulate_rounds`] with a
/// source of one round. `emit` sees every engine event, in engine
/// order, as it happens; the round's record is returned.
pub fn run_scripted(
    deployment: &EchoDeployment,
    items: &[EchoItem],
    behaviour: &mut impl PeerBehaviour,
    emit: &mut dyn FnMut(EngineEvent),
) -> EngineSnapshot {
    one_round(items, emit, |one| simulate_rounds(deployment, behaviour, one))
}

/// What a scripted relay's item reports every second of its slot.
#[derive(Debug, Clone, Default)]
pub struct ScriptedRelay {
    /// Echoed bytes per second reported by each of the deployment's
    /// measurers, in order (`x_j` shares); one past the end reports 0.
    pub measured: Vec<u64>,
    /// Background bytes per second the relay reports (`y_j`).
    pub background: u64,
}

/// Fixed-rate peers keyed by relay fingerprint: every second, a peer
/// reports its relay's script. A relay with no script reports zeros.
#[derive(Debug, Default)]
pub struct Scripted {
    relays: HashMap<[u8; FINGERPRINT_LEN], ScriptedRelay>,
}

impl Scripted {
    /// Peers reporting `relays`' scripts.
    pub fn new(relays: impl IntoIterator<Item = ([u8; FINGERPRINT_LEN], ScriptedRelay)>) -> Self {
        Scripted { relays: relays.into_iter().collect() }
    }
}

impl PeerBehaviour for Scripted {
    fn second(&mut self, peer: SimPeer, _: u32) -> Option<(u64, u64)> {
        let relay = self.relays.get(&peer.relay_fp);
        Some(match peer.measurer {
            Some(ix) => (0, relay.and_then(|r| r.measured.get(ix)).copied().unwrap_or(0)),
            None => (relay.map_or(0, |r| r.background), 0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::echo::EchoMeasurer;
    use crate::engine::PeerId;
    use crate::params::Params;
    use flashflow_proto::msg::{AbortReason, TargetEndpoint, AUTH_TOKEN_LEN};

    /// A deployment of `measurers` in-memory measurers and a relay.
    fn deployment(measurers: usize) -> EchoDeployment {
        let measurer = EchoMeasurer {
            addr: ([127, 0, 0, 1], 0).into(),
            token: [0x21; AUTH_TOKEN_LEN],
            rate_cap: 1_000,
            sockets: 1,
        };
        EchoDeployment {
            measurers: vec![measurer; measurers],
            relay: TargetEndpoint::NONE,
            relay_token: [0x29; AUTH_TOKEN_LEN],
            speedup: 1.0,
            ratio: 0.25,
        }
    }

    /// Item `g` of a round: relay `fp(g)`, a `slot_secs` slot.
    fn items(count: usize, slot_secs: u32) -> Vec<EchoItem> {
        (0..count)
            .map(|g| EchoItem {
                relay_fp: fp(g),
                slot_secs,
                bg_allowance: 0,
                measurement_secret: g as u64,
                attempt: 0,
                trace_id: 0,
            })
            .collect()
    }

    fn fp(g: usize) -> [u8; FINGERPRINT_LEN] {
        [g as u8 + 1; FINGERPRINT_LEN]
    }

    /// Runs one round and returns its record with every event.
    fn run(
        deployment: &EchoDeployment,
        items: &[EchoItem],
        behaviour: &mut impl PeerBehaviour,
    ) -> (EngineSnapshot, Vec<EngineEvent>) {
        let mut events = Vec::new();
        let peers = run_scripted(deployment, items, behaviour, &mut |e| events.push(e));
        (peers, events)
    }

    /// Item `g`'s events: its Go, samples and completion.
    fn events_of(events: &[EngineEvent], g: usize) -> Vec<&EngineEvent> {
        events
            .iter()
            .filter(|e| match **e {
                EngineEvent::GoReleased { item, .. }
                | EngineEvent::Sample { item, .. }
                | EngineEvent::ItemComplete { item } => item == g,
                _ => false,
            })
            .collect()
    }

    #[test]
    fn every_item_completes_with_ordered_events_and_its_own_series() {
        const SLOT_SECS: u32 = 3;
        let mut scripted = Scripted::new((0..10).map(|g| {
            let rate = 1_000 * (g as u64 + 1);
            (fp(g), ScriptedRelay { measured: vec![rate], background: rate / 10 })
        }));
        let (peers, events) = run(&deployment(1), &items(10, SLOT_SECS), &mut scripted);
        assert!(peers.all_clean());
        assert_eq!(peers.item_count(), 10);
        for g in 0..10 {
            // Per-item event order: Go before every sample, one
            // ItemComplete at the end.
            let of_g = events_of(&events, g);
            assert!(matches!(of_g.first(), Some(EngineEvent::GoReleased { .. })), "{of_g:?}");
            assert!(matches!(of_g.last(), Some(EngineEvent::ItemComplete { .. })), "{of_g:?}");
            assert_eq!(of_g.len(), 2 + 2 * SLOT_SECS as usize, "item {g}: {of_g:?}");
            let (x, y) = peers.merged_series(g);
            let rate = 1_000.0 * (g as f64 + 1.0);
            assert_eq!(x, vec![rate; SLOT_SECS as usize], "item {g}");
            assert_eq!(y, vec![(rate / 10.0).floor(); SLOT_SECS as usize], "item {g}");
        }
    }

    /// One way across a link.
    const LATENCY: SimDuration = SimDuration::from_millis(40);

    #[test]
    fn go_leaves_four_one_way_latencies_after_staging() {
        // `Auth` out at 0, `AuthOk` back, `MeasureCmd` out, `Ready` back:
        // each frame is answered the instant it lands.
        let mut scripted = Scripted::new((0..3).map(|g| (fp(g), ScriptedRelay::default())));
        let (peers, events) = run(&deployment(2), &items(3, 2), &mut scripted);
        assert!(peers.all_clean());
        let gos: Vec<_> = events
            .iter()
            .filter_map(|e| match *e {
                EngineEvent::GoReleased { at, .. } => Some(at),
                _ => None,
            })
            .collect();
        assert_eq!(gos, vec![SimTime::ZERO + LATENCY * 4; 3], "{events:?}");
    }

    #[test]
    fn a_replayed_opener_is_refused_by_the_peer_that_accepted_it() {
        // Item 1 repeats item 0's secret and attempt, so each of its
        // peers is presented the `Auth` nonce it accepted for item 0.
        let mut items = items(2, 2);
        items[1].measurement_secret = items[0].measurement_secret;
        let mut scripted = Scripted::new((0..2).map(|g| (fp(g), ScriptedRelay::default())));
        let (peers, events) = run(&deployment(2), &items, &mut scripted);
        assert!(peers.item_clean(0), "{events:?}");
        assert!(!peers.item_clean(1), "{events:?}");
        let mut failed: Vec<_> = events
            .iter()
            .filter_map(|e| match *e {
                EngineEvent::PeerFailed { peer, reason } => Some((peer.index(), reason)),
                _ => None,
            })
            .collect();
        failed.sort_by_key(|&(peer, _)| peer);
        // Item 1's measurers and relay are peers 3, 4 and 5.
        assert_eq!(failed, (3..6).map(|p| (p, AbortReason::AuthFailed)).collect::<Vec<_>>());
    }

    /// Fixed-rate peers that record when each peer's `Go` came and when
    /// each of its seconds was asked for.
    #[derive(Default)]
    struct Clocked {
        now: SimTime,
        go: HashMap<usize, SimTime>,
        asked: Vec<(usize, u32, SimTime)>,
    }

    impl PeerBehaviour for Clocked {
        fn advance(&mut self, now: SimTime) {
            self.now = now;
        }
        fn act(&mut self, peer: SimPeer, action: MeasurerAction, now: SimTime) {
            if let MeasurerAction::Start { .. } = action {
                self.go.insert(peer.id, now);
            }
        }
        fn second(&mut self, peer: SimPeer, j: u32) -> Option<(u64, u64)> {
            self.asked.push((peer.id, j, self.now));
            Some((0, 100))
        }
    }

    #[test]
    fn every_peer_reports_second_j_at_its_go_plus_j_plus_one_seconds() {
        const SLOT_SECS: u32 = 4;
        let mut clocked = Clocked::default();
        let (peers, events) = run(&deployment(2), &items(2, SLOT_SECS), &mut clocked);
        assert!(peers.all_clean(), "{events:?}");
        // Every peer's `Go` landed one latency after the engine sent it.
        let sent = SimTime::ZERO + LATENCY * 4;
        assert_eq!(clocked.go, (0..6).map(|id| (id, sent + LATENCY)).collect());
        let due = |j: u32| sent + LATENCY + SimDuration::from_secs(u64::from(j) + 1);
        let want: Vec<_> =
            (0..6).flat_map(|id| (0..SLOT_SECS).map(move |j| (id, j, due(j)))).collect();
        let mut asked = clocked.asked;
        asked.sort();
        assert_eq!(asked, want);
    }

    /// Fixed-rate peers of which peer 0 goes silent after two reported
    /// seconds.
    struct FirstStalls(Scripted);

    impl PeerBehaviour for FirstStalls {
        fn second(&mut self, peer: SimPeer, j: u32) -> Option<(u64, u64)> {
            self.0.second(peer, j).filter(|_| peer.id != 0 || j < 2)
        }
    }

    #[test]
    fn a_stalled_scripted_measurer_degrades_only_its_own_item() {
        const SLOT_SECS: u32 = 3;
        let script = ScriptedRelay { measured: vec![100, 50], background: 30 };
        let scripted = Scripted::new((0..3).map(|g| (fp(g), script.clone())));
        let (peers, events) = run(&deployment(2), &items(3, SLOT_SECS), &mut FirstStalls(scripted));
        let pos = |want: EngineEvent| {
            events
                .iter()
                .position(|e| *e == want)
                .unwrap_or_else(|| panic!("{want:?} missing: {events:?}"))
        };
        // Item 0's first measurer goes silent after two seconds and is
        // aborted by the report timeout; only then does item 0 complete.
        let stalled = pos(EngineEvent::PeerFailed {
            peer: PeerId::from_index(0),
            reason: AbortReason::ReportTimeout,
        });
        assert!(stalled < pos(EngineEvent::ItemComplete { item: 0 }), "{events:?}");
        assert_eq!(
            events.iter().filter(|e| matches!(e, EngineEvent::PeerFailed { .. })).count(),
            1,
            "{events:?}"
        );
        // Its clean measurer and target still merge; the stalled one's two
        // seconds do not.
        assert!(!peers.item_clean(0));
        let rows = peers.rows(0, Params::paper().ratio);
        assert_eq!(rows.iter().filter(|r| r.peer == PeerId::from_index(0)).count(), 2);
        let (x, y) = peers.merged_series(0);
        assert_eq!((x, y), (vec![50.0; 3], vec![30.0; 3]));
        for g in [1, 2] {
            assert!(peers.item_clean(g), "item {g}");
            assert!(pos(EngineEvent::ItemComplete { item: g }) < stalled, "item {g}");
            assert_eq!(events_of(&events, g).len(), 2 + 3 * SLOT_SECS as usize, "item {g}");
            let (x, y) = peers.merged_series(g);
            assert_eq!((x, y), (vec![150.0; 3], vec![30.0; 3]), "item {g}");
        }
    }
}
