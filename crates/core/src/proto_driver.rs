//! The round loop in memory (§4.1, §7): a deployment's peers as
//! sessions at the far end of simulated links.
//!
//! [`crate::echo::run_rounds`] runs rounds against measurer and relay
//! processes over TCP. [`simulate_rounds`] runs the same loop (its
//! staging, `Go` gates, per-attempt nonces, hard deadline and
//! [`RoundSource`]) with every peer in memory: each control session's
//! transport is one end of a [`Duplex`] link (40 ms one way, re-chunked
//! at 97 bytes so every message is reassembled), its far end a
//! [`MeasurerSession`] expecting the deployment's token, and **only**
//! session actions start or stop traffic. Per-second byte counts cross
//! the link as `SecondReport` frames; the estimate is computed from what
//! the frames said, not from shared state. [`run_scripted`] is the
//! one-round case, as [`crate::echo::run_round`] is over sockets.
//!
//! What the peers *do* is the one parameter, a [`PeerBehaviour`].
//! Nothing sleeps: each wait of the loop moves the simulated clock to
//! the behaviour's next tick or the loop's next wake (a `Go` gate, a
//! staging time), whichever is first, so a gate is never overslept, and
//! then steps every peer. A peer that stops reporting is aborted by its
//! session's report timeout, as a silent process is
//! ([`flashflow_proto::session`] has the conversation and its
//! robustness rules). [`Scripted`] is the fixed-rate behaviour keyed by
//! relay fingerprint, the deterministic reference a deployment's
//! numbers are compared against.

use std::collections::HashMap;
use std::io;

use flashflow_proto::endpoint::Endpoint;
use flashflow_proto::msg::FINGERPRINT_LEN;
use flashflow_proto::session::{MeasurerAction, MeasurerSession, SessionTimeouts};
use flashflow_proto::transport::{Duplex, DuplexEnd, Transport};
use flashflow_simnet::time::{SimDuration, SimTime};

use crate::echo::{drive, one_round, Dial, EchoDeployment, EchoItem, Links, RoundSource, Staged};
use crate::engine::{EngineEvent, EngineSnapshot};

/// What the peers of in-memory rounds do: the one parameter of
/// [`simulate_rounds`].
pub trait PeerBehaviour {
    /// The longest the clock moves in one wait of the loop.
    fn tick(&self) -> SimDuration;
    /// Moves the world's traffic to `now`.
    fn advance(&mut self, _now: SimTime) {}
    /// Carries out one of `peer`'s session actions; only these start or
    /// stop traffic.
    fn act(&mut self, peer: SimPeer, action: MeasurerAction, now: SimTime);
    /// Second `j` of `peer`'s slot as `(bg, measured)` bytes, once it has
    /// completed by `now`.
    fn second(&self, peer: SimPeer, j: u32, now: SimTime) -> Option<(u64, u64)>;
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
}

impl<'a, B: PeerBehaviour> InMemory<'a, B> {
    pub(crate) fn new(deployment: &EchoDeployment, behaviour: &'a mut B) -> Self {
        InMemory { behaviour, now: SimTime::ZERO, timeouts: deployment.timeouts(), connected: 0 }
    }
}

/// The peer half of one conversation.
pub(crate) struct LocalPeer {
    who: SimPeer,
    endpoint: Endpoint<MeasurerSession, DuplexEnd>,
    started: bool,
    reported: u32,
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
        let endpoint = Endpoint::new(session, peer_end);
        round.push(LocalPeer { who, endpoint, started: false, reported: 0 });
        Box::new(coord_end)
    }

    /// Moves the clock to the behaviour's next tick or `wake`, whichever
    /// is first, and steps every peer: it reports its completed seconds,
    /// pumps, hands its actions to the behaviour, ticks, and flushes its
    /// answers.
    fn wait(
        &mut self,
        _: SimTime,
        rounds: &mut [Staged<Vec<LocalPeer>>],
        wake: Option<SimTime>,
    ) -> io::Result<()> {
        let tick = self.now + self.behaviour.tick();
        let now = wake.map_or(tick, |wake| wake.min(tick));
        self.now = now;
        self.behaviour.advance(now);
        let behaviour = &mut *self.behaviour;
        for p in rounds.iter_mut().flat_map(|round| &mut round.link) {
            while p.started && !p.endpoint.is_terminal() {
                let Some((bg, measured)) = behaviour.second(p.who, p.reported, now) else { break };
                p.endpoint.session_mut().report_second(bg, measured);
                p.reported += 1;
            }
            p.endpoint.pump(now);
            while let Some(action) = p.endpoint.session_mut().poll_action() {
                p.started |= matches!(action, MeasurerAction::Start { .. });
                behaviour.act(p.who, action, now);
            }
            // A peer mid-handshake whose coordinator went silent gives up.
            p.endpoint.tick(now);
            p.endpoint.flush(now);
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

/// Fixed-rate peers keyed by relay fingerprint, on a clock of 100 ms
/// per tick: a peer reports its relay's script for every whole second
/// of its slot that has passed. A relay with no script reports zeros.
#[derive(Debug, Default)]
pub struct Scripted {
    relays: HashMap<[u8; FINGERPRINT_LEN], ScriptedRelay>,
    /// When each started peer's slot started, by id.
    started: HashMap<usize, SimTime>,
}

impl Scripted {
    /// Peers reporting `relays`' scripts.
    pub fn new(relays: impl IntoIterator<Item = ([u8; FINGERPRINT_LEN], ScriptedRelay)>) -> Self {
        Scripted { relays: relays.into_iter().collect(), started: HashMap::new() }
    }
}

impl PeerBehaviour for Scripted {
    fn tick(&self) -> SimDuration {
        SimDuration::from_millis(100)
    }

    fn act(&mut self, peer: SimPeer, action: MeasurerAction, now: SimTime) {
        if let MeasurerAction::Start { .. } = action {
            self.started.insert(peer.id, now);
        }
    }

    fn second(&self, peer: SimPeer, j: u32, now: SimTime) -> Option<(u64, u64)> {
        let elapsed = now.duration_since(*self.started.get(&peer.id)?).as_secs();
        let relay = self.relays.get(&peer.relay_fp);
        let report = match peer.measurer {
            Some(ix) => (0, relay.and_then(|r| r.measured.get(ix)).copied().unwrap_or(0)),
            None => (relay.map_or(0, |r| r.background), 0),
        };
        (u64::from(j) < elapsed).then_some(report)
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

    /// Fixed-rate peers of which peer 0 goes silent after two reported
    /// seconds.
    struct FirstStalls(Scripted);

    impl PeerBehaviour for FirstStalls {
        fn tick(&self) -> SimDuration {
            self.0.tick()
        }
        fn act(&mut self, peer: SimPeer, action: MeasurerAction, now: SimTime) {
            self.0.act(peer, action, now);
        }
        fn second(&self, peer: SimPeer, j: u32, now: SimTime) -> Option<(u64, u64)> {
            self.0.second(peer, j, now).filter(|_| peer.id != 0 || j < 2)
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
