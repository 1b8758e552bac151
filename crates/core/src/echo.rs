//! Coordinator-side wiring for the **target-relay echo topology**: the
//! paper's deployment shape, where the coordinator commands *k*
//! measurer processes and one `flashflow-relay` process, the measurers
//! blast the relay's data listener directly, and the relay sends their
//! verified frames back while admitting (capped) client traffic
//! alongside.
//!
//! The control plane is one [`CoordinatorSession`] per peer over pooled
//! TCP connections; the coordinator moves **no measurement bytes of its
//! own**: they flow measurer → relay → measurer, and the coordinator's
//! cross-checks are structural. Each `MeasureCmd`
//! carries the relay's data endpoint and a per-item measurement secret;
//! measurers derive the public hello binding nonce and the secret frame
//! tag key from it, the relay accepts exactly that nonce, and the
//! round's [`EngineSnapshot`] pairs the relay's echo claim against the
//! k measurers' aggregated reports (plus the background-plausibility
//! bound) — see [`EngineSnapshot::rows`].
//!
//! [`run_rounds`] is the one driving loop. Every item of a round is an
//! item of a single [`MeasurementEngine`], so a round's items run
//! concurrently by construction, and the loop keeps **two rounds in
//! flight** on the calling thread:
//!
//! * Once round n's `Go` is out (and round n−1 has ended), the loop asks
//!   its [`RoundSource`] for round n+1. It checks that round's
//!   connections out and runs its handshakes to `Armed` while round n
//!   blasts.
//! * Round n+1's engine holds its `Go` barrier until round n's last
//!   `Go` plus one slot ([`EngineBuilder::go_not_before`]), and releases
//!   it in the first step after that. Slots follow each other back to
//!   back, and handshakes, report lag, the estimate and the caller's
//!   journal writes overlap the slot before.
//! * Staging starts no earlier than round n's slot end minus half the
//!   session handshake timeout, so an armed session never waits for its
//!   `Go` longer than its own timeout allows.
//!
//! The loop is written once over its link layer: how a peer is
//! connected, what time it is, and how the loop waits between steps.
//! Over sockets it waits in `epoll_pwait2` on one set holding both
//! rounds' control sockets, at most a millisecond and less when a `Go`
//! gate or a staging time falls due sooner: a peer's frame is answered
//! when it lands, and the loop sleeps up to a gate rather than polling.
//! Dials never block (see [`crate::pool`]); a dial that is refused or
//! never answered degrades only its own item, and a failed socket set
//! aborts only the rounds in flight. [`crate::proto_driver`] runs the
//! same loop on in-memory links and a simulated clock.
//!
//! A source may have no round when asked and one once a round ends (a
//! re-measurement planned from the results), so the loop asks again
//! after every round it finishes. [`run_round`] is the one-round case.
//! Either way a round's record is the [`EngineSnapshot`] it ends with,
//! and [`crate::observe::RoundSpans`] mirrors its events and audit onto
//! telemetry.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use flashflow_procutil::reactor::{Event, Interest, Poller};
use flashflow_proto::msg::{
    AbortReason, MeasureSpec, PeerRole, TargetEndpoint, AUTH_TOKEN_LEN, FINGERPRINT_LEN,
};
use flashflow_proto::session::{CoordPhase, CoordinatorSession, SessionTimeouts};
use flashflow_proto::transport::{Duplex, Transport};
use flashflow_simnet::time::{SimDuration, SimTime};

use crate::engine::{EngineBuilder, EngineEvent, EngineSnapshot, MeasurementEngine};
use crate::pool::{ChannelKind, ConnectionPool, ReuseHandle};

/// One measurer process the deployment commands.
#[derive(Debug, Clone, Copy)]
pub struct EchoMeasurer {
    /// The process's control listener.
    pub addr: SocketAddr,
    /// Its pre-shared control token.
    pub token: [u8; AUTH_TOKEN_LEN],
    /// The blast allocation `a_i` commanded of it (bytes/second).
    pub rate_cap: u64,
    /// Echo sockets it opens to the relay (its `s/m` share).
    pub sockets: u32,
}

/// The processes one echo-topology period runs against: k measurers and
/// the target relay, plus the clock/trust knobs shared by every item.
#[derive(Debug, Clone)]
pub struct EchoDeployment {
    /// The measurer processes.
    pub measurers: Vec<EchoMeasurer>,
    /// The relay process's listener (control *and* echo data: the
    /// relay classifies connections by first byte, like the measurer),
    /// in the IPv4-only form every measurer's `MeasureCmd` carries it.
    pub relay: TargetEndpoint,
    /// The relay's pre-shared control token.
    pub relay_token: [u8; AUTH_TOKEN_LEN],
    /// Clock multiplier both sides run (a "second" is `1/speedup` wall
    /// seconds); must match the processes' `--speedup`.
    pub speedup: f64,
    /// Background ratio `r` (estimate clamp + plausibility bound).
    pub ratio: f64,
}

impl EchoDeployment {
    /// The relay's listener as a dialable address.
    fn relay_addr(&self) -> SocketAddr {
        SocketAddr::from((self.relay.ip, self.relay.port))
    }
}

/// One measurement item of an echo period.
#[derive(Debug, Clone, Copy)]
pub struct EchoItem {
    /// The target relay's fingerprint (identifies the item in the
    /// period file).
    pub relay_fp: [u8; FINGERPRINT_LEN],
    /// Slot length in whole (sped-up) seconds.
    pub slot_secs: u32,
    /// Background allowance commanded of the relay (bytes/second);
    /// `0` leaves it uncapped.
    pub bg_allowance: u64,
    /// The item's measurement secret: fresh and unpredictable, caller
    /// supplied (the coordinator owns randomness). Every peer of the
    /// item receives it in its `MeasureCmd`; the echo channels derive
    /// their binding nonce and frame-tag key from it.
    pub measurement_secret: u64,
    /// Which attempt at this item this is. `0` is a fresh measurement;
    /// attempt `n > 0` means an earlier attempt was commanded and did
    /// not complete. Each attempt derives its own nonces (see
    /// `peer_nonce`), so re-running never replays.
    pub attempt: u32,
    /// The item-attempt's correlation key, carried in every peer's
    /// `MeasureCmd` so coordinator, measurer, and relay
    /// telemetry join on it — see [`MeasureSpec::trace_id`]. Derived
    /// deterministically per attempt (see [`item_trace_id`]) so a
    /// restarted coordinator re-mints the same id from its journal.
    pub trace_id: u64,
}

/// The correlation key for one attempt at an echo item, derived from
/// the item's journaled measurement secret like `peer_nonce` — same
/// journal replay, same trace id — but over a disjoint constant so a
/// trace id can never collide with (or leak) a handshake nonce. Public
/// by design: it appears in every peer's telemetry.
pub fn item_trace_id(secret: u64, attempt: u32) -> u64 {
    // A fixed-key xorshift mix of (secret, attempt): one-way enough
    // that the public trace id does not reveal the secret, cheap enough
    // to be dependency-free, and stable across restarts.
    let mut x = secret ^ 0x7ACE_1D00_0000_0000u64.rotate_left(attempt % 61);
    x ^= u64::from(attempt) << 1;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

/// The control-session handshake nonce for one peer of one attempt at
/// an echo item, derived deterministically from the item's journaled
/// measurement secret. Attempt `n` re-derives attempt `n`'s nonces
/// bit-for-bit, and a peer that witnessed them would correctly reject
/// the replay; so a restarted coordinator re-commands an in-flight item
/// as attempt `n+1`, whose plain `Auth` nonces no peer has seen. Peer
/// index `0` is the target relay; measurer `ix` uses `ix + 1`. The
/// attempt number occupies high bits so attempts never collide with
/// peer indices.
fn peer_nonce(secret: u64, peer_ix: u32, attempt: u32) -> u64 {
    secret ^ (0xEC40_0000 + u64::from(peer_ix)) ^ (u64::from(attempt) << 32)
}

/// One peer the round loop connects: where it listens, the token it
/// expects, and which conversation of its item it is.
pub(crate) struct Dial {
    pub(crate) addr: SocketAddr,
    pub(crate) token: [u8; AUTH_TOKEN_LEN],
    pub(crate) role: PeerRole,
    pub(crate) relay_fp: [u8; FINGERPRINT_LEN],
    /// Which of the deployment's measurers it is; `None` for the relay.
    pub(crate) measurer: Option<usize>,
}

/// Adds one echo item to `builder` as engine item `g`: control sessions
/// to every measurer and then the relay (always the item's last peer),
/// each over a transport `links` connects into `link`, specs carrying
/// the relay's data endpoint and the item's measurement secret.
fn add_item<L: Links>(
    builder: &mut EngineBuilder,
    g: usize,
    deployment: &EchoDeployment,
    item: &EchoItem,
    links: &mut L,
    link: &mut L::Round,
) {
    let timeouts = SessionTimeouts::for_speedup(deployment.speedup);
    let mut add = |peer_ix: u32, addr, token, role, spec| {
        let measurer = (peer_ix as usize).checked_sub(1);
        let conn =
            links.connect(link, Dial { addr, token, role, relay_fp: item.relay_fp, measurer });
        let nonce = peer_nonce(item.measurement_secret, peer_ix, item.attempt);
        builder.add_peer(g, CoordinatorSession::new(token, role, spec, nonce, timeouts), conn);
    };
    for (ix, m) in deployment.measurers.iter().enumerate() {
        let spec = MeasureSpec {
            relay_fp: item.relay_fp,
            slot_secs: item.slot_secs,
            sockets: m.sockets,
            rate_cap: m.rate_cap,
            target: deployment.relay,
            measurement_secret: item.measurement_secret,
            trace_id: item.trace_id,
        };
        add(ix as u32 + 1, m.addr, m.token, PeerRole::Measurer, spec);
    }
    // The relay's reporting session: its "rate cap" is the background
    // allowance for the window.
    let spec = MeasureSpec {
        relay_fp: item.relay_fp,
        slot_secs: item.slot_secs,
        sockets: 0,
        rate_cap: item.bg_allowance,
        target: TargetEndpoint::NONE,
        measurement_secret: item.measurement_secret,
        trace_id: item.trace_id,
    };
    add(0, deployment.relay_addr(), deployment.relay_token, PeerRole::Target, spec);
}

/// Longest the round loop blocks between engine steps. Session
/// timeouts and the hard deadline are checked at every step, so this
/// is how late either can fire.
const STEP_WAIT: Duration = Duration::from_millis(1);

/// The rounds [`run_rounds`] runs, handed over one at a time, and what
/// becomes of each.
pub trait RoundSource {
    /// The next round's items. Asked for only when the loop could stage
    /// that round, so a source can plan it from how the earlier rounds
    /// went. `None` means no round for now: the loop asks again after
    /// each round it finishes, and ends once no round is in flight and
    /// the source still has none.
    fn next_round(&mut self) -> Option<Vec<EchoItem>>;

    /// One engine event of round `round`, as it happens. Rounds are
    /// numbered from 0 in the order they were staged.
    fn event(&mut self, round: usize, event: EngineEvent);

    /// Round `round` ended: every conversation is terminal and the clean
    /// ones' connections are back in the pool. `peers` is the round's
    /// record.
    fn finished(&mut self, round: usize, peers: EngineSnapshot);
}

/// The world the round loop's peers live in: its clock, how a peer is
/// connected, and how the loop waits between steps. [`drive`] is the
/// same loop over [`Sockets`] and over `proto_driver`'s in-memory links.
pub(crate) trait Links {
    /// What the links keep of one round's peers.
    type Round: Default;
    /// The loop's clock.
    fn now(&self) -> SimTime;
    /// A control transport to `peer`, kept track of in `round`.
    fn connect(&mut self, round: &mut Self::Round, peer: Dial) -> Box<dyn Transport>;
    /// Round `round`'s engine is built over `link`'s transports.
    fn watch(&mut self, _round: usize, _link: &mut Self::Round, _engine: &mut MeasurementEngine) {}
    /// Waits for the peers of `rounds` until `wake` at the latest (the
    /// next `Go` gate or staging time after `now`, if any). An error
    /// aborts every round in flight.
    fn wait(
        &mut self,
        now: SimTime,
        rounds: &mut [Staged<Self::Round>],
        wake: Option<SimTime>,
    ) -> io::Result<()>;
    /// A round ended; `engine` is its last state.
    fn release(&mut self, _link: Self::Round, _engine: &MeasurementEngine) {}
}

/// Socket links: control connections checked out of a pool, every
/// round's sockets in one `epoll` set, and the wall clock times the
/// deployment's speedup.
struct Sockets<'a> {
    pool: &'a ConnectionPool,
    /// Made when a round is staged with none; dropped when a wait fails.
    poller: Option<Poller>,
    ready: Vec<Event>,
    t0: Instant,
    speedup: f64,
}

/// What [`Sockets`] keeps of one round's peers.
#[derive(Default)]
struct SocketRound {
    /// Per peer, the grant that approves reuse (`None` for a degraded
    /// stand-in).
    reuse: Vec<Option<ReuseHandle>>,
    /// Per peer, the socket still watched, and whether it is armed for
    /// write readiness.
    watched: Vec<Option<(i32, bool)>>,
}

/// The poller token of peer `peer` of round `round`.
fn token(round: usize, peer: usize) -> u64 {
    ((round as u64) << 32) | peer as u64
}

impl Links for Sockets<'_> {
    type Round = SocketRound;

    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.t0.elapsed().as_secs_f64() * self.speedup)
    }

    /// A checked-out connection, or the degraded stand-in for a peer
    /// that could not be dialed: a pre-closed in-memory end, so the
    /// session fails with `ConnectionLost` on its first send and the item
    /// *degrades* (that peer's samples quarantined, everyone else's kept)
    /// instead of panicking the coordinator and killing the whole period.
    fn connect(&mut self, round: &mut SocketRound, peer: Dial) -> Box<dyn Transport> {
        match self.pool.checkout(peer.addr, ChannelKind::Control) {
            Ok(conn) => {
                round.reuse.push(Some(conn.reuse_handle()));
                round.watched.push(Some((conn.raw_fd(), false)));
                Box::new(conn)
            }
            Err(e) => {
                eprintln!("echo item: dialing {} failed ({e}); peer degraded", peer.addr);
                round.reuse.push(None);
                round.watched.push(None);
                let (a, mut b) = Duplex::loopback().into_endpoints();
                b.close();
                Box::new(a)
            }
        }
    }

    /// Watches the round's sockets, making the set if there is none
    /// (every round in flight without one was aborted). A round that
    /// cannot watch its sockets aborts every session rather than step
    /// blind.
    fn watch(&mut self, round: usize, link: &mut SocketRound, engine: &mut MeasurementEngine) {
        if self.poller.is_none() {
            self.poller = Poller::new()
                .map_err(|e| eprintln!("echo rounds: cannot watch the peer sockets ({e})"))
                .ok();
        }
        let Some(poller) = &self.poller else {
            link.watched.fill(None);
            return engine.abort_all(AbortReason::Shutdown);
        };
        for peer in 0..link.watched.len() {
            let Some((fd, _)) = link.watched[peer] else { continue };
            if let Err(e) = poller.register(fd, token(round, peer), Interest::READ) {
                eprintln!("echo round: cannot watch the peer sockets ({e}); round aborted");
                link.watched[peer..].fill(None);
                return engine.abort_all(AbortReason::Shutdown);
            }
        }
    }

    /// Re-arms every round's sockets, then waits in `epoll_pwait2` for
    /// at most [`STEP_WAIT`], less if `wake` falls due sooner. A failed
    /// wait drops the set; the next round staged makes a fresh one.
    fn wait(
        &mut self,
        now: SimTime,
        rounds: &mut [Staged<SocketRound>],
        wake: Option<SimTime>,
    ) -> io::Result<()> {
        let Some(poller) = &self.poller else { return Ok(()) };
        let timeout = wake.map_or(STEP_WAIT, |at| {
            STEP_WAIT.min(Duration::from_secs_f64((at - now).as_secs_f64() / self.speedup))
        });
        let waited = rounds
            .iter_mut()
            .try_for_each(|round| round.rearm(poller))
            .and_then(|()| poller.wait(&mut self.ready, timeout));
        if waited.is_err() {
            rounds.iter_mut().for_each(|round| round.link.watched.fill(None));
            self.poller = None;
        }
        waited
    }

    /// Stops watching the round's sockets and parks what ended cleanly
    /// (everything else really closes when the engine drops).
    fn release(&mut self, link: SocketRound, engine: &MeasurementEngine) {
        if let Some(poller) = &self.poller {
            for &(fd, _) in link.watched.iter().flatten() {
                let _ = poller.deregister(fd);
            }
        }
        for (peer, handle) in engine.peers().zip(&link.reuse) {
            if let Some(handle) = handle {
                if engine.phase(peer) == CoordPhase::Done {
                    handle.approve();
                }
            }
        }
    }
}

/// One staged round: its engine, what its links keep of its peers, and
/// what the loop tracks of it.
pub(crate) struct Staged<R> {
    /// Staging order: what the source's callbacks name the round by.
    round: usize,
    engine: MeasurementEngine,
    pub(crate) link: R,
    /// One slot on the loop's clock: the longest of its items'.
    slot: SimDuration,
    /// No `Go` of this round leaves before this.
    gate: Option<SimTime>,
    /// Per item: its `Go` is out, or it ended without one.
    settled: Vec<bool>,
    /// The latest `Go` this round released.
    last_go: Option<SimTime>,
}

impl<R> Staged<R> {
    /// Builds round `round`'s engine at `now` (queueing every `Auth`)
    /// over peers `links` connects, and has the links watch them.
    fn stage<L: Links<Round = R>>(
        links: &mut L,
        deployment: &EchoDeployment,
        round: usize,
        items: &[EchoItem],
        now: SimTime,
        gate: Option<SimTime>,
    ) -> Staged<R>
    where
        R: Default,
    {
        let mut builder = MeasurementEngine::builder();
        let mut link = R::default();
        for (g, item) in items.iter().enumerate() {
            add_item(&mut builder, g, deployment, item, links, &mut link);
        }
        let slot = items.iter().map(|item| item.slot_secs).max().unwrap_or(0);
        let slot = SimDuration::from_secs(u64::from(slot));
        // 60 wall seconds past the slot's end: far beyond the handshake
        // and the report lag.
        let margin = SimDuration::from_secs_f64(60.0 * deployment.speedup.max(1.0));
        builder = builder.hard_deadline(hard_deadline(now, gate, slot, margin));
        if let Some(gate) = gate {
            builder = builder.go_not_before(gate);
        }
        let mut engine = builder.build(now);
        links.watch(round, &mut link, &mut engine);
        Staged { round, engine, link, slot, gate, settled: vec![false; items.len()], last_go: None }
    }

    /// One engine step at `now`, its events handed to `source`.
    fn step(&mut self, now: SimTime, source: &mut dyn RoundSource) {
        self.engine.step(now);
        while let Some(event) = self.engine.poll_event() {
            match event {
                EngineEvent::GoReleased { item, at } => {
                    self.settled[item] = true;
                    self.last_go = self.last_go.max(Some(at));
                }
                EngineEvent::ItemComplete { item } => self.settled[item] = true,
                _ => {}
            }
            source.event(self.round, event);
        }
    }

    /// When the round after this one may be staged: once every `Go` of
    /// this round is out, and no earlier than its slot end minus `lead`.
    fn next_stage_at(&self, lead: SimDuration) -> Option<SimTime> {
        if !self.settled.iter().all(|&settled| settled) {
            return None;
        }
        Some(self.last_go.map_or(SimTime::ZERO, |go| go + self.slot - lead))
    }

    /// Ends a finished round: its links let its peers go, and its record
    /// goes to `source`.
    fn finish<L: Links<Round = R>>(self, links: &mut L, source: &mut dyn RoundSource) {
        let Staged { round, engine, link, .. } = self;
        links.release(link, &engine);
        let peers = engine.snapshot();
        drop(engine);
        source.finished(round, peers);
    }
}

impl Staged<SocketRound> {
    /// Drops the sockets of terminal sessions from the poller — a
    /// terminal endpoint no longer reads, so a socket its peer hung up on
    /// would stay readable and spin the loop — and arms the others for
    /// write readiness exactly while their transport holds a backlog: a
    /// connecting socket's queued `Auth`, or send-buffer backpressure.
    fn rearm(&mut self, poller: &Poller) -> io::Result<()> {
        for (peer, watched) in self.engine.peers().zip(&mut self.link.watched) {
            let Some((fd, writable)) = *watched else { continue };
            if matches!(self.engine.phase(peer), CoordPhase::Done | CoordPhase::Failed) {
                *watched = None;
                // The socket stays open until the engine drops it, so
                // this cannot fail on a stale fd.
                let _ = poller.deregister(fd);
                continue;
            }
            let backlog = self.engine.backlog(peer) > 0;
            if backlog != writable {
                let interest = Interest { readable: true, writable: backlog };
                poller.modify(fd, token(self.round, peer.index()), interest)?;
                *watched = Some((fd, backlog));
            }
        }
        Ok(())
    }
}

/// The hard deadline of a round staged at `now` whose `Go`s leave no
/// earlier than `gate`: `margin` past the end of its `slot`, which
/// starts at the gate or, with none (or one already past), now. A slot
/// longer than the margin must still get to run.
fn hard_deadline(
    now: SimTime,
    gate: Option<SimTime>,
    slot: SimDuration,
    margin: SimDuration,
) -> SimTime {
    gate.map_or(now, |gate| gate.max(now)) + slot + margin
}

/// True if the loop may stage another round now: none is in flight, or
/// the one in flight has every `Go` out and is close enough to its slot
/// end. Never more than two rounds at once.
fn may_stage<R>(rounds: &[Staged<R>], now: SimTime, lead: SimDuration) -> bool {
    match rounds {
        [] => true,
        [running] => running.next_stage_at(lead).is_some_and(|at| now >= at),
        _ => false,
    }
}

/// The round loop over `links`: [`run_rounds`] over sockets, and
/// `proto_driver`'s in-memory rounds.
pub(crate) fn drive<L: Links>(
    links: &mut L,
    deployment: &EchoDeployment,
    source: &mut dyn RoundSource,
) {
    let lead = SessionTimeouts::for_speedup(deployment.speedup).handshake / 2;
    let mut rounds: Vec<Staged<L::Round>> = Vec::with_capacity(2);
    let mut staged = 0;
    // The source had no round when last asked; a round ending may give
    // it one (a re-measurement), so every finished round clears this.
    let mut exhausted = false;
    loop {
        let now = links.now();
        // Newest first: at a gate, the staged round's `Go` leaves before
        // the running round's tail is read.
        for round in rounds.iter_mut().rev() {
            round.step(now, source);
        }
        let (done, running): (Vec<_>, Vec<_>) =
            rounds.into_iter().partition(|round| round.engine.is_finished());
        rounds = running;
        for round in done {
            round.finish(links, source);
            exhausted = false;
        }
        if !exhausted && may_stage(&rounds, now, lead) {
            match source.next_round() {
                Some(items) => {
                    // The slot clock: the new round starts its slot when
                    // the running one's ends.
                    let gate = rounds.first().and_then(|r| r.last_go.map(|go| go + r.slot));
                    rounds.push(Staged::stage(links, deployment, staged, &items, now, gate));
                    staged += 1;
                    // Step at once: the new round's `Auth`s go out now.
                    continue;
                }
                None => exhausted = true,
            }
        }
        if rounds.is_empty() {
            break;
        }
        // Wake for the next frame, a `Go` gate, or the next staging.
        let staging = match (&rounds[..], exhausted) {
            ([running], false) => running.next_stage_at(lead),
            _ => None,
        };
        let wake = rounds.iter().filter_map(|r| r.gate).chain(staging).filter(|&at| at > now).min();
        if let Err(e) = links.wait(now, &mut rounds, wake) {
            eprintln!("echo rounds: waiting on the peer sockets failed ({e}); rounds aborted");
            rounds.iter_mut().for_each(|round| round.engine.abort_all(AbortReason::Shutdown));
        }
    }
}

/// Runs `source`'s rounds against `deployment` on the calling thread,
/// two in flight at a time (see the [module docs](self)), until no round
/// is in flight and the source has no more. Each round is
/// one engine whose item `g` is the round's `items[g]` (peers numbered
/// item by item, each item's k measurers then its relay), stepped on the
/// deployment's sped-up clock; `source` sees every event as it happens
/// and every round as it ends. Sessions that ended cleanly park their
/// connections back in `pool`; everything else really closes.
///
/// If the socket set cannot be built, or a wait on it fails, the rounds
/// in flight abort (`Shutdown`) rather than step blind; the next round
/// staged builds a fresh set.
pub fn run_rounds(
    deployment: &EchoDeployment,
    pool: &ConnectionPool,
    source: &mut dyn RoundSource,
) {
    let speedup = deployment.speedup;
    let mut sockets =
        Sockets { pool, poller: None, ready: Vec::new(), t0: Instant::now(), speedup };
    drive(&mut sockets, deployment, source);
}

/// One round of `items`, run by `run` as a source of one round. `emit`
/// sees every engine event, in engine order, as it happens; the round's
/// record is returned.
pub(crate) fn one_round(
    items: &[EchoItem],
    emit: &mut dyn FnMut(EngineEvent),
    run: impl FnOnce(&mut dyn RoundSource),
) -> EngineSnapshot {
    struct One<'a> {
        items: Option<Vec<EchoItem>>,
        emit: &'a mut dyn FnMut(EngineEvent),
        peers: Option<EngineSnapshot>,
    }
    impl RoundSource for One<'_> {
        fn next_round(&mut self) -> Option<Vec<EchoItem>> {
            self.items.take()
        }
        fn event(&mut self, _: usize, event: EngineEvent) {
            (self.emit)(event);
        }
        fn finished(&mut self, _: usize, peers: EngineSnapshot) {
            self.peers = Some(peers);
        }
    }
    let mut one = One { items: Some(items.to_vec()), emit, peers: None };
    run(&mut one);
    one.peers.expect("the loop stages its first round and runs it to the end")
}

/// Runs one round of echo items to completion on the calling thread:
/// [`run_rounds`] with a source of one round. `emit` sees every engine
/// event, in engine order, as it happens. The returned snapshot is the
/// round's record, detached so the engine could be dropped (which is
/// what hands the clean connections back to `pool`).
pub fn run_round(
    deployment: &EchoDeployment,
    items: &[EchoItem],
    pool: &ConnectionPool,
    emit: &mut dyn FnMut(EngineEvent),
) -> EngineSnapshot {
    one_round(items, emit, |one| run_rounds(deployment, pool, one))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    use flashflow_proto::fault::{FaultMode, FaultyTransport};

    use crate::proto_driver::{simulate_rounds, InMemory, Scripted, ScriptedRelay};

    const TOKEN: [u8; AUTH_TOKEN_LEN] = [0x5A; AUTH_TOKEN_LEN];
    const SPEEDUP: f64 = 20.0;
    const SLOT_SECS: u32 = 4;
    const FP: [u8; FINGERPRINT_LEN] = [1; FINGERPRINT_LEN];

    /// A deployment of one measurer and the relay, both in memory.
    fn deployment() -> EchoDeployment {
        let addr = SocketAddr::from(([127, 0, 0, 1], 0));
        let measurer = EchoMeasurer { addr, token: TOKEN, rate_cap: 1_000, sockets: 1 };
        EchoDeployment {
            measurers: vec![measurer],
            relay: TargetEndpoint::NONE,
            relay_token: TOKEN,
            speedup: SPEEDUP,
            ratio: 0.25,
        }
    }

    /// Peers reporting 1,000 measured bytes and no background a second.
    fn scripted() -> Scripted {
        Scripted::new([(FP, ScriptedRelay { measured: vec![1_000], background: 0 })])
    }

    fn item(secret: u64) -> EchoItem {
        EchoItem {
            relay_fp: FP,
            slot_secs: SLOT_SECS,
            bg_allowance: 0,
            measurement_secret: secret,
            attempt: 0,
            trace_id: secret,
        }
    }

    /// Hands its rounds out in order and records every event, and when
    /// `clock` said it came. `later` is a round it has only once round 0
    /// has finished, the way a re-measurement is planned from a round's
    /// results.
    #[derive(Default)]
    struct Recorder {
        rounds: Vec<Vec<EchoItem>>,
        later: Option<Vec<EchoItem>>,
        staged: usize,
        events: Vec<(usize, EngineEvent)>,
        clock: Rc<Cell<SimTime>>,
        at: Vec<SimTime>,
        clean: BTreeMap<usize, bool>,
        /// §4.1's estimate of every item, in the order the rounds ended.
        estimates: Vec<f64>,
        /// The most rounds staged and not yet finished at once.
        most_in_flight: usize,
    }

    impl Recorder {
        fn new(rounds: Vec<Vec<EchoItem>>) -> Recorder {
            Recorder { rounds, ..Recorder::default() }
        }
    }

    impl RoundSource for Recorder {
        fn next_round(&mut self) -> Option<Vec<EchoItem>> {
            let round = self.rounds.get(self.staged).cloned();
            self.staged += usize::from(round.is_some());
            self.most_in_flight = self.most_in_flight.max(self.staged - self.clean.len());
            round
        }
        fn event(&mut self, round: usize, event: EngineEvent) {
            self.events.push((round, event));
            self.at.push(self.clock.get());
        }
        fn finished(&mut self, round: usize, peers: EngineSnapshot) {
            self.clean.insert(round, peers.all_clean());
            let estimates = (0..peers.item_count()).map(|g| peers.estimate(g, 0.25).1);
            self.estimates.extend(estimates.map(|estimate| estimate.bytes_per_sec()));
            if round == 0 {
                self.rounds.extend(self.later.take());
            }
        }
    }

    #[test]
    fn a_round_the_source_gains_when_the_last_round_ends_still_runs() {
        // The source has nothing more while round 0 blasts (its `Go` is
        // out, so the loop asks), and a re-measurement once it has ended.
        let mut source = Recorder::new(vec![vec![item(100)]]);
        source.later = Some(vec![item(200)]);
        simulate_rounds(&deployment(), &mut scripted(), &mut source);
        assert_eq!(source.clean, BTreeMap::from([(0, true), (1, true)]), "{:?}", source.events);
    }

    /// Links whose first wait fails.
    struct FailFirstWait<L>(L, bool);

    impl<L: Links> Links for FailFirstWait<L> {
        type Round = L::Round;
        fn now(&self) -> SimTime {
            self.0.now()
        }
        fn connect(&mut self, round: &mut L::Round, peer: Dial) -> Box<dyn Transport> {
            self.0.connect(round, peer)
        }
        fn wait(
            &mut self,
            now: SimTime,
            rounds: &mut [Staged<L::Round>],
            wake: Option<SimTime>,
        ) -> io::Result<()> {
            if std::mem::take(&mut self.1) {
                return Err(io::Error::other("injected wait failure"));
            }
            self.0.wait(now, rounds, wake)
        }
    }

    #[test]
    fn a_failed_wait_aborts_only_the_rounds_in_flight() {
        let deployment = deployment();
        let mut source = Recorder::new((0..3).map(|n| vec![item(100 + n)]).collect());
        let mut behaviour = scripted();
        // The first wait comes while round 0 handshakes, alone in flight.
        let mut links = FailFirstWait(InMemory::new(&deployment, &mut behaviour), true);
        drive(&mut links, &deployment, &mut source);
        let clean = BTreeMap::from([(0, false), (1, true), (2, true)]);
        assert_eq!(source.clean, clean, "{:?}", source.events);
        let aborted = |e: &EngineEvent| {
            matches!(e, EngineEvent::PeerFailed { reason: AbortReason::Shutdown, .. })
        };
        assert!(source.events.iter().any(|(r, e)| *r == 0 && aborted(e)), "{:?}", source.events);
    }

    /// Links whose dial to measurer 1 in round 1 (its third) is
    /// refused at once (`Disconnect`) or never answered (`Blackhole`),
    /// per `fault`; `clock` follows the loop's.
    struct BadDial<L> {
        links: L,
        fault: Option<FaultMode>,
        dials: usize,
        clock: Rc<Cell<SimTime>>,
    }

    impl<L: Links> Links for BadDial<L> {
        type Round = L::Round;
        fn now(&self) -> SimTime {
            self.clock.set(self.links.now());
            self.clock.get()
        }
        fn connect(&mut self, round: &mut L::Round, peer: Dial) -> Box<dyn Transport> {
            let measurer_1 = peer.measurer == Some(1);
            let conn = self.links.connect(round, peer);
            self.dials += usize::from(measurer_1);
            match self.fault {
                Some(mode) if measurer_1 && self.dials == 3 => {
                    let mut faulty = FaultyTransport::new(conn, mode);
                    faulty.trip();
                    Box::new(faulty)
                }
                _ => conn,
            }
        }
        fn wait(
            &mut self,
            now: SimTime,
            rounds: &mut [Staged<L::Round>],
            wake: Option<SimTime>,
        ) -> io::Result<()> {
            self.links.wait(now, rounds, wake)
        }
    }

    /// Every `PeerDone` of round 0, as time since its last `Go`.
    fn done_lags(source: &Recorder) -> Vec<SimDuration> {
        let of_round_0 = || source.events.iter().zip(&source.at).filter(|((r, _), _)| *r == 0);
        let go = of_round_0()
            .filter_map(|((_, e), _)| match e {
                EngineEvent::GoReleased { at, .. } => Some(*at),
                _ => None,
            })
            .max()
            .expect("round 0 went");
        let done = of_round_0().filter(|((_, e), _)| matches!(e, EngineEvent::PeerDone { .. }));
        done.map(|(_, at)| *at - go).collect()
    }

    #[test]
    fn a_staged_round_that_cannot_dial_never_freezes_the_running_one() {
        // Two measurers; round 0 (two items) is running when round 1
        // (one item) is staged and dials measurer 1 a third time.
        let mut deployment = deployment();
        deployment.measurers.push(deployment.measurers[0]);
        let run = |fault: Option<FaultMode>| {
            let mut source = Recorder::new(vec![vec![item(10), item(11)], vec![item(12)]]);
            let mut behaviour = scripted();
            let links = InMemory::new(&deployment, &mut behaviour);
            let clock = Rc::clone(&source.clock);
            drive(&mut BadDial { links, fault, dials: 0, clock }, &deployment, &mut source);
            source
        };
        let reference = run(None);
        assert_eq!(
            reference.clean,
            BTreeMap::from([(0, true), (1, true)]),
            "{:?}",
            reference.events
        );
        let reference_lags = done_lags(&reference);
        assert_eq!(reference_lags.len(), 6, "{:?}", reference.events);

        for (fault, reason) in [
            (FaultMode::Disconnect, AbortReason::ConnectionLost),
            (FaultMode::Blackhole, AbortReason::HandshakeTimeout),
        ] {
            let bad = run(Some(fault));
            // The running round stays clean; only the staged item fails,
            // its measurer-1 session first among any peers that waited
            // with it.
            assert_eq!(bad.clean, BTreeMap::from([(0, true), (1, false)]), "{fault:?}");
            let failed: Vec<_> = bad
                .events
                .iter()
                .filter_map(|(r, e)| match e {
                    EngineEvent::PeerFailed { peer, reason } => Some((*r, peer.index(), *reason)),
                    _ => None,
                })
                .collect();
            assert!(failed.contains(&(1, 1, reason)), "{fault:?}: {failed:?}");
            assert!(failed.iter().all(|&(round, ..)| round == 1), "{fault:?}: {failed:?}");
            // Round 0's peers finish exactly when they do without the
            // bad dial.
            assert_eq!(done_lags(&bad), reference_lags, "{fault:?}");
        }
    }

    #[test]
    fn the_staged_round_handshakes_during_the_slot_and_goes_when_it_ends() {
        const ROUNDS: usize = 3;
        let mut source =
            Recorder::new((0..ROUNDS as u64).map(|n| vec![item(100 + n), item(200 + n)]).collect());
        simulate_rounds(&deployment(), &mut scripted(), &mut source);
        assert_eq!(source.clean.len(), ROUNDS);
        assert!(source.clean.values().all(|&clean| clean), "{:?}", source.events);
        // The peers report 1,000 measured bytes and no background each
        // second, so §4.1's estimate is exactly that.
        assert_eq!(source.estimates, vec![1_000.0; 2 * ROUNDS], "{:?}", source.events);
        // Two rounds in flight, never three.
        assert_eq!(source.most_in_flight, 2, "{:?}", source.events);

        let events = &source.events;
        let last = |round: usize, want: fn(&EngineEvent) -> bool| {
            let found = events.iter().enumerate().rev().find(|(_, (r, e))| *r == round && want(e));
            found.map(|(ix, _)| ix).unwrap_or_else(|| panic!("round {round}: {events:?}"))
        };
        let gos = |round: usize| -> Vec<SimTime> {
            events
                .iter()
                .filter_map(|(r, e)| match e {
                    EngineEvent::GoReleased { at, .. } if *r == round => Some(*at),
                    _ => None,
                })
                .collect()
        };
        let slot = SimDuration::from_secs(u64::from(SLOT_SECS));
        for n in 0..ROUNDS - 1 {
            // Round n+1 was armed before round n's last peer finished.
            let next_armed = last(n + 1, |e| matches!(e, EngineEvent::PeerReady { .. }));
            let done = last(n, |e| matches!(e, EngineEvent::PeerDone { .. }));
            assert!(next_armed < done, "round {n}: {events:?}");
            // Its Gos left at the gate, not before, and promptly after.
            let gate = *gos(n).iter().max().expect("round n went") + slot;
            for go in gos(n + 1) {
                assert!(go >= gate, "round {}: Go at {go}, gate {gate}", n + 1);
                assert!(go < gate + SimDuration::from_millis(500), "round {}: Go at {go}", n + 1);
            }
        }
    }

    #[test]
    fn the_hard_deadline_is_a_margin_past_the_slot_end() {
        let (slot, margin) = (SimDuration::from_secs(3_100), SimDuration::from_secs(3_000));
        let at = SimTime::from_secs;
        // A slot longer than the margin (62 wall seconds at speedup 50)
        // still ends before the deadline, with the margin to spare.
        assert_eq!(hard_deadline(at(10), None, slot, margin), at(6_110));
        // A staged round's slot starts at its gate...
        assert_eq!(hard_deadline(at(10), Some(at(500)), slot, margin), at(6_600));
        // ...unless the gate is already past.
        assert_eq!(hard_deadline(at(900), Some(at(500)), slot, margin), at(7_000));
    }
}
