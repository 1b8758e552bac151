//! Coordinator-side wiring for the **target-relay echo topology**: the
//! paper's deployment shape, where the coordinator commands *k*
//! measurer processes and one `flashflow-relay` process, the measurers
//! blast the relay's data listener directly, and the relay echoes the
//! verified bytes back while admitting (capped) client traffic
//! alongside.
//!
//! The control plane is one [`CoordinatorSession`] per peer over pooled
//! TCP connections; the coordinator moves **no measurement bytes of its
//! own**: they flow measurer → relay → measurer, and the coordinator's
//! cross-checks are structural. Each `MeasureCmd`
//! carries the relay's data endpoint and a per-item measurement secret;
//! measurers derive the public hello binding nonce and the secret frame
//! tag key from it, the relay accepts exactly that nonce, and the
//! ledger pairs the relay's echo claim against the k measurers'
//! aggregated reports (plus the background-plausibility bound) — see
//! [`SampleLedger::rows`](crate::engine::SampleLedger::rows).
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
//!   back, and handshakes, report lag, the ledger and the caller's
//!   journal writes overlap the slot before.
//! * Staging starts no earlier than round n's slot end minus half the
//!   session handshake timeout, so an armed session never waits for its
//!   `Go` longer than its own timeout allows.
//!
//! Both rounds' engines are stepped together, and between steps the
//! loop waits in `epoll_pwait2` on one set holding both rounds' control
//! sockets: a peer's frame is answered when it lands, and the wait is
//! at most a millisecond, less when a `Go` gate or a staging time falls
//! due sooner. The wait has the kernel timer's resolution, so the loop
//! sleeps up to a gate rather than polling. Dials never block (see
//! [`crate::pool`]): a connecting socket is watched for write
//! readiness, and a dial that is refused or never answered degrades
//! only its own item. If the socket set fails, only the rounds in
//! flight abort.
//!
//! A source may have no round when asked and one once a round ends (a
//! retry), so the loop asks again after every round it finishes.
//! [`run_round`] is the one-round case of the same loop, and
//! [`crate::bwauth::measure_echo_period`] turns what it returns into a
//! fingerprint-keyed bandwidth file.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use flashflow_procutil::reactor::{Event, Interest, Poller};
use flashflow_proto::msg::{
    AbortReason, MeasureSpec, PeerRole, TargetEndpoint, AUTH_TOKEN_LEN, FINGERPRINT_LEN,
};
use flashflow_proto::session::{CoordPhase, CoordinatorSession, SessionTimeouts};
use flashflow_simnet::time::{SimDuration, SimTime};

use flashflow_proto::transport::{Duplex, Transport};

use crate::engine::{EngineBuilder, EngineEvent, EngineSnapshot, MeasurementEngine};
use crate::pool::{ChannelKind, ConnectionPool, ReuseHandle};

/// What the round loop keeps of a checked-out peer: the grant it
/// approves reuse through, and the socket it waits on.
type Dialed = (ReuseHandle, i32);

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
    pub fn relay_addr(&self) -> SocketAddr {
        SocketAddr::from((self.relay.ip, self.relay.port))
    }

    fn timeouts(&self) -> SessionTimeouts {
        // Sped-up clocks shrink the default timeouts to fractions of a
        // wall second — too tight for a loaded CI box. Scale them so
        // only the hard deadline bounds a genuinely wedged run.
        SessionTimeouts {
            handshake: SimDuration::from_secs_f64(10.0 * self.speedup.max(1.0)),
            report: SimDuration::from_secs_f64(5.0 * self.speedup.max(1.0)),
        }
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
    /// [`peer_nonce`]), so re-running never replays.
    pub attempt: u32,
    /// Open the control sessions with a v5 `Resume` handshake proving
    /// attempt `n-1`'s lineage (requires `attempt > 0`): peers whose
    /// replay windows witnessed the prior attempt re-adopt the parked
    /// conversation instead of rejecting the re-derived nonce as a
    /// replay. `false` opens with a plain `Auth` — the right call when
    /// a `Resume` was already *refused* (the peer restarted and lost
    /// its window, so no lineage proof can succeed) and the item falls
    /// back to a fresh handshake whose nonce no peer has witnessed.
    pub resume: bool,
    /// The item-attempt's correlation key, carried in every peer's
    /// `MeasureCmd` (and `Resume`) so coordinator, measurer, and relay
    /// telemetry join on it — see [`MeasureSpec::trace_id`]. Derived
    /// deterministically per attempt (see [`item_trace_id`]) so a
    /// restarted coordinator re-mints the same id from its journal.
    pub trace_id: u64,
}

/// The correlation key for one attempt at an echo item, derived from
/// the item's journaled measurement secret like [`peer_nonce`] — same
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
/// measurement secret — which is exactly why a restarted coordinator
/// *must* resume rather than re-`Auth`: attempt `n` re-derives attempt
/// `n`'s nonces bit-for-bit, and a peer that witnessed them would
/// correctly reject the replay. Peer index `0` is the target relay;
/// measurer `ix` uses `ix + 1`. The attempt number occupies high bits
/// so attempts never collide with peer indices.
pub fn peer_nonce(secret: u64, peer_ix: u32, attempt: u32) -> u64 {
    secret ^ (0xEC40_0000 + u64::from(peer_ix)) ^ (u64::from(attempt) << 32)
}

/// A checked-out connection to a peer, or the degraded stand-in for a
/// peer that could not be dialed: a pre-closed in-memory end, so the
/// session fails with `ConnectionLost` on its first send and the item
/// *degrades* (that peer's samples quarantined, everyone else's kept)
/// instead of panicking the coordinator and killing the whole period.
fn checkout_or_dead(
    pool: &ConnectionPool,
    addr: SocketAddr,
) -> (Box<dyn Transport>, Option<Dialed>) {
    match pool.checkout(addr, ChannelKind::Control) {
        Ok(conn) => {
            let dialed = (conn.reuse_handle(), conn.raw_fd());
            (Box::new(conn) as Box<dyn Transport>, Some(dialed))
        }
        Err(e) => {
            eprintln!("echo item: dialing {addr} failed ({e}); peer degraded");
            let (a, mut b) = Duplex::loopback().into_endpoints();
            b.close();
            (Box::new(a), None)
        }
    }
}

/// Adds one echo item to `builder` as engine item `g`: control sessions
/// to every measurer and then the relay (always the item's last peer)
/// over pooled connections, specs carrying the relay's data endpoint
/// and the item's measurement secret. Each peer's reuse handle and fd
/// (`None` for a peer whose dial failed — its session aborts with
/// `ConnectionLost` and only this item degrades) is pushed onto
/// `dialed` in peer order.
fn add_item(
    builder: &mut EngineBuilder,
    g: usize,
    deployment: &EchoDeployment,
    item: &EchoItem,
    pool: &ConnectionPool,
    dialed: &mut Vec<Option<Dialed>>,
) {
    let timeouts = deployment.timeouts();
    let mut add = |peer_ix: u32, addr, token, role, spec| {
        let (conn, peer) = checkout_or_dead(pool, addr);
        dialed.push(peer);
        let nonce = peer_nonce(item.measurement_secret, peer_ix, item.attempt);
        let mut session = CoordinatorSession::new(token, role, spec, nonce, timeouts)
            .with_report_ahead_cap(item.slot_secs + 2);
        if item.resume {
            if let Some(prior) = item.attempt.checked_sub(1) {
                session = session.resuming(peer_nonce(item.measurement_secret, peer_ix, prior));
            }
        }
        builder.add_peer(g, session, conn);
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
    /// detached directory.
    fn finished(&mut self, round: usize, peers: EngineSnapshot);
}

/// The poller token of peer `peer` of round `round`.
fn token(round: usize, peer: usize) -> u64 {
    ((round as u64) << 32) | peer as u64
}

/// One staged round: its engine, and what the loop tracks of it.
struct Staged {
    /// Staging order: what the source's callbacks name the round by.
    round: usize,
    engine: MeasurementEngine,
    /// Per peer, the grant that approves reuse (`None` for a degraded
    /// stand-in).
    reuse: Vec<Option<ReuseHandle>>,
    /// Per peer, the socket still watched, and whether it is armed for
    /// write readiness.
    watched: Vec<Option<(i32, bool)>>,
    /// One slot on the loop's clock: the longest of its items'.
    slot: SimDuration,
    /// No `Go` of this round leaves before this.
    gate: Option<SimTime>,
    /// Per item: its `Go` is out, or it ended without one.
    settled: Vec<bool>,
    /// The latest `Go` this round released.
    last_go: Option<SimTime>,
}

impl Staged {
    /// Builds round `round`'s engine at `now` (queueing every `Auth`)
    /// over connections checked out of `pool`, and watches their
    /// sockets. A round that cannot watch its sockets aborts every
    /// session rather than step blind.
    fn stage(
        deployment: &EchoDeployment,
        pool: &ConnectionPool,
        poller: Option<&Poller>,
        round: usize,
        items: &[EchoItem],
        now: SimTime,
        gate: Option<SimTime>,
    ) -> Staged {
        let mut builder = MeasurementEngine::builder();
        let mut dialed = Vec::new();
        for (g, item) in items.iter().enumerate() {
            add_item(&mut builder, g, deployment, item, pool, &mut dialed);
        }
        // 60 sped-up seconds of hard wall: far beyond one slot.
        let wall = SimDuration::from_secs_f64(60.0 * deployment.speedup.max(1.0));
        builder = builder.hard_deadline(now + wall);
        if let Some(gate) = gate {
            builder = builder.go_not_before(gate);
        }
        let mut engine = builder.build(now);
        let mut watched = vec![None; dialed.len()];
        let mut watch = |poller: &Poller| -> io::Result<()> {
            for (peer, dialed) in dialed.iter().enumerate() {
                if let Some((_, fd)) = *dialed {
                    poller.register(fd, token(round, peer), Interest::READ)?;
                    watched[peer] = Some((fd, false));
                }
            }
            Ok(())
        };
        match poller.map(&mut watch) {
            Some(Ok(())) => {}
            Some(Err(e)) => {
                eprintln!("echo round: cannot watch the peer sockets ({e}); round aborted");
                engine.abort_all(AbortReason::Shutdown);
            }
            None => engine.abort_all(AbortReason::Shutdown),
        }
        let slot = items.iter().map(|item| item.slot_secs).max().unwrap_or(0);
        Staged {
            round,
            engine,
            reuse: dialed.into_iter().map(|d| d.map(|(handle, _)| handle)).collect(),
            watched,
            slot: SimDuration::from_secs(u64::from(slot)),
            gate,
            settled: vec![false; items.len()],
            last_go: None,
        }
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

    /// Drops the sockets of terminal sessions from the poller — a
    /// terminal endpoint no longer reads, so a socket its peer hung up on
    /// would stay readable and spin the loop — and arms the others for
    /// write readiness exactly while their transport holds a backlog: a
    /// connecting socket's queued `Auth`, or send-buffer backpressure.
    fn rearm(&mut self, poller: &Poller) -> io::Result<()> {
        for (peer, watched) in self.engine.peers().zip(&mut self.watched) {
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

    /// Gives up on the poller: every session aborts (the round ends on
    /// its next step), and no socket is watched any more.
    fn abort_blind(&mut self) {
        self.engine.abort_all(AbortReason::Shutdown);
        self.watched.iter_mut().for_each(|watched| *watched = None);
    }

    /// Ends a finished round: stops watching its sockets, parks what
    /// ended cleanly (everything else really closes when the engine
    /// drops), and hands the detached directory to `source`.
    fn finish(self, poller: Option<&Poller>, source: &mut dyn RoundSource) {
        let Staged { round, engine, reuse, watched, .. } = self;
        if let Some(poller) = poller {
            for &(fd, _) in watched.iter().flatten() {
                let _ = poller.deregister(fd);
            }
        }
        for (peer, handle) in engine.peers().zip(&reuse) {
            if let Some(handle) = handle {
                if engine.phase(peer) == CoordPhase::Done {
                    handle.approve();
                }
            }
        }
        let peers = engine.snapshot();
        drop(engine);
        source.finished(round, peers);
    }
}

/// True if the loop may stage another round now: none is in flight, or
/// the one in flight has every `Go` out and is close enough to its slot
/// end. Never more than two rounds at once.
fn may_stage(rounds: &[Staged], now: SimTime, lead: SimDuration) -> bool {
    match rounds {
        [] => true,
        [running] => running.next_stage_at(lead).is_some_and(|at| now >= at),
        _ => false,
    }
}

#[cfg(test)]
thread_local! {
    /// How many of the round loop's next waits fail on purpose.
    static FAIL_WAITS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// `poller.wait`, which a test can make fail.
fn wait_on(poller: &Poller, ready: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
    #[cfg(test)]
    if FAIL_WAITS.with(|left| left.replace(left.get().saturating_sub(1))) > 0 {
        return Err(io::Error::other("injected wait failure"));
    }
    poller.wait(ready, timeout)
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
    let mut poller: Option<Poller> = None;
    let mut ready: Vec<Event> = Vec::new();
    let lead = deployment.timeouts().handshake / 2;
    let speedup = deployment.speedup;
    let t0 = Instant::now();
    let mut rounds: Vec<Staged> = Vec::with_capacity(2);
    let mut staged = 0;
    // The source had no round when last asked; a round ending may give
    // it one (a retry), so every finished round clears this.
    let mut exhausted = false;
    loop {
        let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64() * speedup);
        // Newest first: at a gate, the staged round's `Go` leaves before
        // the running round's tail is read.
        for round in rounds.iter_mut().rev() {
            round.step(now, source);
        }
        let (done, running): (Vec<Staged>, Vec<Staged>) =
            rounds.into_iter().partition(|round| round.engine.is_finished());
        rounds = running;
        for round in done {
            round.finish(poller.as_ref(), source);
            exhausted = false;
        }
        if !exhausted && may_stage(&rounds, now, lead) {
            match source.next_round() {
                Some(items) => {
                    // Every round in flight without a poller was aborted,
                    // so a fresh one only has to watch the new round.
                    if poller.is_none() {
                        poller = Poller::new()
                            .map_err(|e| {
                                eprintln!("echo rounds: cannot watch the peer sockets ({e})");
                            })
                            .ok();
                    }
                    // The slot clock: the new round starts its slot when
                    // the running one's ends.
                    let gate = rounds.first().and_then(|r| r.last_go.map(|go| go + r.slot));
                    let round =
                        Staged::stage(deployment, pool, poller.as_ref(), staged, &items, now, gate);
                    rounds.push(round);
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
        let mut wait = STEP_WAIT;
        let mut until = |at: SimTime| {
            if at > now {
                wait = wait.min(Duration::from_secs_f64((at - now).as_secs_f64() / speedup));
            }
        };
        for round in &rounds {
            round.gate.into_iter().for_each(&mut until);
        }
        if let ([running], false) = (&rounds[..], exhausted) {
            running.next_stage_at(lead).into_iter().for_each(&mut until);
        }
        let Some(watching) = &poller else { continue };
        let waited = rounds
            .iter_mut()
            .try_for_each(|round| round.rearm(watching))
            .and_then(|()| wait_on(watching, &mut ready, wait));
        if let Err(e) = waited {
            eprintln!("echo rounds: waiting on the peer sockets failed ({e}); rounds aborted");
            rounds.iter_mut().for_each(Staged::abort_blind);
            poller = None;
        }
    }
}

/// Runs one round of echo items to completion on the calling thread:
/// [`run_rounds`] with a source of one round. `emit` sees every engine
/// event, in engine order, as it happens. The returned snapshot is the
/// round's peer directory, detached so the engine could be dropped
/// (which is what hands the clean connections back to `pool`).
pub fn run_round(
    deployment: &EchoDeployment,
    items: &[EchoItem],
    pool: &ConnectionPool,
    emit: &mut dyn FnMut(EngineEvent),
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
    run_rounds(deployment, pool, &mut one);
    one.peers.expect("the loop stages its first round and runs it to the end")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use flashflow_proto::endpoint::Endpoint;
    use flashflow_proto::session::{MeasurerAction, MeasurerSession};
    use flashflow_proto::tcp::TcpTransport;
    use flashflow_proto::transport::LeasedTransport;

    const TOKEN: [u8; AUTH_TOKEN_LEN] = [0x5A; AUTH_TOKEN_LEN];
    const SPEEDUP: f64 = 20.0;
    const SLOT_SECS: u32 = 4;

    /// A stand-in peer process on threads: serves `role` conversations
    /// back to back on every connection it accepts, reporting one second
    /// per sped-up second after `Go`, until `stop`.
    fn peer(role: PeerRole, stop: &Arc<AtomicBool>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        listener.set_nonblocking(true).expect("nonblocking");
        let stop = Arc::clone(stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let stop = Arc::clone(&stop);
                        std::thread::spawn(move || converse(stream, role, &stop));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        });
        addr
    }

    fn converse(stream: TcpStream, role: PeerRole, stop: &AtomicBool) {
        let mut leased = LeasedTransport::new(TcpTransport::from_stream(stream).expect("wrap"));
        let t0 = Instant::now();
        for id in 0.. {
            leased.reset_close();
            let session = MeasurerSession::new(TOKEN, role, id, SessionTimeouts::default());
            let mut endpoint = Endpoint::new(session, leased);
            let mut started = None;
            let mut reported = 0;
            while !endpoint.is_terminal() {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64());
                endpoint.pump(now);
                while let Some(action) = endpoint.session_mut().poll_action() {
                    if let MeasurerAction::Start { spec } = action {
                        started = Some((Instant::now(), spec.slot_secs));
                    }
                }
                if let Some((go, slot)) = started {
                    let due = (go.elapsed().as_secs_f64() * SPEEDUP) as u32;
                    while reported < slot.min(due) && !endpoint.is_terminal() {
                        endpoint.session_mut().report_second(0, 1_000);
                        reported += 1;
                    }
                }
                endpoint.tick(now);
                endpoint.flush(now);
                std::thread::sleep(Duration::from_micros(200));
            }
            leased = endpoint.into_parts().1;
            if !leased.inner_mut().is_reusable() {
                return;
            }
        }
    }

    /// A deployment of one stand-in measurer and a stand-in relay, both
    /// serving until `stop`.
    fn deployment(stop: &Arc<AtomicBool>) -> EchoDeployment {
        let measurer = EchoMeasurer {
            addr: peer(PeerRole::Measurer, stop),
            token: TOKEN,
            rate_cap: 1_000,
            sockets: 1,
        };
        let relay = TargetEndpoint::from_addr(peer(PeerRole::Target, stop)).expect("IPv4");
        EchoDeployment {
            measurers: vec![measurer],
            relay,
            relay_token: TOKEN,
            speedup: SPEEDUP,
            ratio: 0.25,
        }
    }

    fn item(secret: u64) -> EchoItem {
        EchoItem {
            relay_fp: [1; FINGERPRINT_LEN],
            slot_secs: SLOT_SECS,
            bg_allowance: 0,
            measurement_secret: secret,
            attempt: 0,
            resume: false,
            trace_id: secret,
        }
    }

    /// Hands its rounds out in order and records every event. `later`
    /// is a round it has only once round 0 has finished, the way a
    /// refused `Resume` becomes a retry.
    struct Recorder {
        rounds: Vec<Vec<EchoItem>>,
        later: Option<Vec<EchoItem>>,
        staged: usize,
        events: Vec<(usize, EngineEvent)>,
        clean: BTreeMap<usize, bool>,
    }

    impl Recorder {
        fn new(rounds: Vec<Vec<EchoItem>>) -> Recorder {
            Recorder { rounds, later: None, staged: 0, events: Vec::new(), clean: BTreeMap::new() }
        }
    }

    impl RoundSource for Recorder {
        fn next_round(&mut self) -> Option<Vec<EchoItem>> {
            let round = self.rounds.get(self.staged).cloned();
            self.staged += usize::from(round.is_some());
            round
        }
        fn event(&mut self, round: usize, event: EngineEvent) {
            self.events.push((round, event));
        }
        fn finished(&mut self, round: usize, peers: EngineSnapshot) {
            self.clean.insert(round, peers.all_clean());
            if round == 0 {
                self.rounds.extend(self.later.take());
            }
        }
    }

    #[test]
    fn a_round_the_source_gains_when_the_last_round_ends_still_runs() {
        let stop = Arc::new(AtomicBool::new(false));
        let deployment = deployment(&stop);
        // The source has nothing more while round 0 blasts (its `Go` is
        // out, so the loop asks), and a retry once it has ended.
        let mut source = Recorder::new(vec![vec![item(100)]]);
        source.later = Some(vec![item(200)]);
        run_rounds(&deployment, &ConnectionPool::new(), &mut source);
        // ORDERING: a stop flag the peer threads poll; nothing is
        // published through it.
        stop.store(true, Ordering::Relaxed);
        assert_eq!(source.clean, BTreeMap::from([(0, true), (1, true)]), "{:?}", source.events);
    }

    #[test]
    fn a_failed_wait_aborts_only_the_rounds_in_flight() {
        let stop = Arc::new(AtomicBool::new(false));
        let deployment = deployment(&stop);
        let mut source = Recorder::new((0..3).map(|n| vec![item(100 + n)]).collect());
        // The first wait comes while round 0 handshakes, alone in flight.
        FAIL_WAITS.with(|left| left.set(1));
        run_rounds(&deployment, &ConnectionPool::new(), &mut source);
        // ORDERING: a stop flag the peer threads poll; nothing is
        // published through it.
        stop.store(true, Ordering::Relaxed);
        let clean = BTreeMap::from([(0, false), (1, true), (2, true)]);
        assert_eq!(source.clean, clean, "{:?}", source.events);
        let aborted = |e: &EngineEvent| {
            matches!(e, EngineEvent::PeerFailed { reason: AbortReason::Shutdown, .. })
        };
        assert!(source.events.iter().any(|(r, e)| *r == 0 && aborted(e)), "{:?}", source.events);
    }

    #[test]
    fn the_staged_round_handshakes_during_the_slot_and_goes_when_it_ends() {
        let stop = Arc::new(AtomicBool::new(false));
        let deployment = deployment(&stop);
        const ROUNDS: usize = 3;
        let mut source =
            Recorder::new((0..ROUNDS as u64).map(|n| vec![item(100 + n), item(200 + n)]).collect());
        let pool = ConnectionPool::new();
        run_rounds(&deployment, &pool, &mut source);
        // ORDERING: a stop flag the peer threads poll; nothing is
        // published through it.
        stop.store(true, Ordering::Relaxed);
        assert_eq!(source.clean.len(), ROUNDS);
        assert!(source.clean.values().all(|&clean| clean), "{:?}", source.events);
        // Two rounds in flight, never three: four connections per round,
        // and round n+2 reuses round n's.
        assert_eq!(pool.dials(), 8, "{:?}", pool.stats());

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
}
