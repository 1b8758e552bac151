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
//! [`run_round`] is the one driving loop: every item of a round is an
//! item of a single [`MeasurementEngine`] stepped on the calling
//! thread, so the round's items run concurrently by construction. The
//! loop is woken by its control sockets: it steps, then blocks in
//! `epoll_wait` on the live peers' sockets for at most a millisecond,
//! so a peer's frame is answered when it lands and a timeout fires no
//! later than a fixed 1 ms step would fire it. The dials before the
//! first step are still blocking.
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

/// What the round loop keeps of a dialed peer: the grant it approves
/// reuse through, and the socket it waits on.
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

/// The round's control sockets, registered for readability under their
/// peer index.
struct Sockets {
    poller: Poller,
    /// Per peer, the fd still being watched.
    fds: Vec<Option<i32>>,
    ready: Vec<Event>,
}

impl Sockets {
    fn watch(dialed: &[Option<Dialed>]) -> io::Result<Sockets> {
        let poller = Poller::new()?;
        let fds: Vec<Option<i32>> = dialed.iter().map(|d| d.as_ref().map(|&(_, fd)| fd)).collect();
        for (peer, fd) in fds.iter().enumerate() {
            if let Some(fd) = *fd {
                poller.register(fd, peer as u64, Interest::READ)?;
            }
        }
        Ok(Sockets { poller, fds, ready: Vec::new() })
    }

    /// Blocks until a live peer's socket is readable, for at most
    /// [`STEP_WAIT`]. The sockets of terminal sessions are dropped
    /// from the set first: a terminal endpoint no longer reads, so a
    /// socket its peer hung up on would stay readable and spin the
    /// loop.
    fn wait(&mut self, engine: &MeasurementEngine) -> io::Result<()> {
        for (peer, fd) in engine.peers().zip(&mut self.fds) {
            if matches!(engine.phase(peer), CoordPhase::Done | CoordPhase::Failed) {
                if let Some(fd) = fd.take() {
                    // The socket stays open until the engine drops it,
                    // so this cannot fail on a stale fd.
                    let _ = self.poller.deregister(fd);
                }
            }
        }
        self.poller.wait(&mut self.ready, STEP_WAIT)
    }
}

/// Runs one round of echo items to completion on the calling thread:
/// one engine whose item `g` is `items[g]` (peers numbered item by
/// item, each item's k measurers then its relay), stepped on the
/// deployment's sped-up clock until every conversation is terminal.
/// Between steps the loop blocks on the live peers' control sockets,
/// so a frame is handled as soon as it arrives, and never for longer
/// than 1 ms, so timeouts fire on time. `emit` sees every engine
/// event, in engine order, as it happens. Sessions that ended cleanly
/// park their connections back in `pool`; everything else really
/// closes. The returned snapshot is the round's peer directory,
/// detached so the engine can be dropped (which is what hands the
/// connections back).
///
/// Dials are blocking `pool.checkout` calls made one after another
/// before the first `Auth` leaves. A round that cannot watch its
/// sockets aborts every session rather than step blind.
pub fn run_round(
    deployment: &EchoDeployment,
    items: &[EchoItem],
    pool: &ConnectionPool,
    emit: &mut dyn FnMut(EngineEvent),
) -> EngineSnapshot {
    let mut builder = MeasurementEngine::builder();
    let mut dialed = Vec::new();
    for (g, item) in items.iter().enumerate() {
        add_item(&mut builder, g, deployment, item, pool, &mut dialed);
    }
    // 60 sped-up seconds of hard wall: far beyond one slot.
    let deadline = SimTime::from_secs_f64(60.0 * deployment.speedup.max(1.0));
    let mut engine = builder.hard_deadline(deadline).build(SimTime::ZERO);
    let mut sockets = Sockets::watch(&dialed);
    if let Err(e) = &sockets {
        eprintln!("echo round: cannot watch the peer sockets ({e}); round aborted");
        engine.abort_all(AbortReason::Shutdown);
    }
    let t0 = Instant::now();
    loop {
        let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64() * deployment.speedup);
        let live = engine.step(now);
        while let Some(ev) = engine.poll_event() {
            emit(ev);
        }
        if !live {
            break;
        }
        // An aborted engine is finished after one more step, so a round
        // without sockets to wait on ends without spinning.
        if let Ok(sockets) = &mut sockets {
            if let Err(e) = sockets.wait(&engine) {
                eprintln!("echo round: waiting on the peer sockets failed ({e}); round aborted");
                engine.abort_all(AbortReason::Shutdown);
            }
        }
    }
    // Park what ended cleanly; everything else really closes.
    for (peer, dialed) in engine.peers().zip(&dialed) {
        if let Some((handle, _)) = dialed {
            if engine.phase(peer) == CoordPhase::Done {
                handle.approve();
            }
        }
    }
    engine.snapshot()
}
