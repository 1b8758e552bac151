//! The three-party deployment harness: the paper's full topology as
//! real processes over loopback TCP.
//!
//! A coordinator (in this test process) commands **two spawned
//! `flashflow-measurer` processes** and **one spawned `flashflow-relay`
//! process**. Each item's `MeasureCmd` carries the relay's data
//! endpoint and a fresh measurement secret; at `Go` the measurers dial
//! echo channels straight at the relay and blast pattern-stamped,
//! tag-keyed frames, the relay verifies and echoes them back while
//! admitting capped background traffic, and everyone reports per
//! second — measurers their verified echo, the relay echoed + admitted
//! background. The per-relay estimate (echoed + clamped background)
//! must land within 5% of the deterministic Duplex reference, with the
//! audit rows clean; the adversarial cases (a relay inflating its
//! background claim, a relay echoing garbage) must be *flagged* in the
//! audit rows instead of silently believed. All children exit 0 —
//! including a measurer SIGTERMed mid-slot, which must finish the slot
//! it is running before it goes.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use flashflow_core::echo::{run_round, run_rounds, EchoDeployment, EchoItem, RoundSource};
use flashflow_core::engine::{EngineEvent, EngineSnapshot};
use flashflow_core::pool::ConnectionPool;
use flashflow_core::proto_driver::{run_scripted, Scripted, ScriptedRelay};
use flashflow_harness::{
    deployment, drain_all, exit_zero_all, round_items, spawn_measurer, spawn_relay,
    spawn_shipped_topology, thread_cpu_secs, token, BG_ALLOWANCE, ITEMS, MEASURER_CAPS, RATIO,
    SLOT_SECS, SOCKETS,
};
use flashflow_proto::frame::{encode, FrameDecoder};
use flashflow_proto::msg::{AbortReason, Msg, PeerRole};
use flashflow_proto::session::CoordPhase;
use flashflow_simnet::stats::median;

/// This file's measurement secrets: [`round_items`]`(SECRET, round)`.
const SECRET: u64 = 0x3A11_0000_0000_0000;

/// Runs one round of `items` and returns its record with every engine
/// event of the round.
fn measure(
    deployment: &EchoDeployment,
    items: &[EchoItem],
    pool: &ConnectionPool,
) -> (EngineSnapshot, Vec<EngineEvent>) {
    let mut events = Vec::new();
    let peers = run_round(deployment, items, pool, &mut |event| events.push(event));
    (peers, events)
}

/// Measures the box's sleep-pacing skew: how much longer a run of
/// short `thread::sleep`s takes than ideal. The echo data plane paces
/// its per-second slots exactly this way, so on a loaded 1-CPU CI
/// runner the blast falls short of its commanded rate by roughly this
/// factor — the estimate-vs-reference tolerance must widen with it
/// instead of flaking at a fixed 5%.
fn pacing_skew() -> f64 {
    const ROUNDS: u32 = 40;
    let ideal = Duration::from_millis(1) * ROUNDS;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        thread::sleep(Duration::from_millis(1));
    }
    (start.elapsed().as_secs_f64() / ideal.as_secs_f64()).max(1.0)
}

/// The relative tolerance for estimate-vs-reference comparisons: the
/// paper's 5% bound on an idle box, widened by the measured pacing
/// skew under contention, and capped so a genuinely broken data plane
/// (wrong rate, uncredited echo) still fails loudly. Callers probe the
/// skew both before and after the measurement (load can arrive
/// mid-run) and pass the worst.
fn estimate_tolerance(skew: f64) -> f64 {
    (0.05 * skew).min(0.20)
}

/// The deterministic reference: the process round's deployment shape
/// and items, scripted over in-memory Duplex links (measurers report
/// their caps as echoed bytes, the relay reports the admitted
/// background).
fn duplex_reference_estimates() -> Vec<f64> {
    let unused = SocketAddr::from(([127, 0, 0, 1], 0));
    let items = round_items(SECRET, 0);
    let script = ScriptedRelay { measured: MEASURER_CAPS.to_vec(), background: BG_ALLOWANCE };
    let mut scripted = Scripted::new(items.iter().map(|item| (item.relay_fp, script.clone())));
    let peers = run_scripted(&deployment([unused; 2], unused), &items, &mut scripted, &mut |_| {});
    assert!(peers.all_clean(), "reference run had failures");
    (0..ITEMS)
        .map(|g| {
            let (seconds, estimate) = peers.estimate(g, RATIO);
            assert!(!seconds.is_empty(), "reference item {g} produced no seconds");
            estimate.bytes_per_sec()
        })
        .collect()
}

#[test]
fn three_party_topology_estimates_match_duplex_reference() {
    let reference = duplex_reference_estimates();
    let skew_before = pacing_skew();

    // Two rounds' worth of sessions: the second round rides the
    // connections the first one warmed.
    let (m0, a0) = spawn_measurer(0, Some(2 * ITEMS), &[]);
    let (m1, a1) = spawn_measurer(1, Some(2 * ITEMS), &[]);
    let (relay, relay_addr) = spawn_relay(Some(2 * ITEMS), &[]);
    let dep = deployment([a0, a1], relay_addr);
    let peers_per_round = ITEMS as u64 * (MEASURER_CAPS.len() as u64 + 1);

    let pool = ConnectionPool::new();
    let (peers, events) = measure(&dep, &round_items(SECRET, 0), &pool);
    let tolerance = estimate_tolerance(skew_before.max(pacing_skew()));
    // Every item of a round runs at once, so a cold round dials one
    // connection per conversation.
    assert_eq!((pool.dials(), pool.reuses()), (peers_per_round, 0));

    assert_eq!(peers.item_count(), ITEMS);
    for (g, reference) in reference.into_iter().enumerate() {
        let failures: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::PeerFailed { peer, .. } if peers.item(*peer) == g))
            .collect();
        assert!(
            peers.item_clean(g),
            "item {g}: a session failed against the spawned processes: {failures:?}"
        );
        // Scheduler contention can tear individual seconds'
        // claim-vs-counted comparisons past the 10% divergence
        // tolerance (the relay and the measurers tick their "seconds"
        // on independent sped-up clocks, so load shifts bytes between
        // adjacent seconds). A lying relay flags nearly every row —
        // the adversarial cases below assert ≥ SLOT_SECS−1 — so that
        // same threshold is the discrimination boundary: honest must
        // stay strictly under it.
        let divergent = peers.divergent_count(g, RATIO);
        assert!(
            divergent < SLOT_SECS as usize - 1,
            "item {g}: honest topology flagged {divergent} rows: {:?}",
            peers.rows(g, RATIO)
        );
        let est = peers.estimate(g, RATIO).1.bytes_per_sec();
        let rel = (est - reference).abs() / reference;
        assert!(
            rel < tolerance,
            "item {g}: echo estimate {est:.0} B/s vs reference {reference:.0} B/s \
             differ by {:.2}% (tolerance {:.2}%)",
            rel * 100.0,
            tolerance * 100.0
        );
    }

    // The relay reported real background: every target row carries a
    // bg column near the allowance, cross-checked against the
    // aggregated measurer echo.
    let target_rows: Vec<_> = peers
        .rows(0, RATIO)
        .into_iter()
        .filter(|r| peers.role(r.peer) == PeerRole::Target)
        .collect();
    assert_eq!(target_rows.len(), SLOT_SECS as usize);
    for row in &target_rows {
        assert!(row.counted.is_some(), "target row lacks the aggregated echo column: {row:?}");
        assert!(
            row.bg <= BG_ALLOWANCE * 11 / 10,
            "admitted background exceeded the allowance: {row:?}"
        );
    }

    // Warm connections rode the pool into the next round: it dialed
    // nothing and reused one connection per conversation.
    let (second, events) = measure(&dep, &round_items(SECRET, 1), &pool);
    assert!(second.all_clean(), "second round had failures: {events:?}");
    assert_eq!(pool.dials(), peers_per_round, "the warm round dialed");
    assert!(pool.reuses() >= peers_per_round, "warm round reused only {}", pool.reuses());

    drop(pool);
    exit_zero_all([m0, m1, relay]);
}

/// At 50× a sped-up second is 20 ms of wall time, five 4 ms grid
/// points: each measurer's paced channels send the second's allowance
/// at the first four and read the last sends' echo at the fifth, half an
/// interval before the report. So every second's report is exactly the
/// measurer's cap, and the relay's echo claim agrees with their sum on
/// every row of an honest item. (The peers are the shipped build: an
/// unoptimised one stalls its shards for longer than a 20 ms second.)
#[test]
fn paced_reports_are_exact_and_agree_with_an_honest_relay_at_50x() {
    const FAST: [&str; 2] = ["--speedup", "50"];
    const SLOT: u32 = 3;
    // A shard preempted past a report moves a point's bytes into the
    // next second; a grid that reads too late does it in every round.
    // So one exact round of a few settles the claim.
    const ROUNDS: u64 = 3;
    let [(m0, a0), (m1, a1), (relay, relay_addr)] = spawn_shipped_topology(None, &FAST);
    let dep = EchoDeployment { speedup: 50.0, ..deployment([a0, a1], relay_addr) };
    // Each measurer's per-second reports, in ascending order of cap.
    let mut commanded: Vec<_> = MEASURER_CAPS.iter().map(|&cap| vec![cap; SLOT as usize]).collect();
    commanded.sort_unstable();
    let pool = ConnectionPool::new();
    for round in 0..ROUNDS {
        let items: Vec<_> = round_items(SECRET, round)
            .into_iter()
            .map(|item| EchoItem { slot_secs: SLOT, ..item })
            .collect();
        let (peers, events) = measure(&dep, &items, &pool);
        assert!(peers.all_clean(), "round {round} must run clean: {events:?}");
        let inexact = (0..ITEMS).find_map(|g| {
            let rows = peers.rows(g, RATIO);
            let mut reports = BTreeMap::<usize, Vec<u64>>::new();
            for row in rows.iter().filter(|r| peers.role(r.peer) == PeerRole::Measurer) {
                reports.entry(row.peer.index()).or_default().push(row.reported);
            }
            let mut reports: Vec<_> = reports.into_values().collect();
            reports.sort_unstable();
            let exact = reports == commanded && peers.divergent_count(g, RATIO) == 0;
            (!exact).then(|| format!("item {g}: {rows:?}"))
        });
        match inexact {
            None => break,
            Some(item) => assert!(
                round + 1 < ROUNDS,
                "no round of {ROUNDS} reported every measurer's cap each second with no \
                 divergent row; the last: {item}"
            ),
        }
    }

    drop(pool);
    drain_all([m0, m1, relay]);
}

#[test]
fn unreachable_measurer_degrades_the_item_instead_of_killing_the_period() {
    // One measurer process is down (its address refuses connections):
    // the item must complete degraded — unclean, with the surviving
    // measurer's echo still measured — not panic the coordinator.
    let (m0, a0) = spawn_measurer(0, Some(1), &[]);
    let (relay, relay_addr) = spawn_relay(Some(1), &[]);
    // A port that refused: bind, read the addr, drop the listener.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
    };

    let pool = ConnectionPool::new();
    let one_item = vec![round_items(SECRET, 0).remove(0)];
    let (peers, _) = measure(&deployment([a0, dead_addr], relay_addr), &one_item, &pool);

    assert!(!peers.item_clean(0), "a failed dial must mark the item unclean");
    // The surviving measurer still demonstrated its share.
    let (x, _) = peers.merged_series(0);
    let survivor_rate = MEASURER_CAPS[0] as f64;
    let mid = x.get(2).copied().unwrap_or(0.0);
    assert!(
        mid > survivor_rate * 0.5,
        "surviving measurer's echo missing from the degraded item: {x:?}"
    );

    drop(pool);
    exit_zero_all([m0, relay]);
}

#[test]
fn background_inflating_relay_is_flagged_in_the_ledger() {
    // The TorMult-shaped lie: the relay claims 6× more background than
    // the plausibility bound allows for what it demonstrably echoed.
    let claim = 300_000u64;
    let (m0, a0) = spawn_measurer(0, Some(1), &[]);
    let (m1, a1) = spawn_measurer(1, Some(1), &[]);
    let (relay, relay_addr) = spawn_relay(Some(1), &["--claim-bg", &claim.to_string()]);

    let pool = ConnectionPool::new();
    let one_item = vec![round_items(SECRET, 0).remove(0)];
    let (peers, _) = measure(&deployment([a0, a1], relay_addr), &one_item, &pool);

    assert!(peers.item_clean(0), "the lie is in the numbers, not the protocol");
    let rows = peers.rows(0, RATIO);
    assert!(
        peers.divergent_count(0, RATIO) >= SLOT_SECS as usize - 1,
        "inflated background claims must flag the audit rows: {rows:?}"
    );
    let flagged_bg = rows
        .iter()
        .filter(|r| peers.role(r.peer) == PeerRole::Target && r.divergent)
        .all(|r| r.bg == claim);
    assert!(flagged_bg, "the flagged rows carry the inflated claim");

    drop(pool);
    exit_zero_all([m0, m1, relay]);
}

#[test]
fn garbage_echoing_relay_is_not_credited_and_diverges() {
    // A forging relay: it "echoes" keystream-violating bytes. The
    // measurers' verifying parsers refuse to credit them, so the
    // reported echo collapses — and the relay's own (inflated) echo
    // claim diverges from the aggregated measurer reports.
    let (m0, a0) = spawn_measurer(0, Some(1), &[]);
    let (m1, a1) = spawn_measurer(1, Some(1), &[]);
    let (relay, relay_addr) = spawn_relay(Some(1), &["--corrupt-echo", "true"]);

    let pool = ConnectionPool::new();
    let one_item = vec![round_items(SECRET, 0).remove(0)];
    let (peers, _) = measure(&deployment([a0, a1], relay_addr), &one_item, &pool);

    let estimate = peers.estimate(0, RATIO).1.bytes_per_sec();
    let honest_x: u64 = MEASURER_CAPS.iter().sum();
    assert!(
        estimate < honest_x as f64 * 0.10,
        "garbage echo must not be credited as measurement bytes: estimated {estimate} B/s"
    );
    assert!(
        peers.divergent_count(0, RATIO) > 0,
        "the relay's echo claim must diverge from what the measurers verified: {:?}",
        peers.rows(0, RATIO)
    );

    drop(pool);
    exit_zero_all([m0, m1, relay]);
}

#[test]
fn sigtermed_measurer_finishes_its_slot_aborts_parked_handshakes_and_exits_zero() {
    // Long enough (1 s of wall time) that the SIGTERM lands mid-slot.
    const DRAIN_SLOT_SECS: u32 = 10;
    // Measurer 0 has quota to spare: only the SIGTERM ends it.
    let (mut m0, a0) = spawn_measurer(0, Some(99), &[]);
    let (m1, a1) = spawn_measurer(1, Some(1), &[]);
    let (relay, relay_addr) = spawn_relay(Some(1), &[]);

    // A second coordinator connection that stops after `AuthOk`: still
    // mid-handshake when the drain starts, it must be told so.
    let mut parked = TcpStream::connect(a0).expect("dial parked conversation");
    let auth = Msg::Auth { token: token(0), role: PeerRole::Measurer, nonce: 0xF00 };
    parked.write_all(&encode(&auth)).expect("send Auth");

    let pool = ConnectionPool::new();
    let item = EchoItem { slot_secs: DRAIN_SLOT_SECS, ..round_items(SECRET, 0).remove(0) };
    let mut events = Vec::new();
    let mut termed = false;
    let snapshot = run_round(&deployment([a0, a1], relay_addr), &[item], &pool, &mut |ev| {
        events.push(ev);
        // Mid-slot (first sample seen): ask measurer 0 to drain.
        if !termed && matches!(ev, EngineEvent::Sample { .. }) {
            m0.sigterm();
            termed = true;
        }
    });

    // Every conversation — the draining measurer's included — ran its
    // whole slot to `Done`.
    assert!(termed, "never saw a sample: {events:?}");
    for peer in snapshot.peers() {
        assert_eq!(snapshot.phase(peer), CoordPhase::Done, "peer {peer:?}: {events:?}");
        let samples = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::Sample { peer: p, .. } if *p == peer))
            .count();
        assert_eq!(samples, DRAIN_SLOT_SECS as usize, "peer {peer:?}: {events:?}");
    }

    // The parked handshake got `AuthOk`, then a flushed `Abort(Shutdown)`.
    parked.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut buf = [0u8; 256];
    while let Ok(n @ 1..) = parked.read(&mut buf) {
        decoder.push(&buf[..n]);
        while let Some(msg) = decoder.next_msg().expect("well-formed frames") {
            frames.push(msg);
        }
    }
    assert!(
        matches!(
            frames[..],
            [Msg::AuthOk { nonce: 0xF00, .. }, Msg::Abort { reason: AbortReason::Shutdown }]
        ),
        "parked conversation saw {frames:?}"
    );

    drop(pool);
    exit_zero_all([m0, m1, relay]);
}

/// Copies one direction of a proxied connection until either side ends.
fn pipe(mut from: TcpStream, mut to: TcpStream) {
    thread::spawn(move || {
        let _ = std::io::copy(&mut from, &mut to);
        let _ = to.shutdown(Shutdown::Both);
    });
}

#[test]
fn hung_up_measurer_degrades_its_item_without_spinning_the_round() {
    // Measurer 0 sits behind a proxy. Its first connection — item 0's
    // control session — hangs up once the `Auth` is in; the others are
    // piped through to the real process.
    let (m0, a0) = spawn_measurer(0, Some(ITEMS - 1), &[]);
    let (m1, a1) = spawn_measurer(1, Some(ITEMS), &[]);
    let (relay, relay_addr) = spawn_relay(Some(ITEMS), &[]);
    let proxy = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let proxy_addr = proxy.local_addr().expect("proxy addr");
    thread::spawn(move || {
        for (n, coord) in proxy.incoming().take(ITEMS).enumerate() {
            let mut coord = coord.expect("accept");
            if n == 0 {
                let mut auth = [0u8; 256];
                let _ = coord.read(&mut auth);
                continue;
            }
            let measurer = TcpStream::connect(a0).expect("dial measurer 0");
            pipe(coord.try_clone().expect("clone"), measurer.try_clone().expect("clone"));
            pipe(measurer, coord);
        }
    });

    let pool = ConnectionPool::new();
    let mut events = Vec::new();
    let (cpu_before, started) = (thread_cpu_secs(), Instant::now());
    let snapshot = run_round(
        &deployment([proxy_addr, a1], relay_addr),
        &round_items(SECRET, 0),
        &pool,
        &mut |ev| {
            events.push(ev);
        },
    );
    let (cpu, wall) = (thread_cpu_secs() - cpu_before, started.elapsed().as_secs_f64());

    assert!(!snapshot.item_clean(0), "the hung-up peer's item must degrade: {events:?}");
    assert!(
        events.iter().any(|e| matches!(
            e,
            EngineEvent::PeerFailed { peer, reason: AbortReason::ConnectionLost }
                if snapshot.item(*peer) == 0
        )),
        "{events:?}"
    );
    for g in 1..ITEMS {
        assert!(snapshot.item_clean(g), "item {g} must stay clean: {events:?}");
    }
    // A terminal session's socket that stayed registered would be
    // readable (EOF) for the rest of the round and spin the loop.
    assert!(
        cpu < 0.25 * wall,
        "the round thread burned {cpu:.2} CPU-s over {wall:.2} s of wall time"
    );

    drop(pool);
    exit_zero_all([m0, m1, relay]);
}

/// The integer field `key` of a text event line.
fn field(line: &str, key: &str) -> u64 {
    let needle = format!(" {key}=");
    let (_, rest) = line.split_once(&needle).unwrap_or_else(|| panic!("no {key} in {line:?}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|e| panic!("{key} in {line:?}: {e}"))
}

#[test]
fn echo_channels_hang_up_with_the_slot_and_report_every_verified_byte() {
    let (m0, a0) = spawn_measurer(0, Some(1), &[]);
    let (m1, a1) = spawn_measurer(1, Some(1), &[]);
    let (relay, relay_addr) = spawn_relay(Some(1), &[]);

    let pool = ConnectionPool::new();
    let mut reported = [0u64; 2];
    let snapshot = run_round(
        &deployment([a0, a1], relay_addr),
        &round_items(SECRET, 0)[..1],
        &pool,
        &mut |ev| {
            if let EngineEvent::Sample { peer, measured_bytes, .. } = ev {
                if let Some(sum) = reported.get_mut(peer.index()) {
                    *sum += measured_bytes;
                }
            }
        },
    );
    assert!(snapshot.all_clean(), "the round must run clean");
    drop(pool);
    let mut peers = [m0, m1, relay];
    for peer in &mut peers {
        peer.exit_zero();
    }

    let mut last_stop = None;
    for (ix, measurer) in peers[..2].iter().enumerate() {
        let stops = measurer.logged("session.stop");
        let [(stopped, stop)] = &stops[..] else { panic!("measurer {ix}: stops {stops:?}") };
        last_stop = last_stop.max(Some(*stopped));
        // The per-second reports add up to the tally the slot closed
        // with, which is what the channels credited before hanging up.
        let tally = field(stop, "verified");
        assert!(tally > 0, "measurer {ix} verified nothing");
        assert_eq!(reported[ix], tally, "measurer {ix}: reports vs the tally at Stop");
        let closed = measurer.logged("echo.closed");
        assert_eq!(closed.len(), SOCKETS as usize, "measurer {ix}: {closed:?}");
        let credited: u64 = closed.iter().map(|(_, line)| field(line, "verified")).sum();
        assert_eq!(credited, tally, "measurer {ix}: channel credits vs the tally");
    }
    let last_stop = last_stop.expect("both measurers stopped");
    // Each channel hangs up at its first wakeup or tick after the close,
    // and the relay reads the EOF on its socket's readiness.
    let closed = peers[2].logged("channel.closed");
    assert_eq!(closed.len(), 2 * SOCKETS as usize, "relay: {closed:?}");
    for (at, line) in &closed {
        let late = at.saturating_duration_since(last_stop);
        assert!(late <= Duration::from_millis(50), "{line:?} came {late:?} after the last stop");
    }
}

/// What measurer 1's stand-in address does with dials after the first
/// `piped` ones, which it pipes through to the real process.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LaterDials {
    /// Piped through like the first.
    Piped,
    /// Refused: nothing listens any more.
    Refused,
    /// Never answered: every SYN is dropped, so the connect never settles.
    Unanswered,
}

/// A stand-in address for measurer 1 at `real`; it holds its listener
/// until the returned sender is dropped.
fn measurer_stand_in(
    real: SocketAddr,
    piped: usize,
    later: LaterDials,
) -> (SocketAddr, std::sync::mpsc::Sender<()>) {
    use std::os::fd::AsRawFd;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stand-in");
    let addr = listener.local_addr().expect("stand-in addr");
    let (hold, held) = std::sync::mpsc::channel::<()>();
    thread::spawn(move || {
        let forward = |coord: TcpStream| {
            let measurer = TcpStream::connect(real).expect("dial measurer 1");
            pipe(coord.try_clone().expect("clone"), measurer.try_clone().expect("clone"));
            pipe(measurer, coord);
        };
        for _ in 0..piped {
            forward(listener.accept().expect("accept").0);
        }
        match later {
            LaterDials::Piped => {
                while let Ok((coord, _)) = listener.accept() {
                    forward(coord);
                }
            }
            LaterDials::Refused => drop(listener),
            LaterDials::Unanswered => {
                // One connection waits in the accept queue, then the
                // queue shrinks to that one: the kernel drops every later
                // SYN, and the dialer retries until it gives up.
                let _filler = TcpStream::connect(addr).expect("fill the accept queue");
                // SAFETY: `listen(2)`'s POSIX prototype, declared
                // verbatim; the fd belongs to `listener`, which this
                // thread owns until the function returns.
                extern "C" {
                    fn listen(fd: i32, backlog: i32) -> i32;
                }
                // SAFETY: see the declaration; no pointers cross.
                let rc = unsafe { listen(listener.as_raw_fd(), 0) };
                assert_eq!(rc, 0, "shrink the accept queue");
                let _ = held.recv();
            }
        }
    });
    (addr, hold)
}

/// Runs its rounds in order and records every event with when it
/// arrived.
struct Recorded {
    rounds: Vec<Vec<EchoItem>>,
    staged: usize,
    events: Vec<(usize, Instant, EngineEvent)>,
    peers: Vec<Option<flashflow_core::engine::EngineSnapshot>>,
}

impl RoundSource for Recorded {
    fn next_round(&mut self) -> Option<Vec<EchoItem>> {
        let round = self.rounds.get(self.staged).cloned();
        self.staged += 1;
        round
    }
    fn event(&mut self, round: usize, event: EngineEvent) {
        self.events.push((round, Instant::now(), event));
    }
    fn finished(&mut self, round: usize, peers: flashflow_core::engine::EngineSnapshot) {
        self.peers[round] = Some(peers);
    }
}

impl Recorded {
    /// When round `round` released its last `Go`.
    fn last_go(&self, round: usize) -> Instant {
        self.events
            .iter()
            .filter(|(r, _, e)| *r == round && matches!(e, EngineEvent::GoReleased { .. }))
            .map(|(_, at, _)| *at)
            .max()
            .unwrap_or_else(|| panic!("round {round} released no Go: {:?}", self.events))
    }

    /// Median seconds from round 0's last `Go` to each of its
    /// `peer.done`s.
    fn done_lag(&self) -> f64 {
        let go = self.last_go(0);
        let lags: Vec<f64> = self
            .events
            .iter()
            .filter(|(r, _, e)| *r == 0 && matches!(e, EngineEvent::PeerDone { .. }))
            .map(|(_, at, _)| at.saturating_duration_since(go).as_secs_f64())
            .collect();
        median(&lags).expect("round 0 ended")
    }
}

#[test]
fn a_staged_round_that_cannot_dial_never_freezes_the_running_one() {
    let (m0, a0) = spawn_measurer(0, Some(99), &[]);
    let (m1, a1) = spawn_measurer(1, Some(99), &[]);
    let (relay, relay_addr) = spawn_relay(Some(99), &[]);
    // Round 0 (two items) dials measurer 1 through its stand-in; round 1
    // (one item) is staged while round 0 blasts, and dials it again.
    let run = |base: u64, later: LaterDials| {
        let (stand_in, hold) = measurer_stand_in(a1, 2, later);
        let mut source = Recorded {
            rounds: vec![
                round_items(SECRET, base)[..2].to_vec(),
                round_items(SECRET, base + 1)[..1].to_vec(),
            ],
            staged: 0,
            events: Vec::new(),
            peers: vec![None, None],
        };
        run_rounds(&deployment([a0, stand_in], relay_addr), &ConnectionPool::new(), &mut source);
        drop(hold);
        source
    };

    // Scheduler noise only ever adds lag, so each side's least lag over
    // a few runs is what the two are compared by: a bad dial that holds
    // the running round back delays it in every run.
    const RUNS: u64 = 3;
    const SLACK: f64 = 0.002; // two loop waits
    let mut reference_lag = f64::INFINITY;
    for ix in 0..RUNS {
        let reference = run(10 + 2 * ix, LaterDials::Piped);
        for peers in &reference.peers {
            assert!(peers.as_ref().expect("round ended").all_clean(), "{:?}", reference.events);
        }
        reference_lag = reference_lag.min(reference.done_lag());
    }
    for (base, later, reason) in [
        (20, LaterDials::Refused, AbortReason::ConnectionLost),
        (30, LaterDials::Unanswered, AbortReason::HandshakeTimeout),
    ] {
        let mut lags = Vec::new();
        // A run within the bound settles the least lag; only noise makes
        // a second or third run necessary.
        for ix in 0..RUNS {
            let bad = run(base + 2 * ix, later);
            let [Some(running), Some(staged)] = &bad.peers[..] else {
                panic!("{later:?}: unfinished")
            };
            assert!(running.all_clean(), "{later:?}: the running round degraded: {:?}", bad.events);
            // Only the staged item failed: its measurer-1 session, and —
            // when that session holds the item's `Go` until the handshake
            // timeout — possibly the armed peers that waited with it.
            let failed: Vec<_> = bad
                .events
                .iter()
                .filter_map(|(r, _, e)| match e {
                    EngineEvent::PeerFailed { peer, reason } => Some((*r, peer.index(), *reason)),
                    _ => None,
                })
                .collect();
            assert!(failed.contains(&(1, 1, reason)), "{later:?}: {failed:?}");
            assert!(failed.iter().all(|&(round, ..)| round == 1), "{later:?}: {failed:?}");
            assert!(!staged.item_clean(0), "{later:?}: the staged item must degrade");
            lags.push(bad.done_lag());
            if bad.done_lag() <= reference_lag + SLACK {
                break;
            }
        }
        // The running round's peers finished when they finish without
        // the bad dial.
        let lag = lags.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            lag <= reference_lag + SLACK,
            "{later:?}: round 0 ended at least {:.2} ms after its Go over {} runs ({:.2?} ms), \
             {:.2} ms without the bad dial",
            lag * 1e3,
            lags.len(),
            lags.iter().map(|l| l * 1e3).collect::<Vec<_>>(),
            reference_lag * 1e3
        );
    }

    drain_all([m0, m1, relay]);
}
