//! The one peer scaffold: everything `flashflow-relay` and
//! `flashflow-measurer` do identically, with what differs behind the
//! [`Role`] trait.
//!
//! In the paper the measurers and the target relay are two roles inside
//! one measurement exchange (§4.1); here they are two [`Role`]s of one
//! serving library. The library owns the seven common settings
//! ([`Settings`]), the process bootstrap and supervise → drain → exit
//! sequence ([`run`]), the state every connection shares ([`Peer`]), and
//! the reactor-driven connection shell: a fresh connection is identified
//! by its first bytes — a framed **control** conversation, or a **data**
//! dial opening with a [`DataChannelHello`] — inside the hello window,
//! then runs either the warm-reuse control conversation skeleton or the
//! role's [`DataConn`]. A role supplies its own flags, its
//! per-conversation state and hooks, and its data-connection type; the
//! role is a generic parameter, so nothing on the per-byte path goes
//! through a `dyn` call.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use flashflow_obs::{fields, Counter, EventSink, MetricsRegistry, Span, Value};
use flashflow_proto::blast::{DataChannelHello, DATA_HELLO_TAG, HELLO_LEN};
use flashflow_proto::endpoint::Endpoint;
use flashflow_proto::msg::{AbortReason, MeasureSpec, PeerRole, AUTH_TOKEN_LEN};
use flashflow_proto::session::{
    MeasurerAction, MeasurerPhase, MeasurerSession, ReplayWindow, SessionTimeouts,
};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::{LeasedTransport, Transport};
use flashflow_simnet::time::SimTime;

use crate::reactor::{AcceptFn, Driven, Reactor, ReactorConfig, ReactorObs, Spawner, Step};

/// The serving reactor's tick: how often every connection it drives,
/// a role's own included, is stepped without readiness.
pub const TICK: Duration = Duration::from_millis(1);

/// The settings every peer process takes (command line and/or
/// `--config` file), whatever its role.
#[derive(Debug, Clone)]
pub struct Settings {
    pub listen: String,
    pub token: [u8; AUTH_TOKEN_LEN],
    /// Whether a token was given explicitly. The built-in default token
    /// is public knowledge (it is in the source), so it is only
    /// acceptable on loopback (see [`check_token_policy`]).
    pub token_explicit: bool,
    /// Clock multiplier (50 = a "second" every 20 ms). The coordinator's
    /// clock does not speed up with the peer unless it runs the same
    /// multiplier, so either match the speedup on both sides or raise
    /// the coordinator's report-ahead cap.
    pub speedup: f64,
    /// Exit after completing this many control conversations; `None`
    /// serves until SIGTERM.
    pub sessions: Option<u64>,
    /// Reactor shard (event-loop thread) count.
    pub io_threads: usize,
    /// Mirror the structured event stream to this file as JSONL.
    pub log_json: Option<String>,
    /// Serve token-gated metric snapshots on this TCP address.
    pub metrics_addr: Option<String>,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            listen: "127.0.0.1:0".to_string(),
            token: [0x42; AUTH_TOKEN_LEN],
            token_explicit: false,
            speedup: 1.0,
            sessions: None,
            io_threads: 4,
            log_json: None,
            metrics_addr: None,
        }
    }
}

impl Settings {
    /// Parses a command line (and any `--config` file it names) into the
    /// common settings. A key that is not one of the seven is offered to
    /// `role_apply`, which returns `Ok(false)` for a key it does not know
    /// either; that is reported with the role's `usage` line.
    ///
    /// # Errors
    /// The usage string (`--help`), or the first rejected setting.
    pub fn parse(
        args: impl Iterator<Item = String>,
        usage: &str,
        role_apply: &mut dyn FnMut(&str, &str) -> Result<bool, String>,
    ) -> Result<Settings, String> {
        let mut settings = Settings::default();
        crate::parse_args(args, usage, &mut |key, value| {
            if settings.apply(key, value)? || role_apply(key, value)? {
                Ok(())
            } else {
                Err(format!("unknown setting {key:?}\n{usage}"))
            }
        })?;
        Ok(settings)
    }

    /// Applies one common `key=value`; `Ok(false)` when the key is not a
    /// common setting.
    fn apply(&mut self, key: &str, value: &str) -> Result<bool, String> {
        match key {
            "listen" => self.listen = value.to_string(),
            "token-hex" => {
                self.token = crate::parse_token_hex(value)?;
                self.token_explicit = true;
            }
            "speedup" => self.speedup = crate::parse_speedup(value)?,
            "sessions" => {
                self.sessions = Some(value.parse().map_err(|e| format!("sessions: {e}"))?);
            }
            "io-threads" => {
                self.io_threads = value.parse().map_err(|e| format!("io-threads: {e}"))?;
                if self.io_threads == 0 {
                    return Err("io-threads must be at least 1".to_string());
                }
            }
            "log-json" => self.log_json = Some(value.to_string()),
            "metrics-addr" => self.metrics_addr = Some(value.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Refuses to serve a non-loopback address under the built-in default
/// token: anyone who has read the source could command the peer.
///
/// # Errors
/// The refusal message for the operator.
pub fn check_token_policy(bound: SocketAddr, token_explicit: bool) -> Result<(), String> {
    if bound.ip().is_loopback() || token_explicit {
        return Ok(());
    }
    Err(format!(
        "refusing to serve {bound} with the built-in default token; \
         pass --token-hex with a real pre-shared secret"
    ))
}

/// What a role's data plane made of a data dial's hello.
pub enum Bind<D> {
    /// The hello's nonce is registered; the connection is now served by
    /// the role's data connection.
    Bound(D),
    /// The connection cannot be served (its pre-read bytes broke
    /// framing, or the role serves no data connections); drop it.
    Refused,
    /// No session has registered the nonce (yet); the transport comes
    /// back so the shell can wait out the hello window.
    Unknown(TcpTransport),
}

/// A role's data connection once bound, driven like a
/// [`Driven`] by the shell that owns its slot in the shard.
pub trait DataConn: Send {
    /// The socket is readable and/or writable: move bytes now.
    fn on_ready(&mut self) -> Step;
    /// The shard's tick: backlog flushes and the drain deadline only.
    fn on_tick(&mut self) -> Step;
    /// True while the connection holds output it could not flush.
    fn wants_write(&self) -> bool {
        false
    }
}

/// What one kind of peer does differently from the other. The library
/// calls the conversation hooks from [`Role::on_command`] to
/// [`Role::release`] in that order over one control conversation; every
/// hook runs on a reactor shard and must not block.
pub trait Role: Send + Sync + Sized + 'static {
    /// `relay` or `measurer`: the prefix of the process's lifecycle
    /// events (`<NAME>.start`) and of the metrics the library registers
    /// (`<NAME>.sessions_resumed`, `<NAME>.reactor.*`).
    const NAME: &'static str;
    /// The `--help` text, covering common and role flags.
    const USAGE: &'static str;
    /// The role's own flags.
    type Config: Default;
    /// Per-conversation state, rebuilt for each conversation a warm
    /// control connection serves.
    type Conv: Send;
    /// The role's data-connection type.
    type Data: DataConn;

    /// Applies one role flag; `Ok(false)` when the key is not the
    /// role's.
    ///
    /// # Errors
    /// The value was rejected.
    fn apply(cfg: &mut Self::Config, key: &str, value: &str) -> Result<bool, String>;
    /// Builds the process-wide role state, registering its metrics.
    fn new(cfg: Self::Config, registry: &MetricsRegistry) -> Self;
    /// The role's fields of the `<NAME>.start` event.
    fn start_fields(&self) -> Vec<(String, Value)>;
    /// The protocol role this peer's sessions answer to.
    fn session_role(&self) -> PeerRole;
    /// Fresh state for the next conversation.
    fn conversation(&self) -> Self::Conv;
    /// A `MeasureCmd` was accepted; `Ready` has not reached the wire
    /// yet.
    fn on_command(&self, _conv: &mut Self::Conv, _span: &Span, _spec: &MeasureSpec) {}
    /// `Go` arrived: the slot starts at `snow` on the sped-up clock. The
    /// peer is passed whole so a role can start connections of its own
    /// ([`Peer::spawn`]).
    fn on_start(
        peer: &Peer<Self>,
        conv: &mut Self::Conv,
        span: &Span,
        spec: &MeasureSpec,
        snow: SimTime,
    );
    /// The slot is over (or the session died) after `seconds` reports.
    fn on_stop(&self, conv: &mut Self::Conv, span: &Span, seconds: u32, snow: SimTime);
    /// One step of clock-driven work; `live` is false once the session
    /// is terminal.
    fn drive(&self, _conv: &mut Self::Conv, _span: &Span, _snow: SimTime, _live: bool) {}
    /// The `(background, measured)` byte columns of report `second`.
    fn second_report(&self, conv: &mut Self::Conv, span: &Span, second: u32) -> (u64, u64);
    /// The conversation ended: undo what **it** registered.
    fn release(&self, _conv: &mut Self::Conv) {}
    /// Offers a data dial's decoded hello to the data plane, with every
    /// byte read so far (`preread` starts with the hello).
    fn bind_data(
        peer: &Arc<Peer<Self>>,
        span: Span,
        transport: TcpTransport,
        preread: &[u8],
        hello: DataChannelHello,
    ) -> Bind<Self::Data>;
}

/// Everything the connections of one peer process share.
pub struct Peer<R: Role> {
    pub settings: Settings,
    pub role: R,
    /// Root span of the process's structured event stream.
    pub span: Span,
    replay: Mutex<ReplayWindow>,
    /// Set when draining: no new conversations, finish in-flight slots.
    draining: AtomicBool,
    /// Control conversations completed (the `--sessions` quota).
    sessions_done: AtomicU64,
    /// Conversations re-adopted via the `Resume` handshake (a restarted
    /// coordinator picking its parked sessions back up).
    resumed: Counter,
    /// The serving reactor's adoption handle, set once it runs.
    spawner: OnceLock<Spawner>,
}

/// How long a bound data channel may stay quiet during a drain before
/// it is closed.
const DRAIN_QUIET: Duration = Duration::from_millis(500);

impl<R: Role> Peer<R> {
    /// The state a peer process's connections share, before its reactor
    /// runs; `<NAME>.sessions_resumed` registers in `registry`.
    pub fn new(settings: Settings, role: R, span: Span, registry: &MetricsRegistry) -> Peer<R> {
        Peer {
            settings,
            role,
            span,
            replay: Mutex::new(ReplayWindow::default()),
            draining: AtomicBool::new(false),
            sessions_done: AtomicU64::new(0),
            resumed: registry.counter(&format!("{}.sessions_resumed", R::NAME)),
            spawner: OnceLock::new(),
        }
    }

    /// Hands a connection the role started (an outbound dial) to the
    /// serving reactor, where it is driven on its own readiness. Returns
    /// `false`, dropping `conn`, when no reactor runs yet.
    pub fn spawn(&self, conn: Box<dyn Driven>) -> bool {
        let Some(spawner) = self.spawner.get() else { return false };
        spawner.adopt(conn);
        true
    }

    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// True when a data channel last active at `last_activity` should
    /// end: the process is draining and the channel has gone quiet.
    pub fn drained_quiet(&self, last_activity: Instant) -> bool {
        self.draining() && last_activity.elapsed() > DRAIN_QUIET
    }

    /// The sped-up clock, `since` an origin: a "second" of a commanded
    /// rate passes per `1/speedup` wall seconds.
    pub fn snow(&self, since: Instant) -> SimTime {
        SimTime::from_secs_f64(since.elapsed().as_secs_f64() * self.settings.speedup)
    }

    fn quota_reached(&self) -> bool {
        self.settings.sessions.is_some_and(|n| self.sessions_done.load(Ordering::SeqCst) >= n)
    }

    fn stop_serving(&self) -> bool {
        self.draining() || self.quota_reached()
    }
}

/// The whole process: parse the command line, bind, advertise, serve on
/// the reactor until SIGTERM or the session quota, drain, exit. Startup
/// failures print to stderr and exit nonzero (2 for a refused
/// configuration, 1 for an environment failure).
pub fn run<R: Role>() {
    if let Err((code, msg)) = serve::<R>(std::env::args().skip(1)) {
        eprintln!("{msg}");
        std::process::exit(code);
    }
}

fn serve<R: Role>(args: impl Iterator<Item = String>) -> Result<(), (i32, String)> {
    let mut role_cfg = R::Config::default();
    let settings =
        Settings::parse(args, R::USAGE, &mut |key, value| R::apply(&mut role_cfg, key, value))
            .map_err(|msg| (2, msg))?;
    crate::install_sigterm_handler();
    // SO_REUSEADDR: a replacement process must re-take its configured
    // port while the killed incarnation's connections sit in TIME_WAIT.
    let listener = crate::listen_reuseaddr(&*settings.listen)
        .map_err(|e| (1, format!("bind {}: {e}", settings.listen)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| (1, format!("query bound address for {}: {e}", settings.listen)))?;
    check_token_policy(addr, settings.token_explicit).map_err(|msg| (2, msg))?;
    let mut sink = EventSink::new().with_stderr_text();
    if let Some(path) = &settings.log_json {
        // Opened with the shared journal discipline (O_APPEND, one
        // write per line): a crash tears at most the final line.
        let file = crate::journal_writer(std::path::Path::new(path))
            .map_err(|e| (1, format!("open --log-json {path}: {e}")))?;
        sink = sink.with_jsonl(Box::new(file));
    }
    let span = Span::root(sink);
    let registry = MetricsRegistry::new();
    let mut advertised = format!("listening {addr}\n");
    if let Some(maddr) = &settings.metrics_addr {
        let bound = crate::start_metrics_endpoint(
            maddr,
            settings.token,
            registry.clone(),
            settings.speedup,
        )
        .map_err(|msg| (1, msg))?;
        advertised += &format!("metrics {bound}\n");
    }
    // The machine-readable stdout lines. A failed flush means whoever
    // spawned us cannot learn the bound address — serving anyway would
    // wedge the parent, so exit instead.
    let mut stdout = std::io::stdout();
    stdout
        .write_all(advertised.as_bytes())
        .and_then(|()| stdout.flush())
        .map_err(|e| (1, format!("flush advertised endpoints to stdout: {e}")))?;

    let name = R::NAME;
    let role = R::new(role_cfg, &registry);
    let mut start = role.start_fields();
    start.extend(fields![speedup = settings.speedup]);
    span.emit(&format!("{name}.start"), start);
    let peer = Arc::new(Peer::new(settings, role, span, &registry));
    // The reactor owns the listener from here: `--io-threads` epoll
    // shards accept (EPOLLEXCLUSIVE) and drive every connection as a
    // state machine; this thread only supervises drain and quota.
    let reactor = Reactor::serve_observed(
        Some(listener),
        ReactorConfig { shards: peer.settings.io_threads, tick: TICK },
        accept_factory(Arc::clone(&peer)),
        Some(ReactorObs {
            registry,
            prefix: format!("{name}.reactor"),
            span: peer.span.clone(),
            stall_budget: Duration::from_millis(20),
        }),
    )
    .map_err(|e| {
        let error = format!("start reactor: {e}");
        peer.span.emit(&format!("{name}.fatal"), fields![error = error.clone()]);
        (1, error)
    })?;
    let _ = peer.spawner.set(reactor.spawner());
    if crate::wait_for_drain(&|| peer.quota_reached()) {
        peer.span.event(&format!("{name}.drain"));
    }
    // Stop serving: running slots finish, handshakes abort, data
    // channels wind down, and every shard joins before exit.
    peer.draining.store(true, Ordering::SeqCst);
    reactor.stop();
    if let Err(e) = reactor.join() {
        peer.span.emit(&format!("{name}.fatal"), fields![error = e]);
    }
    let sessions = peer.sessions_done.load(Ordering::SeqCst);
    peer.span.emit(&format!("{name}.exit"), fields![sessions = sessions]);
    Ok(())
}

/// Builds the reactor's accept callback: admission control (drain,
/// session quota), the `conn.accept` event, and a fresh [`Conn`] in its
/// hello window.
fn accept_factory<R: Role>(peer: Arc<Peer<R>>) -> Arc<AcceptFn> {
    let conn_ids = AtomicU64::new(0);
    Arc::new(move |stream: TcpStream, addr: SocketAddr| {
        if peer.stop_serving() {
            return None;
        }
        let transport = TcpTransport::from_stream(stream).ok()?;
        let conn_id = conn_ids.fetch_add(1, Ordering::SeqCst);
        peer.span.channel(conn_id).emit("conn.accept", fields![peer = format!("{addr}")]);
        let deadline = Instant::now() + crate::hello_window(peer.settings.speedup);
        Some(Box::new(Conn {
            peer: Arc::clone(&peer),
            conn_id,
            fd: transport.raw_fd(),
            state: State::Fresh { transport, buf: Vec::new(), deadline },
        }) as Box<dyn Driven>)
    })
}

/// Why the shard called into the connection.
#[derive(Clone, Copy)]
enum Why {
    Ready,
    Tick,
}

/// One reactor-driven peer connection.
struct Conn<R: Role> {
    peer: Arc<Peer<R>>,
    conn_id: u64,
    /// Cached at accept: [`Driven::fd`] must stay stable across state
    /// transitions that move the transport between owners.
    fd: i32,
    state: State<R>,
}

enum State<R: Role> {
    /// Not identified yet: awaiting the first bytes, a complete data
    /// hello, or the registration of the nonce the hello names.
    Fresh {
        transport: TcpTransport,
        buf: Vec<u8>,
        deadline: Instant,
    },
    Control(Box<Conversation<R>>),
    Data(Box<R::Data>),
    Gone,
}

/// Whether a state handler settled or wants an immediate follow-up
/// (identification should not wait a tick to start the handshake).
enum Flow {
    Settle(Step),
    Again,
}

/// Most bytes a data dial may send before its nonce is registered. An
/// honest dialer's hello follows the registration, so only the first
/// read's worth of blast can ever queue here; past this the dial is
/// refused rather than buffered.
const PREBIND_CAP: usize = 64 * 1024;

impl<R: Role> Driven for Conn<R> {
    fn fd(&self) -> i32 {
        self.fd
    }

    fn on_ready(&mut self) -> Step {
        self.drive(Why::Ready)
    }

    fn on_tick(&mut self) -> Step {
        self.drive(Why::Tick)
    }

    fn wants_write(&self) -> bool {
        match &self.state {
            State::Control(c) => c.backlog,
            State::Data(d) => d.wants_write(),
            State::Fresh { .. } | State::Gone => false,
        }
    }
}

impl<R: Role> Conn<R> {
    fn drive(&mut self, why: Why) -> Step {
        loop {
            let state = std::mem::replace(&mut self.state, State::Gone);
            let (next, flow) = match state {
                State::Fresh { transport, buf, deadline } => {
                    self.identify(why, transport, buf, deadline)
                }
                State::Control(mut c) => {
                    let step = c.step();
                    let next = if step == Step::Done { State::Gone } else { State::Control(c) };
                    (next, Flow::Settle(step))
                }
                State::Data(mut d) => {
                    let step = match why {
                        Why::Ready => d.on_ready(),
                        Why::Tick => d.on_tick(),
                    };
                    let next = if step == Step::Done { State::Gone } else { State::Data(d) };
                    (next, Flow::Settle(step))
                }
                State::Gone => (State::Gone, Flow::Settle(Step::Done)),
            };
            self.state = next;
            match flow {
                Flow::Again => {}
                Flow::Settle(step) => return step,
            }
        }
    }

    /// Identifies a fresh connection from its first bytes. Anything but
    /// [`DATA_HELLO_TAG`] starts a control conversation at once. A data
    /// dial must complete its hello and name a registered nonce; until
    /// then it waits, and a dial that closes, outlasts the hello window,
    /// sends more than [`PREBIND_CAP`], or is still waiting when the
    /// process drains is dropped.
    fn identify(
        &mut self,
        why: Why,
        mut transport: TcpTransport,
        mut buf: Vec<u8>,
        deadline: Instant,
    ) -> (State<R>, Flow) {
        let span = self.peer.span.channel(self.conn_id);
        let mut give_up = false;
        if matches!(why, Why::Ready) {
            // Read on every readiness event, even while holding a whole
            // hello: level-triggered polling re-reports unread bytes and
            // a pending FIN, so a wait that stops reading spins the
            // shard for the rest of the window.
            match transport.recv(SimTime::ZERO) {
                Ok(bytes) => buf.extend_from_slice(&bytes),
                Err(_) => give_up = true,
            }
        }
        give_up |= buf.len() > PREBIND_CAP || Instant::now() >= deadline || self.peer.draining();
        let gone = (State::Gone, Flow::Settle(Step::Done));
        let Some(&first) = buf.first() else {
            if give_up {
                span.event("conn.silent");
                return gone;
            }
            return (State::Fresh { transport, buf, deadline }, Flow::Settle(Step::Continue));
        };
        if first != DATA_HELLO_TAG {
            let control = Conversation::new(&self.peer, self.conn_id, transport, buf);
            return (State::Control(Box::new(control)), Flow::Again);
        }
        let Some(raw) = buf.first_chunk::<HELLO_LEN>() else {
            if give_up {
                span.event("channel.no_hello");
                return gone;
            }
            return (State::Fresh { transport, buf, deadline }, Flow::Settle(Step::Continue));
        };
        let hello = match DataChannelHello::decode(raw) {
            Ok(hello) => hello,
            Err(e) => {
                span.emit("channel.bad_hello", fields![error = format!("{e}")]);
                return gone;
            }
        };
        match R::bind_data(&self.peer, span.clone(), transport, &buf, hello) {
            Bind::Bound(data) => (State::Data(Box::new(data)), Flow::Settle(Step::Continue)),
            Bind::Refused => gone,
            Bind::Unknown(_) if give_up => {
                // The nonce never belonged to an authenticated session
                // (or its session is long gone): refuse the channel.
                span.emit("channel.unknown_nonce", fields![nonce = hello.nonce]);
                gone
            }
            Bind::Unknown(transport) => {
                (State::Fresh { transport, buf, deadline }, Flow::Settle(Step::Continue))
            }
        }
    }
}

/// One control connection serving conversations back to back on a
/// leased transport, so a coordinator-side pool reuses warm connections
/// across measurement items instead of dialing fresh per item. The
/// protocol skeleton lives here; what a conversation means to the data
/// plane is the role's ([`Role::Conv`] and the hooks around it).
struct Conversation<R: Role> {
    peer: Arc<Peer<R>>,
    conn_id: u64,
    /// Conversations started on this connection.
    started: u64,
    endpoint: Option<Endpoint<MeasurerSession, LeasedTransport<TcpTransport>>>,
    span: Span,
    t0: Instant,
    /// The commanded slot length, once `Go` arrives.
    slot_secs: Option<u32>,
    started_at: Instant,
    reported: u32,
    claimed_nonce: Option<u64>,
    /// Terminal sessions get three flush steps before the conversation
    /// ends, so the tail (`SlotDone` / `Abort`) leaves a slow socket.
    terminal_flushes: u8,
    /// Unflushed outbound bytes at the end of the last step; the shard
    /// re-arms the socket for write readiness while this holds.
    backlog: bool,
    conv: R::Conv,
}

impl<R: Role> Conversation<R> {
    fn new(
        peer: &Arc<Peer<R>>,
        conn_id: u64,
        transport: TcpTransport,
        preread: Vec<u8>,
    ) -> Conversation<R> {
        let mut conversation = Conversation {
            peer: Arc::clone(peer),
            conn_id,
            started: 0,
            endpoint: None,
            span: peer.span.clone(),
            t0: Instant::now(),
            slot_secs: None,
            started_at: Instant::now(),
            reported: 0,
            claimed_nonce: None,
            terminal_flushes: 0,
            backlog: false,
            conv: peer.role.conversation(),
        };
        conversation.start_conversation(LeasedTransport::new(transport), Some(preread));
        conversation
    }

    /// Begins the next conversation on the (possibly warm) transport.
    fn start_conversation(
        &mut self,
        mut leased: LeasedTransport<TcpTransport>,
        preread: Option<Vec<u8>>,
    ) {
        leased.reset_close();
        let peer = &self.peer;
        let session_id = self.conn_id * 1_000 + self.started;
        self.started += 1;
        self.span = peer.span.session(session_id);
        let window = crate::lock_recover(&peer.replay).clone();
        let session = MeasurerSession::new(
            peer.settings.token,
            peer.role.session_role(),
            session_id,
            SessionTimeouts::default(),
        )
        .with_replay_window(window);
        let mut endpoint = Endpoint::new(session, leased);
        self.t0 = Instant::now();
        if let Some(bytes) = preread {
            endpoint.session_mut().receive(SimTime::ZERO, &bytes);
        }
        self.slot_secs = None;
        self.started_at = Instant::now();
        self.reported = 0;
        self.claimed_nonce = None;
        self.terminal_flushes = 0;
        self.conv = peer.role.conversation();
        self.endpoint = Some(endpoint);
        // The pre-read bytes may have carried the whole opener.
        self.claim_opener();
    }

    /// Claims the nonce the session accepted, if it accepted one since
    /// the last call, in the process-wide window: of two concurrent
    /// connections replaying the same opener, exactly one witnesses it
    /// first and the loser is dropped — a session-local window cannot
    /// arbitrate that. Runs after every read and before anything is
    /// flushed, and the loser's queued `AuthOk` is discarded before its
    /// `Abort`, so the loser's coordinator never sees a handshake.
    fn claim_opener(&mut self) {
        if self.claimed_nonce.is_some() {
            return;
        }
        let peer = &self.peer;
        let Some(endpoint) = self.endpoint.as_mut() else { return };
        let Some(nonce) = endpoint.session().accepted_nonce() else { return };
        self.claimed_nonce = Some(nonce);
        if crate::lock_recover(&peer.replay).witness(nonce) {
            if endpoint.session().resumed() {
                peer.resumed.inc();
                // A resumed conversation learns its trace id from the
                // Resume opener itself, before the re-sent MeasureCmd
                // arrives.
                if let Some(trace) = endpoint.session().resume_trace_id().filter(|&t| t != 0) {
                    self.span = self.span.trace(trace);
                }
                self.span.emit("session.resumed", fields![nonce = nonce]);
            }
        } else {
            // The loser never reaches `on_command`, so its `release`
            // cannot undo the winner's registration.
            self.span.event("session.replay_drop");
            while endpoint.session_mut().poll_outbound().is_some() {}
            endpoint.session_mut().abort(AbortReason::AuthFailed);
        }
    }

    /// One step of the conversation, on socket readiness or shard tick:
    /// read, act, and flush every frame the step queued before
    /// returning, so a reply leaves in the step that heard the question.
    fn step(&mut self) -> Step {
        let elapsed = self.t0.elapsed().as_secs_f64();
        let now = SimTime::from_secs_f64(elapsed);
        if let Some(endpoint) = self.endpoint.as_mut() {
            endpoint.pump(now);
        }
        self.claim_opener();
        let peer = &self.peer;
        let Some(endpoint) = self.endpoint.as_mut() else {
            return Step::Done;
        };
        // The blast and background clocks run sped up, like the reports.
        let snow = SimTime::from_secs_f64(elapsed * peer.settings.speedup);
        endpoint.tick(now);
        // Drain: finish a running slot, but abort a conversation still
        // in its handshake — the Abort frame is flushed below.
        if peer.draining()
            && matches!(
                endpoint.session().phase(),
                MeasurerPhase::AwaitAuth | MeasurerPhase::AwaitCmd | MeasurerPhase::AwaitGo
            )
        {
            endpoint.session_mut().abort(AbortReason::Shutdown);
        }
        while let Some(action) = endpoint.session_mut().poll_action() {
            match action {
                MeasurerAction::Prepare { spec } => {
                    // `Ready` goes out with this step's flush, after
                    // the role registers here, so a data dial that
                    // waits for `Go` always finds the registration.
                    peer.role.on_command(&mut self.conv, &self.span, &spec);
                    // Every event from here on carries the coordinator's
                    // trace id for this item-attempt.
                    if spec.trace_id != 0 {
                        self.span = self.span.trace(spec.trace_id);
                    }
                    self.span.emit(
                        "session.prepare",
                        fields![
                            fp = format!("{:02x}{:02x}", spec.relay_fp[0], spec.relay_fp[1]),
                            slot_secs = spec.slot_secs,
                            sockets = spec.sockets,
                        ],
                    );
                }
                MeasurerAction::Start { spec } => {
                    self.slot_secs = Some(spec.slot_secs);
                    self.started_at = Instant::now();
                    R::on_start(peer, &mut self.conv, &self.span, &spec, snow);
                }
                MeasurerAction::Stop => {
                    peer.role.on_stop(&mut self.conv, &self.span, self.reported, snow);
                }
            }
        }
        peer.role.drive(&mut self.conv, &self.span, snow, !endpoint.is_terminal());
        if let Some(slot_secs) = self.slot_secs {
            // One report per (sped-up) second, paced off the Go instant.
            let report_every = Duration::from_secs_f64(1.0 / peer.settings.speedup);
            while self.reported < slot_secs
                && !endpoint.is_terminal()
                && self.started_at.elapsed() >= report_every * (self.reported + 1)
            {
                let (bg, measured) =
                    peer.role.second_report(&mut self.conv, &self.span, self.reported);
                endpoint.session_mut().report_second(bg, measured);
                self.reported += 1;
            }
        }
        endpoint.flush(now);
        if endpoint.is_terminal() {
            self.terminal_flushes += 1;
            if self.terminal_flushes >= 3 {
                return self.finish_conversation();
            }
        }
        self.backlog = endpoint.transport_mut().inner_mut().pending_send_bytes() > 0;
        Step::Continue
    }

    /// Ends the current conversation: release what it registered, count
    /// the session, and either start the next conversation on the warm
    /// transport or finish the connection.
    fn finish_conversation(&mut self) -> Step {
        let Some(endpoint) = self.endpoint.take() else {
            return Step::Done;
        };
        let reusable = endpoint.session().phase() == MeasurerPhase::Done
            && endpoint.transport_error().is_none();
        let (_session, leased) = endpoint.into_parts();
        self.peer.role.release(&mut self.conv);
        if self.claimed_nonce.is_some() {
            self.peer.sessions_done.fetch_add(1, Ordering::SeqCst);
        }
        if !reusable || self.peer.stop_serving() {
            return Step::Done;
        }
        self.start_conversation(leased, None);
        self.backlog = false;
        Step::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::TcpListener;

    use flashflow_proto::frame::{encode, FrameDecoder};
    use flashflow_proto::msg::{Msg, FINGERPRINT_LEN};

    use crate::reactor::{Interest, Poller};

    /// A role with no data plane: it answers the control protocol and
    /// reports zero bytes.
    struct Bare;

    struct NoData;

    impl DataConn for NoData {
        fn on_ready(&mut self) -> Step {
            Step::Done
        }
        fn on_tick(&mut self) -> Step {
            Step::Done
        }
    }

    impl Role for Bare {
        const NAME: &'static str = "bare";
        const USAGE: &'static str = "";
        type Config = ();
        type Conv = ();
        type Data = NoData;

        fn apply(_cfg: &mut (), _key: &str, _value: &str) -> Result<bool, String> {
            Ok(false)
        }
        fn new(_cfg: (), _registry: &MetricsRegistry) -> Self {
            Bare
        }
        fn start_fields(&self) -> Vec<(String, Value)> {
            Vec::new()
        }
        fn session_role(&self) -> PeerRole {
            PeerRole::Target
        }
        fn conversation(&self) {}
        fn on_start(_: &Peer<Self>, _: &mut (), _: &Span, _: &MeasureSpec, _: SimTime) {}
        fn on_stop(&self, _conv: &mut (), _span: &Span, _seconds: u32, _snow: SimTime) {}
        fn second_report(&self, _conv: &mut (), _span: &Span, _second: u32) -> (u64, u64) {
            (0, 0)
        }
        fn bind_data(
            _peer: &Arc<Peer<Self>>,
            _span: Span,
            _transport: TcpTransport,
            _preread: &[u8],
            _hello: DataChannelHello,
        ) -> Bind<NoData> {
            Bind::Refused
        }
    }

    /// The coordinator's end of one control connection.
    struct Coord {
        stream: TcpStream,
        decoder: FrameDecoder,
    }

    impl Coord {
        fn send(&mut self, msg: Msg) {
            self.stream.write_all(&encode(&msg)).expect("send");
        }

        /// The next frame, if one arrives within `wait`.
        fn next(&mut self, wait: Duration) -> Option<Msg> {
            let deadline = Instant::now() + wait;
            loop {
                if let Some(msg) = self.decoder.next_msg().expect("well-formed frames") {
                    return Some(msg);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return None;
                }
                self.stream.set_read_timeout(Some(left)).expect("read timeout");
                let mut buf = [0u8; 512];
                match self.stream.read(&mut buf) {
                    Ok(n @ 1..) => self.decoder.push(&buf[..n]),
                    _ => return None,
                }
            }
        }
    }

    /// Sends `msg` and, once it is readable, gives the connection
    /// exactly one readiness step — no tick, no second step.
    fn ask(conn: &mut dyn Driven, poller: &Poller, coord: &mut Coord, msg: Msg) {
        coord.send(msg);
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_secs(5)).expect("wait");
        assert!(!events.is_empty(), "{msg:?} never arrived");
        assert_eq!(conn.on_ready(), Step::Continue);
    }

    /// Replies leave in the step that read the question: on the first
    /// conversation of a connection and on the warm second one, `Auth`
    /// gets `AuthOk` and `MeasureCmd` gets `Ready` without another step.
    #[test]
    fn replies_leave_in_the_readiness_step_that_heard_the_question() {
        let peer = Arc::new(Peer::new(
            Settings { speedup: 1000.0, ..Settings::default() },
            Bare,
            Span::root(EventSink::new()),
            &MetricsRegistry::new(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (served, from) = listener.accept().expect("accept");
        let mut conn = accept_factory(Arc::clone(&peer))(served, from).expect("admitted");
        let poller = Poller::new().expect("poller");
        poller.register(conn.fd(), 0, Interest::READ).expect("register");
        let mut coord = Coord { stream, decoder: FrameDecoder::new() };

        let token = peer.settings.token;
        let spec =
            MeasureSpec { relay_fp: [7; FINGERPRINT_LEN], slot_secs: 1, ..MeasureSpec::default() };
        // Far longer than a loopback hop; a reply waiting for the next
        // step never comes, because no step follows.
        let reply = Duration::from_millis(500);
        for (conversation, nonce) in [("first", 0xA1), ("warm", 0xA2)] {
            ask(
                &mut *conn,
                &poller,
                &mut coord,
                Msg::Auth { token, role: PeerRole::Target, nonce },
            );
            let got = coord.next(reply);
            assert!(
                matches!(got, Some(Msg::AuthOk { nonce: n, .. }) if n == nonce),
                "{conversation} conversation: Auth answered with {got:?}"
            );
            ask(&mut *conn, &poller, &mut coord, Msg::MeasureCmd(spec));
            let got = coord.next(reply);
            assert_eq!(got, Some(Msg::Ready), "{conversation} conversation: MeasureCmd answered");

            // Run the one-second slot (a millisecond at this speedup) to
            // its report and `SlotDone`, then the terminal steps that
            // hand the connection to its next conversation.
            ask(&mut *conn, &poller, &mut coord, Msg::Go);
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut tail = Vec::new();
            while !tail.contains(&Msg::SlotDone) {
                assert!(Instant::now() < deadline, "{conversation} slot never ended: {tail:?}");
                assert_eq!(conn.on_ready(), Step::Continue);
                tail.extend(coord.next(Duration::from_millis(2)));
            }
            assert!(
                matches!(tail[..], [Msg::SecondReport { second: 0, .. }, Msg::SlotDone]),
                "{conversation} slot: {tail:?}"
            );
            for _ in 0..3 {
                assert_eq!(conn.on_ready(), Step::Continue, "the connection stays warm");
            }
        }
        assert_eq!(peer.sessions_done.load(Ordering::SeqCst), 2);
    }
}
