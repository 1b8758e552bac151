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
//! then runs either warm-reuse control conversations or the role's
//! [`DataConn`]. A role supplies its own flags, its per-conversation
//! state, the hooks a conversation calls at its protocol events
//! (command, `Go`, each second's report, stop, end), and its
//! data-connection type; the role is a generic parameter, so nothing on
//! the per-byte path goes through a `dyn` call.
//!
//! A control conversation is one sans-IO [`PeerConversation`] over its
//! session: pump, claim the accepted nonce in the process's replay
//! window, tick, abort a handshake on drain, hand actions to its
//! [`Hooks`], send the reports its session makes due, flush, and three
//! terminal flushes. The reactor hosts it here, on the sped-up clock
//! ([`Peer::snow`]); `flashflow_core::proto_driver` hosts the same type
//! on in-memory links, so a simulated peer runs the processes' code.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use flashflow_obs::{fields, MetricsRegistry, Span, Value};
use flashflow_proto::blast::{DataChannelHello, DATA_HELLO_TAG, HELLO_LEN};
use flashflow_proto::endpoint::Endpoint;
use flashflow_proto::msg::{AbortReason, MeasureSpec, PeerRole, AUTH_TOKEN_LEN};
use flashflow_proto::session::{
    MeasurerAction, MeasurerPhase, MeasurerSession, ReplayWindow, SessionState as _,
    SessionTimeouts,
};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::{LeasedTransport, Transport};
use flashflow_simnet::time::SimTime;

use crate::reactor::{AcceptFn, Driven, Reactor, ReactorConfig, ReactorObs, Spawner, Step};
use crate::Telemetry;

/// The serving reactor's sweep: how often every connection it drives, a
/// role's own included, is stepped without readiness or a deadline of
/// its own. Work that is due sooner arms a deadline
/// ([`Driven::deadline`]): a fresh connection's hello window, a control
/// conversation's next report or session timeout, a paced channel's
/// next burst. What is left to the sweep is the drain (a data channel
/// gone quiet, an echo channel whose slot closed), which must end
/// within 50 ms of the slot's close.
pub const TICK: Duration = Duration::from_millis(20);

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
    /// The shard's sweep ([`TICK`]): backlog flushes and the drain
    /// deadline only. A data connection has no deadline of its own.
    fn on_tick(&mut self) -> Step;
    /// True while the connection holds output it could not flush.
    fn wants_write(&self) -> bool {
        false
    }
    /// False while the connection will not read (its output backlog is
    /// full): the shard then stops waking it for arriving bytes, which
    /// stay in the kernel.
    fn wants_read(&self) -> bool {
        true
    }
}

/// What one kind of peer does differently from the other. The library
/// calls the conversation hooks from [`Role::on_command`] to
/// [`Role::release`] in that order over one control conversation, each
/// at its protocol event and never on a bare step; every hook runs on a
/// reactor shard and must not block.
pub trait Role: Send + Sync + Sized + 'static {
    /// `relay` or `measurer`: the prefix of the process's lifecycle
    /// events (`<NAME>.start`) and of the metrics the library registers
    /// (`<NAME>.reactor.*`).
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
    /// `Go` arrived: the slot starts. The peer is passed whole so a role
    /// can start connections of its own ([`Peer::spawn`]).
    fn on_start(peer: &Peer<Self>, conv: &mut Self::Conv, span: &Span, spec: &MeasureSpec);
    /// The slot is over (or the session died) after `seconds` reports.
    fn on_stop(&self, conv: &mut Self::Conv, span: &Span, seconds: u32);
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
    /// The serving reactor's adoption handle, set once it runs.
    spawner: OnceLock<Spawner>,
}

/// How long a bound data channel may stay quiet during a drain before
/// it is closed.
const DRAIN_QUIET: Duration = Duration::from_millis(500);

impl<R: Role> Peer<R> {
    /// The state a peer process's connections share, before its reactor
    /// runs.
    pub fn new(settings: Settings, role: R, span: Span) -> Peer<R> {
        Peer {
            settings,
            role,
            span,
            replay: Mutex::new(ReplayWindow::default()),
            draining: AtomicBool::new(false),
            sessions_done: AtomicU64::new(0),
            spawner: OnceLock::new(),
        }
    }

    /// Hands a connection the role started (an outbound dial) to the
    /// serving reactor, where it is driven on its own readiness. The
    /// reactor serves before the process's startup stores its spawner,
    /// so a session accepted at once can reach `Go` first: wait for it.
    pub fn spawn(&self, conn: Box<dyn Driven>) {
        self.spawner.wait().adopt(conn);
    }

    fn draining(&self) -> bool {
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
    let registry = MetricsRegistry::new();
    let mut telemetry = Telemetry::open(
        settings.log_json.as_deref(),
        settings.metrics_addr.as_deref(),
        settings.token,
        &registry,
        settings.speedup,
    )
    .map_err(|msg| (1, msg))?;
    let mut advertised = format!("listening {addr}\n");
    if let Some(bound) = telemetry.metrics {
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
    telemetry.span.emit(&format!("{name}.start"), start);
    let peer = Arc::new(Peer::new(settings, role, telemetry.span.clone()));
    // The reactor owns the listener from here: `--io-threads` epoll
    // shards accept (EPOLLEXCLUSIVE) and drive every connection as a
    // state machine; this thread sleeps until SIGTERM or the quota.
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
    if crate::wait_for_drain(None, &|| peer.quota_reached()) {
        peer.span.event(&format!("{name}.drain"));
    }
    // Stop serving: running slots finish, handshakes abort, data
    // channels wind down, and every shard joins before exit.
    peer.draining.store(true, Ordering::SeqCst);
    reactor.stop();
    if let Err(e) = reactor.join() {
        peer.span.emit(&format!("{name}.fatal"), fields![error = e]);
    }
    telemetry.close(name);
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

    fn deadline(&self) -> Option<Instant> {
        match &self.state {
            State::Fresh { deadline, .. } => Some(*deadline),
            State::Control(c) => c.deadline(),
            State::Data(_) | State::Gone => None,
        }
    }

    fn wants_write(&self) -> bool {
        match &self.state {
            State::Control(c) => c.backlog,
            State::Data(d) => d.wants_write(),
            State::Fresh { .. } | State::Gone => false,
        }
    }

    fn wants_read(&self) -> bool {
        match &self.state {
            State::Data(d) => d.wants_read(),
            State::Fresh { .. } | State::Control(_) | State::Gone => true,
        }
    }
}

impl<R: Role> Conn<R> {
    fn drive(&mut self, why: Why) -> Step {
        // Control and data steps run in place: a tick of every parked
        // connection must not move its state out and back.
        let step = match &mut self.state {
            State::Control(c) => c.step(why),
            State::Data(d) => match why {
                Why::Ready => d.on_ready(),
                Why::Tick => d.on_tick(),
            },
            State::Fresh { .. } => return self.drive_fresh(why),
            State::Gone => Step::Done,
        };
        if step == Step::Done {
            self.state = State::Gone;
        }
        step
    }

    /// Steps a connection not identified yet; one that turns out to be a
    /// control conversation starts its handshake at once.
    fn drive_fresh(&mut self, why: Why) -> Step {
        let State::Fresh { transport, buf, deadline } =
            std::mem::replace(&mut self.state, State::Gone)
        else {
            return Step::Done;
        };
        let (next, flow) = self.identify(why, transport, buf, deadline);
        self.state = next;
        match flow {
            Flow::Again => self.drive(why),
            Flow::Settle(step) => step,
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

/// What a peer does at its control conversation's protocol events; a
/// [`PeerConversation`] calls nothing else. The reactor host's come from
/// its [`Role`], an in-memory host's from its behaviour.
pub trait Hooks {
    /// Witnesses the `Auth` nonce the session accepted in the peer
    /// process's replay window; `false` (a replay) refuses the
    /// conversation.
    fn claim(&mut self, nonce: u64) -> bool;
    /// Carries out one session action at `now`, after `reported`
    /// seconds of the slot were reported.
    fn act(&mut self, action: MeasurerAction, now: SimTime, reported: u32);
    /// Report `second`'s `(background, measured)` bytes, asked once it
    /// is due; `None` silences the peer for the rest of its slot.
    fn second(&mut self, second: u32) -> Option<(u64, u64)>;
}

/// The peer half of one control conversation, with no I/O or clock of
/// its own: its host says when the transport is readable and what time
/// it is on the session's clock, and [`PeerConversation::step`] takes
/// the conversation's steps in one order, over sockets or in memory.
pub struct PeerConversation<T: Transport> {
    endpoint: Endpoint<MeasurerSession, T>,
    /// The session's accepted nonce went to [`Hooks::claim`].
    claimed: bool,
    /// [`Hooks::second`] declined a report: the slot reports no more.
    silent: bool,
    /// Terminal sessions get three flush steps before the conversation
    /// ends, so the tail (`SlotDone` / `Abort`) leaves a slow socket.
    terminal_flushes: u8,
}

impl<T: Transport> PeerConversation<T> {
    /// A conversation of `session` over `transport`.
    pub fn new(session: MeasurerSession, transport: T) -> Self {
        let endpoint = Endpoint::new(session, transport);
        PeerConversation { endpoint, claimed: false, silent: false, terminal_flushes: 0 }
    }

    /// The session and its transport.
    pub fn endpoint(&self) -> &Endpoint<MeasurerSession, T> {
        &self.endpoint
    }

    /// One step at `now`: read (only if `read`, so an idle step makes no
    /// syscall), claim the accepted nonce, tick, abort a handshake while
    /// `draining`, hand the actions to `hooks`, send the reports that are
    /// due, and flush, so a reply leaves in the step that heard the
    /// question. `true` once the session is terminal and three steps
    /// have flushed its tail: the conversation is over.
    pub fn step(
        &mut self,
        now: SimTime,
        read: bool,
        draining: bool,
        hooks: &mut impl Hooks,
    ) -> bool {
        // Bytes fed before the first step may carry the opener: claim it
        // before the pump flushes its `AuthOk`.
        self.claim(hooks);
        if read {
            self.endpoint.pump(now);
            self.claim(hooks);
        }
        self.endpoint.tick(now);
        let session = self.endpoint.session_mut();
        // Drain: finish a running slot, but abort a conversation still
        // in its handshake.
        let handshaking = matches!(
            session.phase(),
            MeasurerPhase::AwaitAuth | MeasurerPhase::AwaitCmd | MeasurerPhase::AwaitGo
        );
        if draining && handshaking {
            session.abort(AbortReason::Shutdown);
        }
        while let Some(action) = session.poll_action() {
            hooks.act(action, now, session.seconds_reported());
        }
        while !self.silent && session.next_report().is_some_and(|due| due <= now) {
            match hooks.second(session.seconds_reported()) {
                Some((bg, measured)) => session.report_second(bg, measured),
                None => self.silent = true,
            }
        }
        self.endpoint.flush(now);
        if self.endpoint.is_terminal() {
            self.terminal_flushes = self.terminal_flushes.saturating_add(1);
        }
        self.terminal_flushes >= 3
    }

    /// When the conversation next has clock-driven work: its session's
    /// timeout or next report, whichever is first, or [`SimTime::ZERO`]
    /// (due at once) for the step that arms a fresh session's accept
    /// deadline and for the terminal flushes.
    pub fn deadline(&self) -> Option<SimTime> {
        let session = self.endpoint.session();
        let unarmed = session.phase() == MeasurerPhase::AwaitAuth && session.deadline().is_none();
        if session.is_terminal() || unarmed {
            return Some(SimTime::ZERO);
        }
        let report = session.next_report().filter(|_| !self.silent);
        session.deadline().into_iter().chain(report).min()
    }

    /// Claims a newly accepted nonce: of two conversations presenting
    /// one opener, exactly one witnesses it first. The loser's queued
    /// `AuthOk` and actions are discarded before its `Abort`, so its
    /// coordinator never sees a handshake and its hooks never act.
    fn claim(&mut self, hooks: &mut impl Hooks) {
        let Some(nonce) = self.endpoint.session().accepted_nonce() else { return };
        if std::mem::replace(&mut self.claimed, true) || hooks.claim(nonce) {
            return;
        }
        let session = self.endpoint.session_mut();
        while session.poll_outbound().is_some() {}
        while session.poll_action().is_some() {}
        session.abort(AbortReason::AuthFailed);
    }
}

/// A role's [`Hooks`] over one conversation of the reactor host.
struct RoleHooks<'a, R: Role> {
    peer: &'a Peer<R>,
    conv: &'a mut R::Conv,
    span: &'a mut Span,
}

impl<R: Role> Hooks for RoleHooks<'_, R> {
    /// Claims in the process-wide window, which every shard shares.
    fn claim(&mut self, nonce: u64) -> bool {
        let fresh = crate::lock_recover(&self.peer.replay).witness(nonce);
        if !fresh {
            self.span.event("session.replay_drop");
        }
        fresh
    }

    fn act(&mut self, action: MeasurerAction, _now: SimTime, reported: u32) {
        let (peer, conv) = (self.peer, &mut *self.conv);
        match action {
            MeasurerAction::Prepare { spec } => {
                // `Ready` goes out with this step's flush, after the role
                // registers here, so a data dial that waits for `Go`
                // always finds the registration.
                peer.role.on_command(conv, self.span, &spec);
                // Every event from here on carries the coordinator's
                // trace id for this item-attempt.
                if spec.trace_id != 0 {
                    *self.span = self.span.trace(spec.trace_id);
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
            MeasurerAction::Start { spec } => R::on_start(peer, conv, self.span, &spec),
            MeasurerAction::Stop => peer.role.on_stop(conv, self.span, reported),
        }
    }

    fn second(&mut self, second: u32) -> Option<(u64, u64)> {
        Some(self.peer.role.second_report(self.conv, self.span, second))
    }
}

/// The reactor host of [`PeerConversation`]: one control connection
/// serving conversations back to back on a leased transport, so a
/// coordinator-side pool reuses warm connections across measurement
/// items. It keeps the session clock ([`Peer::snow`] since the
/// conversation began: every timeout and report instant is the same
/// wall time at any speedup), the write backlog, the session quota and
/// the warm restart; what a conversation means to the data plane is the
/// role's ([`Role::Conv`] and its hooks).
struct Conversation<R: Role> {
    peer: Arc<Peer<R>>,
    conn_id: u64,
    /// Conversations started on this connection.
    started: u64,
    talk: Option<PeerConversation<LeasedTransport<TcpTransport>>>,
    span: Span,
    /// The session clock's origin.
    t0: Instant,
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
            talk: None,
            span: peer.span.clone(),
            t0: Instant::now(),
            backlog: false,
            conv: peer.role.conversation(),
        };
        conversation.start_conversation(LeasedTransport::new(transport), Some(preread));
        conversation
    }

    /// Begins the next conversation on the (possibly warm) transport.
    fn start_conversation(
        &mut self,
        leased: LeasedTransport<TcpTransport>,
        preread: Option<Vec<u8>>,
    ) {
        let peer = &self.peer;
        let session_id = self.conn_id * 1_000 + self.started;
        self.started += 1;
        self.span = peer.span.session(session_id);
        let session = MeasurerSession::new(
            peer.settings.token,
            peer.role.session_role(),
            session_id,
            SessionTimeouts::for_speedup(peer.settings.speedup),
        );
        let mut talk = PeerConversation::new(session, leased);
        self.t0 = Instant::now();
        if let Some(bytes) = preread {
            talk.endpoint.session_mut().receive(SimTime::ZERO, &bytes);
        }
        self.conv = peer.role.conversation();
        self.talk = Some(talk);
    }

    /// One step of the conversation, on socket readiness or at its
    /// [`Conversation::deadline`]; a sweep before the deadline is
    /// skipped, unless the process drains.
    fn step(&mut self, why: Why) -> Step {
        if let (Why::Tick, Some(due)) = (why, self.deadline()) {
            if !self.peer.draining() && Instant::now() < due {
                return Step::Continue;
            }
        }
        let Some(talk) = self.talk.as_mut() else {
            return Step::Done;
        };
        let peer = &*self.peer;
        let now = peer.snow(self.t0);
        let mut hooks = RoleHooks { peer, conv: &mut self.conv, span: &mut self.span };
        if talk.step(now, matches!(why, Why::Ready), peer.draining(), &mut hooks) {
            return self.finish_conversation();
        }
        self.backlog = talk.endpoint.transport_mut().inner_mut().pending_send_bytes() > 0;
        Step::Continue
    }

    /// [`PeerConversation::deadline`] on the wall clock, a microsecond
    /// late so the step it wakes is not a float's rounding early.
    fn deadline(&self) -> Option<Instant> {
        let at = self.talk.as_ref()?.deadline()?;
        let wall = Duration::from_secs_f64(at.as_secs_f64() / self.peer.settings.speedup);
        Some(self.t0 + wall + Duration::from_micros(1))
    }

    /// Ends the current conversation: release what it registered, count
    /// the session, and either start the next conversation on the warm
    /// transport or finish the connection.
    fn finish_conversation(&mut self) -> Step {
        let Some(PeerConversation { endpoint, claimed, .. }) = self.talk.take() else {
            return Step::Done;
        };
        let reusable = endpoint.session().phase() == MeasurerPhase::Done
            && endpoint.transport_error().is_none();
        let (_session, leased) = endpoint.into_parts();
        self.peer.role.release(&mut self.conv);
        if claimed {
            self.peer.sessions_done.fetch_add(1, Ordering::SeqCst);
            if self.peer.quota_reached() {
                crate::stop_serving();
            }
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

    use flashflow_obs::EventSink;
    use flashflow_proto::frame::{encode, FrameDecoder};
    use flashflow_proto::msg::{Msg, FINGERPRINT_LEN};
    use flashflow_proto::transport::Duplex;

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
        fn on_start(_: &Peer<Self>, _: &mut (), _: &Span, _: &MeasureSpec) {}
        fn on_stop(&self, _conv: &mut (), _span: &Span, _seconds: u32) {}
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

    /// Hooks that record the actions reaching them, claiming in their
    /// own window.
    struct Recorded {
        window: ReplayWindow,
        acted: Vec<MeasurerAction>,
    }

    impl Hooks for Recorded {
        fn claim(&mut self, nonce: u64) -> bool {
            self.window.witness(nonce)
        }
        fn act(&mut self, action: MeasurerAction, _now: SimTime, _reported: u32) {
            self.acted.push(action);
        }
        fn second(&mut self, _second: u32) -> Option<(u64, u64)> {
            Some((0, 0))
        }
    }

    /// A recorded opener replayed together with its command reaches no
    /// hook, and its coordinator hears nothing but the refusal; a fresh
    /// opener on the same window is served.
    #[test]
    fn a_replayed_opener_and_its_command_reach_no_hook() {
        let token = [5; AUTH_TOKEN_LEN];
        let spec = MeasureSpec { slot_secs: 1, ..MeasureSpec::default() };
        let mut hooks = Recorded { window: ReplayWindow::default(), acted: Vec::new() };
        assert!(hooks.window.witness(0xA1), "accepted by an earlier conversation");
        for (nonce, served) in [(0xA1, false), (0xA2, true)] {
            let (mut coord, end) = Duplex::loopback().into_endpoints();
            let session =
                MeasurerSession::new(token, PeerRole::Target, 1, SessionTimeouts::DEFAULT);
            let mut talk = PeerConversation::new(session, end);
            let mut opener = encode(&Msg::Auth { token, role: PeerRole::Target, nonce });
            opener.extend(encode(&Msg::MeasureCmd(spec)));
            coord.send(SimTime::ZERO, &opener).expect("send");
            talk.step(SimTime::ZERO, true, false, &mut hooks);
            let mut decoder = FrameDecoder::new();
            decoder.push(&coord.recv(SimTime::ZERO).expect("recv"));
            let answers: Vec<_> =
                std::iter::from_fn(|| decoder.next_msg().expect("frame")).collect();
            if served {
                assert_eq!(hooks.acted, vec![MeasurerAction::Prepare { spec }]);
                assert!(matches!(answers[..], [Msg::AuthOk { .. }, Msg::Ready]), "{answers:?}");
            } else {
                assert_eq!(hooks.acted, vec![], "the replay reached a hook");
                assert_eq!(answers, vec![Msg::Abort { reason: AbortReason::AuthFailed }]);
            }
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
