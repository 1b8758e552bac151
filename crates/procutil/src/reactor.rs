//! A readiness-driven I/O core for the long-running binaries: raw
//! `epoll` + `eventfd` via `extern "C"` (crates.io is unreachable, so
//! no `libc`/`mio` — the same zero-dependency stance as the `signal(2)`
//! handler in the crate root), a [`Poller`]/[`Waker`] pair, and a
//! sharded [`Reactor`] that drives many connections per thread.
//!
//! The thread-per-connection model the binaries started with caps
//! concurrency at thread count; a production-scale measurement (k
//! measurers × many channels × many concurrent targets) needs the
//! paper's §5 socket-scaling shape instead — thousands of data
//! channels multiplexed over a handful of cores. The reactor owns
//! exactly the deployment-layer concerns (readiness, accept sharding,
//! wakeups, tick clocks); everything protocol-shaped stays in the
//! sans-IO sessions, which were already event-driven and do not change.
//!
//! Threading model: N shard threads, each with its **own** epoll
//! instance. The shared listening socket is registered in every
//! shard's epoll with `EPOLLEXCLUSIVE`, so the kernel wakes one shard
//! per connection burst instead of all of them (no thundering herd),
//! and accepted connections stay on the shard that accepted them —
//! no cross-thread handoff on the hot path. Each shard also carries an
//! [`Waker`] eventfd for cross-thread nudges (adoption of
//! externally-created connections, stop requests).
//!
//! Connections implement [`Driven`]: `on_ready` moves bytes when the
//! socket says so, `on_tick` runs clock-driven work (deadlines,
//! pacing) at the shard's tick cadence and is expected to stay
//! syscall-free while idle. Polling is level-triggered; a connection
//! that wants to flush a backlog raises [`Driven::wants_write`] and is
//! re-armed for `EPOLLOUT` until the backlog drains, and one that reads
//! on its tick instead of on arrival lowers [`Driven::wants_read`].
//!
//! Dial-out: [`dial`] opens a TCP connection without blocking
//! (`socket(2)` + `connect(2)` with `SOCK_NONBLOCK`, expecting
//! `EINPROGRESS`), and the connection it belongs to is handed to the
//! running reactor through a [`Spawner`] — from any thread, including a
//! hook running on one of the reactor's own shards. The connection stays
//! armed for write readiness while the dial is in flight; the first
//! `EPOLLOUT` (or error) lands in its `on_ready`, where [`dialed`] says
//! whether the handshake completed, is still in flight, or failed. No
//! shard ever waits for a handshake.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::FromRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flashflow_obs::{Counter, Gauge, Histogram, MetricsRegistry, Span, Value};

use crate::lock_recover;

// SAFETY: these are the exact kernel/libc prototypes on every Linux
// we target (see `epoll_create1(2)`, `epoll_ctl(2)`, `epoll_wait(2)`,
// `epoll_pwait2(2)`, `eventfd(2)`, `read(2)`, `write(2)`, `close(2)`,
// `socket(2)`, `connect(2)`): plain integer fds, pointer + length
// buffers, and C `int` returns with errno. The `EpollEvent` pointee
// matches the kernel's `struct epoll_event` layout (packed on
// x86/x86_64, naturally aligned elsewhere), and `Timespec` matches
// `struct timespec`; `connect`'s address is a `struct sockaddr_in` /
// `sockaddr_in6` byte image whose length travels with it.
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn epoll_pwait2(
        epfd: i32,
        events: *mut EpollEvent,
        maxevents: i32,
        timeout: *const Timespec,
        sigmask: *const u8,
    ) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0x80000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
/// One waiter per readiness edge on a shared fd (accept sharding).
const EPOLLEXCLUSIVE: u32 = 1 << 28;

const EFD_NONBLOCK: i32 = 0x800;
const EFD_CLOEXEC: i32 = 0x80000;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0x800;
const SOCK_CLOEXEC: i32 = 0x80000;
/// `connect(2)` on a nonblocking socket: the handshake continues in
/// the kernel and completes (or fails) as write readiness.
const EINPROGRESS: i32 = 115;
/// `epoll_pwait2(2)` on a kernel older than 5.11.
const ENOSYS: i32 = 38;

/// `addr` as the kernel's `struct sockaddr_in` (16 bytes) or
/// `sockaddr_in6` (28 bytes): family in host order, port and address in
/// network order, IPv6 flow info and scope id in host order (as
/// `std` passes them).
fn sockaddr(addr: SocketAddr) -> ([u8; 28], u32) {
    let mut raw = [0u8; 28];
    raw[2..4].copy_from_slice(&addr.port().to_be_bytes());
    match addr {
        SocketAddr::V4(v4) => {
            raw[..2].copy_from_slice(&AF_INET.to_ne_bytes());
            raw[4..8].copy_from_slice(&v4.ip().octets());
            (raw, 16)
        }
        SocketAddr::V6(v6) => {
            raw[..2].copy_from_slice(&AF_INET6.to_ne_bytes());
            raw[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
            raw[8..24].copy_from_slice(&v6.ip().octets());
            raw[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            (raw, 28)
        }
    }
}

/// Starts a TCP connection to `addr` without blocking: the returned
/// stream is nonblocking and close-on-exec, and its handshake is still
/// in flight. Register it for write readiness and ask [`dialed`] on the
/// first wakeup.
///
/// # Errors
/// The `socket(2)` errno, or a `connect(2)` errno other than
/// `EINPROGRESS` (a refusal the kernel already knows about).
pub fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
    let family = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
    // SAFETY: no pointers cross; the returned fd (or -1) is checked
    // before use.
    let fd = unsafe { socket(i32::from(family), SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh socket this function exclusively owns;
    // the stream takes that ownership and closes it on every path below.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let (raw, len) = sockaddr(addr);
    // SAFETY: `raw` is a live stack buffer of at least `len` bytes
    // holding a kernel-layout socket address; the kernel copies it
    // before returning.
    let rc = unsafe { connect(fd, raw.as_ptr(), len) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            return Err(err);
        }
    }
    Ok(stream)
}

/// Where a [`dial`] stands, asked on a readiness wakeup: `Ok(true)` once
/// the handshake completed, `Ok(false)` while it is still in flight.
///
/// # Errors
/// The handshake failed (`SO_ERROR`: refused, unreachable, timed out).
pub fn dialed(stream: &TcpStream) -> io::Result<bool> {
    if let Some(err) = stream.take_error()? {
        return Err(err);
    }
    match stream.peer_addr() {
        Ok(_) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotConnected => Ok(false),
        Err(e) => Err(e),
    }
}

/// The kernel's `struct epoll_event`. Packed on x86/x86_64 (the
/// kernel ABI there has no padding between the `u32` and the `u64`);
/// naturally aligned everywhere else.
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// The kernel's `struct timespec`: `time_t` and `long` are both the
/// native word on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: isize,
    tv_nsec: isize,
}

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or hung up / errored).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-side readiness only (the common case).
    pub const READ: Interest = Interest { readable: true, writable: false };

    fn bits(self) -> u32 {
        let mut bits = EPOLLRDHUP;
        if self.readable {
            bits |= EPOLLIN;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable — includes hangup and error conditions, so a read
    /// attempt surfaces whatever the kernel knows.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// A thin owner of one `epoll` instance.
#[derive(Debug)]
pub struct Poller {
    epfd: i32,
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    ///
    /// # Errors
    /// The `epoll_create1(2)` errno.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointers cross; the returned fd (or -1) is
        // checked before use.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` outlives the call; the kernel copies it before
        // returning. `DEL` ignores the event argument entirely.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with `interest` (level-triggered).
    ///
    /// # Errors
    /// The `epoll_ctl(2)` errno.
    pub fn register(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest.bits(), token)
    }

    /// Registers a **shared accept socket**: readable interest with
    /// `EPOLLEXCLUSIVE`, so when the same listener is registered in
    /// every shard's poller the kernel wakes one shard per burst.
    ///
    /// # Errors
    /// The `epoll_ctl(2)` errno.
    pub fn register_exclusive(&self, fd: i32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLEXCLUSIVE, token)
    }

    /// Re-arms `fd` with a different interest set.
    ///
    /// # Errors
    /// The `epoll_ctl(2)` errno.
    pub fn modify(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest.bits(), token)
    }

    /// Removes `fd` from the set.
    ///
    /// # Errors
    /// The `epoll_ctl(2)` errno.
    pub fn deregister(&self, fd: i32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout` for readiness, appending into `out`
    /// (cleared first). A signal-interrupted wait returns empty. The
    /// timeout has the kernel timer's resolution, not whole
    /// milliseconds, so a short wait sleeps rather than polls (on
    /// kernels before 5.11 it is rounded up to the next millisecond).
    ///
    /// # Errors
    /// The `epoll_pwait2(2)` errno (except `EINTR`).
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        out.clear();
        const MAX_EVENTS: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let ts = Timespec {
            tv_sec: isize::try_from(timeout.as_secs()).unwrap_or(isize::MAX),
            tv_nsec: timeout.subsec_nanos() as isize,
        };
        // SAFETY: `raw` is a valid, writable array of MAX_EVENTS
        // kernel-layout events; the kernel writes at most that many
        // and returns the count. `ts` outlives the call, and a null
        // signal mask leaves the mask alone.
        let mut n = unsafe {
            epoll_pwait2(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as i32, &ts, std::ptr::null())
        };
        if n < 0 && io::Error::last_os_error().raw_os_error() == Some(ENOSYS) {
            let ms = timeout.as_nanos().div_ceil(1_000_000);
            let timeout_ms = i32::try_from(ms).unwrap_or(i32::MAX);
            // SAFETY: as above.
            n = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms) };
        }
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for slot in raw.iter().take(n as usize) {
            // Copy out of the (possibly packed) struct before reading
            // fields; no references into it are taken.
            let ev = *slot;
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing an fd this struct exclusively owns.
        unsafe {
            close(self.epfd);
        }
    }
}

/// A cross-thread wakeup for one shard: an `eventfd` registered in the
/// shard's poller, so another thread can interrupt `epoll_wait` (stop
/// requests, adopted connections).
#[derive(Debug)]
pub struct Waker {
    fd: i32,
}

impl Waker {
    /// A fresh nonblocking eventfd.
    ///
    /// # Errors
    /// The `eventfd(2)` errno.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: no pointers cross; the returned fd (or -1) is
        // checked before use.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker { fd })
    }

    /// The fd to register for readable interest.
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Makes the waker's fd readable (idempotent until drained). A
    /// full counter (`EAGAIN`) already means "wake pending", so the
    /// result is deliberately ignored.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: writes 8 bytes from a live stack buffer to an fd
        // this struct owns; eventfd writes of exactly 8 bytes are the
        // documented contract.
        unsafe {
            write(self.fd, one.as_ptr(), one.len());
        }
    }

    /// Consumes pending wakeups so level-triggered polling settles.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reads at most 8 bytes into a live stack buffer from
        // an fd this struct owns; a nonblocking eventfd read returns
        // the counter or `EAGAIN`.
        unsafe {
            read(self.fd, buf.as_mut_ptr(), buf.len());
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: closing an fd this struct exclusively owns.
        unsafe {
            close(self.fd);
        }
    }
}

/// What a [`Driven`] connection wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Keep the connection registered.
    Continue,
    /// Finished (or failed): deregister and drop it.
    Done,
}

/// One reactor-driven connection: a state machine the shard calls into
/// on socket readiness and on its tick clock. Implementations own
/// their transport (and close it on drop) and compute their own
/// notion of time — the reactor is deliberately clock-agnostic.
pub trait Driven: Send {
    /// The raw fd the shard registers. Must stay stable for the
    /// connection's lifetime.
    fn fd(&self) -> i32;

    /// The socket is readable and/or writable (level-triggered; hangup
    /// and error conditions arrive as readable). Move bytes now.
    fn on_ready(&mut self) -> Step;

    /// The shard's tick fired (at least every [`ReactorConfig::tick`]).
    /// Clock-driven work only — deadlines, pacing, backlog flushes; an
    /// idle connection should return without a syscall.
    fn on_tick(&mut self) -> Step;

    /// True while the connection has queued output it could not flush:
    /// the shard re-arms it for write readiness until this clears.
    fn wants_write(&self) -> bool {
        false
    }

    /// False while the connection reads on its tick instead of on
    /// arrival (a paced stream whose replies may wait for the next
    /// tick): the shard then wakes it only for write readiness (when
    /// [`Driven::wants_write`]) and for hang-ups and errors.
    fn wants_read(&self) -> bool {
        true
    }
}

/// The readiness `conn` asks to be woken for.
fn interest_of(conn: &dyn Driven) -> Interest {
    Interest { readable: conn.wants_read(), writable: conn.wants_write() }
}

/// Reactor sizing.
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Shard (event-loop thread) count; clamped to at least 1.
    pub shards: usize,
    /// Tick cadence for clock-driven work, and the upper bound on how
    /// long a shard sleeps in `epoll_wait`.
    pub tick: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig { shards: 4, tick: Duration::from_millis(2) }
    }
}

/// Telemetry wiring for a reactor: where the per-shard runtime
/// instruments register and where stall events land. Instrumentation is
/// opt-in ([`Reactor::serve`] passes none) and the hot-path cost when
/// enabled is a handful of monotonic clock reads plus relaxed atomics
/// per loop turn — gated by the `instrumentation_overhead_guard` bench.
#[derive(Clone)]
pub struct ReactorObs {
    /// Registry the per-shard histograms/gauges/counters register in.
    pub registry: MetricsRegistry,
    /// Metric-name prefix, e.g. `"relay.reactor"` yields
    /// `relay.reactor.shard0.epoll_dwell_us`, `relay.reactor.stalls`, ….
    pub prefix: String,
    /// Span `reactor.stall` events are emitted on.
    pub span: Span,
    /// Budget for one full loop turn (event dispatch + adoption +
    /// ticks, excluding the `epoll_wait` sleep). A turn exceeding it
    /// increments `<prefix>.stalls` and emits one `reactor.stall`
    /// event — a loop that stalls is a loop whose tick clock (report
    /// pacing, deadlines) is drifting, which is exactly the §4.2
    /// per-second accounting hazard worth an operator page.
    pub stall_budget: Duration,
}

/// Bucket upper bounds (µs) for the `epoll_wait` dwell histogram: the
/// sleep is bounded by the tick (1–2 ms in the binaries), so buckets
/// concentrate there with headroom for scheduler overshoot.
const DWELL_BOUNDS_US: &[u64] = &[50, 100, 250, 500, 1_000, 2_000, 5_000, 10_000, 25_000];
/// Bucket upper bounds (µs) for per-`on_ready` dispatch latency: a
/// healthy dispatch is microseconds, so the low buckets are fine-grained
/// and the tail marks connections doing too much work per readiness.
const DISPATCH_BOUNDS_US: &[u64] = &[1, 2, 5, 10, 25, 50, 100, 250, 1_000, 5_000];
/// Bucket upper bounds (µs) for tick-to-tick jitter (elapsed minus the
/// configured cadence when a tick sweep fires).
const JITTER_BOUNDS_US: &[u64] = &[10, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000];

/// One shard's registered instruments (see [`ReactorObs`]).
struct ShardObs {
    /// Time spent inside `epoll_wait` per loop turn.
    dwell_us: Histogram,
    /// Per-`on_ready` dispatch latency.
    dispatch_us: Histogram,
    /// Tick-sweep overshoot beyond the configured cadence.
    tick_jitter_us: Histogram,
    /// Live slots in this shard's slab.
    occupancy: Gauge,
    /// Slots currently armed for write readiness (unflushed backlog).
    backlog: Gauge,
    /// Loop turns that blew [`ReactorObs::stall_budget`] (shared across
    /// shards — one counter per reactor).
    stalls: Counter,
    span: Span,
    stall_budget: Duration,
}

impl ShardObs {
    fn register(obs: &ReactorObs, shard_ix: usize) -> ShardObs {
        let name = |what: &str| format!("{}.shard{shard_ix}.{what}", obs.prefix);
        ShardObs {
            dwell_us: obs.registry.histogram(&name("epoll_dwell_us"), DWELL_BOUNDS_US),
            dispatch_us: obs.registry.histogram(&name("dispatch_us"), DISPATCH_BOUNDS_US),
            tick_jitter_us: obs.registry.histogram(&name("tick_jitter_us"), JITTER_BOUNDS_US),
            occupancy: obs.registry.gauge(&name("slab_live")),
            backlog: obs.registry.gauge(&name("write_backlog")),
            stalls: obs.registry.counter(&format!("{}.stalls", obs.prefix)),
            span: obs.span.clone(),
            stall_budget: obs.stall_budget,
        }
    }
}

/// Saturating whole-microsecond rendering of a duration for histogram
/// observation.
fn whole_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Builds [`Driven`] connections from freshly accepted sockets.
/// Returning `None` drops the connection (admission control: quota,
/// drain). The stream arrives still blocking; implementations that
/// wrap it in a `TcpTransport` get nonblocking + `TCP_NODELAY` set by
/// `TcpTransport::from_stream`.
pub type AcceptFn = dyn Fn(TcpStream, SocketAddr) -> Option<Box<dyn Driven>> + Send + Sync;

/// Shared flags and gauges across shards.
#[derive(Debug, Default)]
struct Flags {
    /// Graceful stop: shards deregister the listener and exit once
    /// their last connection finishes.
    stop: AtomicBool,
    /// Live connections across all shards.
    live: AtomicU64,
    /// Connections accepted + adopted over the reactor's lifetime.
    served: AtomicU64,
    /// Shards that exited on a poller error instead of a stop.
    failed: AtomicUsize,
}

struct ShardRemote {
    waker: Arc<Waker>,
    /// Connections handed in from other threads ([`Spawner::adopt`]).
    inbox: Mutex<Vec<Box<dyn Driven>>>,
}

/// A cloneable handle that hands connections to a running reactor's
/// shards (round-robin) from any thread — including a hook running on
/// one of its own shards, which is how a connection dialed mid-step
/// ([`dial`]) joins the loop. The shard picks an adopted connection up
/// at the end of its current turn.
#[derive(Clone)]
pub struct Spawner {
    shards: Arc<[Arc<ShardRemote>]>,
    next: Arc<AtomicUsize>,
}

impl Spawner {
    /// Hands `conn` to the next shard and wakes it.
    pub fn adopt(&self, conn: Box<dyn Driven>) {
        let ix = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let shard = &self.shards[ix];
        lock_recover(&shard.inbox).push(conn);
        shard.waker.wake();
    }
}

/// A running sharded event loop. Dropping the handle does **not** stop
/// it; call [`Reactor::stop`] then [`Reactor::join`].
pub struct Reactor {
    spawner: Spawner,
    threads: Vec<std::thread::JoinHandle<()>>,
    flags: Arc<Flags>,
}

impl Reactor {
    /// Starts `cfg.shards` event-loop threads serving `listener`
    /// (registered `EPOLLEXCLUSIVE` in every shard), building
    /// connections with `factory`. Pass no listener to run a pure
    /// adoption-driven reactor (tests, client-side pools).
    ///
    /// # Errors
    /// Poller/waker creation or listener registration errno.
    pub fn serve(
        listener: Option<TcpListener>,
        cfg: ReactorConfig,
        factory: Arc<AcceptFn>,
    ) -> io::Result<Reactor> {
        Reactor::serve_observed(listener, cfg, factory, None)
    }

    /// [`Reactor::serve`] with runtime telemetry: each shard registers
    /// dwell/dispatch/jitter histograms and occupancy/backlog gauges
    /// under `obs.prefix`, and loop turns exceeding the stall budget
    /// emit `reactor.stall` (see [`ReactorObs`]).
    ///
    /// # Errors
    /// Poller/waker creation or listener registration errno.
    pub fn serve_observed(
        listener: Option<TcpListener>,
        cfg: ReactorConfig,
        factory: Arc<AcceptFn>,
        obs: Option<ReactorObs>,
    ) -> io::Result<Reactor> {
        let shard_count = cfg.shards.max(1);
        let listener = match listener {
            Some(l) => {
                l.set_nonblocking(true)?;
                Some(Arc::new(l))
            }
            None => None,
        };
        let flags = Arc::new(Flags::default());
        let mut shards = Vec::with_capacity(shard_count);
        let mut threads = Vec::with_capacity(shard_count);
        for shard_ix in 0..shard_count {
            let poller = Poller::new()?;
            let waker = Arc::new(Waker::new()?);
            poller.register(waker.fd(), TOKEN_WAKER, Interest::READ)?;
            if let Some(listener) = &listener {
                use std::os::fd::AsRawFd;
                poller.register_exclusive(listener.as_raw_fd(), TOKEN_LISTENER)?;
            }
            let remote = Arc::new(ShardRemote { waker, inbox: Mutex::new(Vec::new()) });
            let shard = Shard {
                ix: shard_ix,
                poller,
                remote: Arc::clone(&remote),
                listener: listener.clone(),
                factory: Arc::clone(&factory),
                flags: Arc::clone(&flags),
                tick: cfg.tick.max(Duration::from_millis(1)),
                obs: obs.as_ref().map(|o| ShardObs::register(o, shard_ix)),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("reactor-{shard_ix}"))
                    .spawn(move || shard.run())?,
            );
            shards.push(remote);
        }
        let spawner = Spawner { shards: shards.into(), next: Arc::new(AtomicUsize::new(0)) };
        Ok(Reactor { spawner, threads, flags })
    }

    /// Hands an externally created connection to a shard (round-robin).
    pub fn adopt(&self, conn: Box<dyn Driven>) {
        self.spawner.adopt(conn);
    }

    /// A handle that keeps adopting connections into this reactor after
    /// the caller has moved on (see [`Spawner`]).
    pub fn spawner(&self) -> Spawner {
        self.spawner.clone()
    }

    /// Live connections across all shards.
    pub fn live(&self) -> u64 {
        self.flags.live.load(Ordering::SeqCst)
    }

    /// Connections accepted or adopted over the reactor's lifetime.
    pub fn served(&self) -> u64 {
        self.flags.served.load(Ordering::SeqCst)
    }

    /// Requests a graceful stop: shards stop accepting and exit once
    /// their connections finish. Connections that linger are the
    /// caller's to drain (their `on_tick` deadlines decide).
    pub fn stop(&self) {
        self.flags.stop.store(true, Ordering::SeqCst);
        for shard in self.spawner.shards.iter() {
            shard.waker.wake();
        }
    }

    /// Waits for every shard to exit. Returns `Err` with the count of
    /// shards that died on a poller error rather than a stop request.
    ///
    /// # Errors
    /// The number of failed shards, stringified (the binaries fold
    /// this into their exit diagnostics).
    pub fn join(self) -> Result<(), String> {
        for t in self.threads {
            if t.join().is_err() {
                self.flags.failed.fetch_add(1, Ordering::SeqCst);
            }
        }
        match self.flags.failed.load(Ordering::SeqCst) {
            0 => Ok(()),
            n => Err(format!("{n} reactor shard(s) failed")),
        }
    }
}

const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_CONN0: u64 = 2;

struct Slot {
    conn: Box<dyn Driven>,
    /// What the registration currently asks for.
    interest: Interest,
}

struct Shard {
    ix: usize,
    poller: Poller,
    remote: Arc<ShardRemote>,
    listener: Option<Arc<TcpListener>>,
    factory: Arc<AcceptFn>,
    flags: Arc<Flags>,
    tick: Duration,
    obs: Option<ShardObs>,
}

impl Shard {
    fn run(self) {
        let mut slots: Vec<Option<Slot>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut listening = self.listener.is_some();
        let mut last_tick = Instant::now();
        loop {
            // Clock reads below are Option-gated so an uninstrumented
            // reactor's loop stays exactly as it was.
            let slept = self.obs.as_ref().map(|_| Instant::now());
            if self.poller.wait(&mut events, self.tick).is_err() {
                self.flags.failed.fetch_add(1, Ordering::SeqCst);
                break;
            }
            let turn_start = match (&self.obs, slept) {
                (Some(obs), Some(slept)) => {
                    let now = Instant::now();
                    obs.dwell_us.observe(whole_us(now.duration_since(slept)));
                    Some(now)
                }
                _ => None,
            };
            for ev in &events {
                match ev.token {
                    TOKEN_WAKER => self.remote.waker.drain(),
                    TOKEN_LISTENER => self.accept_burst(&mut slots, &mut free),
                    token => {
                        let slot_ix = (token - TOKEN_CONN0) as usize;
                        let before = self.obs.as_ref().map(|_| Instant::now());
                        self.drive(&mut slots, &mut free, slot_ix, DriveWhy::Ready);
                        if let (Some(obs), Some(before)) = (&self.obs, before) {
                            obs.dispatch_us.observe(whole_us(before.elapsed()));
                        }
                    }
                }
            }
            // Adopted connections join this shard's slab.
            let adopted = std::mem::take(&mut *lock_recover(&self.remote.inbox));
            for conn in adopted {
                self.insert(&mut slots, &mut free, conn);
            }
            if self.flags.stop.load(Ordering::SeqCst) && listening {
                if let Some(listener) = &self.listener {
                    use std::os::fd::AsRawFd;
                    let _ = self.poller.deregister(listener.as_raw_fd());
                }
                listening = false;
            }
            if last_tick.elapsed() >= self.tick {
                if let Some(obs) = &self.obs {
                    let overshoot = last_tick.elapsed().saturating_sub(self.tick);
                    obs.tick_jitter_us.observe(whole_us(overshoot));
                }
                last_tick = Instant::now();
                for slot_ix in 0..slots.len() {
                    self.drive(&mut slots, &mut free, slot_ix, DriveWhy::Tick);
                }
            }
            if let Some(obs) = &self.obs {
                obs.occupancy.set(slots.iter().flatten().count() as i64);
                obs.backlog
                    .set(slots.iter().flatten().filter(|s| s.interest.writable).count() as i64);
                if let Some(turn_start) = turn_start {
                    let busy = turn_start.elapsed();
                    if busy > obs.stall_budget {
                        obs.stalls.inc();
                        obs.span.emit(
                            "reactor.stall",
                            vec![
                                ("shard".to_string(), Value::from(self.ix as u64)),
                                ("busy_us".to_string(), Value::from(whole_us(busy))),
                            ],
                        );
                    }
                }
            }
            if self.flags.stop.load(Ordering::SeqCst)
                && slots.iter().all(std::option::Option::is_none)
            {
                break;
            }
        }
    }

    fn accept_burst(&self, slots: &mut Vec<Option<Slot>>, free: &mut Vec<usize>) {
        let Some(listener) = &self.listener else { return };
        if self.flags.stop.load(Ordering::SeqCst) {
            return;
        }
        // Accept until the first error: WouldBlock means another shard
        // won the race or the burst is drained; transient errors
        // (aborted handshakes, fd pressure) end the burst and the next
        // readiness event retries.
        while let Ok((stream, addr)) = listener.accept() {
            if let Some(conn) = (self.factory)(stream, addr) {
                self.insert(slots, free, conn);
            }
        }
    }

    fn insert(&self, slots: &mut Vec<Option<Slot>>, free: &mut Vec<usize>, conn: Box<dyn Driven>) {
        let slot_ix = match free.pop() {
            Some(ix) => ix,
            None => {
                slots.push(None);
                slots.len() - 1
            }
        };
        let token = TOKEN_CONN0 + slot_ix as u64;
        let interest = interest_of(&*conn);
        if self.poller.register(conn.fd(), token, interest).is_err() {
            // Registration failing (fd limit, dead socket) drops the
            // connection; the slot returns to the free list.
            free.push(slot_ix);
            return;
        }
        slots[slot_ix] = Some(Slot { conn, interest });
        self.flags.served.fetch_add(1, Ordering::SeqCst);
        self.flags.live.fetch_add(1, Ordering::SeqCst);
    }

    fn drive(
        &self,
        slots: &mut [Option<Slot>],
        free: &mut Vec<usize>,
        slot_ix: usize,
        why: DriveWhy,
    ) {
        let Some(slot) = slots.get_mut(slot_ix).and_then(std::option::Option::as_mut) else {
            // Stale token: the connection finished earlier in this
            // same event batch.
            return;
        };
        let step = match why {
            DriveWhy::Ready => slot.conn.on_ready(),
            DriveWhy::Tick => slot.conn.on_tick(),
        };
        match step {
            Step::Continue => {
                let wants = interest_of(&*slot.conn);
                if wants != slot.interest {
                    let token = TOKEN_CONN0 + slot_ix as u64;
                    if self.poller.modify(slot.conn.fd(), token, wants).is_ok() {
                        slot.interest = wants;
                    }
                }
            }
            Step::Done => {
                let _ = self.poller.deregister(slot.conn.fd());
                slots[slot_ix] = None;
                free.push(slot_ix);
                self.flags.live.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

#[derive(Clone, Copy)]
enum DriveWhy {
    Ready,
    Tick,
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_proto::tcp::TcpTransport;
    use flashflow_proto::transport::Transport;
    use flashflow_simnet::time::SimTime;
    use std::io::{Read as _, Write as _};

    /// Echoes raw bytes until the peer hangs up.
    struct RawEcho {
        t: TcpTransport,
    }

    impl Driven for RawEcho {
        fn fd(&self) -> i32 {
            self.t.raw_fd()
        }

        fn on_ready(&mut self) -> Step {
            loop {
                match self.t.recv(SimTime::ZERO) {
                    Ok(bytes) if bytes.is_empty() => return Step::Continue,
                    Ok(bytes) => {
                        if self.t.send(SimTime::ZERO, &bytes).is_err() {
                            return Step::Done;
                        }
                    }
                    Err(_) => return Step::Done,
                }
            }
        }

        fn on_tick(&mut self) -> Step {
            if self.t.pending_send_bytes() > 0 && self.t.send(SimTime::ZERO, &[]).is_err() {
                return Step::Done;
            }
            Step::Continue
        }

        fn wants_write(&self) -> bool {
            self.t.pending_send_bytes() > 0
        }
    }

    fn echo_factory() -> Arc<AcceptFn> {
        Arc::new(|stream, _addr| {
            let t = TcpTransport::from_stream(stream).ok()?;
            Some(Box::new(RawEcho { t }) as Box<dyn Driven>)
        })
    }

    #[test]
    fn poller_sees_readable_after_peer_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        served.set_nonblocking(true).expect("nonblocking");

        let poller = Poller::new().expect("poller");
        {
            use std::os::fd::AsRawFd;
            poller.register(served.as_raw_fd(), 7, Interest::READ).expect("register");
        }
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).expect("wait");
        assert!(events.is_empty(), "no bytes yet: {events:?}");

        client.write_all(b"ping").expect("write");
        poller.wait(&mut events, Duration::from_secs(5)).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn waker_interrupts_a_wait_from_another_thread() {
        let poller = Poller::new().expect("poller");
        let waker = Arc::new(Waker::new().expect("waker"));
        poller.register(waker.fd(), 1, Interest::READ).expect("register");

        let remote = Arc::clone(&waker);
        let handle = std::thread::spawn(move || remote.wake());
        let mut events = Vec::new();
        let start = Instant::now();
        // Generous timeout: the wake must land well before it.
        poller.wait(&mut events, Duration::from_secs(30)).expect("wait");
        handle.join().expect("join");
        assert!(!events.is_empty(), "woken, not timed out");
        assert!(start.elapsed() < Duration::from_secs(10));
        waker.drain();
    }

    #[test]
    fn reactor_echoes_across_many_connections_and_shards() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let reactor = Reactor::serve(
            Some(listener),
            ReactorConfig { shards: 3, tick: Duration::from_millis(1) },
            echo_factory(),
        )
        .expect("reactor");

        let mut clients: Vec<TcpStream> =
            (0..24).map(|_| TcpStream::connect(addr).expect("connect")).collect();
        for (ix, c) in clients.iter_mut().enumerate() {
            let msg = format!("hello-{ix}");
            c.write_all(msg.as_bytes()).expect("write");
        }
        for (ix, c) in clients.iter_mut().enumerate() {
            let want = format!("hello-{ix}");
            let mut got = vec![0u8; want.len()];
            c.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
            c.read_exact(&mut got).expect("echo back");
            assert_eq!(got, want.as_bytes(), "connection {ix}");
        }
        assert_eq!(reactor.served(), 24);
        assert_eq!(reactor.live(), 24);

        drop(clients);
        reactor.stop();
        reactor.join().expect("clean join");
    }

    #[test]
    fn adopted_connections_are_driven_without_a_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let reactor = Reactor::serve(
            None,
            ReactorConfig { shards: 2, tick: Duration::from_millis(1) },
            Arc::new(|_, _| None),
        )
        .expect("reactor");

        let mut client = TcpStream::connect(addr).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        let t = TcpTransport::from_stream(served).expect("transport");
        reactor.adopt(Box::new(RawEcho { t }));

        client.write_all(b"adopted").expect("write");
        let mut got = [0u8; 7];
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        client.read_exact(&mut got).expect("echo");
        assert_eq!(&got, b"adopted");

        drop(client);
        reactor.stop();
        reactor.join().expect("clean join");
    }

    #[test]
    fn observed_reactor_registers_per_shard_instruments() {
        let registry = MetricsRegistry::new();
        let sink = flashflow_obs::EventSink::new();
        let obs = ReactorObs {
            registry: registry.clone(),
            prefix: "test.reactor".to_string(),
            span: Span::root(sink),
            stall_budget: Duration::from_secs(5),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let reactor = Reactor::serve_observed(
            Some(listener),
            ReactorConfig { shards: 2, tick: Duration::from_millis(1) },
            echo_factory(),
            Some(obs),
        )
        .expect("reactor");

        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(b"probe").expect("write");
        let mut got = [0u8; 5];
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        client.read_exact(&mut got).expect("echo back");

        let snap = registry.snapshot();
        for shard in 0..2 {
            for what in ["epoll_dwell_us", "dispatch_us", "tick_jitter_us"] {
                let name = format!("test.reactor.shard{shard}.{what}");
                assert!(
                    snap.histograms.iter().any(|(n, _)| *n == name),
                    "missing histogram {name}"
                );
            }
            for what in ["slab_live", "write_backlog"] {
                let name = format!("test.reactor.shard{shard}.{what}");
                assert!(snap.gauges.iter().any(|(n, _)| *n == name), "missing gauge {name}");
            }
        }
        assert!(snap.counters.iter().any(|(n, _)| n == "test.reactor.stalls"));
        // The serving shard slept in epoll_wait at least once, so its
        // dwell histogram has observations.
        let dwell_total: u64 = snap
            .histograms
            .iter()
            .filter(|(n, _)| n.ends_with("epoll_dwell_us"))
            .map(|(_, h)| h.count)
            .sum();
        assert!(dwell_total > 0, "no dwell observations");

        drop(client);
        reactor.stop();
        reactor.join().expect("clean join");
    }

    #[test]
    fn stall_budget_breach_emits_event_and_counter() {
        /// Sleeps once inside `on_ready`, blowing any sub-sleep budget.
        struct SlowConn {
            t: TcpTransport,
            slept: bool,
        }

        impl Driven for SlowConn {
            fn fd(&self) -> i32 {
                self.t.raw_fd()
            }

            fn on_ready(&mut self) -> Step {
                if !self.slept {
                    self.slept = true;
                    std::thread::sleep(Duration::from_millis(30));
                }
                match self.t.recv(SimTime::ZERO) {
                    Ok(_) => Step::Continue,
                    Err(_) => Step::Done,
                }
            }

            fn on_tick(&mut self) -> Step {
                Step::Continue
            }
        }

        let registry = MetricsRegistry::new();
        let sink = flashflow_obs::EventSink::new();
        let obs = ReactorObs {
            registry: registry.clone(),
            prefix: "test.reactor".to_string(),
            span: Span::root(sink.clone()),
            stall_budget: Duration::from_millis(5),
        };
        let reactor = Reactor::serve_observed(
            None,
            ReactorConfig { shards: 1, tick: Duration::from_millis(1) },
            Arc::new(|_, _| None),
            Some(obs),
        )
        .expect("reactor");

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        let t = TcpTransport::from_stream(served).expect("transport");
        reactor.adopt(Box::new(SlowConn { t, slept: false }));
        client.write_all(b"tick").expect("write");

        let deadline = Instant::now() + Duration::from_secs(30);
        let stalls = registry.counter("test.reactor.stalls");
        while stalls.get() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(stalls.get() > 0, "stall counter never incremented");
        assert!(
            sink.ring().iter().any(|e| e.kind == "reactor.stall"),
            "no reactor.stall event emitted"
        );

        drop(client);
        reactor.stop();
        reactor.join().expect("clean join");
    }

    #[test]
    fn stop_exits_promptly_when_idle() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let reactor = Reactor::serve(Some(listener), ReactorConfig::default(), echo_factory())
            .expect("reactor");
        reactor.stop();
        reactor.join().expect("clean join");
    }
}
