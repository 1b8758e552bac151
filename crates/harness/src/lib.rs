//! The process-test harness: the one way an integration test finds,
//! spawns, talks to and reaps the workspace's peer binaries
//! (`flashflow-measurer`, `flashflow-relay`, `flashflow-coord`,
//! `flashflow-top`).
//!
//! - **Binaries.** [`bin`] and [`release_bin`] build every peer binary
//!   in one `cargo build -p … --bins` per profile and test process, then
//!   find it in the test's own target directory. A filtered
//!   `cargo test -p <crate>` builds no other package's binaries, and a
//!   stale one from an older protocol version fails its handshake in
//!   confusing ways.
//! - **Tokens.** Peer `ix` authenticates with [`token`]`(ix)`, 32 bytes
//!   of `0x21 + ix`; the relay is peer [`RELAY`].
//! - **Children.** A [`Proc`] reads the `listening <addr>` and
//!   `metrics <addr>` lines its child advertises, keeps every stderr
//!   line with the instant it was read, and SIGTERMs and waits under the
//!   caller's deadline. Dropping it kills and reaps the child, so a
//!   failed assertion never leaves a peer holding a port; dropped while
//!   its thread panics, it first prints the child's stderr, each line
//!   prefixed with the child's name.
//! - **The three-party topology.** Two measurers at [`MEASURER_CAPS`]
//!   and one relay offering background traffic, as [`deployment`] and
//!   [`round_items`] describe them to `flashflow_core::echo`.
//! - **Readers** of the JSONL event streams the processes write, and of
//!   `/proc` for thread counts, CPU seconds and voluntary context
//!   switches.
//!
//! Dev-only: `flashflow-relay` and `flashflow-coord` take it as a
//! dev-dependency, and it is never published.

use std::ffi::OsStr;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use flashflow_core::echo::{item_trace_id, EchoDeployment, EchoItem, EchoMeasurer};
use flashflow_obs::Event;
use flashflow_proto::msg::{TargetEndpoint, AUTH_TOKEN_LEN, FINGERPRINT_LEN};

/// The packages whose binaries [`bin`] builds.
const PACKAGES: [&str; 4] =
    ["flashflow-measurer", "flashflow-relay", "flashflow-coord", "flashflow-top"];

/// Binary `name`, built in the profile the running test was built in.
pub fn bin(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("test exe path");
    // The test runs as `<target>/<profile>/deps/<name>-<hash>`.
    let profile = exe.parent().and_then(Path::parent).expect("test exe in <profile>/deps");
    built(profile.ends_with("release")).join(name)
}

/// Binary `name`, optimised as it ships, whatever the test's profile.
pub fn release_bin(name: &str) -> PathBuf {
    built(true).join(name)
}

/// The profile directory holding every peer binary, built on first use
/// in this test process.
fn built(release: bool) -> &'static Path {
    static BUILT: [OnceLock<PathBuf>; 2] = [OnceLock::new(), OnceLock::new()];
    BUILT[usize::from(release)].get_or_init(|| {
        let mut build = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
        build.arg("build").arg("--bins");
        for package in PACKAGES {
            build.args(["-p", package]);
        }
        if release {
            build.arg("--release");
        }
        assert!(build.status().expect("spawn cargo build").success(), "building the peers failed");
        let exe = std::env::current_exe().expect("test exe path");
        let target = exe.ancestors().nth(3).expect("test exe in <target>/<profile>/deps");
        target.join(if release { "release" } else { "debug" })
    })
}

/// How long a child gets to exit once its work is done: a coordinator
/// to finish its period, a peer to drain.
const EXIT: Duration = Duration::from_secs(30);

/// The peer index of the relay in [`token`]'s numbering, clear of every
/// measurer index in use.
pub const RELAY: usize = 9;

/// The token peer `ix` authenticates with: bytes of `0x21 + ix`.
pub fn token(ix: usize) -> [u8; AUTH_TOKEN_LEN] {
    [0x21 + ix as u8; AUTH_TOKEN_LEN]
}

/// [`token`] as `--token-hex` takes it.
pub fn token_hex(ix: usize) -> String {
    token(ix).iter().map(|b| format!("{b:02x}")).collect()
}

/// A spawned child process. Dropping it kills and reaps the process.
pub struct Proc {
    /// The name given at spawn, with the pid.
    name: String,
    child: Child,
    stdout: Arc<Lines>,
    /// Stdout lines [`Proc::advertised`] has consumed.
    advertised: usize,
    stderr: Arc<Lines>,
}

impl Proc {
    /// Spawns `bin` with `args`; `name` is what messages and the stderr
    /// dump call it.
    pub fn spawn(
        name: &str,
        bin: &Path,
        args: impl IntoIterator<Item = impl AsRef<OsStr>>,
    ) -> Proc {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name} ({}): {e}", bin.display()));
        let stdout = Lines::collect(child.stdout.take().expect("piped stdout"));
        let stderr = Lines::collect(child.stderr.take().expect("piped stderr"));
        Proc { name: format!("{name}[{}]", child.id()), child, stdout, advertised: 0, stderr }
    }

    /// The address on the child's next stdout line, `<what> <addr>`:
    /// `listening` for its serving socket, `metrics` for its metrics
    /// endpoint.
    pub fn advertised(&mut self, what: &str) -> SocketAddr {
        let Some(line) = self.stdout.line(self.advertised) else {
            panic!("{} exited before advertising {what}", self.name)
        };
        self.advertised += 1;
        let addr = line.trim().strip_prefix(what).and_then(|rest| rest.strip_prefix(' '));
        let addr = addr.unwrap_or_else(|| panic!("{}: unexpected stdout line {line:?}", self.name));
        addr.parse().unwrap_or_else(|e| panic!("{}: advertised {addr:?}: {e}", self.name))
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The child's stderr event lines of kind `kind` so far
    /// (`[<secs>] <kind> key=value …`), each with when it was read: the
    /// child's own timestamps count from its own start.
    pub fn logged(&self, kind: &str) -> Vec<(Instant, String)> {
        let of_kind = |line: &str| {
            line.split_once(']').and_then(|(_, rest)| rest.split_whitespace().next()) == Some(kind)
        };
        self.stderr.state().0.iter().filter(|(_, line)| of_kind(line)).cloned().collect()
    }

    /// Sends SIGTERM: a peer drains and exits 0.
    pub fn sigterm(&mut self) {
        // SAFETY: `kill(2)`'s POSIX prototype, declared verbatim: two C
        // `int`s in, a C `int` out, no pointers.
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        if self.child.try_wait().expect("try_wait").is_some() {
            return; // Exited and reaped: its pid may name another process.
        }
        let pid = i32::try_from(self.pid()).expect("a pid fits a pid_t");
        // SAFETY: the pid is a child this handle spawned and has not
        // reaped, so it cannot have been recycled.
        let rc = unsafe { kill(pid, 15) };
        assert_eq!(rc, 0, "SIGTERM {}", self.name);
    }

    /// Waits until `deadline` for the child to exit; `None` while it
    /// still runs.
    pub fn wait_until(&mut self, deadline: Instant) -> Option<ExitStatus> {
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return Some(status);
            }
            if Instant::now() >= deadline {
                return None;
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// Waits up to 30 s for the child to exit by itself, asserts it
    /// exited 0, and returns its stdout.
    pub fn exit_zero(&mut self) -> String {
        let Some(status) = self.wait_until(Instant::now() + EXIT) else {
            panic!("{} did not exit", self.name)
        };
        // Its pipes closed with it; let the readers take the last lines.
        let caught_up = Instant::now() + Duration::from_secs(1);
        self.stderr.ended_by(caught_up);
        self.stdout.ended_by(caught_up);
        let stdout = self.stdout.text();
        assert!(status.success(), "{} exited with {status}; stdout:\n{stdout}", self.name);
        stdout
    }

    /// SIGKILLs the child and reaps it. Idempotent.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
        if thread::panicking() {
            self.stderr.ended_by(Instant::now() + Duration::from_secs(1));
            for (_, line) in &self.stderr.state().0 {
                eprintln!("{}: {line}", self.name);
            }
        }
    }
}

/// Waits for each child in turn to exit 0 by itself.
pub fn exit_zero_all<const N: usize>(children: [Proc; N]) {
    for mut child in children {
        child.exit_zero();
    }
}

/// SIGTERMs each child in turn and asserts it drains to exit 0: a peer
/// wedged on a parked conversation blows the deadline instead.
pub fn drain_all<const N: usize>(children: [Proc; N]) {
    for mut child in children {
        child.sigterm();
        child.exit_zero();
    }
}

/// One output stream of a child, line by line, each line stamped with
/// when it was read; the flag says the stream has ended.
#[derive(Default)]
struct Lines {
    state: Mutex<(Vec<(Instant, String)>, bool)>,
    grew: Condvar,
}

impl Lines {
    /// Reads `stream` on a thread of its own until it ends. The thread
    /// is not joined: [`Proc`] waits for the end of the stream with a
    /// deadline instead, so a descendant that inherited the pipe cannot
    /// hang a drop.
    fn collect(stream: impl Read + Send + 'static) -> Arc<Lines> {
        let lines = Arc::new(Lines::default());
        let sink = Arc::clone(&lines);
        thread::spawn(move || {
            for line in BufReader::new(stream).lines().map_while(Result::ok) {
                sink.state().0.push((Instant::now(), line));
                sink.grew.notify_all();
            }
            sink.state().1 = true;
            sink.grew.notify_all();
        });
        lines
    }

    fn state(&self) -> MutexGuard<'_, (Vec<(Instant, String)>, bool)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Line `ix`, once read; `None` if the stream ends short of it.
    fn line(&self, ix: usize) -> Option<String> {
        let mut state = self.state();
        loop {
            if let Some((_, line)) = state.0.get(ix) {
                return Some(line.clone());
            }
            if state.1 {
                return None;
            }
            state = self.grew.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Waits until the stream has ended or `deadline` has passed.
    fn ended_by(&self, deadline: Instant) {
        let mut state = self.state();
        while !state.1 && Instant::now() < deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            state = self.grew.wait_timeout(state, left).unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    /// Every line so far, newline-terminated.
    fn text(&self) -> String {
        self.state().0.iter().map(|(_, line)| format!("{line}\n")).collect()
    }
}

/// The events of a JSONL file (`--log-json`, a coordinator's event
/// sink), asserting every line parses.
pub fn read_jsonl(path: &Path) -> Vec<Event> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let parse = |line: &str| {
        Event::parse_json_line(line).unwrap_or_else(|e| panic!("malformed JSONL {line:?}: {e}"))
    };
    text.lines().map(parse).collect()
}

/// The `Threads:` figure from `/proc/<pid>/status`.
pub fn thread_count(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read /proc status");
    let threads = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("Threads: line");
    threads.trim().parse().expect("thread count")
}

/// User + system CPU seconds process `pid` has used so far.
pub fn cpu_secs(pid: u32) -> f64 {
    stat_cpu_secs(&format!("/proc/{pid}/stat"))
}

/// User + system CPU seconds the calling thread has used so far.
pub fn thread_cpu_secs() -> f64 {
    stat_cpu_secs("/proc/thread-self/stat")
}

fn stat_cpu_secs(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th, in USER_HZ (100) ticks.
    let rest = stat.rsplit_once(')').expect("comm field").1;
    let ticks = |ix: usize| -> f64 {
        rest.split_whitespace().nth(ix).expect("stat field").parse().expect("tick count")
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Voluntary context switches so far, summed over every thread of
/// process `pid`: each is a sleep, so their rate is the wakeup rate.
pub fn voluntary_switches(pid: u32) -> u64 {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("list the process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
            line.trim().parse::<u64>().ok()
        })
        .sum()
}

/// Every process of the topology runs its clock at this multiple of
/// wall time.
pub const SPEEDUP: f64 = 10.0;
/// Items per round: relays measured at once.
pub const ITEMS: usize = 3;
pub const SLOT_SECS: u32 = 5;
/// Echo blast caps of the two measurer processes ((sped-up) bytes/sec).
pub const MEASURER_CAPS: [u64; 2] = [300_000, 150_000];
/// Echo sockets each measurer opens to the relay.
pub const SOCKETS: u32 = 2;
/// Client traffic the relay process offers / is allowed ((sped-up) B/s).
const BG_OFFERED: u64 = 40_000;
pub const BG_ALLOWANCE: u64 = 20_000;
/// Paper ratio r.
pub const RATIO: f64 = 0.25;

/// Spawns measurer `ix` of the topology under [`token`]`(ix)` and reads
/// its `listening` line. Without `sessions` it serves until SIGTERM.
/// `extra` flags come last, and a repeated flag's last value wins.
pub fn spawn_measurer(ix: usize, sessions: Option<usize>, extra: &[&str]) -> (Proc, SocketAddr) {
    measurer_from(&bin("flashflow-measurer"), ix, sessions, extra)
}

/// Spawns the topology's relay under [`token`]`(`[`RELAY`]`)`, offering
/// background traffic, and reads its `listening` line; `sessions` and
/// `extra` as for [`spawn_measurer`].
pub fn spawn_relay(sessions: Option<usize>, extra: &[&str]) -> (Proc, SocketAddr) {
    relay_from(&bin("flashflow-relay"), sessions, extra)
}

/// The whole topology — measurers 0 and 1, then the relay, as
/// [`spawn_measurer`] and [`spawn_relay`] spawn them — from the
/// shipped build ([`release_bin`]), whatever the test's profile: for a
/// test whose sped-up clock an unoptimised peer cannot keep.
pub fn spawn_shipped_topology(sessions: Option<usize>, extra: &[&str]) -> [(Proc, SocketAddr); 3] {
    let measurer = release_bin("flashflow-measurer");
    [
        measurer_from(&measurer, 0, sessions, extra),
        measurer_from(&measurer, 1, sessions, extra),
        relay_from(&release_bin("flashflow-relay"), sessions, extra),
    ]
}

fn measurer_from(
    exe: &Path,
    ix: usize,
    sessions: Option<usize>,
    extra: &[&str],
) -> (Proc, SocketAddr) {
    let token = token_hex(ix);
    let args = ["--listen", "127.0.0.1:0", "--role", "measurer", "--token-hex", &token];
    spawn_peer(&format!("measurer-{ix}"), exe, &args, sessions, extra)
}

fn relay_from(exe: &Path, sessions: Option<usize>, extra: &[&str]) -> (Proc, SocketAddr) {
    let (token, bg) = (token_hex(RELAY), BG_OFFERED.to_string());
    let args = ["--listen", "127.0.0.1:0", "--token-hex", &token, "--background", &bg];
    spawn_peer("relay", exe, &args, sessions, extra)
}

fn spawn_peer(
    name: &str,
    exe: &Path,
    args: &[&str],
    sessions: Option<usize>,
    extra: &[&str],
) -> (Proc, SocketAddr) {
    let (speedup, sessions) = (SPEEDUP.to_string(), sessions.map(|n| n.to_string()));
    let mut args = [args, &["--speedup", &speedup]].concat();
    if let Some(sessions) = &sessions {
        args.extend(["--sessions", sessions]);
    }
    args.extend(extra);
    let mut proc = Proc::spawn(name, exe, args);
    let addr = proc.advertised("listening");
    (proc, addr)
}

/// The deployment `flashflow_core::echo` measures: the two measurers at
/// `measurers` with [`MEASURER_CAPS`], the relay at `relay`.
pub fn deployment(measurers: [SocketAddr; 2], relay: SocketAddr) -> EchoDeployment {
    EchoDeployment {
        measurers: measurers
            .iter()
            .zip(MEASURER_CAPS)
            .enumerate()
            .map(|(ix, (&addr, rate_cap))| EchoMeasurer {
                addr,
                token: token(ix),
                rate_cap,
                sockets: SOCKETS,
            })
            .collect(),
        relay: TargetEndpoint::from_addr(relay).expect("the relay listens on IPv4 loopback"),
        relay_token: token(RELAY),
        speedup: SPEEDUP,
        ratio: RATIO,
    }
}

/// The items of round `round`: the same [`ITEMS`] relays every round,
/// under secrets no earlier round used. Each test file passes its own
/// secret `base`.
pub fn round_items(base: u64, round: u64) -> Vec<EchoItem> {
    (0..ITEMS)
        .map(|ix| {
            let mut fp = [0u8; FINGERPRINT_LEN];
            fp[0] = ix as u8 + 1;
            // Fresh per item; unpredictability is the coordinator's job
            // in deployment, distinctness is what a test needs.
            let secret = base + (round << 32) + ix as u64 * 0x1_0001;
            EchoItem {
                relay_fp: fp,
                slot_secs: SLOT_SECS,
                bg_allowance: BG_ALLOWANCE,
                measurement_secret: secret,
                attempt: 0,
                trace_id: item_trace_id(secret, 0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A failed assertion unwinds through the test's handles: the peer
    /// it spawned, serving until SIGTERM, is killed and reaped with it.
    #[test]
    fn a_panicking_test_takes_its_peers_with_it() {
        let mut pid = None;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (relay, _) = spawn_relay(None, &[]);
            pid = Some(relay.pid());
            panic!("an assertion failed with the relay still serving");
        }));
        assert!(caught.is_err());
        let proc_dir = PathBuf::from(format!("/proc/{}", pid.expect("the relay spawned")));
        let deadline = Instant::now() + Duration::from_secs(1);
        while proc_dir.exists() {
            assert!(Instant::now() < deadline, "{proc_dir:?} outlived the panic by 1 s");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn advertised_addresses_and_logged_lines_are_read_in_order() {
        let script = "echo 'listening 127.0.0.1:7'; echo 'metrics 127.0.0.1:8'; \
                      echo '[0.1] session.stop verified=3' >&2; echo '[0.2] other' >&2";
        let mut sh = Proc::spawn("sh", Path::new("/bin/sh"), ["-c", script]);
        assert_eq!(sh.advertised("listening"), "127.0.0.1:7".parse().unwrap());
        assert_eq!(sh.advertised("metrics"), "127.0.0.1:8".parse().unwrap());
        let stdout = sh.exit_zero();
        assert_eq!(stdout, "listening 127.0.0.1:7\nmetrics 127.0.0.1:8\n");
        let stops = sh.logged("session.stop");
        assert_eq!(
            stops.iter().map(|(_, l)| l.as_str()).collect::<Vec<_>>(),
            ["[0.1] session.stop verified=3"]
        );
    }
}
