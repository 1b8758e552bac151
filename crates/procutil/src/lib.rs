//! Shared scaffolding for the standalone FlashFlow processes.
//!
//! `flashflow-measurer` and `flashflow-relay` are the same *kind* of
//! program — a loopback-friendly TCP listener that classifies
//! connections by first byte, serves them on the [`reactor`], drains
//! gracefully on SIGTERM, and is configured by `--key value` flags
//! and/or `key=value` config files. All of that lives once in [`peer`],
//! so a fix to the serving path cannot silently miss one of the
//! binaries; each binary keeps only its role (what a conversation means
//! to its data plane). The pieces the coordinator and the tools also
//! use — signal flag, command-line parsing, durable writes, the
//! telemetry shell and its metrics endpoint — sit beside it.

mod metrics_endpoint;
pub mod net;
pub mod peer;
pub mod persist;
pub mod reactor;

pub use metrics_endpoint::{fetch_metrics, Telemetry};
pub use net::listen_reuseaddr;
pub use persist::{append_line, append_lines, append_torn_line, atomic_write, journal_writer};

use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

pub use flashflow_proto::msg::AUTH_TOKEN_LEN;

use reactor::{Interest, Poller, Waker};

/// Set by the SIGTERM handler; the process's accept loop begins its
/// drain when this flips.
static DRAIN: AtomicBool = AtomicBool::new(false);

/// The drain latch: an eventfd that becomes readable, and stays so,
/// once the process stops serving — SIGTERM, or whatever else the
/// process calls [`stop_serving`] for. [`wait_for_drain`] and the
/// metrics endpoint sleep on it instead of polling.
static LATCH: OnceLock<Waker> = OnceLock::new();

/// The latch's fd, for the SIGTERM handler (-1 until installed).
static LATCH_FD: AtomicI32 = AtomicI32::new(-1);

/// The process's drain latch, created on first use.
pub(crate) fn drain_latch() -> std::io::Result<&'static Waker> {
    if let Some(latch) = LATCH.get() {
        return Ok(latch);
    }
    let latch = Waker::new()?;
    Ok(LATCH.get_or_init(|| latch))
}

/// True once SIGTERM has been received (see
/// [`install_sigterm_handler`]).
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

/// Wakes everything parked on the drain latch, for good: a
/// [`wait_for_drain`] re-checks its condition, and the metrics endpoint
/// thread exits.
pub fn stop_serving() {
    if let Ok(latch) = drain_latch() {
        latch.wake();
    }
}

/// Installs the SIGTERM handler backing [`drain_requested`]. The
/// handler does only async-signal-safe work: it flips one flag and
/// writes the drain latch, leaving `errno` as it found it.
#[cfg(unix)]
#[allow(clippy::fn_to_numeric_cast_any)]
pub fn install_sigterm_handler() {
    // SAFETY: these are the exact libc prototypes on every Linux we
    // target: `write(2)`, and glibc's/musl's `__errno_location`, which
    // returns the calling thread's `errno` slot. `signal(2)` has this
    // exact prototype in every libc we target (POSIX:
    // `void (*signal(int, void (*)(int)))(int)`); the handler address is
    // passed as `usize`, matching the ABI's pointer-sized argument.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn __errno_location() -> *mut i32;
    }
    // SAFETY: the handler is async-signal-safe — lock-free atomics, one
    // `write(2)` (async-signal-safe by POSIX), no allocator or lock —
    // and leaves `errno` as it found it.
    extern "C" fn on_sigterm(_sig: i32) {
        // SAFETY: `__errno_location` returns this thread's live `errno`
        // slot; the write hands 8 bytes from the stack to the latch's
        // eventfd (the documented eventfd contract), and the saved
        // `errno` is put back so the interrupted code never sees the
        // write's.
        unsafe {
            let errno = __errno_location();
            let saved = *errno;
            DRAIN.store(true, Ordering::SeqCst);
            let fd = LATCH_FD.load(Ordering::SeqCst);
            if fd >= 0 {
                let one = 1u64.to_ne_bytes();
                write(fd, one.as_ptr(), one.len());
            }
            *errno = saved;
        }
    }
    if let Ok(latch) = drain_latch() {
        LATCH_FD.store(latch.fd(), Ordering::SeqCst);
    }
    const SIGTERM: i32 = 15;
    // SAFETY: installing a handler that is itself async-signal-safe
    // (see above) is sound at any point; the previous disposition is
    // deliberately discarded because the processes install exactly
    // once, at startup.
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

/// Sets the calling thread's timer slack to 1 ns, so a timed sleep
/// (`epoll_pwait2` up to a deadline) wakes at the deadline instead of
/// up to the kernel's default 50 µs after it. Threads the caller
/// spawns afterwards inherit the setting.
///
/// # Errors
/// The `prctl(2)` failure (none is expected for a positive slack).
pub fn tighten_timer_slack() -> std::io::Result<()> {
    // SAFETY: the exact libc prototype of `prctl(2)` on every Linux we
    // target: a C `int` option followed by variadic arguments, with a
    // C `int` return and errno.
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: `PR_SET_TIMERSLACK` takes its one argument, an `unsigned
    // long`, by value and touches no memory of ours.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// No-op off Unix; the drain flag then only flips via process exit.
#[cfg(not(unix))]
pub fn install_sigterm_handler() {}

/// Locks `mutex`, recovering the guard if a previous holder panicked.
///
/// The long-running binaries must not panic-cascade: a serving thread
/// that dies mid-session poisons whatever registry lock it held, and
/// without recovery every *other* thread's next `lock().expect(..)`
/// would take the whole daemon down — turning one bad session into a
/// full outage that crash recovery then has to repair. Recovery is
/// sound for the workspace's registries because every critical
/// section is a single map or window operation (insert / lookup /
/// remove / witness), each of which leaves the structure consistent
/// even when the holder unwinds immediately after.
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Parses a `--token-hex` value: exactly [`AUTH_TOKEN_LEN`] bytes of
/// hex.
///
/// # Errors
/// Describes the length or digit that failed.
pub fn parse_token_hex(s: &str) -> Result<[u8; AUTH_TOKEN_LEN], String> {
    if s.len() != AUTH_TOKEN_LEN * 2 {
        return Err(format!("--token-hex wants {} hex chars, got {}", AUTH_TOKEN_LEN * 2, s.len()));
    }
    let mut token = [0u8; AUTH_TOKEN_LEN];
    for (ix, byte) in token.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&s[2 * ix..2 * ix + 2], 16)
            .map_err(|e| format!("--token-hex: {e}"))?;
    }
    Ok(token)
}

/// Parses a `--speedup` value: the clock multiplier every process in a
/// deployment paces by.
///
/// # Errors
/// Not a number, or not positive and finite.
pub fn parse_speedup(s: &str) -> Result<f64, String> {
    let speedup: f64 = s.parse().map_err(|e| format!("speedup: {e}"))?;
    if !(speedup.is_finite() && speedup > 0.0) {
        return Err("speedup must be positive and finite".to_string());
    }
    Ok(speedup)
}

/// Loads a `key=value` config file (blank lines and `#` comments
/// skipped), feeding each setting to `apply` — the same function the
/// command line uses, so the two surfaces cannot drift.
///
/// # Errors
/// Prefixes `apply`'s (or the file's) error with file and line.
fn apply_config_file(
    path: &str,
    apply: &mut dyn FnMut(&str, &str) -> Result<(), String>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--config {path}: {e}"))?;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or(format!("--config {path}:{}: expected key=value", lineno + 1))?;
        apply(key.trim(), value.trim())
            .map_err(|e| format!("--config {path}:{}: {e}", lineno + 1))?;
    }
    Ok(())
}

/// Drives a `--key value` command line: `--help`/`-h` yields `usage`
/// as the error, `--config FILE` loads a file through
/// `apply_config_file`, and every other flag is handed to `apply`.
///
/// # Errors
/// The usage string, or whatever `apply` rejected.
pub fn parse_args(
    args: impl Iterator<Item = String>,
    usage: &str,
    apply: &mut dyn FnMut(&str, &str) -> Result<(), String>,
) -> Result<(), String> {
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Err(usage.to_string());
        }
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("unknown argument {flag:?}\n{usage}"));
        };
        let value = args.next().ok_or(format!("--{key} wants a value"))?;
        if key == "config" {
            apply_config_file(&value, apply)?;
        } else {
            apply(key, &value)?;
        }
    }
    Ok(())
}

/// The window a fresh connection gets to identify itself (first byte,
/// complete hello, known nonce), scaled with the process's `--speedup`
/// like every other pacing quantity.
pub fn hello_window(speedup: f64) -> Duration {
    Duration::from_secs_f64((10.0 / speedup).clamp(0.05, 30.0))
}

/// Parks the calling thread until SIGTERM arrives (`true`), or `done`
/// holds or the instant `until` passes (`false`), asleep on the drain
/// latch: whatever makes `done` true must call [`stop_serving`]. Never
/// call this from a reactor shard.
pub fn wait_for_drain(until: Option<Instant>, done: &dyn Fn() -> bool) -> bool {
    let poller = drain_latch().and_then(|latch| {
        let poller = Poller::new()?;
        poller.register(latch.fd(), 0, Interest::READ)?;
        Ok(poller)
    });
    let mut events = Vec::new();
    loop {
        if drain_requested() {
            return true;
        }
        let now = Instant::now();
        if done() || until.is_some_and(|until| now >= until) {
            return false;
        }
        let timeout = until.map_or(Duration::from_secs(3600), |until| until - now);
        // The latch stays readable once woken, so a wake between the
        // checks above and this wait is not lost. Without a poller (no
        // fds left), fall back to polling.
        if poller.as_ref().map_or(true, |p| p.wait(&mut events, timeout).is_err()) {
            std::thread::sleep(timeout.min(Duration::from_millis(2)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_hex_round_trips_and_rejects_garbage() {
        let hex: String = (0..AUTH_TOKEN_LEN).map(|i| format!("{i:02x}")).collect();
        let token = parse_token_hex(&hex).expect("valid hex");
        assert_eq!(token[1], 1);
        assert_eq!(token[31], 31);
        assert!(parse_token_hex("abc").is_err(), "short");
        assert!(parse_token_hex(&"zz".repeat(AUTH_TOKEN_LEN)).is_err(), "non-hex");
    }

    #[test]
    fn args_and_config_files_share_one_apply_path() {
        let dir = std::env::temp_dir().join(format!("ff-procutil-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mk temp dir");
        let path = dir.join("test.conf");
        std::fs::write(&path, "# comment\nalpha = 1\n\nbeta=two\n").expect("write");

        let mut seen = Vec::new();
        {
            let mut apply = |k: &str, v: &str| {
                seen.push((k.to_string(), v.to_string()));
                Ok(())
            };
            let args = [
                "--config".to_string(),
                path.to_string_lossy().to_string(),
                "--alpha".to_string(),
                "override".to_string(),
            ];
            parse_args(args.into_iter(), "usage", &mut apply).expect("parse");

            let err = parse_args(["--help".to_string()].into_iter(), "USAGE LINE", &mut apply)
                .expect_err("help is surfaced as the usage error");
            assert_eq!(err, "USAGE LINE");
            let err = parse_args(["stray".to_string()].into_iter(), "usage", &mut apply)
                .expect_err("non-flag rejected");
            assert!(err.contains("unknown argument"));
        }
        assert_eq!(
            seen,
            vec![
                ("alpha".to_string(), "1".to_string()),
                ("beta".to_string(), "two".to_string()),
                ("alpha".to_string(), "override".to_string()),
            ],
            "file first, CLI overrides after"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wait_for_drain_wakes_at_its_instant() {
        // No SIGTERM and nothing done: the wait sleeps to its instant,
        // returns `false`, and does not oversleep it.
        let until = Instant::now() + Duration::from_millis(60);
        assert!(!wait_for_drain(Some(until), &|| false));
        let woke = Instant::now();
        assert!(woke >= until, "woke {:?} early", until - woke);
        assert!(woke - until < Duration::from_millis(250), "woke {:?} late", woke - until);
    }
}
