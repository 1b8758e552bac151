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
//! use — signal flag, command-line parsing, durable writes, the metrics
//! endpoint — sit beside it.

mod metrics_endpoint;
pub mod net;
pub mod peer;
pub mod persist;
pub mod reactor;

pub use metrics_endpoint::{fetch_metrics, spawn_metrics_endpoint, start_metrics_endpoint};
pub use net::listen_reuseaddr;
pub use persist::{append_line, append_lines, append_torn_line, atomic_write, journal_writer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

pub use flashflow_proto::msg::AUTH_TOKEN_LEN;

/// Set by the SIGTERM handler; the process's accept loop begins its
/// drain when this flips.
static DRAIN: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM has been received (see
/// [`install_sigterm_handler`]).
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

/// Installs the SIGTERM handler backing [`drain_requested`]. The
/// handler does only async-signal-safe work (flips one flag); the
/// serving process polls the flag from its accept loop.
#[cfg(unix)]
#[allow(clippy::fn_to_numeric_cast_any)]
pub fn install_sigterm_handler() {
    // SAFETY: the handler is async-signal-safe — it performs exactly
    // one lock-free atomic store and touches no allocator, lock, or
    // errno state.
    extern "C" fn on_sigterm(_sig: i32) {
        DRAIN.store(true, Ordering::SeqCst);
    }
    // SAFETY: `signal(2)` has this exact prototype in every libc we
    // target (POSIX: `void (*signal(int, void (*)(int)))(int)`); the
    // handler address is passed as `usize`, matching the ABI's
    // pointer-sized argument.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
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
pub fn apply_config_file(
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
/// [`apply_config_file`], and every other flag is handed to `apply`.
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

/// Parks the calling supervisor thread until SIGTERM arrives (`true`)
/// or `done` holds (`false`). Never call this from a reactor shard.
pub fn wait_for_drain(done: &dyn Fn() -> bool) -> bool {
    loop {
        if drain_requested() {
            return true;
        }
        if done() {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
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
}
