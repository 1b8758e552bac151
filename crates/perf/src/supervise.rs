//! Child-process supervision: spawn a workspace binary, read the lines
//! it advertises on stdout, sample `/proc/<pid>`, drain it with SIGTERM
//! under a deadline, and — whatever happens, including a panic in the
//! harness or a SIGKILL of it — never leave it running with a port held.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flashflow_obs::Json;

/// What the stdout reader thread forwards.
enum Out {
    Line(Instant, String),
    /// The pipe closed: the process exited (or closed stdout).
    Eof(Instant),
}

/// One supervised child. Dropping it kills and reaps the process.
pub struct Proc {
    name: String,
    child: Child,
    out: Receiver<Out>,
    reader: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawns `bin` with `args`; stdout is piped to the line reader,
    /// stderr is discarded (the binaries mirror every event there as
    /// text — a full pipe would block them).
    ///
    /// # Errors
    /// The spawn failure, naming the binary.
    pub fn spawn(bin: &Path, name: &str, args: &[String]) -> Result<Proc, String> {
        let mut command = Command::new(bin);
        command.args(args).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::null());
        // SAFETY: the hook runs in the forked child before `exec` and
        // makes one async-signal-safe system call that touches no memory.
        unsafe {
            command.pre_exec(|| {
                die_with_parent();
                Ok(())
            });
        }
        let mut child =
            command.spawn().map_err(|e| format!("spawn {name} ({}): {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, out) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(Out::Line(Instant::now(), line)).is_err() {
                    return;
                }
            }
            let _ = tx.send(Out::Eof(Instant::now()));
        });
        Ok(Proc { name: name.to_string(), child, out, reader: Some(reader) })
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The name given at spawn.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Waits for the next stdout line starting with `prefix` (other
    /// lines are skipped) and returns when it arrived and what followed
    /// the prefix.
    ///
    /// # Errors
    /// The process exited, or `timeout` passed, without such a line.
    pub fn expect_line(
        &mut self,
        prefix: &str,
        timeout: Duration,
    ) -> Result<(Instant, String), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.out.recv_timeout(left) {
                Ok(Out::Line(at, line)) => {
                    if let Some(rest) = line.strip_prefix(prefix) {
                        return Ok((at, rest.trim().to_string()));
                    }
                }
                Ok(Out::Eof(_)) | Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("{} exited before printing {prefix:?}", self.name));
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("{} did not print {prefix:?} in {timeout:?}", self.name));
                }
            }
        }
    }

    /// Waits for the process to exit by itself (stdout closes, then the
    /// status is reaped). While waiting, `on_tick` runs every `every`.
    /// Returns the instant stdout closed, the exit status, and the CPU
    /// seconds (user + kernel) the process had used by then.
    ///
    /// # Errors
    /// `timeout` passed first; the process is then killed.
    pub fn wait_exit_sampling(
        &mut self,
        timeout: Duration,
        every: Duration,
        on_tick: &mut dyn FnMut(&Proc),
    ) -> Result<(Instant, ExitStatus, f64), String> {
        let deadline = Instant::now() + timeout;
        let closed_at = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.out.recv_timeout(every.min(left)) {
                Ok(Out::Line(..)) => {}
                Ok(Out::Eof(at)) => break at,
                Err(RecvTimeoutError::Disconnected) => break Instant::now(),
                Err(RecvTimeoutError::Timeout) if Instant::now() < deadline => on_tick(self),
                Err(RecvTimeoutError::Timeout) => {
                    self.kill();
                    return Err(format!("{} did not exit in {timeout:?}", self.name));
                }
            }
        };
        // Between closing stdout and being reaped the process is a
        // zombie, whose `stat` still carries its final CPU times.
        let cpu_s = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .ok()
            .and_then(|stat| parse_stat_cpu(&stat, clock_ticks_per_sec()))
            .map_or(0.0, |(user, sys)| user + sys);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok((closed_at, status, cpu_s)),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(None) => {
                    self.kill();
                    return Err(format!("{} closed stdout but did not exit", self.name));
                }
                Err(e) => return Err(format!("wait {}: {e}", self.name)),
            }
        }
    }

    /// Sends SIGTERM and waits for a graceful exit.
    ///
    /// # Errors
    /// The process did not exit 0 within `timeout` (it is killed).
    pub fn drain(mut self, timeout: Duration) -> Result<(), String> {
        send_sigterm(self.pid());
        let (_, status, _) = self.wait_exit_sampling(timeout, timeout, &mut |_| {})?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("{} exited {status} after SIGTERM", self.name))
        }
    }

    /// SIGKILLs and reaps the process. Idempotent.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Samples the live process's CPU time, context switches, memory
    /// high-water mark and thread count from `/proc`.
    ///
    /// # Errors
    /// The process is gone or a `/proc` file did not parse.
    pub fn sample(&self) -> Result<ProcSample, String> {
        ProcSample::read(self.pid())
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
        if let Some(reader) = self.reader.take() {
            // The pipe is closed now, so the reader has ended.
            let _ = reader.join();
        }
    }
}

/// Asks the kernel to SIGKILL the calling process when the thread that
/// forked it ends: `Drop` covers a panic, this covers a harness that is
/// itself killed. Every child is spawned from the main thread, which
/// lives as long as the harness does.
fn die_with_parent() {
    // SAFETY: `prctl(2)` is variadic in every libc we target, taking
    // C integers for this option.
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: plain integers cross; a failure leaves the child without
    // the death signal, which `Drop` still covers.
    unsafe {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
    }
}

/// Delivers SIGTERM to `pid`.
fn send_sigterm(pid: u32) {
    // SAFETY: `kill(2)` has this exact prototype in every libc we
    // target: two C `int`s in, a C `int` out, no pointers.
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    let Ok(pid) = i32::try_from(pid) else { return };
    // SAFETY: signalling a child this supervisor spawned and has not
    // yet reaped, so the pid cannot have been recycled; a failed call
    // only means the child already exited, which the wait that follows
    // observes.
    unsafe {
        kill(pid, SIGTERM);
    }
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times.
fn clock_ticks_per_sec() -> f64 {
    // SAFETY: `sysconf(3)` takes and returns plain C integers.
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: no pointers cross; an unsupported name returns -1, which
    // falls back to Linux's fixed USER_HZ below.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// One `/proc/<pid>` reading.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcSample {
    /// User-mode CPU seconds, all threads, living and exited.
    pub user_s: f64,
    /// Kernel-mode CPU seconds, likewise.
    pub sys_s: f64,
    /// Voluntary context switches summed over living threads.
    pub voluntary_ctx: u64,
    /// `VmHWM`: peak resident set, MB.
    pub peak_rss_mb: f64,
    /// Living threads.
    pub threads: u64,
}

impl ProcSample {
    fn read(pid: u32) -> Result<ProcSample, String> {
        let read = |file: &str| {
            std::fs::read_to_string(format!("/proc/{pid}/{file}"))
                .map_err(|e| format!("/proc/{pid}/{file}: {e}"))
        };
        let (user_s, sys_s) = parse_stat_cpu(&read("stat")?, clock_ticks_per_sec())
            .ok_or_else(|| format!("/proc/{pid}/stat: unexpected format"))?;
        let status = read("status")?;
        let mut voluntary_ctx = 0;
        if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
            for task in tasks.flatten() {
                if let Ok(text) = std::fs::read_to_string(task.path().join("status")) {
                    voluntary_ctx += status_field(&text, "voluntary_ctxt_switches").unwrap_or(0);
                }
            }
        }
        Ok(ProcSample {
            user_s,
            sys_s,
            voluntary_ctx,
            peak_rss_mb: status_field(&status, "VmHWM").unwrap_or(0) as f64 / 1000.0,
            threads: status_field(&status, "Threads").unwrap_or(0),
        })
    }

    /// CPU seconds, user plus kernel.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// `(utime, stime)` in seconds from a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
fn parse_stat_cpu(stat: &str, ticks_per_sec: f64) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / ticks_per_sec, stime / ticks_per_sec))
}

/// The leading integer of a `Key:   123 kB` line of `/proc/*/status`.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// The filesystem type holding `path`, from `/proc/self/mountinfo`
/// (longest mount-point prefix wins). `"unknown"` when unreadable.
pub fn fs_type_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    mountinfo_fs_type(&mounts, &path).unwrap_or_else(|| "unknown".to_string())
}

fn mountinfo_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> [tags] - <fstype> <src> <opts>"
        let (head, tail) = line.split_once(" - ")?;
        let mount_point = head.split_whitespace().nth(4)?;
        let fs_type = tail.split_whitespace().next()?;
        if path.starts_with(mount_point) {
            let depth = Path::new(mount_point).components().count();
            if best.as_ref().is_none_or(|(d, _)| depth >= *d) {
                best = Some((depth, fs_type.to_string()));
            }
        }
    }
    best.map(|(_, fs)| fs)
}

/// The first line a command prints, trimmed; `"unknown"` if it cannot
/// run (no git checkout, no rustc on the path).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was taken; stamped into every output.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a checkout.
    pub git_commit: String,
    /// The workload seed.
    pub seed: u64,
    /// Filesystem type under the state directories.
    pub state_fs: String,
    /// True when `--log-json` was on for the children.
    pub traced: bool,
}

impl Stamp {
    /// Reads the environment; `state_dir` is where journals will live.
    pub fn take(seed: u64, state_dir: &Path, traced: bool) -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            rustc: first_line_of(
                &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
                &["-V"],
            ),
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
            seed,
            state_fs: fs_type_of(state_dir),
            traced,
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Int(self.nproc as i128)),
            ("kernel".into(), Json::Str(self.kernel.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("git_commit".into(), Json::Str(self.git_commit.clone())),
            ("seed".into(), Json::Int(i128::from(self.seed))),
            ("state_dir_fs".into(), Json::Str(self.state_fs.clone())),
            ("link".into(), Json::Str("loopback".into())),
            ("tracing".into(), Json::Str(if self.traced { "on" } else { "off" }.into())),
        ])
    }
}

/// A scratch directory removed when dropped.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `path` (and parents), emptying it if it existed.
    ///
    /// # Errors
    /// The directory could not be created.
    pub fn create(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "4242 (flash) flow (x)) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    760 304 0 0 20 0 3 0 12345 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat, 100.0), Some((7.6, 3.04)));
        assert_eq!(parse_stat_cpu("garbage", 100.0), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tx\nVmHWM:\t   80484 kB\nThreads:\t3\nvoluntary_ctxt_switches:\t5874\n";
        assert_eq!(status_field(status, "VmHWM"), Some(80484));
        assert_eq!(status_field(status, "Threads"), Some(3));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(5874));
        assert_eq!(status_field(status, "VmPeak"), None);
    }

    #[test]
    fn mountinfo_picks_the_deepest_matching_mount() {
        let info = "22 1 0:20 / / rw - overlay overlay rw\n\
                    30 22 0:25 / /root/repo/target rw - tmpfs tmpfs rw\n\
                    31 22 8:1 / /var rw shared:1 - ext4 /dev/sda1 rw\n";
        let fs = |p: &str| mountinfo_fs_type(info, Path::new(p));
        assert_eq!(fs("/root/repo/target/perf/x").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/root/repo/src").as_deref(), Some("overlay"));
        assert_eq!(fs("/var/lib").as_deref(), Some("ext4"));
    }

    #[test]
    fn supervisor_reads_lines_samples_and_reaps() {
        let mut p = Proc::spawn(
            Path::new("/bin/sh"),
            "sh",
            &[
                "-c".to_string(),
                "echo noise; echo listening 127.0.0.1:9; exec sleep 30".to_string(),
            ],
        )
        .expect("spawn sh");
        let (_, rest) = p.expect_line("listening ", Duration::from_secs(5)).expect("line");
        assert_eq!(rest, "127.0.0.1:9");
        let sample = p.sample().expect("proc sample");
        assert!(sample.threads >= 1);
        assert!(p.expect_line("never", Duration::from_millis(50)).is_err(), "timeout, not hang");
        let pid = p.pid();
        drop(p);
        assert!(!Path::new(&format!("/proc/{pid}")).exists(), "dropped child is killed and reaped");
    }

    #[test]
    fn drain_reports_a_peer_that_dies_badly() {
        let p = Proc::spawn(Path::new("/bin/sh"), "sh", &["-c".into(), "exec sleep 30".into()])
            .expect("spawn sh");
        // sleep has no SIGTERM handler: it dies of the signal, which is
        // not the exit 0 a draining peer owes.
        let err = p.drain(Duration::from_secs(5)).expect_err("killed by signal is not a drain");
        assert!(err.contains("after SIGTERM"), "{err}");
    }
}
