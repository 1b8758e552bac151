//! Crash-safe persistence primitives shared by every FlashFlow process
//! that writes state worth surviving a crash: period result files,
//! consensus documents, and the coordinator's journal.
//!
//! Two disciplines cover every file the system writes:
//!
//! * **whole documents** (a period export, a consensus) go through
//!   [`atomic_write`] — write a sibling temp file, fsync it, rename it
//!   over the target, fsync the directory. A reader (or a restarted
//!   process) sees either the old complete document or the new complete
//!   document, never a torn one, no matter when the writer is killed;
//! * **journals** (append-only JSONL) go through [`journal_writer`] /
//!   [`append_line`] / [`append_lines`] — `O_APPEND` with one `write`
//!   call per line or batch of lines, so concurrent appenders interleave
//!   at line granularity and a crash can tear at most the final line,
//!   which journal readers must tolerate.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Replaces the file at `path` with `bytes`, atomically with respect to
/// crashes and concurrent readers: the content is staged in a sibling
/// temp file (same directory, so the rename cannot cross filesystems),
/// fsync'd, renamed over the target, and the directory entry is fsync'd.
/// A process killed at any instant leaves either the previous complete
/// file (or no file) or the new complete file — never a prefix.
///
/// The temp name is deterministic (`.<name>.tmp`), so a crashed write
/// leaves at most one stale temp file behind, overwritten by the next
/// attempt rather than accumulating.
///
/// # Errors
/// Whatever staging, syncing, or renaming returned.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "atomic_write needs a file"))?;
    let tmp = path.with_file_name(format!(".{}.tmp", name.to_string_lossy()));
    {
        let mut staged = File::create(&tmp)?;
        staged.write_all(bytes)?;
        staged.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = dir {
        // Persist the directory entry too: the rename itself is atomic,
        // but without this a power loss could forget the new name.
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Opens `path` for appending (created if absent) with the journal
/// discipline: callers must emit one complete line per `write` call —
/// [`append_line`] does, and `flashflow-obs`'s JSONL sink already
/// writes line-at-a-time — so lines stay atomic even when the
/// descriptor is shared and a crash tears at most the final line.
///
/// # Errors
/// Whatever opening the file returned.
pub fn journal_writer(path: &Path) -> io::Result<File> {
    OpenOptions::new().create(true).append(true).open(path)
}

/// Appends one line (newline added) to the journal at `path` and
/// fsyncs, so an acknowledged append survives the process dying the
/// next instant. One `write` call carries the whole line.
///
/// # Errors
/// Whatever opening, writing, or syncing returned.
pub fn append_line(path: &Path, line: &str) -> io::Result<()> {
    append_lines(path, [line])
}

/// Appends a batch of lines (a newline after each) to the journal at
/// `path` in one `write` call, then fsyncs once: records that become
/// durable together pay for one sync, not one each. A crash mid-write
/// leaves a prefix of the batch, so readers see whole lines followed
/// by at most one torn line, as with [`append_line`].
///
/// # Errors
/// Whatever opening, writing, or syncing returned.
pub fn append_lines<I>(path: &Path, lines: I) -> io::Result<()>
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut buf = Vec::new();
    for line in lines {
        buf.extend_from_slice(line.as_ref().as_bytes());
        buf.push(b'\n');
    }
    let mut file = journal_writer(path)?;
    file.write_all(&buf)?;
    file.sync_all()
}

/// Appends `partial` to the journal at `path` **without** a trailing
/// newline and **without** fsync — simulating a writer SIGKILLed
/// mid-append, the torn final line journal readers must tolerate.
///
/// This is a *test hook*, not a persistence primitive: it exists so
/// crash-tolerance tests in durable-state crates can stage a torn
/// journal without reaching for raw `OpenOptions` themselves (the
/// `flashflow-lint` `durability` rule forbids raw file writes there,
/// with no allowlist — the one sanctioned place for an undisciplined
/// write is here, where the discipline is defined).
///
/// # Errors
/// Whatever opening or writing returned.
pub fn append_torn_line(path: &Path, partial: &str) -> io::Result<()> {
    let mut file = journal_writer(path)?;
    file.write_all(partial.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ff-persist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mk temp dir");
        dir
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_siblings() {
        let dir = temp_dir("basic");
        let target = dir.join("doc.json");
        atomic_write(&target, b"{\"v\":1}").expect("first write");
        atomic_write(&target, b"{\"v\":2}").expect("replace");
        assert_eq!(std::fs::read(&target).expect("read"), b"{\"v\":2}");
        let extras: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "doc.json")
            .collect();
        assert!(extras.is_empty(), "no temp litter: {extras:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_line_accumulates_whole_lines() {
        let dir = temp_dir("journal");
        let journal = dir.join("journal.jsonl");
        append_line(&journal, "{\"n\":1}").expect("append");
        append_line(&journal, "{\"n\":2}").expect("append");
        let text = std::fs::read_to_string(&journal).expect("read");
        assert_eq!(text, "{\"n\":1}\n{\"n\":2}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_lines_writes_a_batch_after_earlier_lines() {
        let dir = temp_dir("batch");
        let journal = dir.join("journal.jsonl");
        append_line(&journal, "{\"n\":1}").expect("append");
        append_lines(&journal, ["{\"n\":2}", "{\"n\":3}"]).expect("batch");
        append_lines(&journal, Vec::<String>::new()).expect("empty batch");
        let text = std::fs::read_to_string(&journal).expect("read");
        assert_eq!(text, "{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_torn_line_stages_a_partial_final_line() {
        let dir = temp_dir("torn");
        let journal = dir.join("journal.jsonl");
        append_line(&journal, "{\"n\":1}").expect("append");
        append_torn_line(&journal, "{\"n\":2,\"cap").expect("tear");
        let text = std::fs::read_to_string(&journal).expect("read");
        assert_eq!(text, "{\"n\":1}\n{\"n\":2,\"cap", "no newline after the torn half");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The crash-safety claim itself: a writer SIGKILLed at arbitrary
    /// instants mid-[`atomic_write`] never leaves a torn target. The
    /// test re-executes itself as the writer child (flipping between
    /// two large distinguishable documents as fast as it can), kills it
    /// at a random-ish moment, and asserts the target is always exactly
    /// one of the two complete documents.
    #[test]
    #[cfg(unix)]
    fn atomic_write_survives_kill_mid_write() {
        const ENV: &str = "FF_PERSIST_KILL_CHILD";
        if let Ok(dir) = std::env::var(ENV) {
            // Child mode: hammer the target until killed.
            let target = Path::new(&dir).join("doc.bin");
            let a = vec![b'A'; 1 << 20];
            let b = vec![b'B'; 1 << 20];
            loop {
                atomic_write(&target, &a).expect("child write A");
                atomic_write(&target, &b).expect("child write B");
            }
        }

        let dir = temp_dir("kill");
        let target = dir.join("doc.bin");
        let exe = std::env::current_exe().expect("test binary path");
        for round in 0..3u32 {
            let mut child = std::process::Command::new(&exe)
                .args(["--exact", "persist::tests::atomic_write_survives_kill_mid_write"])
                .env(ENV, dir.to_string_lossy().to_string())
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn writer child");
            // Let it get mid-flight, with a different phase each round.
            std::thread::sleep(Duration::from_millis(120 + 70 * u64::from(round)));
            child.kill().expect("SIGKILL writer");
            let _ = child.wait();

            let doc = std::fs::read(&target).expect("target exists after first completed write");
            assert_eq!(doc.len(), 1 << 20, "round {round}: complete document");
            let fill = doc[0];
            assert!(fill == b'A' || fill == b'B', "round {round}: known document");
            assert!(
                doc.iter().all(|&byte| byte == fill),
                "round {round}: document torn between writes"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
