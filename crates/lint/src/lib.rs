//! `flashflow-lint`: offline, dependency-free static analysis that
//! machine-checks the invariants FlashFlow's security and durability
//! arguments rest on but Rust's type system cannot see.
//!
//! The rules (one module each under [`rules`]):
//!
//! | id              | invariant |
//! |-----------------|-----------|
//! | `safety-comment`  | every `unsafe` block and `extern "C"` item carries `// SAFETY:` |
//! | `atomic-ordering` | `SeqCst` in hot-path modules and `Relaxed` flag stores carry `// ORDERING:` |
//! | `no-panic`        | no `unwrap()`/`expect()`/`panic!` in non-test code of the long-running binaries |
//! | `durability`      | durable-state crates write files only through `flashflow-procutil::persist` |
//! | `lock-order`      | the workspace-wide lock acquisition graph is acyclic |
//! | `msg-exhaustive`  | every `Msg::` variant appears in encode, decode, and the codec property test |
//! | `journal-exhaustive` | every journal `Record::` variant appears in the encoder, decoder, and recovery fold |
//! | `no-sleep-in-reactor` | no `thread::sleep` in non-test reactor code — a blocked shard stalls every connection it drives |
//! | `no-blocking-dial` | no `TcpStream::connect` / `TcpTransport::connect` on the peer processes' shard paths — dial with `reactor::dial` |
//! | `orphan-pub`      | every bare `pub` item of a library crate is named in another `.rs` file, or allowlisted under the ROADMAP item that will call it |
//!
//! Findings print as `file:line: rule-id: message`; `--json` emits the
//! same findings machine-readably; `--allow RULE` downgrades one rule
//! to advisory while a violation is being burned down. The workspace
//! itself lints clean — `tests/self_lint.rs` pins that at zero.

pub mod lexer;
pub mod rules;
pub mod scan;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use scan::FileScan;

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id, e.g. `safety-comment`.
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Every rule id, in reporting order.
pub const RULES: &[&str] = &[
    rules::safety::RULE,
    rules::ordering::RULE,
    rules::no_panic::RULE,
    rules::durability::RULE,
    rules::lock_order::RULE,
    rules::msg_exhaustive::RULE,
    rules::journal_exhaustive::RULE,
    rules::no_sleep_in_reactor::RULE,
    rules::no_blocking_dial::RULE,
    rules::orphan_pub::RULE,
];

/// What the rules key off: which files are hot paths, which crates are
/// long-running daemons, which hold durable state, and where the
/// protocol codec lives. The defaults encode *this* workspace's
/// layout; tests override fields to lint fixtures.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Files (suffix-matched) where `SeqCst` must justify its cost
    /// with `// ORDERING:` — the <3%-overhead hot paths.
    pub hot_path_files: Vec<String>,
    /// Crates (by `crates/<name>/` directory) whose non-test code must
    /// not panic: the binaries that are supposed to run for months, and
    /// `procutil`, whose peer library *is* the serving path of two of
    /// them.
    pub panic_crates: Vec<String>,
    /// Crates holding durable state: raw `File::create` /
    /// `OpenOptions` / `fs::write` are forbidden — writes go through
    /// `flashflow-procutil::persist`.
    pub durable_crates: Vec<String>,
    /// The protocol-exhaustiveness rule's anchors; `None` disables the
    /// rule (fixture trees have no codec).
    pub codec: Option<CodecConfig>,
    /// The journal-exhaustiveness rule's anchors; `None` disables the
    /// rule (fixture trees have no journal).
    pub journal: Option<JournalConfig>,
    /// Path fragments naming reactor modules (matched as substrings of
    /// the workspace-relative path) — the event loop, the roles' hooks,
    /// the peer library they plug into, and the coordinator's round
    /// loop and connection pool, which wait on socket readiness too, and
    /// the loop's in-memory links, whose clock is simulated: non-test
    /// code there must never `thread::sleep` — a blocked shard
    /// stalls every connection the epoll loop drives.
    pub reactor_path_fragments: Vec<String>,
    /// Crates whose `pub` items `orphan-pub` does not check: the
    /// benchmark (pinned by its own gate), the linter, and the vendored
    /// proptest shim.
    pub orphan_exempt_crates: Vec<String>,
    /// `orphan-pub`'s allowlist: orphans a ROADMAP item will call.
    pub orphan_allow: Vec<rules::orphan_pub::Allowed>,
    /// Rules downgraded to advisory: still reported, but exempt from
    /// the nonzero exit.
    pub allow: BTreeSet<String>,
}

/// Where the wire codec lives and which functions must handle every
/// message variant.
#[derive(Debug, Clone)]
pub struct CodecConfig {
    /// File declaring the message enum.
    pub enum_file: String,
    /// The enum's name (`Msg`).
    pub enum_name: String,
    /// File holding the codec functions.
    pub codec_file: String,
    /// Encoder function name; every variant must be constructed or
    /// matched inside it.
    pub encode_fn: String,
    /// Decoder function name; likewise.
    pub decode_fn: String,
    /// The codec property test; every variant must round-trip there.
    pub prop_file: String,
}

/// Where the coordinator's crash journal lives and which functions
/// must handle every record variant (the durable-state analogue of
/// [`CodecConfig`]).
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// File declaring the record enum, its codec, and the recovery
    /// fold (they live together in the journal module).
    pub journal_file: String,
    /// The enum's name (`Record`).
    pub enum_name: String,
    /// Line-encoder method; every variant must be matched inside it.
    pub encode_fn: String,
    /// Line-decoder method; a variant missing here comes back from a
    /// crash as a torn line.
    pub decode_fn: String,
    /// Recovery fold; a variant missing here parses and is dropped.
    pub apply_fn: String,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            hot_path_files: vec![
                "crates/obs/src/metrics.rs".into(),
                "crates/proto/src/blast.rs".into(),
            ],
            panic_crates: vec![
                "measurer".into(),
                "relay".into(),
                "procutil".into(),
                "coord".into(),
                "top".into(),
            ],
            durable_crates: vec!["coord".into()],
            codec: Some(CodecConfig {
                enum_file: "crates/proto/src/msg.rs".into(),
                enum_name: "Msg".into(),
                codec_file: "crates/proto/src/frame.rs".into(),
                encode_fn: "encode".into(),
                decode_fn: "decode_payload".into(),
                prop_file: "crates/proto/tests/prop_codec.rs".into(),
            }),
            journal: Some(JournalConfig {
                journal_file: "crates/coord/src/journal.rs".into(),
                enum_name: "Record".into(),
                encode_fn: "to_json_line".into(),
                decode_fn: "parse".into(),
                apply_fn: "apply".into(),
            }),
            reactor_path_fragments: vec![
                "reactor".into(),
                "peer.rs".into(),
                "core/src/echo.rs".into(),
                "core/src/pool.rs".into(),
                "core/src/proto_driver.rs".into(),
                "proto/src/session.rs".into(),
                "proto/src/endpoint.rs".into(),
            ],
            orphan_exempt_crates: vec!["perf".into(), "lint".into(), "proptest".into()],
            orphan_allow: rules::orphan_pub::parse_allowlist(rules::orphan_pub::ALLOWLIST),
            allow: BTreeSet::new(),
        }
    }
}

impl LintConfig {
    /// The `crates/<name>/` segment of a workspace-relative path, if
    /// the path is inside a crate.
    pub fn crate_of(path: &str) -> Option<&str> {
        let rest = path.strip_prefix("crates/")?;
        rest.split('/').next()
    }
}

/// Lints one file's source text under its workspace-relative path.
/// Used directly by the fixture tests; [`lint_workspace`] adds the
/// cross-file rules on top.
pub fn lint_file(path: &str, src: &str, cfg: &LintConfig) -> Vec<Finding> {
    let scan = FileScan::new(path, src);
    let mut findings = Vec::new();
    rules::safety::check(&scan, cfg, &mut findings);
    rules::ordering::check(&scan, cfg, &mut findings);
    rules::no_panic::check(&scan, cfg, &mut findings);
    rules::durability::check(&scan, cfg, &mut findings);
    rules::no_sleep_in_reactor::check(&scan, cfg, &mut findings);
    rules::no_blocking_dial::check(&scan, &mut findings);
    findings
}

/// Walks every workspace `.rs` file under `root` and returns all
/// findings, sorted by file, line, and rule.
///
/// # Errors
/// I/O errors reading the tree; an unreadable workspace is a lint
/// failure, not a silent pass.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> std::io::Result<Vec<Finding>> {
    let files = workspace_files(root)?;
    let mut findings = Vec::new();
    let mut lock_graph = rules::lock_order::LockGraph::default();
    let mut sources = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        sources.push((rel.clone(), src));
    }
    for (rel, src) in &sources {
        findings.extend(lint_file(rel, src, cfg));
        let scan = FileScan::new(rel, src);
        rules::lock_order::collect(&scan, &mut lock_graph);
    }
    rules::lock_order::check(&lock_graph, &mut findings);
    rules::msg_exhaustive::check(&sources, cfg, &mut findings);
    rules::journal_exhaustive::check(&sources, cfg, &mut findings);
    rules::orphan_pub::check(&sources, cfg, &mut findings);
    findings.sort();
    Ok(findings)
}

/// Every workspace-relative `.rs` path under `root`, sorted, skipping
/// build output, VCS internals, and lint fixture trees (which contain
/// deliberate violations).
///
/// # Errors
/// Directory traversal errors.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(relative(root, &path));
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Escapes `s` for inclusion in a JSON string literal (the `--json`
/// output; kept local so the linter depends on nothing, not even
/// `flashflow-obs`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
