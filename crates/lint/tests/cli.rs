//! End-to-end exercise of the `flashflow-lint` binary against a
//! synthetic violating workspace: the exit codes, `--allow`
//! downgrade, `--deny-all` override, and `--json` output the CI job
//! and operators rely on.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Builds a throwaway workspace containing exactly one durability
/// violation (plus the minimal codec tree the default config expects)
/// and returns its root.
fn violating_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("ff-lint-cli-{tag}-{}", std::process::id()));
    let proto_src = root.join("crates/proto/src");
    let proto_tests = root.join("crates/proto/tests");
    let coord_src = root.join("crates/coord/src");
    for dir in [&proto_src, &proto_tests, &coord_src] {
        std::fs::create_dir_all(dir).expect("mk workspace");
    }
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("manifest");
    std::fs::write(proto_src.join("msg.rs"), "pub enum Msg {\n    Ping,\n}\n").expect("enum");
    std::fs::write(
        proto_src.join("frame.rs"),
        "pub fn encode(m: &Msg) -> u8 {\n    match m {\n        Msg::Ping => 0,\n    }\n}\n\
         pub fn decode_payload(b: u8) -> Option<Msg> {\n    if b == 0 {\n        Some(Msg::Ping)\n    } else {\n        None\n    }\n}\n",
    )
    .expect("codec");
    std::fs::write(
        proto_tests.join("prop_codec.rs"),
        "#[test]\nfn round_trips() {\n    assert!(decode_payload(encode(&Msg::Ping)).is_some());\n}\n",
    )
    .expect("prop");
    std::fs::write(
        coord_src.join("bad.rs"),
        "pub fn save(p: &std::path::Path) -> std::io::Result<()> {\n    std::fs::write(p, b\"x\")\n}\n",
    )
    .expect("violation");
    // A minimal, complete journal so the default journal-exhaustive
    // anchors are satisfied and only the durability violation fires.
    std::fs::write(
        coord_src.join("journal.rs"),
        "pub enum Record {\n    Fin,\n}\nimpl Record {\n    pub fn to_json_line(&self) -> &'static str {\n        match self {\n            Record::Fin => \"fin\",\n        }\n    }\n    pub fn parse(line: &str) -> Option<Record> {\n        if line == \"fin\" {\n            Some(Record::Fin)\n        } else {\n            None\n        }\n    }\n}\npub struct State;\nimpl State {\n    pub fn apply(&mut self, r: &Record) {\n        match r {\n            Record::Fin => {}\n        }\n    }\n}\n",
    )
    .expect("journal");
    root
}

fn lint(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flashflow-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run flashflow-lint")
}

#[test]
fn violations_gate_allow_downgrades_and_deny_all_restores() {
    let root = violating_workspace("gate");

    let out = lint(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.contains("crates/coord/src/bad.rs:2: durability:"),
        "file:line: rule-id: message format: {stdout}"
    );

    let out = lint(&root, &["--allow", "durability"]);
    assert_eq!(out.status.code(), Some(0), "--allow downgrades to advisory");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("(allowed)"), "advisory findings still print: {stdout}");

    let out = lint(&root, &["--allow", "durability", "--deny-all"]);
    assert_eq!(out.status.code(), Some(1), "--deny-all must override --allow");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn json_output_is_machine_readable() {
    let root = violating_workspace("json");
    let out = lint(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let line = stdout.trim();
    assert!(line.starts_with('[') && line.ends_with(']'), "one JSON array: {line}");
    assert!(line.contains("\"rule\":\"durability\""), "{line}");
    assert!(line.contains("\"allowed\":false"), "{line}");
    assert!(line.contains("\"file\":\"crates/coord/src/bad.rs\""), "{line}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unknown_allow_rule_is_a_usage_error() {
    let root = violating_workspace("usage");
    let out = lint(&root, &["--allow", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2), "unknown rule id must exit 2");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown rule"), "{stderr}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn list_rules_names_the_full_catalogue() {
    let out = Command::new(env!("CARGO_BIN_EXE_flashflow-lint"))
        .arg("--list-rules")
        .output()
        .expect("run flashflow-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        listed,
        vec![
            "safety-comment",
            "atomic-ordering",
            "no-panic",
            "durability",
            "lock-order",
            "msg-exhaustive",
            "journal-exhaustive",
            "no-sleep-in-reactor",
            "no-blocking-dial",
            "orphan-pub"
        ]
    );
}
