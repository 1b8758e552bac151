//! Per-rule fixture tests: each rule gets a positive fixture (the
//! violation fires, with the expected count) and a negative one (the
//! annotated / refactored form is silent). The fixture sources live
//! under `tests/fixtures/`, which both cargo and the linter's own
//! workspace walk ignore — they hold deliberate violations.

use std::collections::BTreeSet;

use flashflow_lint::rules::orphan_pub::Allowed;
use flashflow_lint::rules::{self, lock_order};
use flashflow_lint::scan::FileScan;
use flashflow_lint::{lint_file, CodecConfig, Finding, JournalConfig, LintConfig};

/// Rule ids of `findings`, in order.
fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn safety_fixtures() {
    let cfg = LintConfig::default();
    let bad = lint_file("crates/core/src/fx.rs", include_str!("fixtures/safety_bad.rs"), &cfg);
    assert_eq!(rules_of(&bad), vec!["safety-comment", "safety-comment"], "{bad:?}");
    assert!(bad[0].msg.contains("unsafe"), "{}", bad[0]);
    assert!(bad[1].msg.contains("extern"), "{}", bad[1]);

    let good = lint_file("crates/core/src/fx.rs", include_str!("fixtures/safety_good.rs"), &cfg);
    assert_eq!(good, vec![], "annotated fixture must be silent");
}

#[test]
fn ordering_fixtures() {
    let cfg = LintConfig::default();
    // Under a hot-path name both the `SeqCst` fence and the relaxed
    // store fire; elsewhere only the relaxed store.
    let bad_src = include_str!("fixtures/ordering_bad.rs");
    let hot = lint_file("crates/obs/src/metrics.rs", bad_src, &cfg);
    assert_eq!(rules_of(&hot), vec!["atomic-ordering", "atomic-ordering"], "{hot:?}");
    let cold = lint_file("crates/core/src/fx.rs", bad_src, &cfg);
    assert_eq!(rules_of(&cold), vec!["atomic-ordering"], "{cold:?}");
    assert!(cold[0].msg.contains("relaxed store"), "{}", cold[0]);

    let good_src = include_str!("fixtures/ordering_good.rs");
    let good = lint_file("crates/obs/src/metrics.rs", good_src, &cfg);
    assert_eq!(good, vec![], "justified fixture must be silent even on the hot path");
}

#[test]
fn no_panic_fixtures() {
    let cfg = LintConfig::default();
    let bad_src = include_str!("fixtures/no_panic_bad.rs");
    let bad = lint_file("crates/measurer/src/fx.rs", bad_src, &cfg);
    assert_eq!(rules_of(&bad), vec!["no-panic"; 4], "{bad:?}");

    // The same panics outside a long-running binary's crate are fine.
    let library = lint_file("crates/core/src/fx.rs", bad_src, &cfg);
    assert_eq!(library, vec![], "libraries may panic");

    let good =
        lint_file("crates/measurer/src/fx.rs", include_str!("fixtures/no_panic_good.rs"), &cfg);
    assert_eq!(good, vec![], "graceful fixture must be silent; test modules are exempt");
}

#[test]
fn durability_fixtures() {
    let cfg = LintConfig::default();
    let bad_src = include_str!("fixtures/durability_bad.rs");
    let bad = lint_file("crates/coord/src/fx.rs", bad_src, &cfg);
    assert_eq!(rules_of(&bad), vec!["durability"; 3], "{bad:?}");

    // The same writes outside a durable-state crate are fine.
    let library = lint_file("crates/core/src/fx.rs", bad_src, &cfg);
    assert_eq!(library, vec![], "non-durable crates write freely");

    let good =
        lint_file("crates/coord/src/fx.rs", include_str!("fixtures/durability_good.rs"), &cfg);
    assert_eq!(good, vec![], "persist-routed fixture must be silent; reads stay unrestricted");
}

/// Runs the lock-order rule alone over one fixture source.
fn lock_findings(src: &str) -> Vec<Finding> {
    let scan = FileScan::new("crates/measurer/src/fx.rs", src);
    let mut graph = lock_order::LockGraph::default();
    lock_order::collect(&scan, &mut graph);
    let mut findings = Vec::new();
    lock_order::check(&graph, &mut findings);
    findings
}

#[test]
fn lock_order_fixtures() {
    let bad = lock_findings(include_str!("fixtures/lock_order_bad.rs"));
    assert_eq!(rules_of(&bad), vec!["lock-order"], "one cycle, reported once: {bad:?}");
    assert!(
        bad[0].msg.contains("replay") && bad[0].msg.contains("sessions"),
        "cycle names both locks: {}",
        bad[0]
    );
    assert!(bad[0].msg.contains("`forward`") || bad[0].msg.contains("`backward`"), "{}", bad[0]);

    let good = lock_findings(include_str!("fixtures/lock_order_good.rs"));
    assert_eq!(good, vec![], "consistent order, temporaries, and markers must be silent");
}

/// The msg-exhaustive rule over a synthetic three-file workspace.
fn msg_findings(codec_src: &str, prop_src: &str) -> Vec<Finding> {
    let codec = CodecConfig {
        enum_file: "crates/proto/src/msg.rs".into(),
        enum_name: "Msg".into(),
        codec_file: "crates/proto/src/frame.rs".into(),
        encode_fn: "encode".into(),
        decode_fn: "decode".into(),
        prop_file: "crates/proto/tests/prop_codec.rs".into(),
    };
    let cfg = LintConfig { codec: Some(codec), ..LintConfig::default() };
    let sources = vec![
        ("crates/proto/src/msg.rs".to_string(), include_str!("fixtures/msg_enum.rs").to_string()),
        ("crates/proto/src/frame.rs".to_string(), codec_src.to_string()),
        ("crates/proto/tests/prop_codec.rs".to_string(), prop_src.to_string()),
    ];
    let mut findings = Vec::new();
    rules::msg_exhaustive::check(&sources, &cfg, &mut findings);
    findings
}

#[test]
fn msg_exhaustive_fixtures() {
    let good = msg_findings(
        include_str!("fixtures/msg_codec_good.rs"),
        include_str!("fixtures/msg_prop_good.rs"),
    );
    assert_eq!(good, vec![], "complete codec must be silent");

    let bad = msg_findings(
        include_str!("fixtures/msg_codec_bad.rs"),
        include_str!("fixtures/msg_prop_bad.rs"),
    );
    assert_eq!(rules_of(&bad), vec!["msg-exhaustive", "msg-exhaustive"], "{bad:?}");
    assert!(
        bad.iter().all(|f| f.msg.contains("Msg::Report")),
        "the forgotten variant is named: {bad:?}"
    );
    assert!(bad.iter().any(|f| f.msg.contains("decoder")), "{bad:?}");
    assert!(bad.iter().any(|f| f.msg.contains("property test")), "{bad:?}");
}

fn journal_findings(journal_src: &str) -> Vec<Finding> {
    let journal = JournalConfig {
        journal_file: "crates/coord/src/journal.rs".into(),
        enum_name: "Record".into(),
        encode_fn: "to_json_line".into(),
        decode_fn: "parse".into(),
        apply_fn: "apply".into(),
    };
    let cfg = LintConfig { journal: Some(journal), ..LintConfig::default() };
    let sources = vec![("crates/coord/src/journal.rs".to_string(), journal_src.to_string())];
    let mut findings = Vec::new();
    rules::journal_exhaustive::check(&sources, &cfg, &mut findings);
    findings
}

#[test]
fn journal_exhaustive_fixtures() {
    let good = journal_findings(include_str!("fixtures/journal_good.rs"));
    assert_eq!(good, vec![], "complete recovery path must be silent");

    let bad = journal_findings(include_str!("fixtures/journal_bad.rs"));
    assert_eq!(rules_of(&bad), vec!["journal-exhaustive"; 2], "{bad:?}");
    assert!(
        bad.iter().all(|f| f.msg.contains("Record::PeriodDone")),
        "the forgotten variant is named: {bad:?}"
    );
    assert!(bad.iter().any(|f| f.msg.contains("journal decoder")), "{bad:?}");
    assert!(bad.iter().any(|f| f.msg.contains("recovery fold")), "{bad:?}");
}

/// The orphan-pub rule over a synthetic workspace: library crate `fx`
/// holding `fixture` at `path`, re-exporting `REEXPORTED` from its
/// `lib.rs`, and a binary crate that calls `snapshot` and nothing else.
fn orphan_findings(crate_name: &str, fixture: &str, allow: Vec<Allowed>) -> Vec<Finding> {
    let cfg = LintConfig { orphan_allow: allow, ..LintConfig::default() };
    let lib = format!("crates/{crate_name}/src/lib.rs");
    let file = format!("crates/{crate_name}/src/fx.rs");
    let sources = vec![
        (lib, "pub mod fx;\npub use fx::REEXPORTED;\n".to_string()),
        (file, fixture.to_string()),
        ("crates/app/src/main.rs".to_string(), "fn main() {\n    fx::snapshot();\n}\n".into()),
    ];
    let mut findings = Vec::new();
    rules::orphan_pub::check(&sources, &cfg, &mut findings);
    findings
}

#[test]
fn orphan_pub_fixtures() {
    let good = orphan_findings("fx", include_str!("fixtures/orphan_pub_good.rs"), vec![]);
    assert_eq!(good, vec![], "signature-reached, pub(crate) and test-only items are silent");

    let bad_src = include_str!("fixtures/orphan_pub_bad.rs");
    let bad = orphan_findings("fx", bad_src, vec![]);
    assert_eq!(rules_of(&bad), vec!["orphan-pub"; 3], "{bad:?}");
    for name in ["struct Unused", "const REEXPORTED", "fn total"] {
        assert!(bad.iter().any(|f| f.msg.contains(name)), "{name} flagged: {bad:?}");
    }
    assert_eq!(
        bad[0].to_string().split(':').take(2).collect::<Vec<_>>(),
        ["crates/fx/src/fx.rs", "4"]
    );

    // An allowlist line silences exactly its item.
    let allow = rules::orphan_pub::parse_allowlist(
        "# comment\ncrates/fx/src/fx.rs Unused item 3: a caller is planned\n",
    );
    assert_eq!(allow[0].item, Some(3));
    let allowed = orphan_findings("fx", bad_src, allow);
    assert_eq!(allowed.len(), 2, "{allowed:?}");
    assert!(allowed.iter().all(|f| !f.msg.contains("Unused")), "{allowed:?}");

    // The benchmark, the linter and the proptest shim are out of scope.
    assert_eq!(orphan_findings("perf", bad_src, vec![]), vec![]);
}

#[test]
fn orphan_pub_definitions_are_not_callers() {
    let twin = include_str!("fixtures/orphan_pub_twin.rs");
    let sources = vec![
        ("crates/fx/src/lib.rs".to_string(), "pub mod a;\npub mod b;\n".to_string()),
        ("crates/fx/src/a.rs".to_string(), twin.to_string()),
        ("crates/fx/src/b.rs".to_string(), twin.to_string()),
    ];
    let mut bad = Vec::new();
    rules::orphan_pub::check(&sources, &LintConfig::default(), &mut bad);
    assert_eq!(rules_of(&bad), vec!["orphan-pub"; 2], "{bad:?}");
    assert!(bad.iter().all(|f| f.msg.contains("fn hops")), "{bad:?}");
}

#[test]
fn orphan_pub_namesakes_are_not_callers() {
    let sources = vec![
        ("crates/fx/src/lib.rs".to_string(), "pub mod circuit;\n".to_string()),
        (
            "crates/fx/src/circuit.rs".to_string(),
            include_str!("fixtures/orphan_pub_namesakes.rs").to_string(),
        ),
        (
            "crates/app/src/main.rs".to_string(),
            include_str!("fixtures/orphan_pub_namesake_caller.rs").to_string(),
        ),
    ];
    let mut found = Vec::new();
    rules::orphan_pub::check(&sources, &LintConfig::default(), &mut found);
    let names: BTreeSet<&str> =
        found.iter().filter_map(|f| f.msg.split('`').nth(1)?.strip_prefix("pub fn ")).collect();
    let orphans = ["hops", "window", "credit", "total", "span", "step", "limit"];
    assert_eq!(names, BTreeSet::from(orphans), "{found:?}");
    assert_eq!(rules_of(&found), vec!["orphan-pub"; orphans.len()], "{found:?}");
}

#[test]
fn no_sleep_in_reactor_fixtures() {
    let cfg = LintConfig::default();
    let bad_src = include_str!("fixtures/no_sleep_in_reactor_bad.rs");
    let bad = lint_file("crates/relay/src/reactor.rs", bad_src, &cfg);
    assert_eq!(rules_of(&bad), vec!["no-sleep-in-reactor"; 2], "{bad:?}");
    assert!(bad[0].msg.contains("stalls every"), "{}", bad[0]);

    // The same sleeps off the reactor path are fine — blocking a
    // harness or CLI thread parks nobody's data plane.
    let elsewhere = lint_file("crates/relay/src/main.rs", bad_src, &cfg);
    assert_eq!(elsewhere, vec![], "non-reactor paths may sleep");

    let good_src = include_str!("fixtures/no_sleep_in_reactor_good.rs");
    let good = lint_file("crates/relay/src/reactor.rs", good_src, &cfg);
    assert_eq!(good, vec![], "tick/deadline waiting and a local `sleep` binding must be silent");
}

/// The coordinator's round loop and connection pool wait on socket
/// readiness, and the loop's in-memory links on a simulated clock; a
/// sleep-step creeping back into any of them is caught.
#[test]
fn coordinator_round_loop_and_pool_are_in_scope_for_no_sleep() {
    let cfg = LintConfig::default();
    let sleeps = include_str!("fixtures/no_sleep_round_loop_bad.rs");
    for path in [
        "crates/core/src/echo.rs",
        "crates/core/src/pool.rs",
        "crates/core/src/proto_driver.rs",
        // Both hosts of the peer conversation step these, and the
        // session owns the peer's report clock.
        "crates/proto/src/session.rs",
        "crates/proto/src/endpoint.rs",
    ] {
        let found = lint_file(path, sleeps, &cfg);
        assert_eq!(rules_of(&found), vec!["no-sleep-in-reactor"; 2], "{path}: {found:?}");
    }
    // The rest of core is simulation and policy code, and the rest of
    // proto neither steps a host nor keeps a clock; they may sleep.
    assert_eq!(lint_file("crates/core/src/engine.rs", sleeps, &cfg), vec![]);
    assert_eq!(lint_file("crates/proto/src/msg.rs", sleeps, &cfg), vec![]);
}

/// The coordinator's round loop and the pool it checks connections out
/// of dial without blocking; a blocking dial creeping back into either
/// is caught.
#[test]
fn coordinator_round_loop_and_pool_are_in_scope_for_no_blocking_dial() {
    let cfg = LintConfig::default();
    let dials = include_str!("fixtures/no_blocking_dial_pool_bad.rs");
    for path in ["crates/core/src/pool.rs", "crates/core/src/echo.rs"] {
        let found = lint_file(path, dials, &cfg);
        assert_eq!(rules_of(&found), vec!["no-blocking-dial"; 2], "{path}: {found:?}");
    }
    // The rest of core drives no sockets.
    assert_eq!(lint_file("crates/core/src/engine.rs", dials, &cfg), vec![]);
}

#[test]
fn no_blocking_dial_fixtures() {
    let cfg = LintConfig::default();
    let bad_src = include_str!("fixtures/no_blocking_dial_bad.rs");
    for path in [
        "crates/measurer/src/reactor.rs",
        "crates/relay/src/main.rs",
        "crates/procutil/src/peer.rs",
        "crates/procutil/src/reactor.rs",
        "crates/core/src/pool.rs",
    ] {
        let bad = lint_file(path, bad_src, &cfg);
        assert_eq!(rules_of(&bad), vec!["no-blocking-dial"; 3], "{path}: {bad:?}");
        assert!(bad[0].msg.contains("reactor::dial"), "{}", bad[0]);
    }

    // The rest of procutil runs no event loop.
    assert_eq!(
        lint_file("crates/procutil/src/lib.rs", bad_src, &cfg),
        vec![],
        "procutil/src/lib.rs is out of scope"
    );

    let good_src = include_str!("fixtures/no_blocking_dial_good.rs");
    let good = lint_file("crates/measurer/src/reactor.rs", good_src, &cfg);
    assert_eq!(good, vec![], "a reactor dial and a local `connect` must be silent");
}

/// Lint scope follows the code: the peer library the relay and measurer
/// serving paths moved into is held to the same two rules they were.
#[test]
fn peer_library_is_in_scope_for_no_panic_and_no_sleep() {
    let cfg = LintConfig::default();
    let panics = include_str!("fixtures/no_panic_bad.rs");
    let sleeps = include_str!("fixtures/no_sleep_in_reactor_bad.rs");
    let peer = "crates/procutil/src/peer.rs";
    assert_eq!(rules_of(&lint_file(peer, panics, &cfg)), vec!["no-panic"; 4]);
    assert_eq!(rules_of(&lint_file(peer, sleeps, &cfg)), vec!["no-sleep-in-reactor"; 2]);

    // The rest of procutil may not panic either, but its supervisor
    // and endpoint threads are not shards and may sleep.
    let lib = "crates/procutil/src/lib.rs";
    assert_eq!(rules_of(&lint_file(lib, panics, &cfg)), vec!["no-panic"; 4]);
    assert_eq!(lint_file(lib, sleeps, &cfg), vec![]);
}

#[test]
fn findings_render_as_file_line_rule_message() {
    let cfg = LintConfig::default();
    let bad = lint_file("crates/core/src/fx.rs", include_str!("fixtures/safety_bad.rs"), &cfg);
    let rendered = bad[0].to_string();
    assert!(
        rendered.starts_with("crates/core/src/fx.rs:4: safety-comment: "),
        "grep-able format: {rendered}"
    );
}

#[test]
fn rule_set_is_closed_under_the_ids_fixtures_use() {
    let seen: BTreeSet<&str> = flashflow_lint::RULES.iter().copied().collect();
    for id in [
        "safety-comment",
        "atomic-ordering",
        "no-panic",
        "durability",
        "lock-order",
        "msg-exhaustive",
        "journal-exhaustive",
        "no-sleep-in-reactor",
        "no-blocking-dial",
        "orphan-pub",
    ] {
        assert!(seen.contains(id), "{id} missing from RULES");
    }
    assert_eq!(seen.len(), 10);
}
