//! The workspace lints itself to zero: every invariant the rules
//! encode is currently true of the tree, and stays true — a PR that
//! introduces a bare `unsafe`, a panicking daemon path, or a reversed
//! lock order fails here (and in the CI `lint-invariants` job) with
//! the exact file:line.

use std::path::PathBuf;

use flashflow_lint::rules::orphan_pub::orphans;
use flashflow_lint::{lint_workspace, workspace_files, LintConfig};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_lints_clean_with_every_rule_gating() {
    let root = workspace_root();
    let findings = lint_workspace(&root, &LintConfig::default()).expect("readable workspace");
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert_eq!(rendered, Vec::<String>::new(), "the workspace must lint clean");
}

#[test]
fn walker_sees_the_real_tree_but_not_fixtures_or_target() {
    let files = workspace_files(&workspace_root()).expect("walk");
    assert!(
        files.len() >= 100,
        "the walk found only {} files — a broken walker lints nothing and passes vacuously",
        files.len()
    );
    assert!(files.iter().any(|f| f == "crates/proto/src/msg.rs"), "known file present");
    assert!(
        files.iter().all(|f| !f.contains("/fixtures/") && !f.starts_with("target/")),
        "fixtures (deliberate violations) and build output must be excluded"
    );
}

/// Every `orphan-pub` allowlist line is still an orphan and names an
/// open ROADMAP item (one whose heading does not start "Done"): a line
/// whose item gained a caller, or whose roadmap item closed, fails here
/// until it is deleted.
#[test]
fn orphan_allowlist_lines_are_live_and_claimed_by_open_roadmap_items() {
    let root = workspace_root();
    let cfg = LintConfig::default();
    let sources: Vec<(String, String)> = workspace_files(&root)
        .expect("walk")
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel)).expect("readable source");
            (rel, src)
        })
        .collect();
    let orphans = orphans(&sources, &cfg);
    let roadmap = std::fs::read_to_string(root.join("ROADMAP.md")).expect("ROADMAP.md");
    let open = roadmap.split("## Open items").nth(1).and_then(|s| s.split("## Recent").next());
    let open = open.expect("ROADMAP.md has an Open items section");
    for a in &cfg.orphan_allow {
        let at = format!("orphan-pub.allow:{}", a.line);
        assert!(
            orphans.iter().any(|(f, name)| f.file == a.file && *name == a.name),
            "{at}: `{}` in {} is no longer an orphan; delete the line",
            a.name,
            a.file
        );
        let item = a.item.unwrap_or_else(|| panic!("{at}: the line names no `item N`"));
        let heading = format!("{item}. **");
        assert!(
            open.lines()
                .any(|l| l.starts_with(&heading) && !l[heading.len()..].starts_with("Done")),
            "{at}: ROADMAP item {item} is not an open item"
        );
    }
}
