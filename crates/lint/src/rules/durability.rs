//! `durability`: in crates that hold durable state (the coordinator,
//! whose journal and consensus documents must survive SIGKILL), every
//! file write goes through `flashflow-procutil::persist` — that is
//! where the fsync discipline lives (`atomic_write`'s
//! stage/fsync/rename/dirsync, `append_line`/`append_lines`' O_APPEND +
//! one write per line or batch + fsync). A raw `File::create`, `OpenOptions`,
//! or `std::fs::write` in such a crate is a write the crash-recovery
//! proof does not cover, even in tests: a test helper that bypasses
//! the discipline rots into a production pattern.
//!
//! Other crates are implicitly allowlisted — the measurer's config
//! reader or a fixture writer owes no durability — and
//! `procutil/persist.rs` itself is where the raw calls are *supposed*
//! to be.

use crate::scan::FileScan;
use crate::{Finding, LintConfig};

pub const RULE: &str = "durability";

pub fn check(scan: &FileScan<'_>, cfg: &LintConfig, out: &mut Vec<Finding>) {
    let Some(krate) = LintConfig::crate_of(scan.path) else { return };
    if !cfg.durable_crates.iter().any(|c| c == krate) {
        return;
    }
    for &ix in &scan.sig {
        if scan.is_ident(ix, "OpenOptions") {
            out.push(finding(
                scan,
                ix,
                "raw `OpenOptions` in a durable-state crate; open files through \
                 `flashflow_procutil::persist` so the fsync discipline is not bypassed",
            ));
        } else if scan.is_ident(ix, "File")
            && scan.sig_after(ix, 1).is_some_and(|j| scan.text(j) == ":")
            && scan.sig_after(ix, 2).is_some_and(|j| scan.text(j) == ":")
            && scan.sig_after(ix, 3).is_some_and(|j| scan.is_ident(j, "create"))
        {
            out.push(finding(
                scan,
                ix,
                "raw `File::create` in a durable-state crate; use \
                 `flashflow_procutil::atomic_write` (stage, fsync, rename, dirsync)",
            ));
        } else if scan.is_ident(ix, "write")
            && scan.sig_before(ix, 1).is_some_and(|j| scan.text(j) == ":")
            && scan.sig_before(ix, 2).is_some_and(|j| scan.text(j) == ":")
            && scan.sig_before(ix, 3).is_some_and(|j| scan.is_ident(j, "fs"))
        {
            out.push(finding(
                scan,
                ix,
                "raw `fs::write` in a durable-state crate; use \
                 `flashflow_procutil::atomic_write` — `fs::write` syncs nothing and tears \
                 on crash",
            ));
        }
    }
}

fn finding(scan: &FileScan<'_>, ix: usize, msg: &str) -> Finding {
    Finding {
        file: scan.path.to_string(),
        line: scan.toks[ix].line,
        rule: RULE,
        msg: msg.to_string(),
    }
}
