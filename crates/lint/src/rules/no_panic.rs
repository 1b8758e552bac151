//! `no-panic`: the long-running binaries (`measurer`, `relay`,
//! `coord`, `top`) and the `procutil` serving library the first two
//! are built from must not contain `unwrap()` / `expect()` /
//! `panic!` / `unreachable!` / `todo!` / `unimplemented!` in non-test
//! code. PR 7's crash-recovery guarantee — SIGKILL the daemon, restart
//! it, resume the roster — is only meaningful if the daemon does not
//! *put itself down* on a torn line, a poisoned lock, or a closed
//! descriptor: those must drain through an error path that logs via
//! the obs sink and exits nonzero instead of unwinding.
//!
//! Test modules (`#[cfg(test)]`, `#[test]`) and files under `tests/`
//! or `benches/` directories are exempt: a failed assertion *is* a
//! test's error path.

use crate::lexer::TokKind;
use crate::scan::FileScan;
use crate::{Finding, LintConfig};

pub const RULE: &str = "no-panic";

/// Method calls that panic on the error/None arm.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Macros that panic unconditionally when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub fn check(scan: &FileScan<'_>, cfg: &LintConfig, out: &mut Vec<Finding>) {
    let Some(krate) = LintConfig::crate_of(scan.path) else { return };
    if !cfg.panic_crates.iter().any(|c| c == krate) {
        return;
    }
    for &ix in &scan.sig {
        if scan.test_mask[ix] || scan.toks[ix].kind != TokKind::Ident {
            continue;
        }
        let word = scan.text(ix);
        if PANIC_METHODS.contains(&word) {
            // A method call: `.unwrap(` — not a local named `expect`
            // or a call to some other crate's free `unwrap`.
            let dotted = scan.sig_before(ix, 1).is_some_and(|j| scan.text(j) == ".");
            let called = scan.sig_after(ix, 1).is_some_and(|j| scan.text(j) == "(");
            if dotted && called {
                out.push(finding(
                    scan,
                    ix,
                    format!(
                        "`.{word}()` in a long-running binary; recover or route the error to \
                         the obs sink and exit nonzero"
                    ),
                ));
            }
        } else if PANIC_MACROS.contains(&word)
            && scan.sig_after(ix, 1).is_some_and(|j| scan.text(j) == "!")
        {
            out.push(finding(
                scan,
                ix,
                format!(
                    "`{word}!` in a long-running binary; crash recovery cannot protect a \
                     process that panics itself"
                ),
            ));
        }
    }
}

fn finding(scan: &FileScan<'_>, ix: usize, msg: String) -> Finding {
    Finding { file: scan.path.to_string(), line: scan.toks[ix].line, rule: RULE, msg }
}
