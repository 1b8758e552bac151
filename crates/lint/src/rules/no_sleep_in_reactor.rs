//! `no-sleep-in-reactor`: reactor code must never block a shard
//! thread. A reactor shard multiplexes hundreds of connections; a
//! single `thread::sleep` on its path stalls *every* connection the
//! shard drives for the duration — the exact failure mode the
//! readiness-driven core exists to rule out. Waiting belongs in the
//! event loop: `epoll_wait`'s timeout bounds idle latency, and
//! per-connection deadlines/ticks express "later" without parking the
//! thread.
//!
//! Scope: non-test code in files whose path contains a configured
//! fragment — `reactor`, `peer.rs`, and the coordinator's
//! `core/src/echo.rs` round loop and `core/src/pool.rs` keepalive
//! probe by default. Test modules and `tests/`/`benches/` trees are
//! exempt: a harness thread sleeping between assertions blocks nobody's
//! data plane.

use crate::scan::FileScan;
use crate::{Finding, LintConfig};

pub const RULE: &str = "no-sleep-in-reactor";

pub fn check(scan: &FileScan<'_>, cfg: &LintConfig, out: &mut Vec<Finding>) {
    let in_scope = cfg.reactor_path_fragments.iter().any(|frag| scan.path.contains(frag.as_str()));
    if !in_scope {
        return;
    }
    for &ix in &scan.sig {
        if scan.test_mask[ix] || !scan.is_ident(ix, "sleep") {
            continue;
        }
        // `thread::sleep(` — qualified call, not a local named `sleep`
        // or some other type's method.
        let qualified = scan.sig_before(ix, 1).is_some_and(|j| scan.text(j) == ":")
            && scan.sig_before(ix, 2).is_some_and(|j| scan.text(j) == ":")
            && scan.sig_before(ix, 3).is_some_and(|j| scan.is_ident(j, "thread"));
        let called = scan.sig_after(ix, 1).is_some_and(|j| scan.text(j) == "(");
        if qualified && called {
            out.push(Finding {
                file: scan.path.to_string(),
                line: scan.toks[ix].line,
                rule: RULE,
                msg: "`thread::sleep` in reactor code; a blocked shard stalls every \
                      connection it drives — wait via the event loop's tick/deadline \
                      machinery instead"
                    .to_string(),
            });
        }
    }
}
