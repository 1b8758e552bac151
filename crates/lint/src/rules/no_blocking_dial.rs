//! `no-blocking-dial`: no event loop ever waits for a TCP handshake.
//! `TcpStream::connect` (and `TcpTransport::connect`, which wraps it)
//! parks the calling thread for a round trip — or, to an unanswering
//! host, for the kernel's whole SYN retry budget. A peer process's shard
//! thread parked there stalls every connection it drives; the
//! coordinator's round thread parked there freezes the round that is
//! blasting while the next one is staged. Dial with
//! `procutil::reactor::dial` instead: the handshake completes as write
//! readiness on the loop's own poller.
//!
//! Scope: non-test code in files whose path contains one of
//! `DIAL_PATHS` — the measurer and relay crates, the peer library and
//! reactor they serve from, and the coordinator's round loop and the
//! connection pool it checks its connections out of.

use crate::scan::FileScan;
use crate::Finding;

pub const RULE: &str = "no-blocking-dial";

/// Path fragments (substrings of the workspace-relative path) naming
/// the peer processes' shard paths and the coordinator's round loop.
const DIAL_PATHS: &[&str] = &[
    "crates/measurer/src/",
    "crates/relay/src/",
    "crates/procutil/src/peer.rs",
    "crates/procutil/src/reactor.rs",
    "crates/core/src/pool.rs",
    "crates/core/src/echo.rs",
];

/// The types whose associated `connect` blocks.
const DIALERS: &[&str] = &["TcpStream", "TcpTransport"];

pub fn check(scan: &FileScan<'_>, out: &mut Vec<Finding>) {
    if !DIAL_PATHS.iter().any(|frag| scan.path.contains(frag)) {
        return;
    }
    for &ix in &scan.sig {
        if scan.test_mask[ix]
            || !(scan.is_ident(ix, "connect") || scan.is_ident(ix, "connect_timeout"))
        {
            continue;
        }
        // `TcpStream::connect(` — the associated function, not some
        // other type's `connect` method or a local function.
        let qualified = scan.sig_before(ix, 1).is_some_and(|j| scan.text(j) == ":")
            && scan.sig_before(ix, 2).is_some_and(|j| scan.text(j) == ":")
            && scan
                .sig_before(ix, 3)
                .is_some_and(|j| DIALERS.iter().any(|ty| scan.is_ident(j, ty)));
        let called = scan.sig_after(ix, 1).is_some_and(|j| scan.text(j) == "(");
        if qualified && called {
            out.push(Finding {
                file: scan.path.to_string(),
                line: scan.toks[ix].line,
                rule: RULE,
                msg: "blocking TCP dial on an event loop; a parked loop stalls every \
                      connection it drives — dial with `reactor::dial` and finish the \
                      handshake on write readiness"
                    .to_string(),
            });
        }
    }
}
