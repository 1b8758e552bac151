//! `orphan-pub`: every bare `pub` item of a library crate has a caller.
//! A `pub fn` (methods included), `struct`, `enum`, `const`, `trait`,
//! `type` or `static` in the non-test code of a library crate must be
//! named as an identifier in some `.rs` file other than its own. An
//! item nobody names is surface without a user: it is read, kept
//! compiling and documented, and it tells the reader a caller exists.
//!
//! A call (`name(`, `.name(`), a path (`Type::name`), a type use or
//! any other mention in an expression counts as a caller. These do not:
//! - the item's own file, tests included;
//! - a definition of the same name elsewhere (`fn hops` in two files
//!   are two orphans, not each other's caller);
//! - a namesake: a binding in a `let`, `for`, `match` arm or closure
//!   parameter pattern, a field, parameter or struct-pattern name
//!   before its `:`, a field access (`circuit.hops` without a call),
//!   and a bare name the same file binds (`x + hops` after
//!   `let hops`);
//! - a `use` statement in its own crate's `lib.rs` (a re-export only
//!   moves the orphan);
//! - a doc comment (comments are not identifiers);
//! - but a type named in the signature or `pub` fields of a reached
//!   `pub` item of its own file is reached through that item
//!   (`RegistrySnapshot::histograms` reaches `HistogramSnapshot`).
//!
//! The scan is by name and reads tokens, not a parse tree. It
//! under-reports where a call has a namesake (a local closure `hops`
//! called as `hops()` reaches `fn hops`), and could over-report a
//! function passed by its bare name (`.map(hops)`) in a file that also
//! binds a local `hops`.
//!
//! Known orphans that a ROADMAP item will call are listed in
//! `crates/lint/orphan-pub.allow`, one line per item naming that
//! roadmap item. The list may only shrink.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::scan::FileScan;
use crate::{Finding, LintConfig};

pub const RULE: &str = "orphan-pub";

/// The allowlist as committed: `<file> <name> item <N>: <why>` lines;
/// `#` starts a comment line.
pub const ALLOWLIST: &str = include_str!("../../orphan-pub.allow");

/// One allowlist line: the orphan `name` defined in `file`, kept for
/// ROADMAP item `item`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allowed {
    pub file: String,
    pub name: String,
    /// The ROADMAP item that will call it; `None` when the line names
    /// none (the lint crate's self-test rejects such a line).
    pub item: Option<u32>,
    /// 1-based line in the allowlist file.
    pub line: u32,
}

/// Parses allowlist text (see [`ALLOWLIST`]).
pub fn parse_allowlist(text: &str) -> Vec<Allowed> {
    let mut out = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let (Some(file), Some(name)) = (words.next(), words.next()) else { continue };
        let item = match (words.next(), words.next()) {
            (Some("item"), Some(num)) => num.trim_end_matches(':').parse().ok(),
            _ => None,
        };
        out.push(Allowed { file: file.into(), name: name.into(), item, line: n as u32 + 1 });
    }
    out
}

/// Reports every orphan that no [`LintConfig::orphan_allow`] line
/// covers.
pub fn check(sources: &[(String, String)], cfg: &LintConfig, out: &mut Vec<Finding>) {
    let allowed: BTreeSet<(&str, &str)> =
        cfg.orphan_allow.iter().map(|a| (a.file.as_str(), a.name.as_str())).collect();
    out.extend(
        orphans(sources, cfg)
            .into_iter()
            .filter(|(f, name)| !allowed.contains(&(f.file.as_str(), name.as_str())))
            .map(|(f, _)| f),
    );
}

/// Every orphan in the workspace, allowlisted or not, with its name.
pub fn orphans(sources: &[(String, String)], cfg: &LintConfig) -> Vec<(Finding, String)> {
    let scans: Vec<FileScan<'_>> = sources.iter().map(|(p, s)| FileScan::new(p, s)).collect();
    let libs: BTreeSet<&str> = scans
        .iter()
        .filter(|s| s.path.starts_with("crates/") && s.path.ends_with("/src/lib.rs"))
        .map(|s| s.path)
        .collect();
    // name -> the files naming it; a name inside a `use` statement of
    // a `lib.rs` is recorded as that lib's re-export instead, and the
    // name a definition or a namesake introduces is not recorded.
    let mut named: BTreeMap<&str, BTreeSet<(usize, bool)>> = BTreeMap::new();
    for (fi, scan) in scans.iter().enumerate() {
        let uses = if libs.contains(scan.path) { use_statements(scan) } else { Vec::new() };
        let namesake = namesakes(scan);
        for (s, &ix) in scan.sig.iter().enumerate() {
            let defined = s > 0 && DEFINERS.contains(&scan.text(scan.sig[s - 1]));
            if scan.toks[ix].kind == TokKind::Ident && !defined && !namesake[s] {
                let reexport = uses.iter().any(|&(lo, hi)| lo <= ix && ix <= hi);
                named.entry(scan.text(ix)).or_default().insert((fi, reexport));
            }
        }
    }
    let mut out = Vec::new();
    for (fi, scan) in scans.iter().enumerate() {
        let Some(krate) = LintConfig::crate_of(scan.path) else { continue };
        let lib = format!("crates/{krate}/src/lib.rs");
        if cfg.orphan_exempt_crates.iter().any(|c| c == krate)
            || !libs.contains(lib.as_str())
            || !scan.path.starts_with(&format!("crates/{krate}/src/"))
            || scan.path.ends_with("/src/main.rs")
            || scan.path.contains("/src/bin/")
        {
            continue;
        }
        let items = pub_items(scan);
        let named_elsewhere = |name: &str| {
            named.get(name).is_some_and(|files| {
                files
                    .iter()
                    .any(|&(f, reexport)| f != fi && !(reexport && scans[f].path == lib.as_str()))
            })
        };
        // Reached: named elsewhere, or named in a reached item's
        // signature; iterate to the fixpoint.
        let mut reached: Vec<bool> = items.iter().map(|it| named_elsewhere(&it.name)).collect();
        let mut changed = true;
        while changed {
            changed = false;
            let exposed: BTreeSet<&str> = items
                .iter()
                .zip(&reached)
                .filter(|(_, &r)| r)
                .flat_map(|(it, _)| it.signature.iter().map(String::as_str))
                .collect();
            for (it, r) in items.iter().zip(reached.iter_mut()) {
                if !*r && exposed.contains(it.name.as_str()) {
                    *r = true;
                    changed = true;
                }
            }
        }
        for (it, _) in items.iter().zip(&reached).filter(|(_, &r)| !r) {
            out.push((
                Finding {
                    file: scan.path.to_string(),
                    line: it.line,
                    rule: RULE,
                    msg: format!(
                        "`pub {} {}` is named in no other .rs file; delete it, narrow it to \
                         `pub(crate)` or private, or allowlist it in crates/lint/orphan-pub.allow \
                         under the ROADMAP item that will call it",
                        it.kind, it.name
                    ),
                },
                it.name.clone(),
            ));
        }
    }
    out
}

/// A bare-`pub` item: its keyword, name, line, and the identifiers of
/// its public signature (fn signature, `pub` fields, enum body, alias
/// or const type).
struct PubItem {
    kind: &'static str,
    name: String,
    line: u32,
    signature: Vec<String>,
}

/// The item keywords the rule checks.
const KINDS: [&str; 7] = ["fn", "struct", "enum", "const", "trait", "type", "static"];

/// The keywords whose next identifier is the name being defined.
const DEFINERS: [&str; 8] = ["fn", "struct", "enum", "const", "trait", "type", "static", "mod"];

fn pub_items(scan: &FileScan<'_>) -> Vec<PubItem> {
    let mut items = Vec::new();
    for (s, &ix) in scan.sig.iter().enumerate() {
        if !scan.is_ident(ix, "pub") || scan.test_mask[ix] {
            continue;
        }
        let mut k = s + 1;
        let word = |k: usize| scan.sig.get(k).map_or("", |&j| scan.text(j));
        if word(k) == "(" {
            continue; // pub(crate), pub(super), pub(in ..)
        }
        // Qualifiers: `const fn`, `unsafe fn`, `async fn`, `extern "C" fn`.
        while matches!(word(k), "unsafe" | "async" | "extern")
            || (word(k) == "const" && word(k + 1) == "fn")
            || scan.sig.get(k).is_some_and(|&j| scan.toks[j].kind == TokKind::Str)
        {
            k += 1;
        }
        let Some(&kind) = KINDS.iter().find(|&&w| w == word(k)) else { continue };
        k += 1;
        if kind == "static" && word(k) == "mut" {
            k += 1;
        }
        let Some(&name_ix) = scan.sig.get(k) else { continue };
        if scan.toks[name_ix].kind != TokKind::Ident || scan.text(name_ix) == "_" {
            continue;
        }
        items.push(PubItem {
            kind,
            name: scan.text(name_ix).to_string(),
            line: scan.toks[ix].line,
            signature: signature(scan, kind, k + 1),
        });
    }
    items
}

/// Identifiers of the public signature of the item whose name sits at
/// sig position `k - 1`.
fn signature(scan: &FileScan<'_>, kind: &str, k: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    // Struct bodies expose only their `pub` fields: segments between
    // depth-1 commas, counted when they open with a bare `pub`.
    let mut field_open = false;
    let mut field_pub = false;
    for &ix in scan.sig.iter().skip(k) {
        let t = scan.text(ix);
        match t {
            "{" if depth == 0 && kind == "fn" => break,
            "=" if depth == 0 && matches!(kind, "const" | "static") => break,
            ";" if depth == 0 => break,
            "(" | "[" | "{" | "<" => {
                depth += 1;
                if depth == 1 && kind == "struct" && t != "<" {
                    field_open = true;
                    field_pub = false;
                }
                continue;
            }
            ")" | "]" | "}" | ">" => {
                if t == ">" && scan.sig_before(ix, 1).is_some_and(|j| scan.text(j) == "-") {
                    continue; // `->`
                }
                depth -= 1;
                if depth == 0 && t != ">" && kind != "fn" {
                    break;
                }
                continue;
            }
            "," if depth == 1 && kind == "struct" => {
                field_open = true;
                field_pub = false;
                continue;
            }
            _ => {}
        }
        if scan.toks[ix].kind != TokKind::Ident {
            continue;
        }
        if kind == "struct" && depth == 1 && field_open {
            field_open = false;
            field_pub = t == "pub" && scan.sig_after(ix, 1).is_none_or(|j| scan.text(j) != "(");
        }
        if kind != "struct" || depth == 0 || field_pub {
            out.push(t.to_string());
        }
    }
    out
}

/// Which significant tokens (by `sig` position) are namesakes: an
/// identifier that names a binding, a field or a parameter rather than
/// using an item of that name (see the module doc).
fn namesakes(scan: &FileScan<'_>) -> Vec<bool> {
    let words: Vec<&str> = scan.sig.iter().map(|&ix| scan.text(ix)).collect();
    let word = |s: usize| words.get(s).copied().unwrap_or("");
    let before = |s: usize, n: usize| s.checked_sub(n).map_or("", word);
    let ident = |s: usize| scan.sig.get(s).is_some_and(|&ix| scan.toks[ix].kind == TokKind::Ident);
    let path_after = |s: usize| word(s + 1) == ":" && word(s + 2) == ":";
    let path_before = |s: usize| before(s, 1) == ":" && before(s, 2) == ":";
    // A lone `:`, not half of a `::`.
    let colon = |s: usize| word(s) == ":" && word(s + 1) != ":" && before(s, 1) != ":";
    // The first position from `from` at bracket depth 0 where `stop`
    // holds, or the bracket that closes the enclosing one.
    let scan_to = |from: usize, stop: &dyn Fn(usize) -> bool| {
        let mut depth = 0usize;
        for s in from..words.len() {
            match word(s) {
                _ if depth == 0 && stop(s) => return s,
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => return s,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
        }
        words.len()
    };
    let mut out = vec![false; words.len()];
    // The bindings of the pattern in `from..to`: lower-case names that
    // are not called, paths or struct patterns, skipping a closure
    // parameter's `: Type`.
    let bind = |out: &mut [bool], from: usize, to: usize| {
        let (mut depth, mut typed) = (0usize, false);
        for (s, namesake) in out.iter_mut().enumerate().take(to).skip(from) {
            match word(s) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "," if depth == 0 => typed = false,
                _ if depth == 0 && colon(s) => typed = true,
                w if !typed
                    && ident(s)
                    && w.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                    && !matches!(word(s + 1), "(" | "{" | "!")
                    && !path_after(s)
                    && !path_before(s) =>
                {
                    *namesake = true;
                }
                _ => {}
            }
        }
    };
    for s in 0..words.len() {
        match word(s) {
            "let" => {
                bind(&mut out, s + 1, scan_to(s + 1, &|t| matches!(word(t), "=" | ";") || colon(t)))
            }
            "for" if word(s + 1) != "<" => {
                let end = scan_to(s + 1, &|t| matches!(word(t), "in" | "{" | ";"));
                if word(end) == "in" {
                    bind(&mut out, s + 1, end);
                }
            }
            // A closure's parameters: a `|` where an operand is due.
            "|" if matches!(before(s, 1), "(" | "," | "=" | "{" | ";" | "move" | "return")
                && !matches!(word(s + 1), "|" | "=") =>
            {
                bind(&mut out, s + 1, scan_to(s + 1, &|t| word(t) == "|"));
            }
            // A `match` arm's pattern: back from its `=>` to the `,`, `{`
            // or `}` before it, then forward to the arrow or a guard.
            "=" if word(s + 1) == ">" => {
                let (mut start, mut depth) = (s, 0usize);
                while start > 0 {
                    match word(start - 1) {
                        ")" | "]" => depth += 1,
                        "(" | "[" if depth > 0 => depth -= 1,
                        "," | "{" | "}" | ";" | "(" | "[" if depth == 0 => break,
                        _ => {}
                    }
                    start -= 1;
                }
                let arrow = |t: usize| word(t) == "=" && word(t + 1) == ">";
                bind(&mut out, start, scan_to(start, &|t| arrow(t) || word(t) == "if"));
            }
            _ => {}
        }
        // `name: ...` names a field, a parameter or a struct-pattern
        // field.
        if ident(s) && colon(s + 1) {
            out[s] = true;
        }
    }
    // A bare name the file binds reads that binding; `.name` without a
    // call reads a field.
    let bound: BTreeSet<&str> =
        words.iter().zip(&out).filter(|(_, &b)| b).map(|(w, _)| *w).collect();
    for (s, namesake) in out.iter_mut().enumerate() {
        let bare = bound.contains(word(s)) && !matches!(word(s + 1), "(" | "!") && !path_before(s);
        let access = before(s, 1) == "." && before(s, 2) != "." && word(s + 1) != "(";
        *namesake |= ident(s) && !path_after(s) && (bare || access);
    }
    out
}

/// Token ranges of the `use ...;` statements at any depth.
fn use_statements(scan: &FileScan<'_>) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for &ix in &scan.sig {
        match start {
            None if scan.is_ident(ix, "use") => start = Some(ix),
            Some(lo) if scan.text(ix) == ";" => {
                out.push((lo, ix));
                start = None;
            }
            _ => {}
        }
    }
    out
}
