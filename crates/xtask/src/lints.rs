//! The repo-specific lint suite.
//!
//! Every lint has a stable id, fires on token-level patterns (no type
//! information — see each lint's doc for its exact heuristic and known
//! blind spots), and is suppressed by an `allow` directive on the
//! finding's line (or an own-line directive immediately above). DET003
//! additionally accepts the semantic `order(<reason>)` marker. Two meta
//! lints keep the annotations themselves honest: XT000 (malformed
//! directive) and XT001 (directive that suppressed nothing).

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::scan::{match_close, FileScan};

/// Static description of one lint, for `xtask lints` and the README
/// table.
pub struct LintInfo {
    /// Stable id.
    pub id: &'static str,
    /// One-line summary of what fires.
    pub summary: &'static str,
    /// The repo invariant the lint protects.
    pub invariant: &'static str,
}

/// Every lint the analyzer knows, in id order.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        id: "DET001",
        summary: "RNG draw inside iteration over an unordered container",
        invariant: "the RNG stream consumed at fixed (seed, input) is bit-identical across \
                    runs; HashMap/HashSet iteration order would splice platform hash noise \
                    into the draw sequence",
    },
    LintInfo {
        id: "DET002",
        summary: "wall-clock or ambient-entropy source in a deterministic module",
        invariant: "deterministic modules derive every bit from (seed, input); Instant/\
                    SystemTime/thread_rng would make replay and blessed snapshots flaky",
    },
    LintInfo {
        id: "DET003",
        summary: "order-destroying mutation (swap_remove/retain-on-unordered) without an \
                  order(<reason>) marker",
        invariant: "state observed by sampling or release is sorted (or provably \
                    order-independent) before observation; swap_remove reorders silently",
    },
    LintInfo {
        id: "SAF001",
        summary: "`unsafe` without an adjacent `// SAFETY:` justification",
        invariant: "every unsafe block documents the invariant making it sound; all workspace \
                    crates currently #![forbid(unsafe_code)], so this guards future opt-outs",
    },
    LintInfo {
        id: "ERR001",
        summary: "unwrap/expect/panic! on a server-facing fallible surface (non-test code)",
        invariant: "session/ingest/supervise/WAL surfaces return typed errors; a panic in them \
                    can kill a server thread on malformed client input",
    },
    LintInfo {
        id: "XT000",
        summary: "malformed xtask directive (bad syntax, missing reason, unknown lint id)",
        invariant: "suppressions are auditable: every allow names a real lint and a reason",
    },
    LintInfo {
        id: "XT001",
        summary: "directive that suppressed nothing",
        invariant: "annotations cannot rot: a stale allow/order marker fails the build so it \
                    is removed alongside the code it excused",
    },
];

/// The valid ids for `allow` directives.
pub fn known_ids() -> Vec<&'static str> {
    LINTS.iter().map(|l| l.id).collect()
}

/// Run every applicable lint over one scanned file.
pub fn check_scan(scan: &FileScan<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let deterministic = scan.det_marker || cfg.det_modules.iter().any(|m| m == &scan.rel_path);
    let err_surface = scan.err_marker || cfg.err_surfaces.iter().any(|m| m == &scan.rel_path);

    if deterministic {
        det001(scan, cfg, out);
        det002(scan, cfg, out);
        det003(scan, cfg, out);
    }
    saf001(scan, out);
    if err_surface {
        err001(scan, out);
    }

    for m in &scan.malformed {
        out.push(diag_line(
            scan,
            "XT000",
            m.line,
            format!("malformed directive: {}", m.detail),
            None,
        ));
    }
    for d in scan.allows.iter().chain(&scan.orders) {
        if !d.used.get() {
            let what = if d.id == "ORDER" {
                "order marker".to_string()
            } else {
                format!("allow({})", d.id)
            };
            out.push(diag_line(
                scan,
                "XT001",
                d.line,
                format!("{what} suppresses nothing on its line or the line below"),
                Some("remove the stale directive, or move it onto the finding it excuses".into()),
            ));
        }
    }
}

fn diag_at(
    scan: &FileScan<'_>,
    lint: &'static str,
    t: &Tok<'_>,
    message: String,
    help: Option<String>,
) -> Diagnostic {
    Diagnostic {
        lint,
        path: scan.rel_path.clone(),
        line: t.line,
        col: t.col,
        width: t.text.len() as u32,
        message,
        line_text: scan.lines.get(t.line as usize - 1).unwrap_or(&"").to_string(),
        help,
    }
}

fn diag_line(
    scan: &FileScan<'_>,
    lint: &'static str,
    line: u32,
    message: String,
    help: Option<String>,
) -> Diagnostic {
    Diagnostic {
        lint,
        path: scan.rel_path.clone(),
        line,
        col: 1,
        width: 1,
        message,
        line_text: scan.lines.get(line as usize - 1).unwrap_or(&"").to_string(),
        help,
    }
}

fn allow_help(id: &str) -> Option<String> {
    Some(format!("suppress with an {id} allow directive and a reason if this cannot affect observable output"))
}

/// Collect the names of bindings/fields whose declared type (or
/// constructor) is an unordered container: `name: HashMap<…>`,
/// `name = HashSet::new()`, `type Alias = HashMap<…>`, through
/// reference/`mut` sigils and `std::collections::` paths.
fn unordered_names(scan: &FileScan<'_>, cfg: &Config) -> Vec<String> {
    let toks = &scan.toks;
    let mut names = Vec::new();
    for (j, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !cfg.unordered_types.iter().any(|u| u == t.text) {
            continue;
        }
        // Walk left over `path::segments::` to the start of the path.
        let mut k = j;
        while k >= 3
            && toks[k - 1].text == ":"
            && toks[k - 2].text == ":"
            && toks[k - 3].kind == TokKind::Ident
        {
            k -= 3;
        }
        // Walk left over `&`, `mut`, and lifetimes.
        let mut m = k;
        while m >= 1
            && (toks[m - 1].text == "&"
                || toks[m - 1].text == "mut"
                || toks[m - 1].kind == TokKind::Lifetime)
        {
            m -= 1;
        }
        if m >= 2 && toks[m - 2].kind == TokKind::Ident {
            let sep = toks[m - 1].text;
            let double_colon = sep == ":" && m >= 3 && toks[m - 3].text == ":";
            if (sep == ":" && !double_colon) || sep == "=" {
                let name = toks[m - 2].text.to_string();
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// Token-index ranges of `for`-loop bodies whose iterated expression
/// mentions an unordered container.
fn tainted_loop_bodies(scan: &FileScan<'_>, cfg: &Config, names: &[String]) -> Vec<(usize, usize)> {
    let toks = &scan.toks;
    let mut regions = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "for" {
            continue;
        }
        // Find the body `{`: first `{` at paren/bracket depth 0 (struct
        // literals are not allowed bare in loop headers; braces inside
        // call parentheses are at depth > 0).
        let mut depth = 0i32;
        let mut open = None;
        let mut has_in = false;
        let mut in_idx = None;
        for (j, h) in toks.iter().enumerate().skip(i + 1) {
            match h.text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth == 0 => break, // not a loop after all
                "in" if depth == 0 && h.kind == TokKind::Ident => {
                    has_in = true;
                    in_idx = Some(j);
                }
                _ => {}
            }
        }
        // `impl Trait for Type` and `for<'a>` bounds have no `in`.
        let (Some(open), true, Some(in_idx)) = (open, has_in, in_idx) else { continue };
        let header = &toks[in_idx + 1..open];
        let tainted = header.iter().any(|h| {
            h.kind == TokKind::Ident
                && (names.iter().any(|n| n == h.text)
                    || cfg.unordered_types.iter().any(|u| u == h.text))
        });
        if !tainted {
            continue;
        }
        if let Some(close) = match_close(toks, open, "{", "}") {
            regions.push((open, close));
        }
    }
    regions
}

/// DET001 — RNG draws whose order depends on unordered-container
/// iteration. Heuristic: a configured RNG-draw method called inside the
/// body of a `for` loop iterating an identifier declared as
/// `HashMap`/`HashSet` (or a direct `HashMap`/`HashSet` expression).
/// Closure-based iteration (`.iter().for_each(…)`) is a known blind
/// spot; the second enforcement layer (clippy `disallowed-types`) bans
/// the container outright in `crates/core`.
fn det001(scan: &FileScan<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let names = unordered_names(scan, cfg);
    let regions = tainted_loop_bodies(scan, cfg, &names);
    if regions.is_empty() {
        return;
    }
    let toks = &scan.toks;
    for (j, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !cfg.rng_methods.iter().any(|m| m == t.text)
            || j == 0
            || toks[j - 1].text != "."
            || toks.get(j + 1).map(|n| n.text) != Some("(")
        {
            continue;
        }
        if !regions.iter().any(|&(a, b)| j > a && j < b) {
            continue;
        }
        if scan.is_test_line(t.line) || scan.try_allow("DET001", t.line) {
            continue;
        }
        out.push(diag_at(
            scan,
            "DET001",
            t,
            format!(
                "RNG draw `{}` inside iteration over an unordered container: the draw order \
                 would follow HashMap/HashSet hash order, not a deterministic order",
                t.text
            ),
            Some(
                "iterate a sorted copy (or a BTreeMap/Vec) so the draw sequence is a pure \
                  function of (seed, input)"
                    .into(),
            ),
        ));
    }
}

/// DET002 — wall-clock / ambient-entropy sources in deterministic
/// modules: any configured `Type::method` path or bare function name.
fn det002(scan: &FileScan<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let toks = &scan.toks;
    for entry in &cfg.entropy_sources {
        let segs: Vec<&str> = entry.split("::").collect();
        for (j, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || t.text != segs[0] {
                continue;
            }
            // Match the remaining `::segment`s.
            let mut k = j;
            let mut ok = true;
            for seg in &segs[1..] {
                if toks.get(k + 1).map(|x| x.text) == Some(":")
                    && toks.get(k + 2).map(|x| x.text) == Some(":")
                    && toks.get(k + 3).map(|x| (x.kind, x.text)) == Some((TokKind::Ident, *seg))
                {
                    k += 3;
                } else {
                    ok = false;
                    break;
                }
            }
            if !ok || scan.is_test_line(t.line) || scan.try_allow("DET002", t.line) {
                continue;
            }
            out.push(diag_at(
                scan,
                "DET002",
                t,
                format!(
                    "wall-clock/entropy source `{entry}` in a deterministic module: output \
                     would depend on when (or where) the code runs, not only on (seed, input)"
                ),
                allow_help("DET002"),
            ));
        }
    }
}

/// DET003 — order-destroying mutations without a sort-before-observe
/// marker: configured `swap_remove`-style methods anywhere, plus
/// `retain`/`drain` on receivers declared as unordered containers.
fn det003(scan: &FileScan<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let names = unordered_names(scan, cfg);
    let toks = &scan.toks;
    for (j, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || j == 0
            || toks[j - 1].text != "."
            || toks.get(j + 1).map(|n| n.text) != Some("(")
        {
            continue;
        }
        let always = cfg.order_methods.iter().any(|m| m == t.text);
        let on_unordered = matches!(t.text, "retain" | "drain")
            && j >= 2
            && toks[j - 2].kind == TokKind::Ident
            && names.iter().any(|n| n == toks[j - 2].text);
        if !always && !on_unordered {
            continue;
        }
        if scan.is_test_line(t.line)
            || scan.try_order_marker(t.line)
            || scan.try_allow("DET003", t.line)
        {
            continue;
        }
        let what = if on_unordered {
            format!("`{}` over an unordered container visits entries in hash order", t.text)
        } else {
            format!("`{}` reorders the receiver in place", t.text)
        };
        out.push(diag_at(
            scan,
            "DET003",
            t,
            format!("{what}, and nothing marks where order is restored before it is observed"),
            Some(
                "add an order(<where the sort-before-observe happens>) marker on this line \
                  if downstream reads are sorted or order-independent"
                    .into(),
            ),
        ));
    }
}

/// SAF001 — `unsafe` without an adjacent `// SAFETY:` comment (same
/// line, or a comment ending within 3 lines above). Applies to every
/// file, tests included: unsound test helpers corrupt evidence too.
fn saf001(scan: &FileScan<'_>, out: &mut Vec<Diagnostic>) {
    for t in &scan.toks {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if scan.has_safety_comment(t.line, 3) || scan.try_allow("SAF001", t.line) {
            continue;
        }
        out.push(diag_at(
            scan,
            "SAF001",
            t,
            "`unsafe` without an adjacent `// SAFETY:` comment justifying why the contract \
             holds"
                .to_string(),
            Some(
                "write the invariant that makes this sound; if it cannot be written, the \
                  block is not sound"
                    .into(),
            ),
        ));
    }
}

/// ERR001 — panicking operations on server-facing fallible surfaces,
/// outside test code: `.unwrap()`, `.expect(…)`, and the `panic!` /
/// `unreachable!` / `todo!` / `unimplemented!` macros.
fn err001(scan: &FileScan<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &scan.toks;
    for (j, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let method = matches!(t.text, "unwrap" | "expect")
            && j >= 1
            && toks[j - 1].text == "."
            && toks.get(j + 1).map(|n| n.text) == Some("(");
        let mac = matches!(t.text, "panic" | "unreachable" | "todo" | "unimplemented")
            && toks.get(j + 1).map(|n| n.text) == Some("!");
        if !method && !mac {
            continue;
        }
        if scan.is_test_line(t.line) || scan.try_allow("ERR001", t.line) {
            continue;
        }
        let display = if mac { format!("{}!", t.text) } else { format!(".{}()", t.text) };
        out.push(diag_at(
            scan,
            "ERR001",
            t,
            format!(
                "`{display}` on a server-facing fallible surface: a malformed input or I/O \
                 fault here panics instead of returning a typed SessionError/WalError"
            ),
            Some(
                "return the typed error (the try_* surface), or add an ERR001 allow \
                  directive if this panic is a documented, test-pinned API contract"
                    .into(),
            ),
        ));
    }
}
