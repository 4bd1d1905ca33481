//! The file-local lints, which work from token shapes within one file.
//! Determinism (`F1`) and lock discipline (`B1`) are call-graph lints in
//! [`crate::interproc`].
//!
//! - **U1 unsafe-audit** — every `unsafe` block/impl/fn must carry an
//!   immediately preceding `// SAFETY:` comment (or, for `unsafe fn`, a
//!   `# Safety` doc section) stating the obligation discharged.
//! - **P1 panic-surface** — no `unwrap`/`expect`/panicking macro/slice
//!   indexing on the server request path: the server degrades, never dies.
//!
//! All lints skip `#[cfg(test)]` / `#[test]` regions: the invariants
//! protect production behaviour, and test code panics by design.

use crate::lexer::TokKind;
use crate::model::{SourceFile, NON_INDEX_KEYWORDS};

/// A lint's identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// `unsafe` without a `// SAFETY:` audit comment.
    U1,
    /// Panic reachable from the server request path.
    P1,
    /// Malformed suppression comment (missing or empty reason).
    S0,
    /// Allocation reachable from an evaluation hot root (interprocedural).
    A1,
    /// Blocking call reachable from a pool worker, lock-order cycle, or
    /// guard held across a blocking boundary (interprocedural).
    B1,
    /// Float accumulation or output fed by hash/parallel order
    /// (interprocedural).
    F1,
    /// Stale or malformed baseline entry.
    B0,
}

impl Lint {
    /// The lint's code as printed in reports and used in suppressions.
    pub fn code(self) -> &'static str {
        match self {
            Lint::U1 => "U1",
            Lint::P1 => "P1",
            Lint::S0 => "S0",
            Lint::A1 => "A1",
            Lint::B1 => "B1",
            Lint::F1 => "F1",
            Lint::B0 => "B0",
        }
    }

    /// Whether a finding of this lint fails the build by default. The
    /// heuristic lints (A1, B1, F1) warn by default and are
    /// promoted by `--deny-all`; the contract lints (U1, P1, S0) and
    /// baseline hygiene (B0) always deny.
    pub fn denies_by_default(self) -> bool {
        matches!(self, Lint::U1 | Lint::P1 | Lint::S0 | Lint::B0)
    }
}

/// One raw finding (suppression is applied by the driver).
#[derive(Clone, Debug)]
pub struct RawFinding {
    /// Which lint fired.
    pub lint: Lint,
    /// Index of the file in the analyzed set.
    pub file: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
    /// Baseline key (`fn site`), for findings the ratchet may grandfather.
    pub key: Option<String>,
}

/// A finding at token `tok` of `sf`.
pub(crate) fn finding(
    lint: Lint,
    file: usize,
    sf: &SourceFile,
    tok: usize,
    message: String,
    key: Option<String>,
) -> RawFinding {
    let t = &sf.tokens()[tok];
    RawFinding {
        lint,
        file,
        line: t.line,
        col: t.col,
        message,
        key,
    }
}

/// The innermost function whose body contains token `i`.
pub(crate) fn enclosing_fn(sf: &SourceFile, i: usize) -> Option<&crate::model::Func> {
    sf.functions
        .iter()
        .filter(|f| matches!(f.body, Some((a, b)) if i > a && i < b))
        .max_by_key(|f| f.body.map(|(a, _)| a))
}

// ---------------------------------------------------------------------------
// U1 — unsafe audit
// ---------------------------------------------------------------------------

fn lint_u1(sf: &SourceFile, file: usize, out: &mut Vec<RawFinding>) {
    let toks = sf.tokens();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") || sf.in_test(i) {
            continue;
        }
        let kind = match toks.get(i + 1) {
            Some(n) if n.is_ident("fn") => "fn",
            Some(n) if n.is_ident("impl") => "impl",
            Some(n) if n.is_ident("trait") => "trait",
            Some(n) if n.is_punct("{") => "block",
            // `unsafe` deep in a signature (`unsafe extern "C" fn` types…):
            // still audit it.
            _ => "item",
        };
        let line = t.line;
        // Accept a `SAFETY:` comment ending on this line (trailing) or in
        // the contiguous block of comment lines directly above — SAFETY
        // justifications routinely wrap over several `//` lines and the
        // marker sits on the first of them.
        let mut annotated = sf
            .lexed
            .comment_ending_on(line)
            .is_some_and(|c| c.text.contains("SAFETY:"));
        let mut l = line;
        while !annotated && l > 1 {
            match sf.lexed.comment_ending_on(l - 1) {
                Some(c) => {
                    annotated = c.text.contains("SAFETY:");
                    l = c.line;
                }
                None => break,
            }
        }
        // For `unsafe fn` items, a rustdoc `# Safety` section above the
        // signature (the std convention) also counts; allow the doc block
        // to sit a few lines up, above attributes.
        let doc_safety = kind == "fn"
            && sf
                .lexed
                .comments_ending_in(line.saturating_sub(20), line.saturating_sub(1))
                .any(|c| {
                    (c.text.starts_with("///") || c.text.starts_with("/**"))
                        && c.text.contains("# Safety")
                });
        if !annotated && !doc_safety {
            out.push(finding(
                Lint::U1,
                file,
                sf,
                i,
                format!(
                    "`unsafe {kind}` without an immediately preceding `// SAFETY:` comment — \
                     every unsafe site must state the obligation it discharges"
                ),
                None,
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// P1 — panic surface
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

fn lint_p1(sf: &SourceFile, file: usize, out: &mut Vec<RawFinding>) {
    let toks = sf.tokens();
    for (i, t) in toks.iter().enumerate() {
        if sf.in_test(i) {
            continue;
        }
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i >= 1
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let f = enclosing_fn(sf, i).map_or("?", |f| f.name.as_str());
            out.push(finding(
                Lint::P1,
                file,
                sf,
                i,
                format!(
                    "`.{}()` on the server request path (`fn {f}`) — a panic here kills the \
                     worker; degrade with an error reply instead",
                    t.text
                ),
                None,
            ));
            continue;
        }
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            let f = enclosing_fn(sf, i).map_or("?", |f| f.name.as_str());
            out.push(finding(
                Lint::P1,
                file,
                sf,
                i,
                format!(
                    "`{}!` on the server request path (`fn {f}`) — the request path must \
                     degrade, not die",
                    t.text
                ),
                None,
            ));
            continue;
        }
        // Slice/collection indexing: `expr[...]` panics on out-of-bounds or
        // missing keys.
        if t.is_punct("[") && i >= 1 {
            let p = &toks[i - 1];
            let indexes = match p.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                TokKind::Punct => p.text == ")" || p.text == "]",
                _ => false,
            };
            // Not an attribute (`#[…]`) and not a generic argument list.
            if indexes {
                let f = enclosing_fn(sf, i).map_or("?", |f| f.name.as_str());
                out.push(finding(
                    Lint::P1,
                    file,
                    sf,
                    i,
                    format!(
                        "indexing `{}[…]` on the server request path (`fn {f}`) — use `.get()` \
                         and degrade on miss instead of risking an out-of-bounds panic",
                        p.text
                    ),
                    None,
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Which lints run on which files.
#[derive(Clone, Debug, Default)]
pub struct LintOptions {
    /// Treat every file as request-path code for P1 (used by fixture
    /// tests; the CLI scopes P1 to `crates/server/src`,
    /// `crates/store/src`, `crates/replica/src`, `crates/kernel/src`,
    /// `crates/views/src`, and `crates/obs/src`).
    pub p1_everywhere: bool,
}

/// True when P1 applies to `path` under the default scoping: the serving
/// layer (a panic kills a pooled worker), the durability layer (a panic
/// between apply and log leaves memory ahead of the WAL), the replication
/// layer (a panic in the client thread silently stops a replica
/// converging; one in the hub kills the publishing mutation), the
/// evaluation kernel (flat programs run inside server workers and view
/// refreshes; a malformed program must degrade to NaN, not panic), and the
/// view layer (view compilation and refresh run inside server mutations
/// and pool jobs; a panic there poisons the service locks), and the
/// observability layer (spans and metric ticks run inline on every hot
/// path above; a panic while recording would take the query down with
/// it).
pub fn p1_applies(path: &str) -> bool {
    path.contains("crates/server/src")
        || path.contains("crates/store/src")
        || path.contains("crates/replica/src")
        || path.contains("crates/kernel/src")
        || path.contains("crates/views/src")
        || path.contains("crates/obs/src")
}

/// Runs the file-local lints over the analyzed set.
pub fn run_lints(files: &[SourceFile], opts: &LintOptions) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, sf) in files.iter().enumerate() {
        lint_u1(sf, i, &mut out);
        if opts.p1_everywhere || p1_applies(&sf.path) {
            lint_p1(sf, i, &mut out);
        }
    }
    out
}
