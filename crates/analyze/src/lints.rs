//! The four invariant lints.
//!
//! - **D1 nondeterminism** — iteration over `HashMap`/`HashSet` whose
//!   results feed floating-point accumulation or user-visible output. Hash
//!   iteration order varies between runs (and between `RandomState` seeds),
//!   so both sinks break the engine's bit-identity guarantee.
//! - **U1 unsafe-audit** — every `unsafe` block/impl/fn must carry an
//!   immediately preceding `// SAFETY:` comment (or, for `unsafe fn`, a
//!   `# Safety` doc section) stating the obligation discharged.
//! - **L1 lock-order** — builds a lock-acquisition graph (guard creation
//!   sites per function, one call-depth of propagation) and reports cycles,
//!   re-entrant acquisitions, and guards held across pool calls or channel
//!   operations.
//! - **P1 panic-surface** — no `unwrap`/`expect`/panicking macro/slice
//!   indexing on the server request path: the server degrades, never dies.
//!
//! All lints skip `#[cfg(test)]` / `#[test]` regions: the invariants
//! protect production behaviour, and test code panics by design.

use crate::lexer::TokKind;
use crate::model::{receiver_chain, SourceFile, NON_INDEX_KEYWORDS};
use std::collections::{BTreeMap, BTreeSet};

/// A lint's identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Nondeterministic hash iteration feeding FP accumulation or output.
    D1,
    /// `unsafe` without a `// SAFETY:` audit comment.
    U1,
    /// Lock-order cycle / guard held across a blocking boundary.
    L1,
    /// Panic reachable from the server request path.
    P1,
    /// Malformed suppression comment (missing or empty reason).
    S0,
    /// Allocation reachable from an evaluation hot root (interprocedural).
    A1,
    /// Blocking call reachable from a pool worker (interprocedural).
    B1,
    /// Float accumulation fed by hash/parallel order (interprocedural).
    F1,
    /// Stale or malformed baseline entry.
    B0,
}

impl Lint {
    /// The lint's code as printed in reports and used in suppressions.
    pub fn code(self) -> &'static str {
        match self {
            Lint::D1 => "D1",
            Lint::U1 => "U1",
            Lint::L1 => "L1",
            Lint::P1 => "P1",
            Lint::S0 => "S0",
            Lint::A1 => "A1",
            Lint::B1 => "B1",
            Lint::F1 => "F1",
            Lint::B0 => "B0",
        }
    }

    /// Whether a finding of this lint fails the build by default. The
    /// heuristic lints (D1, L1, A1, B1, F1) warn by default and are
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

fn finding(lint: Lint, file: usize, sf: &SourceFile, tok: usize, message: String) -> RawFinding {
    let t = &sf.tokens()[tok];
    RawFinding {
        lint,
        file,
        line: t.line,
        col: t.col,
        message,
        key: None,
    }
}

/// The innermost function whose body contains token `i`.
fn enclosing_fn(sf: &SourceFile, i: usize) -> Option<&crate::model::Func> {
    sf.functions
        .iter()
        .filter(|f| matches!(f.body, Some((a, b)) if i > a && i < b))
        .max_by_key(|f| f.body.map(|(a, _)| a))
}

// ---------------------------------------------------------------------------
// D1 — nondeterministic hash iteration
// ---------------------------------------------------------------------------

const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

const OUTPUT_MACROS: &[&str] = &[
    "format", "write", "writeln", "print", "println", "eprint", "eprintln",
];

/// Identifiers declared with a `HashMap`/`HashSet` type or initializer in
/// this file (fields, lets, params). A file-local, name-based
/// approximation: good enough because the workspace's own style keeps hash
/// collections short-lived and locally named.
pub(crate) fn hash_typed_names(sf: &SourceFile) -> BTreeSet<String> {
    let toks = sf.tokens();
    let mut names = BTreeSet::new();
    for (h, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over a path prefix (`std::collections::`) and any
        // `&`/`mut`/lifetime decoration.
        let mut j = h as isize - 1;
        while j >= 1
            && toks[j as usize].is_punct("::")
            && toks[(j - 1) as usize].kind == TokKind::Ident
        {
            j -= 2;
        }
        while j >= 0
            && (toks[j as usize].is_punct("&")
                || toks[j as usize].is_ident("mut")
                || toks[j as usize].kind == TokKind::Lifetime)
        {
            j -= 1;
        }
        if j < 1 {
            continue;
        }
        let (sep, name) = (&toks[j as usize], &toks[(j - 1) as usize]);
        if sep.is_punct(":") && name.kind == TokKind::Ident {
            names.insert(name.text.clone());
        } else if sep.is_punct("=") {
            // `x = HashMap::new()` — find the binding ident before `=`.
            if name.kind == TokKind::Ident {
                names.insert(name.text.clone());
            }
        }
    }
    names
}

fn lint_d1(sf: &SourceFile, file: usize, out: &mut Vec<RawFinding>) {
    let toks = sf.tokens();
    let hash_names = hash_typed_names(sf);
    if hash_names.is_empty() {
        return;
    }

    // Iteration sites: `<hash>.<iter-method>(` and `for … in <hash> {`.
    let mut sites: Vec<(usize, String)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if sf.in_test(i) {
            continue;
        }
        if t.kind == TokKind::Ident
            && HASH_ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let chain = receiver_chain(&sf.lexed, i as isize - 2);
            if let Some(name) = chain.last() {
                if hash_names.contains(name) {
                    sites.push((i, name.clone()));
                }
            }
        }
        if t.is_ident("for") {
            // Find `in`, then inspect the iterated expression up to `{`.
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < toks.len() && !(depth == 0 && toks[j].is_ident("in")) {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" => break,
                    _ => {}
                }
                j += 1;
            }
            if j >= toks.len() || !toks[j].is_ident("in") {
                continue;
            }
            // Bare `&map` / `&mut map` / `map` iterated directly.
            let mut k = j + 1;
            while k < toks.len() && (toks[k].is_punct("&") || toks[k].is_ident("mut")) {
                k += 1;
            }
            if k < toks.len()
                && toks[k].kind == TokKind::Ident
                && hash_names.contains(&toks[k].text)
                && toks.get(k + 1).is_some_and(|n| n.is_punct("{"))
            {
                sites.push((k, toks[k].text.clone()));
            }
        }
    }
    if sites.is_empty() {
        return;
    }

    for (site, name) in sites {
        let Some(f) = enclosing_fn(sf, site) else {
            continue;
        };
        let (a, b) = f.body.unwrap_or((site, site));
        let body = &toks[a..=b.min(toks.len() - 1)];
        let float_evidence = body.iter().any(|t| {
            t.is_ident("f64")
                || t.is_ident("f32")
                || (t.kind == TokKind::Lit
                    && t.text.chars().next().is_some_and(|c| c.is_ascii_digit())
                    && (t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32")))
        });
        let accumulates = body.iter().enumerate().any(|(i, t)| {
            matches!(t.text.as_str(), "+=" | "-=" | "*=" | "/=") && t.kind == TokKind::Punct
                || (t.kind == TokKind::Ident
                    && matches!(t.text.as_str(), "sum" | "product" | "fold")
                    && i > 0
                    && body[i - 1].is_punct("."))
        });
        let outputs = body.iter().enumerate().any(|(i, t)| {
            (t.kind == TokKind::Ident
                && OUTPUT_MACROS.contains(&t.text.as_str())
                && body.get(i + 1).is_some_and(|n| n.is_punct("!")))
                || t.is_ident("push_str")
        });
        if accumulates && float_evidence {
            out.push(finding(
                Lint::D1,
                file,
                sf,
                site,
                format!(
                    "hash-ordered iteration over `{name}` feeds floating-point accumulation in \
                     `fn {}` — iteration order is nondeterministic, so FP rounding differs \
                     between runs; iterate a BTreeMap/BTreeSet or sort before accumulating",
                    f.name
                ),
            ));
        } else if outputs {
            out.push(finding(
                Lint::D1,
                file,
                sf,
                site,
                format!(
                    "hash-ordered iteration over `{name}` feeds formatted output in `fn {}` — \
                     rendered order is nondeterministic; iterate a BTreeMap/BTreeSet or sort \
                     before rendering",
                    f.name
                ),
            ));
        }
    }
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
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// L1 — lock order
// ---------------------------------------------------------------------------

/// Calls that block (or hand work to other threads) and therefore must not
/// happen while a lock guard is live.
const BLOCKING_CALLS: &[&str] = &[
    "parallel_map",
    "map_indices",
    "spawn",
    "scope",
    "send",
    "recv",
    "recv_timeout",
];

/// One lock acquisition with its guard's live region.
pub(crate) struct Acq {
    /// Crate-qualified lock name (`server::db`).
    pub(crate) lock: String,
    /// Token index of the acquiring method/helper call.
    pub(crate) site: usize,
    /// Token index where the guard is last live (inclusive).
    pub(crate) end: usize,
    /// Enclosing function name.
    pub(crate) func: String,
    /// File index in the analyzed set.
    pub(crate) file: usize,
}

/// Finds lock acquisitions in one file: `recv.lock()` / `.read()` /
/// `.write()` with empty argument lists, plus the poison-recovering helper
/// form `lock(&recv)` / `read(&recv)` / `write(&recv)`.
pub(crate) fn find_acquisitions(sf: &SourceFile, file: usize) -> Vec<Acq> {
    let toks = sf.tokens();
    // Enclosing `{` for each token, for statement/block extent queries.
    let mut enclosing = vec![usize::MAX; toks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        enclosing[i] = stack.last().copied().unwrap_or(usize::MAX);
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            stack.pop();
            enclosing[i] = stack.last().copied().unwrap_or(usize::MAX);
        }
    }

    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if sf.in_test(i) || t.kind != TokKind::Ident {
            continue;
        }
        let is_lock_name = matches!(t.text.as_str(), "lock" | "read" | "write");
        if !is_lock_name {
            continue;
        }
        let Some(open) = toks.get(i + 1).filter(|n| n.is_punct("(")) else {
            continue;
        };
        let _ = open;
        let close = match sf.lexed.match_of(i + 1) {
            Some(c) => c,
            None => continue,
        };
        let method_form = i >= 1 && toks[i - 1].is_punct(".");
        let lock_field = if method_form {
            // `.lock()` / `.read()` / `.write()` — only the no-argument
            // form is a guard creation (`io::Read::read(&mut buf)` etc.
            // take arguments).
            if close != i + 2 {
                continue;
            }
            let chain = receiver_chain(&sf.lexed, i as isize - 2);
            match chain.last() {
                Some(name) => name.clone(),
                None => continue,
            }
        } else {
            // Helper form `lock(&x)` — one argument, which names the lock.
            if close == i + 2 {
                continue; // zero-arg free fn is not a helper call
            }
            let arg_idents: Vec<&str> = toks[i + 2..close]
                .iter()
                .filter(|t| t.kind == TokKind::Ident && t.text != "self" && t.text != "mut")
                .map(|t| t.text.as_str())
                .collect();
            match arg_idents.last() {
                Some(name) => (*name).to_string(),
                None => continue,
            }
        };
        // Statement start: scan back to the nearest `;`, `{` or `}`.
        let mut s = i;
        while s > 0 && !matches!(toks[s - 1].text.as_str(), ";" | "{" | "}") {
            s -= 1;
        }
        let is_let = toks.get(s).is_some_and(|t| t.is_ident("let"));
        let binding = if is_let {
            let mut b = s + 1;
            while toks.get(b).is_some_and(|t| t.is_ident("mut")) {
                b += 1;
            }
            toks.get(b)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
        } else {
            None
        };
        let end = match binding.as_deref() {
            Some("_") | None => {
                // Temporary guard: lives to the end of the statement —
                // the next `;` at the same nesting depth, or the close of
                // the enclosing block for a tail expression.
                let depth_home = enclosing[i];
                let limit = if depth_home == usize::MAX {
                    toks.len() - 1
                } else {
                    sf.lexed.match_of(depth_home).unwrap_or(toks.len() - 1)
                };
                let mut e = close;
                while e < limit {
                    e += 1;
                    if toks[e].is_punct(";") && enclosing[e] == depth_home {
                        break;
                    }
                }
                e.min(limit)
            }
            Some(name) => {
                // Named guard: lives to the end of the enclosing block,
                // unless explicitly `drop(name)`d earlier.
                let block_open = enclosing[s];
                let block_end = if block_open == usize::MAX {
                    toks.len() - 1
                } else {
                    sf.lexed.match_of(block_open).unwrap_or(toks.len() - 1)
                };
                let mut e = block_end;
                let mut j = close;
                while j + 3 <= block_end {
                    j += 1;
                    if toks[j].is_ident("drop")
                        && toks[j + 1].is_punct("(")
                        && toks[j + 2].is_ident(name)
                    {
                        e = j;
                        break;
                    }
                }
                e
            }
        };
        let func = enclosing_fn(sf, i).map_or_else(String::new, |f| f.name.clone());
        out.push(Acq {
            lock: format!("{}::{}", sf.crate_name, lock_field),
            site: i,
            end,
            func,
            file,
        });
    }
    out
}

fn lint_l1(files: &[SourceFile], out: &mut Vec<RawFinding>) {
    // Group files by crate so call-depth propagation and lock identity stay
    // crate-local.
    let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, sf) in files.iter().enumerate() {
        by_crate.entry(&sf.crate_name).or_default().push(i);
    }

    for (_krate, file_idxs) in by_crate {
        let mut acqs: Vec<Acq> = Vec::new();
        for &fi in &file_idxs {
            acqs.extend(find_acquisitions(&files[fi], fi));
        }
        if acqs.is_empty() {
            continue;
        }
        // Direct locks per function, for one call-depth of propagation.
        let mut fn_locks: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for a in &acqs {
            if !a.func.is_empty() {
                fn_locks.entry(&a.func).or_default().insert(&a.lock);
            }
        }

        // Edges lock → lock with one example site each.
        let mut edges: BTreeMap<(String, String), (usize, u32, String)> = BTreeMap::new();
        for a in &acqs {
            let sf = &files[a.file];
            let toks = sf.tokens();
            // Nested direct acquisitions within the guard's region.
            for b in &acqs {
                if b.file == a.file && b.site > a.site && b.site <= a.end {
                    if b.lock == a.lock {
                        out.push(finding(
                            Lint::L1,
                            a.file,
                            sf,
                            b.site,
                            format!(
                                "lock `{}` acquired in `fn {}` while a guard on it is already \
                                 held (acquired at line {}) — self-deadlock unless the \
                                 receivers are provably disjoint",
                                a.lock, a.func, toks[a.site].line
                            ),
                        ));
                    } else {
                        edges
                            .entry((a.lock.clone(), b.lock.clone()))
                            .or_insert_with(|| {
                                (a.file, toks[b.site].line, format!("fn {}", b.func))
                            });
                    }
                }
            }
            // Scan the region for blocking calls and callee expansion.
            let hi = a.end.min(toks.len() - 1);
            for j in a.site + 1..=hi {
                let t = &toks[j];
                if t.kind != TokKind::Ident || !toks.get(j + 1).is_some_and(|n| n.is_punct("(")) {
                    continue;
                }
                if BLOCKING_CALLS.contains(&t.text.as_str()) {
                    out.push(finding(
                        Lint::L1,
                        a.file,
                        sf,
                        j,
                        format!(
                            "guard on `{}` (line {}) is held across `{}` in `fn {}` — a \
                             blocking or work-distributing call under a lock can deadlock \
                             the pool or serialize it",
                            a.lock, toks[a.site].line, t.text, a.func
                        ),
                    ));
                }
                // Callee expansion: one call-depth, and only for calls we
                // can plausibly resolve crate-locally — free calls and
                // `self.` methods. A `.wait(` on some other receiver is a
                // different function (e.g. Condvar::wait) even if this
                // crate defines a `wait`; and free `drop(x)` is
                // `std::mem::drop`, not a crate fn named `drop`.
                let prev_dot = toks[j - 1].is_punct(".");
                let self_call = prev_dot && j >= 2 && toks[j - 2].is_ident("self");
                if (!prev_dot || self_call) && t.text != "drop" && t.text != a.func {
                    if let Some(callee_locks) = fn_locks.get(t.text.as_str()) {
                        for l in callee_locks {
                            if **l != *a.lock {
                                edges
                                    .entry((a.lock.clone(), (*l).to_string()))
                                    .or_insert_with(|| {
                                        (a.file, toks[j].line, format!("via call to `{}`", t.text))
                                    });
                            }
                        }
                    }
                }
            }
        }

        // Cycle detection over the edge set (DFS, deterministic order).
        let mut graph: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            graph.entry(from).or_default().insert(to);
        }
        let mut reported: BTreeSet<String> = BTreeSet::new();
        for start in graph.keys().copied().collect::<Vec<_>>() {
            let mut path: Vec<&str> = vec![start];
            find_cycles(start, &graph, &mut path, &mut reported, &edges, files, out);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn find_cycles<'a>(
    node: &str,
    graph: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    path: &mut Vec<&'a str>,
    reported: &mut BTreeSet<String>,
    edges: &BTreeMap<(String, String), (usize, u32, String)>,
    files: &[SourceFile],
    out: &mut Vec<RawFinding>,
) {
    if path.len() > 16 {
        return; // bounded: lock graphs here are tiny
    }
    let Some(nexts) = graph.get(node) else {
        return;
    };
    for next in nexts {
        if let Some(pos) = path.iter().position(|n| n == next) {
            // Canonicalize the cycle so each is reported once.
            let cycle: Vec<&str> = path[pos..].to_vec();
            let min = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .map_or(0, |(i, _)| i);
            let canon: Vec<&str> = cycle[min..]
                .iter()
                .chain(cycle[..min].iter())
                .copied()
                .collect();
            let key = canon.join(" -> ");
            if reported.insert(key.clone()) {
                let locs: Vec<String> = canon
                    .iter()
                    .zip(canon.iter().cycle().skip(1))
                    .filter_map(|(a, b)| {
                        edges
                            .get(&((*a).to_string(), (*b).to_string()))
                            .map(|(f, line, how)| {
                                format!("{a} -> {b} at {}:{line} ({how})", files[*f].path)
                            })
                    })
                    .collect();
                let (f, line, _) = edges
                    .get(&(canon[0].to_string(), canon[1 % canon.len()].to_string()))
                    .expect("cycle edge exists");
                out.push(RawFinding {
                    lint: Lint::L1,
                    file: *f,
                    line: *line,
                    col: 1,
                    message: format!(
                        "lock-order cycle: {key} -> {} [{}]",
                        canon[0],
                        locs.join("; ")
                    ),
                    key: None,
                });
            }
            continue;
        }
        path.push(next);
        find_cycles(next, graph, path, reported, edges, files, out);
        path.pop();
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

/// Runs all four lints over the analyzed set.
pub fn run_lints(files: &[SourceFile], opts: &LintOptions) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, sf) in files.iter().enumerate() {
        lint_d1(sf, i, &mut out);
        lint_u1(sf, i, &mut out);
        if opts.p1_everywhere || p1_applies(&sf.path) {
            lint_p1(sf, i, &mut out);
        }
    }
    lint_l1(files, &mut out);
    out
}
