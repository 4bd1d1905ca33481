//! The three interprocedural lints, phrased as reachability queries over the
//! call graph ([`crate::graph`], [`crate::reach`]):
//!
//! - **A1 allocation-in-hot-path** — allocation shapes (`Vec::new`,
//!   `vec!`, `.clone()`, `.collect()`, `format!`, `Box::new`, …) in any
//!   function reachable from the evaluation hot roots: `FlatProgram::eval*`,
//!   the DPLL branch loop, the Karp–Luby inner scans. Ratchets the kernel's
//!   de-allocation work so it cannot silently regress.
//! - **B1 blocking-in-worker** — fsync, untimed `recv`/`wait`, sleeps, and
//!   lock acquisition reachable from pool worker loops, worker closures
//!   (the argument spans of pool-submit calls), or the server request loop;
//!   plus lock guards held across any call that reaches a pool submit.
//! - **F1 float-order** — interprocedural D1: calls inside hash-ordered
//!   iteration or parallel-submit spans that reach floating-point
//!   accumulation. FP addition does not commute with rounding, so operand
//!   order must not depend on hash seeds or thread scheduling.
//!
//! A1/B1/F1 are heuristics: real findings are either fixed or carried in
//! the committed baseline file with a written reason (see
//! [`crate::baseline`]). Findings deduplicate on their baseline key
//! (`fn site`), so one baseline line covers every repetition of the same
//! shape in the same function.

use crate::graph::{build, CallGraph, Resolution};
use crate::lexer::TokKind;
use crate::lints::{find_acquisitions, hash_typed_names, Lint, RawFinding};
use crate::model::{receiver_chain, SourceFile};
use crate::reach::{find_roots, fns_named, Reach, ReverseReach};
use std::collections::BTreeSet;

/// Options for the interprocedural pass.
#[derive(Clone, Debug, Default)]
pub struct InterprocOptions {
    /// Drop the crate filters on root specs so single-file fixtures (crate
    /// `probdb`) exercise the lints. The CLI default scopes roots to the
    /// crates that actually own them.
    pub hot_everywhere: bool,
}

fn mk(
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

// ---------------------------------------------------------------------------
// A1 — allocation in hot path
// ---------------------------------------------------------------------------

/// Hot roots: the kernel evaluators, the DPLL solver loop, the Karp–Luby
/// inner scans. `(crate, name-or-prefix*, self type)`.
const A1_ROOTS: &[(&str, &str, Option<&str>)] = &[
    ("kernel", "eval*", None),
    ("kernel", "force_true", None),
    ("kernel", "first_satisfied", None),
    ("wmc", "solve", None),
    ("wmc", "sample_hits", None),
];

const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_TYPES: &[&str] = &["Vec", "String", "Box", "Arc", "Rc", "VecDeque"];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_owned", "to_string", "collect"];

/// Allocation shapes in `lo..=hi` of one file, as `(token, description)`.
/// Deliberately excludes `.push`/`.extend`/`.reserve` (amortized into an
/// existing buffer — exactly the pattern the hot paths should use).
fn alloc_sites(sf: &SourceFile, lo: usize, hi: usize) -> Vec<(usize, String)> {
    let toks = sf.tokens();
    let hi = hi.min(toks.len().saturating_sub(1));
    let mut out = Vec::new();
    for i in lo..=hi {
        let t = &toks[i];
        if t.kind != TokKind::Ident || sf.in_test(i) {
            continue;
        }
        // `vec![…]` / `format!(…)`.
        if ALLOC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            out.push((i, format!("{}!", t.text)));
            continue;
        }
        // `Vec::new(…)` / `String::with_capacity(…)` / `Box::from(…)`.
        if ALLOC_CTORS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && i >= 2
            && toks[i - 1].is_punct("::")
            && ALLOC_TYPES.contains(&toks[i - 2].text.as_str())
        {
            out.push((i, format!("{}::{}", toks[i - 2].text, t.text)));
            continue;
        }
        // `.clone()` / `.collect::<…>()` / `.to_vec()` / ….
        if ALLOC_METHODS.contains(&t.text.as_str()) && i >= 1 && toks[i - 1].is_punct(".") {
            let called = toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                || (toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct("<")));
            if called {
                let recv = receiver_chain(&sf.lexed, i as isize - 2);
                let r = recv.last().map(String::as_str).unwrap_or("_");
                out.push((i, format!("{r}.{}()", t.text)));
            }
        }
    }
    out
}

fn lint_a1(
    files: &[SourceFile],
    graph: &CallGraph,
    opts: &InterprocOptions,
    out: &mut Vec<RawFinding>,
) {
    let roots = find_roots(graph, files, A1_ROOTS, opts.hot_everywhere);
    if roots.is_empty() {
        return;
    }
    let reach = Reach::forward(graph, &roots);
    for (id, f) in graph.symbols.fns.iter().enumerate() {
        if !reach.reaches(id) || f.in_test {
            continue;
        }
        let Some((lo, hi)) = f.body else { continue };
        let sf = &files[f.file];
        for (tok, desc) in alloc_sites(sf, lo, hi) {
            let trace = reach.trace(graph, files, id);
            out.push(mk(
                Lint::A1,
                f.file,
                sf,
                tok,
                format!(
                    "`{desc}` allocates inside `fn {}`, reachable from a hot root: {trace} — \
                     hoist the allocation to setup or reuse a scratch buffer",
                    f.name
                ),
                Some(format!("{} {desc}", f.name)),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// B1 — blocking in worker
// ---------------------------------------------------------------------------

/// Entry points of the workers: the pool's own loop and the server's
/// per-connection request loop.
const B1_ROOTS: &[(&str, &str, Option<&str>)] = &[
    ("par", "worker_loop", None),
    ("server", "worker_loop", None),
    ("server", "handle_connection", None),
];

/// Pool methods whose closure arguments run on worker threads. Their
/// argument spans are worker regions; workspace calls inside become
/// reachability roots.
const SUBMITS: &[&str] = &[
    "spawn",
    "spawn_detached",
    "parallel_map",
    "map_indices",
    "scope",
    "join",
    "execute",
];

/// Blocking shapes in `lo..=hi`: fsync, sleeps, untimed channel/condvar
/// waits, and zero-argument guard acquisitions. `.wait(` descends instead
/// of firing when it resolved to a workspace function (`Pool::wait` helps
/// while waiting; its body is analyzed on its own).
fn blocking_sites(
    sf: &SourceFile,
    fi: usize,
    lo: usize,
    hi: usize,
    graph: &CallGraph,
) -> Vec<(usize, String)> {
    let toks = sf.tokens();
    let hi = hi.min(toks.len().saturating_sub(1));
    let mut out = Vec::new();
    for i in lo..=hi {
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || sf.in_test(i)
            || !toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            continue;
        }
        let method = i >= 1 && toks[i - 1].is_punct(".");
        let close = sf.lexed.match_of(i + 1);
        let zero_arg = close == Some(i + 2);
        match t.text.as_str() {
            "sync_all" | "sync_data" => out.push((i, format!("{}()", t.text))),
            "sleep" => out.push((i, "sleep()".to_string())),
            "recv" if method && zero_arg => out.push((i, "recv() [untimed]".to_string())),
            "wait" if method => {
                let workspace = graph
                    .site_at(fi, i)
                    .is_some_and(|s| matches!(s.resolution, Resolution::Workspace(_)));
                if !workspace {
                    let recv = receiver_chain(&sf.lexed, i as isize - 2);
                    let r = recv.last().map(String::as_str).unwrap_or("_");
                    out.push((i, format!("{r}.wait()")));
                }
            }
            "lock" | "read" | "write" if method && zero_arg => {
                let recv = receiver_chain(&sf.lexed, i as isize - 2);
                let r = recv.last().map(String::as_str).unwrap_or("_");
                out.push((i, format!("{r}.{}()", t.text)));
            }
            _ => {}
        }
    }
    out
}

fn lint_b1(
    files: &[SourceFile],
    graph: &CallGraph,
    opts: &InterprocOptions,
    out: &mut Vec<RawFinding>,
) {
    let submit_ids: BTreeSet<usize> = fns_named(graph, files, "par", SUBMITS, opts.hot_everywhere)
        .into_iter()
        .collect();

    // Worker regions: argument spans of calls that resolve to pool submits.
    let mut spans: Vec<(usize, usize, usize, u32)> = Vec::new();
    for s in &graph.sites {
        let Resolution::Workspace(t) = s.resolution else {
            continue;
        };
        if !submit_ids.contains(&t) {
            continue;
        }
        let sf = &files[s.file];
        if sf.in_test(s.tok) {
            continue;
        }
        let toks = sf.tokens();
        let mut open = s.tok + 1;
        while open < toks.len() && open < s.tok + 64 && !toks[open].is_punct("(") {
            open += 1;
        }
        if toks.get(open).is_some_and(|t| t.is_punct("(")) {
            if let Some(close) = sf.lexed.match_of(open) {
                spans.push((s.file, open, close, s.line));
            }
        }
    }

    // Roots: the loops, plus every workspace call made inside a worker span.
    let mut roots = find_roots(graph, files, B1_ROOTS, opts.hot_everywhere);
    for &(fi, lo, hi, line) in &spans {
        let label = format!("closure@{}:{line}", files[fi].path);
        for site in graph.sites_in(fi, lo, hi) {
            if let Resolution::Workspace(t) = site.resolution {
                if !submit_ids.contains(&t) {
                    roots.push((t, label.clone()));
                }
            }
        }
    }

    if !roots.is_empty() {
        let reach = Reach::forward(graph, &roots);
        for (id, f) in graph.symbols.fns.iter().enumerate() {
            if !reach.reaches(id) || f.in_test {
                continue;
            }
            let Some((lo, hi)) = f.body else { continue };
            let sf = &files[f.file];
            for (tok, desc) in blocking_sites(sf, f.file, lo, hi, graph) {
                let trace = reach.trace(graph, files, id);
                out.push(mk(
                    Lint::B1,
                    f.file,
                    sf,
                    tok,
                    format!(
                        "`{desc}` blocks inside `fn {}`, reachable from a worker: {trace} — \
                         a blocked worker idles a pool lane; move the wait off the pool or \
                         bound it",
                        f.name
                    ),
                    Some(format!("{} {desc}", f.name)),
                ));
            }
        }
    }

    // Blocking shapes written directly inside a worker closure.
    for &(fi, lo, hi, line) in &spans {
        let sf = &files[fi];
        for (tok, desc) in blocking_sites(sf, fi, lo, hi, graph) {
            let func = graph
                .symbols
                .fns
                .iter()
                .find(|f| f.file == fi && matches!(f.body, Some((a, b)) if tok > a && tok < b))
                .map_or("?", |f| f.name.as_str());
            out.push(mk(
                Lint::B1,
                fi,
                sf,
                tok,
                format!(
                    "`{desc}` blocks inside a worker closure submitted at {}:{line} — worker \
                     closures must stay compute-only",
                    sf.path
                ),
                Some(format!("{func} {desc}")),
            ));
        }
    }

    // Guards held across calls that reach a pool submit: the helping /
    // queue-handoff machinery may run arbitrary jobs before returning, so
    // any lock held here is held for an unbounded time (and deadlocks if a
    // job re-acquires it).
    if submit_ids.is_empty() {
        return;
    }
    let targets: Vec<usize> = submit_ids.iter().copied().collect();
    let rr = ReverseReach::backward(graph, &targets);
    for (fi, sf) in files.iter().enumerate() {
        for acq in find_acquisitions(sf, fi) {
            for site in graph.sites_in(fi, acq.site, acq.end + 1) {
                let Resolution::Workspace(t) = site.resolution else {
                    continue;
                };
                if !rr.reaches(t) {
                    continue;
                }
                let callee = &graph.symbols.fns[t];
                out.push(mk(
                    Lint::B1,
                    fi,
                    sf,
                    site.tok,
                    format!(
                        "guard on `{}` (line {}) is held across `{}`, which submits work to \
                         the pool: {} — compile or submit outside the lock, or the pool \
                         serializes on (and can deadlock against) this guard",
                        acq.lock,
                        sf.tokens()[acq.site].line,
                        callee.name,
                        rr.trace(graph, files, t)
                    ),
                    Some(format!(
                        "{} guard-{}-across-{}",
                        acq.func, acq.lock, callee.name
                    )),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// F1 — float order
// ---------------------------------------------------------------------------

/// Functions whose bodies accumulate floating point: compound assignment or
/// `.sum()`/`.fold()`/`.product()` with `f64`/`f32` evidence in scope.
fn float_accumulators(files: &[SourceFile], graph: &CallGraph) -> Vec<usize> {
    let mut out = Vec::new();
    for (id, f) in graph.symbols.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let Some((lo, hi)) = f.body else { continue };
        let sf = &files[f.file];
        let toks = sf.tokens();
        let hi = hi.min(toks.len() - 1);
        let body = &toks[lo..=hi];
        // Float evidence includes the signature: `fn add(acc: &mut f64, …)`
        // accumulating via `*acc += p` has no type token inside the braces.
        let sig_and_body = &toks[f.fn_tok..=hi];
        let float_evidence = sig_and_body.iter().any(|t| {
            t.is_ident("f64")
                || t.is_ident("f32")
                || (t.kind == TokKind::Lit
                    && t.text.chars().next().is_some_and(|c| c.is_ascii_digit())
                    && (t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32")))
        });
        if !float_evidence {
            continue;
        }
        let accumulates = body.iter().enumerate().any(|(i, t)| {
            (t.kind == TokKind::Punct && matches!(t.text.as_str(), "+=" | "-=" | "*=" | "/="))
                || (t.kind == TokKind::Ident
                    && matches!(t.text.as_str(), "sum" | "product" | "fold")
                    && i > 0
                    && body[i - 1].is_punct("."))
        });
        if accumulates {
            out.push(id);
        }
    }
    out
}

/// End of the statement containing token `i`: the next `;` at the same
/// brace depth, bounded by the enclosing block.
fn stmt_end(sf: &SourceFile, i: usize) -> usize {
    let toks = sf.tokens();
    let mut depth = 0i32;
    let mut j = i;
    while j + 1 < toks.len() {
        j += 1;
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
    }
    toks.len() - 1
}

fn lint_f1(
    files: &[SourceFile],
    graph: &CallGraph,
    opts: &InterprocOptions,
    out: &mut Vec<RawFinding>,
) {
    let accs = float_accumulators(files, graph);
    if accs.is_empty() {
        return;
    }
    let rr = ReverseReach::backward(graph, &accs);
    let submit_ids: BTreeSet<usize> = fns_named(
        graph,
        files,
        "par",
        &["parallel_map", "map_indices", "join", "scope"],
        opts.hot_everywhere,
    )
    .into_iter()
    .collect();

    // Unordered regions per file: hash-iterated loop bodies / statements,
    // and parallel-submit argument spans.
    for (fi, sf) in files.iter().enumerate() {
        let toks = sf.tokens();
        let hash_names = hash_typed_names(sf);
        let mut regions: Vec<(usize, usize, String)> = Vec::new();

        if !hash_names.is_empty() {
            for (i, t) in toks.iter().enumerate() {
                if sf.in_test(i) {
                    continue;
                }
                // `<hash>.<iter-method>(…)…;` — the rest of the statement.
                if t.kind == TokKind::Ident
                    && matches!(
                        t.text.as_str(),
                        "iter"
                            | "iter_mut"
                            | "into_iter"
                            | "keys"
                            | "values"
                            | "values_mut"
                            | "drain"
                    )
                    && i >= 2
                    && toks[i - 1].is_punct(".")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                {
                    let chain = receiver_chain(&sf.lexed, i as isize - 2);
                    if let Some(name) = chain.last() {
                        if hash_names.contains(name) {
                            regions.push((
                                i,
                                stmt_end(sf, i),
                                format!("hash-ordered iteration over `{name}`"),
                            ));
                        }
                    }
                }
                // `for … in <hash> { … }`.
                if t.is_ident("for") {
                    let mut j = i + 1;
                    while j < toks.len() && !toks[j].is_ident("in") && !toks[j].is_punct("{") {
                        j += 1;
                    }
                    if !toks.get(j).is_some_and(|t| t.is_ident("in")) {
                        continue;
                    }
                    let mut k = j + 1;
                    while k < toks.len() && (toks[k].is_punct("&") || toks[k].is_ident("mut")) {
                        k += 1;
                    }
                    if toks
                        .get(k)
                        .is_some_and(|t| t.kind == TokKind::Ident && hash_names.contains(&t.text))
                        && toks.get(k + 1).is_some_and(|n| n.is_punct("{"))
                    {
                        if let Some(close) = sf.lexed.match_of(k + 1) {
                            regions.push((
                                k + 1,
                                close,
                                format!("hash-ordered loop over `{}`", toks[k].text),
                            ));
                        }
                    }
                }
            }
        }
        for s in &graph.sites {
            if s.file != fi || sf.in_test(s.tok) {
                continue;
            }
            let Resolution::Workspace(t) = s.resolution else {
                continue;
            };
            if !submit_ids.contains(&t) {
                continue;
            }
            let mut open = s.tok + 1;
            while open < toks.len() && open < s.tok + 64 && !toks[open].is_punct("(") {
                open += 1;
            }
            if toks.get(open).is_some_and(|t| t.is_punct("(")) {
                if let Some(close) = sf.lexed.match_of(open) {
                    regions.push((
                        open,
                        close,
                        format!("the parallel `{}` span at line {}", s.name, s.line),
                    ));
                }
            }
        }

        for (lo, hi, cause) in regions {
            for site in graph.sites_in(fi, lo, hi) {
                if sf.in_test(site.tok) {
                    continue;
                }
                let Resolution::Workspace(t) = site.resolution else {
                    continue;
                };
                if submit_ids.contains(&t) || !rr.reaches(t) {
                    continue;
                }
                let callee = &graph.symbols.fns[t];
                let func = site
                    .caller
                    .map_or("?", |c| graph.symbols.fns[c].name.as_str());
                out.push(mk(
                    Lint::F1,
                    fi,
                    sf,
                    site.tok,
                    format!(
                        "call to `{}` inside {cause} reaches floating-point accumulation: {} \
                         — FP addition does not commute with rounding, so operand order must \
                         not depend on hash seeds or scheduling; iterate sorted or combine \
                         in index order",
                        callee.name,
                        rr.trace(graph, files, t)
                    ),
                    Some(format!("{func} {}", callee.name)),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Runs the interprocedural lints. Returns the findings (deduplicated on
/// their baseline key per file) and the call-graph statistics.
pub fn run_interproc(
    files: &[SourceFile],
    opts: &InterprocOptions,
) -> (Vec<RawFinding>, crate::graph::GraphStats) {
    let graph = build(files);
    let mut raw = Vec::new();
    lint_a1(files, &graph, opts, &mut raw);
    lint_b1(files, &graph, opts, &mut raw);
    lint_f1(files, &graph, opts, &mut raw);

    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    let mut out = Vec::new();
    for r in raw {
        let dedup = match &r.key {
            Some(k) => seen.insert((r.lint.code().to_string(), r.file, k.clone())),
            None => true,
        };
        if dedup {
            out.push(r);
        }
    }
    (out, graph.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<RawFinding> {
        let files = vec![SourceFile::parse("crates/demo/src/lib.rs", src)];
        let opts = InterprocOptions {
            hot_everywhere: true,
        };
        run_interproc(&files, &opts).0
    }

    fn codes(fs: &[RawFinding]) -> Vec<&'static str> {
        fs.iter().map(|f| f.lint.code()).collect()
    }

    #[test]
    fn a1_flags_reachable_allocation_with_trace() {
        let fs = run("pub fn eval(x: &[f64]) -> f64 { helper(x) }\n\
             fn helper(x: &[f64]) -> f64 { let v: Vec<f64> = x.to_vec(); v[0] }\n");
        let a1: Vec<&RawFinding> = fs.iter().filter(|f| f.lint == Lint::A1).collect();
        assert_eq!(a1.len(), 1, "{fs:?}");
        assert!(a1[0].message.contains("[root"), "{}", a1[0].message);
        assert!(a1[0].message.contains("helper"), "{}", a1[0].message);
        assert_eq!(a1[0].key.as_deref(), Some("helper x.to_vec()"));
    }

    #[test]
    fn a1_ignores_unreachable_and_test_allocations() {
        let fs = run("pub fn eval() -> u32 { 1 }\n\
             pub fn cold() { let _v = Vec::<u32>::new(); let _s = vec![1]; }\n\
             #[cfg(test)]\nmod tests { fn t() { let _ = vec![1]; } }\n");
        assert!(codes(&fs).iter().all(|c| *c != "A1"), "{fs:?}");
    }

    #[test]
    fn b1_flags_blocking_reachable_from_worker_loop() {
        let fs = run("pub fn worker_loop() { step(); }\n\
             fn step() { flush(); }\n\
             fn flush() { file.sync_all(); }\n");
        let b1: Vec<&RawFinding> = fs.iter().filter(|f| f.lint == Lint::B1).collect();
        assert_eq!(b1.len(), 1, "{fs:?}");
        assert!(b1[0].message.contains("sync_all"), "{}", b1[0].message);
        assert!(b1[0].message.contains("step"), "{}", b1[0].message);
    }

    #[test]
    fn b1_flags_guard_held_across_pool_submit() {
        let fs = run(
            "pub struct Pool;\nimpl Pool { pub fn parallel_map(&self) {} }\n\
             fn rebuild(pool: &Pool) { pool.parallel_map(); }\n\
             fn top(pool: &Pool, m: M) { let g = m.lock(); rebuild(pool); g.touch(); }\n",
        );
        let guard: Vec<&RawFinding> = fs
            .iter()
            .filter(|f| f.lint == Lint::B1 && f.message.contains("held across"))
            .collect();
        assert_eq!(guard.len(), 1, "{fs:?}");
        assert!(guard[0].message.contains("rebuild"), "{}", guard[0].message);
    }

    #[test]
    fn b1_worker_closure_spans_become_roots() {
        let fs = run(
            "pub struct Pool;\nimpl Pool { pub fn spawn_detached(&self) {} }\n\
             fn kick(pool: &Pool) { pool.spawn_detached(checkpoint()); }\n\
             fn checkpoint() { f.sync_all(); }\n",
        );
        let b1: Vec<&RawFinding> = fs
            .iter()
            .filter(|f| f.lint == Lint::B1 && f.message.contains("sync_all"))
            .collect();
        assert_eq!(b1.len(), 1, "{fs:?}");
        assert!(b1[0].message.contains("closure@"), "{}", b1[0].message);
    }

    #[test]
    fn f1_flags_hash_loop_calling_float_accumulator() {
        let fs = run("fn total(probs: &HashMap<u32, f64>) -> f64 {\n\
                 let mut acc = 0.0f64;\n\
                 for p in probs { add_to(&mut acc, p); }\n\
                 acc\n\
             }\n\
             fn add_to(acc: &mut f64, p: f64) { *acc += p; }\n");
        let f1: Vec<&RawFinding> = fs.iter().filter(|f| f.lint == Lint::F1).collect();
        assert_eq!(f1.len(), 1, "{fs:?}");
        assert!(f1[0].message.contains("add_to"), "{}", f1[0].message);
    }

    #[test]
    fn f1_is_quiet_for_btree_iteration() {
        let fs = run("fn total(probs: &BTreeMap<u32, f64>) -> f64 {\n\
                 let mut acc = 0.0f64;\n\
                 for p in probs { add_to(&mut acc, p); }\n\
                 acc\n\
             }\n\
             fn add_to(acc: &mut f64, p: f64) { *acc += p; }\n");
        assert!(codes(&fs).iter().all(|c| *c != "F1"), "{fs:?}");
    }

    #[test]
    fn findings_dedup_on_key() {
        let fs = run("pub fn eval() { helper(); helper2(); }\n\
             fn helper() { let a = x.clone(); let b = x.clone(); }\n\
             fn helper2() {}\n");
        let a1: Vec<&RawFinding> = fs.iter().filter(|f| f.lint == Lint::A1).collect();
        assert_eq!(a1.len(), 1, "one finding per (fn, shape): {fs:?}");
    }
}
