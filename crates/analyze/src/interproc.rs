//! The three interprocedural lints, phrased as queries over the call graph
//! ([`crate::graph`], [`crate::reach`]):
//!
//! - **A1 allocation-in-hot-path** — allocation shapes (`Vec::new`,
//!   `vec!`, `.clone()`, `.collect()`, `format!`, `Box::new`, …) in any
//!   function reachable from the evaluation hot roots: `FlatProgram::eval*`,
//!   the DPLL branch loop, the Karp–Luby inner scans, a view row's
//!   `IncrementalCircuit::set_prob`. Ratchets the kernel's de-allocation
//!   work so it cannot silently regress.
//! - **B1 blocking and lock order** — fsync, untimed `recv`/`wait`, channel
//!   `send`, sleeps, and lock acquisition reachable from pool worker loops,
//!   worker closures (the argument spans of pool-submit calls), or the
//!   server request loop, except a lock proven bounded; a lock-order graph
//!   with an edge from every guard region to each lock taken inside it or
//!   in any function it calls, checked for cycles and re-entry; and guards
//!   held across a blocking call, a timed receive, or a thread or pool
//!   submit.
//! - **F1 float-order** — hash-ordered statements and loops whose own body
//!   accumulates floats or renders formatted output, and calls inside them
//!   or inside parallel-submit spans that reach floating-point
//!   accumulation. FP addition does not commute with rounding, so operand
//!   order must not depend on hash seeds or thread scheduling.
//!
//! A1/B1/F1 are heuristics: real findings are either fixed or carried in
//! the committed baseline file with a written reason (see
//! [`crate::baseline`]). Findings deduplicate on their baseline key
//! (`fn site`), so one baseline line covers every repetition of the same
//! shape in the same function.

use crate::graph::{build, CallGraph, CallSite, Resolution};
use crate::lexer::{TokKind, Token};
use crate::lints::{enclosing_fn, finding, Lint, RawFinding};
use crate::model::{receiver_chain, SourceFile};
use crate::reach::{find_roots, fns_named, Reach, ReverseReach};
use crate::resolve::FnInfo;
use std::collections::{BTreeMap, BTreeSet};

/// Options for the interprocedural pass.
#[derive(Clone, Debug, Default)]
pub struct InterprocOptions {
    /// Drop the crate filters on root specs so single-file fixtures (crate
    /// `probdb`) exercise the lints. The CLI default scopes roots to the
    /// crates that actually own them.
    pub hot_everywhere: bool,
}

// ---------------------------------------------------------------------------
// A1 — allocation in hot path
// ---------------------------------------------------------------------------

/// Hot roots: the kernel evaluators, the DPLL solver loop, the Karp–Luby
/// inner scans, a view row's update. `(crate, name-or-prefix*, self type)`.
const A1_ROOTS: &[(&str, &str, Option<&str>)] = &[
    ("kernel", "eval*", None),
    ("kernel", "force_true", None),
    ("kernel", "first_satisfied", None),
    ("wmc", "solve", None),
    ("wmc", "sample_hits", None),
    ("views", "set_prob", Some("IncrementalCircuit")),
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
            out.push(finding(
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
// B1 — blocking in worker, lock order
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

/// Argument spans `(open, close, call)` of the calls that resolve to one of
/// `ids` — for pool submits, the closures that run on worker threads.
fn submit_spans<'g>(
    files: &[SourceFile],
    graph: &'g CallGraph,
    ids: &BTreeSet<usize>,
) -> Vec<(usize, usize, &'g CallSite)> {
    let mut spans = Vec::new();
    for s in &graph.sites {
        let sf = &files[s.file];
        if !matches!(s.resolution, Resolution::Workspace(t) if ids.contains(&t))
            || sf.in_test(s.tok)
        {
            continue;
        }
        let toks = sf.tokens();
        let open = (s.tok + 1..toks.len().min(s.tok + 64)).find(|&j| toks[j].is_punct("("));
        if let Some((open, close)) = open.and_then(|o| Some((o, sf.lexed.match_of(o)?))) {
            spans.push((open, close, s));
        }
    }
    spans
}

/// Where a blocking shape is reported: `Blocks` on worker paths and under a
/// guard, `UnderGuard` under a guard only, and `Acquires` (a guard
/// acquisition) on worker paths unless its lock is proven bounded.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Blocks,
    UnderGuard,
    Acquires,
}

struct Shape {
    tok: usize,
    desc: String,
    kind: Kind,
}

/// Blocking shapes in `lo..=hi`: fsync, sleeps, untimed channel/condvar
/// waits, channel sends and zero-argument guard acquisitions; and, under a
/// guard only, a timed receive and thread or pool submits (their work can
/// need the guard's lock). A `.wait(` or a submit that resolved to a
/// workspace function descends instead of firing (`Pool::wait` helps while
/// waiting; its body is analyzed on its own).
fn blocking_sites(
    sf: &SourceFile,
    fi: usize,
    lo: usize,
    hi: usize,
    graph: &CallGraph,
) -> Vec<Shape> {
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
        let zero_arg = sf.lexed.match_of(i + 1) == Some(i + 2);
        let recv = || {
            let chain = receiver_chain(&sf.lexed, i as isize - 2);
            chain.last().cloned().unwrap_or_else(|| "_".to_string())
        };
        let workspace = || {
            graph
                .site_at(fi, i)
                .is_some_and(|s| matches!(s.resolution, Resolution::Workspace(_)))
        };
        let (desc, kind) = match t.text.as_str() {
            "sync_all" | "sync_data" | "sleep" => (format!("{}()", t.text), Kind::Blocks),
            "recv" if method && zero_arg => ("recv() [untimed]".to_string(), Kind::Blocks),
            "send" if method => (format!("{}.send()", recv()), Kind::Blocks),
            "wait" if method && !workspace() => (format!("{}.wait()", recv()), Kind::Blocks),
            "lock" | "read" | "write" if method && zero_arg => {
                (format!("{}.{}()", recv(), t.text), Kind::Acquires)
            }
            "recv_timeout" | "spawn" | "scope" | "parallel_map" | "map_indices" if !workspace() => {
                (format!("{}()", t.text), Kind::UnderGuard)
            }
            _ => continue,
        };
        out.push(Shape { tok: i, desc, kind });
    }
    out
}

/// One lock acquisition with its guard's live region.
struct Acq {
    /// Crate-qualified lock name (`server::db`).
    lock: String,
    file: usize,
    /// Token index of the acquiring method/helper call.
    site: usize,
    /// Token index where the guard is last live (inclusive).
    end: usize,
    /// The guard's binding, for a `let`-bound guard.
    guard: Option<String>,
    /// Enclosing fn id.
    func: Option<usize>,
    /// The enclosing fn returns the guard (a `lock(&x)` helper): its
    /// callers hold the region and name the lock.
    escapes: bool,
}

/// Finds lock acquisitions in one file: `recv.lock()` / `.read()` /
/// `.write()` with empty argument lists, plus the poison-recovering helper
/// form `lock(&recv)` / `read(&recv)` / `write(&recv)`. A `let`-bound guard
/// lives to the end of its block or an explicit `drop(guard)`; a temporary
/// lives to the end of its statement.
fn find_acquisitions(sf: &SourceFile, file: usize, graph: &CallGraph) -> Vec<Acq> {
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
    let block_end = |open: usize| match open {
        usize::MAX => toks.len() - 1,
        _ => sf.lexed.match_of(open).unwrap_or(toks.len() - 1),
    };

    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if sf.in_test(i)
            || !matches!(t.text.as_str(), "lock" | "read" | "write")
            || (i >= 1 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct("::")))
        {
            continue;
        }
        let Some(close) = toks
            .get(i + 1)
            .filter(|n| n.is_punct("("))
            .and_then(|_| sf.lexed.match_of(i + 1))
        else {
            continue;
        };
        let lock_field = if i >= 1 && toks[i - 1].is_punct(".") {
            // Only the no-argument method form creates a guard
            // (`io::Read::read(&mut buf)` etc. take arguments).
            if close != i + 2 {
                continue;
            }
            receiver_chain(&sf.lexed, i as isize - 2).last().cloned()
        } else {
            // Helper form `lock(&x)` — one argument, which names the lock.
            toks[i + 2..close]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident && t.text != "self" && t.text != "mut")
                .map(|t| t.text.clone())
        };
        let Some(lock_field) = lock_field else {
            continue;
        };
        // Statement start: scan back to the nearest `;`, `{` or `}`.
        let mut s = i;
        while s > 0 && !matches!(toks[s - 1].text.as_str(), ";" | "{" | "}") {
            s -= 1;
        }
        let guard = toks
            .get(s)
            .filter(|t| t.is_ident("let"))
            .and_then(|_| toks[s + 1..].iter().find(|t| !t.is_ident("mut")))
            .filter(|t| t.kind == TokKind::Ident && t.text != "_")
            .map(|t| t.text.clone());
        let end = match guard.as_deref() {
            // Temporary: the next `;` at the same depth, or the close of the
            // enclosing block for a tail expression.
            None => {
                let limit = block_end(enclosing[i]);
                (close..limit)
                    .find(|&e| toks[e].is_punct(";") && enclosing[e] == enclosing[i])
                    .unwrap_or(limit)
            }
            Some(name) => {
                let limit = block_end(enclosing[s]);
                (close..limit.saturating_sub(2))
                    .find(|&j| {
                        toks[j].is_ident("drop")
                            && toks[j + 1].is_punct("(")
                            && toks[j + 2].is_ident(name)
                    })
                    .unwrap_or(limit)
            }
        };
        let func = graph.site_at(file, i).and_then(|s| s.caller);
        let escapes = func.is_some_and(|f| {
            let f = &graph.symbols.fns[f];
            let open = f.body.map_or(f.fn_tok, |(open, _)| open);
            toks[f.fn_tok..open]
                .iter()
                .skip_while(|t| !t.is_punct("->"))
                .any(|t| t.text.ends_with("Guard"))
        });
        out.push(Acq {
            lock: format!("{}::{}", sf.crate_name, lock_field),
            file,
            site: i,
            end,
            guard,
            func,
            escapes,
        });
    }
    out
}

/// Lock order and guard regions. Adds an order edge from each guard region
/// to every lock acquired inside it — directly, or in any function a call
/// in the region reaches — and reports re-entrant acquisitions, cycles, and
/// guards held across a blocking shape, a call that reaches one, or a pool
/// submit. Returns the acquisition sites `(file, tok)` of the locks proven
/// bounded: every acquisition holds the guard over a region with no
/// blocking shape, no other lock, and no call that is unresolved, names a
/// local binding (a closure or fn pointer), or reaches a blocking shape. A
/// condvar wait on the guard itself releases it.
fn lock_regions(
    files: &[SourceFile],
    graph: &CallGraph,
    acqs: &[Acq],
    shapes: &[Vec<Shape>],
    submit_ids: &BTreeSet<usize>,
    out: &mut Vec<RawFinding>,
) -> BTreeSet<(usize, usize)> {
    let fns = &graph.symbols.fns;
    // Locks each function acquires, directly or through its callees.
    let mut locks: Vec<BTreeSet<&str>> = vec![BTreeSet::new(); fns.len()];
    for a in acqs.iter().filter(|a| !a.escapes) {
        if let Some(f) = a.func {
            locks[f].insert(&a.lock);
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for f in 0..fns.len() {
            for &(g, _) in &graph.callees[f] {
                let new: Vec<&str> = locks[g].difference(&locks[f]).copied().collect();
                changed |= !new.is_empty();
                locks[f].extend(new);
            }
        }
    }
    let blocking = |pred: fn(&Shape) -> bool| -> Vec<usize> {
        (0..fns.len())
            .filter(|&f| shapes[f].iter().any(pred))
            .collect()
    };
    let block_rr = ReverseReach::backward(graph, &blocking(|_| true));
    let mut hold = blocking(|s| s.kind != Kind::Acquires);
    hold.extend(submit_ids);
    let hold_rr = ReverseReach::backward(graph, &hold);

    let mut edges: BTreeMap<(String, String), (usize, u32, String)> = BTreeMap::new();
    let mut unbounded: BTreeSet<&str> = BTreeSet::new();
    for a in acqs {
        let sf = &files[a.file];
        let toks = sf.tokens();
        let func = a.func.map_or("?", |f| fns[f].name.as_str());
        let line = toks[a.site].line;
        // A condvar wait on this guard releases it.
        let releases = |tok: usize| {
            let waits = ["wait", "wait_timeout", "wait_while"].contains(&toks[tok].text.as_str());
            let arg = toks.get(tok + 2);
            waits
                && a.guard
                    .as_ref()
                    .is_some_and(|g| arg.is_some_and(|t| t.is_ident(g)))
        };
        let reentry = |tok: usize, how: String| {
            finding(
                Lint::B1,
                a.file,
                sf,
                tok,
                format!(
                    "lock `{}` acquired {how} while a guard on it is already held (acquired \
                     at line {line}) — self-deadlock unless the receivers are provably \
                     disjoint",
                    a.lock
                ),
                None,
            )
        };
        let mut bounded = !a.escapes;
        for b in acqs {
            if b.file != a.file || b.site <= a.site || b.site > a.end {
                continue;
            }
            bounded = false;
            if b.lock == a.lock {
                out.push(reentry(b.site, format!("in `fn {func}`")));
            } else {
                edges
                    .entry((a.lock.clone(), b.lock.clone()))
                    .or_insert_with(|| (a.file, toks[b.site].line, format!("fn {func}")));
            }
        }
        for s in blocking_sites(sf, a.file, a.site + 1, a.end, graph) {
            if s.kind == Kind::Acquires || releases(s.tok) {
                continue;
            }
            bounded = false;
            out.push(finding(
                Lint::B1,
                a.file,
                sf,
                s.tok,
                format!(
                    "guard on `{}` (line {line}) is held across `{}` in `fn {func}` — a \
                     blocking call under a lock stalls every thread that needs the lock",
                    a.lock, s.desc
                ),
                Some(format!("{func} guard-{}-across-{}", a.lock, s.desc)),
            ));
        }
        for site in graph.sites_in(a.file, a.site, a.end + 1) {
            if releases(site.tok) {
                continue;
            }
            let Resolution::Workspace(t) = site.resolution else {
                bounded &= site.resolution == Resolution::External && !calls_binding(sf, fns, site);
                continue;
            };
            bounded &= !block_rr.reaches(t);
            for l in &locks[t] {
                if *l == a.lock {
                    out.push(reentry(site.tok, format!("via `{}`", site.name)));
                } else {
                    edges
                        .entry((a.lock.clone(), (*l).to_string()))
                        .or_insert_with(|| {
                            (a.file, site.line, format!("via call to `{}`", site.name))
                        });
                }
            }
            if hold_rr.reaches(t) {
                out.push(finding(
                    Lint::B1,
                    a.file,
                    sf,
                    site.tok,
                    format!(
                        "guard on `{}` (line {line}) is held across `{}`, which blocks or \
                         submits work to the pool: {} — release the guard first, or the \
                         pool serializes on (and can deadlock against) this guard",
                        a.lock,
                        fns[t].name,
                        hold_rr.trace(graph, files, t)
                    ),
                    Some(format!("{func} guard-{}-across-{}", a.lock, fns[t].name)),
                ));
            }
        }
        if !bounded {
            unbounded.insert(&a.lock);
        }
    }

    // Cycle detection over the edge set (DFS, deterministic order).
    let mut order: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        order.entry(from).or_default().insert(to);
    }
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for start in order.keys() {
        let mut path: Vec<&str> = vec![start];
        find_cycles(start, &order, &mut path, &mut reported, &edges, files, out);
    }
    acqs.iter()
        .filter(|a| !unbounded.contains(a.lock.as_str()))
        .map(|a| (a.file, a.site))
        .collect()
}

/// True when the bare call `site` names a parameter or `let` binding of its
/// caller: a closure, fn pointer or `dyn Fn` that runs arbitrary work.
fn calls_binding(sf: &SourceFile, fns: &[FnInfo], site: &CallSite) -> bool {
    let (toks, tok) = (sf.tokens(), site.tok);
    let name = &toks[tok].text;
    let Some(f) = site.caller.map(|c| &fns[c]) else {
        return false;
    };
    !(toks[tok - 1].is_punct(".") || toks[tok - 1].is_punct("::"))
        && (f.fn_tok + 1..tok).any(|j| {
            toks[j].is_ident(name)
                && (toks[j + 1].is_punct(":") || toks[j + 1].is_punct("="))
                && ["let", "mut", "(", ","].contains(&toks[j - 1].text.as_str())
        })
}

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
                    lint: Lint::B1,
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

fn lint_b1(
    files: &[SourceFile],
    graph: &CallGraph,
    opts: &InterprocOptions,
    out: &mut Vec<RawFinding>,
) {
    let submit_ids: BTreeSet<usize> = fns_named(graph, files, "par", SUBMITS, opts.hot_everywhere)
        .into_iter()
        .collect();
    let spans = submit_spans(files, graph, &submit_ids);
    let fns = &graph.symbols.fns;
    let shapes: Vec<Vec<Shape>> = fns
        .iter()
        .map(|f| match f.body {
            Some((lo, hi)) if !f.in_test => blocking_sites(&files[f.file], f.file, lo, hi, graph),
            _ => Vec::new(),
        })
        .collect();
    let acqs: Vec<Acq> = files
        .iter()
        .enumerate()
        .flat_map(|(fi, sf)| find_acquisitions(sf, fi, graph))
        .collect();
    let bounded = lock_regions(files, graph, &acqs, &shapes, &submit_ids, out);
    // On worker paths: blocking shapes, and acquisitions of unbounded locks.
    let reported = |file: usize, s: &Shape| {
        s.kind == Kind::Blocks || (s.kind == Kind::Acquires && !bounded.contains(&(file, s.tok)))
    };

    // Roots: the loops, plus every workspace call made inside a worker span.
    let mut roots = find_roots(graph, files, B1_ROOTS, opts.hot_everywhere);
    for &(lo, hi, call) in &spans {
        let label = format!("closure@{}:{}", files[call.file].path, call.line);
        for site in graph.sites_in(call.file, lo, hi) {
            if let Resolution::Workspace(t) = site.resolution {
                if !submit_ids.contains(&t) {
                    roots.push((t, label.clone()));
                }
            }
        }
    }
    let reach = Reach::forward(graph, &roots);
    for (id, f) in fns.iter().enumerate() {
        if !reach.reaches(id) {
            continue;
        }
        for s in shapes[id].iter().filter(|s| reported(f.file, s)) {
            out.push(finding(
                Lint::B1,
                f.file,
                &files[f.file],
                s.tok,
                format!(
                    "`{}` blocks inside `fn {}`, reachable from a worker: {} — a blocked \
                     worker idles a pool lane; move the wait off the pool or bound it",
                    s.desc,
                    f.name,
                    reach.trace(graph, files, id)
                ),
                Some(format!("{} {}", f.name, s.desc)),
            ));
        }
    }

    // Blocking shapes written directly inside a worker closure.
    for &(lo, hi, call) in &spans {
        let sf = &files[call.file];
        let func = call.caller.map_or("?", |f| fns[f].name.as_str());
        for s in blocking_sites(sf, call.file, lo, hi, graph) {
            if !reported(call.file, &s) {
                continue;
            }
            out.push(finding(
                Lint::B1,
                call.file,
                sf,
                s.tok,
                format!(
                    "`{}` blocks inside a worker closure submitted at {}:{} — worker \
                     closures must stay compute-only",
                    s.desc, sf.path, call.line
                ),
                Some(format!("{func} {}", s.desc)),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// F1 — float order
// ---------------------------------------------------------------------------

/// True when `toks` name `f64`/`f32` or hold a float literal.
fn float_evidence(toks: &[Token]) -> bool {
    toks.iter().any(|t| {
        t.is_ident("f64")
            || t.is_ident("f32")
            || (t.kind == TokKind::Lit
                && t.text.chars().next().is_some_and(|c| c.is_ascii_digit())
                && (t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32")))
    })
}

/// The first accumulation shape in `toks`: a compound assignment or
/// `.sum()`/`.product()`/`.fold()`.
fn accumulation(toks: &[Token]) -> Option<usize> {
    (0..toks.len()).find(|&i| {
        let t = &toks[i];
        (t.kind == TokKind::Punct && matches!(t.text.as_str(), "+=" | "-=" | "*=" | "/="))
            || (t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "sum" | "product" | "fold")
                && i > 0
                && toks[i - 1].is_punct("."))
    })
}

/// Functions whose bodies accumulate floating point. Float evidence counts
/// the signature: `fn add(acc: &mut f64, …)` accumulating via `*acc += p`
/// has no type token inside the braces.
fn float_accumulators(files: &[SourceFile], graph: &CallGraph) -> Vec<usize> {
    let fns = &graph.symbols.fns;
    (0..fns.len())
        .filter(|&id| {
            let (f, toks) = (&fns[id], files[fns[id].file].tokens());
            f.body.is_some_and(|(lo, hi)| {
                let hi = hi.min(toks.len() - 1);
                !f.in_test
                    && float_evidence(&toks[f.fn_tok..=hi])
                    && accumulation(&toks[lo..=hi]).is_some()
            })
        })
        .collect()
}

/// Iteration methods whose visit order is the hash order.
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
fn hash_typed_names(sf: &SourceFile) -> BTreeSet<String> {
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
        // `name: HashMap…` or `name = HashMap::new()`.
        let (sep, name) = (&toks[j as usize], &toks[(j - 1) as usize]);
        if (sep.is_punct(":") || sep.is_punct("=")) && name.kind == TokKind::Ident {
            names.insert(name.text.clone());
        }
    }
    names
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

/// A region whose operand order is not a pure function of the input.
struct Region {
    file: usize,
    lo: usize,
    hi: usize,
    cause: String,
    /// Hash-ordered (as opposed to a parallel-submit span).
    hashed: bool,
}

/// Hash-ordered regions of one file: the rest of a statement that calls an
/// iteration method on a hash-typed name, and the body of `for … in <hash>`.
fn hash_regions(sf: &SourceFile, file: usize, out: &mut Vec<Region>) {
    let toks = sf.tokens();
    let hash_names = hash_typed_names(sf);
    if hash_names.is_empty() {
        return;
    }
    let mut push = |lo, hi, cause| {
        out.push(Region {
            file,
            lo,
            hi,
            cause,
            hashed: true,
        })
    };
    for (i, t) in toks.iter().enumerate() {
        if sf.in_test(i) {
            continue;
        }
        // `<hash>.<iter-method>(…)…;` — the rest of the statement.
        if t.kind == TokKind::Ident
            && HASH_ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let chain = receiver_chain(&sf.lexed, i as isize - 2);
            if let Some(name) = chain.last().filter(|n| hash_names.contains(*n)) {
                let cause = format!("hash-ordered iteration over `{name}`");
                push(i, stmt_end(sf, i), cause);
            }
        }
        // `for … in <hash> { … }`.
        if t.is_ident("for") {
            let Some(j) =
                (i + 1..toks.len()).find(|&j| toks[j].is_ident("in") || toks[j].is_punct("{"))
            else {
                continue;
            };
            let k = (j + 1..toks.len())
                .find(|&k| !(toks[k].is_punct("&") || toks[k].is_ident("mut")))
                .unwrap_or(j);
            if toks[j].is_ident("in")
                && hash_names.contains(&toks[k].text)
                && toks.get(k + 1).is_some_and(|n| n.is_punct("{"))
            {
                if let Some(hi) = sf.lexed.match_of(k + 1) {
                    push(
                        k + 1,
                        hi,
                        format!("hash-ordered loop over `{}`", toks[k].text),
                    );
                }
            }
        }
    }
}

fn lint_f1(
    files: &[SourceFile],
    graph: &CallGraph,
    opts: &InterprocOptions,
    out: &mut Vec<RawFinding>,
) {
    let fns = &graph.symbols.fns;
    let rr = ReverseReach::backward(graph, &float_accumulators(files, graph));
    let submits = ["parallel_map", "map_indices", "join", "scope"];
    let submit_ids: BTreeSet<usize> = fns_named(graph, files, "par", &submits, opts.hot_everywhere)
        .into_iter()
        .collect();

    let mut regions: Vec<Region> = submit_spans(files, graph, &submit_ids)
        .into_iter()
        .map(|(lo, hi, call)| Region {
            file: call.file,
            lo,
            hi,
            cause: format!("the parallel `{}` span at line {}", call.name, call.line),
            hashed: false,
        })
        .collect();
    for (fi, sf) in files.iter().enumerate() {
        hash_regions(sf, fi, &mut regions);
    }

    for r in regions {
        let (fi, lo, hi, cause) = (r.file, r.lo, r.hi, &r.cause);
        let (sf, toks) = (&files[fi], files[fi].tokens());
        // A hash region's own sinks: FP accumulation, and formatted output.
        // A parallel span has none: its closure runs per item, in order.
        if r.hashed {
            let func = enclosing_fn(sf, lo);
            let name = func.map_or("?", |f| f.name.as_str());
            let hi = hi.min(toks.len() - 1);
            let acc = func
                .and_then(|f| f.body)
                .filter(|&(a, b)| float_evidence(&toks[a..=b.min(toks.len() - 1)]))
                .and_then(|_| accumulation(&toks[lo..=hi]))
                .map(|k| (lo + k, "floating-point accumulation"));
            let output = (lo..=hi)
                .find(|&k| {
                    toks[k].is_ident("push_str")
                        || (OUTPUT_MACROS.contains(&toks[k].text.as_str())
                            && toks.get(k + 1).is_some_and(|n| n.is_punct("!")))
                })
                .map(|k| (k, "formatted output"));
            for (k, sink) in acc.into_iter().chain(output) {
                out.push(finding(
                    Lint::F1,
                    fi,
                    sf,
                    k,
                    format!(
                        "{cause} feeds {sink} in `fn {name}` — hash iteration order varies \
                         between runs and seeds, so the result does too; iterate a \
                         BTreeMap/BTreeSet or sort first"
                    ),
                    Some(format!("{name} {}", toks[k].text)),
                ));
            }
        }
        for site in graph.sites_in(fi, lo, hi) {
            let Resolution::Workspace(t) = site.resolution else {
                continue;
            };
            if sf.in_test(site.tok) || submit_ids.contains(&t) || !rr.reaches(t) {
                continue;
            }
            let caller = site.caller.map_or("?", |c| fns[c].name.as_str());
            out.push(finding(
                Lint::F1,
                fi,
                sf,
                site.tok,
                format!(
                    "call to `{}` inside {cause} reaches floating-point accumulation: {} \
                     — FP addition does not commute with rounding, so operand order must \
                     not depend on hash seeds or scheduling; iterate sorted or combine \
                     in index order",
                    fns[t].name,
                    rr.trace(graph, files, t)
                ),
                Some(format!("{caller} {}", fns[t].name)),
            ));
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
    fn b1_flags_guard_held_across_a_call_that_blocks() {
        let fs = run("fn top(m: M) { let g = m.lock(); flush(); g.touch(); }\n\
             fn flush() { persist(); }\n\
             fn persist() { file.sync_all(); }\n");
        let guard: Vec<&RawFinding> = fs
            .iter()
            .filter(|f| f.lint == Lint::B1 && f.message.contains("held across `flush`"))
            .collect();
        assert_eq!(guard.len(), 1, "{fs:?}");
        assert!(guard[0].message.contains("persist"), "{}", guard[0].message);
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
