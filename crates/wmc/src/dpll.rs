//! A DPLL-style weighted model counter with caching and components.
//!
//! This is the grounded-inference engine of §7: full backtracking search
//! using Shannon expansion (rule (11)) and the *components* rule (rule (12)),
//! with component caching in the style of Cachet/sharpSAT. Unit clauses are
//! branched first (unit propagation as a degenerate Shannon step), so the
//! recorded trace stays a pure decision structure.
//!
//! Following Huang–Darwiche, the **trace** of a run is a knowledge-compilation
//! circuit:
//! * caching + fixed variable order ⇒ an OBDD,
//! * caching, free order, no components ⇒ an FBDD,
//! * caching + components ⇒ a decision-DNNF.
//!
//! The trace is recorded as a [`Trace`] DAG (cache hits create sharing);
//! `pdb-compile` re-exports it as a decision-DNNF circuit, and the Theorem 7.1
//! experiments measure its size.
//!
//! [`Dpll::run`] and [`run_parallel`] are one recursion over one component
//! cache. It forks near the root only on a pool of more than one thread
//! with no trace requested; otherwise every step runs in serial order.
//!
//! ## The de-allocated hot path
//!
//! Clause storage is **interned once** per run: working sets are
//! `Vec<Arc<Clause>>`, so conditioning shares every untouched clause by
//! reference-count bump instead of deep-cloning it per branch, and forks
//! receive their clause sets the same way. Component-cache probes compute a
//! cheap commutative 64-bit **prefilter hash** first; the canonical
//! `Vec<i32>` key is materialized — into a reusable scratch buffer, not a
//! fresh allocation — only when a bucket with that hash already exists,
//! and is allocated only when a new entry is actually stored. Lint A1 of
//! `pdb-analyze` keeps it that way: a new allocation reachable from the
//! recursion fails the workspace check.

use pdb_lineage::{Clause, Cnf};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Tuning knobs for the counter (each maps to a §7 concept).
#[derive(Clone, Debug)]
pub struct DpllOptions {
    /// Apply the components rule (12). Off ⇒ FBDD-shaped traces.
    pub components: bool,
    /// Cache component results. Off ⇒ the trace is a tree (no sharing).
    pub caching: bool,
    /// Record the trace DAG.
    pub record_trace: bool,
    /// Fixed variable order (OBDD-shaped traces when components are off).
    /// Variables not listed are ordered after listed ones, by index.
    pub var_order: Option<Vec<u32>>,
    /// Abort after this many decision nodes (0 = unlimited); exponential
    /// instances are the *point* of some experiments, so callers can bound
    /// the blow-up and detect it.
    pub max_decisions: u64,
    /// Abort once the wall clock passes this instant (`None` = never): the
    /// time budget next to the decision budget, checked in the same place.
    pub deadline: Option<Instant>,
}

impl DpllOptions {
    /// True when decision number `decisions` (1-based) exhausts a budget.
    /// The clock is read on the first decision (a deadline already past
    /// aborts at once) and every 64th after it: tens of nanoseconds
    /// amortised over the tens of microseconds 64 decisions take.
    fn exhausted(&self, decisions: u64) -> bool {
        (self.max_decisions > 0 && decisions > self.max_decisions)
            || (decisions % 64 == 1 && self.deadline.is_some_and(|d| Instant::now() >= d))
    }
}

impl Default for DpllOptions {
    fn default() -> DpllOptions {
        DpllOptions {
            components: true,
            caching: true,
            record_trace: false,
            var_order: None,
            max_decisions: 0,
            deadline: None,
        }
    }
}

/// Counters describing a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DpllStats {
    /// Shannon branches taken (unit propagations included).
    pub decisions: u64,
    /// Component cache hits.
    pub cache_hits: u64,
    /// Component cache misses (entries stored).
    pub cache_misses: u64,
    /// Number of times a formula split into ≥ 2 components.
    pub component_splits: u64,
    /// Maximum recursion depth reached.
    pub max_depth: u64,
}

/// Identifier of a trace node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceNodeId(pub u32);

/// One node of the recorded trace DAG.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceNode {
    /// The constant-true leaf.
    True,
    /// The constant-false leaf.
    False,
    /// A Shannon decision on `var`.
    Decision {
        /// The branched variable.
        var: u32,
        /// Subtrace under `var = 1`.
        hi: TraceNodeId,
        /// Subtrace under `var = 0`.
        lo: TraceNodeId,
    },
    /// An independent-∧ node (component split).
    And {
        /// The independent subtraces.
        children: Vec<TraceNodeId>,
    },
}

/// The trace DAG of a DPLL run (a decision-DNNF per Huang–Darwiche).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    nodes: Vec<TraceNode>,
    root: Option<TraceNodeId>,
}

impl Trace {
    const TRUE: TraceNodeId = TraceNodeId(0);
    const FALSE: TraceNodeId = TraceNodeId(1);

    fn new() -> Trace {
        Trace {
            nodes: vec![TraceNode::True, TraceNode::False],
            root: None,
        }
    }

    fn push(&mut self, node: TraceNode) -> TraceNodeId {
        let id = TraceNodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// The root node id.
    pub fn root(&self) -> TraceNodeId {
        self.root.expect("trace has a root after a completed run")
    }

    /// The node behind an id.
    pub fn node(&self, id: TraceNodeId) -> &TraceNode {
        &self.nodes[id.0 as usize]
    }

    /// All nodes (index = id).
    pub fn nodes(&self) -> &[TraceNode] {
        &self.nodes
    }

    /// Number of nodes *reachable from the root* — the size measure used in
    /// the Theorem 7.1 experiments.
    pub fn reachable_size(&self) -> usize {
        self.reachable().count()
    }

    /// Number of decision nodes reachable from the root.
    pub fn decision_count(&self) -> usize {
        let decision = |n: &&TraceNode| matches!(n, TraceNode::Decision { .. });
        self.reachable().filter(decision).count()
    }

    /// Every node reachable from the root, once each (none without a root).
    fn reachable(&self) -> impl Iterator<Item = &TraceNode> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<TraceNodeId> = self.root.into_iter().collect();
        std::iter::from_fn(move || {
            while let Some(id) = stack.pop() {
                if std::mem::replace(&mut seen[id.0 as usize], true) {
                    continue;
                }
                let node = &self.nodes[id.0 as usize];
                match node {
                    TraceNode::True | TraceNode::False => {}
                    TraceNode::Decision { hi, lo, .. } => stack.extend([*hi, *lo]),
                    TraceNode::And { children } => stack.extend(children.iter().copied()),
                }
                return Some(node);
            }
            None
        })
    }

    /// Evaluates the trace as a circuit on an assignment (for validation:
    /// the trace must compute exactly the counted formula).
    pub fn eval(&self, assignment: &dyn Fn(u32) -> bool) -> bool {
        fn go(t: &Trace, id: TraceNodeId, a: &dyn Fn(u32) -> bool) -> bool {
            match t.node(id) {
                TraceNode::True => true,
                TraceNode::False => false,
                TraceNode::Decision { var, hi, lo } => {
                    if a(*var) {
                        go(t, *hi, a)
                    } else {
                        go(t, *lo, a)
                    }
                }
                TraceNode::And { children } => children.iter().all(|c| go(t, *c, a)),
            }
        }
        go(self, self.root(), assignment)
    }
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct DpllResult {
    /// The weighted count: `p(F)` under the given per-variable probabilities.
    pub probability: f64,
    /// Run statistics.
    pub stats: DpllStats,
    /// The recorded trace, when requested and the run completed.
    pub trace: Option<Trace>,
    /// True when `max_decisions` or `deadline` aborted the run (the
    /// probability is NaN and there is no trace).
    pub aborted: bool,
}

/// A solved (sub)formula: its probability and its trace node.
type Solved = (f64, TraceNodeId);

/// The counter itself. Create with [`Dpll::new`], run with [`Dpll::run`].
pub struct Dpll {
    clauses: Vec<Arc<Clause>>,
    probs: Vec<f64>,
    options: DpllOptions,
}

impl Dpll {
    /// Prepares a counter for `cnf` with per-variable probabilities
    /// (`probs.len() == cnf.num_vars`; Tseitin auxiliaries should get 1/2 and
    /// the caller corrects by `2^aux` — see `pdb-wmc::prob`).
    pub fn new(cnf: &Cnf, probs: Vec<f64>, options: DpllOptions) -> Dpll {
        assert_eq!(probs.len() as u32, cnf.num_vars, "one probability per var");
        Dpll {
            // The single place whole clauses are deep-copied: every branch
            // afterwards shares them through the `Arc`s.
            clauses: cnf.clauses.iter().map(|c| Arc::new(c.clone())).collect(),
            probs,
            options,
        }
    }

    /// Runs the counter on the calling thread.
    pub fn run(self) -> DpllResult {
        self.run_on(&pdb_par::Pool::new(1))
    }

    fn run_on(self, pool: &pdb_par::Pool) -> DpllResult {
        let options = &self.options;
        let ctx = Ctx {
            probs: &self.probs,
            options,
            order_rank: order_rank(options, self.probs.len()),
            pool,
            fork: pool.threads() > 1 && !options.record_trace,
            cache: Cache::default(),
            decisions: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            component_splits: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
        };
        let mut task = Task::new(&ctx);
        let (p, root) = solve(&ctx, &mut task, self.clauses, 0);
        let aborted = ctx.aborted.load(Ordering::Acquire);
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        DpllResult {
            probability: if aborted { f64::NAN } else { p },
            stats: DpllStats {
                decisions: get(&ctx.decisions),
                cache_hits: get(&ctx.cache_hits),
                cache_misses: get(&ctx.cache_misses),
                component_splits: get(&ctx.component_splits),
                max_depth: get(&ctx.max_depth),
            },
            trace: task.trace.filter(|_| !aborted).map(|trace| Trace {
                root: Some(root),
                ..trace
            }),
            aborted,
        }
    }
}

/// Shared state of one run: what every task reads, plus the cache, the
/// counters and the abort flag every task writes.
struct Ctx<'a> {
    probs: &'a [f64],
    options: &'a DpllOptions,
    /// Each variable's position in `options.var_order`.
    order_rank: Vec<u32>,
    pool: &'a pdb_par::Pool,
    /// Fork near the root: more than one thread and no trace (forked tasks
    /// could not number trace nodes independently of the schedule).
    fork: bool,
    cache: Cache,
    /// The [`DpllStats`] counters every task adds into.
    decisions: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    component_splits: AtomicU64,
    max_depth: AtomicU64,
    /// Set by whichever task trips a budget; every task polls it on entry.
    aborted: AtomicBool,
}

/// The component cache, lock-striped by prefilter hash. A forked task never
/// waits on a stripe another task holds: a busy stripe reads as a miss and
/// drops the store, harmless because values are deterministic (an unforked
/// run never finds one busy). A probe whose hash has no bucket skips key
/// materialization; the exact key comparison backs the rare collisions.
#[derive(Default)]
struct Cache {
    shards: [Mutex<Shard>; 16],
}

/// One stripe: prefilter hash → bucket of `(exact key, solved)` pairs.
type Shard = HashMap<u64, Vec<(Vec<i32>, Solved)>>;

impl Cache {
    fn shard(&self, h: u64) -> Option<MutexGuard<'_, Shard>> {
        // The prefilter hash is already well mixed; fold the high bits in
        // so shard choice is not just the low bits of the clause hashes.
        let i = ((h ^ (h >> 32)) % self.shards.len() as u64) as usize;
        self.shards[i].try_lock().ok()
    }

    /// On a bucket for `h`, materializes the canonical key into the task's
    /// scratch and compares exactly.
    fn probe(&self, h: u64, clauses: &[Arc<Clause>], task: &mut Task) -> Option<Solved> {
        let map = self.shard(h)?;
        let bucket = map.get(&h)?;
        serialize_into(clauses, &mut task.sort, &mut task.key);
        bucket.iter().find(|(k, _)| *k == task.key).map(|&(_, v)| v)
    }

    /// Stores a solved component. The canonical key is (re)built here —
    /// the scratch may have been overwritten by the recursive solves — and
    /// this is the only point a key is allocated. Two forked tasks may race
    /// to solve the same component; the values are deterministic, so the
    /// first entry stays and the echo is dropped.
    fn store(&self, h: u64, clauses: &[Arc<Clause>], task: &mut Task, solved: Solved) {
        serialize_into(clauses, &mut task.sort, &mut task.key);
        if let Some(mut map) = self.shard(h) {
            let bucket = map.entry(h).or_default();
            if !bucket.iter().any(|(k, _)| *k == task.key) {
                bucket.push((task.key.clone(), solved));
            }
        }
    }
}

/// Per-task scratch: a run's first task and every fork own one; the
/// unforked recursion under a task reuses its buffers.
struct Task {
    /// Per-variable occurrence buffer for [`most_frequent_var`] (all-zero
    /// between calls), replacing a per-call `HashMap`.
    counts: Vec<u32>,
    /// Clause-index sort buffer for [`serialize_into`].
    sort: Vec<u32>,
    /// Canonical-key buffer: cache probes serialize into this instead of
    /// allocating a fresh `Vec<i32>` per probe.
    key: Vec<i32>,
    /// The trace arena when the run records one; a recording run never
    /// forks, so its one task holds the whole trace.
    trace: Option<Trace>,
}

impl Task {
    fn new(ctx: &Ctx<'_>) -> Task {
        Task {
            counts: vec![0; ctx.probs.len()],
            sort: Vec::new(),
            key: Vec::new(),
            trace: ctx.options.record_trace.then(Trace::new),
        }
    }

    /// Adds `node` to the trace, when the run records one.
    fn record(&mut self, node: TraceNode) -> TraceNodeId {
        self.trace.as_mut().map_or(Trace::TRUE, |t| t.push(node))
    }
}

/// Fork parallel work only this close to the root: deeper subproblems are
/// small and task overhead would dominate.
const PAR_DEPTH: u64 = 4;

/// The search: cache probe, components (rule (12)), then a Shannon decision
/// (rule (11)), returning the probability of `clauses` and its trace node.
/// Forked subproblems get a task of their own, and every floating-point
/// combination is evaluated in the serial order.
fn solve(ctx: &Ctx<'_>, task: &mut Task, clauses: Vec<Arc<Clause>>, depth: u64) -> Solved {
    // Load first: a locked read-modify-write per call shows at one thread.
    if depth > ctx.max_depth.load(Ordering::Relaxed) {
        ctx.max_depth.fetch_max(depth, Ordering::Relaxed);
    }
    if ctx.aborted.load(Ordering::Relaxed) {
        return (f64::NAN, Trace::TRUE);
    }
    if clauses.is_empty() {
        return (1.0, Trace::TRUE);
    }
    if clauses.iter().any(|c| c.is_empty()) {
        return (0.0, Trace::FALSE);
    }
    // Cache lookup: prefilter hash first, exact key only on a bucket.
    let hash = ctx.options.caching.then(|| prefilter_hash(&clauses));
    if let Some(h) = hash {
        if let Some(hit) = ctx.cache.probe(h, &clauses, task) {
            ctx.cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
    }
    let fork = ctx.fork && depth < PAR_DEPTH;
    let components = ctx.options.components.then(|| split_components(&clauses));
    let solved = match components.filter(|comps| comps.len() > 1) {
        Some(comps) => {
            ctx.component_splits.fetch_add(1, Ordering::Relaxed);
            // Multiply in component order (it is deterministic — components
            // are sorted by serialization), forked or not.
            let mut p = 1.0;
            let mut children = Vec::with_capacity(comps.len());
            let mut take = |(cp, cnode): Solved| {
                p *= cp;
                children.push(cnode);
            };
            if fork {
                ctx.pool
                    .parallel_map(comps, |comp| {
                        solve(ctx, &mut Task::new(ctx), comp, depth + 1)
                    })
                    .into_iter()
                    .for_each(&mut take);
            } else {
                for comp in comps {
                    take(solve(ctx, task, comp, depth + 1));
                }
            }
            (p, task.record(TraceNode::And { children }))
        }
        None => {
            // Pick the branch variable: a unit literal's variable if any
            // (unit propagation as a Shannon step), else the heuristic:
            // lowest fixed-order rank if an order was given, otherwise the
            // most frequently occurring variable.
            let var = match clauses.iter().find(|c| c.lits().len() == 1) {
                Some(unit) => unit.lits()[0].var(),
                None if ctx.options.var_order.is_some() => {
                    lowest_rank_var(&clauses, &ctx.order_rank)
                }
                None => most_frequent_var(&clauses, &mut task.counts),
            };
            let decisions = ctx.decisions.fetch_add(1, Ordering::Relaxed) + 1;
            if ctx.options.exhausted(decisions) {
                ctx.aborted.store(true, Ordering::Release);
                return (f64::NAN, Trace::TRUE);
            }
            let hi_set = condition(&clauses, var, true);
            let ((hi_p, hi), (lo_p, lo)) = if fork {
                let lo_set = condition(&clauses, var, false);
                ctx.pool.join(
                    || solve(ctx, &mut Task::new(ctx), hi_set, depth + 1),
                    || solve(ctx, &mut Task::new(ctx), lo_set, depth + 1),
                )
            } else {
                let hi = solve(ctx, task, hi_set, depth + 1);
                let lo_set = condition(&clauses, var, false);
                (hi, solve(ctx, task, lo_set, depth + 1))
            };
            let p = ctx.probs[var as usize];
            let node = task.record(TraceNode::Decision { var, hi, lo });
            (p * hi_p + (1.0 - p) * lo_p, node)
        }
    };
    if let Some(h) = hash {
        ctx.cache.store(h, &clauses, task, solved);
        ctx.cache_misses.fetch_add(1, Ordering::Relaxed);
    }
    solved
}

/// Each variable's position in `options.var_order` (`u32::MAX` if unlisted).
fn order_rank(options: &DpllOptions, num_vars: usize) -> Vec<u32> {
    let mut order_rank = vec![u32::MAX; num_vars];
    for (rank, &v) in options.var_order.iter().flatten().enumerate() {
        if let Some(slot) = order_rank.get_mut(v as usize) {
            *slot = rank as u32;
        }
    }
    order_rank
}

/// The variable with the lowest `(rank, index)` among those occurring in
/// `clauses` (fixed-order branching).
fn lowest_rank_var(clauses: &[Arc<Clause>], order_rank: &[u32]) -> u32 {
    let mut best = u32::MAX;
    let mut best_rank = (u32::MAX, u32::MAX);
    for c in clauses {
        for l in c.lits() {
            let v = l.var();
            let rank = (order_rank[v as usize], v);
            if rank < best_rank {
                best_rank = rank;
                best = v;
            }
        }
    }
    best
}

/// The most frequently occurring variable, breaking ties toward the lowest
/// index — the same choice `max_by_key` over `(count, Reverse(var))` made,
/// but allocation-free. `counts` must be all-zero on entry (one slot per
/// variable) and is zeroed again before returning.
fn most_frequent_var(clauses: &[Arc<Clause>], counts: &mut [u32]) -> u32 {
    for c in clauses {
        for l in c.lits() {
            counts[l.var() as usize] += 1;
        }
    }
    let mut best = u32::MAX;
    let mut best_count = 0u32;
    for c in clauses {
        for l in c.lits() {
            let v = l.var();
            let n = counts[v as usize];
            if n > best_count || (n == best_count && v < best) {
                best_count = n;
                best = v;
            }
        }
    }
    for c in clauses {
        for l in c.lits() {
            counts[l.var() as usize] = 0;
        }
    }
    debug_assert!(best != u32::MAX, "non-empty clauses have variables");
    best
}

/// Counts `cnf` on `pool`: the search of [`Dpll::run`], forking components
/// and the two Shannon branches at shallow depths when the pool has more
/// than one thread and no trace is requested. The probability is
/// bit-identical to [`Dpll::run`]: subproblem values do not depend on
/// execution order, and the component product and `p·hi + (1−p)·lo` are
/// evaluated in the serial order. Without forks the run *is* [`Dpll::run`],
/// trace and stats included; with them, `stats.decisions` and the cache
/// counters can differ (concurrent branches race to the cache), so
/// `max_decisions` budgets are only approximate — abort detection itself
/// stays reliable, through one flag every task polls on entry.
pub fn run_parallel(
    cnf: &Cnf,
    probs: &[f64],
    options: DpllOptions,
    pool: &pdb_par::Pool,
) -> DpllResult {
    Dpll::new(cnf, probs.to_vec(), options).run_on(pool)
}

/// Conditions the clause set on `var = value`: satisfied clauses vanish,
/// falsified literals are removed. Untouched clauses are **shared** into
/// the branch by `Arc` clone (a reference-count bump, not a copy); only
/// clauses that actually lose a literal allocate.
fn condition(clauses: &[Arc<Clause>], var: u32, value: bool) -> Vec<Arc<Clause>> {
    let mut out = Vec::with_capacity(clauses.len());
    for c in clauses {
        let mut touched = false;
        let mut satisfied = false;
        for l in c.lits() {
            if l.var() == var {
                touched = true;
                if l.satisfied_by(value) {
                    satisfied = true;
                    break;
                }
            }
        }
        if satisfied {
            continue;
        }
        if touched {
            out.push(Arc::new(Clause::new(
                c.lits()
                    .iter()
                    .filter(|l| l.var() != var)
                    .copied()
                    .collect(),
            )));
        } else {
            out.push(Arc::clone(c));
        }
    }
    out
}

/// Splits a clause set into variable-disjoint components (rule (12)),
/// sharing every clause into its component via `Arc`. Components are
/// sorted by their canonical serialization — the order the sequential
/// fold multiplies them in — with each key computed **once** (the former
/// `sort_by_key` re-serialized per comparison).
fn split_components(clauses: &[Arc<Clause>]) -> Vec<Vec<Arc<Clause>>> {
    // Union-find over clause indices, keyed by shared variables.
    let n = clauses.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    let mut owner: HashMap<u32, usize> = HashMap::new();
    for (i, c) in clauses.iter().enumerate() {
        for l in c.lits() {
            match owner.get(&l.var()) {
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
                None => {
                    owner.insert(l.var(), i);
                }
            }
        }
    }
    let mut groups: HashMap<usize, Vec<Arc<Clause>>> = HashMap::new();
    for (i, c) in clauses.iter().enumerate() {
        groups
            .entry(find(&mut parent, i))
            .or_default()
            .push(Arc::clone(c));
    }
    let mut keyed: Vec<(Vec<i32>, Vec<Arc<Clause>>)> = groups
        .into_values()
        .map(|g| {
            let mut sort = Vec::new();
            let mut key = Vec::new();
            serialize_into(&g, &mut sort, &mut key);
            (key, g)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.into_iter().map(|(_, g)| g).collect()
}

/// Commutative 64-bit prefilter over a clause set: per-clause FNV-1a over
/// the literal codes, avalanched, then combined order-independently
/// (wrapping add) — so the hash needs **no sort and no allocation**, while
/// still matching whenever the canonical serializations match. Collisions
/// are resolved by the exact key comparison behind it.
fn prefilter_hash(clauses: &[Arc<Clause>]) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64 ^ (clauses.len() as u64);
    for c in clauses {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for l in c.lits() {
            let v = l.var() as i64 + 1;
            let code = if l.is_pos() { v } else { -v } as u64;
            h = (h ^ code).wrapping_mul(0x0000_0100_0000_01B3);
        }
        // splitmix64 avalanche so the commutative combine mixes well.
        let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc = acc.wrapping_add(z ^ (z >> 31));
    }
    acc
}

/// Canonical serialization of a clause set into a reusable buffer (the
/// exact cache key): clauses in sorted order, each literal as `±(var+1)`,
/// `0` terminating every clause. `sort_scratch` holds clause indices so no
/// per-call allocation survives warm-up.
fn serialize_into(clauses: &[Arc<Clause>], sort_scratch: &mut Vec<u32>, out: &mut Vec<i32>) {
    sort_scratch.clear();
    sort_scratch.extend(0..clauses.len() as u32);
    sort_scratch.sort_by(|&a, &b| clauses[a as usize].cmp(&clauses[b as usize]));
    out.clear();
    out.reserve(clauses.len() * 4);
    for &i in sort_scratch.iter() {
        for l in clauses[i as usize].lits() {
            let v = l.var() as i32 + 1;
            out.push(if l.is_pos() { v } else { -v });
        }
        out.push(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use pdb_data::TupleId;
    use pdb_lineage::{BoolExpr, Lit};
    use pdb_num::assert_close;

    fn v(i: u32) -> BoolExpr {
        BoolExpr::var(TupleId(i))
    }

    fn check_against_brute(expr: &BoolExpr, probs: &[f64], options: DpllOptions) {
        // Count ¬expr via CNF and compare 1 − p.
        let cnf = Cnf::from_negated_dnf(expr, probs.len() as u32);
        let expected = 1.0 - brute::expr_probability(expr, probs);
        let result = Dpll::new(&cnf, probs.to_vec(), options).run();
        assert!(!result.aborted);
        assert_close(result.probability, expected, 1e-10);
    }

    #[test]
    fn counts_simple_dnf() {
        let f = BoolExpr::or_all([BoolExpr::and_all([v(0), v(1)]), v(2)]);
        let probs = [0.3, 0.6, 0.2];
        check_against_brute(&f, &probs, DpllOptions::default());
    }

    #[test]
    fn all_option_combinations_agree() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(1), v(2)]),
            BoolExpr::and_all([v(3), v(4)]),
        ]);
        let probs = [0.1, 0.5, 0.9, 0.3, 0.7];
        for components in [false, true] {
            for caching in [false, true] {
                let opts = DpllOptions {
                    components,
                    caching,
                    record_trace: true,
                    ..Default::default()
                };
                check_against_brute(&f, &probs, opts);
            }
        }
    }

    #[test]
    fn trace_computes_the_formula() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
        ]);
        let cnf = Cnf::from_negated_dnf(&f, 4);
        let opts = DpllOptions {
            record_trace: true,
            ..Default::default()
        };
        let result = Dpll::new(&cnf, vec![0.5; 4], opts).run();
        let trace = result.trace.unwrap();
        // The trace computes ¬f (we counted the negated DNF).
        for mask in 0u32..16 {
            let a = |var: u32| mask >> var & 1 == 1;
            assert_eq!(trace.eval(&a), !f.eval(&|t| a(t.0)), "mask={mask}");
        }
        assert!(trace.reachable_size() > 2);
    }

    #[test]
    fn components_rule_fires_on_disjoint_parts() {
        // Two independent blocks: (x0 ∨ x1) ∧ (x2 ∨ x3)
        let cnf = Cnf::new(
            vec![
                Clause::new(vec![Lit::pos(0), Lit::pos(1)]),
                Clause::new(vec![Lit::pos(2), Lit::pos(3)]),
            ],
            4,
        );
        let opts = DpllOptions {
            record_trace: true,
            ..Default::default()
        };
        let result = Dpll::new(&cnf, vec![0.5; 4], opts).run();
        assert!(result.stats.component_splits >= 1);
        assert_close(result.probability, 0.75 * 0.75, 1e-12);
    }

    #[test]
    fn unit_propagation_branches_units_first() {
        // x0 ∧ (x0 ∨ x1): unit clause forces x0.
        let cnf = Cnf::new(
            vec![
                Clause::new(vec![Lit::pos(0)]),
                Clause::new(vec![Lit::pos(0), Lit::pos(1)]),
            ],
            2,
        );
        let result = Dpll::new(&cnf, vec![0.3, 0.9], DpllOptions::default()).run();
        assert_close(result.probability, 0.3, 1e-12);
    }

    #[test]
    fn caching_reduces_work() {
        // A formula with many identical subproblems: chain of implications.
        let mut clauses = Vec::new();
        for i in 0..10u32 {
            clauses.push(Clause::new(vec![Lit::neg(i), Lit::pos(i + 1)]));
        }
        let cnf = Cnf::new(clauses, 11);
        let with_cache = Dpll::new(
            &cnf,
            vec![0.5; 11],
            DpllOptions {
                caching: true,
                ..Default::default()
            },
        )
        .run();
        let without_cache = Dpll::new(
            &cnf,
            vec![0.5; 11],
            DpllOptions {
                caching: false,
                ..Default::default()
            },
        )
        .run();
        assert_close(with_cache.probability, without_cache.probability, 1e-12);
        assert!(with_cache.stats.decisions <= without_cache.stats.decisions);
    }

    #[test]
    fn fixed_variable_order_is_respected_and_correct() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(2)]),
            BoolExpr::and_all([v(1), v(3)]),
        ]);
        let probs = [0.2, 0.4, 0.6, 0.8];
        let opts = DpllOptions {
            components: false,
            var_order: Some(vec![3, 2, 1, 0]),
            ..Default::default()
        };
        check_against_brute(&f, &probs, opts);
    }

    #[test]
    fn unsatisfiable_counts_zero() {
        let cnf = Cnf::new(
            vec![
                Clause::new(vec![Lit::pos(0)]),
                Clause::new(vec![Lit::neg(0)]),
            ],
            1,
        );
        let result = Dpll::new(&cnf, vec![0.5], DpllOptions::default()).run();
        assert_close(result.probability, 0.0, 1e-12);
    }

    #[test]
    fn empty_cnf_counts_one() {
        let cnf = Cnf::new(vec![], 3);
        let result = Dpll::new(&cnf, vec![0.5; 3], DpllOptions::default()).run();
        assert_close(result.probability, 1.0, 1e-12);
    }

    #[test]
    fn max_decisions_aborts() {
        // A hard-ish random instance with a tiny budget.
        let mut clauses = Vec::new();
        for i in 0..6u32 {
            for j in 0..6u32 {
                clauses.push(Clause::new(vec![
                    Lit::neg(i),
                    Lit::pos(6 + i * 6 + j),
                    Lit::neg(42 + j),
                ]));
            }
        }
        let cnf = Cnf::new(clauses, 48);
        let opts = DpllOptions {
            max_decisions: 3,
            ..Default::default()
        };
        let result = Dpll::new(&cnf, vec![0.5; 48], opts).run();
        assert!(result.aborted);
        assert!(result.probability.is_nan());
    }

    /// A mix of shapes: chains (cache-friendly), disjoint blocks (component
    /// splits), and a dense block (pure Shannon branching).
    fn mixed_fixture() -> (Cnf, Vec<f64>) {
        let mut clauses = Vec::new();
        for i in 0..8u32 {
            clauses.push(Clause::new(vec![Lit::neg(i), Lit::pos(i + 1)]));
        }
        for b in 0..4u32 {
            let base = 9 + b * 3;
            clauses.push(Clause::new(vec![Lit::pos(base), Lit::pos(base + 1)]));
            clauses.push(Clause::new(vec![Lit::neg(base + 1), Lit::pos(base + 2)]));
        }
        for i in 0..4u32 {
            for j in 0..4u32 {
                clauses.push(Clause::new(vec![
                    Lit::neg(21 + i),
                    Lit::pos(25 + j),
                    Lit::neg(21 + (i + j) % 4),
                ]));
            }
        }
        let probs = (0..29).map(|i| 0.05 + 0.9 * (i as f64 / 28.0)).collect();
        (Cnf::new(clauses, 29), probs)
    }

    #[test]
    fn run_parallel_matches_sequential_bitwise() {
        let (cnf, probs) = mixed_fixture();
        // What the counter returned on this fixture before it knew about
        // deadlines: without one, no bit may move.
        let pinned = |components: bool| {
            if components {
                0x3f88a8159a56616f_u64
            } else {
                0x3f88a8159a56616e
            }
        };
        for components in [false, true] {
            for caching in [false, true] {
                let opts = DpllOptions {
                    components,
                    caching,
                    ..Default::default()
                };
                assert!(opts.deadline.is_none());
                let seq = Dpll::new(&cnf, probs.clone(), opts.clone()).run();
                assert_eq!(seq.probability.to_bits(), pinned(components));
                for threads in [1, 2, 4, 8] {
                    let pool = pdb_par::Pool::new(threads);
                    let par = run_parallel(&cnf, &probs, opts.clone(), &pool);
                    assert!(!par.aborted);
                    assert_eq!(
                        par.probability.to_bits(),
                        seq.probability.to_bits(),
                        "threads={threads} components={components} caching={caching}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_deadline_in_the_future_changes_nothing_and_one_in_the_past_aborts() {
        let (cnf, probs) = mixed_fixture();
        let now = Instant::now();
        let reference = Dpll::new(&cnf, probs.clone(), DpllOptions::default()).run();
        for record_trace in [false, true] {
            for threads in [1, 4] {
                let pool = pdb_par::Pool::new(threads);
                let with = |deadline| DpllOptions {
                    record_trace,
                    deadline: Some(deadline),
                    ..Default::default()
                };
                let far = now + std::time::Duration::from_secs(3600);
                let run = run_parallel(&cnf, &probs, with(far), &pool);
                assert!(!run.aborted);
                assert_eq!(run.probability.to_bits(), reference.probability.to_bits());
                assert_eq!(run.trace.is_some(), record_trace);

                // `now` is already behind us: the first decision sees it.
                let run = run_parallel(&cnf, &probs, with(now), &pool);
                assert!(run.aborted, "threads={threads}");
                assert!(run.probability.is_nan());
                assert!(run.trace.is_none());
                if threads == 1 {
                    assert_eq!(run.stats.decisions, 1, "stops at the first clock read");
                }
            }
        }
    }

    /// FNV-1a over a trace's node list, in push order.
    fn trace_fingerprint(nodes: &[TraceNode]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        for node in nodes {
            match node {
                TraceNode::True => mix(1),
                TraceNode::False => mix(2),
                TraceNode::Decision { var, hi, lo } => {
                    mix(3);
                    mix(*var as u64);
                    mix(hi.0 as u64);
                    mix(lo.0 as u64);
                }
                TraceNode::And { children } => {
                    mix(4);
                    mix(children.len() as u64);
                    children.iter().for_each(|c| mix(c.0 as u64));
                }
            }
        }
        h
    }

    #[test]
    fn run_parallel_serial_pool_preserves_stats_and_trace() {
        let (cnf, probs) = mixed_fixture();
        // What the sequential counter recorded on this fixture before the
        // serial and forking searches were one recursion: trace length, node
        // fingerprint and stats, per (components, caching).
        let pinned = |components: bool, caching: bool| match (components, caching) {
            (false, false) => (3223, 0x055c_3512_ac0e_058f_u64, [3221, 0, 0, 0, 24]),
            (false, true) => (137, 0xc2e6_5f31_f092_3903, [135, 36, 135, 0, 24]),
            (true, false) => (79, 0x006f_9f18_b10f_73e0, [68, 0, 0, 9, 9]),
            (true, true) => (63, 0x5a56_ae24_482c_678d, [53, 6, 61, 8, 9]),
        };
        for components in [false, true] {
            for caching in [false, true] {
                let (len, fingerprint, [decisions, hits, misses, splits, depth]) =
                    pinned(components, caching);
                let stats = DpllStats {
                    decisions,
                    cache_hits: hits,
                    cache_misses: misses,
                    component_splits: splits,
                    max_depth: depth,
                };
                let opts = DpllOptions {
                    components,
                    caching,
                    ..Default::default()
                };
                let at = format!("components={components} caching={caching}");
                let count = run_parallel(&cnf, &probs, opts.clone(), &pdb_par::Pool::new(1));
                assert_eq!(count.stats, stats, "count-only, {at}");
                let traced = DpllOptions {
                    record_trace: true,
                    ..opts
                };
                for threads in [1, 2, 4, 8] {
                    let pool = pdb_par::Pool::new(threads);
                    let run = run_parallel(&cnf, &probs, traced.clone(), &pool);
                    let trace = run.trace.expect("traced run keeps its trace");
                    assert_eq!(trace.nodes().len(), len, "threads={threads} {at}");
                    assert_eq!(
                        trace_fingerprint(trace.nodes()),
                        fingerprint,
                        "threads={threads} {at}"
                    );
                    assert_eq!(run.stats, stats, "threads={threads} {at}");
                    assert_eq!(
                        run.probability.to_bits(),
                        count.probability.to_bits(),
                        "threads={threads} {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_parallel_respects_max_decisions() {
        let mut clauses = Vec::new();
        for i in 0..6u32 {
            for j in 0..6u32 {
                clauses.push(Clause::new(vec![
                    Lit::neg(i),
                    Lit::pos(6 + i * 6 + j),
                    Lit::neg(42 + j),
                ]));
            }
        }
        let cnf = Cnf::new(clauses, 48);
        let opts = DpllOptions {
            max_decisions: 3,
            ..Default::default()
        };
        let pool = pdb_par::Pool::new(4);
        let result = run_parallel(&cnf, &[0.5; 48], opts, &pool);
        assert!(result.aborted);
        assert!(result.probability.is_nan());
    }

    #[test]
    fn model_counting_via_half_probabilities() {
        // #F for F = (x0 ∨ x1) ∧ (x1 ∨ x2): brute force says 4 models... let
        // us verify against the enumerator rather than hand-counting.
        let cnf = Cnf::new(
            vec![
                Clause::new(vec![Lit::pos(0), Lit::pos(1)]),
                Clause::new(vec![Lit::pos(1), Lit::pos(2)]),
            ],
            3,
        );
        let expected = brute::cnf_model_count(&cnf) as f64;
        let result = Dpll::new(&cnf, vec![0.5; 3], DpllOptions::default()).run();
        assert_close(result.probability * 8.0, expected, 1e-12);
    }

    #[test]
    fn prefilter_hash_is_order_independent_and_discriminating() {
        let a = Arc::new(Clause::new(vec![Lit::pos(0), Lit::neg(1)]));
        let b = Arc::new(Clause::new(vec![Lit::pos(2)]));
        let c = Arc::new(Clause::new(vec![Lit::neg(3), Lit::pos(4)]));
        let fwd = vec![a.clone(), b.clone(), c.clone()];
        let rev = vec![c.clone(), b.clone(), a.clone()];
        assert_eq!(prefilter_hash(&fwd), prefilter_hash(&rev));
        // Same serialization ⇒ same hash; different sets (almost surely)
        // differ.
        let other = vec![a, b];
        assert_ne!(prefilter_hash(&fwd), prefilter_hash(&other));
    }

    #[test]
    fn serialize_into_matches_canonical_layout() {
        let clauses = vec![
            Arc::new(Clause::new(vec![Lit::pos(2)])),
            Arc::new(Clause::new(vec![Lit::pos(0), Lit::neg(1)])),
        ];
        let mut sort = Vec::new();
        let mut key = Vec::new();
        serialize_into(&clauses, &mut sort, &mut key);
        // Clauses sorted (x0 ∨ ¬x1) < (x2); literals in `Lit` order,
        // encoded ±(var+1), 0-terminated.
        assert_eq!(key, vec![-2, 1, 0, 3, 0]);
        // The buffers are reusable: a second call overwrites cleanly.
        serialize_into(&clauses[..1], &mut sort, &mut key);
        assert_eq!(key, vec![3, 0]);
    }
}
