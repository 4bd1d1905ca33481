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
//! ## The de-allocated hot path
//!
//! Clause storage is **interned once** per run: working sets are
//! `Vec<Arc<Clause>>`, so conditioning shares every untouched clause by
//! reference-count bump instead of deep-cloning it per branch (and
//! [`run_parallel`] hands the interned root set to its forks without the
//! former per-branch `clauses.clone()`). Component-cache probes compute a
//! cheap commutative 64-bit **prefilter hash** first; the canonical
//! `Vec<i32>` key is materialized — into a reusable scratch buffer, not a
//! fresh allocation — only when a bucket with that hash already exists,
//! and is allocated only when a new entry is actually stored. The
//! [`clone_stats`] counters make the "zero per-branch clause clones"
//! property observable (asserted by `e15_kernel`).

use pdb_lineage::{Clause, Cnf};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

// ---------------------------------------------------------------------------
// Clause-storage accounting
// ---------------------------------------------------------------------------

/// Deep `Clause` copies taken when interning a CNF at the start of a run
/// (one per input clause — the only place whole clauses are copied).
static INTERNED_CLAUSES: AtomicU64 = AtomicU64::new(0);
/// Untouched clauses carried into a branch by `Arc` reference-count bump.
static SHARED_CLAUSES: AtomicU64 = AtomicU64::new(0);
/// New (shorter) clauses allocated because conditioning removed a literal —
/// inherent to Shannon expansion, not a copy of an existing clause.
static REDUCED_CLAUSES: AtomicU64 = AtomicU64::new(0);
/// Whole-clause deep copies taken **per branch** — the pre-kernel hot-path
/// allocation. No remaining code path increments this; the counter exists
/// so tests and `e15_kernel` can assert it stays zero.
static CLONED_CLAUSES: AtomicU64 = AtomicU64::new(0);

/// Process-global clause-storage counters (cumulative across runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CloneStats {
    /// Deep copies at interning time (run setup; one per input clause).
    pub interned: u64,
    /// Untouched clauses shared into branches via `Arc` (no allocation).
    pub shared: u64,
    /// Shorter clauses allocated by literal removal during conditioning.
    pub reduced: u64,
    /// Per-branch whole-clause deep copies. Stays 0: the clone sites were
    /// removed when clause storage was interned.
    pub cloned: u64,
}

/// Reads the cumulative clause-storage counters.
pub fn clone_stats() -> CloneStats {
    CloneStats {
        interned: INTERNED_CLAUSES.load(Ordering::Relaxed),
        shared: SHARED_CLAUSES.load(Ordering::Relaxed),
        reduced: REDUCED_CLAUSES.load(Ordering::Relaxed),
        cloned: CLONED_CLAUSES.load(Ordering::Relaxed),
    }
}

/// Per-run clause-storage tally, accumulated locally (no atomic traffic in
/// the hot loop) and flushed to the globals when a run or fork finishes.
#[derive(Clone, Copy, Debug, Default)]
struct CloneTally {
    shared: u64,
    reduced: u64,
}

fn flush_tally(t: &CloneTally) {
    if t.shared > 0 {
        SHARED_CLAUSES.fetch_add(t.shared, Ordering::Relaxed);
    }
    if t.reduced > 0 {
        REDUCED_CLAUSES.fetch_add(t.reduced, Ordering::Relaxed);
    }
}

/// Interns a CNF's clauses for a run: the single place whole clauses are
/// deep-copied. Every branch afterwards shares them through the `Arc`s.
fn intern(cnf: &Cnf) -> Vec<Arc<Clause>> {
    INTERNED_CLAUSES.fetch_add(cnf.clauses.len() as u64, Ordering::Relaxed);
    cnf.clauses.iter().map(|c| Arc::new(c.clone())).collect()
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
        let Some(root) = self.root else { return 0 };
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.0 as usize], true) {
                continue;
            }
            count += 1;
            match &self.nodes[id.0 as usize] {
                TraceNode::True | TraceNode::False => {}
                TraceNode::Decision { hi, lo, .. } => {
                    stack.push(*hi);
                    stack.push(*lo);
                }
                TraceNode::And { children } => stack.extend(children.iter().copied()),
            }
        }
        count
    }

    /// Number of decision nodes reachable from the root.
    pub fn decision_count(&self) -> usize {
        let Some(root) = self.root else { return 0 };
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.0 as usize], true) {
                continue;
            }
            match &self.nodes[id.0 as usize] {
                TraceNode::True | TraceNode::False => {}
                TraceNode::Decision { hi, lo, .. } => {
                    count += 1;
                    stack.push(*hi);
                    stack.push(*lo);
                }
                TraceNode::And { children } => stack.extend(children.iter().copied()),
            }
        }
        count
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

/// Sequential component cache: buckets of `(exact key, value)` pairs keyed
/// by the commutative prefilter hash. A probe whose hash has no bucket
/// skips key materialization entirely; the exact comparison backs the
/// (rare) hash collisions.
type SeqCache = HashMap<u64, Vec<(Vec<i32>, (f64, TraceNodeId))>>;

/// The counter itself. Create with [`Dpll::new`], run with [`Dpll::run`].
pub struct Dpll {
    clauses: Vec<Arc<Clause>>,
    probs: Vec<f64>,
    options: DpllOptions,
    order_rank: Vec<u32>,
    stats: DpllStats,
    trace: Trace,
    cache: SeqCache,
    /// Reusable per-variable occurrence buffer for [`Dpll::pick_var`]
    /// (all-zero between calls), replacing a per-call `HashMap`.
    counts: Vec<u32>,
    /// Reusable clause-index sort buffer for [`serialize_into`].
    sort_scratch: Vec<u32>,
    /// Reusable canonical-key buffer: cache probes serialize into this
    /// instead of allocating a fresh `Vec<i32>` per probe.
    key_scratch: Vec<i32>,
    tally: CloneTally,
    aborted: bool,
}

impl Dpll {
    /// Prepares a counter for `cnf` with per-variable probabilities
    /// (`probs.len() == cnf.num_vars`; Tseitin auxiliaries should get 1/2 and
    /// the caller corrects by `2^aux` — see `pdb-wmc::prob`).
    pub fn new(cnf: &Cnf, probs: Vec<f64>, options: DpllOptions) -> Dpll {
        assert_eq!(probs.len() as u32, cnf.num_vars, "one probability per var");
        Dpll {
            clauses: intern(cnf),
            probs,
            order_rank: order_rank(&options, cnf.num_vars),
            options,
            stats: DpllStats::default(),
            trace: Trace::new(),
            cache: HashMap::new(),
            counts: vec![0; cnf.num_vars as usize],
            sort_scratch: Vec::new(),
            key_scratch: Vec::new(),
            tally: CloneTally::default(),
            aborted: false,
        }
    }

    /// Runs the counter.
    pub fn run(mut self) -> DpllResult {
        let clauses = std::mem::take(&mut self.clauses);
        let (p, node) = self.solve(clauses, 0);
        self.trace.root = Some(node);
        flush_tally(&self.tally);
        DpllResult {
            probability: if self.aborted { f64::NAN } else { p },
            stats: self.stats,
            trace: (self.options.record_trace && !self.aborted).then_some(self.trace),
            aborted: self.aborted,
        }
    }

    /// Probes the cache: on a prefilter-hash bucket, materializes the
    /// canonical key into the reusable scratch and compares exactly.
    fn cache_probe(&mut self, h: u64, clauses: &[Arc<Clause>]) -> Option<(f64, TraceNodeId)> {
        let bucket = self.cache.get(&h)?;
        serialize_into(clauses, &mut self.sort_scratch, &mut self.key_scratch);
        bucket
            .iter()
            .find(|(k, _)| *k == self.key_scratch)
            .map(|&(_, v)| v)
    }

    /// Stores a solved component. The canonical key is (re)built here —
    /// the scratch may have been overwritten by the recursive solves — and
    /// this is the only point a key is allocated.
    fn cache_store(&mut self, h: u64, clauses: &[Arc<Clause>], value: (f64, TraceNodeId)) {
        serialize_into(clauses, &mut self.sort_scratch, &mut self.key_scratch);
        let key = self.key_scratch.clone();
        self.cache.entry(h).or_default().push((key, value));
        self.stats.cache_misses += 1;
    }

    fn solve(&mut self, clauses: Vec<Arc<Clause>>, depth: u64) -> (f64, TraceNodeId) {
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if self.aborted {
            return (f64::NAN, Trace::TRUE);
        }
        if clauses.is_empty() {
            return (1.0, Trace::TRUE);
        }
        if clauses.iter().any(|c| c.is_empty()) {
            return (0.0, Trace::FALSE);
        }
        // Cache lookup: prefilter hash first, exact key only on a bucket.
        let hash = if self.options.caching {
            Some(prefilter_hash(&clauses))
        } else {
            None
        };
        if let Some(h) = hash {
            if let Some((p, node)) = self.cache_probe(h, &clauses) {
                self.stats.cache_hits += 1;
                return (p, node);
            }
        }
        // Component decomposition.
        if self.options.components {
            let comps = split_components(&clauses, &mut self.tally);
            if comps.len() > 1 {
                self.stats.component_splits += 1;
                let mut p = 1.0;
                let mut children = Vec::with_capacity(comps.len());
                for comp in comps {
                    let (cp, cnode) = self.solve(comp, depth + 1);
                    p *= cp;
                    children.push(cnode);
                }
                let node = if self.options.record_trace {
                    self.trace.push(TraceNode::And { children })
                } else {
                    Trace::TRUE
                };
                if let Some(h) = hash {
                    self.cache_store(h, &clauses, (p, node));
                }
                return (p, node);
            }
        }
        // Pick the branch variable: a unit literal's variable if any
        // (unit propagation as a Shannon step), else the heuristic choice.
        let var = match clauses.iter().find(|c| c.lits().len() == 1) {
            Some(unit) => unit.lits()[0].var(),
            None => self.pick_var(&clauses),
        };
        self.stats.decisions += 1;
        if self.options.exhausted(self.stats.decisions) {
            self.aborted = true;
            return (f64::NAN, Trace::TRUE);
        }
        let p = self.probs[var as usize];
        let hi_set = condition(&clauses, var, true, &mut self.tally);
        let (hi_p, hi_node) = self.solve(hi_set, depth + 1);
        let lo_set = condition(&clauses, var, false, &mut self.tally);
        let (lo_p, lo_node) = self.solve(lo_set, depth + 1);
        let total = p * hi_p + (1.0 - p) * lo_p;
        let node = if self.options.record_trace {
            self.trace.push(TraceNode::Decision {
                var,
                hi: hi_node,
                lo: lo_node,
            })
        } else {
            Trace::TRUE
        };
        if let Some(h) = hash {
            self.cache_store(h, &clauses, (total, node));
        }
        (total, node)
    }

    /// Branch-variable heuristic: lowest fixed-order rank if an order was
    /// given, otherwise the most frequently occurring variable.
    fn pick_var(&mut self, clauses: &[Arc<Clause>]) -> u32 {
        if self.options.var_order.is_some() {
            lowest_rank_var(clauses, &self.order_rank)
        } else {
            most_frequent_var(clauses, &mut self.counts)
        }
    }
}

/// Each variable's position in `options.var_order` (`u32::MAX` if unlisted).
fn order_rank(options: &DpllOptions, num_vars: u32) -> Vec<u32> {
    let mut order_rank = vec![u32::MAX; num_vars as usize];
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

/// Lock-striped component cache for [`run_parallel`]: prefilter hashes pick
/// a shard, so concurrent branches contend only when they touch the same
/// stripe; inside a shard, buckets of `(exact key, value)` pairs back the
/// hash with an exact comparison. Values are probabilities only — parallel
/// runs never record traces.
struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
}

/// One cache shard: prefilter hash → buckets of `(exact key, probability)`.
type Shard = HashMap<u64, Vec<(Vec<i32>, f64)>>;

impl ShardedCache {
    fn new(shards: usize) -> ShardedCache {
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard_of(&self, h: u64) -> usize {
        // The prefilter hash is already well mixed; fold the high bits in
        // so shard choice is not just the low bits of the clause hashes.
        ((h ^ (h >> 32)) % self.shards.len() as u64) as usize
    }

    /// Probes under the shard lock. On a prefilter miss (no bucket for
    /// `h`) the canonical key is **never materialized** — the fast path
    /// the sharded cache exists for; on a candidate bucket the key is
    /// serialized into the caller's reusable scratch and compared exactly.
    fn get(
        &self,
        h: u64,
        clauses: &[Arc<Clause>],
        sort_scratch: &mut Vec<u32>,
        key_scratch: &mut Vec<i32>,
    ) -> Option<f64> {
        let map = self.shards[self.shard_of(h)].lock().unwrap();
        let bucket = map.get(&h)?;
        serialize_into(clauses, sort_scratch, key_scratch);
        bucket
            .iter()
            .find(|(k, _)| k == key_scratch)
            .map(|&(_, p)| p)
    }

    fn insert(
        &self,
        h: u64,
        clauses: &[Arc<Clause>],
        sort_scratch: &mut Vec<u32>,
        key_scratch: &mut Vec<i32>,
        p: f64,
    ) {
        serialize_into(clauses, sort_scratch, key_scratch);
        let mut map = self.shards[self.shard_of(h)].lock().unwrap();
        let bucket = map.entry(h).or_default();
        // Two branches may race to solve the same component; the values
        // are deterministic, so keep the first entry and drop the echo.
        if !bucket.iter().any(|(k, _)| k == key_scratch) {
            bucket.push((key_scratch.clone(), p));
        }
    }
}

/// Shared state of one [`run_parallel`] invocation.
struct ParCtx<'a> {
    probs: &'a [f64],
    options: &'a DpllOptions,
    order_rank: &'a [u32],
    pool: &'a pdb_par::Pool,
    cache: ShardedCache,
    decisions: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    component_splits: AtomicU64,
    max_depth: AtomicU64,
    /// Set by whichever branch trips a budget; every branch polls it.
    aborted: AtomicBool,
}

/// Per-task scratch space for [`par_solve`]: forks get a fresh one, the
/// sequential tail under a fork reuses its task's buffers.
struct Scratch {
    counts: Vec<u32>,
    sort: Vec<u32>,
    key: Vec<i32>,
    tally: CloneTally,
}

impl Scratch {
    fn new(num_vars: usize) -> Scratch {
        Scratch {
            counts: vec![0; num_vars],
            sort: Vec::new(),
            key: Vec::new(),
            tally: CloneTally::default(),
        }
    }
}

/// Fork parallel work only this close to the root: deeper subproblems are
/// small and task overhead would dominate.
const PAR_DEPTH: u64 = 4;

/// Counts `cnf` on `pool`, running independent components (and the two
/// Shannon branches) in parallel at shallow depths over a lock-striped
/// component cache. The clause set is interned **once** and shared into
/// every fork through `Arc`s — no per-branch clause cloning.
///
/// The returned probability is bit-identical to [`Dpll::run`]: subproblem
/// values do not depend on execution order (cache entries equal what
/// recomputation would produce), and every floating-point combination —
/// the left-to-right component product and `p·hi + (1−p)·lo` — is evaluated
/// in the same order as the sequential code. With a pool of size 1, or when
/// a trace is requested, this *is* the sequential counter, trace and stats
/// included. On larger pools `stats.decisions` and the cache counters can
/// differ from the sequential run (concurrent branches race to the cache),
/// so `max_decisions` budgets are only approximate there — abort detection
/// itself remains reliable. A branch that trips either budget raises one
/// shared flag, which every other branch polls on entry.
pub fn run_parallel(
    cnf: &Cnf,
    probs: &[f64],
    options: DpllOptions,
    pool: &pdb_par::Pool,
) -> DpllResult {
    if pool.threads() == 1 || options.record_trace {
        return Dpll::new(cnf, probs.to_vec(), options).run();
    }
    assert_eq!(probs.len() as u32, cnf.num_vars, "one probability per var");
    let order_rank = order_rank(&options, cnf.num_vars);
    let ctx = ParCtx {
        probs,
        options: &options,
        order_rank: &order_rank,
        pool,
        cache: ShardedCache::new(16),
        decisions: AtomicU64::new(0),
        cache_hits: AtomicU64::new(0),
        cache_misses: AtomicU64::new(0),
        component_splits: AtomicU64::new(0),
        max_depth: AtomicU64::new(0),
        aborted: AtomicBool::new(false),
    };
    let mut scratch = Scratch::new(probs.len());
    let p = par_solve(&ctx, intern(cnf), 0, &mut scratch);
    flush_tally(&scratch.tally);
    let aborted = ctx.aborted.load(Ordering::Acquire);
    DpllResult {
        probability: if aborted { f64::NAN } else { p },
        stats: DpllStats {
            decisions: ctx.decisions.load(Ordering::Relaxed),
            cache_hits: ctx.cache_hits.load(Ordering::Relaxed),
            cache_misses: ctx.cache_misses.load(Ordering::Relaxed),
            component_splits: ctx.component_splits.load(Ordering::Relaxed),
            max_depth: ctx.max_depth.load(Ordering::Relaxed),
        },
        trace: None,
        aborted,
    }
}

/// Runs `f` in a forked task with its own scratch, flushing the fork's
/// clause tally before the task ends.
fn forked<R>(num_vars: usize, f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = Scratch::new(num_vars);
    let r = f(&mut scratch);
    flush_tally(&scratch.tally);
    r
}

fn par_solve(ctx: &ParCtx<'_>, clauses: Vec<Arc<Clause>>, depth: u64, s: &mut Scratch) -> f64 {
    ctx.max_depth.fetch_max(depth, Ordering::Relaxed);
    if ctx.aborted.load(Ordering::Relaxed) {
        return f64::NAN;
    }
    if clauses.is_empty() {
        return 1.0;
    }
    if clauses.iter().any(|c| c.is_empty()) {
        return 0.0;
    }
    let hash = ctx.options.caching.then(|| prefilter_hash(&clauses));
    if let Some(h) = hash {
        if let Some(p) = ctx.cache.get(h, &clauses, &mut s.sort, &mut s.key) {
            ctx.cache_hits.fetch_add(1, Ordering::Relaxed);
            return p;
        }
    }
    let fork = depth < PAR_DEPTH;
    if ctx.options.components {
        let comps = split_components(&clauses, &mut s.tally);
        if comps.len() > 1 {
            ctx.component_splits.fetch_add(1, Ordering::Relaxed);
            // Multiply in component order (it is deterministic — components
            // are sorted by serialization) to match the sequential fold.
            let p = if fork {
                ctx.pool
                    .parallel_map(comps, |comp| {
                        forked(ctx.probs.len(), |local| {
                            par_solve(ctx, comp, depth + 1, local)
                        })
                    })
                    .into_iter()
                    .product()
            } else {
                let mut p = 1.0;
                for comp in comps {
                    p *= par_solve(ctx, comp, depth + 1, s);
                }
                p
            };
            if let Some(h) = hash {
                ctx.cache.insert(h, &clauses, &mut s.sort, &mut s.key, p);
                ctx.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
            return p;
        }
    }
    let var = match clauses.iter().find(|c| c.lits().len() == 1) {
        Some(unit) => unit.lits()[0].var(),
        None if ctx.options.var_order.is_some() => lowest_rank_var(&clauses, ctx.order_rank),
        None => most_frequent_var(&clauses, &mut s.counts),
    };
    let decisions = ctx.decisions.fetch_add(1, Ordering::Relaxed) + 1;
    if ctx.options.exhausted(decisions) {
        ctx.aborted.store(true, Ordering::Release);
        return f64::NAN;
    }
    let p = ctx.probs[var as usize];
    let (hi, lo) = if fork {
        let (hi_set, lo_set) = {
            let hi_set = condition(&clauses, var, true, &mut s.tally);
            let lo_set = condition(&clauses, var, false, &mut s.tally);
            (hi_set, lo_set)
        };
        ctx.pool.join(
            || {
                forked(ctx.probs.len(), |local| {
                    par_solve(ctx, hi_set, depth + 1, local)
                })
            },
            || {
                forked(ctx.probs.len(), |local| {
                    par_solve(ctx, lo_set, depth + 1, local)
                })
            },
        )
    } else {
        let hi_set = condition(&clauses, var, true, &mut s.tally);
        let hi = par_solve(ctx, hi_set, depth + 1, s);
        let lo_set = condition(&clauses, var, false, &mut s.tally);
        let lo = par_solve(ctx, lo_set, depth + 1, s);
        (hi, lo)
    };
    let total = p * hi + (1.0 - p) * lo;
    if let Some(h) = hash {
        ctx.cache
            .insert(h, &clauses, &mut s.sort, &mut s.key, total);
        ctx.cache_misses.fetch_add(1, Ordering::Relaxed);
    }
    total
}

/// Conditions the clause set on `var = value`: satisfied clauses vanish,
/// falsified literals are removed. Untouched clauses are **shared** into
/// the branch by `Arc` clone (a reference-count bump, not a copy); only
/// clauses that actually lose a literal allocate.
fn condition(
    clauses: &[Arc<Clause>],
    var: u32,
    value: bool,
    tally: &mut CloneTally,
) -> Vec<Arc<Clause>> {
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
            tally.reduced += 1;
            out.push(Arc::new(Clause::new(
                c.lits()
                    .iter()
                    .filter(|l| l.var() != var)
                    .copied()
                    .collect(),
            )));
        } else {
            tally.shared += 1;
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
fn split_components(clauses: &[Arc<Clause>], tally: &mut CloneTally) -> Vec<Vec<Arc<Clause>>> {
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
        tally.shared += 1;
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

    #[test]
    fn run_parallel_serial_pool_preserves_stats_and_trace() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
        ]);
        let cnf = Cnf::from_negated_dnf(&f, 4);
        let opts = DpllOptions {
            record_trace: true,
            ..Default::default()
        };
        let pool = pdb_par::Pool::new(1);
        let seq = Dpll::new(&cnf, vec![0.5; 4], opts.clone()).run();
        let par = run_parallel(&cnf, &[0.5; 4], opts, &pool);
        assert_eq!(par.stats, seq.stats);
        assert_eq!(
            par.trace.as_ref().map(Trace::reachable_size),
            seq.trace.as_ref().map(Trace::reachable_size)
        );
        assert_eq!(par.probability.to_bits(), seq.probability.to_bits());
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
