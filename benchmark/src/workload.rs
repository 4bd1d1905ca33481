//! The four what-if workloads: what each tenant's relations hold, and the
//! stream of sessions a connection sends. Everything here is a pure function
//! of `spec.json` and the seed; the server only ever sees the generated text.
//!
//! The traffic unit is the what-if session: one `update` (or `insert`) on a
//! tenant's relation, then reads over that tenant. Relations are per tenant
//! (`R<k>`, `S<k>`, `T<k>`) and the server keys its result cache on the
//! versions of the relations a query mentions, so the reads after a write
//! miss the cache by construction, while tenants nobody writes stay cached.

use crate::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Constants per column in every band tenant (`R`, `T` hold `0..BAND_DOMAIN`).
/// All tenants share the constants, so the active domain a `forall` ranges
/// over stays this small however many tenants there are.
pub const BAND_DOMAIN: u64 = 20;
/// `S` tuples per `x` in a small / large band tenant: 60 and 100 `S` tuples.
pub const SMALL_WIDTH: u64 = 3;
pub const LARGE_WIDTH: u64 = 5;
/// Distinct cached texts per frozen tenant.
pub const TEXTS_PER_FROZEN: u64 = 16;

/// Every class of operation the workloads send. A latency is always
/// reported for one class, never for a blend the mix could shift.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    SafePoint,
    SafeScan,
    SafeIe,
    SafeAnswers,
    HardSmall,
    HardForall,
    HardLarge,
    ViewShow,
    CachedRead,
    ViewRefresh,
    Update,
    Insert,
}

impl Class {
    pub const ALL: [Class; 12] = [
        Class::SafePoint,
        Class::SafeScan,
        Class::SafeIe,
        Class::SafeAnswers,
        Class::HardSmall,
        Class::HardForall,
        Class::HardLarge,
        Class::ViewShow,
        Class::CachedRead,
        Class::ViewRefresh,
        Class::Update,
        Class::Insert,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::SafePoint => "safe_point",
            Class::SafeScan => "safe_scan",
            Class::SafeIe => "safe_ie",
            Class::SafeAnswers => "safe_answers",
            Class::HardSmall => "hard_small",
            Class::HardForall => "hard_forall",
            Class::HardLarge => "hard_large",
            Class::ViewShow => "view_show",
            Class::CachedRead => "cached_read",
            Class::ViewRefresh => "view_refresh",
            Class::Update => "update",
            Class::Insert => "insert",
        }
    }

    /// Writes are timed to their acknowledgement.
    pub fn is_write(self) -> bool {
        matches!(self, Class::ViewRefresh | Class::Update | Class::Insert)
    }
}

/// Which server an operation goes to (`Replica` falls back to the primary
/// on workloads without one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    Primary,
    Replica,
}

/// What a well-formed reply looks like, checked on every operation sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Mutations acknowledge with an empty frame.
    Ack,
    /// `p = …  (engine: <tag>)`: the class fixes which engine must answer, so
    /// an `Approximate` on a hard read is a failure, not a fast success.
    Engine(&'static str),
    /// One `var = c    p = …` line per answer tuple.
    Rows,
    /// `view <name>: rebuilt`.
    Rebuilt,
}

impl Expect {
    pub fn accepts(self, reply: &str) -> bool {
        match self {
            Expect::Ack => reply.is_empty(),
            Expect::Engine(tag) => {
                reply.starts_with("p = ")
                    && reply.lines().count() == 1
                    && reply.trim_end().ends_with(&format!("(engine: {tag})"))
            }
            Expect::Rows => {
                !reply.is_empty()
                    && reply
                        .lines()
                        .all(|l| l.contains(" = ") && l.contains("    p = "))
            }
            Expect::Rebuilt => reply.starts_with("view ") && reply.ends_with(": rebuilt\n"),
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub class: Class,
    pub target: Target,
    pub line: String,
    pub expect: Expect,
}

/// The kinds of session a mix is made of; shares come from `spec.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionKind {
    Safe,
    HardSmall,
    HardForall,
    HardLarge,
    ViewUpdate,
    CachedRead,
    ViewRefresh,
}

impl SessionKind {
    fn parse(name: &str) -> Option<SessionKind> {
        Some(match name {
            "safe" => SessionKind::Safe,
            "hard_small" => SessionKind::HardSmall,
            "hard_forall" => SessionKind::HardForall,
            "hard_large" => SessionKind::HardLarge,
            "view_update" => SessionKind::ViewUpdate,
            "cached_read" => SessionKind::CachedRead,
            "view_refresh" => SessionKind::ViewRefresh,
            _ => return None,
        })
    }
}

/// One workload as frozen in `spec.json`.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: String,
    pub why: String,
    /// Primary runs with `--data-dir … --fsync always --checkpoint-every 1024`.
    pub durable: bool,
    /// One `--replica-of` replica takes the `Target::Replica` operations.
    pub replica: bool,
    /// One view per small and large tenant, created during set-up.
    pub views: bool,
    pub safe_tenants: u64,
    /// `R`/`T` tuples per safe tenant, and `S` tuples per `R` tuple.
    pub safe_rows: u64,
    pub safe_fanout: u64,
    pub small_tenants: u64,
    pub large_tenants: u64,
    /// Tenants no session ever writes; the `cached_read` texts range over them.
    pub frozen_tenants: u64,
    pub mix: Vec<(SessionKind, f64)>,
    /// Open-loop arrival rate, all connections together.
    pub open_sessions_per_s: f64,
}

#[derive(Clone, Debug)]
pub struct ClassSpec {
    pub class: Class,
    /// An open-loop operation slower than this (from its due time) misses
    /// the service-level objective: 5× the upper edge of the class's band.
    pub limit_ms: f64,
}

/// Shares of `--seconds`; they sum to 1.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub warmup: f64,
    pub closed: f64,
    pub open: f64,
    /// The traced run's in-process half, after the servers are gone.
    pub in_process: f64,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub default_seed: u64,
    /// How `--seconds` is split, for untraced and for traced runs.
    pub untraced: Phases,
    pub traced: Phases,
    pub timeout_ms: u64,
    pub cache_capacity: u64,
    pub classes: Vec<ClassSpec>,
    pub workloads: Vec<Workload>,
}

impl Spec {
    /// The spec this binary was built with.
    pub fn load() -> Spec {
        Spec::parse(include_str!("../spec.json")).expect("benchmark/spec.json is malformed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let num = |obj: &Json, key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("spec: missing number {key:?}"))
        };
        let shares = |run: &str| -> Result<Phases, String> {
            let p = doc
                .get("phases")
                .and_then(|p| p.get(run))
                .ok_or_else(|| format!("spec: missing phases.{run}"))?;
            let share = |key: &str| p.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            Ok(Phases {
                warmup: share("warmup"),
                closed: share("closed"),
                open: share("open"),
                in_process: share("in_process"),
            })
        };
        let server = doc.get("server").ok_or("spec: missing server")?;
        let mut classes = Vec::new();
        for class in Class::ALL {
            let entry = doc
                .get("classes")
                .and_then(|c| c.get(class.name()))
                .ok_or_else(|| format!("spec: missing class {}", class.name()))?;
            classes.push(ClassSpec {
                class,
                limit_ms: num(entry, "limit_ms")?,
            });
        }
        let mut workloads = Vec::new();
        for (name, w) in doc
            .get("workloads")
            .ok_or("spec: missing workloads")?
            .as_obj()
        {
            let count = |key: &str| w.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let flag = |key: &str| w.get(key) == Some(&Json::Bool(true));
            let mut mix = Vec::new();
            for (kind, share) in w.get("mix").ok_or("spec: workload without mix")?.as_obj() {
                let kind = SessionKind::parse(kind)
                    .ok_or_else(|| format!("spec: unknown session kind {kind:?}"))?;
                mix.push((
                    kind,
                    share.as_f64().ok_or("spec: mix share must be a number")?,
                ));
            }
            workloads.push(Workload {
                name: name.clone(),
                why: w
                    .get("why")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                durable: flag("durable"),
                replica: flag("replica"),
                views: flag("views"),
                safe_tenants: count("safe_tenants"),
                safe_rows: count("safe_rows"),
                safe_fanout: count("safe_fanout"),
                small_tenants: count("small_tenants"),
                large_tenants: count("large_tenants"),
                frozen_tenants: count("frozen_tenants"),
                mix,
                open_sessions_per_s: num(w, "open_sessions_per_s")?,
            });
        }
        Ok(Spec {
            default_seed: num(&doc, "default_seed")? as u64,
            untraced: shares("untraced")?,
            traced: shares("traced")?,
            timeout_ms: num(server, "timeout_ms")? as u64,
            cache_capacity: num(server, "cache_capacity")? as u64,
            classes,
            workloads,
        })
    }

    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }

    pub fn limit_ms(&self, class: Class) -> f64 {
        self.classes
            .iter()
            .find(|c| c.class == class)
            .map_or(f64::INFINITY, |c| c.limit_ms)
    }
}

impl Workload {
    /// The smoke-test variant: an eighth of the tenants (at least two of each
    /// kind in use, so that both connections still own one).
    pub fn quick(&self) -> Workload {
        let shrink = |n: u64| if n == 0 { 0 } else { (n / 8).max(2) };
        Workload {
            safe_tenants: shrink(self.safe_tenants),
            small_tenants: shrink(self.small_tenants),
            large_tenants: shrink(self.large_tenants),
            frozen_tenants: shrink(self.frozen_tenants),
            ..self.clone()
        }
    }

    // Tenant numbering: safe, then small, then large, then frozen.
    fn small_base(&self) -> u64 {
        self.safe_tenants
    }
    fn large_base(&self) -> u64 {
        self.small_base() + self.small_tenants
    }
    fn frozen_base(&self) -> u64 {
        self.large_base() + self.large_tenants
    }

    /// The `S` column value of the `j`-th tuple of row `a` in a safe tenant.
    fn safe_y(&self, a: u64, j: u64) -> u64 {
        // Distinct for j < safe_fanout because 4·j stays below the modulus.
        (a + 4 * j) % (4 * self.safe_fanout + 4)
    }

    /// The `insert` lines the server preloads: every tenant's relations, with
    /// probabilities drawn from the seed.
    ///
    /// Band tenants hold the #P-hard instance `R(x), S(x,y), T(y)` with
    /// `S = {(a, (a + j) mod D) : j < width}`. The edge structure is fixed on
    /// purpose: on random bipartite `S` of the same size, DPLL time varied
    /// tenfold between instances (10–98 ms at 60 tuples, 1.4–10 s at 100), a
    /// spread no regression bound survives. The band keeps the query
    /// non-hierarchical (lifted refuses it, grounding does the work) while
    /// every instance of one width costs the same.
    pub fn preload(&self, seed: u64) -> String {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xda7a);
        let mut out = String::new();
        let mut fact = |rel: char, k: u64, tuple: &[u64], range: (f64, f64)| {
            let p = rng.gen_range(range.0..range.1);
            let _ = write!(out, "insert {rel}{k}");
            for c in tuple {
                let _ = write!(out, " {c}");
            }
            let _ = writeln!(out, " {p:.4}");
        };
        for k in 0..self.safe_tenants {
            for a in 0..self.safe_rows {
                fact('R', k, &[a], (0.05, 0.5));
                fact('T', k, &[a], (0.05, 0.5));
                for j in 0..self.safe_fanout {
                    // Small, so that a scan over a few hundred tuples does
                    // not saturate at p = 1.000000 and hide a wrong answer.
                    fact('S', k, &[a, self.safe_y(a, j)], (0.01, 0.1));
                }
            }
        }
        for k in self.small_base()..self.frozen_base() + self.frozen_tenants {
            let width = self.band_width(k);
            for a in 0..BAND_DOMAIN {
                fact('R', k, &[a], (0.05, 0.5));
                fact('T', k, &[a], (0.05, 0.5));
                for j in 0..width {
                    fact('S', k, &[a, (a + j) % BAND_DOMAIN], (0.05, 0.5));
                }
            }
        }
        out
    }

    fn band_width(&self, k: u64) -> u64 {
        if (self.large_base()..self.frozen_base()).contains(&k) {
            LARGE_WIDTH
        } else {
            SMALL_WIDTH
        }
    }

    /// The tenants that carry a view `v<k>`: the small and large ones of a
    /// workload with views.
    pub fn viewed(&self) -> std::ops::Range<u64> {
        if self.views {
            self.small_base()..self.frozen_base()
        } else {
            0..0
        }
    }

    /// The query tenant `k`'s view materializes: Boolean over small tenants,
    /// one row per `x` over large ones.
    pub fn view_query(&self, k: u64) -> String {
        if k < self.large_base() {
            format!("query {}", h0(k))
        } else {
            format!("answers x : R{k}(x), S{k}(x,y), T{k}(y)")
        }
    }

    /// Small and large tenants: the ones that carry a view.
    fn view_tenants(&self) -> u64 {
        self.small_tenants + self.large_tenants
    }

    /// How many of a connection's `owned` view tenants the `view_refresh`
    /// sessions insert into and rebuild: the first quarter.
    ///
    /// The pool is kept apart because `view refresh` is not replicated: once
    /// a relation has seen an insert, a replica's view over it stays stale
    /// until the replica bootstraps again. Replica read-backs therefore go
    /// only to views outside the pool; inside it the primary answers.
    fn refresh_pool(&self, owned: u64) -> u64 {
        (owned / 4).max(1)
    }

    /// Whether a replica can serve `view show v<k>` fresh all run long.
    pub fn replica_serves_view(&self, k: u64, conns: u64) -> bool {
        let index = k - self.small_base();
        let owned = (self.view_tenants() - index % conns).div_ceil(conns);
        index / conns >= self.refresh_pool(owned)
    }

    /// `view create` lines, run during set-up so compile cost lands there.
    pub fn view_creates(&self) -> Vec<String> {
        self.viewed()
            .map(|k| format!("view create v{k} {}", self.view_query(k)))
            .collect()
    }

    /// The `cached_read` texts: `TEXTS_PER_FROZEN` per frozen tenant, all
    /// `exists`-only so the cache keys them on relations nobody writes.
    pub fn cached_texts(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for k in self.frozen_base()..self.frozen_base() + self.frozen_tenants {
            for t in 0..TEXTS_PER_FROZEN {
                ops.push(self.cached_read(k, t));
            }
        }
        ops
    }

    fn cached_read(&self, k: u64, text: u64) -> Op {
        let (line, engine) = match text {
            0 => (format!("query {}", h0(k)), "Grounded"),
            1 => (
                format!("query exists x. exists y. R{k}(x) & S{k}(x,y)"),
                "Lifted",
            ),
            2 => (
                format!("query exists x. exists y. S{k}(x,y) & T{k}(y)"),
                "Lifted",
            ),
            a => (format!("query exists y. R{k}({a}) & S{k}({a},y)"), "Lifted"),
        };
        Op {
            class: Class::CachedRead,
            target: Target::Replica,
            line,
            expect: Expect::Engine(engine),
        }
    }
}

/// The paper's H₀ over tenant `k`: non-hierarchical, hence #P-hard.
pub fn h0(k: u64) -> String {
    format!("exists x. exists y. R{k}(x) & S{k}(x,y) & T{k}(y)")
}

/// The session stream of one connection. Connection `conn` of `conns` owns
/// the tenants whose index within their kind is ≡ `conn` (mod `conns`), so no
/// two connections ever touch one tenant and each tenant sees its writes and
/// reads in one order: the replies are checkable without a global clock.
pub struct SessionGen<'a> {
    w: &'a Workload,
    rng: StdRng,
    conn: u64,
    conns: u64,
    /// Alternates `safe_scan` / `safe_ie`, and primary / replica `view show`.
    flip: bool,
    /// The kinds of the next sessions: each block of `MIX_BLOCK` holds every
    /// kind in exactly its share, in an order drawn from the seed. Drawing
    /// each session's kind independently would let the count of the rare,
    /// expensive kinds (a tenth of the sessions, ten times the cost) swing by
    /// a sixth between seeds, and throughput with it.
    block: Vec<SessionKind>,
}

/// Sessions per block of the mix; shares in `spec.json` are whole percents.
const MIX_BLOCK: usize = 100;

impl<'a> SessionGen<'a> {
    /// `stream` separates the warm-up, closed-loop, open-loop and
    /// verification streams of one seed.
    pub fn new(w: &'a Workload, seed: u64, stream: u64, conn: u64, conns: u64) -> SessionGen<'a> {
        let mix = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream << 32)
            .wrapping_add(conn);
        SessionGen {
            w,
            rng: StdRng::seed_from_u64(mix),
            conn,
            conns,
            flip: false,
            block: Vec::new(),
        }
    }

    /// One of this connection's tenants out of `count` starting at `base`.
    fn own_tenant(&mut self, base: u64, count: u64) -> u64 {
        let owned = (count - self.conn).div_ceil(self.conns);
        base + self.conn + self.conns * self.rng.gen_range(0..owned)
    }

    /// One of this connection's view tenants; `refreshed` picks from those
    /// that `view refresh` sessions rebuild.
    fn view_tenant(&mut self, refreshed: bool) -> u64 {
        let w = self.w;
        let owned = (w.view_tenants() - self.conn).div_ceil(self.conns);
        let pool = w.refresh_pool(owned);
        let i = self.rng.gen_range(0..if refreshed { pool } else { owned });
        w.small_base() + self.conn + self.conns * i
    }

    fn prob(&mut self, range: (f64, f64)) -> f64 {
        self.rng.gen_range(range.0..range.1)
    }

    fn op(class: Class, line: String, expect: Expect) -> Op {
        Op {
            class,
            target: Target::Primary,
            line,
            expect,
        }
    }

    fn update_r(&mut self, k: u64) -> Op {
        let a = self.rng.gen_range(0..BAND_DOMAIN);
        let p = self.prob((0.05, 0.5));
        Self::op(
            Class::Update,
            format!("update R{k} {a} {p:.4}"),
            Expect::Ack,
        )
    }

    fn view_show(&mut self, k: u64, target: Target) -> Op {
        let expect = if k < self.w.large_base() {
            Expect::Engine("Grounded")
        } else {
            Expect::Rows
        };
        Op {
            class: Class::ViewShow,
            target,
            line: format!("view show v{k}"),
            expect,
        }
    }

    fn kind(&mut self) -> SessionKind {
        if self.block.is_empty() {
            for &(kind, share) in &self.w.mix {
                let count = (share * MIX_BLOCK as f64).round() as usize;
                self.block.extend(std::iter::repeat_n(kind, count));
            }
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.gen_range(0..=i));
            }
        }
        self.block
            .pop()
            .expect("a mix has at least one kind with a share")
    }

    pub fn next_session(&mut self) -> Vec<Op> {
        let w = self.w;
        match self.kind() {
            SessionKind::Safe => {
                let k = self.own_tenant(0, w.safe_tenants);
                let a = self.rng.gen_range(0..w.safe_rows);
                let j = self.rng.gen_range(0..w.safe_fanout);
                let p = self.prob((0.01, 0.1));
                // The point reads ask about three different rows: the same
                // text twice would turn the repeat into a cache hit. Three of
                // the five reads are points so that the median read sits
                // inside that class, not on the edge between two.
                let point = |step: u64| {
                    let a = (a + step) % w.safe_rows;
                    Self::op(
                        Class::SafePoint,
                        format!("query exists y. R{k}({a}) & S{k}({a},y)"),
                        Expect::Engine("Lifted"),
                    )
                };
                self.flip = !self.flip;
                let scan = if self.flip {
                    Self::op(
                        Class::SafeScan,
                        format!("query exists x. exists y. R{k}(x) & S{k}(x,y)"),
                        Expect::Engine("Lifted"),
                    )
                } else {
                    // The paper's Q_J: liftable only with inclusion/exclusion.
                    Self::op(
                        Class::SafeIe,
                        format!(
                            "query exists x. exists y. exists u. exists v. \
                             R{k}(x) & S{k}(x,y) & T{k}(u) & S{k}(u,v)"
                        ),
                        Expect::Engine("Lifted"),
                    )
                };
                vec![
                    Self::op(
                        Class::Update,
                        format!("update S{k} {a} {} {p:.4}", w.safe_y(a, j)),
                        Expect::Ack,
                    ),
                    point(0),
                    point(1),
                    point(2),
                    scan,
                    Self::op(
                        Class::SafeAnswers,
                        format!("answers y : R{k}({a}), S{k}({a},y)"),
                        Expect::Rows,
                    ),
                ]
            }
            kind @ (SessionKind::HardSmall | SessionKind::HardForall) => {
                let k = self.own_tenant(w.small_base(), w.small_tenants);
                let read = if kind == SessionKind::HardSmall {
                    Self::op(
                        Class::HardSmall,
                        format!("query {}", h0(k)),
                        Expect::Engine("Grounded"),
                    )
                } else {
                    // H₀'s dual with S negated: every (x,y) outside S is
                    // satisfied outright, so the same 60 tuples matter. A
                    // `forall` is keyed on the global version, which the
                    // update before it has just moved.
                    Self::op(
                        Class::HardForall,
                        format!("query forall x. forall y. (R{k}(x) | !S{k}(x,y) | T{k}(y))"),
                        Expect::Engine("Grounded"),
                    )
                };
                vec![self.update_r(k), read]
            }
            SessionKind::HardLarge => {
                let k = self.own_tenant(w.large_base(), w.large_tenants);
                vec![
                    self.update_r(k),
                    Self::op(
                        Class::HardLarge,
                        format!("query {}", h0(k)),
                        Expect::Engine("Grounded"),
                    ),
                ]
            }
            SessionKind::ViewUpdate => {
                let k = self.view_tenant(false);
                // Every second read-back goes to the replica (when there is
                // one and it can serve the view): same text, answered from
                // the shipped circuit.
                self.flip = !self.flip;
                let target = if self.flip && w.replica_serves_view(k, self.conns) {
                    Target::Replica
                } else {
                    Target::Primary
                };
                vec![self.update_r(k), self.view_show(k, target)]
            }
            SessionKind::CachedRead => {
                let k = w.frozen_base() + self.rng.gen_range(0..w.frozen_tenants);
                let text = self.rng.gen_range(0..TEXTS_PER_FROZEN);
                vec![w.cached_read(k, text)]
            }
            SessionKind::ViewRefresh => {
                let k = self.view_tenant(true);
                let a = self.rng.gen_range(0..BAND_DOMAIN);
                let j = self.rng.gen_range(0..w.band_width(k));
                let p = self.prob((0.05, 0.5));
                // Re-inserting a tuple that exists still marks the view
                // stale (any insert may renumber tuples) but keeps the
                // instance, and so the rebuild cost, the same size all run.
                vec![
                    Self::op(
                        Class::Insert,
                        format!("insert S{k} {a} {} {p:.4}", (a + j) % BAND_DOMAIN),
                        Expect::Ack,
                    ),
                    Self::op(
                        Class::ViewRefresh,
                        format!("view refresh v{k}"),
                        Expect::Rebuilt,
                    ),
                    self.view_show(k, Target::Primary),
                ]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: &Workload, seed: u64, conn: u64) -> String {
        let mut gen = SessionGen::new(w, seed, 1, conn, 2);
        let mut out = String::new();
        for _ in 0..200 {
            for op in gen.next_session() {
                let _ = writeln!(out, "{:?} {:?} {}", op.class, op.target, op.line);
            }
        }
        out
    }

    #[test]
    fn spec_parses_and_every_mix_is_populated() {
        let spec = Spec::load();
        assert_eq!(spec.workloads.len(), 4);
        for p in [spec.untraced, spec.traced] {
            assert!((p.warmup + p.closed + p.open + p.in_process - 1.0).abs() < 1e-9);
        }
        for w in &spec.workloads {
            assert!(!w.mix.is_empty() && !w.why.is_empty(), "{}", w.name);
            assert!(w.open_sessions_per_s > 0.0, "{}", w.name);
            // Every kind in the mix must have tenants to draw from.
            let mut gen = SessionGen::new(w, 1, 0, 1, 2);
            for _ in 0..500 {
                assert!(!gen.next_session().is_empty());
            }
        }
    }

    #[test]
    fn op_stream_is_a_pure_function_of_the_seed() {
        let spec = Spec::load();
        for w in &spec.workloads {
            assert_eq!(stream(w, 7, 0), stream(w, 7, 0), "{}: same seed", w.name);
            assert_ne!(stream(w, 7, 0), stream(w, 8, 0), "{}: seeds differ", w.name);
            assert_ne!(
                stream(w, 7, 0),
                stream(w, 7, 1),
                "{}: connections differ",
                w.name
            );
            assert_eq!(w.preload(7), w.preload(7));
            assert_ne!(w.preload(7), w.preload(8));
        }
    }

    #[test]
    fn connections_never_share_a_written_tenant() {
        let spec = Spec::load();
        for w in &spec.workloads {
            let tenants = |conn: u64| -> std::collections::BTreeSet<String> {
                stream(w, 3, conn)
                    .lines()
                    .filter(|l| l.starts_with("Update") || l.starts_with("Insert"))
                    .map(|l| l.split_whitespace().nth(3).unwrap()[1..].to_string())
                    .collect()
            };
            let (a, b) = (tenants(0), tenants(1));
            assert!(!a.is_empty() && a.is_disjoint(&b), "{}", w.name);
        }
    }

    #[test]
    fn writes_only_touch_tuples_the_preload_created() {
        let spec = Spec::load();
        for w in &spec.workloads {
            let existing: std::collections::BTreeSet<String> = w
                .preload(5)
                .lines()
                .map(|l| l.rsplit_once(' ').unwrap().0["insert ".len()..].to_string())
                .collect();
            for conn in 0..2 {
                for line in stream(w, 5, conn).lines() {
                    let mut parts = line.splitn(3, ' ');
                    let (class, text) = (parts.next().unwrap(), parts.nth(1).unwrap());
                    if class == "Update" || class == "Insert" {
                        let fact = text.split_once(' ').unwrap().1.rsplit_once(' ').unwrap().0;
                        assert!(existing.contains(fact), "{}: {text}", w.name);
                    }
                }
            }
        }
    }

    #[test]
    fn reply_shapes() {
        assert!(Expect::Ack.accepts(""));
        assert!(!Expect::Ack.accepts("error: nope\n"));
        let grounded = "p = 0.112800  (engine: Grounded)\n";
        assert!(Expect::Engine("Grounded").accepts(grounded));
        assert!(!Expect::Engine("Lifted").accepts(grounded));
        assert!(!Expect::Engine("Grounded")
            .accepts("p = 0.97  (engine: Approximate)  bounds [0.76, 0.99]\n"));
        assert!(!Expect::Engine("Grounded")
            .accepts("(stale — run `view refresh v1`)\np = 0.1  (engine: Grounded)\n"));
        assert!(Expect::Rows.accepts("y = 10    p = 0.120000\ny = 11    p = 0.090000\n"));
        assert!(!Expect::Rows.accepts("(no answers)\n"));
        assert!(!Expect::Rows.accepts(""));
        assert!(Expect::Rebuilt.accepts("view v3: rebuilt\n"));
        assert!(!Expect::Rebuilt.accepts("view v3: fresh\n"));
    }
}
