//! # pdb-core — the probabilistic database engine
//!
//! The facade tying the workspace together into the system the paper
//! describes. [`ProbDb`] owns a tuple-independent database and answers
//! `PQE` with a strategy cascade mirroring the paper's architecture:
//!
//! 1. **Lifted inference** (§5, `pdb-lifted`) — polynomial time whenever the
//!    rules apply; exact.
//! 2. **Grounded inference** (§7, `pdb-lineage` + `pdb-wmc`) — lineage plus
//!    DPLL with components and caching; exact for *every* FO sentence, may
//!    be exponential. A decision budget bounds the blow-up. The run is
//!    traced, so it also compiles the query: the answer is the evaluation
//!    of the trace's flat program ([`compile_grounded`]), which
//!    [`ProbDb::query_fo_compiled`] hands back for re-use.
//! 3. **Approximation** — for self-join-free CQs, the §6 all-plans upper
//!    bound and oblivious lower bound (`pdb-plans`); for monotone queries,
//!    the Karp–Luby FPRAS (`pdb-wmc`).
//!
//! Every answer reports which engine produced it ([`Method`]), so the
//! experiment harness can ablate the cascade.

use pdb_data::{Tuple, TupleDb};
use pdb_logic::{Cq, Fo, Ucq};
use pdb_wmc::DpllOptions;
use std::collections::BTreeMap;
use std::time::Instant;

pub use grounded::{compile_grounded, CompiledQuery, Leaf};
pub use pdb_lifted::{classify_sjf_cq, classify_ucq, Complexity};

mod grounded;

/// Which engine produced an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Lifted inference (extensional rules, §5).
    Lifted,
    /// A provably safe extensional plan (§6).
    SafePlan,
    /// Grounded inference: lineage + DPLL model counting (§7).
    Grounded,
    /// Karp–Luby sampling plus (when available) plan bounds (§6).
    Approximate,
}

/// An answer to a `PQE` instance.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The (estimated) marginal probability `p_D(Q)`.
    pub probability: f64,
    /// The engine that produced it.
    pub method: Method,
    /// For approximate answers: the `(lower, upper)` plan bounds, when the
    /// query is a self-join-free CQ.
    pub bounds: Option<(f64, f64)>,
    /// For approximate answers: the estimator's standard error.
    pub std_error: Option<f64>,
}

/// One row of a non-Boolean query answer: values for the head variables and
/// the marginal probability of that answer tuple.
#[derive(Clone, Debug)]
pub struct AnswerTuple {
    /// The head-variable values, in head order.
    pub values: Vec<u64>,
    /// `p_D(Q[values/head])`.
    pub probability: f64,
    /// The engine that evaluated this answer's Boolean query.
    pub method: Method,
}

/// Knobs for [`ProbDb::query_fo`].
#[derive(Clone, Debug)]
pub struct QueryOptions {
    /// Skip the lifted engine (ablation).
    pub disable_lifted: bool,
    /// DPLL decision budget before falling back to approximation
    /// (0 = unlimited: grounded inference runs to completion).
    pub exact_budget: u64,
    /// Samples for the Karp–Luby estimator.
    pub samples: u64,
    /// RNG seed for the estimator.
    pub seed: u64,
    /// Give up exact work once the wall clock passes this instant (`None`
    /// = never) with [`EngineError::DeadlineExceeded`]: the time budget
    /// next to `exact_budget`. Checked after the lifted engine declines,
    /// after grounding, and inside DPLL; a lifted answer is always
    /// returned, however late.
    pub deadline: Option<Instant>,
}

impl Default for QueryOptions {
    fn default() -> QueryOptions {
        QueryOptions {
            disable_lifted: false,
            exact_budget: 2_000_000,
            samples: 200_000,
            seed: 0x5eed,
            deadline: None,
        }
    }
}

impl QueryOptions {
    /// `Err(DeadlineExceeded)` once the clock is past the deadline.
    fn check_deadline(&self) -> Result<(), EngineError> {
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Err(EngineError::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

/// Errors from the engine.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// The query text failed to parse.
    Parse(pdb_logic::ParseError),
    /// No engine could evaluate the query under the given options.
    Unsupported(String),
    /// [`QueryOptions::deadline`] passed before an exact answer was found;
    /// the exact work was stopped, not left running.
    DeadlineExceeded,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Unsupported(msg) => write!(f, "unsupported query: {msg}"),
            EngineError::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<pdb_logic::ParseError> for EngineError {
    fn from(e: pdb_logic::ParseError) -> EngineError {
        EngineError::Parse(e)
    }
}

/// A probabilistic database with the full query-evaluation cascade.
///
/// Mutations are tracked by a **per-relation version vector** plus a domain
/// counter (see [`ProbDb::relation_version`]): consumers that depend only on
/// some relations' contents (result caches, materialized views) can detect
/// precisely which of their inputs moved instead of invalidating wholesale
/// on every write.
#[derive(Clone, Debug, Default)]
pub struct ProbDb {
    db: TupleDb,
    /// Per-relation mutation counters; see [`ProbDb::relation_version`].
    versions: BTreeMap<String, u64>,
    /// Bumped by [`ProbDb::extend_domain`] only.
    domain_version: u64,
    /// Total mutation count (= Σ versions + domain_version).
    total_version: u64,
}

impl ProbDb {
    /// An empty database.
    pub fn new() -> ProbDb {
        ProbDb::default()
    }

    /// Wraps an existing [`TupleDb`] (every version counter at 0).
    pub fn from_tuple_db(db: TupleDb) -> ProbDb {
        ProbDb {
            db,
            ..ProbDb::default()
        }
    }

    /// The underlying database.
    pub fn tuple_db(&self) -> &TupleDb {
        &self.db
    }

    /// The **global** database version: the total mutation count, bumped by
    /// every [`ProbDb::insert`], [`ProbDb::update_prob`] and
    /// [`ProbDb::extend_domain`]. Two reads of the same `ProbDb` with equal
    /// global versions are guaranteed to see identical contents, so
    /// `(normalized query, version)` is a sound cache key for anything
    /// derived from query + data. Queries whose answers depend only on some
    /// relations' contents should key on [`ProbDb::relation_version`]s
    /// instead, which survive unrelated writes.
    pub fn version(&self) -> u64 {
        self.total_version
    }

    /// The version of one relation: how many mutations ([`ProbDb::insert`],
    /// [`ProbDb::update_prob`]) have touched it. 0 for relations never
    /// written through this wrapper (including relations present in a
    /// [`ProbDb::from_tuple_db`] seed). Monotone, and bumped by nothing
    /// except writes to this relation — the fine-grained invalidation signal
    /// for caches and materialized views over queries that mention it.
    pub fn relation_version(&self, relation: &str) -> u64 {
        self.versions.get(relation).copied().unwrap_or(0)
    }

    /// The full per-relation version vector, in relation-name order.
    /// Together with [`ProbDb::domain_version`] this is the complete
    /// mutation history summary — what a durable store must persist so
    /// consumers keyed on versions (caches, materialized views) stay
    /// coherent across a restart.
    pub fn relation_versions(&self) -> impl Iterator<Item = (&str, u64)> {
        self.versions.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Reconstructs a [`ProbDb`] from persisted parts: the tuple store plus
    /// the version vector it was saved with. The invariant
    /// `total_version = Σ relation versions + domain_version` is restored
    /// arithmetically, so version-keyed consumers (result caches, view
    /// `applied` maps) resume exactly where the saved instance stopped.
    pub fn from_snapshot(
        db: TupleDb,
        versions: BTreeMap<String, u64>,
        domain_version: u64,
    ) -> ProbDb {
        let total_version = versions.values().sum::<u64>() + domain_version;
        ProbDb {
            db,
            versions,
            domain_version,
            total_version,
        }
    }

    /// The domain version: bumped by [`ProbDb::extend_domain`] only.
    /// (Inserts can also grow the *active* domain; domain-sensitive
    /// consumers must therefore watch the global [`ProbDb::version`], not
    /// just this counter.)
    pub fn domain_version(&self) -> u64 {
        self.domain_version
    }

    /// Inserts a tuple with probability `p` (relation declared on first use).
    pub fn insert(&mut self, relation: &str, tuple: impl Into<Tuple>, p: f64) {
        self.db.insert(relation, tuple, p);
        *self.versions.entry(relation.to_string()).or_insert(0) += 1;
        self.total_version += 1;
    }

    /// Changes the probability of an **existing** tuple. Returns the
    /// relation's new version on success, `None` (storing nothing, bumping
    /// nothing) when the tuple is not a possible tuple of `relation`.
    ///
    /// Unlike an insert, an update never creates a tuple, so tuple-index
    /// numbering stays stable — this is the mutation materialized views
    /// absorb incrementally (O(circuit depth)) instead of by recompiling.
    pub fn update_prob(&mut self, relation: &str, tuple: &Tuple, p: f64) -> Option<u64> {
        if !self.db.update_prob(relation, tuple, p) {
            return None;
        }
        let v = self.versions.entry(relation.to_string()).or_insert(0);
        *v += 1;
        self.total_version += 1;
        Some(*v)
    }

    /// Extends the domain beyond the active one (matters for ∀ queries).
    pub fn extend_domain(&mut self, consts: impl IntoIterator<Item = u64>) {
        self.db.extend_domain(consts);
        self.domain_version += 1;
        self.total_version += 1;
    }

    /// Parses and answers a query in the workspace's FO syntax.
    pub fn query(&self, text: &str) -> Result<Answer, EngineError> {
        let fo = pdb_logic::parse_fo(text)?;
        self.query_fo(&fo, &QueryOptions::default())
    }

    /// Answers a Boolean FO sentence with the full cascade.
    pub fn query_fo(&self, fo: &Fo, opts: &QueryOptions) -> Result<Answer, EngineError> {
        self.query_fo_compiled(fo, opts).map(|(answer, _)| answer)
    }

    /// [`ProbDb::query_fo`], also handing back the compiled program when
    /// the grounded engine produced the answer: the answer *is* that
    /// program's evaluation, and [`CompiledQuery::eval`] repeats it under
    /// the probabilities a later state of the database holds at its
    /// leaves ([`CompiledQuery::leaf_probs`]) without grounding or
    /// counting again.
    pub fn query_fo_compiled(
        &self,
        fo: &Fo,
        opts: &QueryOptions,
    ) -> Result<(Answer, Option<CompiledQuery>), EngineError> {
        if !fo.is_sentence() {
            return Err(EngineError::Unsupported(
                "only Boolean queries (sentences) are supported".into(),
            ));
        }
        // 1. Lifted inference.
        if !opts.disable_lifted {
            let mut span = pdb_obs::span(pdb_obs::Stage::Lifted);
            let lifted = pdb_lifted::probability_fo(fo, &self.db);
            span.set_bool("safe", lifted.is_ok());
            if let Ok(p) = lifted {
                let answer = Answer {
                    probability: p,
                    method: Method::Lifted,
                    bounds: None,
                    std_error: None,
                };
                return Ok((answer, None));
            }
        }
        opts.check_deadline()?;
        // 2. Grounded inference with a decision budget and a deadline: one
        //    traced count compiles the query (`grounded::compile_grounded`).
        //    A traced run does not fork, so it counts on this thread.
        let index = self.db.index();
        let probs: Vec<f64> = index.iter().map(|(_, r)| r.prob).collect();
        let dpll_opts = DpllOptions {
            max_decisions: opts.exact_budget,
            deadline: opts.deadline,
            ..Default::default()
        };
        let pool = pdb_par::current();
        let compiled = grounded::compile_grounded(fo, &self.db, &index, &probs, dpll_opts, &pool)
            .and_then(|program| Some((program.leaf_probs(self)?, program)));
        match compiled {
            Some((leaf_probs, program)) => {
                let probability = {
                    let mut span = pdb_obs::span(pdb_obs::Stage::Eval);
                    span.set_u64("nodes", program.len() as u64);
                    program.eval(&leaf_probs)
                };
                let answer = Answer {
                    probability,
                    method: Method::Grounded,
                    bounds: None,
                    std_error: None,
                };
                return Ok((answer, Some(program)));
            }
            // A stopped count is a stage boundary too: if the clock is past
            // the deadline now, that is what the run reports, whichever of
            // its two budgets stopped the counter.
            None => opts.check_deadline()?,
        }
        // 3. Approximation: Karp–Luby over the monotone DNF (plus plan
        //    bounds when the query is a single self-join-free CQ).
        let Some(ucq) = fo.to_ucq() else {
            return Err(EngineError::Unsupported(
                "exact budget exhausted and the query is not a monotone ∃* \
                 sentence; no estimator applies"
                    .into(),
            ));
        };
        let est = {
            let mut span = pdb_obs::span(pdb_obs::Stage::Sample);
            let kernel_before = span.is_recording().then(pdb_kernel::stats);
            let dnf = pdb_lineage::ucq_dnf_lineage(&ucq, &self.db, &index);
            // Chunk-seeded sampling: the estimate is bit-identical for every
            // pool size (see `karp_luby::estimate_chunked`).
            let est =
                pdb_wmc::karp_luby::estimate_chunked(&dnf, &probs, opts.samples, opts.seed, &pool);
            span.set_u64("samples", opts.samples);
            if let Some(before) = kernel_before {
                let after = pdb_kernel::stats();
                span.set_u64("kernel_flattened", after.flattened - before.flattened);
                span.set_u64("kernel_evals", after.evals - before.evals);
            }
            est
        };
        let bounds = {
            let mut span = pdb_obs::span(pdb_obs::Stage::Bounds);
            let bounds = match ucq.disjuncts() {
                [only] if !only.has_self_join() && only.atoms().len() <= 6 => {
                    let b = pdb_plans::bounds::bounds(only, &self.db);
                    Some((b.lower, b.upper))
                }
                _ => None,
            };
            span.set_bool("plan_bounds", bounds.is_some());
            bounds
        };
        // The raw estimator is unbiased but can leave [0,1] (and the plan
        // bounds); clamping into any interval known to contain p_D(Q) only
        // reduces the error.
        let mut probability = est.value.clamp(0.0, 1.0);
        if let Some((lo, hi)) = bounds {
            probability = probability.clamp(lo, hi);
        }
        let answer = Answer {
            probability,
            method: Method::Approximate,
            bounds,
            std_error: Some(est.std_error),
        };
        Ok((answer, None))
    }

    /// Answers a UCQ (monotone ∃* fragment) via the cascade.
    pub fn query_ucq(&self, ucq: &Ucq, opts: &QueryOptions) -> Result<Answer, EngineError> {
        self.query_fo(&ucq.to_fo(), opts)
    }

    /// Evaluates a **non-Boolean** CQ: returns each answer tuple over the
    /// `head` variables with its marginal probability (the paper's "compute
    /// the probability of each item in the answer", §1).
    ///
    /// Each candidate answer `a⃗` is found by an ordinary join; its
    /// probability is the Boolean query `Q[a⃗/head]`, evaluated through the
    /// cascade. Answers are sorted by decreasing probability.
    pub fn query_answers(
        &self,
        cq: &Cq,
        head: &[pdb_logic::Var],
        opts: &QueryOptions,
    ) -> Result<Vec<AnswerTuple>, EngineError> {
        let vars = cq.variables();
        for h in head {
            if !vars.contains(h) {
                return Err(EngineError::Unsupported(format!(
                    "head variable {h} does not occur in the query"
                )));
            }
        }
        let candidates = pdb_lineage::cq_answer_bindings(cq, head, &self.db);
        // Each answer row is an independent Boolean PQE instance — evaluate
        // them on the pool. `parallel_map` preserves input order, so error
        // selection and the (stable) sort below match the sequential loop.
        let pool = pdb_par::current();
        let rows = pool.parallel_map(candidates.into_iter().collect(), |values| {
            // A row boundary is a stage boundary: lifted rows never look
            // at the clock themselves, and there can be many of them.
            opts.check_deadline()?;
            let mut bound = cq.clone();
            for (v, &c) in head.iter().zip(&values) {
                bound = bound.substitute(v, &pdb_logic::Term::Const(c));
            }
            self.query_fo(&bound.to_fo(), opts)
                .map(|answer| AnswerTuple {
                    values,
                    probability: answer.probability,
                    method: answer.method,
                })
        });
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            out.push(row?);
        }
        out.sort_by(|a, b| b.probability.total_cmp(&a.probability));
        Ok(out)
    }

    /// Answers a Boolean CQ via the cascade.
    pub fn query_cq(&self, cq: &Cq, opts: &QueryOptions) -> Result<Answer, EngineError> {
        self.query_fo(&cq.to_fo(), opts)
    }

    /// The data complexity of a UCQ per the dichotomy classifiers.
    pub fn classify(&self, ucq: &Ucq) -> Complexity {
        classify_ucq(ucq)
    }

    /// Open-world evaluation (§9, OpenPDB): unlisted tuples have unknown
    /// probability in `[0, λ]`, so a **monotone** query's probability is an
    /// interval. Returns `(lower, upper)`: the closed-world answer and the
    /// answer on the λ-completion. Non-monotone queries are rejected (their
    /// extremes need not sit at the endpoint completions).
    pub fn query_open_world(
        &self,
        fo: &Fo,
        lambda: f64,
        opts: &QueryOptions,
    ) -> Result<(Answer, Answer), EngineError> {
        if !fo.is_monotone() {
            return Err(EngineError::Unsupported(
                "open-world intervals require a monotone query".into(),
            ));
        }
        let lower = self.query_fo(fo, opts)?;
        let completed =
            ProbDb::from_tuple_db(pdb_data::openworld::lambda_completion(&self.db, lambda));
        let upper = completed.query_fo(fo, opts)?;
        Ok((lower, upper))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_num::assert_close;

    fn fig1_db() -> ProbDb {
        let (db, _) = pdb_data::generators::fig1_concrete();
        ProbDb::from_tuple_db(db)
    }

    #[test]
    fn liftable_queries_use_the_lifted_engine() {
        let db = fig1_db();
        let a = db.query("exists x. exists y. R(x) & S(x,y)").unwrap();
        assert_eq!(a.method, Method::Lifted);
        let truth = pdb_lineage::eval::brute_force_probability(
            &pdb_logic::parse_fo("exists x. exists y. R(x) & S(x,y)").unwrap(),
            db.tuple_db(),
        );
        assert_close(a.probability, truth, 1e-10);
    }

    #[test]
    fn hard_queries_fall_back_to_grounded() {
        let mut rng = StdRng::seed_from_u64(5);
        let db = ProbDb::from_tuple_db(pdb_data::generators::bipartite(
            2,
            1.0,
            (0.2, 0.8),
            &mut rng,
        ));
        let a = db
            .query("exists x. exists y. R(x) & S(x,y) & T(y)")
            .unwrap();
        assert_eq!(a.method, Method::Grounded);
        let truth = pdb_lineage::eval::brute_force_probability(
            &pdb_logic::parse_fo("exists x. exists y. R(x) & S(x,y) & T(y)").unwrap(),
            db.tuple_db(),
        );
        assert_close(a.probability, truth, 1e-10);
    }

    #[test]
    fn ablation_can_disable_lifted() {
        let db = fig1_db();
        let fo = pdb_logic::parse_fo("exists x. exists y. R(x) & S(x,y)").unwrap();
        let opts = QueryOptions {
            disable_lifted: true,
            ..Default::default()
        };
        let a = db.query_fo(&fo, &opts).unwrap();
        assert_eq!(a.method, Method::Grounded);
        let lifted = db.query_fo(&fo, &QueryOptions::default()).unwrap();
        assert_close(a.probability, lifted.probability, 1e-10);
    }

    #[test]
    fn tiny_budget_forces_approximation_with_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let db = ProbDb::from_tuple_db(pdb_data::generators::bipartite(
            6,
            0.8,
            (0.2, 0.8),
            &mut rng,
        ));
        let fo = pdb_logic::parse_fo("exists x. exists y. R(x) & S(x,y) & T(y)").unwrap();
        let opts = QueryOptions {
            exact_budget: 2,
            samples: 30_000,
            ..Default::default()
        };
        let a = db.query_fo(&fo, &opts).unwrap();
        assert_eq!(a.method, Method::Approximate);
        let (lo, hi) = a.bounds.expect("sjf CQ gets plan bounds");
        assert!(lo <= hi);
        assert!(
            a.probability >= lo - 0.05 && a.probability <= hi + 0.05,
            "estimate {} outside [{lo}, {hi}]",
            a.probability
        );
        assert!(a.std_error.is_some());
    }

    #[test]
    fn a_passed_deadline_stops_exact_work_but_never_a_lifted_answer() {
        let mut rng = StdRng::seed_from_u64(9);
        let db = ProbDb::from_tuple_db(pdb_data::generators::bipartite(
            6,
            0.8,
            (0.2, 0.8),
            &mut rng,
        ));
        let expired = QueryOptions {
            deadline: Some(Instant::now()),
            ..Default::default()
        };
        let hard = pdb_logic::parse_fo("exists x. exists y. R(x) & S(x,y) & T(y)").unwrap();
        assert!(matches!(
            db.query_fo(&hard, &expired),
            Err(EngineError::DeadlineExceeded)
        ));
        let safe = pdb_logic::parse_fo("exists x. exists y. R(x) & S(x,y)").unwrap();
        assert_eq!(db.query_fo(&safe, &expired).unwrap().method, Method::Lifted);
        // Answer rows are lifted one by one; the row boundary checks.
        let cq = pdb_logic::parse_cq("R(x), S(x,y)").unwrap();
        let head = [pdb_logic::Var::new("x")];
        assert!(matches!(
            db.query_answers(&cq, &head, &expired),
            Err(EngineError::DeadlineExceeded)
        ));
        // A deadline that does not pass changes no bit of the exact answer.
        let roomy = QueryOptions {
            deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
            ..Default::default()
        };
        let bounded = db.query_fo(&hard, &roomy).unwrap();
        let unbounded = db.query_fo(&hard, &QueryOptions::default()).unwrap();
        assert_eq!(bounded.method, Method::Grounded);
        assert_eq!(
            bounded.probability.to_bits(),
            unbounded.probability.to_bits()
        );
    }

    #[test]
    fn universal_queries_work_end_to_end() {
        let db = fig1_db();
        let a = db.query("forall x. forall y. (S(x,y) -> R(x))").unwrap();
        // Example 2.1 is liftable.
        assert_eq!(a.method, Method::Lifted);
        let p = [0.1, 0.2, 0.3];
        let q = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
        let expected = (p[0] + (1.0 - p[0]) * (1.0 - q[0]) * (1.0 - q[1]))
            * (p[1] + (1.0 - p[1]) * (1.0 - q[2]) * (1.0 - q[3]) * (1.0 - q[4]))
            * (1.0 - q[5]);
        assert_close(a.probability, expected, 1e-10);
    }

    #[test]
    fn mixed_prefix_goes_grounded() {
        let mut db = ProbDb::new();
        db.insert("S", [0, 0], 0.5);
        db.insert("S", [0, 1], 0.5);
        db.insert("S", [1, 1], 0.25);
        let a = db.query("forall x. exists y. S(x,y)").unwrap();
        assert_eq!(a.method, Method::Grounded);
        let truth = pdb_lineage::eval::brute_force_probability(
            &pdb_logic::parse_fo("forall x. exists y. S(x,y)").unwrap(),
            db.tuple_db(),
        );
        assert_close(a.probability, truth, 1e-10);
    }

    #[test]
    fn parse_errors_are_reported() {
        let db = ProbDb::new();
        assert!(matches!(db.query("R(x) @@@"), Err(EngineError::Parse(_))));
        assert!(matches!(
            db.query("R(x)"), // free variable
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn non_boolean_answers_with_probabilities() {
        let db = fig1_db();
        // Q(x) :- R(x), S(x,y): which roots have a child?
        let cq = pdb_logic::parse_cq("R(x), S(x,y)").unwrap();
        let head = [pdb_logic::Var::new("x")];
        let answers = db
            .query_answers(&cq, &head, &QueryOptions::default())
            .unwrap();
        // Roots a1 (id 0) and a2 (id 1) have children in R∩S; a4 is not in R.
        assert_eq!(answers.len(), 2);
        for a in &answers {
            // p(answer) = p(R(a)) · (1 ⊕ children): check against brute force.
            let mut bound = cq.clone();
            bound = bound.substitute(&head[0], &pdb_logic::Term::Const(a.values[0]));
            let truth = pdb_lineage::eval::brute_force_probability(&bound.to_fo(), db.tuple_db());
            assert_close(a.probability, truth, 1e-10);
        }
        // Sorted by decreasing probability.
        assert!(answers[0].probability >= answers[1].probability);
    }

    #[test]
    fn open_world_intervals_bracket_and_grow_with_lambda() {
        let mut db = ProbDb::new();
        db.insert("R", [0], 0.5);
        db.insert("S", [0, 1], 0.4);
        db.extend_domain([0, 1]);
        let fo = pdb_logic::parse_fo("exists x. exists y. R(x) & S(x,y)").unwrap();
        let (lo, hi) = db
            .query_open_world(&fo, 0.2, &QueryOptions::default())
            .unwrap();
        assert!(lo.probability <= hi.probability);
        // λ = 0 collapses the interval.
        let (lo0, hi0) = db
            .query_open_world(&fo, 0.0, &QueryOptions::default())
            .unwrap();
        assert_close(lo0.probability, hi0.probability, 1e-12);
        // Larger λ widens the upper bound.
        let (_, hi_big) = db
            .query_open_world(&fo, 0.5, &QueryOptions::default())
            .unwrap();
        assert!(hi_big.probability >= hi.probability);
        // Upper bound verified against brute force on the completion.
        let completed = pdb_data::openworld::lambda_completion(db.tuple_db(), 0.2);
        assert_close(
            hi.probability,
            pdb_lineage::eval::brute_force_probability(&fo, &completed),
            1e-9,
        );
    }

    #[test]
    fn open_world_rejects_non_monotone() {
        let mut db = ProbDb::new();
        db.insert("R", [0], 0.5);
        let fo = pdb_logic::parse_fo("!R(0)").unwrap();
        assert!(db
            .query_open_world(&fo, 0.1, &QueryOptions::default())
            .is_err());
    }

    #[test]
    fn non_boolean_rejects_unknown_head() {
        let db = fig1_db();
        let cq = pdb_logic::parse_cq("R(x)").unwrap();
        let err = db
            .query_answers(&cq, &[pdb_logic::Var::new("z")], &QueryOptions::default())
            .unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
    }

    #[test]
    fn classification_is_exposed() {
        let db = ProbDb::new();
        let easy = pdb_logic::parse_ucq("R(x), S(x,y)").unwrap();
        let hard = pdb_logic::parse_ucq("R(x), S(x,y), T(y)").unwrap();
        assert_eq!(db.classify(&easy), Complexity::PolynomialTime);
        assert_eq!(db.classify(&hard), Complexity::SharpPHard);
    }

    #[test]
    fn version_vector_tracks_per_relation_writes() {
        let mut db = ProbDb::new();
        assert_eq!(db.version(), 0);
        assert_eq!(db.relation_version("R"), 0);

        db.insert("R", [1], 0.5);
        db.insert("R", [2], 0.25);
        db.insert("S", [1, 2], 0.75);
        assert_eq!(db.version(), 3);
        assert_eq!(db.relation_version("R"), 2);
        assert_eq!(db.relation_version("S"), 1);
        // Writes to S leave R's version alone — the fine-grained signal.
        assert_eq!(db.relation_version("T"), 0);

        // update_prob bumps only the touched relation and reports its new
        // version; a refused update bumps nothing.
        assert_eq!(db.update_prob("R", &Tuple::from([1]), 0.9), Some(3));
        assert_eq!(db.tuple_db().prob("R", &Tuple::from([1])), 0.9);
        assert_eq!(db.update_prob("R", &Tuple::from([9]), 0.9), None);
        assert_eq!(db.update_prob("Z", &Tuple::from([1]), 0.9), None);
        assert_eq!(db.version(), 4);
        assert_eq!(db.relation_version("R"), 3);
        assert_eq!(db.relation_version("S"), 1);

        // extend_domain is a domain event, not a relation event.
        assert_eq!(db.domain_version(), 0);
        db.extend_domain([7]);
        assert_eq!(db.domain_version(), 1);
        assert_eq!(db.version(), 5);
        assert_eq!(db.relation_version("R"), 3);
    }

    use rand::rngs::StdRng;
    use rand::SeedableRng;
}
