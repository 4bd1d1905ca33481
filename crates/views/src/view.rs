//! Materialized probabilistic views and their maintenance protocol.
//!
//! A **view** is a registered query whose answer is kept materialized. At
//! build time every answer row is compiled into an [`IncrementalCircuit`]
//! over the row's [`pdb_core::CompiledQuery`] (lineage → CNF → DPLL trace →
//! decision-DNNF → flat program, the §7 pipeline), and the view indexes
//! the tuples its rows read, so a later probability update is absorbed by
//! one kernel pass over each reading row's program, no recompilation — not
//! by re-running the query; an update to a tuple no row reads costs nothing.
//! When the compilation budget is exhausted the row falls back to the full
//! [`pdb_core::ProbDb::query_fo`] cascade (plan-based dissociation bounds /
//! Karp–Luby) and is refreshed by re-querying.
//!
//! ## Maintenance protocol
//!
//! The [`ViewManager`] is driven by **versioned events** mirroring the
//! [`pdb_core::ProbDb`] per-relation version vector:
//!
//! * [`ViewManager::on_update_prob`] — a probability change; applied
//!   incrementally to circuit rows iff the event's version is exactly the
//!   next one the view expects for that relation. An older version is a
//!   duplicate (ignored); a gap means events were missed and the view goes
//!   stale.
//! * [`ViewManager::on_insert`] — a new possible tuple invalidates the
//!   compiled lineage (the circuit has no leaf for it): views mentioning
//!   the relation go stale, as do domain-sensitive views (an insert can
//!   grow the active domain a ∀ quantifies over).
//! * [`ViewManager::on_domain_extend`] — only domain-sensitive views care.
//!
//! Stale views keep serving their last materialized rows (marked stale)
//! until [`ViewManager::refresh`] rebuilds them from a fresh snapshot.
//! This event protocol tolerates out-of-order delivery: callers mutate the
//! database first, release any lock, then deliver the event — the version
//! check makes late or duplicated events harmless.

use crate::circuit::IncrementalCircuit;
use crate::persist::{CircuitState, RowState, ViewDefState, ViewState};
use pdb_core::{Answer, AnswerTuple, EngineError, Leaf, Method, ProbDb, QueryOptions};
use pdb_data::Tuple;
use pdb_logic::{Cq, Fo, Term, Var};
use pdb_wmc::DpllOptions;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// What a view materializes.
#[derive(Clone, Debug)]
pub enum ViewDef {
    /// A Boolean sentence: one row, its probability.
    Boolean {
        /// Original query text (for listings).
        text: String,
        /// The parsed sentence.
        fo: Fo,
    },
    /// A non-Boolean CQ: one row per answer binding of `head`.
    Answers {
        /// Original body text (for listings).
        text: String,
        /// Head variables, in output order.
        head: Vec<Var>,
        /// The conjunctive-query body.
        cq: Cq,
    },
}

impl ViewDef {
    /// Parses `view create` payloads: a Boolean sentence.
    pub fn boolean(text: &str) -> Result<ViewDef, EngineError> {
        let fo = pdb_logic::parse_fo(text)?;
        if !fo.is_sentence() {
            return Err(EngineError::Unsupported(
                "a Boolean view needs a sentence (no free variables)".into(),
            ));
        }
        Ok(ViewDef::Boolean {
            text: text.to_string(),
            fo,
        })
    }

    /// Parses `view create` payloads: head variables + CQ body.
    pub fn answers(head: &[String], body: &str) -> Result<ViewDef, EngineError> {
        let cq = pdb_logic::parse_cq(body)?;
        let vars: Vec<Var> = head.iter().map(|v| Var::new(v)).collect();
        let cq_vars = cq.variables();
        for v in &vars {
            if !cq_vars.contains(v) {
                return Err(EngineError::Unsupported(format!(
                    "head variable {v} does not occur in the view query"
                )));
            }
        }
        Ok(ViewDef::Answers {
            text: body.to_string(),
            head: vars,
            cq,
        })
    }

    /// The relation names the query mentions.
    fn relations(&self) -> BTreeSet<String> {
        let preds = match self {
            ViewDef::Boolean { fo, .. } => fo.predicates(),
            ViewDef::Answers { cq, .. } => cq.predicates(),
        };
        preds.into_iter().map(|p| p.name().to_string()).collect()
    }

    /// Whether answers can change when the domain grows without any tuple
    /// changing. UCQs (and CQ answer sets) are domain-independent; anything
    /// with a ∀ is not.
    fn domain_sensitive(&self) -> bool {
        match self {
            ViewDef::Boolean { fo, .. } => fo.to_ucq().is_none(),
            ViewDef::Answers { .. } => false,
        }
    }

    /// `boolean` or `answers` (for listings).
    pub fn kind(&self) -> &'static str {
        match self {
            ViewDef::Boolean { .. } => "boolean",
            ViewDef::Answers { .. } => "answers",
        }
    }

    /// The query text the view was created with (listings; `answers` views
    /// render as `v1,v2 : body` to be re-creatable).
    pub fn display(&self) -> String {
        match self {
            ViewDef::Boolean { text, .. } => text.clone(),
            ViewDef::Answers { text, head, .. } => {
                let names: Vec<String> = head.iter().map(|v| v.to_string()).collect();
                format!("{} : {}", names.join(","), text)
            }
        }
    }
}

/// How one materialized row is maintained.
enum RowBackend {
    /// A compiled circuit; an update is one kernel pass over the row's
    /// program, no recompilation.
    Circuit(IncrementalCircuit),
    /// Compilation exceeded the budget: the row holds a cascade answer
    /// (possibly approximate, with dissociation bounds) and is refreshed by
    /// re-querying.
    Fallback,
}

/// One materialized answer row.
pub struct ViewRow {
    /// Head constants (empty for Boolean views).
    pub values: Vec<u64>,
    /// Current materialized probability.
    pub probability: f64,
    /// Dissociation bounds, when the row came from the approximate path.
    pub bounds: Option<(f64, f64)>,
    /// The engine that produced the row (circuit rows report `Grounded`).
    pub method: Method,
    backend: RowBackend,
}

impl ViewRow {
    /// True when the row is maintained by a compiled circuit.
    pub fn is_circuit(&self) -> bool {
        matches!(self.backend, RowBackend::Circuit(_))
    }
}

/// A materialized view: definition, rows, and maintenance state.
pub struct View {
    name: String,
    def: ViewDef,
    relations: BTreeSet<String>,
    domain_sensitive: bool,
    /// Per-relation versions this view's materialization reflects (build
    /// snapshot versions, advanced by each incrementally applied update).
    applied: BTreeMap<String, u64>,
    /// The tuples the rows' circuits read, each with its `(row, program
    /// variable)` readers.
    readers: Readers,
    rows: Vec<ViewRow>,
    stale: bool,
    rebuilds: u64,
    incremental_updates: u64,
}

impl View {
    /// The view's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The view's definition.
    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// The materialized rows.
    pub fn rows(&self) -> &[ViewRow] {
        &self.rows
    }

    /// True when the materialization lags the database and needs a
    /// [`ViewManager::refresh`].
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// Relations the view's query mentions.
    pub fn relations(&self) -> &BTreeSet<String> {
        &self.relations
    }

    /// Full rebuilds so far (including the initial build).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Probability updates absorbed incrementally so far.
    pub fn incremental_updates(&self) -> u64 {
        self.incremental_updates
    }

    /// `circuit`, `fallback`, or `mixed` — how the rows are maintained.
    pub fn backend_summary(&self) -> &'static str {
        let circuits = self.rows.iter().filter(|r| r.is_circuit()).count();
        if circuits == self.rows.len() {
            "circuit"
        } else if circuits == 0 {
            "fallback"
        } else {
            "mixed"
        }
    }

    /// The Boolean answer, for `Boolean` views.
    pub fn boolean_answer(&self) -> Option<Answer> {
        match (&self.def, self.rows.first()) {
            (ViewDef::Boolean { .. }, Some(row)) => Some(Answer {
                probability: row.probability,
                method: row.method,
                bounds: row.bounds,
                std_error: None,
            }),
            _ => None,
        }
    }

    /// Flattens the view into its persistent form (see [`crate::persist`]).
    pub fn to_state(&self) -> ViewState {
        let def = match &self.def {
            ViewDef::Boolean { text, .. } => ViewDefState::Boolean(text.clone()),
            ViewDef::Answers { text, head, .. } => ViewDefState::Answers {
                head: head.iter().map(|v| v.to_string()).collect(),
                body: text.clone(),
            },
        };
        let rows = self
            .rows
            .iter()
            .map(|row| RowState {
                values: row.values.clone(),
                probability: row.probability,
                bounds: row.bounds,
                method: row.method,
                circuit: match &row.backend {
                    RowBackend::Circuit(c) => Some(CircuitState {
                        query: Arc::clone(c.query()),
                        probs: c.probs().to_vec(),
                    }),
                    RowBackend::Fallback => None,
                },
            })
            .collect();
        ViewState {
            name: self.name.clone(),
            def,
            applied: self.applied.iter().map(|(r, &v)| (r.clone(), v)).collect(),
            stale: self.stale,
            rebuilds: self.rebuilds,
            incremental_updates: self.incremental_updates,
            rows,
        }
    }

    /// Reconstructs a view from its persistent form over `db`, the database
    /// the state was saved with. The definition is re-parsed from text;
    /// circuit rows resume from their programs
    /// ([`IncrementalCircuit::compiled`] recomputes gate values
    /// deterministically, so the restored probabilities are bit-identical
    /// to the exported ones), and their leaf positions are resolved against
    /// `db`. No query compilation happens here.
    pub fn from_state(state: ViewState, db: &ProbDb) -> Result<View, EngineError> {
        let def = match &state.def {
            ViewDefState::Boolean(text) => ViewDef::boolean(text)?,
            ViewDefState::Answers { head, body } => ViewDef::answers(head, body)?,
        };
        let relations = def.relations();
        let domain_sensitive = def.domain_sensitive();
        let mut rows = Vec::with_capacity(state.rows.len());
        for row in state.rows {
            let backend = match row.circuit {
                Some(c) if c.probs.len() == c.query.leaves().len() => {
                    RowBackend::Circuit(IncrementalCircuit::compiled(c.query, c.probs))
                }
                Some(_) => {
                    return Err(EngineError::Unsupported(format!(
                        "view {}: a persisted row's probabilities do not match its leaves",
                        state.name
                    )))
                }
                None => RowBackend::Fallback,
            };
            let probability = match &backend {
                RowBackend::Circuit(c) => c.probability(),
                RowBackend::Fallback => row.probability,
            };
            rows.push(ViewRow {
                values: row.values,
                probability,
                bounds: row.bounds,
                method: row.method,
                backend,
            });
        }
        Ok(View {
            readers: readers(&state.name, &rows, db)?,
            name: state.name,
            def,
            relations,
            domain_sensitive,
            applied: state.applied.into_iter().collect(),
            rows,
            stale: state.stale,
            rebuilds: state.rebuilds,
            incremental_updates: state.incremental_updates,
        })
    }

    /// The answer rows with head-variable names, for `Answers` views.
    pub fn answer_rows(&self) -> Option<(Vec<String>, Vec<AnswerTuple>)> {
        match &self.def {
            ViewDef::Answers { head, .. } => {
                let names = head.iter().map(|v| v.to_string()).collect();
                let rows = self
                    .rows
                    .iter()
                    .map(|r| AnswerTuple {
                        values: r.values.clone(),
                        probability: r.probability,
                        method: r.method,
                    })
                    .collect();
                Some((names, rows))
            }
            ViewDef::Boolean { .. } => None,
        }
    }
}

/// What a [`ViewManager::refresh`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshOutcome {
    /// The materialization already reflects the database.
    Fresh,
    /// The view was rebuilt from a fresh snapshot.
    Rebuilt,
}

/// Tuning knobs for view compilation and fallback.
#[derive(Clone, Debug)]
pub struct ViewOptions {
    /// DPLL decision budget per row compilation; beyond it the row falls
    /// back to the query cascade.
    pub compile_budget: u64,
    /// Options for the fallback cascade (and candidate enumeration).
    pub fallback: QueryOptions,
}

impl Default for ViewOptions {
    fn default() -> ViewOptions {
        ViewOptions {
            compile_budget: 200_000,
            fallback: QueryOptions::default(),
        }
    }
}

/// The registry of materialized views plus maintenance counters.
#[derive(Default)]
pub struct ViewManager {
    views: BTreeMap<String, View>,
    opts: ViewOptions,
    incremental_applied: u64,
    recompiles: u64,
    /// Views installed, changed or dropped since the last `take_changed`.
    changed: BTreeSet<String>,
}

impl ViewManager {
    /// An empty manager with default options.
    pub fn new() -> ViewManager {
        ViewManager::default()
    }

    /// An empty manager with explicit options.
    pub fn with_options(opts: ViewOptions) -> ViewManager {
        ViewManager {
            opts,
            ..ViewManager::default()
        }
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when no views are registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Total materialized rows across all views.
    pub fn row_count(&self) -> usize {
        self.views.values().map(|v| v.rows.len()).sum()
    }

    /// Probability updates absorbed incrementally (across all views).
    pub fn incremental_applied(&self) -> u64 {
        self.incremental_applied
    }

    /// Full (re)compilations performed, including initial builds.
    pub fn recompiles(&self) -> u64 {
        self.recompiles
    }

    /// The names of the views installed, changed (rows, staleness or
    /// version vector) or dropped since the last call.
    pub fn take_changed(&mut self) -> BTreeSet<String> {
        std::mem::take(&mut self.changed)
    }

    /// Looks up a view.
    pub fn get(&self, name: &str) -> Option<&View> {
        self.views.get(name)
    }

    /// Iterates views in name order.
    pub fn iter(&self) -> impl Iterator<Item = &View> {
        self.views.values()
    }

    /// Exports every view's persistent state, in name order (see
    /// [`crate::persist`]).
    pub fn export_states(&self) -> Vec<ViewState> {
        self.views.values().map(View::to_state).collect()
    }

    /// Rebuilds a manager with default options from states exported with
    /// `db` (see [`View::from_state`]). Restored circuits count as neither
    /// recompiles nor incremental updates — the manager counters start at
    /// zero, so a caller can assert that recovery performed no compilation
    /// by checking [`ViewManager::recompiles`] afterwards.
    pub fn import_states(states: Vec<ViewState>, db: &ProbDb) -> Result<ViewManager, EngineError> {
        let mut views = BTreeMap::new();
        for state in states {
            let view = View::from_state(state, db)?;
            views.insert(view.name.clone(), view);
        }
        Ok(ViewManager {
            views,
            ..ViewManager::default()
        })
    }

    /// Registers and materializes a view. Fails if the name is taken or the
    /// initial build fails; on failure nothing is registered.
    ///
    /// This convenience runs [`ViewManager::compile`] and
    /// [`ViewManager::install`] back to back. A server holding the manager
    /// behind a mutex should call the two halves itself — compile fans row
    /// compilation out on the thread pool, and submitting pool work while
    /// holding the manager lock serializes every other view/event path on
    /// the build (and can deadlock against a pool that helps from waiters).
    pub fn create(&mut self, name: &str, def: ViewDef, db: &ProbDb) -> Result<&View, EngineError> {
        if self.views.contains_key(name) {
            return Err(EngineError::Unsupported(format!(
                "view {name} already exists (drop it first)"
            )));
        }
        let built_at = db.version();
        let view = ViewManager::compile(&self.opts, name, def, db)?;
        self.install(view, built_at, db)
    }

    /// The build/refresh options this manager was created with (so callers
    /// can [`ViewManager::compile`] outside the lock guarding the manager).
    pub fn options(&self) -> &ViewOptions {
        &self.opts
    }

    /// Materializes a view **without touching any manager state**: the
    /// expensive half of [`ViewManager::create`], safe to run before taking
    /// whatever lock guards the manager. Row compilation fans out on the
    /// current thread pool.
    pub fn compile(
        opts: &ViewOptions,
        name: &str,
        def: ViewDef,
        db: &ProbDb,
    ) -> Result<View, EngineError> {
        let mut view = View {
            name: name.to_string(),
            relations: def.relations(),
            domain_sensitive: def.domain_sensitive(),
            def,
            applied: BTreeMap::new(),
            readers: Readers::new(),
            rows: Vec::new(),
            stale: false,
            rebuilds: 0,
            incremental_updates: 0,
        };
        build_rows(opts, &mut view, db)?;
        Ok(view)
    }

    /// Registers a view produced by [`ViewManager::compile`]. Fails if the
    /// name is taken. `built_at` is the database version the compile
    /// snapshot was taken at; if `db` has moved past it the view is
    /// installed **stale**, so the next refresh rebuilds it — the same
    /// safety net that covers missed events.
    pub fn install(
        &mut self,
        mut view: View,
        built_at: u64,
        db: &ProbDb,
    ) -> Result<&View, EngineError> {
        if self.views.contains_key(&view.name) {
            return Err(EngineError::Unsupported(format!(
                "view {} already exists (drop it first)",
                view.name
            )));
        }
        if db.version() != built_at {
            view.stale = true;
        }
        self.recompiles += 1;
        let name = view.name.clone();
        self.changed.insert(name.clone());
        Ok(self.views.entry(name).or_insert(view))
    }

    /// Unregisters a view. Returns `false` when it does not exist.
    pub fn drop_view(&mut self, name: &str) -> bool {
        self.changed.insert(name.to_string());
        self.views.remove(name).is_some()
    }

    /// Delivers a probability-update event: `new_version` is the relation's
    /// version **after** the update (as returned by
    /// [`pdb_core::ProbDb::update_prob`]). Returns the number of views that
    /// absorbed the update incrementally.
    pub fn on_update_prob(
        &mut self,
        relation: &str,
        tuple: &Tuple,
        p: f64,
        new_version: u64,
    ) -> usize {
        let mut absorbed = 0;
        for view in self.views.values_mut() {
            if !view.relations.contains(relation) {
                continue;
            }
            let recorded = view.applied.get(relation).copied().unwrap_or(0);
            if new_version <= recorded {
                continue; // duplicate / already reflected by a rebuild
            }
            self.changed.insert(view.name.clone());
            if new_version > recorded + 1 {
                view.stale = true; // missed events
                continue;
            }
            view.applied.insert(relation.to_string(), new_version);
            if view.stale {
                continue; // rows are already invalid; refresh will rebuild
            }
            // A fallback row cannot absorb an update. A tuple no row reads
            // is absorbed at zero gates: one inserted since the build came
            // with an insert event that staled the view, or left the
            // version gap caught above.
            let ok = view.rows.iter().all(ViewRow::is_circuit);
            if ok {
                let key = (relation.to_string(), tuple.clone());
                for &(row, var) in view
                    .readers
                    .get(&key)
                    .map(Vec::as_slice)
                    .unwrap_or_default()
                {
                    if let Some(row) = view.rows.get_mut(row as usize) {
                        if let RowBackend::Circuit(circuit) = &mut row.backend {
                            circuit.set_prob(var, p);
                            row.probability = circuit.probability();
                        }
                    }
                }
                view.incremental_updates += 1;
                self.incremental_applied += 1;
                absorbed += 1;
            } else {
                view.stale = true;
            }
        }
        absorbed
    }

    /// Delivers an insert event: views mentioning `relation` (and
    /// domain-sensitive views, whose ∀ range may have grown) go stale.
    pub fn on_insert(&mut self, relation: &str, new_version: u64) {
        for view in self.views.values_mut() {
            if view.relations.contains(relation) {
                let recorded = view.applied.get(relation).copied().unwrap_or(0);
                view.applied
                    .insert(relation.to_string(), recorded.max(new_version));
            } else if !view.domain_sensitive {
                continue;
            }
            view.stale = true;
            self.changed.insert(view.name.clone());
        }
    }

    /// Delivers a domain-extension event.
    pub fn on_domain_extend(&mut self) {
        for view in self.views.values_mut() {
            if view.domain_sensitive {
                view.stale = true;
                self.changed.insert(view.name.clone());
            }
        }
    }

    /// Brings one view up to date against `db`, rebuilding if stale (or if
    /// the version vector disagrees with the snapshot — the safety net for
    /// missed events).
    pub fn refresh(&mut self, name: &str, db: &ProbDb) -> Result<RefreshOutcome, EngineError> {
        let mut view = self
            .views
            .remove(name)
            .ok_or_else(|| EngineError::Unsupported(format!("no view named {name}")))?;
        let outcome = refresh_one(&self.opts, &mut view, db);
        self.views.insert(name.to_string(), view);
        if matches!(outcome, Ok(RefreshOutcome::Rebuilt)) {
            self.recompiles += 1;
            self.changed.insert(name.to_string());
        }
        outcome
    }

    /// Brings every view up to date; returns `(name, outcome)` in name
    /// order. Independent views refresh in parallel on the current pool;
    /// every view is attempted, and the first error (in name order) is
    /// reported.
    pub fn refresh_all(
        &mut self,
        db: &ProbDb,
    ) -> Result<Vec<(String, RefreshOutcome)>, EngineError> {
        let views = std::mem::take(&mut self.views);
        let opts = self.opts.clone();
        let pool = pdb_par::current();
        let refreshed = pool.parallel_map(views.into_iter().collect(), |(name, mut view)| {
            let outcome = refresh_one(&opts, &mut view, db);
            (name, view, outcome)
        });
        let mut out = Vec::with_capacity(refreshed.len());
        let mut first_err = None;
        for (name, view, outcome) in refreshed {
            match outcome {
                Ok(o) => {
                    if o == RefreshOutcome::Rebuilt {
                        self.recompiles += 1;
                        self.changed.insert(name.clone());
                    }
                    out.push((name.clone(), o));
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
            self.views.insert(name, view);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

/// Rebuilds `view` iff it is stale or its version vector disagrees with the
/// snapshot (the safety net for missed events).
fn refresh_one(
    opts: &ViewOptions,
    view: &mut View,
    db: &ProbDb,
) -> Result<RefreshOutcome, EngineError> {
    let started = std::time::Instant::now();
    let out_of_sync = view
        .relations
        .iter()
        .any(|r| view.applied.get(r).copied().unwrap_or(0) != db.relation_version(r));
    if !view.stale && !out_of_sync {
        return Ok(RefreshOutcome::Fresh);
    }
    let mut span = pdb_obs::span(pdb_obs::Stage::Refresh);
    span.set_str("view", view.name.clone());
    build_rows(opts, view, db)?;
    span.set_u64("rows", view.rows.len() as u64);
    crate::metrics::REFRESH_US.record_duration(started.elapsed());
    Ok(RefreshOutcome::Rebuilt)
}

/// Materializes `view` from a snapshot of `db`, compiling answer rows in
/// parallel on the current pool (each row is an independent lineage → CNF →
/// DPLL-trace pipeline).
fn build_rows(opts: &ViewOptions, view: &mut View, db: &ProbDb) -> Result<(), EngineError> {
    view.applied = view
        .relations
        .iter()
        .map(|r| (r.clone(), db.relation_version(r)))
        .collect();
    let index = db.tuple_db().index();
    let probs: Vec<f64> = index.iter().map(|(_, r)| r.prob).collect();
    let rows = match &view.def {
        ViewDef::Boolean { fo, .. } => {
            vec![compile_row(opts, fo, Vec::new(), db, &index, &probs)?]
        }
        ViewDef::Answers { head, cq, .. } => {
            let candidates = pdb_lineage::cq_answer_bindings(cq, head, db.tuple_db());
            let pool = pdb_par::current();
            let compiled = pool.parallel_map(candidates.into_iter().collect(), |values| {
                let mut bound = cq.clone();
                for (v, &c) in head.iter().zip(&values) {
                    bound = bound.substitute(v, &Term::Const(c));
                }
                compile_row(opts, &bound.to_fo(), values, db, &index, &probs)
            });
            let mut rows = Vec::with_capacity(compiled.len());
            for row in compiled {
                rows.push(row?);
            }
            rows
        }
    };
    view.readers = readers(&view.name, &rows, db)?;
    view.rows = rows;
    view.stale = false;
    view.rebuilds += 1;
    Ok(())
}

/// Compiles one answer row through the engine's grounded path
/// ([`pdb_core::compile_grounded`]: lineage → traced DPLL → program) into a
/// cached circuit; falls back to the full cascade when the decision budget
/// aborts the compilation.
fn compile_row(
    view_opts: &ViewOptions,
    fo: &Fo,
    values: Vec<u64>,
    db: &ProbDb,
    index: &pdb_data::TupleIndex,
    probs: &[f64],
) -> Result<ViewRow, EngineError> {
    let opts = DpllOptions {
        max_decisions: view_opts.compile_budget,
        ..Default::default()
    };
    // A traced count is the sequential counter on this task; rows fan out
    // above.
    let circuit =
        pdb_core::compile_grounded(fo, db.tuple_db(), index, probs, opts, &pdb_par::current())
            .and_then(|query| {
                let probs = query.leaf_probs(db)?;
                Some(IncrementalCircuit::compiled(Arc::new(query), probs))
            });
    match circuit {
        Some(circuit) => Ok(ViewRow {
            values,
            probability: circuit.probability(),
            bounds: None,
            method: Method::Grounded,
            backend: RowBackend::Circuit(circuit),
        }),
        None => {
            // Compilation too large: fall back to the cascade (lifted /
            // approximate with dissociation bounds).
            let answer = db.query_fo(fo, &view_opts.fallback)?;
            Ok(ViewRow {
                values,
                probability: answer.probability,
                bounds: answer.bounds,
                method: answer.method,
                backend: RowBackend::Fallback,
            })
        }
    }
}

/// For each tuple some circuit row reads, the `(row, program variable)`
/// pairs that read it.
type Readers = HashMap<(String, Tuple), Vec<(u32, u32)>>;

/// Indexes the tuples `rows` read, resolving each leaf's
/// `(relation, position)` against `db` — an error when a leaf points past
/// its relation's end, which a database the rows were built or saved with
/// never does.
fn readers(view: &str, rows: &[ViewRow], db: &ProbDb) -> Result<Readers, EngineError> {
    let mut readers = Readers::new();
    for (r, row) in rows.iter().enumerate() {
        let RowBackend::Circuit(circuit) = &row.backend else {
            continue;
        };
        let query = circuit.query();
        for (var, leaf) in query.leaves().iter().enumerate() {
            let Leaf::Tuple { relation, position } = *leaf else {
                continue;
            };
            let name = query.relations().get(relation as usize).map(|(n, _)| n);
            let tuple = name.and_then(|n| db.tuple_db().relation(n)?.tuple_at(position as usize));
            let (Some(name), Some(tuple)) = (name, tuple) else {
                return Err(EngineError::Unsupported(format!(
                    "view {view}: row {r} reads past the end of a relation"
                )));
            };
            readers
                .entry((name.clone(), tuple.clone()))
                .or_default()
                .push((r as u32, var as u32));
        }
    }
    Ok(readers)
}
