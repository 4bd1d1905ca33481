//! Plain-data snapshots of materialized views, for persistence.
//!
//! A durable store (see `pdb-store`) must save not just view *definitions*
//! but the expensive artifact behind them: each row's compiled program
//! (cf. Monet & Olteanu — the circuit, not the query, is what is worth
//! keeping). A row persists its [`CompiledQuery`] — the flat program and
//! its `(relation, position)` leaf table — with its current leaf
//! probabilities; nothing in a view state names a tuple id or a tuple the
//! rows do not read. These types are the owner-free form of a
//! [`View`](crate::View), with deterministic ordering, so a byte codec
//! living in another crate can serialize them without reaching into view
//! internals.
//!
//! Round-trip contract: [`crate::ViewManager::export_states`] followed by
//! [`crate::ViewManager::import_states`] over the same database yields
//! views whose materialized probabilities are **bit-identical** to the
//! originals (gate values are recomputed deterministically, never trusted
//! from disk) and whose maintenance state (`applied` version vectors,
//! staleness) resumes exactly where the exported manager stopped: views
//! resume from their programs, with no recompilation.

use pdb_core::{CompiledQuery, Method};
use std::sync::Arc;

/// The persistent parts of one [`IncrementalCircuit`](crate::IncrementalCircuit):
/// its compiled query and current leaf probabilities. Cached gate values
/// are deliberately absent — they are recomputed on restore.
#[derive(Clone, Debug)]
pub struct CircuitState {
    /// The row's program, leaf table and encoding correction.
    pub query: Arc<CompiledQuery>,
    /// Leaf probabilities, one per entry of the leaf table.
    pub probs: Vec<f64>,
}

/// A view definition in re-parseable textual form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewDefState {
    /// A Boolean sentence (the `view create <name> query <fo>` payload).
    Boolean(String),
    /// Head-variable names plus a CQ body (the `answers` payload).
    Answers {
        /// Head variable names, in output order.
        head: Vec<String>,
        /// The conjunctive-query body text.
        body: String,
    },
}

/// One materialized row: head constants, current probability, provenance,
/// and the circuit that maintains it (`None` for cascade-fallback rows).
#[derive(Clone, Debug)]
pub struct RowState {
    /// Head constants (empty for Boolean views).
    pub values: Vec<u64>,
    /// Materialized probability at export time (authoritative only for
    /// fallback rows; circuit rows recompute it on restore).
    pub probability: f64,
    /// Dissociation bounds, when the row came from the approximate path.
    pub bounds: Option<(f64, f64)>,
    /// The engine that produced the row.
    pub method: Method,
    /// The compiled circuit, or `None` for fallback rows.
    pub circuit: Option<CircuitState>,
}

/// The full persistent state of one view.
#[derive(Clone, Debug)]
pub struct ViewState {
    /// The view's name.
    pub name: String,
    /// Its definition, re-parseable on restore.
    pub def: ViewDefState,
    /// Per-relation versions the materialization reflects, in name order.
    pub applied: Vec<(String, u64)>,
    /// Whether the materialization lags the database.
    pub stale: bool,
    /// Full rebuilds so far.
    pub rebuilds: u64,
    /// Probability updates absorbed incrementally so far.
    pub incremental_updates: u64,
    /// The materialized rows.
    pub rows: Vec<RowState>,
}
