//! The storage engine's counters, read by the server's `stats` and
//! `metrics` commands.
//!
//! The statics are `const`-constructed [`pdb_obs`] primitives, so ticking
//! them from [`Store::append`](crate::Store::append) and the fsync path costs
//! a few relaxed atomic ops — no locks, no allocation, and reading them never
//! takes the store's mutex. They are process-global: a process hosting
//! several `Store` instances (tests, a replica applying while a primary
//! serves) aggregates across all of them, which is the useful monitoring
//! view.

use pdb_obs::{AtomicHistogram, Counter};

/// WAL records appended (acknowledged mutations).
pub static WAL_APPENDS: Counter = Counter::new();
/// WAL fsyncs issued (policy-driven and explicit flushes).
pub static WAL_SYNCS: Counter = Counter::new();
/// Checkpoints completed.
pub static CHECKPOINTS: Counter = Counter::new();
/// fsync wall time, microseconds.
pub static FSYNC_US: AtomicHistogram = AtomicHistogram::new();
/// Checkpoint wall time (snapshot encode + write + log rewrite), microseconds.
pub static CHECKPOINT_US: AtomicHistogram = AtomicHistogram::new();
