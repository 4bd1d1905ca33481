//! The view-refresh latency histogram, read by the server's `metrics`
//! command.
//!
//! Process-global, unlike the per-manager counters
//! ([`ViewManager::recompiles`](crate::ViewManager::recompiles),
//! [`ViewManager::incremental_applied`](crate::ViewManager::incremental_applied))
//! that the server reads from the manager it serves.

use pdb_obs::AtomicHistogram;

/// Wall time of one view rebuild on refresh, microseconds.
pub static REFRESH_US: AtomicHistogram = AtomicHistogram::new();
