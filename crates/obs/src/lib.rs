//! pdb-obs: query tracing, metrics, and cascade profiling for probdb.
//!
//! The observability layer for the engine cascade (docs/observability.md).
//! The paper's operational claim is that *which engine answered, and at what
//! circuit size*, is the cost model for query latency — this crate makes
//! those quantities visible per query (span trees over parse → plan →
//! compile → flatten → eval/sample → cache) and in aggregate (a process-wide
//! metric registry with Prometheus text exposition).
//!
//! Dependency-free by design: every other crate in the workspace (kernel,
//! par, store, views, replica, server, core) can depend on it without cycles.
//!
//! Three cost tiers, all pinned by tests:
//! - **No subscriber installed**: [`span`] is one relaxed atomic load; metric
//!   statics exist but nothing reads them. Near-zero.
//! - **Metrics only**: instrumented sites tick `const`-constructed atomic
//!   statics — one or a few relaxed atomic RMW ops, no locks, no allocation
//!   (safe even near hot loops; the truly hot kernel/DPLL/sampler inner loops
//!   are left untouched and reported via snapshot deltas instead).
//! - **Tracing installed** ([`with_tracer`]): spans record on the coordinator
//!   path only. Results and RNG sequences are bit-identical with tracing on
//!   or off at every pool size (`tests/obs_equivalence.rs`).

pub mod expo;
pub mod hist;
pub mod metrics;
pub mod trace;

pub use hist::{bucket_upper_bound, AtomicHistogram, HistogramSnapshot, BUCKETS};
pub use metrics::{
    register_counter, register_gauge, register_histogram, render, Counter, ExpositionBuilder, Gauge,
};
pub use trace::{
    check_well_formed, span, tracing_enabled, with_tracer, AttrValue, SpanGuard, SpanRecord, Stage,
    Tracer,
};
