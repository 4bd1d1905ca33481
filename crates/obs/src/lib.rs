//! pdb-obs: query tracing, metrics, and cascade profiling for probdb.
//!
//! The observability layer for the engine cascade (docs/observability.md).
//! The paper's operational claim is that *which engine answered, and at what
//! circuit size*, is the cost model for query latency — this crate makes
//! those quantities visible per query (span trees over parse → plan →
//! compile → flatten → eval/sample → cache) and in aggregate (lock-free
//! counters and histograms, rendered as Prometheus text exposition by the
//! server, which reads them where they are ticked — there is no registry).
//!
//! Dependency-free by design: every other crate in the workspace (kernel,
//! par, store, views, replica, server, core) can depend on it without cycles.
//!
//! Three cost tiers, all pinned by tests:
//! - **No subscriber installed**: [`span`] is one relaxed atomic load; metric
//!   counters exist but nothing reads them until a scrape. Near-zero.
//! - **Metrics only**: instrumented sites tick `const`-constructed atomic
//!   counters — one or a few relaxed atomic RMW ops, no locks, no allocation
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
pub use metrics::{Counter, ExpositionBuilder};
pub use trace::{
    check_well_formed, span, tracing_enabled, with_tracer, AttrValue, SpanGuard, SpanRecord, Stage,
    TraceContext, Tracer,
};
