//! The `stats` and `metrics` payloads, and the per-instance counters
//! behind them.
//!
//! This is the only module that names metric families. Each quantity is
//! counted once, where the work happens, and `Sources` renders both
//! payloads by reading those counters at scrape time — nothing is copied
//! into a registry or mirrored between scrapes.
//!
//! - **Per `Service`**: [`Stats`] (queries by engine, errors, timeouts,
//!   cache lookups, connections, latencies), the result cache's size, the
//!   served [`ViewManager`]'s counters, the replica role's
//!   [`ReplicaStatus`] and the primary's [`ReplicaHub`], whose head LSN is
//!   `pdb_store_next_lsn`.
//! - **Process-global**: the kernel counters ([`pdb_kernel::stats`](fn@pdb_kernel::stats),
//!   [`pdb_kernel::program_bytes`]), the current pool's
//!   [`pdb_par::PoolStats`], the store's WAL, fsync and checkpoint statics
//!   ([`pdb_store::metrics`]) and the view refresh histogram
//!   ([`pdb_views::metrics`]).
//!
//! Every server emits the same families in the same order — the
//! `pdb_server_*` families, then the rest sorted by name — and a family
//! with no source on this server (a memory-only server's store, a
//! primary's replica apply path) renders zero-valued. Nothing here takes
//! the store mutex, so a scrape never queues behind an fsync or a
//! checkpoint.
//!
//! The counters are lock-free: plain atomics, and the latency histograms
//! are [`pdb_obs::AtomicHistogram`]s (log₂ microsecond buckets), so the
//! request path never blocks on — and can never poison — an observability
//! lock. Percentiles interpolate within their bucket (see `pdb_obs::hist`).

use pdb_core::Method;
use pdb_obs::{AtomicHistogram, ExpositionBuilder};
use pdb_replica::{ReplicaHub, ReplicaStatus};
use pdb_views::ViewManager;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Shared counters for one serving instance.
#[derive(Default)]
pub struct Stats {
    lifted: AtomicU64,
    safe_plan: AtomicU64,
    grounded: AtomicU64,
    approximate: AtomicU64,
    errors: AtomicU64,
    timeouts: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    active_connections: AtomicU64,
    total_connections: AtomicU64,
    latency: AtomicHistogram,
    /// Latencies of `view create` / `view refresh` commands (the cost of
    /// materialization, kept apart from the query path).
    view_refresh_latency: AtomicHistogram,
}

impl Stats {
    /// Counts one answered query by the engine that produced it.
    pub fn record_method(&self, m: Method) {
        let counter = match m {
            Method::Lifted => &self.lifted,
            Method::SafePlan => &self.safe_plan,
            Method::Grounded => &self.grounded,
            Method::Approximate => &self.approximate,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed query.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one wall-clock timeout (query degraded to approximation).
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a result-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a result-cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one query's end-to-end latency. Lock-free.
    pub fn record_latency(&self, latency: Duration) {
        self.latency.record_duration(latency);
    }

    /// Records one view-materialization latency (`view create`/`refresh`).
    pub fn record_view_refresh(&self, latency: Duration) {
        self.view_refresh_latency.record_duration(latency);
    }

    /// Marks a connection opened.
    pub fn connection_opened(&self) {
        self.active_connections.fetch_add(1, Ordering::Relaxed);
        self.total_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a connection closed.
    pub fn connection_closed(&self) {
        self.active_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Timeouts so far.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }
}

/// What one `stats` or `metrics` payload reads, borrowed from the places
/// that count it.
pub(crate) struct Sources<'a> {
    pub(crate) stats: &'a Stats,
    pub(crate) cache_len: usize,
    pub(crate) cache_capacity: usize,
    pub(crate) views: &'a ViewManager,
    /// The replica role: the primary's address and the client's status.
    pub(crate) replica: Option<(&'a str, &'a ReplicaStatus)>,
    /// The primary-side hub, present whenever the service has a store.
    pub(crate) hub: Option<&'a ReplicaHub>,
}

impl Sources<'_> {
    /// Renders the `stats` command payload.
    pub(crate) fn stats_text(&self) -> String {
        let s = self.stats;
        let (lifted, safe_plan, grounded, approximate, errors) = (
            s.lifted.load(Ordering::Relaxed),
            s.safe_plan.load(Ordering::Relaxed),
            s.grounded.load(Ordering::Relaxed),
            s.approximate.load(Ordering::Relaxed),
            s.errors.load(Ordering::Relaxed),
        );
        let total = lifted + safe_plan + grounded + approximate;
        let (hits, misses) = (s.cache_hits(), s.cache_misses());
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        let incremental = self.views.incremental_applied();
        let recompiles = self.views.recompiles();
        let maintenance = incremental + recompiles;
        let incremental_ratio = if maintenance == 0 {
            0.0
        } else {
            incremental as f64 / maintenance as f64
        };
        let lat = s.latency.snapshot();
        let vlat = s.view_refresh_latency.snapshot();
        // The pool every engine call in this process runs on: queries,
        // answer rows, sampling chunks, and view builds all share it.
        let pool = pdb_par::current().stats();
        let kernel = pdb_kernel::stats();
        let mut text = format!(
            "queries: total={total} lifted={lifted} safe_plan={safe_plan} \
             grounded={grounded} approximate={approximate} errors={errors}\n\
             cache: hits={hits} misses={misses} hit_rate={hit_rate:.3} \
             entries={} capacity={}\n\
             latency_us: p50={} p95={} max={} samples={}\n\
             views: count={} rows={} incremental={incremental} recompiles={recompiles} \
             incremental_ratio={incremental_ratio:.3}\n\
             view_refresh_us: p50={} p95={} max={} samples={}\n\
             pool: threads={} jobs={} steals={} utilization={:.3}\n\
             kernel: flattened={} evals={} batched={} bytes_per_eval={}\n\
             timeouts: {}\n\
             connections: active={} total={}\n",
            self.cache_len,
            self.cache_capacity,
            lat.quantile(0.50),
            lat.quantile(0.95),
            lat.max,
            lat.count,
            self.views.len(),
            self.views.row_count(),
            vlat.quantile(0.50),
            vlat.quantile(0.95),
            vlat.max,
            vlat.count,
            pool.threads,
            pool.jobs,
            pool.steals,
            pool.utilization(),
            kernel.flattened,
            kernel.evals,
            kernel.batched_evals,
            kernel.bytes_per_eval(),
            s.timeouts(),
            s.active_connections.load(Ordering::Relaxed),
            s.total_connections.load(Ordering::Relaxed),
        );
        if let Some((primary, r)) = self.replica {
            text.push_str(&format!(
                "replication: role=replica primary={primary} connected={} \
                 primary_down={} applied_lsn={} primary_lsn={} lag={} \
                 bootstraps={} reconnects={}\n",
                r.connected(),
                r.primary_down(),
                r.next_lsn(),
                r.primary_lsn(),
                r.lag(),
                r.bootstraps(),
                r.reconnects(),
            ));
        } else if let Some(hub) = self.hub {
            text.push_str(&format!(
                "replication: role=primary replicas={} streamed={} next_lsn={}\n",
                hub.replica_count(),
                hub.streamed(),
                hub.next_lsn(),
            ));
        }
        text
    }

    /// Renders the `metrics` command payload: Prometheus text exposition.
    pub(crate) fn metrics_text(&self) -> String {
        let s = self.stats;
        let mut b = ExpositionBuilder::new();
        b.counter_samples(
            "pdb_server_queries_total",
            "queries answered, by engine",
            &[
                ("{engine=\"lifted\"}", s.lifted.load(Ordering::Relaxed)),
                (
                    "{engine=\"safe_plan\"}",
                    s.safe_plan.load(Ordering::Relaxed),
                ),
                ("{engine=\"grounded\"}", s.grounded.load(Ordering::Relaxed)),
                (
                    "{engine=\"approximate\"}",
                    s.approximate.load(Ordering::Relaxed),
                ),
            ],
        );
        b.counter(
            "pdb_server_query_errors_total",
            "queries that failed",
            s.errors.load(Ordering::Relaxed),
        );
        b.counter(
            "pdb_server_timeouts_total",
            "queries degraded to the approximate engine by timeout",
            s.timeouts(),
        );
        b.counter_samples(
            "pdb_server_cache_lookups_total",
            "result-cache probes, by outcome",
            &[
                ("{outcome=\"hit\"}", s.cache_hits()),
                ("{outcome=\"miss\"}", s.cache_misses()),
            ],
        );
        b.gauge(
            "pdb_server_cache_entries",
            "live result-cache entries",
            self.cache_len as f64,
        );
        b.gauge(
            "pdb_server_cache_capacity",
            "result-cache capacity",
            self.cache_capacity as f64,
        );
        b.gauge(
            "pdb_server_connections_active",
            "currently open client connections",
            s.active_connections.load(Ordering::Relaxed) as f64,
        );
        b.counter(
            "pdb_server_connections_total",
            "client connections accepted",
            s.total_connections.load(Ordering::Relaxed),
        );
        b.histogram(
            "pdb_server_query_latency_us",
            "end-to-end query latency, microseconds",
            &s.latency.snapshot(),
        );
        b.histogram(
            "pdb_server_view_refresh_us",
            "view create/refresh latency, microseconds",
            &s.view_refresh_latency.snapshot(),
        );

        let kernel = pdb_kernel::stats();
        b.counter(
            "pdb_kernel_batched_evals_total",
            "batched evaluation calls",
            kernel.batched_evals,
        );
        b.gauge(
            "pdb_kernel_bytes_per_eval",
            "average program bytes per evaluation (decode amortization)",
            kernel.bytes_per_eval() as f64,
        );
        b.counter(
            "pdb_kernel_eval_bytes_total",
            "program bytes streamed by all evaluations",
            kernel.eval_bytes,
        );
        b.counter(
            "pdb_kernel_evals_total",
            "flat-program evaluations (each batch lane counts once)",
            kernel.evals,
        );
        b.counter(
            "pdb_kernel_flattened_total",
            "circuits lowered to flat programs",
            kernel.flattened,
        );
        b.histogram(
            "pdb_kernel_program_bytes",
            "flat program size at flatten time, bytes",
            &pdb_kernel::program_bytes(),
        );

        let pool = pdb_par::current().stats();
        b.counter(
            "pdb_par_jobs_total",
            "tasks executed by the work-stealing pool",
            pool.jobs,
        );
        b.counter(
            "pdb_par_steals_total",
            "tasks that ran on a thread other than the one that queued them",
            pool.steals,
        );
        b.gauge(
            "pdb_par_threads",
            "configured pool parallelism (including the submitting thread)",
            pool.threads as f64,
        );
        b.gauge(
            "pdb_par_utilization",
            "fraction of available thread-time spent executing tasks",
            pool.utilization(),
        );

        let replica = self.replica.map(|(_, r)| r);
        b.histogram(
            "pdb_replica_apply_us",
            "apply latency per streamed record, microseconds",
            &replica
                .map(ReplicaStatus::apply_latency)
                .unwrap_or_default(),
        );
        b.counter(
            "pdb_replica_bootstraps_total",
            "snapshot bootstraps (initial and forced)",
            replica.map_or(0, ReplicaStatus::bootstraps),
        );
        b.gauge(
            "pdb_replica_connected_replicas",
            "replicas currently attached to this primary",
            self.hub.map_or(0, ReplicaHub::replica_count) as f64,
        );
        b.gauge(
            "pdb_replica_lag_records",
            "records behind the primary's advertised head",
            replica.map_or(0, ReplicaStatus::lag) as f64,
        );
        b.counter(
            "pdb_replica_reconnects_total",
            "replication sessions that ended and were retried",
            replica.map_or(0, ReplicaStatus::reconnects),
        );
        b.counter(
            "pdb_replica_records_applied_total",
            "WAL records applied from the replication stream",
            replica.map_or(0, ReplicaStatus::records_applied),
        );
        b.counter(
            "pdb_replica_streamed_total",
            "records streamed to all attached replicas",
            self.hub.map_or(0, ReplicaHub::streamed),
        );

        b.histogram(
            "pdb_store_checkpoint_us",
            "checkpoint duration, microseconds",
            &pdb_store::metrics::CHECKPOINT_US.snapshot(),
        );
        b.counter(
            "pdb_store_checkpoints_total",
            "checkpoints completed",
            pdb_store::metrics::CHECKPOINTS.get(),
        );
        b.histogram(
            "pdb_store_fsync_us",
            "WAL fsync latency, microseconds",
            &pdb_store::metrics::FSYNC_US.snapshot(),
        );
        // Every append is published to the hub under the store mutex, so
        // its head is the store's next LSN — read without that mutex.
        b.gauge(
            "pdb_store_next_lsn",
            "LSN the next mutation will get",
            self.hub.map_or(0, ReplicaHub::next_lsn) as f64,
        );
        b.counter(
            "pdb_store_wal_appends_total",
            "WAL records appended",
            pdb_store::metrics::WAL_APPENDS.get(),
        );
        b.counter(
            "pdb_store_wal_syncs_total",
            "WAL fsyncs issued",
            pdb_store::metrics::WAL_SYNCS.get(),
        );

        b.counter(
            "pdb_views_incremental_total",
            "probability updates absorbed incrementally",
            self.views.incremental_applied(),
        );
        b.counter(
            "pdb_views_recompiles_total",
            "views compiled or rebuilt from scratch",
            self.views.recompiles(),
        );
        b.histogram(
            "pdb_views_refresh_us",
            "view refresh duration, microseconds",
            &pdb_views::metrics::REFRESH_US.snapshot(),
        );
        b.gauge(
            "pdb_views_registered",
            "currently registered views",
            self.views.len() as f64,
        );
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources<'a>(stats: &'a Stats, views: &'a ViewManager) -> Sources<'a> {
        Sources {
            stats,
            cache_len: 5,
            cache_capacity: 1024,
            views,
            replica: None,
            hub: None,
        }
    }

    #[test]
    fn both_payloads_read_this_instance_counters() {
        let s = Stats::default();
        s.record_method(Method::Lifted);
        s.record_method(Method::Grounded);
        s.record_method(Method::Approximate);
        s.record_cache_hit();
        s.record_cache_miss();
        s.record_timeout();
        s.record_latency(Duration::from_micros(120));
        s.record_view_refresh(Duration::from_micros(80));
        s.connection_opened();
        let views = ViewManager::new();
        let text = sources(&s, &views).stats_text();
        for needle in [
            "queries: total=3 lifted=1 safe_plan=0 grounded=1 approximate=1 errors=0",
            "cache: hits=1 misses=1 hit_rate=0.500 entries=5 capacity=1024",
            "max=120 samples=1",
            "views: count=0 rows=0 incremental=0 recompiles=0 incremental_ratio=0.000",
            "max=80 samples=1",
            "timeouts: 1",
            "connections: active=1 total=1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("replication:"), "{text}");

        let text = sources(&s, &views).metrics_text();
        let summary = pdb_obs::expo::validate(&text).expect("must be valid exposition");
        assert_eq!(summary.families.len(), 37);
        for needle in [
            "pdb_server_queries_total{engine=\"lifted\"} 1",
            "pdb_server_queries_total{engine=\"approximate\"} 1",
            "pdb_server_timeouts_total 1",
            "pdb_server_cache_lookups_total{outcome=\"hit\"} 1",
            "pdb_server_cache_entries 5",
            "pdb_server_query_latency_us_count 1",
            // No replica role and no hub: those families read zero.
            "pdb_replica_apply_us_count 0",
            "pdb_replica_lag_records 0",
            "pdb_store_next_lsn 0",
            "pdb_views_registered 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }

        // A fresh instance starts at zero (per-instance semantics).
        let fresh = Stats::default();
        assert!(sources(&fresh, &views)
            .metrics_text()
            .contains("pdb_server_queries_total{engine=\"lifted\"} 0"));
    }
}
