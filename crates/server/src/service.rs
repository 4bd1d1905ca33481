//! The serving engine: a thread-safe façade over [`pdb_core::ProbDb`] with
//! result caching, wall-clock timeouts, and observability.
//!
//! ## Concurrency model
//!
//! The database lives behind `RwLock<Arc<ProbDb>>`. Readers take the lock
//! only long enough to clone the `Arc` (a snapshot), so queries never block
//! each other and never block writers while computing. Writers mutate
//! through [`std::sync::Arc::make_mut`]: if a query still holds the old
//! snapshot the data is cloned copy-on-write, keeping that in-flight query
//! consistent with the contents it started on.
//!
//! ## Caching
//!
//! Results are cached under `(kind, normalized query, version key)` (see
//! [`crate::cache`]). The version key is **fine-grained**: a UCQ's answer
//! depends only on the stored tuples of the relations it mentions, so its
//! entries are keyed on those relations' versions from the
//! [`pdb_core::ProbDb`] version vector and survive writes to unrelated
//! relations. Non-UCQ sentences (anything with a ∀) can change whenever
//! the active domain grows, so they fall back to the global version. Either
//! way the key is read from the same snapshot the query runs on — no stale
//! probability can ever be served.
//!
//! ## Mutations
//!
//! Every write — `insert`, `update`, `domain`, `view create`, `view drop`,
//! from a client or from the replication stream — is a
//! [`pdb_store::WalOp`] applied by one function, `apply_mutation`. Client
//! writes reach it through `commit`, the only caller of
//! [`pdb_store::Store::append`], so nothing is acknowledged unlogged and
//! nothing else writes the served database.
//!
//! ## Materialized views
//!
//! A [`pdb_views::ViewManager`] behind its own mutex serves the
//! `view create|refresh|drop|list|show` commands. Lock order: store → views
//! → db. A mutation writes the database, **releases** the write lock, then
//! delivers the versioned event to the manager; `view create` compiles
//! against a snapshot with neither lock held and takes the manager lock
//! only to install. The one path that holds two at once is `view refresh`,
//! which keeps the manager locked for the whole rebuild and snapshots the
//! database (a read lock held just long enough to clone the `Arc`) inside
//! it. Nothing acquires the manager while holding the database lock, so
//! there is no ordering cycle; the manager's version-sequenced events make
//! the out-of-order window between mutation and delivery harmless.
//!
//! ## Timeouts
//!
//! The configured wall-clock budget becomes a deadline carried in
//! [`QueryOptions`] down to the DPLL loop, which checks it next to its
//! decision budget. Every command runs start to finish on the worker that
//! received it; when the deadline passes, the exact work *stops* and a
//! `query` degrades to the approximate engine (Karp–Luby with a small
//! sample count, exact budget 1) — the paper's cascade, applied to latency
//! (Gatterbauer & Suciu's motivation for approximate lifted inference) —
//! while `answers` and `open` reply with the typed error. A degraded answer
//! is not cached, so a repeat of a timed-out query is evaluated again.

use crate::cache::LruCache;
use crate::protocol::{
    format_answer, format_answer_tuples, format_complexity, format_open, format_update_missing,
    format_view_created, format_view_list, format_view_refreshed, format_view_show,
    normalize_query, parse_command, Command, ViewCommand, HELP,
};
use crate::stats::{Sources, Stats};
use pdb_core::{Answer, Complexity, EngineError, ProbDb, QueryOptions};
use pdb_obs::{span, with_tracer, Stage, Tracer};
use pdb_replica::{Frame, ReadOnlyReplica, ReplicaFeed, ReplicaHub, ReplicaStatus};
use pdb_store::snapshot::{decode_snapshot, encode_snapshot};
use pdb_store::{Refused, Store, StoreError, WalOp};
use pdb_views::ViewManager;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Acquires `m`, recovering the guard when a previous holder panicked.
///
/// Every structure behind the service's mutexes (LRU cache, view manager,
/// latency histograms) is kept valid by construction at each call boundary,
/// so a poisoned lock only means some *other* request died mid-flight —
/// grounds to keep serving, not to kill this worker too (invariant P1:
/// the request path degrades, it never dies).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires `l` for reading, recovering the guard on poison (see [`lock`]).
fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires `l` for writing, recovering the guard on poison (see [`lock`]).
fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// What a cache entry was computed for.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
enum CacheKind {
    /// A Boolean query probability (with bounds / std error when present).
    Probability,
    /// A UCQ dichotomy classification (data-independent: keyed pinned).
    Classify,
}

/// Which part of the database a cache entry depends on.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
enum VersionKey {
    /// Data-independent results (classification) — never invalidated.
    Pinned,
    /// Depends on the whole database (non-UCQ sentences: the active domain
    /// can grow on any insert).
    Global(u64),
    /// Depends only on the named relations' contents (UCQ answers are
    /// domain-independent); sorted for a canonical hash.
    Relations(Vec<(String, u64)>),
}

type CacheKey = (CacheKind, String, VersionKey);

/// A cached result.
#[derive(Clone, Debug)]
enum CacheEntry {
    Answer(Answer),
    Classify(Complexity),
}

/// Tuning knobs for a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceOptions {
    /// Wall-clock budget per `query`, `answers` and `open`, checked by the
    /// engine itself (between cascade stages and inside DPLL). When it runs
    /// out the exact work stops: a `query` degrades to the approximate
    /// engine, `answers`/`open` reply `deadline exceeded`. `Duration::ZERO`
    /// means no deadline.
    pub query_timeout: Duration,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Karp–Luby sample count used by the degraded (post-deadline) path.
    pub degraded_samples: u64,
    /// When set, every `query` runs under a tracer and any query at least
    /// this slow is captured — full span tree — into the slowlog ring
    /// (`slowlog` command) and as the last trace (`trace last`).
    /// `Some(Duration::ZERO)` traces and logs every query; `None` (the
    /// default) keeps the query path subscriber-free, where spans cost one
    /// relaxed atomic load each.
    pub slowlog_threshold: Option<Duration>,
}

impl Default for ServiceOptions {
    fn default() -> ServiceOptions {
        ServiceOptions {
            query_timeout: Duration::from_secs(10),
            cache_capacity: 1024,
            degraded_samples: 20_000,
            slowlog_threshold: None,
        }
    }
}

/// Slowlog ring capacity: old entries are dropped once this many slow
/// queries have been captured without a `slowlog` dump.
const SLOWLOG_CAPACITY: usize = 32;

/// One captured query trace: the normalized text, the end-to-end latency,
/// and the span tree.
#[derive(Clone)]
struct TraceCapture {
    query: String,
    total: Duration,
    tracer: Tracer,
}

struct Shared {
    db: RwLock<Arc<ProbDb>>,
    cache: Mutex<LruCache<CacheKey, CacheEntry>>,
    views: Mutex<ViewManager>,
    stats: Stats,
    opts: ServiceOptions,
    /// The most recent captured trace (`explain analyze` or a slowlog hit).
    last_trace: Mutex<Option<TraceCapture>>,
    /// Queries slower than `opts.slowlog_threshold`, newest last.
    slowlog: Mutex<VecDeque<TraceCapture>>,
    /// The durable store, when serving with `--data-dir`. Lock order:
    /// store → views → db. Every mutation takes the store mutex outermost
    /// (apply in memory, then log, then acknowledge), so a checkpoint —
    /// which also holds it — always exports a database + view state that
    /// matches the logged prefix exactly.
    store: Option<Mutex<Store>>,
    /// Set by the `shutdown` command; the TCP layer polls it.
    stopping: AtomicBool,
    /// Invoked (once) by the `shutdown` command, after the WAL flush.
    shutdown_hook: Mutex<Option<Box<dyn Fn() + Send>>>,
    /// Primary-side replication fan-out; present whenever a store is
    /// (every durable server can feed replicas). Mutations publish to it
    /// while holding the store mutex, so feeds see the exact WAL order.
    replication: Option<Arc<ReplicaHub>>,
    /// Replica-side role: where the stream comes from and how it is doing.
    /// A service with this set refuses every write command.
    replica: Option<ReplicaRole>,
}

/// The replica role's identity + live status (rendered under `stats`).
struct ReplicaRole {
    primary: String,
    status: Arc<ReplicaStatus>,
}

/// Why [`Service::commit`] did not acknowledge a mutation.
enum CommitError {
    /// The op found nothing to act on; state and log are untouched.
    Refused(Refused),
    /// The store could not take the record (or was already wedged).
    NotPersisted(StoreError),
}

/// How often an idle replication stream emits a heartbeat frame.
const REPLICATION_HEARTBEAT: Duration = Duration::from_millis(500);

/// A cloneable handle to one serving instance (shared by every worker).
#[derive(Clone)]
pub struct Service {
    inner: Arc<Shared>,
}

impl Service {
    /// Wraps `db` for serving under `opts` (no durability).
    pub fn new(db: ProbDb, opts: ServiceOptions) -> Service {
        Service::build(db, ViewManager::new(), None, None, opts)
    }

    /// Wraps recovered state for serving with a durable store: every
    /// mutation is WAL-logged before it is acknowledged, and checkpoints
    /// run in the background once the log grows past the configured size.
    pub fn with_store(
        db: ProbDb,
        views: ViewManager,
        store: Store,
        opts: ServiceOptions,
    ) -> Service {
        Service::build(db, views, Some(store), None, opts)
    }

    /// A read-only replica service: starts empty and is populated entirely
    /// by the replication client (snapshot installs + record applies).
    /// Every write command is refused with [`ReadOnlyReplica`]; the full
    /// read surface stays available. `primary` is the address shown in
    /// `stats`; `status` is shared with the running client.
    pub fn new_replica(
        primary: impl Into<String>,
        status: Arc<ReplicaStatus>,
        opts: ServiceOptions,
    ) -> Service {
        Service::build(
            ProbDb::new(),
            ViewManager::new(),
            None,
            Some(ReplicaRole {
                primary: primary.into(),
                status,
            }),
            opts,
        )
    }

    fn build(
        db: ProbDb,
        views: ViewManager,
        store: Option<Store>,
        replica: Option<ReplicaRole>,
        opts: ServiceOptions,
    ) -> Service {
        let capacity = opts.cache_capacity.max(1);
        let replication = store
            .as_ref()
            .map(|s| Arc::new(ReplicaHub::new(s.next_lsn(), REPLICATION_HEARTBEAT)));
        Service {
            inner: Arc::new(Shared {
                db: RwLock::new(Arc::new(db)),
                cache: Mutex::new(LruCache::new(capacity)),
                views: Mutex::new(views),
                stats: Stats::default(),
                opts,
                last_trace: Mutex::new(None),
                slowlog: Mutex::new(VecDeque::new()),
                store: store.map(Mutex::new),
                stopping: AtomicBool::new(false),
                shutdown_hook: Mutex::new(None),
                replication,
                replica,
            }),
        }
    }

    /// True when serving with a durable store.
    pub fn has_store(&self) -> bool {
        self.inner.store.is_some()
    }

    /// `(base_lsn, next_lsn)` of the store, for diagnostics and tests.
    pub fn store_lsns(&self) -> Option<(u64, u64)> {
        self.inner.store.as_ref().map(|s| {
            let s = lock(s);
            (s.base_lsn(), s.next_lsn())
        })
    }

    /// The primary-side replication hub, when this server can feed
    /// replicas (i.e. it has a durable store).
    pub fn replication(&self) -> Option<Arc<ReplicaHub>> {
        self.inner.replication.as_ref().map(Arc::clone)
    }

    /// True when this service is a read-only replica.
    pub fn is_replica(&self) -> bool {
        self.inner.replica.is_some()
    }

    /// The replica-side status, when this service is a replica.
    pub fn replica_status(&self) -> Option<Arc<ReplicaStatus>> {
        self.inner.replica.as_ref().map(|r| Arc::clone(&r.status))
    }

    /// Builds the catch-up plan for a replica whose next expected LSN is
    /// `from_lsn`, and registers its live feed — both under the store
    /// mutex, so the plan and the feed meet with no gap and no overlap
    /// (mutations publish while holding the same mutex).
    ///
    /// The plan is a snapshot frame (bootstrap: fresh replica, or its LSN
    /// was checkpointed away / is from the future) or the WAL tail from
    /// `from_lsn` (resume), followed by a heartbeat carrying the head LSN.
    pub fn replication_sync(&self, from_lsn: u64) -> Result<(Vec<Frame>, ReplicaFeed), String> {
        let (Some(store_m), Some(hub)) =
            (self.inner.store.as_ref(), self.inner.replication.as_ref())
        else {
            return Err("this server has no durable store (start it with --data-dir)".into());
        };
        let store = lock(store_m);
        let next = store.next_lsn();
        let mut frames = Vec::new();
        if from_lsn == 0 || from_lsn < store.base_lsn() || from_lsn > next {
            // Bootstrap from *live* state: no disk round trip, and the
            // snapshot carries every view's compiled circuit, so the
            // replica never recompiles.
            frames.push(Frame::Snapshot(self.snapshot_image(next)));
        } else {
            let follower = store
                .follow(from_lsn)
                .map_err(|e| format!("wal read failed: {e}"))?;
            for rec in follower {
                if rec.lsn >= next {
                    break;
                }
                frames.push(Frame::Record {
                    lsn: rec.lsn,
                    op: rec.op,
                });
            }
        }
        frames.push(Frame::Heartbeat { next_lsn: next });
        let feed = hub.register();
        drop(store);
        Ok((frames, feed))
    }

    /// The whole live state — database plus every view with its compiled
    /// circuit — as one snapshot image stamped `lsn` (a replica bootstrap,
    /// the shell's `save`). Views are exported before the database to match
    /// the views → db edge the read path establishes; callers that need
    /// the image to sit at an exact log position hold the store mutex.
    pub fn snapshot_image(&self, lsn: u64) -> Vec<u8> {
        let states = lock(&self.inner.views).export_states();
        let db = Arc::clone(&read(&self.inner.db));
        encode_snapshot(lsn, &db, &states)
    }

    /// Replaces all state with a snapshot image (a replica bootstrap, the
    /// shell's `open`); views resume from their circuits without
    /// recompiling. Returns the LSN the image was taken at.
    pub fn install_snapshot(&self, bytes: &[u8]) -> Result<u64, String> {
        let (lsn, db, states) = decode_snapshot(bytes).map_err(|e| e.to_string())?;
        let views = ViewManager::import_states(states).map_err(|e| e.to_string())?;
        {
            let mut guard = write(&self.inner.db);
            *guard = Arc::new(db);
        }
        *lock(&self.inner.views) = views;
        // Cached results were computed against the pre-install history;
        // version keys need not be comparable across a wholesale swap.
        lock(&self.inner.cache).clear();
        Ok(lsn)
    }

    /// True once the `shutdown` command has been accepted.
    pub fn stopping(&self) -> bool {
        self.inner.stopping.load(Ordering::Acquire)
    }

    /// Registers the callback the `shutdown` command fires after flushing
    /// the WAL (the TCP layer uses it to stop its accept loop).
    pub fn set_shutdown_hook(&self, hook: impl Fn() + Send + 'static) {
        *lock(&self.inner.shutdown_hook) = Some(Box::new(hook));
    }

    /// Forces the WAL to disk (no-op without a store). Returns whether the
    /// log is known durable.
    pub fn persist_flush(&self) -> bool {
        match self.inner.store.as_ref() {
            Some(s) => lock(s).flush().is_ok(),
            None => true,
        }
    }

    /// Runs a checkpoint if one is due — re-checked under the store lock,
    /// so concurrently spawned requests collapse to one checkpoint. Public
    /// so the binary can force a final compaction on graceful exit.
    pub fn checkpoint_now(&self) {
        let Some(m) = self.inner.store.as_ref() else {
            return;
        };
        let mut store = lock(m);
        if !store.should_checkpoint() {
            return;
        }
        // Mutations hold the store mutex while they write, so with it held
        // here the db + views are frozen at exactly the logged LSN. Views
        // are exported before the db snapshot to match the views → db edge
        // the read path already establishes.
        let states = lock(&self.inner.views).export_states();
        let db = Arc::clone(&read(&self.inner.db));
        if let Err(e) = store.checkpoint(&db, &states) {
            self.inner.stats.record_error();
            eprintln!("pdb-server: checkpoint failed: {e}");
        }
    }

    /// The observability counters.
    pub fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// The `stats` command payload.
    pub fn stats_text(&self) -> String {
        self.render(|s| s.stats_text())
    }

    /// The `metrics` command payload: Prometheus text exposition of every
    /// family, zero-valued where this server has no source for it.
    pub fn metrics_text(&self) -> String {
        self.render(|s| s.metrics_text())
    }

    /// Runs a payload renderer over this instance's counters. The cache
    /// lock is released before the view manager is taken; the store mutex
    /// is never taken.
    fn render(&self, payload: impl FnOnce(&Sources<'_>) -> String) -> String {
        let (cache_len, cache_capacity) = {
            let cache = lock(&self.inner.cache);
            (cache.len(), cache.capacity())
        };
        let views = lock(&self.inner.views);
        payload(&Sources {
            stats: &self.inner.stats,
            cache_len,
            cache_capacity,
            views: &views,
            replica: self
                .inner
                .replica
                .as_ref()
                .map(|r| (r.primary.as_str(), &*r.status)),
            hub: self.inner.replication.as_deref(),
        })
    }

    /// Number of registered materialized views (diagnostics).
    pub fn view_count(&self) -> usize {
        lock(&self.inner.views).len()
    }

    /// An immutable snapshot of the current database (diagnostics; the
    /// replication tests compare primary and replica snapshots bit for
    /// bit).
    pub fn db_snapshot(&self) -> Arc<ProbDb> {
        Arc::clone(&read(&self.inner.db))
    }

    /// Runs `f` under the view-manager lock (diagnostics; replication
    /// tests compare materialized rows bit for bit).
    pub fn inspect_views<R>(&self, f: impl FnOnce(&ViewManager) -> R) -> R {
        f(&lock(&self.inner.views))
    }

    /// Current database version (for tests and diagnostics).
    pub fn db_version(&self) -> u64 {
        read(&self.inner.db).version()
    }

    /// Number of live cache entries.
    pub fn cache_len(&self) -> usize {
        lock(&self.inner.cache).len()
    }

    /// Drops every cached result (used by benches to measure cold paths).
    pub fn clear_cache(&self) {
        lock(&self.inner.cache).clear();
    }

    /// Parses and executes one protocol line. Returns the response text and
    /// whether the session stays open.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        match parse_command(line) {
            Ok(cmd) => self.handle_command(cmd),
            Err(e) => (format!("error: {e}\n"), true),
        }
    }

    /// The verb a command mutates state under, if any — exactly the
    /// commands a read-only replica must refuse. `view refresh` counts:
    /// refreshes are not WAL-logged, so one executed locally would fork
    /// the replica's materialized rows away from the primary's.
    fn write_verb(cmd: &Command) -> Option<&'static str> {
        match cmd {
            Command::Insert { .. } => Some("insert"),
            Command::Update { .. } => Some("update"),
            Command::Domain(_) => Some("domain"),
            Command::View(ViewCommand::Create { .. }) => Some("view create"),
            Command::View(ViewCommand::Drop { .. }) => Some("view drop"),
            Command::View(ViewCommand::Refresh { .. }) => Some("view refresh"),
            _ => None,
        }
    }

    /// Executes one parsed command. Returns the response text and whether
    /// the session stays open.
    pub fn handle_command(&self, cmd: Command) -> (String, bool) {
        if self.inner.replica.is_some() {
            if let Some(verb) = Self::write_verb(&cmd) {
                self.inner.stats.record_error();
                return (format!("error: {}\n", ReadOnlyReplica { verb }), true);
            }
        }
        match cmd {
            Command::Nothing => (String::new(), true),
            Command::Quit => (String::new(), false),
            Command::Help => (format!("{HELP}\n"), true),
            Command::Stats => (self.stats_text(), true),
            Command::Metrics => (self.metrics_text(), true),
            Command::ExplainAnalyze(q) => (self.run_explain(&q), true),
            Command::TraceLast { json } => (self.trace_last(json), true),
            Command::Slowlog => (self.slowlog_text(), true),
            Command::Source(_) => (
                "error: source is not available over the wire; run the script \
                 client-side\n"
                    .into(),
                true,
            ),
            Command::Insert {
                relation,
                tuple,
                prob,
            } => (
                self.mutate(WalOp::Insert {
                    relation,
                    tuple,
                    prob,
                }),
                true,
            ),
            Command::Update {
                relation,
                tuple,
                prob,
            } => (
                self.mutate(WalOp::UpdateProb {
                    relation,
                    tuple,
                    prob,
                }),
                true,
            ),
            Command::Domain(consts) => (self.mutate(WalOp::ExtendDomain { consts }), true),
            Command::View(cmd) => (self.run_view(cmd), true),
            Command::Show => {
                let db = self.db_snapshot();
                (format!("{}", db.tuple_db()), true)
            }
            Command::Query(q) => (self.run_query(&q), true),
            Command::Classify(q) => (self.run_classify(&q), true),
            Command::Answers { head, cq } => (self.run_answers(&head, &cq), true),
            Command::OpenWorld { lambda, query } => (self.run_open(lambda, &query), true),
            Command::Save(_) | Command::Open(_) => (
                "error: save/open are not available over the wire; snapshots \
                 are managed client-side (probdb-cli) or via --data-dir\n"
                    .into(),
                true,
            ),
            Command::WalInspect(_) => (
                "error: wal inspect is not available over the wire; run it \
                 in probdb-cli against the data directory\n"
                    .into(),
                true,
            ),
            Command::Shutdown => {
                let flushed = self.persist_flush();
                // Graceful drain tells replicas explicitly: they mark the
                // primary down now instead of waiting out the heartbeat
                // timeout.
                if let Some(hub) = self.inner.replication.as_ref() {
                    hub.broadcast_shutdown();
                }
                self.inner.stopping.store(true, Ordering::Release);
                if let Some(hook) = lock(&self.inner.shutdown_hook).as_ref() {
                    hook();
                }
                let msg = if flushed {
                    "shutting down\n"
                } else {
                    "shutting down (warning: log flush failed)\n"
                };
                (msg.into(), false)
            }
        }
    }

    /// Runs one write command: commits `op` and renders the reply.
    fn mutate(&self, op: WalOp) -> String {
        match self.commit(&op) {
            Ok(created) => match &op {
                WalOp::ViewDrop { name } => format!("view {name} dropped\n"),
                _ => created.unwrap_or_default(),
            },
            Err(CommitError::Refused(refused)) => match (refused, &op) {
                (
                    Refused::AbsentTuple,
                    WalOp::UpdateProb {
                        relation, tuple, ..
                    },
                ) => format_update_missing(relation, tuple),
                (Refused::AbsentView, WalOp::ViewDrop { name }) => {
                    format!("error: no view named {name}\n")
                }
                (Refused::Engine(e), _) => format!("error: {e}\n"),
                (refused, op) => format!("error: {op:?} refused: {refused:?}\n"),
            },
            Err(CommitError::NotPersisted(e)) => {
                self.inner.stats.record_error();
                format!("error: mutation not persisted: {e}\n")
            }
        }
    }

    /// The one write path of a serving instance: store mutex → refuse if
    /// the store is wedged → apply → append → publish → release → schedule
    /// a checkpoint if one is due. The mutex spans the step so the log,
    /// every replica feed and any checkpoint see mutations in one order;
    /// the caller acknowledges only an `Ok`. A wedged store refuses
    /// *before* anything is applied: state the log can no longer record
    /// must not drift away from it. A refused op is not logged. Returns
    /// the `view create` acknowledgement, if any.
    fn commit(&self, op: &WalOp) -> Result<Option<String>, CommitError> {
        let mut store = self.inner.store.as_ref().map(lock);
        if let Some(s) = store.as_deref() {
            s.ensure_ok().map_err(CommitError::NotPersisted)?;
        }
        let created = self.apply_mutation(op).map_err(CommitError::Refused)?;
        let mut checkpoint_due = false;
        if let Some(s) = store.as_deref_mut() {
            let lsn = s.append(op).map_err(CommitError::NotPersisted)?;
            if let Some(hub) = self.inner.replication.as_ref() {
                hub.publish(lsn, op);
            }
            checkpoint_due = s.should_checkpoint();
        }
        drop(store);
        if checkpoint_due {
            let svc = self.clone();
            // On a 1-thread pool this runs inline (no workers exist);
            // either way `checkpoint_now` re-acquires the store lock
            // itself, which is why it is released first.
            pdb_par::current().spawn_detached(move || svc.checkpoint_now());
        }
        Ok(created)
    }

    /// Applies `op` to the served state — the only function that writes
    /// the database. The database half runs under the write lock, which is
    /// released before the view manager is locked for the event (see the
    /// module docs on lock ordering). Returns the `view create`
    /// acknowledgement, rendered while the new view is still borrowed.
    fn apply_mutation(&self, op: &WalOp) -> Result<Option<String>, Refused> {
        let pending = {
            let mut guard: Option<RwLockWriteGuard<'_, Arc<ProbDb>>> = None;
            pdb_store::apply_db(op, || Arc::make_mut(guard.insert(write(&self.inner.db))))
        }?;
        // A view is built before the manager lock is taken: the build fans
        // row compilation out on the pool, and a pool submit under the
        // views guard stalls every concurrent view/event path (and can
        // deadlock against a pool whose waiters help). If the database
        // moves between this snapshot and the install, the view goes in
        // stale and the next refresh rebuilds it.
        let event = pending.compile(|| {
            let opts = {
                let views = lock(&self.inner.views);
                views.options().clone()
            };
            (opts, self.db_snapshot())
        })?;
        let mut views = lock(&self.inner.views);
        let created = event.deliver(&mut views, || self.db_snapshot())?;
        Ok(created.map(format_view_created))
    }

    /// Executes a `view` subcommand. `create` and `drop` are mutations and
    /// go through [`Self::commit`]; the rest lock the manager, and `refresh`
    /// snapshots the database inside that lock.
    fn run_view(&self, cmd: ViewCommand) -> String {
        match cmd {
            ViewCommand::Create { name, def } => {
                let start = Instant::now();
                let reply = self.mutate(WalOp::ViewCreate { name, def });
                self.inner.stats.record_view_refresh(start.elapsed());
                reply
            }
            ViewCommand::Drop { name } => self.mutate(WalOp::ViewDrop { name }),
            ViewCommand::Refresh { name } => {
                let mut views = lock(&self.inner.views);
                let start = Instant::now();
                let db = self.db_snapshot();
                let out = match name {
                    Some(name) => match views.refresh(&name, &db) {
                        Ok(outcome) => format_view_refreshed(&name, outcome),
                        Err(e) => format!("error: {e}\n"),
                    },
                    None => {
                        if views.is_empty() {
                            "(no views)\n".into()
                        } else {
                            match views.refresh_all(&db) {
                                Ok(outcomes) => outcomes
                                    .iter()
                                    .map(|(n, o)| format_view_refreshed(n, *o))
                                    .collect(),
                                Err(e) => format!("error: {e}\n"),
                            }
                        }
                    }
                };
                self.inner.stats.record_view_refresh(start.elapsed());
                out
            }
            ViewCommand::List => {
                let views = lock(&self.inner.views);
                format_view_list(views.iter())
            }
            ViewCommand::Show { name } => {
                let views = lock(&self.inner.views);
                match views.get(&name) {
                    Some(view) => format_view_show(view),
                    None => format!("error: no view named {name}\n"),
                }
            }
        }
    }

    /// The version key a Boolean query's cache entry depends on: the
    /// mentioned relations' versions for UCQs (domain-independent), the
    /// global version otherwise (a ∀ sees the whole domain, which any
    /// insert can grow).
    fn version_key(db: &ProbDb, norm: &str) -> VersionKey {
        match pdb_logic::parse_fo(norm) {
            Ok(fo) if fo.to_ucq().is_some() => VersionKey::Relations(
                fo.predicates()
                    .iter()
                    .map(|p| (p.name().to_string(), db.relation_version(p.name())))
                    .collect(),
            ),
            _ => VersionKey::Global(db.version()),
        }
    }

    fn run_query(&self, text: &str) -> String {
        let Some(threshold) = self.inner.opts.slowlog_threshold else {
            // No subscriber: every span below is inert (one relaxed atomic
            // load), so the hot path stays allocation- and lock-free.
            return self.run_query_spanned(text);
        };
        let (out, capture) = self.run_query_traced(text);
        if capture.total >= threshold {
            *lock(&self.inner.last_trace) = Some(capture.clone());
            let mut log = lock(&self.inner.slowlog);
            if log.len() >= SLOWLOG_CAPACITY {
                log.pop_front();
            }
            log.push_back(capture);
        }
        out
    }

    /// Runs the query under a fresh tracer; returns the reply and the trace.
    fn run_query_traced(&self, text: &str) -> (String, TraceCapture) {
        let tracer = Tracer::new();
        let start = Instant::now();
        let out = with_tracer(&tracer, || self.run_query_spanned(text));
        let capture = TraceCapture {
            query: normalize_query(text),
            total: start.elapsed(),
            tracer,
        };
        (out, capture)
    }

    /// Engine options for a command that started at `start`: the defaults
    /// plus the instant its wall-clock budget runs out (none for a zero
    /// budget, or one too large to represent).
    fn query_options(&self, start: Instant) -> QueryOptions {
        let timeout = self.inner.opts.query_timeout;
        QueryOptions {
            deadline: start.checked_add(timeout).filter(|_| !timeout.is_zero()),
            ..QueryOptions::default()
        }
    }

    /// Renders a failed `answers`/`open`. A passed deadline counts as a
    /// timeout and says after how long.
    fn engine_error(&self, e: EngineError, start: Instant) -> String {
        if matches!(e, EngineError::DeadlineExceeded) {
            self.inner.stats.record_timeout();
            return format!("error: {e} after {} ms\n", start.elapsed().as_millis());
        }
        format!("error: {e}\n")
    }

    /// The query path proper, emitting the cascade span tree (root `query`
    /// span, `parse` + `cache` children, engine stages recorded inside
    /// [`pdb_core`]) — all of it on the calling thread.
    fn run_query_spanned(&self, text: &str) -> String {
        let start = Instant::now();
        let mut root = span(Stage::Query);
        let (norm, db, key) = {
            let _parse = span(Stage::Parse);
            let norm = normalize_query(text);
            let db = self.db_snapshot();
            let key = (
                CacheKind::Probability,
                norm.clone(),
                Self::version_key(&db, &norm),
            );
            (norm, db, key)
        };
        if root.is_recording() {
            root.set_str("query", norm.clone());
        }
        let cached = {
            let mut cache_span = span(Stage::Cache);
            let hit = {
                let mut cache = lock(&self.inner.cache);
                cache.get(&key).cloned()
            };
            cache_span.set_bool("hit", matches!(hit, Some(CacheEntry::Answer(_))));
            hit
        };
        let answer = if let Some(CacheEntry::Answer(a)) = cached {
            self.inner.stats.record_cache_hit();
            Ok(a)
        } else {
            self.inner.stats.record_cache_miss();
            self.compute(&db, &norm, key, start)
        };
        let out = match answer {
            Ok(a) => {
                self.inner.stats.record_method(a.method);
                if root.is_recording() {
                    root.set_str("engine", format!("{:?}", a.method));
                }
                format_answer(&a)
            }
            Err(e) => {
                self.inner.stats.record_error();
                format!("error: {e}\n")
            }
        };
        self.inner.stats.record_latency(start.elapsed());
        out
    }

    /// Evaluates `norm` on `db` under the deadline of a query that began at
    /// `start`, and caches the result. When the deadline passes first, the
    /// engine has already stopped its exact work; the answer then comes
    /// from the approximate path — no exact counting (budget 1), a reduced
    /// Karp–Luby sample count, same snapshot — and is not cached.
    fn compute(
        &self,
        db: &ProbDb,
        norm: &str,
        key: CacheKey,
        start: Instant,
    ) -> Result<Answer, EngineError> {
        let fo = pdb_logic::parse_fo(norm)?;
        match db.query_fo(&fo, &self.query_options(start)) {
            Err(EngineError::DeadlineExceeded) => {
                self.inner.stats.record_timeout();
                let samples = self.inner.opts.degraded_samples;
                let mut degrade = span(Stage::Degrade);
                degrade.set_str("reason", "deadline");
                degrade.set_u64("elapsed_us", start.elapsed().as_micros() as u64);
                degrade.set_u64("samples", samples);
                let opts = QueryOptions {
                    exact_budget: 1,
                    samples,
                    ..QueryOptions::default()
                };
                db.query_fo(&fo, &opts)
            }
            exact => {
                if let Ok(answer) = &exact {
                    lock(&self.inner.cache).insert(key, CacheEntry::Answer(answer.clone()));
                }
                exact
            }
        }
    }

    fn run_classify(&self, text: &str) -> String {
        let norm = normalize_query(text);
        // Classification is data-independent, so the key is pinned and
        // survives every insert.
        let key = (CacheKind::Classify, norm.clone(), VersionKey::Pinned);
        let cached = {
            let mut cache = lock(&self.inner.cache);
            cache.get(&key).cloned()
        };
        if let Some(CacheEntry::Classify(c)) = cached {
            self.inner.stats.record_cache_hit();
            return format!("{}\n", format_complexity(c));
        }
        self.inner.stats.record_cache_miss();
        match pdb_logic::parse_ucq(&norm) {
            Ok(ucq) => {
                let c = pdb_core::classify_ucq(&ucq);
                lock(&self.inner.cache).insert(key, CacheEntry::Classify(c));
                format!("{}\n", format_complexity(c))
            }
            Err(e) => format!("parse error: {e}\n"),
        }
    }

    fn run_answers(&self, head: &[String], cq: &str) -> String {
        let start = Instant::now();
        let db = self.db_snapshot();
        match pdb_logic::parse_cq(cq) {
            Ok(parsed) => {
                let vars: Vec<pdb_logic::Var> =
                    head.iter().map(|v| pdb_logic::Var::new(v)).collect();
                match db.query_answers(&parsed, &vars, &self.query_options(start)) {
                    Ok(rows) => format_answer_tuples(head, &rows),
                    Err(e) => self.engine_error(e, start),
                }
            }
            Err(e) => format!("parse error: {e}\n"),
        }
    }

    fn run_open(&self, lambda: f64, query: &str) -> String {
        let start = Instant::now();
        let db = self.db_snapshot();
        match pdb_logic::parse_fo(query) {
            Ok(fo) => match db.query_open_world(&fo, lambda, &self.query_options(start)) {
                Ok((lo, hi)) => format_open(&lo, &hi),
                Err(e) => self.engine_error(e, start),
            },
            Err(e) => format!("parse error: {e}\n"),
        }
    }

    /// `explain analyze <query>`: run the query under a fresh tracer — the
    /// same path, deadline included, as `query` — and append the rendered
    /// span tree to the answer. The trace also becomes `trace last`. Counts
    /// in `stats` like any query.
    fn run_explain(&self, text: &str) -> String {
        let (mut out, capture) = self.run_query_traced(text);
        out.push_str(&capture.tracer.render_text());
        *lock(&self.inner.last_trace) = Some(capture);
        out
    }

    /// The `trace last [--json]` payload: the most recent captured trace
    /// (from `explain analyze` or a slowlog hit), as the indented span tree
    /// or as Chrome trace-format JSON (load in `chrome://tracing`).
    fn trace_last(&self, json: bool) -> String {
        match lock(&self.inner.last_trace).as_ref() {
            None => "(no trace captured; run `explain analyze <query>` or start \
                     the server with --slowlog-threshold)\n"
                .into(),
            Some(c) if json => {
                let mut s = c.tracer.render_chrome_json();
                s.push('\n');
                s
            }
            Some(c) => format!(
                "{}  ({}µs total)\n{}",
                c.query,
                c.total.as_micros(),
                c.tracer.render_text()
            ),
        }
    }

    /// The `slowlog` payload: every captured slow query, newest first,
    /// each with its span tree indented beneath it.
    fn slowlog_text(&self) -> String {
        let log = lock(&self.inner.slowlog);
        if log.is_empty() {
            return "(slowlog empty)\n".into();
        }
        let mut out = String::new();
        for c in log.iter().rev() {
            out.push_str(&format!("{}µs  {}\n", c.total.as_micros(), c.query));
            for line in c.tracer.render_text().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// The replication client applies its stream straight into the service:
/// a replica's state walks `Service::apply_mutation`, the function the
/// primary's own commits ran — the basis of the bit-identity guarantee. A
/// refusal means the primary applied an op this replica cannot: divergence,
/// which the client answers with a full re-bootstrap.
impl pdb_replica::ReplicaApply for Service {
    fn install_snapshot(&self, bytes: &[u8]) -> Result<u64, String> {
        Service::install_snapshot(self, bytes)
    }

    fn apply(&self, lsn: u64, op: &WalOp) -> Result<(), String> {
        match self.apply_mutation(op) {
            Ok(_) => Ok(()),
            Err(refused) => Err(format!("replicated record {lsn} refused: {refused:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_replica::ReplicaApply;

    fn no_deadline_opts() -> ServiceOptions {
        ServiceOptions {
            query_timeout: Duration::ZERO,
            cache_capacity: 64,
            degraded_samples: 5_000,
            ..ServiceOptions::default()
        }
    }

    fn seeded_service(opts: ServiceOptions) -> Service {
        let mut db = ProbDb::new();
        db.insert("R", [1], 0.5);
        db.insert("S", [1, 2], 0.8);
        Service::new(db, opts)
    }

    const Q: &str = "query exists x. exists y. R(x) & S(x,y)";

    #[test]
    fn second_query_is_a_cache_hit_with_identical_text() {
        let svc = seeded_service(no_deadline_opts());
        let (first, _) = svc.handle_line(Q);
        assert!(first.contains("p = 0.400000"), "{first}");
        let (second, _) = svc.handle_line(Q);
        assert_eq!(first, second);
        assert_eq!(svc.stats().cache_misses(), 1);
        assert_eq!(svc.stats().cache_hits(), 1);
        assert_eq!(svc.cache_len(), 1);
    }

    #[test]
    fn whitespace_variants_share_one_entry() {
        let svc = seeded_service(no_deadline_opts());
        svc.handle_line(Q);
        let (resp, _) = svc.handle_line("query   exists x.  exists y. R(x) &  S(x,y)");
        assert!(resp.contains("p = 0.400000"), "{resp}");
        assert_eq!(svc.stats().cache_hits(), 1);
        assert_eq!(svc.cache_len(), 1);
    }

    #[test]
    fn insert_invalidates_by_version_bump() {
        let svc = seeded_service(no_deadline_opts());
        let (before, _) = svc.handle_line(Q);
        assert!(before.contains("p = 0.400000"), "{before}");
        let v0 = svc.db_version();
        svc.handle_line("insert S 1 3 0.5");
        assert_eq!(svc.db_version(), v0 + 1);
        let (after, _) = svc.handle_line(Q);
        // P = 0.5 · (1 − 0.2·0.5) = 0.45 — must NOT be the cached 0.4.
        assert!(after.contains("p = 0.450000"), "stale read: {after}");
        assert_eq!(svc.stats().cache_hits(), 0);
        assert_eq!(svc.stats().cache_misses(), 2);
    }

    #[test]
    fn classify_is_cached_across_inserts() {
        let svc = seeded_service(no_deadline_opts());
        let (v, _) = svc.handle_line("classify R(x), S(x,y), T(y)");
        assert_eq!(v, "#P-hard\n");
        svc.handle_line("insert R 9 0.1");
        let (again, _) = svc.handle_line("classify R(x),  S(x,y), T(y)");
        assert_eq!(again, "#P-hard\n");
        assert_eq!(
            svc.stats().cache_hits(),
            1,
            "version-0 key survives inserts"
        );
    }

    #[test]
    fn errors_are_reported_and_counted() {
        let svc = seeded_service(no_deadline_opts());
        let (resp, keep) = svc.handle_line("query R(x) @@@");
        assert!(resp.starts_with("error:"), "{resp}");
        assert!(keep);
        let (resp, _) = svc.handle_line("nonsense");
        assert!(resp.starts_with("error: unknown command"), "{resp}");
        let stats = svc.stats_text();
        assert!(stats.contains("errors=1"), "{stats}");
    }

    #[test]
    fn unrelated_insert_keeps_ucq_cache_entries_live() {
        let svc = seeded_service(no_deadline_opts());
        let (first, _) = svc.handle_line(Q);
        assert!(first.contains("p = 0.400000"), "{first}");
        // Z is not mentioned by Q: the relation-version key is unchanged.
        svc.handle_line("insert Z 7 0.9");
        let (second, _) = svc.handle_line(Q);
        assert_eq!(first, second);
        assert_eq!(
            svc.stats().cache_hits(),
            1,
            "unrelated insert must not evict the cached UCQ answer"
        );
    }

    #[test]
    fn universal_queries_fall_back_to_the_global_version_key() {
        let mut db = ProbDb::new();
        db.insert("R", [1], 0.5);
        let svc = Service::new(db, no_deadline_opts());
        // ∀ answers depend on the active domain: ANY insert may change them.
        let q = "query forall x. R(x)";
        let (before, _) = svc.handle_line(q);
        assert!(before.contains("p = 0.500000"), "{before}");
        svc.handle_line("insert Z 2 1.0"); // grows the domain with 2
        let (after, _) = svc.handle_line(q);
        // R(2) is not a possible tuple, so ∀x.R(x) drops to 0.
        assert!(after.contains("p = 0.000000"), "stale ∀ answer: {after}");
        assert_eq!(svc.stats().cache_hits(), 0);
    }

    #[test]
    fn update_changes_probability_and_rejects_absent_tuples() {
        let svc = seeded_service(no_deadline_opts());
        let (ok, _) = svc.handle_line("update R 1 0.25");
        assert_eq!(ok, "");
        let (resp, _) = svc.handle_line(Q);
        assert!(resp.contains("p = 0.200000"), "{resp}");
        let (missing, _) = svc.handle_line("update R 9 0.5");
        assert!(
            missing.starts_with("error: R(9) is not a possible tuple"),
            "{missing}"
        );
        let (missing_rel, _) = svc.handle_line("update Z 1 0.5");
        assert!(missing_rel.starts_with("error:"), "{missing_rel}");
    }

    #[test]
    fn view_lifecycle_over_the_service() {
        let svc = seeded_service(no_deadline_opts());
        let (created, _) = svc.handle_line("view create v query exists x. exists y. R(x) & S(x,y)");
        assert_eq!(created, "view v: 1 row(s) materialized (circuit)\n");
        assert_eq!(svc.view_count(), 1);
        let (shown, _) = svc.handle_line("view show v");
        assert!(shown.contains("p = 0.400000"), "{shown}");

        // A probability update is absorbed without a refresh.
        svc.handle_line("update S 1 2 0.4");
        let (shown, _) = svc.handle_line("view show v");
        assert!(shown.contains("p = 0.200000"), "{shown}");
        assert!(!shown.contains("stale"), "{shown}");

        // An insert into a mentioned relation stales the view.
        svc.handle_line("insert S 1 3 0.5");
        let (listed, _) = svc.handle_line("view list");
        assert!(listed.contains("status=stale"), "{listed}");
        let (refreshed, _) = svc.handle_line("view refresh v");
        assert_eq!(refreshed, "view v: rebuilt\n");
        let (shown, _) = svc.handle_line("view show v");
        // P = 0.5 · (1 − 0.6·0.5) = 0.35 after update + insert.
        assert!(shown.contains("p = 0.350000"), "{shown}");

        let (again, _) = svc.handle_line("view refresh v");
        assert_eq!(again, "view v: fresh\n");
        let (dropped, _) = svc.handle_line("view drop v");
        assert_eq!(dropped, "view v dropped\n");
        assert_eq!(svc.view_count(), 0);
        let (empty, _) = svc.handle_line("view list");
        assert_eq!(empty, "(no views)\n");
        let (all, _) = svc.handle_line("view refresh");
        assert_eq!(all, "(no views)\n");

        let stats = svc.stats_text();
        assert!(stats.contains("incremental=1"), "{stats}");
    }

    #[test]
    fn answers_view_over_the_service() {
        let svc = seeded_service(no_deadline_opts());
        let (created, _) = svc.handle_line("view create pa answers x : R(x), S(x,y)");
        assert_eq!(created, "view pa: 1 row(s) materialized (circuit)\n");
        let (shown, _) = svc.handle_line("view show pa");
        assert!(shown.contains("x = 1    p = 0.400000"), "{shown}");
        let (dup, _) = svc.handle_line("view create pa query exists x. R(x)");
        assert!(dup.starts_with("error:"), "{dup}");
    }

    #[test]
    fn quit_closes_session() {
        let svc = seeded_service(no_deadline_opts());
        assert!(!svc.handle_line("quit").1);
        assert!(!svc.handle_line("exit").1);
        assert!(svc.handle_line("help").1);
    }

    #[test]
    fn source_is_refused_over_the_wire() {
        let svc = seeded_service(no_deadline_opts());
        let (resp, keep) = svc.handle_line("source /etc/passwd");
        assert!(resp.starts_with("error: source is not available"), "{resp}");
        assert!(keep);
    }

    /// The complete bipartite H₀ instance on `n` constants per side.
    fn h0_db(n: u64) -> ProbDb {
        let mut db = ProbDb::new();
        for i in 0..n {
            db.insert("R", [i], 0.3);
            db.insert("T", [i], 0.4);
            for j in 0..n {
                db.insert("S", [i, j], 0.5);
            }
        }
        db
    }

    /// The 6×6 H₀ instance (#P-hard, so lifted declines) behind a 1 ns
    /// budget: the deadline has passed before any stage boundary is reached.
    fn expired_h0_service() -> Service {
        Service::new(
            h0_db(6),
            ServiceOptions {
                query_timeout: Duration::from_nanos(1),
                cache_capacity: 16,
                degraded_samples: 5_000,
                ..ServiceOptions::default()
            },
        )
    }

    const H0: &str = "exists x. exists y. R(x) & S(x,y) & T(y)";

    #[test]
    fn timeout_degrades_to_the_approximate_engine() {
        let svc = expired_h0_service();
        let (resp, _) = svc.handle_line(&format!("query {H0}"));
        assert!(resp.contains("(engine: Approximate)"), "{resp}");
        assert_eq!(svc.stats().timeouts(), 1);
        assert!(svc.stats_text().contains("timeouts: 1"));
        // The degraded estimate still lands near the truth (plan bounds
        // clamp it); sanity-check the printed probability parses.
        let p: f64 = resp
            .split_whitespace()
            .nth(2)
            .unwrap()
            .parse()
            .expect("p value");
        assert!((0.0..=1.0).contains(&p), "{resp}");
        // Nothing finishes the exact run behind the reply: the degraded
        // answer is not cached and the repeat is evaluated (and times out)
        // again.
        assert_eq!(svc.cache_len(), 0);
        svc.handle_line(&format!("query {H0}"));
        assert_eq!(svc.stats().cache_hits(), 0);
        assert_eq!(svc.stats().timeouts(), 2);
    }

    #[test]
    fn a_lifted_answer_is_returned_however_late() {
        let svc = expired_h0_service();
        let (resp, _) = svc.handle_line(Q);
        assert!(resp.contains("(engine: Lifted)"), "{resp}");
        assert_eq!(svc.stats().timeouts(), 0);
        assert_eq!(svc.cache_len(), 1);
    }

    #[test]
    fn answers_and_open_reply_with_the_typed_error_past_the_deadline() {
        for line in [
            "answers x : R(x), S(x,y)".to_string(),
            format!("open 0.1 {H0}"),
        ] {
            let svc = expired_h0_service();
            let (resp, keep) = svc.handle_line(&line);
            assert!(keep, "{line}");
            let ms = resp
                .strip_prefix("error: deadline exceeded after ")
                .and_then(|rest| rest.strip_suffix(" ms\n"))
                .unwrap_or_else(|| panic!("{line}: {resp}"));
            ms.parse::<u64>().expect("elapsed milliseconds");
            assert_eq!(svc.stats().timeouts(), 1, "{line}");
        }
    }

    #[test]
    fn a_timed_out_explain_renders_one_well_formed_tree() {
        use pdb_obs::SpanRecord;
        fn stages(records: &[SpanRecord], parent: Option<u32>) -> Vec<&'static str> {
            records
                .iter()
                .filter(|r| r.parent == parent)
                .map(|r| r.stage.name())
                .collect()
        }
        fn attr(r: &SpanRecord, key: &str) -> Option<String> {
            r.attrs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        }
        let last_records = |svc: &Service| {
            let capture = lock(&svc.inner.last_trace);
            capture.as_ref().expect("explain captured").tracer.records()
        };

        // The clock trips at the first stage boundary: no compile/ground
        // under the root, the whole cascade again under `degrade`.
        let svc = expired_h0_service();
        let (resp, _) = svc.handle_line(&format!("explain analyze {H0}"));
        assert!(resp.contains("(engine: Approximate)"), "{resp}");
        let records = last_records(&svc);
        pdb_obs::check_well_formed(&records).unwrap();
        let root = records.iter().find(|r| r.parent.is_none()).unwrap();
        assert_eq!(records.iter().filter(|r| r.parent.is_none()).count(), 1);
        assert_eq!(
            stages(&records, Some(root.id)),
            ["parse", "cache", "lifted", "degrade"]
        );
        let degrade = records.iter().find(|r| r.stage == Stage::Degrade).unwrap();
        assert_eq!(
            stages(&records, Some(degrade.id)),
            ["lifted", "compile", "ground", "sample", "bounds"]
        );
        assert_eq!(attr(degrade, "reason").as_deref(), Some("deadline"));
        assert!(attr(degrade, "elapsed_us").is_some());
        assert!(attr(degrade, "samples").is_some());

        // The clock trips inside DPLL: `compile` and `ground` run under the
        // root first, and `ground` says the clock (not the decision budget)
        // stopped it. 12×12 takes the exact counter far longer than 3 ms.
        let svc = Service::new(
            h0_db(12),
            ServiceOptions {
                query_timeout: Duration::from_millis(3),
                degraded_samples: 1_000,
                ..ServiceOptions::default()
            },
        );
        let (resp, _) = svc.handle_line(&format!("explain analyze {H0}"));
        assert!(resp.contains("(engine: Approximate)"), "{resp}");
        let records = last_records(&svc);
        pdb_obs::check_well_formed(&records).unwrap();
        let root = records.iter().find(|r| r.parent.is_none()).unwrap();
        assert_eq!(
            stages(&records, Some(root.id)),
            ["parse", "cache", "lifted", "compile", "ground", "degrade"]
        );
        let ground = records
            .iter()
            .find(|r| r.stage == Stage::Ground && r.parent == Some(root.id))
            .unwrap();
        assert_eq!(attr(ground, "deadline").as_deref(), Some("true"));
        assert_eq!(attr(ground, "within_budget").as_deref(), Some("false"));
    }

    #[test]
    fn mutations_are_wal_logged_and_survive_kill_minus_nine() {
        use pdb_store::{MemFs, StoreOptions};
        let fs = Arc::new(MemFs::new());
        let dir = std::path::Path::new("data");
        {
            let (store, rec) = Store::open(fs.clone(), dir, StoreOptions::default()).unwrap();
            let svc = Service::with_store(rec.db, rec.views, store, no_deadline_opts());
            assert!(svc.has_store());
            svc.handle_line("insert R 1 0.5");
            svc.handle_line("insert S 1 2 0.8");
            svc.handle_line("view create v query exists x. exists y. R(x) & S(x,y)");
            svc.handle_line("update S 1 2 0.4");
            assert_eq!(svc.store_lsns(), Some((0, 4)));
            // No graceful close: the service is just dropped.
        }
        fs.crash(); // power loss on top
        let (store, rec) = Store::open(fs, dir, StoreOptions::default()).unwrap();
        assert_eq!(rec.info.replayed_ops, 4);
        // The view create sits in the WAL tail (no checkpoint ran), so
        // replay compiles it exactly once — snapshot-resident views resume
        // without any compile (see the pdb-store checkpoint tests).
        assert_eq!(rec.views.recompiles(), 1);
        let svc = Service::with_store(rec.db, rec.views, store, no_deadline_opts());
        let (shown, _) = svc.handle_line("view show v");
        assert!(shown.contains("p = 0.200000"), "{shown}");
        let (q, _) = svc.handle_line(Q);
        assert!(q.contains("p = 0.200000"), "{q}");
        // The recovered service keeps logging.
        svc.handle_line("insert R 2 0.5");
        assert_eq!(svc.store_lsns(), Some((0, 5)));
    }

    #[test]
    fn checkpoint_runs_in_the_background_and_truncates_the_log() {
        use pdb_store::{MemFs, StoreOptions};
        const VIEW: &str = "view create v query exists x. exists y. R(x) & S(x,y)";
        // `--checkpoint-every 3` is honoured whatever kind of op the third
        // record is: every mutation reports "checkpoint due" through the
        // same commit.
        for (script, db_version) in [
            (
                ["insert R 1 0.5", "insert S 1 2 0.8", "update S 1 2 0.4"],
                3,
            ),
            (["insert R 1 0.5", "insert S 1 2 0.8", "domain 7"], 3),
            (["insert R 1 0.5", "insert S 1 2 0.8", VIEW], 2),
            (["insert R 1 0.5", VIEW, "view drop v"], 1),
        ] {
            let fs = Arc::new(MemFs::new());
            let dir = std::path::Path::new("data");
            let sopts = StoreOptions {
                checkpoint_every: 3,
                ..StoreOptions::default()
            };
            let (store, rec) = Store::open(fs.clone(), dir, sopts.clone()).unwrap();
            let svc = Service::with_store(rec.db, rec.views, store, no_deadline_opts());
            for line in script {
                let (resp, _) = svc.handle_line(line);
                assert!(!resp.starts_with("error"), "{line}: {resp}");
            }
            // The third append crossed the threshold and spawned a detached
            // checkpoint; on a 1-thread pool it already ran inline, otherwise
            // wait for the pool worker.
            let deadline = Instant::now() + Duration::from_secs(10);
            while svc.store_lsns() != Some((3, 3)) {
                assert!(
                    Instant::now() < deadline,
                    "checkpoint never ran after {script:?}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            drop(svc);
            // Recovery now starts from the snapshot with an empty tail.
            let (_store, rec) = Store::open(fs, dir, sopts).unwrap();
            assert_eq!(rec.info.snapshot_lsn, 3, "{script:?}");
            assert_eq!(rec.info.replayed_ops, 0, "{script:?}");
            assert_eq!(rec.db.version(), db_version, "{script:?}");
        }
    }

    /// The run-time guard on "logged before acknowledged", for each of the
    /// five op kinds: when the WAL write of a command fails, that command is
    /// refused, every later write is refused *without touching the served
    /// state*, no replica hears of anything from the failed record on, and
    /// recovery yields exactly the acknowledged prefix.
    #[test]
    fn a_failed_wal_write_wedges_the_service_at_the_acknowledged_prefix() {
        use pdb_store::{FailpointFs, Fault, MemFs, StoreOptions};
        const PRELUDE: [&str; 3] = [
            "insert R 1 0.5",
            "insert S 1 2 0.8",
            "view create v query exists x. exists y. R(x) & S(x,y)",
        ];
        const WRITES: [&str; 5] = [
            "insert R 2 0.25",
            "update S 1 2 0.4",
            "domain 7 8",
            "view create w query exists x. R(x)",
            "view drop v",
        ];
        const READS: [&str; 4] = ["show", "view list", "view show v", "view show w"];
        let read_all = |svc: &Service| READS.map(|line| svc.handle_line(line).0);
        let dir = std::path::Path::new("data");
        for failing in WRITES {
            let fs = FailpointFs::new(Arc::new(MemFs::new()));
            let (store, rec) =
                Store::open(Arc::new(fs.clone()), dir, StoreOptions::default()).unwrap();
            let svc = Service::with_store(rec.db, rec.views, store, no_deadline_opts());
            let (_, feed) = svc.replication_sync(0).unwrap();
            for line in PRELUDE {
                let (resp, _) = svc.handle_line(line);
                assert!(!resp.starts_with("error"), "{line}: {resp}");
            }
            let acked = read_all(&svc);

            // `inject` restarts the write count: the next WAL write tears.
            fs.inject(Fault::TornWrite { at: 0, keep: 5 });
            let (resp, keep) = svc.handle_line(failing);
            assert!(
                resp.starts_with("error: mutation not persisted"),
                "{failing}: {resp}"
            );
            assert!(keep, "a refused write must not close the session");
            assert!(fs.triggered());
            assert!(svc.stats_text().contains("errors=1"), "{failing}");

            // Wedged: every write of every kind is refused and leaves what
            // readers see byte-identical.
            let wedged = read_all(&svc);
            for line in WRITES {
                let (resp, _) = svc.handle_line(line);
                assert!(
                    resp.starts_with("error: mutation not persisted"),
                    "{line} after failed {failing}: {resp}"
                );
                assert_eq!(
                    read_all(&svc),
                    wedged,
                    "{line} after failed {failing} changed the served state"
                );
            }
            assert!(svc.stats_text().contains("errors=6"), "{failing}");

            // The feed carries the acknowledged records and nothing after.
            let mut streamed = Vec::new();
            while let Ok(Some(frame)) = feed.try_recv() {
                match frame {
                    Frame::Record { lsn, .. } => streamed.push(lsn),
                    other => panic!("unexpected frame after failed {failing}: {other:?}"),
                }
            }
            assert_eq!(streamed, [0, 1, 2], "{failing}");

            // Restart: the torn tail is dropped and exactly the
            // acknowledged prefix comes back.
            drop(svc);
            fs.disarm();
            let (store, rec) = Store::open(Arc::new(fs), dir, StoreOptions::default()).unwrap();
            assert_eq!(rec.info.replayed_ops, 3, "{failing}");
            assert!(rec.info.truncated_bytes > 0, "{failing}");
            let recovered = Service::with_store(rec.db, rec.views, store, no_deadline_opts());
            assert_eq!(read_all(&recovered), acked, "{failing}");
        }
    }

    #[test]
    fn shutdown_flushes_fires_the_hook_and_closes_the_session() {
        use pdb_store::{MemFs, StoreOptions};
        let fs = Arc::new(MemFs::new());
        let dir = std::path::Path::new("data");
        let (store, rec) = Store::open(fs.clone(), dir, StoreOptions::default()).unwrap();
        let svc = Service::with_store(rec.db, rec.views, store, no_deadline_opts());
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        svc.set_shutdown_hook(move || flag.store(true, Ordering::Release));
        svc.handle_line("insert R 1 0.5");
        assert!(!svc.stopping());
        let (resp, keep_open) = svc.handle_line("shutdown");
        assert_eq!(resp, "shutting down\n");
        assert!(!keep_open, "shutdown must close the session");
        assert!(svc.stopping());
        assert!(fired.load(Ordering::Acquire), "hook not fired");
        // Everything acknowledged before the shutdown is on disk.
        drop(svc);
        fs.crash();
        let (_store, rec) = Store::open(fs, dir, StoreOptions::default()).unwrap();
        assert_eq!(rec.info.replayed_ops, 1);
    }

    #[test]
    fn save_and_open_are_refused_over_the_wire() {
        let svc = seeded_service(no_deadline_opts());
        for line in ["save out.pdb", "open out.pdb"] {
            let (resp, keep) = svc.handle_line(line);
            assert!(resp.starts_with("error:"), "{line}: {resp}");
            assert!(keep);
        }
    }

    #[test]
    fn concurrent_sessions_agree_with_single_threaded_evaluation() {
        let svc = seeded_service(no_deadline_opts());
        let mut reference = ProbDb::new();
        reference.insert("R", [1], 0.5);
        reference.insert("S", [1, 2], 0.8);
        let expected = format_answer(
            &reference
                .query("exists x. exists y. R(x) & S(x,y)")
                .unwrap(),
        );
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let svc = svc.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let (resp, _) = svc.handle_line(Q);
                        assert_eq!(resp, expected);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            svc.stats().cache_hits() + svc.stats().cache_misses(),
            8 * 50
        );
    }

    #[test]
    fn a_replica_service_refuses_every_write_and_serves_reads() {
        let status = Arc::new(ReplicaStatus::new());
        let svc = Service::new_replica("127.0.0.1:9", Arc::clone(&status), no_deadline_opts());
        assert!(svc.is_replica());
        for line in [
            "insert R 1 0.5",
            "update R 1 0.7",
            "domain 1 2",
            "view create v query exists x. R(x)",
            "view refresh",
            "view drop v",
        ] {
            let (resp, keep) = svc.handle_line(line);
            assert!(
                resp.contains("read-only replica") && resp.contains("must run on the primary"),
                "{line}: {resp}"
            );
            assert!(keep, "a refused write must not close the session");
        }
        // State arrives via the replication path instead.
        let insert = WalOp::Insert {
            relation: "R".into(),
            tuple: vec![1],
            prob: 0.5,
        };
        ReplicaApply::apply(&svc, 0, &insert).unwrap();
        let (resp, _) = svc.handle_line("query exists x. R(x)");
        assert!(resp.contains("p = 0.500000"), "{resp}");
        let stats = svc.stats_text();
        assert!(
            stats.contains("replication: role=replica primary=127.0.0.1:9"),
            "{stats}"
        );
    }

    #[test]
    fn replication_sync_bootstraps_then_streams_in_wal_order() {
        use pdb_store::{MemFs, StoreOptions};
        let fs = Arc::new(MemFs::new());
        let (store, rec) =
            Store::open(fs, std::path::Path::new("data"), StoreOptions::default()).unwrap();
        let svc = Service::with_store(rec.db, rec.views, store, no_deadline_opts());
        svc.handle_line("insert R 1 0.5");
        svc.handle_line("insert S 1 2 0.8");
        // LSN 0 is unservable from the log's perspective only for a fresh
        // replica: catch-up is a snapshot of the live state.
        let (frames, feed) = svc.replication_sync(0).unwrap();
        assert!(
            matches!(frames.first(), Some(Frame::Snapshot(_))),
            "fresh replicas bootstrap from a snapshot: {frames:?}"
        );
        assert!(
            matches!(frames.last(), Some(Frame::Heartbeat { next_lsn: 2 })),
            "catch-up ends with the primary's head: {frames:?}"
        );
        // Later mutations arrive on the live feed, in WAL order.
        svc.handle_line("update S 1 2 0.4");
        svc.handle_line("insert R 2 0.25");
        match feed.try_recv() {
            Ok(Some(Frame::Record { lsn: 2, op })) => {
                assert!(matches!(op, WalOp::UpdateProb { .. }), "{op:?}")
            }
            other => panic!("expected the update at lsn 2, got {other:?}"),
        }
        match feed.try_recv() {
            Ok(Some(Frame::Record { lsn: 3, op })) => {
                assert!(matches!(op, WalOp::Insert { .. }), "{op:?}")
            }
            other => panic!("expected the insert at lsn 3, got {other:?}"),
        }
        // A resume from an in-log LSN replays the tail instead.
        let (frames, _feed2) = svc.replication_sync(1).unwrap();
        let lsns: Vec<u64> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Record { lsn, .. } => Some(*lsn),
                _ => None,
            })
            .collect();
        assert_eq!(lsns, vec![1, 2, 3], "{frames:?}");
        let stats = svc.stats_text();
        assert!(stats.contains("replication: role=primary"), "{stats}");
        assert!(stats.contains("next_lsn=4"), "{stats}");
    }

    #[test]
    fn snapshot_install_replaces_state_and_resumes_the_stream() {
        // Primary with two tuples and a view.
        let primary = seeded_service(no_deadline_opts());
        primary.handle_line("view create v query exists x. exists y. R(x) & S(x,y)");
        let image = primary.snapshot_image(7);
        // Replica starts empty, installs the image, then applies a record.
        let status = Arc::new(ReplicaStatus::new());
        let replica = Service::new_replica("nowhere:0", status, no_deadline_opts());
        assert_eq!(replica.install_snapshot(&image).unwrap(), 7);
        let (shown, _) = replica.handle_line("view show v");
        assert!(shown.contains("p = 0.400000"), "{shown}");
        let update = WalOp::UpdateProb {
            relation: "S".into(),
            tuple: vec![1, 2],
            prob: 0.4,
        };
        ReplicaApply::apply(&replica, 7, &update).unwrap();
        let (q, _) = replica.handle_line(Q);
        assert!(q.contains("p = 0.200000"), "{q}");
        // The view absorbed the replicated update incrementally too.
        let (shown, _) = replica.handle_line("view show v");
        assert!(shown.contains("p = 0.200000"), "{shown}");
    }

    #[test]
    fn explain_analyze_renders_the_cascade_span_tree() {
        let svc = seeded_service(no_deadline_opts());
        let (resp, keep) = svc.handle_line("explain analyze exists x. exists y. R(x) & S(x,y)");
        assert!(keep);
        assert!(resp.contains("p = 0.400000"), "{resp}");
        // The span tree follows the answer: root query span with the chosen
        // engine, service stages, and the engine stage from pdb-core.
        assert!(resp.contains("query "), "{resp}");
        assert!(resp.contains("engine=Lifted"), "{resp}");
        assert!(resp.contains("parse "), "{resp}");
        assert!(resp.contains("hit=false"), "{resp}");
        assert!(resp.contains("lifted "), "{resp}");
        // The same trace is served by `trace last`, in both renderings.
        let (last, _) = svc.handle_line("trace last");
        assert!(last.contains("µs total"), "{last}");
        assert!(last.contains("query "), "{last}");
        let (json, _) = svc.handle_line("trace last --json");
        assert!(json.trim_start().starts_with('['), "{json}");
        assert!(json.contains("\"cat\":\"cascade\""), "{json}");
        // A second explain hits the cache and says so in the tree.
        let (again, _) = svc.handle_line("explain analyze exists x. exists y. R(x) & S(x,y)");
        assert!(again.contains("hit=true"), "{again}");
    }

    #[test]
    fn trace_last_without_a_capture_points_at_explain() {
        let svc = seeded_service(no_deadline_opts());
        svc.handle_line(Q); // not traced: no slowlog threshold configured
        let (resp, _) = svc.handle_line("trace last");
        assert!(resp.contains("no trace captured"), "{resp}");
    }

    #[test]
    fn slowlog_captures_queries_over_the_threshold() {
        let svc = seeded_service(ServiceOptions {
            // Zero threshold: every query is "slow" and gets captured.
            slowlog_threshold: Some(Duration::ZERO),
            ..no_deadline_opts()
        });
        let (empty, _) = svc.handle_line("slowlog");
        assert_eq!(empty, "(slowlog empty)\n");
        svc.handle_line(Q);
        let (log, _) = svc.handle_line("slowlog");
        assert!(log.contains("exists x. exists y. R(x) & S(x,y)"), "{log}");
        assert!(log.contains("query "), "slowlog entries carry spans: {log}");
        // The capture is also the last trace.
        let (last, _) = svc.handle_line("trace last");
        assert!(last.contains("µs total"), "{last}");
        // The ring is bounded: flooding it keeps the newest entries.
        for i in 0..(SLOWLOG_CAPACITY + 5) {
            svc.handle_line(&format!("query exists x. R(x) & S(x,{i})"));
        }
        assert_eq!(lock(&svc.inner.slowlog).len(), SLOWLOG_CAPACITY);
    }

    #[test]
    fn metrics_exposition_is_valid_and_covers_every_crate() {
        let svc = seeded_service(no_deadline_opts());
        svc.handle_line(Q);
        let (text, keep) = svc.handle_line("metrics");
        assert!(keep);
        let summary = pdb_obs::expo::validate(&text).expect("valid exposition");
        // At least one counter, gauge, and histogram from each layer.
        for family in [
            "pdb_server_queries_total",
            "pdb_server_connections_active",
            "pdb_server_query_latency_us",
            "pdb_store_wal_appends_total",
            "pdb_store_next_lsn",
            "pdb_store_fsync_us",
            "pdb_replica_records_applied_total",
            "pdb_replica_lag_records",
            "pdb_replica_apply_us",
            "pdb_kernel_evals_total",
            "pdb_kernel_bytes_per_eval",
            "pdb_kernel_program_bytes",
            "pdb_views_recompiles_total",
            "pdb_views_registered",
            "pdb_views_refresh_us",
            "pdb_par_jobs_total",
            "pdb_par_threads",
        ] {
            assert!(summary.kind(family).is_some(), "missing family {family}");
        }
        assert!(
            text.contains("pdb_server_queries_total{engine=\"lifted\"} 1"),
            "{text}"
        );
    }

    /// Every family `metrics` emits, in emission order: `(name, type, help)`.
    #[rustfmt::skip]
    const FAMILIES: [(&str, &str, &str); 37] = [
        ("pdb_server_queries_total", "counter", "queries answered, by engine"),
        ("pdb_server_query_errors_total", "counter", "queries that failed"),
        ("pdb_server_timeouts_total", "counter", "queries degraded to the approximate engine by timeout"),
        ("pdb_server_cache_lookups_total", "counter", "result-cache probes, by outcome"),
        ("pdb_server_cache_entries", "gauge", "live result-cache entries"),
        ("pdb_server_cache_capacity", "gauge", "result-cache capacity"),
        ("pdb_server_connections_active", "gauge", "currently open client connections"),
        ("pdb_server_connections_total", "counter", "client connections accepted"),
        ("pdb_server_query_latency_us", "histogram", "end-to-end query latency, microseconds"),
        ("pdb_server_view_refresh_us", "histogram", "view create/refresh latency, microseconds"),
        ("pdb_kernel_batched_evals_total", "counter", "batched evaluation calls"),
        ("pdb_kernel_bytes_per_eval", "gauge", "average program bytes per evaluation (decode amortization)"),
        ("pdb_kernel_eval_bytes_total", "counter", "program bytes streamed by all evaluations"),
        ("pdb_kernel_evals_total", "counter", "flat-program evaluations (each batch lane counts once)"),
        ("pdb_kernel_flattened_total", "counter", "circuits lowered to flat programs"),
        ("pdb_kernel_program_bytes", "histogram", "flat program size at flatten time, bytes"),
        ("pdb_par_jobs_total", "counter", "tasks executed by the work-stealing pool"),
        ("pdb_par_steals_total", "counter", "tasks that ran on a thread other than the one that queued them"),
        ("pdb_par_threads", "gauge", "configured pool parallelism (including the submitting thread)"),
        ("pdb_par_utilization", "gauge", "fraction of available thread-time spent executing tasks"),
        ("pdb_replica_apply_us", "histogram", "apply latency per streamed record, microseconds"),
        ("pdb_replica_bootstraps_total", "counter", "snapshot bootstraps (initial and forced)"),
        ("pdb_replica_connected_replicas", "gauge", "replicas currently attached to this primary"),
        ("pdb_replica_lag_records", "gauge", "records behind the primary's advertised head"),
        ("pdb_replica_reconnects_total", "counter", "replication sessions that ended and were retried"),
        ("pdb_replica_records_applied_total", "counter", "WAL records applied from the replication stream"),
        ("pdb_replica_streamed_total", "counter", "records streamed to all attached replicas"),
        ("pdb_store_checkpoint_us", "histogram", "checkpoint duration, microseconds"),
        ("pdb_store_checkpoints_total", "counter", "checkpoints completed"),
        ("pdb_store_fsync_us", "histogram", "WAL fsync latency, microseconds"),
        ("pdb_store_next_lsn", "gauge", "LSN the next mutation will get"),
        ("pdb_store_wal_appends_total", "counter", "WAL records appended"),
        ("pdb_store_wal_syncs_total", "counter", "WAL fsyncs issued"),
        ("pdb_views_incremental_total", "counter", "probability updates absorbed incrementally"),
        ("pdb_views_recompiles_total", "counter", "views compiled or rebuilt from scratch"),
        ("pdb_views_refresh_us", "histogram", "view refresh duration, microseconds"),
        ("pdb_views_registered", "gauge", "currently registered views"),
    ];

    fn durable_service(fs: Arc<pdb_store::MemFs>) -> Service {
        let (store, rec) = Store::open(
            fs,
            std::path::Path::new("data"),
            pdb_store::StoreOptions::default(),
        )
        .unwrap();
        Service::with_store(rec.db, rec.views, store, no_deadline_opts())
    }

    /// The unlabelled sample of `family` in a `metrics` payload.
    fn sample(metrics: &str, family: &str) -> String {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(family)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {family} sample in:\n{metrics}"))
            .to_string()
    }

    /// The value of `key=` on the `stats` line starting with `section`.
    fn field(stats: &str, section: &str, key: &str) -> String {
        let line = stats
            .lines()
            .find(|l| l.starts_with(section))
            .unwrap_or_else(|| panic!("no {section} line in:\n{stats}"));
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
            .to_string()
    }

    #[test]
    fn metrics_families_and_headers_are_pinned_for_every_role() {
        let expected: Vec<String> = FAMILIES
            .iter()
            .flat_map(|(name, kind, help)| {
                [
                    format!("# HELP {name} {help}"),
                    format!("# TYPE {name} {kind}"),
                ]
            })
            .collect();
        let replica = Service::new_replica(
            "127.0.0.1:9",
            Arc::new(ReplicaStatus::new()),
            no_deadline_opts(),
        );
        for (role, svc) in [
            ("memory-only", seeded_service(no_deadline_opts())),
            (
                "durable",
                durable_service(Arc::new(pdb_store::MemFs::new())),
            ),
            ("replica", replica),
        ] {
            let (text, _) = svc.handle_line("metrics");
            let headers: Vec<&str> = text.lines().filter(|l| l.starts_with("# ")).collect();
            assert_eq!(headers, expected, "{role}");
        }
    }

    #[test]
    fn stats_payload_is_pinned() {
        // A private 1-thread pool runs every task inline: its counters stay
        // at zero whatever other tests do to the global pool.
        let pool = pdb_par::Pool::new(1);
        pdb_par::with_pool(&pool, || {
            let svc = durable_service(Arc::new(pdb_store::MemFs::new()));
            for line in [
                "insert R 1 0.5",
                "insert S 1 2 0.8",
                "insert T 2 0.4",
                "view create v query exists x. exists y. R(x) & S(x,y)",
                "update S 1 2 0.4",
                Q,
                Q,
                "query exists x. exists y. R(x) & S(x,y) & T(y)",
                "query R(x) @@@",
                "insert S 1 3 0.5",
                "view refresh v",
            ] {
                svc.handle_line(line);
            }
            let (_frames, _feed) = svc.replication_sync(0).unwrap();
            svc.stats().connection_opened();
            svc.stats().connection_opened();
            svc.stats().connection_closed();
            // The kernel counters are process-global and other tests move
            // them: render between two equal readings, check the line
            // against that reading, then mask it.
            let text = loop {
                let k = pdb_kernel::stats();
                let text = svc.stats_text();
                if pdb_kernel::stats() == k {
                    let line = format!(
                        "kernel: flattened={} evals={} batched={} bytes_per_eval={}\n",
                        k.flattened,
                        k.evals,
                        k.batched_evals,
                        k.bytes_per_eval()
                    );
                    assert!(text.contains(&line), "{text}");
                    break text.replace(&line, "kernel: _\n");
                }
            };
            // Latencies are wall-clock: mask their values, keep the counts.
            let masked: String = text
                .lines()
                .map(|l| {
                    if l.starts_with("latency_us:") || l.starts_with("view_refresh_us:") {
                        l.split(' ')
                            .map(|kv| match kv.split_once('=') {
                                Some((k, _)) if k != "samples" => format!("{k}=_"),
                                _ => kv.to_string(),
                            })
                            .collect::<Vec<_>>()
                            .join(" ")
                    } else {
                        l.to_string()
                    }
                })
                .map(|l| l + "\n")
                .collect();
            assert_eq!(
                masked,
                "queries: total=3 lifted=2 safe_plan=0 grounded=1 approximate=0 errors=1\n\
                 cache: hits=1 misses=3 hit_rate=0.250 entries=2 capacity=64\n\
                 latency_us: p50=_ p95=_ max=_ samples=4\n\
                 views: count=1 rows=1 incremental=1 recompiles=2 incremental_ratio=0.333\n\
                 view_refresh_us: p50=_ p95=_ max=_ samples=2\n\
                 pool: threads=1 jobs=0 steals=0 utilization=0.000\n\
                 kernel: _\n\
                 timeouts: 0\n\
                 connections: active=1 total=2\n\
                 replication: role=primary replicas=1 streamed=0 next_lsn=6\n"
            );
        });
    }

    #[test]
    fn stats_and_metrics_agree_on_per_instance_counters() {
        let svc = seeded_service(no_deadline_opts());
        for line in [
            "view create v query exists x. exists y. R(x) & S(x,y)",
            "update S 1 2 0.4",
            "update S 1 2 0.3",
            "update R 1 0.6",
            "insert S 1 3 0.5",
            "view refresh v",
            Q,
            Q,
            "query R(x) @@@",
        ] {
            svc.handle_line(line);
        }
        let (stats, _) = svc.handle_line("stats");
        let (metrics, _) = svc.handle_line("metrics");
        for (key, family) in [
            ("incremental", "pdb_views_incremental_total"),
            ("recompiles", "pdb_views_recompiles_total"),
            ("count", "pdb_views_registered"),
        ] {
            assert_eq!(
                field(&stats, "views:", key),
                sample(&metrics, family),
                "{key}"
            );
        }
        assert_eq!(field(&stats, "views:", "incremental"), "3");
        assert_eq!(field(&stats, "views:", "recompiles"), "2");
        for (key, family) in [
            ("lifted", "pdb_server_queries_total{engine=\"lifted\"}"),
            (
                "safe_plan",
                "pdb_server_queries_total{engine=\"safe_plan\"}",
            ),
            ("grounded", "pdb_server_queries_total{engine=\"grounded\"}"),
            (
                "approximate",
                "pdb_server_queries_total{engine=\"approximate\"}",
            ),
            ("errors", "pdb_server_query_errors_total"),
        ] {
            assert_eq!(
                field(&stats, "queries:", key),
                sample(&metrics, family),
                "{key}"
            );
        }
        for (key, family) in [
            ("hits", "pdb_server_cache_lookups_total{outcome=\"hit\"}"),
            ("misses", "pdb_server_cache_lookups_total{outcome=\"miss\"}"),
            ("entries", "pdb_server_cache_entries"),
            ("capacity", "pdb_server_cache_capacity"),
        ] {
            assert_eq!(
                field(&stats, "cache:", key),
                sample(&metrics, family),
                "{key}"
            );
        }
    }

    #[test]
    fn next_lsn_is_served_right_after_recovery() {
        let fs = Arc::new(pdb_store::MemFs::new());
        {
            let svc = durable_service(fs.clone());
            for line in ["insert R 1 0.5", "insert R 2 0.5", "insert R 3 0.5"] {
                svc.handle_line(line);
            }
        }
        // Another store's append must not leak into this server's head.
        durable_service(Arc::new(pdb_store::MemFs::new())).handle_line("insert R 9 0.5");
        // Reopen and scrape with no write in between.
        let svc = durable_service(fs);
        let (metrics, _) = svc.handle_line("metrics");
        assert_eq!(sample(&metrics, "pdb_store_next_lsn"), "3");
    }

    #[test]
    fn shutdown_broadcasts_to_replica_feeds() {
        use pdb_store::{MemFs, StoreOptions};
        let fs = Arc::new(MemFs::new());
        let (store, rec) =
            Store::open(fs, std::path::Path::new("data"), StoreOptions::default()).unwrap();
        let svc = Service::with_store(rec.db, rec.views, store, no_deadline_opts());
        svc.handle_line("insert R 1 0.5");
        let (_frames, feed) = svc.replication_sync(0).unwrap();
        svc.handle_line("shutdown");
        let mut saw_shutdown = false;
        while let Ok(Some(f)) = feed.try_recv() {
            if matches!(f, Frame::Shutdown) {
                saw_shutdown = true;
            }
        }
        assert!(saw_shutdown, "graceful drain must notify replicas");
    }
}
