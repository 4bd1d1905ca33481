//! pdb-par — an in-tree, dependency-free work-stealing thread pool.
//!
//! The engine cascade (lifted → grounded DPLL → Karp–Luby) is wall-clock
//! bound on three embarrassingly- or nearly-embarrassingly-parallel loops:
//! per-answer-row PQE, Monte-Carlo sample chunks, and independent DPLL
//! components. This crate gives those loops a shared pool without pulling
//! rayon into the build, following the repo's offline-shim pattern
//! (`crates/{rand,proptest}`).
//!
//! Design:
//!
//! - `Pool::new(n)` starts `n - 1` worker threads; the thread that submits
//!   work always participates, so a pool of size 1 spawns nothing and runs
//!   every task inline — the serial fallback is *exactly* the sequential
//!   program, not a one-thread simulation of the parallel one.
//! - Each worker owns a deque: it pops its own back (LIFO, cache-hot for
//!   recursive decomposition) and steals from other queues' fronts (FIFO,
//!   grabs the oldest — biggest — pending subtree). One extra queue acts as
//!   the submission inbox for non-worker threads.
//! - Blocking on a `scope`/`join`/`parallel_map` *helps*: the waiting thread
//!   drains pool jobs until its latch opens, so nested parallelism cannot
//!   deadlock — every waiter is also an executor.
//! - Panics inside tasks are caught, the scope drains, and the first payload
//!   is re-raised on the calling thread.
//!
//! The global pool is sized from `PROBDB_THREADS` (falling back to
//! `available_parallelism`). [`with_pool`] installs a thread-local override
//! so tests and benches can compare explicit pool sizes in one process;
//! tasks inherit the pool they run on, so nested engine calls stay on it.

#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send>;
type PanicPayload = Box<dyn std::any::Any + Send>;

/// Completion latch for one batch of spawned tasks.
///
/// `pending` counts outstanding tasks; the waiter parks on `cv` (with a short
/// timeout so it can keep helping) and the last `done` notifies. The first
/// panic payload from any task is stashed and re-raised by the waiter.
struct Latch {
    pending: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    panic: Mutex<Option<PanicPayload>>,
}

impl Latch {
    fn new() -> Arc<Latch> {
        Arc::new(Latch {
            pending: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    fn add(&self) {
        self.pending.fetch_add(1, Ordering::AcqRel);
    }

    fn done(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Taking the lock orders this notify after the waiter's re-check,
            // closing the missed-wakeup window.
            let _guard = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    fn open(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }

    fn record_panic(&self, payload: PanicPayload) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// One deque per worker plus a trailing submission inbox for
    /// non-worker threads. Owners pop the back; thieves pop the front.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Fire-and-forget jobs ([`Pool::spawn_detached`]). Kept out of the
    /// work-stealing deques on purpose: only idle workers pop here, never
    /// a thread helping inside [`Pool::wait`]. A waiter that picked up a
    /// detached job (e.g. a background checkpoint) while its caller holds
    /// engine locks could re-enter those locks and deadlock — detached
    /// work has no latch, so nothing would ever unblock it.
    detached: Mutex<VecDeque<Job>>,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    jobs: AtomicU64,
    steals: AtomicU64,
    busy_ns: AtomicU64,
}

impl Shared {
    fn push(&self, queue: usize, job: Job) {
        self.queues[queue].lock().unwrap().push_back(job);
        let _guard = self.sleep.lock().unwrap();
        self.wake.notify_one();
    }

    fn push_detached(&self, job: Job) {
        self.detached.lock().unwrap().push_back(job);
        let _guard = self.sleep.lock().unwrap();
        self.wake.notify_one();
    }

    /// Pop from our own queue's back, else steal from the fronts of the
    /// others, scanning round-robin from our right-hand neighbour.
    /// Structured work only — detached jobs are reserved for idle workers
    /// (see [`Shared::detached`]).
    fn try_pop(&self, home: usize) -> Option<Job> {
        if let Some(job) = self.queues[home].lock().unwrap().pop_back() {
            return Some(job);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (home + offset) % n;
            if let Some(job) = self.queues[victim].lock().unwrap().pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    fn try_pop_detached(&self) -> Option<Job> {
        self.detached.lock().unwrap().pop_front()
    }

    fn has_jobs(&self) -> bool {
        self.queues.iter().any(|q| !q.lock().unwrap().is_empty())
            || !self.detached.lock().unwrap().is_empty()
    }
}

struct Inner {
    shared: Arc<Shared>,
    threads: usize,
    id: usize,
    created: Instant,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.sleep.lock().unwrap();
            self.shared.wake.notify_all();
        }
        let handles: Vec<JoinHandle<()>> = self.workers.lock().unwrap().drain(..).collect();
        // If the last pool handle is dropped *on one of this pool's own
        // workers* (a task clone outliving the owner), the thread cannot
        // join itself or block on its siblings; detach instead — every
        // worker exits on its own once it observes the shutdown flag.
        // `try_with` covers TLS teardown, where we conservatively detach.
        let on_own_worker = WORKER
            .try_with(|slot| matches!(*slot.borrow(), Some((pool, _)) if pool == self.id))
            .unwrap_or(true);
        if on_own_worker {
            return;
        }
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// A work-stealing thread pool. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Pool {
    inner: Arc<Inner>,
}

/// Point-in-time pool counters, for the server stats endpoint and benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolStats {
    /// Configured parallelism (including the submitting thread).
    pub threads: usize,
    /// Tasks executed since the pool was created.
    pub jobs: u64,
    /// Tasks that ran on a thread other than the one that queued them.
    pub steals: u64,
    /// Total time spent inside tasks, summed across threads.
    pub busy: Duration,
    /// Wall-clock age of the pool.
    pub uptime: Duration,
}

impl PoolStats {
    /// Fraction of available thread-time spent executing tasks, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let capacity = self.uptime.as_secs_f64() * self.threads as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        (self.busy.as_secs_f64() / capacity).min(1.0)
    }
}

thread_local! {
    /// `(pool id, queue index)` when the current thread is a pool worker.
    static WORKER: RefCell<Option<(usize, usize)>> = const { RefCell::new(None) };
    /// Stack of `with_pool` overrides; the top is the current pool.
    static CURRENT: RefCell<Vec<Pool>> = const { RefCell::new(Vec::new()) };
}

static POOL_IDS: AtomicUsize = AtomicUsize::new(0);
static GLOBAL: OnceLock<Pool> = OnceLock::new();
static GLOBAL_THREADS: OnceLock<usize> = OnceLock::new();

/// Pin the global pool's size before it is first used (e.g. from a
/// `--threads` CLI flag). Returns `false` if the global pool already exists,
/// in which case the request had no effect. Takes precedence over
/// `PROBDB_THREADS`.
pub fn configure_global_threads(threads: usize) -> bool {
    GLOBAL_THREADS.set(threads.max(1)).is_ok() && GLOBAL.get().is_none()
}

fn default_threads() -> usize {
    if let Some(&n) = GLOBAL_THREADS.get() {
        return n;
    }
    if let Ok(value) = std::env::var("PROBDB_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process-wide pool, sized from `PROBDB_THREADS` (or, failing that,
/// `available_parallelism`). Created on first use.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

/// The pool the current thread should use: the innermost [`with_pool`]
/// override if one is active (pool tasks inherit the pool they run on),
/// otherwise the global pool.
pub fn current() -> Pool {
    CURRENT
        .with(|stack| stack.borrow().last().cloned())
        .unwrap_or_else(|| global().clone())
}

/// Run `f` with `pool` installed as the current pool for this thread.
/// Engine entry points pick the pool up via [`current`], so this is how
/// tests and benches compare explicit pool sizes within one process.
pub fn with_pool<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    let _guard = CurrentGuard::push(pool.clone());
    f()
}

struct CurrentGuard;

impl CurrentGuard {
    fn push(pool: Pool) -> CurrentGuard {
        CURRENT.with(|stack| stack.borrow_mut().push(pool));
        CurrentGuard
    }
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

impl Pool {
    /// Create a pool of total parallelism `threads` (clamped to ≥ 1).
    /// Spawns `threads - 1` workers: the submitting thread is the last
    /// executor, so `Pool::new(1)` spawns nothing and runs inline.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let workers = threads - 1;
        // Workers own queues 0..workers; the last queue is the inbox for
        // submissions from threads outside the pool.
        let shared = Arc::new(Shared {
            queues: (0..workers + 1)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            detached: Mutex::new(VecDeque::new()),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        });
        let id = POOL_IDS.fetch_add(1, Ordering::Relaxed);
        let mut handles = Vec::with_capacity(workers);
        for queue in 0..workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("pdb-par-{id}-{queue}"))
                .spawn(move || worker_loop(&shared, id, queue))
                .expect("spawn pool worker");
            handles.push(handle);
        }
        Pool {
            inner: Arc::new(Inner {
                shared,
                threads,
                id,
                created: Instant::now(),
                workers: Mutex::new(handles),
            }),
        }
    }

    /// Total parallelism, including the submitting thread.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let shared = &self.inner.shared;
        PoolStats {
            threads: self.inner.threads,
            jobs: shared.jobs.load(Ordering::Relaxed),
            steals: shared.steals.load(Ordering::Relaxed),
            busy: Duration::from_nanos(shared.busy_ns.load(Ordering::Relaxed)),
            uptime: self.inner.created.elapsed(),
        }
    }

    /// The queue this thread should push to and pop from first: its own
    /// deque if it is a worker of this pool, else the submission inbox.
    fn home_queue(&self) -> usize {
        let inbox = self.inner.shared.queues.len() - 1;
        WORKER.with(|slot| match *slot.borrow() {
            Some((pool, queue)) if pool == self.inner.id => queue,
            _ => inbox,
        })
    }

    fn execute(&self, job: Job) {
        let shared = &self.inner.shared;
        shared.jobs.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        job();
        shared
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Queue `f` under `latch`, erasing its lifetime to `'static`.
    ///
    /// # Safety
    ///
    /// The caller must not return or unwind past the lifetime of `f`'s
    /// borrows before `wait(latch)` has returned: every spawned task is
    /// counted on the latch, `wait` blocks until the count drains (catching
    /// task panics), and each structured entry point below waits even when
    /// its own body panics — so the borrows outlive the task.
    unsafe fn spawn_erased<'a>(&self, latch: &Arc<Latch>, f: Box<dyn FnOnce() + Send + 'a>) {
        latch.add();
        let latch = Arc::clone(latch);
        let pool = self.clone();
        // SAFETY: only the lifetime is erased — the vtable and layout of a
        // `Box<dyn FnOnce + Send>` do not depend on `'a`. The fn's own
        // contract (see `# Safety` above) guarantees the borrows behind `f`
        // stay live until `wait(latch)` drains the task.
        let mut f: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(f) };
        // A task submitted under a tracer carries it and the open span, so
        // spans it opens on a worker join the submitter's tree. An untraced
        // submit pays one relaxed load and queues the same job as before.
        if pdb_obs::tracing_enabled() {
            let trace = pdb_obs::TraceContext::capture();
            f = Box::new(move || trace.run(f));
        }
        let job: Job = Box::new(move || {
            // Tasks inherit the pool they run on, so nested engine calls
            // (e.g. a DPLL inside a parallel answer row) reuse it instead of
            // silently falling back to the global pool.
            let guard = CurrentGuard::push(pool);
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                latch.record_panic(payload);
            }
            // Release this task's pool handle *before* opening the latch:
            // once `done` fires the waiter may drop its own handle, and the
            // last handle must not be dropped on a worker thread
            // (`Inner::drop` would have to join the thread it runs on).
            drop(guard);
            latch.done();
        });
        self.inner.shared.push(self.home_queue(), job);
    }

    /// Block until `latch` opens, executing queued pool jobs while waiting
    /// (so nested scopes cannot deadlock), then re-raise any task panic.
    fn wait(&self, latch: &Latch) {
        let home = self.home_queue();
        while !latch.open() {
            if let Some(job) = self.inner.shared.try_pop(home) {
                self.execute(job);
            } else {
                let guard = latch.lock.lock().unwrap();
                if latch.open() {
                    break;
                }
                // Short timeout: a new helpable job may arrive without a
                // latch notification.
                drop(
                    latch
                        .cv
                        .wait_timeout(guard, Duration::from_micros(200))
                        .unwrap(),
                );
            }
        }
        if let Some(payload) = latch.panic.lock().unwrap().take() {
            panic::resume_unwind(payload);
        }
    }

    /// Structured fork-join region: tasks spawned on the scope may borrow
    /// from the enclosing stack frame; all of them complete before `scope`
    /// returns (or unwinds).
    pub fn scope<'env, R>(&self, body: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let scope = Scope {
            pool: self,
            latch: Latch::new(),
            _env: std::marker::PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| body(&scope)));
        self.wait(&scope.latch);
        match result {
            Ok(value) => value,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Run two closures, potentially in parallel, and return both results.
    /// `a` runs on the calling thread; `b` is queued for stealing.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        if self.inner.threads == 1 {
            let ra = a();
            let rb = b();
            return (ra, rb);
        }
        let slot: Mutex<Option<RB>> = Mutex::new(None);
        let latch = Latch::new();
        // SAFETY: the task borrows `slot` and `b`, both of which outlive
        // `self.wait(&latch)` below — and `wait` runs unconditionally (the
        // unwind from `a` is caught first), so the borrows stay live until
        // the latch confirms the task finished.
        unsafe {
            self.spawn_erased(
                &latch,
                Box::new(|| {
                    // The arm runs before the lock is taken: the critical
                    // section is the store alone.
                    let rb = b();
                    *slot.lock().unwrap() = Some(rb);
                }),
            );
        }
        let ra = panic::catch_unwind(AssertUnwindSafe(a));
        self.wait(&latch);
        match ra {
            Ok(ra) => {
                let rb = slot.into_inner().unwrap().expect("join task completed");
                (ra, rb)
            }
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Map `f` over owned items, potentially in parallel. Results come back
    /// in input order; a pool of size 1 reduces to `items.into_iter().map(f)`.
    pub fn parallel_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Send + Sync,
    {
        if self.inner.threads == 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
        let latch = Latch::new();
        let f = &f;
        for (slot, item) in slots.iter().zip(items) {
            // SAFETY: each task borrows its `slot` and the shared `f`;
            // `self.wait(&latch)` directly below blocks until every task
            // has run (or panicked and been recorded), so neither borrow
            // can dangle.
            unsafe {
                self.spawn_erased(
                    &latch,
                    Box::new(move || {
                        let r = f(item);
                        *slot.lock().unwrap() = Some(r);
                    }),
                );
            }
        }
        self.wait(&latch);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("parallel_map task completed")
            })
            .collect()
    }

    /// Fire-and-forget: queue `f` for execution with no completion latch
    /// (the store uses this for background checkpoints). On a pool of
    /// size 1 there are no workers, so `f` runs inline before returning.
    /// Panics inside `f` are caught and swallowed — there is no waiter to
    /// re-raise them on. `f` must not capture the last handle to this
    /// pool (dropping it on a worker would try to join that worker).
    ///
    /// Detached jobs go to a dedicated queue drained only by **idle
    /// workers**, never by a thread helping inside a structured wait: a
    /// helper may be deep in engine code holding locks, and a detached job
    /// (checkpoint, WAL ship) that re-acquires them would deadlock with no
    /// latch to break the tie.
    pub fn spawn_detached(&self, f: impl FnOnce() + Send + 'static) {
        if self.inner.threads == 1 {
            let _ = panic::catch_unwind(AssertUnwindSafe(f));
            return;
        }
        let job: Job = Box::new(move || {
            let _ = panic::catch_unwind(AssertUnwindSafe(f));
        });
        self.inner.shared.push_detached(job);
    }

    /// `parallel_map` over `0..n` — the shape sample-chunk sharding wants.
    pub fn map_indices<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Send + Sync,
    {
        self.parallel_map((0..n).collect(), f)
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.inner.threads)
            .finish()
    }
}

/// Handle for spawning borrowing tasks inside [`Pool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool Pool,
    latch: Arc<Latch>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawn a task that may borrow from the scope's environment. On a
    /// pool of size 1 the task runs immediately, inline.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        if self.pool.inner.threads == 1 {
            f();
            return;
        }
        // SAFETY: `f` borrows at most `'env` data. `Pool::scope` waits on
        // this latch before returning — even when the scope body panics —
        // and the `'env` invariance on `Scope` keeps the environment alive
        // for the whole scope call, so the erased borrows cannot dangle.
        unsafe {
            self.pool.spawn_erased(&self.latch, Box::new(f));
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, pool_id: usize, queue: usize) {
    WORKER.with(|slot| *slot.borrow_mut() = Some((pool_id, queue)));
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Structured work first; detached background jobs fill idle time.
        let next = shared.try_pop(queue).or_else(|| shared.try_pop_detached());
        if let Some(job) = next {
            shared.jobs.fetch_add(1, Ordering::Relaxed);
            let start = Instant::now();
            job();
            shared
                .busy_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        } else {
            let guard = shared.sleep.lock().unwrap();
            // Re-check under the lock: pushes enqueue before notifying under
            // this same lock, so an empty re-check here means the next push's
            // notify cannot be missed.
            if shared.shutdown.load(Ordering::Acquire) || shared.has_jobs() {
                continue;
            }
            drop(shared.wake.wait(guard).unwrap());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn serial_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut hits = 0u32;
        pool.scope(|scope| {
            scope.spawn(|| hits += 1);
            // Inline execution: the effect is visible immediately after
            // spawn returns on a serial pool... observed after the scope.
        });
        assert_eq!(hits, 1);
        let (a, b) = pool.join(|| 2, || 3);
        assert_eq!((a, b), (2, 3));
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let out = pool.parallel_map((0..100u64).collect(), |x| x * x);
            assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scope_tasks_borrow_the_stack() {
        let pool = Pool::new(4);
        let counter = AtomicU32::new(0);
        pool.scope(|scope| {
            for _ in 0..64 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn join_runs_both_sides() {
        let pool = Pool::new(4);
        let (a, b) = pool.join(
            || (0..1000u64).sum::<u64>(),
            || (0..100u64).product::<u64>(),
        );
        assert_eq!(a, 499_500);
        assert_eq!(b, 0);
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let pool = Pool::new(3);
        let totals = pool.map_indices(8, |i| {
            let inner = current();
            assert_eq!(inner.threads(), 3, "tasks inherit the pool they run on");
            inner
                .map_indices(8, |j| (i * 8 + j) as u64)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(totals.iter().sum::<u64>(), (0..64).sum::<u64>());
    }

    #[test]
    fn task_panic_propagates_to_the_waiter() {
        let pool = Pool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("task boom"));
                scope.spawn(|| {});
            });
        }));
        assert!(result.is_err());
        // The pool survives: workers caught the panic and keep serving.
        assert_eq!(pool.map_indices(4, |i| i).len(), 4);
    }

    #[test]
    fn with_pool_overrides_current() {
        let small = Pool::new(1);
        let big = Pool::new(5);
        with_pool(&big, || {
            assert_eq!(current().threads(), 5);
            with_pool(&small, || assert_eq!(current().threads(), 1));
            assert_eq!(current().threads(), 5);
        });
    }

    #[test]
    fn stats_count_jobs() {
        let pool = Pool::new(2);
        pool.map_indices(32, |i| i);
        let stats = pool.stats();
        assert_eq!(stats.threads, 2);
        assert!(stats.jobs >= 32, "jobs={}", stats.jobs);
        assert!(stats.utilization() >= 0.0 && stats.utilization() <= 1.0);
    }

    #[test]
    fn dropping_the_pool_right_after_use_is_safe() {
        // Regression: tasks hold a transient `Pool` clone (the inherited
        // `current()` override). Dropping the owner's handle immediately
        // after the structured wait must never leave a worker to drop the
        // last reference and join itself.
        for round in 0..50 {
            let pool = Pool::new(3);
            let sum: usize = pool
                .parallel_map((0..16).collect(), |i| i)
                .into_iter()
                .sum();
            assert_eq!(sum, 120, "round {round}");
            drop(pool);
        }
    }

    #[test]
    fn spawn_detached_runs_inline_on_a_serial_pool() {
        let pool = Pool::new(1);
        let hit = Arc::new(AtomicBool::new(false));
        let h = Arc::clone(&hit);
        pool.spawn_detached(move || h.store(true, Ordering::Release));
        assert!(hit.load(Ordering::Acquire), "serial pool must run inline");
    }

    #[test]
    fn spawn_detached_runs_on_a_worker_and_survives_panics() {
        let pool = Pool::new(3);
        pool.spawn_detached(|| panic!("detached boom"));
        let hit = Arc::new(AtomicBool::new(false));
        let h = Arc::clone(&hit);
        pool.spawn_detached(move || h.store(true, Ordering::Release));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !hit.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "detached job never ran");
            std::thread::yield_now();
        }
        // The panic was swallowed; the pool still executes structured work.
        assert_eq!(pool.map_indices(4, |i| i).len(), 4);
    }

    #[test]
    fn helping_waiters_never_run_detached_jobs() {
        // Regression: detached jobs used to land in the work-stealing
        // deques, so a thread blocked in a structured wait could pick one
        // up. If the waiter entered the wait while holding a lock the
        // detached job needs (the checkpoint-during-query shape), that was
        // a self-deadlock. With the dedicated detached queue the map below
        // completes while we hold the lock the detached job wants.
        let pool = Pool::new(2);
        let lock = Arc::new(Mutex::new(()));
        let guard = lock.lock().unwrap();
        let l2 = Arc::clone(&lock);
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        pool.spawn_detached(move || {
            let _g = l2.lock().unwrap();
            r2.store(true, Ordering::Release);
        });
        let out = pool.parallel_map((0..64usize).collect(), |i| i * 2);
        assert_eq!(out.len(), 64);
        drop(guard);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ran.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "detached job never ran");
            std::thread::yield_now();
        }
    }

    #[test]
    fn map_indices_handles_empty_and_single() {
        let pool = Pool::new(4);
        assert_eq!(pool.map_indices(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indices(1, |i| i + 7), vec![7]);
    }
}
