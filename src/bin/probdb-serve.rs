//! `probdb-serve` — the concurrent TCP query service.
//!
//! ```text
//! $ cargo run --release --bin probdb-serve -- --addr 127.0.0.1:7171 --workers 8
//! probdb-serve listening on 127.0.0.1:7171 (8 workers)
//! $ printf 'insert R 1 0.5\nquery exists x. R(x)\nquit\n' | nc 127.0.0.1 7171
//! .
//! p = 0.500000  (engine: Lifted)
//! .
//! .
//! ```
//!
//! Speaks the same line protocol as `probdb-cli` (see
//! [`probdb::server::protocol`]); each response is terminated by a line
//! containing a single `.`. Options:
//!
//! - `--addr HOST:PORT` — bind address (default `127.0.0.1:7171`)
//! - `--workers N` — worker threads = max concurrent sessions (default 4)
//! - `--threads N` — engine thread-pool size shared by every query
//!   (parallel DPLL components, Karp–Luby chunks, answer rows, view
//!   builds); defaults to `PROBDB_THREADS`, else the hardware parallelism
//! - `--timeout-ms MS` — wall-clock budget per `query`/`answers`/`open`,
//!   checked by the engine itself: when it runs out the exact work stops
//!   and a `query` degrades to the approximate engine (`answers`/`open`
//!   reply `deadline exceeded`); `0` disables (default 10000)
//! - `--cache-capacity N` — result-cache entries (default 1024)
//! - `--slowlog-threshold MS` — trace every query and capture any that
//!   takes at least MS milliseconds into the slowlog ring (`slowlog` /
//!   `trace last` commands); `0` captures every query. Off by default
//!   (spans then cost one atomic load each).
//! - `--preload FILE` — run a script of commands (typically `insert`/
//!   `domain` lines) before accepting connections
//! - `--data-dir DIR` — serve durably: recover from `DIR` on start, WAL
//!   every mutation before acknowledging it, checkpoint in the background
//! - `--fsync always|never|interval:MS` — WAL fsync policy (default
//!   `always`; only meaningful with `--data-dir`)
//! - `--checkpoint-every N` — snapshot + truncate the log every N records
//!   (`0` disables; default 1024; only meaningful with `--data-dir`)
//! - `--replica-of HOST:PORT` — serve as a **read-only replica**: bootstrap
//!   from the primary's snapshot, then continuously apply its replicated
//!   WAL stream. Serves every query command; refuses writes with a typed
//!   error. Incompatible with `--data-dir` and `--preload` (the replica's
//!   state belongs to the primary).
//!
//! `SIGTERM`/`SIGINT` trigger the same graceful path as the wire
//! `shutdown` command: drain in-flight sessions, flush + fsync the WAL,
//! then exit. A durable primary also broadcasts a shutdown frame to its
//! replicas so they mark it down immediately.

use probdb::replica::{start_replica, ReplicaHandle, ReplicaOptions, ReplicaStatus, TcpConnector};
use probdb::server::protocol::{parse_command, Command};
use probdb::server::{serve_service, ServerOptions, Service, ServiceOptions};
use probdb::store::{FsyncPolicy, RealFs, Store, StoreOptions};
use probdb::ProbDb;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: probdb-serve [--addr HOST:PORT] [--workers N] [--threads N] \
         [--timeout-ms MS] [--cache-capacity N] [--slowlog-threshold MS] \
         [--preload FILE] \
         [--data-dir DIR] [--fsync always|never|interval:MS] [--checkpoint-every N] \
         [--replica-of HOST:PORT]"
    );
    std::process::exit(2);
}

struct Args {
    opts: ServerOptions,
    preload: Option<String>,
    data_dir: Option<PathBuf>,
    store_opts: StoreOptions,
    replica_of: Option<String>,
    slowlog_threshold: Option<Duration>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        opts: ServerOptions::default(),
        preload: None,
        data_dir: None,
        store_opts: StoreOptions::default(),
        replica_of: None,
        slowlog_threshold: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => parsed.opts.addr = value("--addr"),
            "--workers" => {
                parsed.opts.workers = value("--workers").parse().unwrap_or_else(|_| usage())
            }
            "--threads" => {
                let n: usize = value("--threads").parse().unwrap_or_else(|_| usage());
                // Must win the race with first pool use, so it is set here —
                // before the preload script or server issue any query.
                if !probdb::par::configure_global_threads(n) {
                    eprintln!("--threads: engine pool already initialized; flag ignored");
                }
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms").parse().unwrap_or_else(|_| usage());
                parsed.opts.query_timeout = Duration::from_millis(ms);
            }
            "--cache-capacity" => {
                parsed.opts.cache_capacity = value("--cache-capacity")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--slowlog-threshold" => {
                let ms: u64 = value("--slowlog-threshold")
                    .parse()
                    .unwrap_or_else(|_| usage());
                parsed.slowlog_threshold = Some(Duration::from_millis(ms));
            }
            "--preload" => parsed.preload = Some(value("--preload")),
            "--replica-of" => parsed.replica_of = Some(value("--replica-of")),
            "--data-dir" => parsed.data_dir = Some(PathBuf::from(value("--data-dir"))),
            "--fsync" => {
                parsed.store_opts.fsync =
                    FsyncPolicy::parse(&value("--fsync")).unwrap_or_else(|| {
                        eprintln!("--fsync: expected always, never, or interval:MS");
                        usage()
                    })
            }
            "--checkpoint-every" => {
                parsed.store_opts.checkpoint_every = value("--checkpoint-every")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    parsed
}

/// Set by the signal handler; the main loop polls it and initiates the
/// same graceful shutdown the wire `shutdown` command performs.
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_term(_signum: i32) {
        // Only async-signal-safe work here: a single atomic store.
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C standard library function; the handler is a
    // non-capturing `extern "C" fn(i32)` whose body performs exactly one
    // atomic store into a `static`, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        signal(SIGINT, on_term as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Applies a preload script through the service layer — so with
/// `--data-dir` every preloaded mutation is WAL-logged exactly like one
/// arriving over the wire. Query-like commands run too (their output goes
/// to stderr) so a script can sanity-check itself.
fn preload(service: &Service, path: &str) -> Result<u64, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut applied = 0u64;
    for (lineno, line) in content.lines().enumerate() {
        let at = |msg: &str| format!("{path}:{}: {msg}", lineno + 1);
        match parse_command(line).map_err(|e| at(&e))? {
            Command::Nothing => {}
            Command::Insert { .. } | Command::Domain(_) => {
                let (response, _) = service.handle_line(line);
                if !response.is_empty() {
                    // A durable store refusing the write (wedged WAL, full
                    // disk) must abort startup, not serve a silent subset.
                    return Err(at(response.trim_end()));
                }
                applied += 1;
            }
            Command::Query(_) => {
                let (response, _) = service.handle_line(line);
                eprintln!("{path}: {}", response.trim_end());
            }
            other => return Err(at(&format!("{other:?} is not allowed in a preload script"))),
        }
    }
    Ok(applied)
}

fn main() {
    let args = parse_args();
    install_signal_handlers();
    let service_opts = ServiceOptions {
        query_timeout: args.opts.query_timeout,
        cache_capacity: args.opts.cache_capacity,
        slowlog_threshold: args.slowlog_threshold,
        ..ServiceOptions::default()
    };
    let mut replica_client: Option<ReplicaHandle> = None;
    let service = if let Some(primary) = &args.replica_of {
        if args.data_dir.is_some() || args.preload.is_some() {
            eprintln!("--replica-of is incompatible with --data-dir and --preload: a replica's state comes from its primary");
            std::process::exit(2);
        }
        let status = Arc::new(ReplicaStatus::new());
        let service = Service::new_replica(primary.clone(), Arc::clone(&status), service_opts);
        replica_client = Some(start_replica(
            Arc::new(service.clone()),
            Box::new(TcpConnector::new(primary.clone())),
            status,
            ReplicaOptions::default(),
        ));
        eprintln!("replicating from {primary} (read-only)");
        service
    } else {
        match &args.data_dir {
            Some(dir) => match Store::open(Arc::new(RealFs), dir, args.store_opts.clone()) {
                Ok((store, recovered)) => {
                    let info = &recovered.info;
                    eprintln!(
                    "recovered {}: snapshot lsn {}, {} op(s) replayed, {} torn byte(s) dropped, next lsn {}",
                    dir.display(),
                    info.snapshot_lsn,
                    info.replayed_ops,
                    info.truncated_bytes,
                    info.next_lsn,
                );
                    Service::with_store(recovered.db, recovered.views, store, service_opts)
                }
                Err(e) => {
                    eprintln!("cannot open data dir {}: {e}", dir.display());
                    std::process::exit(1);
                }
            },
            None => Service::new(ProbDb::new(), service_opts),
        }
    };
    if let Some(path) = &args.preload {
        match preload(&service, path) {
            Ok(applied) => eprintln!("preloaded {applied} mutation(s) from {path}"),
            Err(e) => {
                eprintln!("preload failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let workers = args.opts.workers;
    match serve_service(service, args.opts) {
        Ok(handle) => {
            eprintln!(
                "probdb-serve listening on {} ({} workers, engine pool: {} threads{})",
                handle.local_addr(),
                workers,
                probdb::par::global().threads(),
                if args.data_dir.is_some() {
                    ", durable"
                } else if args.replica_of.is_some() {
                    ", read-only replica"
                } else {
                    ""
                }
            );
            // Poll instead of blocking in join(): a signal must be able to
            // start the drain, and is_finished() tells us when it is done.
            loop {
                if TERM.swap(false, Ordering::SeqCst) && !handle.service().stopping() {
                    eprintln!("signal received: draining sessions and flushing the log");
                    // Same code path as the wire command — flushes + fsyncs
                    // the WAL, sets the stop flag, wakes the acceptors.
                    let _ = handle.service().handle_line("shutdown");
                }
                if handle.is_finished() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            // Belt and braces: `shutdown` already flushed, but a worker may
            // have acknowledged one last interval-policy write after it.
            if !handle.service().persist_flush() {
                eprintln!("probdb-serve: final log flush failed");
            }
            // Stop the replication client before the final summary so its
            // thread is not mid-apply while the process tears down.
            if let Some(mut client) = replica_client.take() {
                client.stop();
            }
            handle.join();
        }
        Err(e) => {
            eprintln!("cannot start server: {e}");
            std::process::exit(1);
        }
    }
}
