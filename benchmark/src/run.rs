//! One benchmark run: set the workload's servers up, drive the phases,
//! check the answers, and turn what was measured into named metrics.
//!
//! An untraced run produces the end-to-end metrics and nothing else. A
//! traced run scrapes the servers around its closed loop, adds an open loop,
//! then repeats the workload in-process under bench-side spans, and produces
//! the per-layer metrics; it never feeds an end-to-end number.

use crate::idle::KeepAwake;
use crate::json::Json;
use crate::layers::trace_layers;
use crate::load::{arrivals, closed_loop, open_loop, PhaseLog, Sample, TcpLink};
use crate::metric::Metric;
use crate::server::{
    build_server, connections, delta, histogram_quantile, nproc, repo_root, scrape, Cluster,
    Scrape, SetupTimes,
};
use crate::stats::{median, percentile, ratio, sort, tail_mean};
use crate::verify::{apply_writes, check_answers, check_durability, Durability};
use crate::workload::{Class, Phases, SessionGen, Spec, Workload};
use probdb::ProbDb;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
/// Set-ups beyond the minimum are made only within this much time: where
/// one takes milliseconds, a few more cost nothing and steady the median.
const CHEAP_SETUPS: Duration = Duration::from_millis(500);

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Sample counts behind the percentiles.
    pub samples: Vec<(&'static str, f64)>,
    /// The first failures seen, and what a traced run found worth a line.
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The one-line object the driver reads from the last line of stdout.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

enum Phase {
    Closed(Duration),
    Open {
        window: Duration,
        sessions_per_s: f64,
    },
}

/// Runs one phase on every load connection at once, a thread each.
fn run_phase(
    w: &Workload,
    seed: u64,
    stream: u64,
    links: &mut [TcpLink],
    phase: &Phase,
) -> Vec<PhaseLog> {
    let conns = links.len() as u64;
    // A shared start a moment ahead, so that every thread is already
    // waiting when the phase begins.
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .iter_mut()
            .enumerate()
            .map(|(conn, link)| {
                let conn = conn as u64;
                scope.spawn(move || {
                    let mut gen = SessionGen::new(w, seed, stream, conn, conns);
                    std::thread::sleep(start.saturating_duration_since(Instant::now()));
                    match phase {
                        Phase::Closed(duration) => closed_loop(link, &mut gen, *duration),
                        Phase::Open {
                            window,
                            sessions_per_s,
                        } => {
                            let due = arrivals(seed, conn, sessions_per_s / conns as f64, *window);
                            open_loop(link, &mut gen, &due, start)
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// What the servers report about themselves at one instant, primary first.
struct Observed {
    scrapes: Vec<Scrape>,
    ctx_switches: f64,
    cpu_ms: f64,
}

fn observe(cluster: &mut Cluster) -> Result<Observed, String> {
    let mut scrapes = vec![scrape(&mut cluster.control)?];
    if let Some(replica) = cluster.replica_control.as_mut() {
        scrapes.push(scrape(replica)?);
    }
    Ok(Observed {
        scrapes,
        ctx_switches: cluster.ctx_switches(),
        cpu_ms: cluster.cpu_ms(),
    })
}

/// Everything the load phases produced.
struct Load {
    warm: Vec<PhaseLog>,
    closed: Vec<PhaseLog>,
    open: Vec<PhaseLog>,
    /// The servers just before and just after the closed loop.
    before: Observed,
    after: Observed,
    /// Largest replica lag seen during the closed loop (traced runs).
    lag_records_max: f64,
    peak_rss_mb: f64,
}

fn drive(
    w: &Workload,
    args: &RunArgs,
    phases: Phases,
    cluster: &mut Cluster,
) -> Result<Load, String> {
    let phase_len = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let mut links: Vec<TcpLink> = (0..connections())
        .map(|_| {
            TcpLink::connect(
                cluster.primary.addr,
                cluster.replica.as_ref().map(|r| r.addr),
            )
            .map_err(|e| format!("load connection: {e}"))
        })
        .collect::<Result<_, _>>()?;
    // Only around the load: under the spinners a freshly spawned server
    // sometimes waits a scheduler tick for its first time slice, which made
    // a 5 ms set-up read 5 or 8 ms.
    let _awake = KeepAwake::start(nproc());
    let seed = args.seed;
    let warm = run_phase(
        w,
        seed,
        0,
        &mut links,
        &Phase::Closed(phase_len(phases.warmup)),
    );
    let before = observe(cluster)?;
    // Traced runs watch the replica's lag while the closed loop runs.
    let stop = AtomicBool::new(false);
    let (closed, lag_records_max) = std::thread::scope(|scope| {
        let sampler = match (args.trace, cluster.replica_control.as_mut()) {
            (true, Some(replica)) => Some(scope.spawn(|| {
                let mut max: f64 = 0.0;
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(s) = scrape(replica) {
                        max = max.max(s.get("pdb_replica_lag_records").copied().unwrap_or(0.0));
                    }
                    std::thread::sleep(Duration::from_millis(250));
                }
                max
            })),
            _ => None,
        };
        let phase = Phase::Closed(phase_len(phases.closed));
        let closed = run_phase(w, seed, 1, &mut links, &phase);
        stop.store(true, Ordering::Relaxed);
        let lag = sampler.map_or(0.0, |s| s.join().expect("lag sampler panicked"));
        (closed, lag)
    });
    let after = observe(cluster)?;
    // An untraced run's open share is 0: no session falls due.
    let open = run_phase(
        w,
        seed,
        2,
        &mut links,
        &Phase::Open {
            window: phase_len(phases.open),
            sessions_per_s: w.open_sessions_per_s,
        },
    );
    Ok(Load {
        warm,
        closed,
        open,
        before,
        after,
        lag_records_max,
        peak_rss_mb: cluster.peak_rss_mb(),
    })
}

fn samples_of(logs: &[PhaseLog]) -> Vec<&Sample> {
    logs.iter().flat_map(|l| &l.samples).collect()
}

fn latencies(samples: &[&Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    let mut out: Vec<f64> = samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect();
    sort(&mut out);
    out
}

struct Dirs {
    run: PathBuf,
    out: PathBuf,
}

pub fn run(spec: &Spec, args: &RunArgs) -> Result<RunOutput, String> {
    let full = spec
        .workload(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let w = if args.quick {
        full.quick()
    } else {
        full.clone()
    };
    let promised = promised_metrics(args.trace)?; // fails before the work, not after it
    let bin = build_server()?;
    let out = repo_root().join("benchmark").join("out");
    let dirs = Dirs {
        run: out.join(format!("run-{}-{}", w.name, std::process::id())),
        out,
    };
    std::fs::create_dir_all(&dirs.run).map_err(|e| format!("{}: {e}", dirs.run.display()))?;
    let outcome = run_in(spec, &w, args, &bin, &dirs, &promised);
    let _ = std::fs::remove_dir_all(&dirs.run);
    outcome
}

fn run_in(
    spec: &Spec,
    w: &Workload,
    args: &RunArgs,
    bin: &Path,
    dirs: &Dirs,
    promised: &[(String, String)],
) -> Result<RunOutput, String> {
    let preload = w.preload(args.seed);
    let preload_path = dirs.run.join("preload.pdb");
    std::fs::write(&preload_path, &preload).map_err(|e| format!("preload file: {e}"))?;

    // Set-up: once in a traced run, which reports no set-up time; several
    // times over in an untraced one. The last cluster is kept.
    let wanted = if args.trace { 1 } else { MIN_SETUPS };
    let mut setup_s = Vec::new();
    let mut kept: Option<(Cluster, SetupTimes)> = None;
    let started = Instant::now();
    while setup_s.len() < wanted
        || (!args.trace && setup_s.len() < MAX_SETUPS && started.elapsed() < CHEAP_SETUPS)
    {
        drop(kept.take()); // the previous servers exit before the next start
        let dir = dirs.run.join(format!("cluster-{}", setup_s.len()));
        let (cluster, times) = Cluster::setup(spec, w, bin, &dir, &preload_path)?;
        setup_s.push(times.total_s);
        kept = Some((cluster, times));
    }
    let (mut cluster, setup_times) = kept.expect("at least one set-up");
    sort(&mut setup_s);

    let phases = if args.trace {
        spec.traced
    } else {
        spec.untraced
    };
    let load = drive(w, args, phases, &mut cluster)?;

    // Mirror every acknowledged write, connection by connection: no two
    // connections share a tenant, so their relative order is immaterial.
    let mut mirror = ProbDb::new();
    apply_writes(&mut mirror, preload.lines());
    for conn in 0..connections() as usize {
        for phase in [&load.warm, &load.closed, &load.open] {
            apply_writes(&mut mirror, phase[conn].writes.iter().map(String::as_str));
        }
    }
    let closed = samples_of(&load.closed);
    let open = samples_of(&load.open);
    let mut attempted = (closed.len() + open.len()) as u64;
    let mut failed = closed.iter().chain(&open).filter(|s| !s.ok).count() as u64;
    let mut notes = Vec::new();
    if failed > 0 {
        notes.push(format!(
            "{failed} operations got a malformed reply or the wrong engine; server log ends: {}",
            cluster.primary.log_text().lines().last().unwrap_or("")
        ));
    }
    let mut p50_by_class = BTreeMap::new();
    for class in Class::ALL {
        let v = latencies(&closed, |s| s.class == class);
        if !v.is_empty() {
            p50_by_class.insert(class, median(&v));
        }
    }
    let checks = check_answers(
        w,
        args.seed,
        connections(),
        &mut cluster,
        &mirror,
        &p50_by_class,
    )?;
    let durability = if w.durable {
        Some(check_durability(
            w,
            connections(),
            &mut cluster,
            &mut mirror,
        )?)
    } else {
        None
    };
    for tally in std::iter::once(&checks).chain(durability.as_ref().map(|d| &d.tally)) {
        attempted += tally.attempted;
        failed += tally.failed;
        notes.extend(tally.notes.iter().cloned());
    }

    let reads = latencies(&closed, |s| !s.class.is_write());
    let writes = latencies(&closed, |s| s.class.is_write());
    let mut samples = vec![
        ("closed_reads", reads.len() as f64),
        ("closed_writes", writes.len() as f64),
        ("open_ops", open.len() as f64),
        ("setups", setup_s.len() as f64),
        ("verified_answers", checks.attempted as f64),
    ];
    let metrics = if args.trace {
        // The servers are done; the in-process half gets the cores.
        drop(cluster);
        let budget = Duration::from_secs_f64(args.seconds * phases.in_process);
        let report = trace_layers(spec, w, args.seed, &preload, budget, &dirs.run);
        let trace_path = dirs.out.join(format!("trace-{}.json", w.name));
        std::fs::write(&trace_path, format!("{}\n", report.chrome_trace))
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        samples.push(("traced_requests", report.requests as f64));
        notes.push(format!(
            "cascade stages as a share of the same request's core.query_fo_us (medians): {}",
            report
                .stage_shares
                .iter()
                .map(|(s, share)| format!("{s} {share:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let mut metrics = scraped_metrics(
            spec,
            &load,
            &setup_times,
            durability.as_ref(),
            ratio(failed as f64, attempted as f64),
        );
        // Socket, framing, worker hand-off, and whatever the second
        // connection makes it wait: what the wire adds to the same call made
        // in-process.
        let service_us = report
            .metrics
            .iter()
            .find(|m| m.name == "server.service_us")
            .map_or(0.0, |m| m.value);
        metrics.push(Metric::new(
            "server.net_us",
            (median(&reads) * 1e3 - service_us).max(0.0),
            "us",
        ));
        metrics.extend(report.metrics);
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        notes.push(format!(
            "layer isolation: server.queries_grounded {}, server.cache_hit_ratio {:.3}, \
             store.wal_appends {}, store.syncs_per_append {}, views.incremental_ratio {:.3}",
            value("server.queries_grounded"),
            value("server.cache_hit_ratio"),
            value("store.wal_appends"),
            value("store.syncs_per_append"),
            value("views.incremental_ratio"),
        ));
        metrics
    } else {
        let ok_ops = closed.iter().filter(|s| s.ok).count() as f64;
        let throughput: f64 = load
            .closed
            .iter()
            .map(|l| l.samples.iter().filter(|s| s.ok).count() as f64 / l.elapsed_s)
            .sum();
        vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("throughput_ops_s", throughput, "ops/s"),
            Metric::new("read_p50_ms", median(&reads), "ms"),
            Metric::new("read_tail_ms", tail_mean(&reads), "ms"),
            Metric::new("write_p50_ms", median(&writes), "ms"),
            Metric::new(
                "cpu_ms_per_op",
                (load.after.cpu_ms - load.before.cpu_ms) / ok_ops.max(1.0),
                "ms",
            ),
            Metric::new("peak_rss_mb", load.peak_rss_mb, "MB"),
        ]
    };

    let emitted: BTreeSet<(&str, &str)> =
        metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    let promised: BTreeSet<(&str, &str)> = promised
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    if promised != emitted {
        return Err(format!(
            "metrics differ from BENCHMARK.json: not emitted {:?}, not promised {:?}",
            promised.difference(&emitted).collect::<Vec<_>>(),
            emitted.difference(&promised).collect::<Vec<_>>()
        ));
    }
    Ok(RunOutput {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        samples,
        notes,
    })
}

/// The per-layer metrics read from outside the servers: the load
/// generator's own counts, and the gains of the servers' `metrics` output
/// and `/proc` entries across the closed loop.
fn scraped_metrics(
    spec: &Spec,
    load: &Load,
    setup: &SetupTimes,
    durability: Option<&Durability>,
    fail_ratio: f64,
) -> Vec<Metric> {
    let (before, after) = (&load.before.scrapes, &load.after.scrapes);
    // Σ over the servers of one counter's gain.
    let gained = |key: &str| -> f64 {
        before
            .iter()
            .zip(after)
            .map(|(b, a)| delta(b, a, key))
            .sum()
    };
    let on_primary = |key: &str| delta(&before[0], &after[0], key);
    let on_replica = |key: &str| match (before.get(1), after.get(1)) {
        (Some(b), Some(a)) => delta(b, a, key),
        _ => 0.0,
    };
    let closed = samples_of(&load.closed);
    let open = samples_of(&load.open);
    let reads = latencies(&closed, |s| !s.class.is_write());
    let writes = latencies(&closed, |s| s.class.is_write());
    let collect = |f: fn(&PhaseLog) -> &Vec<f64>| -> Vec<f64> {
        let mut v: Vec<f64> = load
            .open
            .iter()
            .flat_map(|l| f(l).iter().copied())
            .collect();
        sort(&mut v);
        v
    };
    let (lag, sessions) = (collect(|l| &l.lag_ms), collect(|l| &l.session_ms));
    let slo_misses = open
        .iter()
        .filter(|s| !s.ok || s.ms > spec.limit_ms(s.class))
        .count() as f64;
    let sent = closed.iter().chain(&open);

    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };
    push("loadgen.sent", sent.clone().count() as f64, "count");
    push(
        "loadgen.ok",
        sent.clone().filter(|s| s.ok).count() as f64,
        "count",
    );
    push(
        "loadgen.failed",
        sent.filter(|s| !s.ok).count() as f64,
        "count",
    );
    push("loadgen.fail_ratio", fail_ratio, "ratio");
    push(
        "loadgen.slo_miss_ratio",
        ratio(slo_misses, open.len() as f64),
        "ratio",
    );
    push("loadgen.sched_lag_p95_ms", percentile(&lag, 0.95), "ms");
    // The plain tail percentiles and the open-loop session latencies, which
    // proved too unsteady between seeds to carry a bound (README,
    // Steadiness).
    push("loadgen.read_p95_ms", percentile(&reads, 0.95), "ms");
    push("loadgen.write_p95_ms", percentile(&writes, 0.95), "ms");
    push("loadgen.write_tail_ms", tail_mean(&writes), "ms");
    push("loadgen.open_p50_ms", median(&sessions), "ms");
    push("loadgen.open_p95_ms", percentile(&sessions, 0.95), "ms");
    for class in Class::ALL {
        let v = latencies(&closed, |s| s.class == class);
        let name = class.name();
        push(&format!("class.{name}.p50_ms"), median(&v), "ms");
        push(&format!("class.{name}.p99_ms"), percentile(&v, 0.99), "ms");
        push(&format!("class.{name}.count"), v.len() as f64, "count");
    }

    let hits = gained("pdb_server_cache_lookups_total{outcome=\"hit\"}");
    let lookups = hits + gained("pdb_server_cache_lookups_total{outcome=\"miss\"}");
    push("server.cache_hit_ratio", ratio(hits, lookups), "ratio");
    for engine in ["lifted", "grounded", "approximate"] {
        push(
            &format!("server.queries_{engine}"),
            gained(&format!("pdb_server_queries_total{{engine=\"{engine}\"}}")),
            "count",
        );
    }
    push(
        "server.timeouts",
        gained("pdb_server_timeouts_total"),
        "count",
    );
    push(
        "server.query_errors",
        gained("pdb_server_query_errors_total"),
        "count",
    );
    let evals = gained("pdb_kernel_evals_total");
    push("kernel.evals", evals, "count");
    push(
        "kernel.bytes_per_eval",
        ratio(gained("pdb_kernel_eval_bytes_total"), evals),
        "bytes",
    );
    let incremental = on_primary("pdb_views_incremental_total");
    push(
        "views.incremental_ratio",
        ratio(
            incremental,
            incremental + on_primary("pdb_views_recompiles_total"),
        ),
        "ratio",
    );
    let appends = on_primary("pdb_store_wal_appends_total");
    let syncs = on_primary("pdb_store_wal_syncs_total");
    let fsync = |q| histogram_quantile(&before[0], &after[0], "pdb_store_fsync_us", q);
    push("store.fsync_p50_us", fsync(0.5), "us");
    push("store.fsync_p95_us", fsync(0.95), "us");
    push("store.wal_appends", appends, "count");
    push("store.wal_syncs", syncs, "count");
    push("store.syncs_per_append", ratio(syncs, appends), "ratio");
    let checkpoints = on_primary("pdb_store_checkpoints_total");
    push("store.checkpoints", checkpoints, "count");
    push(
        "store.checkpoint_ms",
        ratio(on_primary("pdb_store_checkpoint_us_sum"), checkpoints) / 1e3,
        "ms",
    );
    push(
        "store.recovery_s",
        durability.map_or(0.0, |d| d.recovery_s),
        "s",
    );
    push("replica.bootstrap_s", setup.bootstrap_s, "s");
    push(
        "replica.records_applied",
        on_replica("pdb_replica_records_applied_total"),
        "count",
    );
    push(
        "replica.apply_us",
        ratio(
            on_replica("pdb_replica_apply_us_sum"),
            on_replica("pdb_replica_apply_us_count"),
        ),
        "us",
    );
    push("replica.lag_records_max", load.lag_records_max, "count");
    push(
        "replica.catchup_ms",
        durability.map_or(0.0, |d| d.catchup_ms),
        "ms",
    );
    push("par.jobs", gained("pdb_par_jobs_total"), "count");
    push("par.steals", gained("pdb_par_steals_total"), "count");
    push(
        "par.utilization",
        after[0].get("pdb_par_utilization").copied().unwrap_or(0.0),
        "ratio",
    );
    push(
        "proc.ctx_switches_per_op",
        ratio(
            load.after.ctx_switches - load.before.ctx_switches,
            closed.len() as f64,
        ),
        "count",
    );
    out
}

/// The `(name, unit)` pairs `BENCHMARK.json` promises for this kind of run;
/// a result that would differ from them is refused.
fn promised_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(doc
        .get(if trace { "per_layer" } else { "end_to_end" })
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect())
}

/// Host and configuration facts stored beside a result, so that results
/// from different machines are never compared as equals by accident.
pub fn host_facts(spec: &Spec, seconds: f64) -> Json {
    let output = |program: &str, args: &[&str]| -> String {
        std::process::Command::new(program)
            .args(args)
            .current_dir(repo_root())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".into(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    let seconds_of = |p: Phases| {
        Json::obj([
            ("warmup", Json::num(seconds * p.warmup)),
            ("closed", Json::num(seconds * p.closed)),
            ("open", Json::num(seconds * p.open)),
            ("in_process", Json::num(seconds * p.in_process)),
        ])
    };
    Json::obj([
        ("nproc", Json::num(nproc() as f64)),
        ("available_parallelism", Json::num(nproc() as f64)),
        ("connections", Json::num(connections() as f64)),
        (
            "commit",
            Json::str(output("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::str(output("rustc", &["--version"]))),
        (
            "server_flags",
            Json::str(format!(
                "--workers connections+1 (+1 on a primary with a replica) --threads {} \
                 --timeout-ms {} --cache-capacity {}",
                nproc(),
                spec.timeout_ms,
                spec.cache_capacity
            )),
        ),
        (
            "phase_seconds",
            Json::obj([
                ("untraced", seconds_of(spec.untraced)),
                ("traced", seconds_of(spec.traced)),
            ]),
        ),
    ])
}
