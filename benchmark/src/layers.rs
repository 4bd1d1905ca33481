//! The in-process half of the traced run: the same seed and database as the
//! load run, but every call into a layer's public functions wrapped in a
//! bench-side span. Nothing under `crates/` or `src/` is edited; what cannot
//! be seen from outside a public function shows up as `server.residual_share`
//! and `trace.coverage`, the to-do list for in-program spans.

use crate::metric::Metric;
use crate::spans::Recorder;
use crate::stats::{mean, median, ratio};
use crate::verify::apply_writes;
use crate::workload::{h0, Expect, Op, SessionGen, SessionKind, Spec, Workload, BAND_DOMAIN};
use probdb::compile::DecisionDnnf;
use probdb::data::{Tuple, TupleIndex};
use probdb::lineage::{lineage, ucq_dnf_lineage, BoolExpr, Cnf};
use probdb::logic::{parse_cq, parse_fo, Fo, Var};
use probdb::server::protocol::{
    format_answer, format_answer_tuples, parse_command, write_framed, Command,
};
use probdb::server::{Service, ServiceOptions};
use probdb::store::{RealFs, Store, StoreOptions, WalOp};
use probdb::views::{IncrementalCircuit, ViewDef, ViewManager, ViewOptions};
use probdb::wmc::{karp_luby, run_parallel, Dpll, DpllOptions};
use probdb::{ProbDb, QueryOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lanes per `eval_batch` call in the kernel probe.
const LANES: usize = 64;

/// The spans `query_fo`'s work is re-run under, stage by stage.
const STAGES: [&str; 5] = [
    "lifted.accept",
    "lifted.refuse",
    "lineage.ground",
    "lineage.cnf",
    "wmc.dpll",
];

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
struct Counts {
    lifted_tried: f64,
    lifted_safe: f64,
    tuples: Vec<f64>,
    clauses: Vec<f64>,
    decisions: Vec<f64>,
    dpll_cache_hits: f64,
    dpll_cache_probes: f64,
    answer_rows: f64,
    answer_us: f64,
    circuit_nodes: Vec<f64>,
    gates_per_update: Vec<f64>,
    karp_luby_samples_per_s: Vec<f64>,
    wal_bytes_per_op: f64,
}

pub struct LayerReport {
    /// The per-layer metrics measured here (all but the scraped ones).
    pub metrics: Vec<Metric>,
    /// Every span of the run, Chrome-trace form.
    pub chrome_trace: crate::json::Json,
    /// Each cascade stage's median as a share of `core.query_fo_us`.
    pub stage_shares: Vec<(&'static str, f64)>,
    pub requests: usize,
}

/// The CNF `pdb-core`'s exact path would pick for this lineage, with the
/// probability vector it pairs with.
fn pick_cnf(lin: &BoolExpr, probs: &[f64]) -> (Cnf, Vec<f64>) {
    let n = probs.len() as u32;
    if lin.is_monotone_dnf() {
        (Cnf::from_negated_dnf(lin, n), probs.to_vec())
    } else if let Some(cnf) = Cnf::from_expr_direct(lin, n) {
        (cnf, probs.to_vec())
    } else {
        let cnf = Cnf::tseitin(lin, n);
        let mut all = probs.to_vec();
        all.resize(cnf.num_vars as usize, 0.5);
        (cnf, all)
    }
}

/// The tuple numbering grounding works in, and each tuple's probability.
fn tuple_probs(db: &ProbDb) -> (TupleIndex, Vec<f64>) {
    let index = db.tuple_db().index();
    let probs = index.iter().map(|(_, r)| r.prob).collect();
    (index, probs)
}

/// `format_answer…` + `write_framed` into a `Vec`, as the server does per reply.
fn render(rec: &mut Recorder, body: impl FnOnce() -> String) {
    rec.leaf("server.render", || {
        let mut wire = Vec::new();
        let _ = write_framed(&mut wire, &body());
        black_box(wire.len())
    });
}

/// Re-runs a Boolean query stage by stage. `query_fo` is timed whole first;
/// the stages it is made of are then called one by one on the same input,
/// because from outside there is no other way to split it.
fn cascade(
    rec: &mut Recorder,
    db: &ProbDb,
    text: &str,
    lifted_expected: bool,
    counts: &mut Counts,
) {
    let pool = probdb::par::current();
    rec.scope("cascade", |rec| {
        let Ok(fo) = rec.leaf("logic.parse", || parse_fo(text)) else {
            return;
        };
        let Ok(answer) = rec.leaf("core.query_fo", || {
            db.query_fo(&fo, &QueryOptions::default())
        }) else {
            return;
        };
        rec.scope("stages", |rec| {
            let name = if lifted_expected {
                "lifted.accept"
            } else {
                "lifted.refuse"
            };
            let lifted = rec.leaf(name, || probdb::lifted::probability_fo(&fo, db.tuple_db()));
            counts.lifted_tried += 1.0;
            if lifted.is_ok() {
                counts.lifted_safe += 1.0;
                return;
            }
            let (lin, probs) = rec.leaf("lineage.ground", || {
                let (index, probs) = tuple_probs(db);
                (lineage(&fo, db.tuple_db(), &index), probs)
            });
            let (cnf, probs) = rec.leaf("lineage.cnf", || pick_cnf(&lin, &probs));
            let opts = DpllOptions {
                max_decisions: QueryOptions::default().exact_budget,
                ..DpllOptions::default()
            };
            let run = rec.leaf("wmc.dpll", || run_parallel(&cnf, &probs, opts, &pool));
            counts.tuples.push(probs.len() as f64);
            counts.clauses.push(cnf.clauses.len() as f64);
            counts.decisions.push(run.stats.decisions as f64);
            counts.dpll_cache_hits += run.stats.cache_hits as f64;
            counts.dpll_cache_probes += (run.stats.cache_hits + run.stats.cache_misses) as f64;
        });
        render(rec, || format_answer(&answer));
    });
}

/// One operation: the protocol parse, the whole in-process service call on
/// the same line and state, then (for reads) the cascade beneath it.
fn trace_op(rec: &mut Recorder, service: &Service, op: &Op, counts: &mut Counts) {
    rec.next_request();
    let read = !op.class.is_write();
    rec.scope(if read { "op.read" } else { "op.write" }, |rec| {
        let command = rec.leaf("server.parse", || parse_command(&op.line));
        rec.leaf(
            if read {
                "server.service"
            } else {
                "server.service_write"
            },
            || black_box(service.handle_line(&op.line)),
        );
        let db = service.db_snapshot();
        match command {
            Ok(Command::Query(text)) => {
                let lifted = op.expect == Expect::Engine("Lifted");
                cascade(rec, &db, &text, lifted, counts);
            }
            Ok(Command::Answers { head, cq }) => {
                let Ok(parsed) = rec.leaf("logic.parse", || parse_cq(&cq)) else {
                    return;
                };
                let vars: Vec<Var> = head.iter().map(|v| Var::new(v)).collect();
                let start = Instant::now();
                let rows = rec.leaf("core.query_answers", || {
                    db.query_answers(&parsed, &vars, &QueryOptions::default())
                });
                if let Ok(rows) = rows {
                    counts.answer_us += start.elapsed().as_secs_f64() * 1e6;
                    counts.answer_rows += rows.len() as f64;
                    render(rec, || format_answer_tuples(&head, &rows));
                }
            }
            _ => {}
        }
    });
}

/// `pdb-views`, `pdb-compile` and `pdb-kernel` called directly on one small
/// tenant: create, incremental updates, rebuild; then the compile pipeline a
/// view row goes through, taken apart.
fn probe_views(rec: &mut Recorder, w: &Workload, db: &ProbDb, counts: &mut Counts) {
    let mut db = db.clone();
    let opts = ViewOptions::default();
    let mut views = ViewManager::new();
    for k in w.viewed().take(4) {
        rec.next_request();
        let name = format!("v{k}");
        let h0 = h0(k);
        let Ok(def) = ViewDef::boolean(&h0) else {
            continue;
        };
        let created = rec.leaf("views.create", || {
            let view = ViewManager::compile(&opts, &name, def, &db)?;
            views.install(view, db.version(), &db).map(|_| ())
        });
        if created.is_err() {
            continue;
        }
        let relation = format!("R{k}");
        for a in 0..BAND_DOMAIN {
            let tuple = Tuple::new(vec![a]);
            let p = 0.1 + 0.02 * a as f64;
            if let Some(version) = db.update_prob(&relation, &tuple, p) {
                rec.leaf("views.update", || {
                    views.on_update_prob(&relation, &tuple, p, version)
                });
            }
        }
        let s = format!("S{k}");
        db.insert(&s, vec![0, 0], 0.3);
        views.on_insert(&s, db.relation_version(&s));
        let _ = rec.leaf("views.refresh", || views.refresh(&name, &db));

        // The same row, by hand: lineage → CNF → DPLL with a trace →
        // decision-DNNF → flat program → kernel.
        let Ok(fo) = parse_fo(&h0) else { continue };
        let (index, probs) = tuple_probs(&db);
        let lin = lineage(&fo, db.tuple_db(), &index);
        let (cnf, probs) = pick_cnf(&lin, &probs);
        let traced = DpllOptions {
            record_trace: true,
            max_decisions: opts.compile_budget,
            ..DpllOptions::default()
        };
        let Some(trace) = Dpll::new(&cnf, probs.clone(), traced).run().trace else {
            continue;
        };
        let dd = rec.leaf("compile.from_trace", || DecisionDnnf::from_trace(&trace));
        let program = rec.leaf("compile.flatten", || dd.flatten());
        counts.circuit_nodes.push(dd.size() as f64);
        for _ in 0..32 {
            rec.leaf("kernel.eval", || black_box(program.eval(&probs)));
        }
        let batch: Vec<f64> = probs
            .iter()
            .copied()
            .cycle()
            .take(probs.len() * LANES)
            .collect();
        for _ in 0..8 {
            rec.leaf("kernel.eval_batch", || {
                black_box(program.eval_batch(&batch, probs.len()))
            });
        }
        let mut circuit = IncrementalCircuit::new(&dd, probs.clone(), lin.is_monotone_dnf(), 1.0);
        for (id, r) in index.iter().filter(|(_, r)| r.relation == relation) {
            let gates = circuit.set_prob(id.0, (r.prob + 0.1).min(0.9));
            counts.gates_per_update.push(gates as f64);
        }
    }
}

/// `Store::append` on a scratch directory under the workload's own policy
/// (`--fsync always`).
fn probe_store(rec: &mut Recorder, dir: &Path, counts: &mut Counts) {
    const APPENDS: u64 = 200; // well short of a checkpoint, so the log only grows
    let dir = dir.join("store-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let Ok((mut store, _)) = Store::open(Arc::new(RealFs), &dir, StoreOptions::default()) else {
        return;
    };
    let dir_bytes = || -> f64 {
        std::fs::read_dir(&dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len() as f64)
                    .sum()
            })
            .unwrap_or(0.0)
    };
    let before = dir_bytes();
    for i in 0..APPENDS {
        let op = WalOp::UpdateProb {
            relation: "R0".into(),
            tuple: vec![i % BAND_DOMAIN],
            prob: 0.25,
        };
        let _ = rec.leaf("store.append", || store.append(&op));
    }
    counts.wal_bytes_per_op = (dir_bytes() - before) / APPENDS as f64;
}

/// The degrade path's two engines, called directly on one hard instance:
/// Karp–Luby at the server's degraded sample count, and the plan bounds.
/// No end-to-end metric sees these yet (the wire reaches them only by
/// timing out).
fn probe_degrade(rec: &mut Recorder, w: &Workload, db: &ProbDb, seed: u64, counts: &mut Counts) {
    let samples = ServiceOptions::default().degraded_samples;
    let text = h0(w.safe_tenants); // over the first band tenant
    let Some(ucq) = parse_fo(&text).ok().as_ref().and_then(Fo::to_ucq) else {
        return;
    };
    let pool = probdb::par::current();
    let (index, probs) = tuple_probs(db);
    let dnf = ucq_dnf_lineage(&ucq, db.tuple_db(), &index);
    for round in 0..5 {
        let start = Instant::now();
        rec.leaf("wmc.karp_luby", || {
            black_box(karp_luby::estimate_chunked(
                &dnf,
                &probs,
                samples,
                seed + round,
                &pool,
            ))
        });
        counts
            .karp_luby_samples_per_s
            .push(samples as f64 / start.elapsed().as_secs_f64());
        if let [cq] = ucq.disjuncts() {
            rec.leaf("plans.bounds", || {
                black_box(probdb::plans::bounds::bounds(cq, db.tuple_db()))
            });
        }
    }
}

/// Runs the workload's sessions in-process for `budget`, then the direct
/// layer probes the workload's mix makes relevant.
pub fn trace_layers(
    spec: &Spec,
    w: &Workload,
    seed: u64,
    preload: &str,
    budget: Duration,
    scratch: &Path,
) -> LayerReport {
    let start = Instant::now();
    let mut db = ProbDb::new();
    apply_writes(&mut db, preload.lines());
    let service = Service::new(
        db.clone(),
        ServiceOptions {
            query_timeout: Duration::from_millis(spec.timeout_ms),
            cache_capacity: spec.cache_capacity as usize,
            ..ServiceOptions::default()
        },
    );
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let has = |kinds: &[SessionKind]| w.mix.iter().any(|(k, _)| kinds.contains(k));
    if has(&[SessionKind::HardSmall, SessionKind::HardLarge]) {
        probe_degrade(&mut rec, w, &db, seed, &mut counts);
    }
    if w.views {
        probe_views(&mut rec, w, &db, &mut counts);
    }
    if w.durable {
        probe_store(&mut rec, scratch, &mut counts);
    }
    // Views are created the first time a sampled session names them: all
    // of them up front would spend much of the budget compiling.
    let mut created = BTreeSet::new();
    let mut gen = SessionGen::new(w, seed, 3, 0, 1);
    let mut requests = 0;
    while start.elapsed() < budget {
        for op in gen.next_session() {
            if let Some(k) = op
                .line
                .rsplit_once(" v")
                .and_then(|(_, k)| k.parse::<u64>().ok())
            {
                if created.insert(k) {
                    service.handle_line(&format!("view create v{k} {}", w.view_query(k)));
                }
            }
            trace_op(&mut rec, &service, &op, &mut counts);
            requests += 1;
        }
    }

    let by_name = rec.self_us_by_name();
    let med = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));
    // Per-request ratios need the spans of one request side by side.
    let mut per_request: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for s in rec.spans() {
        *per_request
            .entry(s.request)
            .or_default()
            .entry(s.name)
            .or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
    }
    let ratios = |f: &dyn Fn(&BTreeMap<&'static str, f64>) -> Option<f64>| -> f64 {
        let mut values: Vec<f64> = per_request.values().filter_map(f).collect();
        crate::stats::sort(&mut values);
        median(&values)
    };
    let get = |r: &BTreeMap<&'static str, f64>, name: &str| r.get(name).copied().unwrap_or(0.0);
    // What the service call spends outside parse, engine and render: cache
    // probe, locks, stats, and the helper thread it spawns per miss.
    let residual_share = ratios(&|r| {
        let service = *r.get("server.service")?;
        let engine = *r.get("core.query_fo")?;
        let known = engine + get(r, "logic.parse") + get(r, "server.render");
        Some(((service - known) / service).max(0.0))
    });
    let coverage = ratios(&|r| {
        let whole = *r.get("core.query_fo")?;
        let stages: f64 = STAGES.iter().map(|s| get(r, s)).sum();
        Some(stages / whole)
    });
    // Each stage against the `query_fo` call of the same request, over the
    // requests that reached the stage.
    let stage_shares = STAGES
        .into_iter()
        .map(|stage| {
            (
                stage,
                ratios(&|r| Some(r.get(stage)? / r.get("core.query_fo")?)),
            )
        })
        .collect();

    let us = |name: &'static str, span: &str| Metric::new(name, med(span), "us");
    let metrics = vec![
        us("server.parse_us", "server.parse"),
        us("server.render_us", "server.render"),
        us("server.service_us", "server.service"),
        Metric::new("server.residual_share", residual_share, "ratio"),
        us("logic.parse_us", "logic.parse"),
        us("core.query_fo_us", "core.query_fo"),
        Metric::new(
            "core.answers_us_per_row",
            ratio(counts.answer_us, counts.answer_rows),
            "us",
        ),
        us("lifted.us", "lifted.accept"),
        us("lifted.refused_us", "lifted.refuse"),
        Metric::new(
            "lifted.safe_ratio",
            ratio(counts.lifted_safe, counts.lifted_tried),
            "ratio",
        ),
        us("lineage.ground_us", "lineage.ground"),
        us("lineage.cnf_us", "lineage.cnf"),
        Metric::new("lineage.tuples", mean(&counts.tuples), "count"),
        Metric::new("lineage.clauses", mean(&counts.clauses), "count"),
        us("wmc.dpll_us", "wmc.dpll"),
        Metric::new("wmc.dpll_decisions", mean(&counts.decisions), "count"),
        Metric::new(
            "wmc.dpll_cache_hit_ratio",
            ratio(counts.dpll_cache_hits, counts.dpll_cache_probes),
            "ratio",
        ),
        us("wmc.karp_luby_us", "wmc.karp_luby"),
        Metric::new(
            "wmc.karp_luby_samples_per_s",
            mean(&counts.karp_luby_samples_per_s),
            "1/s",
        ),
        us("plans.bounds_us", "plans.bounds"),
        us("compile.from_trace_us", "compile.from_trace"),
        us("compile.flatten_us", "compile.flatten"),
        Metric::new(
            "compile.circuit_nodes",
            mean(&counts.circuit_nodes),
            "count",
        ),
        us("kernel.eval_us", "kernel.eval"),
        Metric::new(
            "kernel.eval_batch_us_per_lane",
            med("kernel.eval_batch") / LANES as f64,
            "us",
        ),
        us("views.create_us", "views.create"),
        us("views.update_us", "views.update"),
        us("views.refresh_us", "views.refresh"),
        Metric::new(
            "views.gates_recomputed_per_update",
            mean(&counts.gates_per_update),
            "count",
        ),
        us("store.append_us", "store.append"),
        Metric::new("store.wal_bytes_per_op", counts.wal_bytes_per_op, "bytes"),
        Metric::new("trace.coverage", coverage, "ratio"),
    ];
    LayerReport {
        metrics,
        chrome_trace: rec.chrome_trace(),
        stage_shares,
        requests,
    }
}
