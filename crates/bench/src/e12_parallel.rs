//! E12 — parallel speedup across the engine cascade.
//!
//! Three workloads run under explicit `pdb_par` pools of 1, 2, and 4
//! threads (exactly what `PROBDB_THREADS` selects globally):
//!
//! - **Karp–Luby** chunk-seeded sampling (`estimate_chunked`) over the
//!   grounded DNF of the unsafe query `∃x∃y R(x) ∧ S(x,y) ∧ T(y)`;
//! - **multi-row `query_answers`** where every answer row is forced down
//!   the approximate path (`disable_lifted` + a 1-decision exact budget),
//!   so rows fan out across the pool and each row samples in chunks;
//! - **view `refresh_all`** rebuilding a stale answers view, one circuit
//!   compilation per row.
//!
//! Every workload's result is asserted **bit-identical** across pool
//! sizes on every round — parallelism must never change an answer. The
//! ≥ 2× speedup gate at 4 threads (Karp–Luby and `query_answers`) only
//! fires when the host actually has ≥ 4 hardware threads; on smaller
//! machines (e.g. a 1-CPU container) the gate still verifies bit
//! identity and prints the timings with a skip note.

use crate::{timed, Effort};
use pdb_core::{ProbDb, QueryOptions};
use pdb_par::{with_pool, Pool};
use pdb_views::{ViewDef, ViewManager, ViewOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;
use std::time::Duration;

const POOL_SIZES: [usize; 3] = [1, 2, 4];
const ROUNDS: usize = 7;

fn scaled_db(n: u64, seed: u64) -> ProbDb {
    let mut rng = StdRng::seed_from_u64(seed);
    ProbDb::from_tuple_db(pdb_data::generators::bipartite(
        n,
        0.7,
        (0.15, 0.85),
        &mut rng,
    ))
}

/// Runs `work` under pools of each size in `POOL_SIZES`, asserting the
/// output is bit-identical everywhere, and returns the median times in
/// the same order as `POOL_SIZES`.
fn across_pools<R: PartialEq + std::fmt::Debug>(
    label: &str,
    work: impl Fn() -> R,
) -> Vec<Duration> {
    let mut medians = Vec::with_capacity(POOL_SIZES.len());
    let mut baseline = None;
    for &threads in &POOL_SIZES {
        let pool = Pool::new(threads);
        let (med, out) = with_pool(&pool, || timed(ROUNDS, &work));
        match &baseline {
            None => baseline = Some(out),
            Some(prev) => assert_eq!(
                &out, prev,
                "{label}: result diverged between 1 and {threads} threads"
            ),
        }
        medians.push(med);
    }
    medians
}

/// Karp–Luby fixture: the grounded DNF of the H₁-style unsafe query on a
/// bipartite database, plus the tuple marginals.
fn kl_fixture(db: &ProbDb) -> (pdb_lineage::DnfLineage, Vec<f64>) {
    let fo = pdb_logic::parse_fo("exists x. exists y. R(x) & S(x,y) & T(y)").unwrap();
    let ucq = fo.to_ucq().unwrap();
    let index = db.tuple_db().index();
    let dnf = pdb_lineage::ucq_dnf_lineage(&ucq, db.tuple_db(), &index);
    let probs: Vec<f64> = index.iter().map(|(_, r)| r.prob).collect();
    (dnf, probs)
}

fn kl_run(dnf: &pdb_lineage::DnfLineage, probs: &[f64], samples: u64) -> (u64, u64, u64) {
    let pool = pdb_par::current();
    let est = pdb_wmc::karp_luby::estimate_chunked(dnf, probs, samples, 0x5eed, &pool);
    (est.value.to_bits(), est.std_error.to_bits(), est.samples)
}

/// Multi-row `query_answers` with every row forced onto the sampler.
fn qa_run(db: &ProbDb) -> Vec<(Vec<u64>, u64, String)> {
    let cq = pdb_logic::parse_cq("R(x), S(x,y), T(y)").unwrap();
    let head = [pdb_logic::Var::new("x")];
    let opts = QueryOptions {
        disable_lifted: true,
        exact_budget: 1,
        samples: 30_000,
        ..Default::default()
    };
    db.query_answers(&cq, &head, &opts)
        .unwrap()
        .into_iter()
        .map(|r| (r.values, r.probability.to_bits(), format!("{:?}", r.method)))
        .collect()
}

/// Full lifecycle of an answers view: build, go stale via an insert, then
/// `refresh_all` (the timed part at the call site measures the whole
/// closure; staleness setup is a constant small fraction of the rebuild).
fn view_run(n: u64) -> Vec<(Vec<u64>, u64)> {
    let mut db = scaled_db(n, 0xE12);
    let mut views = ViewManager::with_options(ViewOptions::default());
    views
        .create(
            "va",
            ViewDef::answers(&["x".into()], "R(x), S(x,y), T(y)").unwrap(),
            &db,
        )
        .unwrap();
    db.insert("R", [n + 1], 0.4);
    views.on_insert("R", db.relation_version("R"));
    views.refresh_all(&db).unwrap();
    views
        .get("va")
        .unwrap()
        .rows()
        .iter()
        .map(|r| (r.values.clone(), r.probability.to_bits()))
        .collect()
}

/// Runs E12. The gate ignores `effort`: its workload and bound are the gate.
pub fn run(_effort: Effort) -> String {
    let kl_db = scaled_db(16, 0xE12);
    let (dnf, probs) = kl_fixture(&kl_db);
    let kl_samples: u64 = 200_000;
    let qa_db = scaled_db(12, 0xE12);

    // Acceptance gate: bit identity always; ≥ 2× at 4 threads for the
    // sampler and the row fan-out when the hardware can show it.
    let kl = across_pools("karp_luby", || kl_run(&dnf, &probs, kl_samples));
    let qa = across_pools("query_answers", || qa_run(&qa_db));
    let vr = across_pools("view_refresh", || view_run(14));
    let speedup =
        |m: &[Duration]| m[0].as_secs_f64() / m[POOL_SIZES.len() - 1].as_secs_f64().max(1e-12);
    let mut out = String::new();
    writeln!(
        out,
        "e12_parallel sanity: medians over {ROUNDS} rounds at {POOL_SIZES:?} threads\n\
         \x20 karp_luby     {kl:.2?}  ({:.2}x at 4t)\n\
         \x20 query_answers {qa:.2?}  ({:.2}x at 4t)\n\
         \x20 view_refresh  {vr:.2?}  ({:.2}x at 4t)",
        speedup(&kl),
        speedup(&qa),
        speedup(&vr),
    )
    .unwrap();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    if hw < 4 {
        writeln!(
            out,
            "e12_parallel: host has {hw} hardware thread(s); \
             skipping the >= 2x speedup gate (bit identity verified above)"
        )
        .unwrap();
    }
    print!("{out}");
    if hw >= 4 {
        assert!(
            speedup(&kl) >= 2.0,
            "Karp–Luby only {:.2}x faster at 4 threads (need >= 2x on {hw}-thread host)",
            speedup(&kl)
        );
        assert!(
            speedup(&qa) >= 2.0,
            "query_answers only {:.2}x faster at 4 threads (need >= 2x on {hw}-thread host)",
            speedup(&qa)
        );
    }
    out
}
