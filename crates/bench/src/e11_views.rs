//! E11 — incremental view maintenance vs from-scratch re-evaluation on
//! the compiled safe query `∃x∃y (R(x) ∧ S(x,y))`.
//!
//! A materialized view absorbs a probability update by one kernel pass over
//! the row's program, no recompilation — O(size) gate evaluations over the
//! compiled circuit — while the baseline re-runs the lifted query over all
//! n tuples. The gate: the incremental path agrees with the re-query and
//! beats it ≥ 10× on medians. The cost of a staleness-inducing insert
//! (a full refresh) is measured end to end by the ledger
//! (`views.refresh_us`).

use crate::Effort;
use pdb_core::ProbDb;
use pdb_data::Tuple;
use pdb_views::{ViewDef, ViewManager};
use std::time::Instant;

const QUERY: &str = "exists x. exists y. R(x) & S(x,y)";

/// `n` x-values with 3 S-partners each: 4n possible tuples, small
/// probabilities so the answer stays away from 1.
fn scaled_db(n: u64) -> ProbDb {
    let mut db = ProbDb::new();
    for x in 0..n {
        db.insert("R", [x], 0.01 + 0.04 * (x % 7) as f64 / 7.0);
        for j in 0..3 {
            db.insert("S", [x, n + 3 * x + j], 0.01 + 0.05 * (j as f64) / 3.0);
        }
    }
    db
}

/// Runs E11. The gate ignores `effort`: its workload and bound are the gate.
pub fn run(_effort: Effort) -> String {
    let n: u64 = 1000;
    // Acceptance gate: on this compiled safe query at n ≥ 1000 the
    // incremental path must beat from-scratch re-evaluation by ≥ 10× on
    // medians (it is typically a few hundred ×).
    let mut db = scaled_db(n);
    let mut mgr = ViewManager::new();
    mgr.create("v", ViewDef::boolean(QUERY).unwrap(), &db)
        .unwrap();
    assert_eq!(mgr.get("v").unwrap().backend_summary(), "circuit");
    let rounds = 31;
    let mut inc = Vec::with_capacity(rounds);
    let mut full = Vec::with_capacity(rounds);
    for i in 0..rounds as u64 {
        let x = (13 * i + 5) % n;
        let tuple = Tuple::new(vec![x, n + 3 * x + i % 3]);
        let p = 0.01 + 0.09 * ((i * 37) % 100) as f64 / 100.0;

        let t0 = Instant::now();
        let version = db.update_prob("S", &tuple, p).unwrap();
        mgr.on_update_prob("S", &tuple, p, version);
        let p_view = mgr.get("v").unwrap().boolean_answer().unwrap().probability;
        inc.push(t0.elapsed());

        let t1 = Instant::now();
        let p_scratch = db.query(QUERY).unwrap().probability;
        full.push(t1.elapsed());
        assert!(
            (p_view - p_scratch).abs() < 1e-9,
            "view {p_view} diverged from from-scratch {p_scratch}"
        );
    }
    inc.sort();
    full.sort();
    let (inc_med, full_med) = (inc[rounds / 2], full[rounds / 2]);
    let speedup = full_med.as_secs_f64() / inc_med.as_secs_f64().max(1e-12);
    let out = format!(
        "e11_views sanity: median incremental {inc_med:.2?} vs re-query {full_med:.2?} \
         ({speedup:.0}x)\n"
    );
    print!("{out}");
    assert!(
        speedup >= 10.0,
        "incremental refresh only {speedup:.1}x faster than from-scratch \
         (need >= 10x at n = {n})"
    );
    out
}
