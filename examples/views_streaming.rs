//! Materialized views under a stream of probability updates.
//!
//! Registers the paper's Figure 1 query `∃x∃y (R(x) ∧ S(x,y))` as a
//! materialized view over a scaled-up instance, then streams probability
//! updates. Each update is absorbed by one kernel pass over the row's
//! program, no recompilation (§7: lineage → DPLL trace → decision-DNNF →
//! flat program); the example times that against re-running the query from
//! scratch and prints the refresh latencies side by side.
//!
//! Run with `cargo run --release --example views_streaming`.

use probdb::views::{ViewDef, ViewManager};
use probdb::ProbDb;
use std::time::Instant;

const QUERY: &str = "exists x. exists y. R(x) & S(x,y)";

fn main() {
    // A Figure-1-shaped instance, scaled: n x-values, 3 S-partners each.
    let n: u64 = 300;
    let mut db = ProbDb::new();
    // Small per-tuple probabilities so the view's probability stays well
    // away from 1 and each update visibly moves it.
    for x in 0..n {
        db.insert("R", [x], 0.01 + 0.04 * (x % 7) as f64 / 7.0);
        for j in 0..3 {
            let y = n + 3 * x + j;
            db.insert("S", [x, y], 0.01 + 0.05 * (j as f64) / 3.0);
        }
    }
    println!(
        "database: {} possible tuples ({} R, {} S)",
        db.tuple_db().tuple_count(),
        n,
        3 * n
    );

    let mut mgr = ViewManager::new();
    let start = Instant::now();
    mgr.create("v", ViewDef::boolean(QUERY).unwrap(), &db)
        .unwrap();
    let build = start.elapsed();
    let view = mgr.get("v").unwrap();
    println!(
        "view v := {QUERY}\n  built in {:.2?} ({} row, backend: {})\n",
        build,
        view.rows().len(),
        view.backend_summary()
    );

    // Stream updates: walk S deterministically, nudging probabilities.
    println!(
        "{:>4}  {:>12}  {:>12}  {:>9}",
        "#", "incremental", "re-query", "speedup"
    );
    let (mut inc_total, mut full_total) = (0.0f64, 0.0f64);
    let updates = 40;
    for i in 0..updates {
        let x = (17 * i + 3) % n;
        let y = n + 3 * x + (i % 3);
        let p = 0.01 + 0.09 * ((i * 31) % 100) as f64 / 100.0;
        let tuple = probdb::data::Tuple::new(vec![x, y]);

        let t0 = Instant::now();
        let version = db.update_prob("S", &tuple, p).expect("tuple exists");
        let absorbed = mgr.on_update_prob("S", &tuple, p, version);
        let incremental = t0.elapsed();
        assert_eq!(absorbed, 1, "the view must absorb the update in place");
        let p_view = mgr.get("v").unwrap().boolean_answer().unwrap().probability;

        let t1 = Instant::now();
        let p_scratch = db.query(QUERY).unwrap().probability;
        let full = t1.elapsed();

        assert!(
            (p_view - p_scratch).abs() < 1e-9,
            "view {p_view} diverged from from-scratch {p_scratch}"
        );
        inc_total += incremental.as_secs_f64();
        full_total += full.as_secs_f64();
        if i < 5 || i == updates - 1 {
            println!(
                "{:>4}  {:>12.2?}  {:>12.2?}  {:>8.1}x",
                i,
                incremental,
                full,
                full.as_secs_f64() / incremental.as_secs_f64().max(1e-9)
            );
        } else if i == 5 {
            println!("   …");
        }
    }

    let view = mgr.get("v").unwrap();
    println!(
        "\n{updates} updates absorbed incrementally (view rebuilt {} time(s), p = {:.6})",
        view.rebuilds(),
        view.boolean_answer().unwrap().probability
    );
    println!(
        "mean latency: incremental {:.2?} vs re-query {:.2?} — {:.0}x faster",
        std::time::Duration::from_secs_f64(inc_total / updates as f64),
        std::time::Duration::from_secs_f64(full_total / updates as f64),
        full_total / inc_total.max(1e-12)
    );

    // An insert invalidates the compiled lineage: the view goes stale and
    // the next refresh rebuilds it from a fresh snapshot.
    db.insert("S", [0, 9_999], 0.5);
    mgr.on_insert("S", db.relation_version("S"));
    assert!(mgr.get("v").unwrap().is_stale());
    let t0 = Instant::now();
    mgr.refresh("v", &db).unwrap();
    println!(
        "\ninsert S(0, 9999) → view stale → rebuilt in {:.2?} (p = {:.6})",
        t0.elapsed(),
        mgr.get("v").unwrap().boolean_answer().unwrap().probability
    );
}
