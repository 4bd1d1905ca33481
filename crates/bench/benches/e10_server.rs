//! Criterion bench for E10: query throughput through the `pdb-server`
//! service layer on the Example 2.1 workload, cold vs warm result cache.
//!
//! "Cold" clears the cache before every query so each call pays full
//! evaluation; "warm" repeats the same normalized query so every call after
//! the first is a cache hit. The gap is the headline number: for the
//! grounded (#P-hard shape) query the warm path should be orders of
//! magnitude faster, since a hit skips DPLL entirely.

use criterion::{criterion_group, criterion_main, Criterion};
use pdb_core::ProbDb;
use pdb_server::{Service, ServiceOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

/// Example 2.1-style database: R(x), S(x,y) with an extra T(y) relation so
/// the workload exercises both the lifted and the grounded engine.
fn example21_service() -> Service {
    let mut rng = StdRng::seed_from_u64(21);
    let mut db = ProbDb::from_tuple_db(pdb_data::generators::bipartite(
        6,
        0.8,
        (0.2, 0.8),
        &mut rng,
    ));
    for y in 0..6u64 {
        db.insert("T", [y + 100], 0.3 + 0.05 * y as f64);
    }
    Service::new(
        db,
        ServiceOptions {
            query_timeout: Duration::ZERO, // no deadline: the bench measures full evaluations
            cache_capacity: 64,
            ..ServiceOptions::default()
        },
    )
}

fn bench(c: &mut Criterion) {
    let service = example21_service();
    let lifted = "query exists x. exists y. R(x) & S(x,y)";
    let grounded = "query exists x. exists y. R(x) & S(x,y) & T(y)";

    let mut g = c.benchmark_group("e10_server");
    for (name, line) in [("lifted", lifted), ("grounded", grounded)] {
        g.bench_function(format!("{name}/cold_cache"), |b| {
            b.iter(|| {
                service.clear_cache();
                black_box(service.handle_line(black_box(line)))
            })
        });
        g.bench_function(format!("{name}/warm_cache"), |b| {
            service.clear_cache();
            service.handle_line(line); // populate once
            b.iter(|| black_box(service.handle_line(black_box(line))))
        });
    }
    g.finish();

    // Sanity: the cache must actually have been exercised, and a warm
    // repeat must return the exact same payload as the cold run.
    let cold = {
        service.clear_cache();
        service.handle_line(grounded).0
    };
    let warm = service.handle_line(grounded).0;
    assert_eq!(cold, warm, "cache hit changed the answer");
    assert!(
        service.stats().cache_hits() > 0,
        "warm path never hit the cache"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
