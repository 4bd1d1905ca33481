//! Criterion bench for E14: replication costs. Three axes decide how far
//! read scale-out stretches:
//!
//! * **apply throughput** — how fast a replica can drain the record
//!   stream (its ceiling on sustainable primary mutation rate: lag grows
//!   whenever the primary mutates faster than this);
//! * **bootstrap** — snapshot encode + install time vs state size (how
//!   long a fresh or checkpoint-lapped replica takes to join);
//! * **fan-out** — what the primary pays per mutation to feed N replicas,
//!   and how fast a converged replica serves the read side.

use criterion::{criterion_group, criterion_main, Criterion};
use pdb_replica::{ReplicaApply, ReplicaHub, ReplicaStatus};
use pdb_server::{Service, ServiceOptions};
use pdb_store::snapshot::encode_snapshot;
use pdb_store::{apply_op, WalOp};
use pdb_views::persist::ViewDefState;
use pdb_views::ViewManager;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn service_opts() -> ServiceOptions {
    ServiceOptions {
        query_timeout: Duration::ZERO,
        cache_capacity: 1024,
        degraded_samples: 1_000,
        ..ServiceOptions::default()
    }
}

fn replica_service() -> Service {
    Service::new_replica("bench:0", Arc::new(ReplicaStatus::new()), service_opts())
}

/// The e13 workload: inserts over R/S, periodic updates, one materialized
/// view created early so the stream exercises view maintenance too.
fn workload(n: usize) -> Vec<WalOp> {
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let x = (i % 16) as u64;
        let y = ((i / 16) % 16) as u64;
        let op = match i {
            3 => WalOp::ViewCreate {
                name: "v".into(),
                def: ViewDefState::Boolean("exists x. exists y. R(x) & S(x,y)".into()),
            },
            _ if i % 4 == 2 => WalOp::Insert {
                relation: "S".into(),
                tuple: vec![x, y],
                prob: 0.8,
            },
            // Update a tuple inserted at i == 0: a real primary never logs
            // an update of an absent tuple, and `ReplicaApply::apply` treats
            // one as divergence.
            _ if i % 7 == 5 => WalOp::UpdateProb {
                relation: "R".into(),
                tuple: vec![0],
                prob: 0.3,
            },
            _ => WalOp::Insert {
                relation: "R".into(),
                tuple: vec![x],
                prob: 0.5,
            },
        };
        ops.push(op);
    }
    ops
}

/// An `n`-tuple state with a maintained view, for bootstrap scaling.
/// Unlike [`workload`] (whose mod-16 keys saturate at ~272 distinct
/// tuples), every key here is distinct so snapshot size grows with `n`.
fn bootstrap_state(n: usize) -> (pdb_core::ProbDb, ViewManager) {
    let mut db = pdb_core::ProbDb::new();
    let mut views = ViewManager::new();
    let mut ops = vec![WalOp::ViewCreate {
        name: "v".into(),
        def: ViewDefState::Boolean("exists x. exists y. R(x) & S(x,y)".into()),
    }];
    for i in 0..n as u64 {
        ops.push(if i % 4 == 2 {
            WalOp::Insert {
                relation: "S".into(),
                tuple: vec![i, i + 1],
                prob: 0.8,
            }
        } else {
            WalOp::Insert {
                relation: "R".into(),
                tuple: vec![i],
                prob: 0.5,
            }
        });
    }
    for op in &ops {
        apply_op(op, &mut db, &mut views).expect("bootstrap op");
    }
    (db, views)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_replication");

    // Apply throughput: a replica draining 256 streamed records through
    // the full service path (db + incremental view maintenance). The
    // reciprocal bounds the mutation rate a replica absorbs without lag.
    g.bench_function("apply/stream_256_records", |b| {
        let ops = workload(256);
        b.iter(|| {
            let svc = replica_service();
            for (lsn, op) in ops.iter().enumerate() {
                svc.apply(lsn as u64, black_box(op)).expect("apply");
            }
            svc.db_version()
        });
    });

    // Bootstrap: encode on the primary side, install on the replica side,
    // as the replicated state grows.
    for n in [64usize, 256, 1024] {
        let (db, views) = bootstrap_state(n);
        let image = encode_snapshot(n as u64, &db, &views.export_states());
        g.bench_function(format!("bootstrap/install_{n}_tuples"), |b| {
            b.iter(|| {
                let svc = replica_service();
                svc.install_snapshot(black_box(&image)).expect("install")
            });
        });
    }
    for n in [64usize, 256, 1024] {
        let (db, views) = bootstrap_state(n);
        let states = views.export_states();
        g.bench_function(format!("bootstrap/encode_{n}_tuples"), |b| {
            b.iter(|| black_box(encode_snapshot(n as u64, &db, &states)).len());
        });
    }

    // Fan-out: the primary-side cost of publishing 256 mutations to N
    // connected replicas (bounded feeds, no blocking).
    for replicas in [1usize, 4, 16] {
        g.bench_function(format!("fanout/publish_256_to_{replicas}"), |b| {
            let ops = workload(256);
            b.iter(|| {
                let hub = Arc::new(ReplicaHub::new(0, Duration::from_millis(500)));
                let feeds: Vec<_> = (0..replicas).map(|_| hub.register()).collect();
                for (lsn, op) in ops.iter().enumerate() {
                    hub.publish(lsn as u64, op);
                }
                black_box((hub.streamed(), feeds.len()))
            });
        });
    }

    // Replica read side: serving a Boolean query from a converged replica
    // (cold cache per call — the steady-state cached path is the server
    // bench's cache-hit number, identical on a replica).
    g.bench_function("read/replica_query_cold", |b| {
        let svc = replica_service();
        for (lsn, op) in workload(256).iter().enumerate() {
            svc.apply(lsn as u64, op).expect("apply");
        }
        b.iter(|| {
            svc.clear_cache();
            black_box(svc.handle_line("query exists x. exists y. R(x) & S(x,y)"))
        });
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
