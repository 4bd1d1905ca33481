//! Criterion bench for E13: durability costs. WAL append throughput under
//! each fsync policy (on the in-memory filesystem, so the numbers isolate
//! the encode + bookkeeping path from device latency), snapshot encoding,
//! and recovery time as a function of snapshot age — the further the last
//! checkpoint lags the log head, the more records replay on open.

use criterion::{criterion_group, criterion_main, Criterion};
use pdb_store::apply_op;
use pdb_store::snapshot::encode_snapshot;
use pdb_store::{FsyncPolicy, MemFs, Store, StoreOptions, WalOp};
use pdb_views::persist::ViewDefState;
use pdb_views::ViewManager;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

fn dir() -> PathBuf {
    PathBuf::from("data")
}

fn opts(fsync: FsyncPolicy) -> StoreOptions {
    StoreOptions {
        fsync,
        checkpoint_every: 0,
    }
}

/// A deterministic mixed workload: inserts over R/S, periodic probability
/// updates, one materialized view created early so snapshots and replay
/// both carry a compiled circuit.
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
            _ if i % 7 == 5 => WalOp::UpdateProb {
                relation: "R".into(),
                tuple: vec![x],
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

/// Builds a store holding `total` logged ops, checkpointed after
/// `checkpoint_at` of them (None = WAL only), and returns the filesystem —
/// ready to be recovered from, repeatedly.
fn prepared_fs(total: usize, checkpoint_at: Option<usize>) -> Arc<MemFs> {
    let fs = Arc::new(MemFs::new());
    let (mut store, rec) =
        Store::open(fs.clone(), &dir(), opts(FsyncPolicy::Never)).expect("fresh open");
    let mut db = rec.db;
    let mut views = rec.views;
    for (i, op) in workload(total).iter().enumerate() {
        apply_op(op, &mut db, &mut views).expect("workload op");
        store.append(op).expect("append");
        if checkpoint_at == Some(i + 1) {
            store
                .checkpoint(&db, &views.export_states())
                .expect("checkpoint");
        }
    }
    store.flush().expect("flush");
    fs
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_persistence");

    // WAL append throughput per fsync policy. MemFs "fsync" is a pointer
    // bump, so `always` vs `never` here measures the record encode + CRC +
    // policy bookkeeping; on a real disk the gap is the device sync.
    for (label, fsync) in [
        ("append/fsync_always", FsyncPolicy::Always),
        ("append/fsync_never", FsyncPolicy::Never),
    ] {
        g.bench_function(label, |b| {
            let fs = Arc::new(MemFs::new());
            let (mut store, _rec) = Store::open(fs, &dir(), opts(fsync)).expect("open");
            let op = WalOp::Insert {
                relation: "R".into(),
                tuple: vec![7, 7],
                prob: 0.5,
            };
            b.iter(|| store.append(black_box(&op)).expect("append"));
        });
    }

    // Snapshot encoding of a 256-op state (tuples + view circuit).
    g.bench_function("snapshot/encode_256_ops", |b| {
        let mut db = pdb_core::ProbDb::new();
        let mut views = ViewManager::new();
        for op in workload(256) {
            apply_op(&op, &mut db, &mut views).expect("workload op");
        }
        let states = views.export_states();
        b.iter(|| black_box(encode_snapshot(256, &db, &states)).len());
    });

    // Recovery time vs snapshot age: the same 256-op history, recovered
    // from (a) WAL replay only, (b) a half-way checkpoint + 128-record
    // tail, (c) a fresh checkpoint. Fresher snapshots replay less.
    for (label, checkpoint_at) in [
        ("recovery/wal_only_256", None),
        ("recovery/snapshot_plus_128", Some(128)),
        ("recovery/snapshot_fresh", Some(256)),
    ] {
        let fs = prepared_fs(256, checkpoint_at);
        g.bench_function(label, |b| {
            b.iter(|| {
                let (_store, rec) =
                    Store::open(fs.clone(), &dir(), opts(FsyncPolicy::Never)).expect("recover");
                black_box(rec.info.replayed_ops)
            });
        });
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
