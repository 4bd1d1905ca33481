//! Crash-recovery property test for the durable store: after a random op
//! sequence with a fault injected at a random write boundary (process halt,
//! torn write, or bit flip), recovery must yield a **prefix-consistent**
//! database — bit-identical, across all five query kinds, to a fresh replay
//! of the ops that survived on disk — and under `fsync=always` no
//! acknowledged mutation may be lost. Materialized views must resume from
//! their persisted circuits: recovery recompiles exactly the views created
//! in the WAL tail (after the last surviving checkpoint) and no others.

use probdb::store::{apply_op, FailpointFs, Fault, FsyncPolicy, MemFs, Store, StoreOptions, WalOp};
use probdb::views::persist::ViewDefState;
use probdb::views::ViewManager;
use probdb::{ProbDb, QueryOptions};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// The two Boolean view definitions ops can create/drop: one safe
/// (hierarchical) query and one #P-hard-shaped one.
const VIEW_DEFS: &[(&str, &str)] = &[
    ("v_safe", "exists x. exists y. R(x) & S(x,y)"),
    ("v_hard", "exists x. exists y. R(x) & S(x,y) & T(y)"),
];

#[derive(Clone, Debug)]
struct RawOp {
    kind: u32,  // 0-1 insert, 2 update, 3 domain, 4 view create, 5 view drop
    rel: usize, // 0 = R(x), 1 = S(x,y), 2 = T(y)
    x: u64,
    y: u64,
    p: f64,
    which: usize, // view slot for create/drop
}

fn arb_raw() -> impl Strategy<Value = RawOp> {
    (
        (0u32..6, 0usize..3, 0u64..3),
        (0u64..3, 1u32..=9, 0usize..2),
    )
        .prop_map(|((kind, rel, x), (y, p, which))| RawOp {
            kind,
            rel,
            x,
            y,
            p: f64::from(p) / 10.0,
            which,
        })
}

fn relation_tuple(r: &RawOp) -> (&'static str, Vec<u64>) {
    match r.rel {
        0 => ("R", vec![r.x]),
        1 => ("S", vec![r.x, r.y]),
        _ => ("T", vec![r.y]),
    }
}

/// Lowers the raw sequence to valid `WalOp`s: view creates/drops are made
/// consistent (no duplicate create, no drop of an absent view) so every op
/// applies cleanly and the sequence is its own replay reference.
fn to_wal_ops(raw: &[RawOp]) -> Vec<WalOp> {
    let mut live = [false, false];
    let mut out = Vec::with_capacity(raw.len());
    for r in raw {
        let (relation, tuple) = relation_tuple(r);
        let op = match r.kind {
            0 | 1 => WalOp::Insert {
                relation: relation.into(),
                tuple,
                prob: r.p,
            },
            2 => WalOp::UpdateProb {
                relation: relation.into(),
                tuple,
                prob: r.p,
            },
            3 => WalOp::ExtendDomain {
                consts: vec![r.x, r.y],
            },
            4 if !live[r.which] => {
                live[r.which] = true;
                let (name, text) = VIEW_DEFS[r.which];
                WalOp::ViewCreate {
                    name: name.into(),
                    def: ViewDefState::Boolean(text.into()),
                }
            }
            5 if live[r.which] => {
                live[r.which] = false;
                WalOp::ViewDrop {
                    name: VIEW_DEFS[r.which].0.into(),
                }
            }
            // Create of a live view / drop of an absent one degrade to a
            // harmless mutation so the sequence length is preserved.
            _ => WalOp::Insert {
                relation: relation.into(),
                tuple,
                prob: r.p,
            },
        };
        out.push(op);
    }
    out
}

/// Fresh replay of `ops` — the reference every recovery is compared to.
fn reference(ops: &[WalOp]) -> (ProbDb, ViewManager) {
    let mut db = ProbDb::new();
    let mut views = ViewManager::new();
    for op in ops {
        apply_op(op, &mut db, &mut views).expect("generated op must apply");
    }
    (db, views)
}

/// Tuple-level equality: every stored probability bit-identical.
fn assert_tuples_identical(got: &ProbDb, want: &ProbDb) {
    assert_eq!(got.version(), want.version(), "db version");
    assert_eq!(
        got.domain_version(),
        want.domain_version(),
        "domain version"
    );
    assert_eq!(got.tuple_db().tuple_count(), want.tuple_db().tuple_count());
    for rel in want.tuple_db().relations() {
        for (t, p) in rel.iter() {
            let g = got.tuple_db().prob(rel.name(), t);
            assert_eq!(g.to_bits(), p.to_bits(), "{}({t})", rel.name());
        }
    }
}

/// View-level equality (query kind 5: `view show`): same views, same
/// staleness, bit-identical row probabilities.
fn assert_views_identical(got: &ViewManager, want: &ViewManager) {
    assert_eq!(got.len(), want.len(), "view count");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(g.name(), w.name());
        assert_eq!(g.is_stale(), w.is_stale(), "{} staleness", g.name());
        assert_eq!(g.rows().len(), w.rows().len(), "{} rows", g.name());
        for (a, b) in g.rows().iter().zip(w.rows()) {
            assert_eq!(
                a.probability.to_bits(),
                b.probability.to_bits(),
                "{} row probability",
                g.name()
            );
        }
    }
}

/// Query kinds 1-4 (`query`, `answers`, `classify`, `open`): the recovered
/// database must answer each bit-identically to the reference replay.
fn assert_queries_identical(got: &ProbDb, want: &ProbDb) {
    let opts = QueryOptions::default();
    for (_, text) in VIEW_DEFS {
        match (got.query(text), want.query(text)) {
            (Ok(a), Ok(b)) => assert_eq!(
                a.probability.to_bits(),
                b.probability.to_bits(),
                "query {text}"
            ),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("query {text}: divergent outcomes {a:?} vs {b:?}"),
        }
    }

    let cq = probdb::logic::parse_cq("R(x), S(x,y)").unwrap();
    let head = [probdb::logic::Var::new("x")];
    match (
        got.query_answers(&cq, &head, &opts),
        want.query_answers(&cq, &head, &opts),
    ) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.len(), b.len(), "answer count");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.values, y.values, "answer bindings");
                assert_eq!(x.probability.to_bits(), y.probability.to_bits());
            }
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!("answers: divergent outcomes {a:?} vs {b:?}"),
    }

    let ucq = probdb::logic::parse_ucq("R(x), S(x,y), T(y)").unwrap();
    assert_eq!(
        format!("{:?}", got.classify(&ucq)),
        format!("{:?}", want.classify(&ucq)),
        "classification"
    );

    let fo = probdb::logic::parse_fo("exists x. exists y. R(x) & S(x,y)").unwrap();
    match (
        got.query_open_world(&fo, 0.2, &opts),
        want.query_open_world(&fo, 0.2, &opts),
    ) {
        (Ok((alo, ahi)), Ok((blo, bhi))) => {
            assert_eq!(
                alo.probability.to_bits(),
                blo.probability.to_bits(),
                "open lower"
            );
            assert_eq!(
                ahi.probability.to_bits(),
                bhi.probability.to_bits(),
                "open upper"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!("open-world: divergent outcomes {a:?} vs {b:?}"),
    }
}

fn data_dir() -> PathBuf {
    PathBuf::from("data")
}

/// Runs `ops` against a store with `fault` armed, crashing when the fault
/// fires; returns how many ops were acknowledged (append returned `Ok`).
fn run_until_fault(fs: &FailpointFs, ops: &[WalOp], fault: Fault, checkpoint_every: u64) -> usize {
    fs.inject(fault);
    let store_opts = StoreOptions {
        fsync: FsyncPolicy::Always,
        checkpoint_every,
    };
    let mut acked = 0;
    // Open may itself hit the fault (boundary 0 is the WAL header write);
    // then nothing was acknowledged and recovery starts from genesis.
    if let Ok((mut store, rec)) = Store::open(Arc::new(fs.clone()), &data_dir(), store_opts) {
        let mut db = rec.db;
        let mut views = rec.views;
        for op in ops {
            // Apply-then-log, exactly like the serving layer.
            apply_op(op, &mut db, &mut views).expect("generated op must apply");
            match store.append(op) {
                Ok(_) => acked += 1,
                Err(_) => break,
            }
            if store.should_checkpoint() {
                // A checkpoint interrupted by the fault is part of the
                // matrix: recovery must fall back to the old pair.
                let _ = store.checkpoint(&db, &views.export_states());
            }
        }
    }
    acked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole guarantee: `kill -9` at ANY injected fault point loses
    /// no acknowledged mutation under `fsync=always`, and recovery is
    /// always a prefix of the acknowledged sequence — bit-identical across
    /// every query kind, with views resuming from their circuits (only the
    /// ones created after the last surviving checkpoint recompile).
    #[test]
    fn crash_at_a_random_boundary_recovers_a_prefix_of_the_acked_ops(
        raw in prop::collection::vec(arb_raw(), 1..12),
        boundary in 0u64..20,
        fault_kind in 0u32..3,
        with_checkpoints in 0u32..2,
    ) {
        let ops = to_wal_ops(&raw);
        let fault = match fault_kind {
            0 => Fault::Halt { at: boundary },
            1 => Fault::TornWrite { at: boundary, keep: 3 },
            _ => Fault::BitFlip { at: boundary, bit: boundary * 13 + 5 },
        };
        let checkpoint_every = if with_checkpoints == 1 { 3 } else { 0 };

        let mem = MemFs::new();
        let fs = FailpointFs::new(Arc::new(mem.clone()));
        let acked = run_until_fault(&fs, &ops, fault, checkpoint_every);

        // kill -9: unsynced bytes die with the process. Recovery runs on
        // the bare filesystem (the halted wrapper models the dead process).
        mem.crash();
        let (_store, rec) = Store::open(
            Arc::new(mem.clone()),
            &data_dir(),
            StoreOptions { fsync: FsyncPolicy::Always, checkpoint_every: 0 },
        ).expect("recovery must always succeed");

        let recovered = (rec.info.snapshot_lsn + rec.info.replayed_ops) as usize;
        prop_assert!(recovered <= ops.len(), "recovered more ops than were issued");
        if fault_kind < 2 {
            // Halt / torn write: every acknowledged (synced) op survives. A
            // bit flip is silent corruption — acked-but-corrupt records are
            // legitimately dropped, so only prefix consistency applies.
            prop_assert!(
                recovered >= acked,
                "acked {acked} ops but recovered only {recovered}"
            );
        }

        // Views resume from persisted circuits: recovery recompiles exactly
        // the creates sitting in the replayed WAL tail.
        let tail = &ops[rec.info.snapshot_lsn as usize..recovered];
        let tail_creates = tail
            .iter()
            .filter(|o| matches!(o, WalOp::ViewCreate { .. }))
            .count();
        prop_assert_eq!(
            rec.views.recompiles() as usize,
            tail_creates,
            "recovery must recompile tail creates only"
        );

        // Prefix consistency, bit-identical across the five query kinds.
        let (want_db, want_views) = reference(&ops[..recovered]);
        assert_tuples_identical(&rec.db, &want_db);
        assert_views_identical(&rec.views, &want_views);
        assert_queries_identical(&rec.db, &want_db);
    }

    /// `fsync=never` bounds nothing but still never corrupts: a crash
    /// keeps some prefix of the issued ops (whatever reached the platter),
    /// and recovery of that prefix is bit-identical to its fresh replay.
    #[test]
    fn fsync_never_crash_is_still_prefix_consistent(
        raw in prop::collection::vec(arb_raw(), 1..10),
    ) {
        let ops = to_wal_ops(&raw);
        let mem = MemFs::new();
        let store_opts = StoreOptions { fsync: FsyncPolicy::Never, checkpoint_every: 0 };
        {
            let (mut store, rec) = Store::open(Arc::new(mem.clone()), &data_dir(), store_opts.clone())
                .expect("fresh open");
            let mut db = rec.db;
            let mut views = rec.views;
            for op in &ops {
                apply_op(op, &mut db, &mut views).expect("generated op must apply");
                store.append(op).expect("append");
            }
        }
        mem.crash();
        let (_store, rec) = Store::open(Arc::new(mem.clone()), &data_dir(), store_opts)
            .expect("recovery must always succeed");
        let recovered = rec.info.replayed_ops as usize;
        prop_assert!(recovered <= ops.len());
        let (want_db, want_views) = reference(&ops[..recovered]);
        assert_tuples_identical(&rec.db, &want_db);
        assert_views_identical(&rec.views, &want_views);
    }
}
