//! Replication property tests: a replica converging on a primary over
//! real TCP must reach **bit-identical** state — same stored-probability
//! bit patterns, same answers across all five query kinds (`query`,
//! `answers`, `classify`, `open`, `view show`) — no matter when it
//! connected, and must keep converging through injected disconnects, torn
//! stream records, stalls, refused dials, a primary checkpoint that
//! truncates the WAL past the replica's position (re-bootstrap), and a
//! graceful primary shutdown.

use probdb::replica::{
    start_replica, Connector, FaultConnector, ReplicaHandle, ReplicaOptions, ReplicaStatus,
    StreamFault, StreamFaults, TcpConnector,
};
use probdb::server::{serve_service, ServerHandle, ServerOptions, Service, ServiceOptions};
use probdb::store::{MemFs, Store, StoreOptions, WalOp};
use probdb::views::persist::ViewDefState;
use probdb::views::ViewManager;
use probdb::{ProbDb, QueryOptions};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The Boolean view definitions ops can create/drop (one safe query, one
/// #P-hard-shaped one) — mirrors `tests/store_recovery.rs`.
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

/// Lowers the raw sequence to valid `WalOp`s (no duplicate view create, no
/// drop of an absent view) — same lowering as the recovery test.
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

/// Renders an op as the protocol line the primary's service executes —
/// mutations enter through the real command path, exactly like clients.
fn op_line(op: &WalOp) -> String {
    let consts = |cs: &[u64]| cs.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
    match op {
        WalOp::Insert {
            relation,
            tuple,
            prob,
        } => format!("insert {relation} {} {prob}", consts(tuple)),
        WalOp::UpdateProb {
            relation,
            tuple,
            prob,
        } => format!("update {relation} {} {prob}", consts(tuple)),
        WalOp::ExtendDomain { consts: cs } => format!("domain {}", consts(cs)),
        WalOp::ViewCreate {
            name,
            def: ViewDefState::Boolean(text),
        } => format!("view create {name} query {text}"),
        WalOp::ViewCreate {
            name,
            def: ViewDefState::Answers { head, body },
        } => format!("view create {name} answers {} : {body}", head.join(", ")),
        WalOp::ViewDrop { name } => format!("view drop {name}"),
    }
}

fn inline_opts() -> ServiceOptions {
    ServiceOptions {
        query_timeout: Duration::ZERO,
        cache_capacity: 64,
        degraded_samples: 5_000,
        ..ServiceOptions::default()
    }
}

/// Opens (recovers) the durable service in `fs`.
fn durable_service(fs: Arc<MemFs>, checkpoint_every: u64) -> Service {
    let (store, rec) = Store::open(
        fs,
        std::path::Path::new("data"),
        StoreOptions {
            checkpoint_every,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    Service::with_store(rec.db, rec.views, store, inline_opts())
}

/// A durable primary served over real loopback TCP (MemFs-backed store:
/// checkpoints and WAL behave exactly like on disk, without touching the
/// test machine's filesystem).
fn primary_server(checkpoint_every: u64) -> ServerHandle {
    primary_server_on(Arc::new(MemFs::new()), checkpoint_every)
}

fn primary_server_on(fs: Arc<MemFs>, checkpoint_every: u64) -> ServerHandle {
    let svc = durable_service(fs, checkpoint_every);
    serve_service(
        svc,
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            workers: 3,
            query_timeout: Duration::ZERO,
            cache_capacity: 64,
        },
    )
    .unwrap()
}

/// Aggressive timings so faults and reconnects resolve in milliseconds.
fn replica_opts() -> ReplicaOptions {
    ReplicaOptions {
        heartbeat_timeout: Duration::from_millis(800),
        backoff_initial: Duration::from_millis(5),
        backoff_max: Duration::from_millis(50),
    }
}

/// A read-only replica service with its client thread attached, optionally
/// dialing through the fault harness.
fn start_test_replica(
    addr: std::net::SocketAddr,
    faults: Option<Arc<StreamFaults>>,
) -> (Service, ReplicaHandle, Arc<ReplicaStatus>) {
    let status = Arc::new(ReplicaStatus::new());
    let svc = Service::new_replica(addr.to_string(), Arc::clone(&status), inline_opts());
    let tcp: Box<dyn Connector> = Box::new(TcpConnector::new(addr.to_string()));
    let connector: Box<dyn Connector> = match faults {
        Some(f) => Box::new(FaultConnector::new(tcp, f)),
        None => tcp,
    };
    let handle = start_replica(
        Arc::new(svc.clone()),
        connector,
        Arc::clone(&status),
        replica_opts(),
    );
    (svc, handle, status)
}

/// Polls until the replica has applied everything up to `target_lsn`.
fn wait_caught_up(status: &ReplicaStatus, target_lsn: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while status.next_lsn() < target_lsn {
        assert!(
            Instant::now() < deadline,
            "replica stuck at lsn {} of {target_lsn} (connected={}, \
             bootstraps={}, reconnects={})",
            status.next_lsn(),
            status.connected(),
            status.bootstraps(),
            status.reconnects(),
        );
        std::thread::sleep(Duration::from_millis(2));
    }
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

/// Query kinds 1-4 (`query`, `answers`, `classify`, `open`): the replica
/// must answer each bit-identically to the primary.
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

/// Bit-identity across all five query kinds, end to end.
fn assert_converged(primary: &Service, replica: &Service) {
    let want = primary.db_snapshot();
    let got = replica.db_snapshot();
    assert_tuples_identical(&got, &want);
    assert_queries_identical(&got, &want);
    primary.inspect_views(|pv| replica.inspect_views(|rv| assert_views_identical(rv, pv)));
}

/// Applies ops through the primary's real command path; returns the
/// primary's head LSN afterwards.
fn apply_ops(primary: &Service, ops: &[WalOp]) -> u64 {
    apply_ops_logged(primary, ops, &mut String::new())
}

/// [`apply_ops`], appending every reply to `transcript`.
fn apply_ops_logged(primary: &Service, ops: &[WalOp], transcript: &mut String) -> u64 {
    for op in ops {
        let (resp, _) = primary.handle_line(&op_line(op));
        // Updating a tuple that was never inserted is a benign refusal:
        // the primary does not log it, so the replica never sees it.
        assert!(
            !resp.starts_with("error") || resp.contains("not a possible tuple"),
            "primary refused {:?}: {resp}",
            op_line(op)
        );
        transcript.push_str(&resp);
    }
    primary.store_lsns().expect("primary has a store").1
}

/// What a client reads back of the state: `show` plus every `view show`.
const READ_BACK: [&str; 3] = ["show", "view show v_safe", "view show v_hard"];

fn read_back(svc: &Service) -> String {
    READ_BACK.map(|line| svc.handle_line(line).0).concat()
}

/// Pipes `lines` through the real `probdb-cli` line loop; returns
/// everything it printed.
fn shell_transcript(lines: &[String]) -> String {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut shell = Command::new(env!("CARGO_BIN_EXE_probdb-cli"))
        .arg("--batch")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn probdb-cli");
    let mut stdin = shell.stdin.take().expect("piped stdin");
    for line in lines {
        writeln!(stdin, "{line}").expect("write to probdb-cli");
    }
    drop(stdin); // EOF ends the session
    let out = shell.wait_with_output().expect("probdb-cli exits");
    assert!(out.status.success(), "probdb-cli failed: {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole guarantee: whatever mutation sequence runs and however
    /// it is split around the replica's connect (bootstrap vs live
    /// stream), the replica converges to bit-identical state across all
    /// five query kinds — and so does every other route an op history can
    /// take to the one `apply`: the same lines typed into the shell, and
    /// the primary's own log replayed by recovery, read back byte for byte
    /// what the live primary prints.
    #[test]
    fn replica_converges_bit_identically_for_any_mutation_split(
        raw in prop::collection::vec(arb_raw(), 1..10),
        split in 0usize..10,
    ) {
        let ops = to_wal_ops(&raw);
        let split = split.min(ops.len());
        let fs = Arc::new(MemFs::new());
        let server = primary_server_on(Arc::clone(&fs), 0);
        let primary = server.service().clone();
        let mut live = String::new();
        // Some ops land before the replica exists (served via snapshot
        // bootstrap + WAL catch-up) ...
        apply_ops_logged(&primary, &ops[..split], &mut live);
        let (replica, handle, status) = start_test_replica(server.local_addr(), None);
        // ... and the rest while it streams live.
        let head = apply_ops_logged(&primary, &ops[split..], &mut live);
        wait_caught_up(&status, head);
        assert_converged(&primary, &replica);

        let want = read_back(&primary);
        prop_assert_eq!(read_back(&replica), want.clone(), "replica read-back");
        let script: Vec<String> = ops
            .iter()
            .map(op_line)
            .chain(READ_BACK.map(String::from))
            .collect();
        prop_assert_eq!(shell_transcript(&script), live + &want, "shell transcript");
        drop(handle);
        server.shutdown();
        drop(primary);
        prop_assert_eq!(read_back(&durable_service(fs, 0)), want, "recovered read-back");
    }

    /// Fault sweep: a disconnect, torn record, or stall injected at an
    /// arbitrary global read ordinal never prevents convergence — the
    /// client reconnects and resumes from its LSN.
    #[test]
    fn replica_converges_through_a_fault_at_any_stream_position(
        raw in prop::collection::vec(arb_raw(), 4..10),
        ordinal in 0u64..40,
        fault_kind in 0u32..3,
    ) {
        let ops = to_wal_ops(&raw);
        let server = primary_server(0);
        let primary = server.service().clone();
        apply_ops(&primary, &ops[..ops.len() / 2]);
        let faults = Arc::new(StreamFaults::new());
        faults.inject(match fault_kind {
            0 => StreamFault::Disconnect { at: ordinal },
            1 => StreamFault::Torn { at: ordinal, keep: 1 },
            _ => StreamFault::Stall { at: ordinal },
        });
        let (replica, handle, status) =
            start_test_replica(server.local_addr(), Some(Arc::clone(&faults)));
        let head = apply_ops(&primary, &ops[ops.len() / 2..]);
        wait_caught_up(&status, head);
        assert_converged(&primary, &replica);
        drop(handle);
        server.shutdown();
    }
}

/// A replica whose LSN the primary has checkpointed away re-bootstraps
/// from a fresh snapshot automatically — and still lands bit-identical.
#[test]
fn replica_rebootstraps_after_a_primary_checkpoint_truncates_its_position() {
    let server = primary_server(4); // checkpoint every 4 records
    let primary = server.service().clone();
    let head = apply_ops(
        &primary,
        &[
            WalOp::Insert {
                relation: "R".into(),
                tuple: vec![1],
                prob: 0.5,
            },
            WalOp::Insert {
                relation: "S".into(),
                tuple: vec![1, 2],
                prob: 0.8,
            },
        ],
    );
    let (replica, mut handle, status) = start_test_replica(server.local_addr(), None);
    wait_caught_up(&status, head);
    assert_eq!(status.bootstraps(), 1, "initial snapshot bootstrap");
    // Disconnect the replica, then push the primary past a checkpoint so
    // the WAL base advances beyond the replica's LSN.
    handle.stop();
    let head = apply_ops(
        &primary,
        &[
            WalOp::ViewCreate {
                name: "v_safe".into(),
                def: ViewDefState::Boolean(VIEW_DEFS[0].1.into()),
            },
            WalOp::UpdateProb {
                relation: "S".into(),
                tuple: vec![1, 2],
                prob: 0.4,
            },
            WalOp::Insert {
                relation: "T".into(),
                tuple: vec![2],
                prob: 0.3,
            },
        ],
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (base, _) = primary.store_lsns().expect("primary has a store");
        if base > status.next_lsn() {
            break; // the checkpoint ran: the replica's position is gone
        }
        assert!(Instant::now() < deadline, "checkpoint never truncated");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Reconnect with the same status (same position): the primary cannot
    // serve that LSN from its log anymore and must send a snapshot.
    let client = start_replica(
        Arc::new(replica.clone()),
        Box::new(TcpConnector::new(server.local_addr().to_string())),
        Arc::clone(&status),
        replica_opts(),
    );
    wait_caught_up(&status, head);
    assert_eq!(status.bootstraps(), 2, "re-bootstrap after checkpoint");
    assert_converged(&primary, &replica);
    // The view arrived inside the snapshot: its circuit was imported, not
    // recompiled on the replica.
    replica.inspect_views(|v| assert_eq!(v.recompiles(), 0, "snapshot views must not recompile"));
    drop(client);
    server.shutdown();
}

/// Refused dials (a down primary) climb the backoff ladder without giving
/// up; the replica converges once the primary answers again.
#[test]
fn replica_survives_refused_connects_then_catches_up() {
    let server = primary_server(0);
    let primary = server.service().clone();
    let faults = Arc::new(StreamFaults::new());
    faults.inject(StreamFault::RefuseConnects { n: 3 });
    let (replica, handle, status) = start_test_replica(server.local_addr(), Some(faults.clone()));
    let head = apply_ops(
        &primary,
        &[
            WalOp::Insert {
                relation: "R".into(),
                tuple: vec![1],
                prob: 0.5,
            },
            WalOp::Insert {
                relation: "S".into(),
                tuple: vec![1, 2],
                prob: 0.8,
            },
        ],
    );
    wait_caught_up(&status, head);
    assert!(faults.triggered(), "the refusals were exercised");
    assert!(status.reconnects() >= 3, "dials were refused then retried");
    assert_converged(&primary, &replica);
    drop(handle);
    server.shutdown();
}

/// A graceful primary shutdown (the wire `shutdown` command) reaches the
/// replica as an explicit frame: it marks the primary down immediately,
/// keeps serving reads, and keeps retrying in the background.
#[test]
fn replica_marks_primary_down_on_clean_shutdown_and_keeps_serving_reads() {
    let server = primary_server(0);
    let primary = server.service().clone();
    let head = apply_ops(
        &primary,
        &[
            WalOp::Insert {
                relation: "R".into(),
                tuple: vec![1],
                prob: 0.5,
            },
            WalOp::Insert {
                relation: "S".into(),
                tuple: vec![1, 2],
                prob: 0.8,
            },
        ],
    );
    let (replica, handle, status) = start_test_replica(server.local_addr(), None);
    wait_caught_up(&status, head);
    let (resp, _) = primary.handle_line("shutdown");
    assert!(resp.starts_with("shutting down"), "{resp}");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !status.primary_down() {
        assert!(
            Instant::now() < deadline,
            "shutdown frame never reached the replica"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // The replica is down-stream of a dead primary but still answers reads
    // bit-identically to the last replicated state.
    let (resp, _) = replica.handle_line("query exists x. exists y. R(x) & S(x,y)");
    assert!(resp.contains("p = 0.400000"), "{resp}");
    let (resp, keep) = replica.handle_line("insert R 9 0.9");
    assert!(resp.contains("read-only replica"), "{resp}");
    assert!(keep);
    let stats = replica.stats_text();
    assert!(stats.contains("primary_down=true"), "{stats}");
    drop(handle);
    server.join();
}
