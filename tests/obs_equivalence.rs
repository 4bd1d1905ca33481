//! Observability is free of observable side effects: every query kind
//! returns **bit-identical** results — probability bits, engine choice,
//! and the approximate engine's RNG-derived standard error — with tracing
//! on or off, at every pool size (1, 2, 8 threads).
//!
//! This extends the PR 3/8 determinism contract (`parallel_determinism.rs`)
//! to the tracing layer: a span records wall time and attributes but never
//! touches the RNG, the sampling chunk layout, or the floating-point
//! combination order. The property tests additionally pin the span-tree
//! shape: child intervals nest inside their parents and sibling stages
//! appear in cascade order (`check_well_formed`).

use probdb::obs::{check_well_formed, span, with_tracer, SpanRecord, Stage, Tracer};
use probdb::par::{with_pool, Pool};
use probdb::{ProbDb, QueryOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn test_db(n: u64) -> ProbDb {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    ProbDb::from_tuple_db(pdb_data::generators::bipartite(
        n,
        0.7,
        (0.15, 0.85),
        &mut rng,
    ))
}

/// Runs `f` under a fresh tracer with a root `query` span, returning its
/// result and the recorded span tree.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    let tracer = Tracer::new();
    let out = with_tracer(&tracer, || {
        let _root = span(Stage::Query);
        f()
    });
    (out, tracer.records())
}

/// Asserts `f` returns the same value traced and untraced at pools 1/2/8,
/// and that every recorded span tree is well-formed.
fn tracing_invariant<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> Vec<SpanRecord> {
    let mut last_spans = Vec::new();
    for threads in [1usize, 2, 8] {
        let pool = Pool::new(threads);
        let off = with_pool(&pool, &f);
        let (on, spans) = with_pool(&pool, || traced(&f));
        assert_eq!(
            off, on,
            "tracing changed the result on a {threads}-thread pool"
        );
        assert!(!spans.is_empty(), "no spans recorded at {threads} threads");
        if let Err(e) = check_well_formed(&spans) {
            panic!("malformed span tree at {threads} threads: {e}");
        }
        last_spans = spans;
    }
    last_spans
}

/// The full observable Boolean answer: probability bits, engine, and the
/// standard error's bits (present only on the sampled path — equal bits
/// mean the RNG drew the identical sequence).
fn fo_fingerprint(db: &ProbDb, query: &str, opts: &QueryOptions) -> (u64, String, Option<u64>) {
    let a = db
        .query_fo(&probdb::logic::parse_fo(query).unwrap(), opts)
        .unwrap();
    (
        a.probability.to_bits(),
        format!("{:?}", a.method),
        a.std_error.map(f64::to_bits),
    )
}

#[test]
fn lifted_queries_are_tracing_invariant() {
    let db = test_db(4);
    let opts = QueryOptions::default();
    let spans =
        tracing_invariant(|| fo_fingerprint(&db, "exists x. exists y. R(x) & S(x,y)", &opts));
    assert!(
        spans.iter().any(|s| s.stage == Stage::Lifted),
        "lifted stage must be recorded: {spans:?}"
    );
}

#[test]
fn grounded_queries_are_tracing_invariant() {
    let db = test_db(4);
    let opts = QueryOptions::default();
    let spans = tracing_invariant(|| {
        fo_fingerprint(&db, "exists x. exists y. R(x) & S(x,y) & T(y)", &opts)
    });
    for stage in [Stage::Lifted, Stage::Compile, Stage::Ground] {
        assert!(
            spans.iter().any(|s| s.stage == stage),
            "missing {stage:?} in {spans:?}"
        );
    }
}

#[test]
fn approximate_queries_draw_identical_rng_sequences_under_tracing() {
    let db = test_db(6);
    // A tiny exact budget forces the Karp–Luby sampler; equal std_error
    // bits on/off prove the tracer never consumed or reseeded the RNG.
    let opts = QueryOptions {
        exact_budget: 2,
        samples: 20_000,
        ..Default::default()
    };
    let spans = tracing_invariant(|| {
        let fp = fo_fingerprint(&db, "exists x. exists y. R(x) & S(x,y) & T(y)", &opts);
        assert!(fp.2.is_some(), "expected the sampled path");
        fp
    });
    assert!(
        spans.iter().any(|s| s.stage == Stage::Sample),
        "sample stage must be recorded: {spans:?}"
    );
}

#[test]
fn answers_rows_are_tracing_invariant() {
    let db = test_db(5);
    let cq = probdb::logic::parse_cq("R(x), S(x,y), T(y)").unwrap();
    let head = [probdb::logic::Var::new("x")];
    let opts = QueryOptions::default();
    let rows = tracing_invariant(|| {
        db.query_answers(&cq, &head, &opts)
            .unwrap()
            .into_iter()
            .map(|r| (r.values, r.probability.to_bits(), format!("{:?}", r.method)))
            .collect::<Vec<_>>()
    });
    drop(rows);
}

#[test]
fn answers_rows_on_pool_workers_record_into_the_submitting_trace() {
    // Every candidate row is a safe Boolean query, so each records one
    // `lifted` span. Rows run on the pool; a job carries the submitter's
    // tracer and open span, so a row that ran on a worker records under the
    // root exactly like one the submitting thread ran itself. Enough rows
    // that the worker, not only the helping submitter, runs some of them.
    let db = test_db(40);
    let cq = probdb::logic::parse_cq("R(x), S(x,y)").unwrap();
    let head = [probdb::logic::Var::new("x")];
    let pool = Pool::new(2);
    let (rows, spans) = with_pool(&pool, || {
        traced(|| db.query_answers(&cq, &head, &QueryOptions::default()))
    });
    let rows = rows.unwrap();
    assert!(rows.len() > 1, "need several rows: {rows:?}");
    let root = spans.iter().find(|r| r.stage == Stage::Query).unwrap();
    let lifted: Vec<&SpanRecord> = spans.iter().filter(|r| r.stage == Stage::Lifted).collect();
    assert_eq!(
        lifted.len(),
        rows.len(),
        "one lifted span per row: {spans:?}"
    );
    assert!(
        lifted.iter().all(|r| r.parent == Some(root.id)),
        "{spans:?}"
    );
    check_well_formed(&spans).unwrap();
}

#[test]
fn open_world_intervals_are_tracing_invariant() {
    let db = test_db(4);
    let fo = probdb::logic::parse_fo("exists x. exists y. R(x) & S(x,y)").unwrap();
    let opts = QueryOptions::default();
    tracing_invariant(|| {
        let (lo, hi) = db.query_open_world(&fo, 0.2, &opts).unwrap();
        (lo.probability.to_bits(), hi.probability.to_bits())
    });
}

#[test]
fn server_queries_are_tracing_invariant_end_to_end() {
    // The service path (cache, spans, timeout plumbing) with slowlog
    // tracing on vs off: responses must be byte-identical.
    use probdb::server::{Service, ServiceOptions};
    use std::time::Duration;
    let lines = [
        "query exists x. exists y. R(x) & S(x,y)",
        "query exists x. exists y. R(x) & S(x,y) & T(y)",
        "answers x : R(x), S(x,y)",
        "open 0.2 exists x. exists y. R(x) & S(x,y)",
        "query exists x. exists y. R(x) & S(x,y)", // cache hit
    ];
    let run = |threshold: Option<Duration>| {
        let pool = Pool::new(2);
        with_pool(&pool, || {
            let svc = Service::new(
                test_db(4),
                ServiceOptions {
                    query_timeout: Duration::ZERO,
                    slowlog_threshold: threshold,
                    ..ServiceOptions::default()
                },
            );
            lines
                .iter()
                .map(|l| svc.handle_line(l).0)
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(run(None), run(Some(Duration::ZERO)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any traced query produces a well-formed span tree: every parent
    /// exists, child intervals nest inside their parents, and sibling
    /// stages appear in cascade (rank) order.
    #[test]
    fn span_trees_are_well_formed(n in 2u64..6, qi in 0usize..4, budget in 1u64..64) {
        let db = test_db(n);
        let queries = [
            "exists x. exists y. R(x) & S(x,y)",
            "exists x. exists y. R(x) & S(x,y) & T(y)",
            "exists x. R(x) & T(x)",
            "exists x. exists y. S(x,y) & T(y)",
        ];
        let opts = QueryOptions {
            exact_budget: budget,
            samples: 2_000,
            ..Default::default()
        };
        let fo = probdb::logic::parse_fo(queries[qi]).unwrap();
        let (_, records) = traced(|| db.query_fo(&fo, &opts));
        prop_assert!(!records.is_empty(), "no spans recorded");
        let shape = check_well_formed(&records);
        prop_assert!(shape.is_ok(), "malformed tree: {:?}", shape);
        // The root query span must enclose every engine stage.
        let root = records.iter().find(|r| r.stage == Stage::Query).unwrap();
        for r in &records {
            if r.id != root.id {
                prop_assert!(r.start_us >= root.start_us);
                prop_assert!(r.start_us + r.dur_us <= root.start_us + root.dur_us);
            }
        }
    }
}
