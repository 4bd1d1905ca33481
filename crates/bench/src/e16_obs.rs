//! E16 — observability overhead.
//!
//! Two claims from the observability PR are measured and gated here:
//!
//! - **Tracing changes no bits.** The grounded cascade (lifted →
//!   compile → DPLL over the grounded lineage of
//!   `∃x∃y R(x) ∧ S(x,y) ∧ T(y)`) and the kernel-batched answers path
//!   (`query_answers`, one flat-program batch across the candidate rows)
//!   return bit-identical probabilities with a subscriber installed and
//!   without one. This is the same invariant `tests/obs_equivalence.rs`
//!   proves per pool size; here it is re-checked on the bench workloads.
//!
//! - **A subscriber costs < 5% wall clock.** With a `Tracer` installed,
//!   every query records its full span tree (≈ ten spans: query, lifted,
//!   compile, ground/eval, attribute writes); the slowdown over the
//!   untraced run must stay under 5% on both workloads. Without a
//!   subscriber a span is a single relaxed atomic load — the measured
//!   delta is noise, and no gate is placed on it beyond the 5% bound.
//!
//! The gate compares the **minimum** wall clock over `ROUNDS` interleaved
//! traced/untraced runs: the minimum is the run least disturbed by
//! scheduler noise, and interleaving decorrelates clock drift from the
//! on/off split. Every round's output is asserted identical to the first.

use crate::Effort;
use pdb_core::{ProbDb, QueryOptions};
use pdb_obs::{span, with_tracer, Stage, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Bipartite TID size: large enough that one grounded query runs for
/// milliseconds (spans are sub-microsecond each), small enough for CI.
const DOMAIN: u64 = 8;
const ROUNDS: usize = 15;
/// The overhead gate: traced / untraced minimum wall clock.
const MAX_OVERHEAD: f64 = 1.05;

fn test_db() -> ProbDb {
    let mut rng = StdRng::seed_from_u64(0xE16);
    ProbDb::from_tuple_db(pdb_data::generators::bipartite(
        DOMAIN,
        0.7,
        (0.15, 0.85),
        &mut rng,
    ))
}

/// Gates one workload: bit identity traced vs untraced, then the < 5%
/// subscriber-overhead bound on minimum wall clock over interleaved
/// rounds. Returns the report line.
fn gate<R: PartialEq + std::fmt::Debug>(label: &str, f: impl Fn() -> R) -> String {
    let traced = || {
        let tracer = Tracer::new();
        let out = with_tracer(&tracer, || {
            let _root = span(Stage::Query);
            f()
        });
        assert!(
            tracer.records().len() >= 2,
            "{label}: the traced run must record engine spans"
        );
        out
    };
    // Warm both paths (allocator, caches) before measuring.
    black_box(f());
    black_box(traced());

    let mut off_min = Duration::MAX;
    let mut on_min = Duration::MAX;
    let mut expected = None;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let off_out = black_box(f());
        off_min = off_min.min(t0.elapsed());
        let t1 = Instant::now();
        let on_out = black_box(traced());
        on_min = on_min.min(t1.elapsed());
        assert_eq!(off_out, on_out, "{label}: tracing changed the result bits");
        match &expected {
            None => expected = Some(off_out),
            Some(prev) => assert_eq!(&off_out, prev, "output changed between rounds"),
        }
    }
    let ratio = on_min.as_secs_f64() / off_min.as_secs_f64().max(1e-12);
    let line = format!(
        "e16_obs: {label}  untraced {off_min:.2?}  traced {on_min:.2?}  ({:+.2}%)\n",
        (ratio - 1.0) * 100.0
    );
    print!("{line}");
    assert!(
        ratio <= MAX_OVERHEAD,
        "{label}: subscriber overhead {:.2}% exceeds the 5% gate",
        (ratio - 1.0) * 100.0
    );
    line
}

/// Runs E16. The gate ignores `effort`: its workload and bound are the gate.
pub fn run(_effort: Effort) -> String {
    let db = test_db();
    let opts = QueryOptions::default();

    // Workload 1: the grounded cascade on the prototypical #P-hard query.
    let hard = pdb_logic::parse_fo("exists x. exists y. R(x) & S(x,y) & T(y)").unwrap();
    let grounded = || {
        let a = db.query_fo(&hard, &opts).unwrap();
        (a.probability.to_bits(), format!("{:?}", a.method))
    };

    // Workload 2: the kernel-batched answers path — every candidate row's
    // lineage is compiled once and evaluated through the flat kernel.
    let cq = pdb_logic::parse_cq("R(x), S(x,y), T(y)").unwrap();
    let head = [pdb_logic::Var::new("x")];
    let answers = || {
        db.query_answers(&cq, &head, &opts)
            .unwrap()
            .into_iter()
            .map(|r| (r.values, r.probability.to_bits()))
            .collect::<Vec<_>>()
    };

    gate("grounded cascade", grounded) + &gate("kernel-batched answers", answers)
}
