//! # pdb-bench — the experiment harness
//!
//! One module per experiment in DESIGN.md §5 (E1–E9), each regenerating a
//! figure or theorem-backed claim of the paper as a printed table, plus one
//! per acceptance gate (E11, E12, E15, E16), each asserting a measured
//! bound. The `experiments` binary drives them (`cargo run -p pdb-bench
//! --release -- e1 … e16 | all`). End-to-end performance is measured by the
//! ledger under `benchmark/`, not here.
//!
//! Every experiment returns its table as a `String` (and prints it), so the
//! binary and EXPERIMENTS.md share one source of truth.

pub mod e11_views;
pub mod e12_parallel;
pub mod e15_kernel;
pub mod e16_obs;
pub mod e1_example21;
pub mod e2_h0_hardness;
pub mod e3_dichotomy;
pub mod e4_inclexcl;
pub mod e5_plans;
pub mod e6_compilation;
pub mod e7_symmetric;
pub mod e8_mln;
pub mod e9_engine;

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Effort level for an experiment run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Effort {
    /// Small sweeps (CI / tests).
    Quick,
    /// The full sweeps reported in EXPERIMENTS.md.
    Full,
}

/// Formats a duration in a compact human unit.
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

/// Runs `f` `rounds` times, asserting the output never changes, and
/// returns `(median wall-clock, output)`.
pub fn timed<R: PartialEq + std::fmt::Debug>(rounds: usize, f: impl Fn() -> R) -> (Duration, R) {
    let mut times = Vec::with_capacity(rounds);
    let mut out = None;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let r = black_box(f());
        times.push(t0.elapsed());
        match &out {
            None => out = Some(r),
            Some(prev) => assert_eq!(&r, prev, "output changed between rounds"),
        }
    }
    times.sort();
    (times[rounds / 2], out.unwrap())
}

/// An experiment runner.
pub type Runner = fn(Effort) -> String;

/// The experiment registry: `(id, runner)`.
pub fn experiments() -> Vec<(&'static str, Runner)> {
    vec![
        ("e1: Example 2.1 / Figure 1", e1_example21::run),
        ("e2: Theorem 2.2 — H0 hardness", e2_h0_hardness::run),
        ("e3: Theorem 4.3 — dichotomy", e3_dichotomy::run),
        ("e4: Section 5 — inclusion/exclusion", e4_inclexcl::run),
        ("e5: Section 6 — plans and bounds", e5_plans::run),
        ("e6: Theorem 7.1 — query compilation", e6_compilation::run),
        ("e7: Section 8 — symmetric databases", e7_symmetric::run),
        ("e8: Section 3 / Figure 3 — MLNs", e8_mln::run),
        ("e9: engine ablation", e9_engine::run),
        (
            "e11: gate — incremental views ≥ 10× re-query",
            e11_views::run,
        ),
        (
            "e12: gate — parallel bit identity and speedup",
            e12_parallel::run,
        ),
        ("e15: gate — batched kernel ≥ 5× tree walk", e15_kernel::run),
        ("e16: gate — tracing overhead < 5%", e16_obs::run),
    ]
}
