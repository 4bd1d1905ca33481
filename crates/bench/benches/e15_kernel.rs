//! Criterion bench for E15: the flat evaluation kernel.
//!
//! The kernel's claim is measured and gated here: **batched flat
//! evaluation beats the reference walk `DecisionDnnf::probability` ≥ 5×.**
//! A matching-style decision-DNNF with `n = 2000` independent `xᵢ ∧ yᵢ`
//! pairs (4000 leaves, ~4000 decision nodes — the lineage shape of the
//! prototypical #P-hard query) is evaluated under `B = 64` probability
//! vectors three ways: the reference walk (a memoized recursion with one
//! `HashMap` per call), the flat scalar kernel (`FlatProgram::eval` per
//! lane), and the batched kernel (`FlatProgram::eval_batch`, one
//! instruction stream for all lanes). All three must agree **bit for bit**
//! on every lane; the batched kernel must be ≥ 5× faster than the
//! reference walk.

use criterion::{criterion_group, criterion_main, Criterion};
use pdb_compile::ddnnf::DdnnfNode;
use pdb_compile::DecisionDnnf;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Independent `xᵢ ∧ yᵢ` pairs in the circuit — `n ≥ 2000` per the E15
/// acceptance gate (4000 leaf variables).
const PAIRS: usize = 2000;
/// Probability vectors per batched call.
const LANES: usize = 64;
const ROUNDS: usize = 7;

/// The OBDD-shaped decision-DNNF of `⋁ᵢ (x_{2i} ∧ x_{2i+1})` over
/// `2·pairs` variables: per pair, a decision on `x_{2i}` whose hi-child
/// decides `x_{2i+1}` (hi → True) and whose lo-child falls through to the
/// next pair. Linear size, read-once, known closed form.
fn matching_dnnf(pairs: usize) -> DecisionDnnf {
    let mut nodes = vec![DdnnfNode::True, DdnnfNode::False];
    let mut next = 1u32; // start of the fall-through chain: False
    for i in (0..pairs).rev() {
        let y = nodes.len() as u32;
        nodes.push(DdnnfNode::Decision {
            var: (2 * i + 1) as u32,
            hi: 0,
            lo: next,
        });
        let x = nodes.len() as u32;
        nodes.push(DdnnfNode::Decision {
            var: (2 * i) as u32,
            hi: y,
            lo: next,
        });
        next = x;
    }
    DecisionDnnf::new(nodes, next)
}

/// `lanes` stacked probability vectors, deterministic and all distinct.
fn lane_probs(nvars: usize, lanes: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(nvars * lanes);
    let mut state = 0x51E5u64;
    for _ in 0..nvars * lanes {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.push((state >> 11) as f64 / (1u64 << 53) as f64);
    }
    out
}

/// Runs `f` `ROUNDS` times, asserting the output never changes, and
/// returns `(median wall-clock, output)`.
fn timed<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> (Duration, R) {
    let mut times = Vec::with_capacity(ROUNDS);
    let mut out = None;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let r = black_box(f());
        times.push(t0.elapsed());
        match &out {
            None => out = Some(r),
            Some(prev) => assert_eq!(&r, prev, "output changed between rounds"),
        }
    }
    times.sort();
    (times[ROUNDS / 2], out.unwrap())
}

fn bench(c: &mut Criterion) {
    let dd = matching_dnnf(PAIRS);
    let flat = dd.flatten();
    let stride = 2 * PAIRS;
    let stacked = lane_probs(stride, LANES);

    let tree_walk = || -> Vec<u64> {
        (0..LANES)
            .map(|k| {
                dd.probability(&stacked[k * stride..(k + 1) * stride])
                    .to_bits()
            })
            .collect()
    };
    let flat_scalar = || -> Vec<u64> {
        (0..LANES)
            .map(|k| flat.eval(&stacked[k * stride..(k + 1) * stride]).to_bits())
            .collect()
    };
    let flat_batched = || -> Vec<u64> {
        flat.eval_batch(&stacked, stride)
            .into_iter()
            .map(f64::to_bits)
            .collect()
    };

    let mut g = c.benchmark_group("e15_kernel");
    g.sample_size(10);
    g.bench_function(format!("tree_walk/B={LANES}"), |b| {
        b.iter(|| black_box(tree_walk()))
    });
    g.bench_function(format!("flat_scalar/B={LANES}"), |b| {
        b.iter(|| black_box(flat_scalar()))
    });
    g.bench_function(format!("flat_batched/B={LANES}"), |b| {
        b.iter(|| black_box(flat_batched()))
    });
    g.finish();

    // Acceptance gate: bit identity on every lane, then ≥ 5× throughput
    // for the batched kernel over the reference walk.
    let (tree_med, tree_bits) = timed(tree_walk);
    let (scalar_med, scalar_bits) = timed(flat_scalar);
    let (batch_med, batch_bits) = timed(flat_batched);
    assert_eq!(tree_bits, scalar_bits, "flat scalar diverged from tree");
    assert_eq!(tree_bits, batch_bits, "flat batched diverged from tree");
    let vs_tree = tree_med.as_secs_f64() / batch_med.as_secs_f64().max(1e-12);
    let vs_scalar = scalar_med.as_secs_f64() / batch_med.as_secs_f64().max(1e-12);
    println!(
        "e15_kernel: n={PAIRS} pairs ({} nodes), B={LANES} lanes, medians over {ROUNDS} rounds\n\
         \x20 tree walk    {tree_med:.2?}\n\
         \x20 flat scalar  {scalar_med:.2?}\n\
         \x20 flat batched {batch_med:.2?}  ({vs_tree:.1}x vs tree, {vs_scalar:.1}x vs scalar)",
        dd.size(),
    );
    assert!(
        vs_tree >= 5.0,
        "batched kernel only {vs_tree:.2}x faster than the tree walk (need >= 5x)"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
