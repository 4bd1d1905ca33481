//! # pdb-kernel — flat circuit-evaluation kernels
//!
//! Every engine in the cascade ultimately bottoms out in *repeated*
//! evaluation of a compiled artifact: a decision-DNNF / OBDD / FBDD circuit
//! (§7 — the DPLL trace *is* the circuit, per Huang–Darwiche), a monotone
//! DNF (Karp–Luby sampling), or a raw boolean lineage (Monte-Carlo
//! sampling). A memoized recursion over a node arena is pointer-chasing,
//! enum-matching and allocates per call; this crate lowers those artifacts
//! **once** into contiguous, topologically-ordered structure-of-arrays
//! programs evaluated by tight, non-recursive loops — the only evaluator
//! compiled circuits have:
//!
//! * [`FlatProgram`] — an arithmetic circuit as an op-tag array plus
//!   child-span index arrays and a leaf→tuple table, with a scalar
//!   evaluator ([`FlatProgram::eval_into`]), a single-node re-evaluator for
//!   dirty-cone maintenance ([`FlatProgram::eval_node`]), and a **batched**
//!   entry point that evaluates one program under `B` probability vectors
//!   at once ([`FlatProgram::eval_batch_into`]), amortizing instruction
//!   decode across lanes and keeping the inner loop auto-vectorizable,
//! * [`FlatDnf`] — a monotone DNF as term spans over a flat literal array
//!   (the Karp–Luby inner loop: force a term, find the first satisfied
//!   term),
//! * [`FlatBool`] — an arbitrary boolean expression as a flat program over
//!   `bool` (the Monte-Carlo inner loop),
//! * [`stats`](mod@stats) — process-global counters (programs flattened, evaluations,
//!   batched evaluations, bytes touched per evaluation, flat program sizes)
//!   surfaced by the server's `stats` and `metrics` commands.
//!
//! ## The floating-point order guarantee
//!
//! Flat evaluation is **bit-identical** to the reference walk
//! `pdb_compile::DecisionDnnf::probability`, at every batch size. Each
//! node's value is a pure function of its children's values combined in
//! the *same left-to-right order* as the memoized recursion (`pv·hi +
//! (1−pv)·lo` for decisions, a left fold for ∧-products and ∨-sums), and a
//! topological one-pass schedule computes every node exactly once from
//! already-final children — exactly what the memoized recursion does. Batched lanes run the identical per-node
//! arithmetic per lane, so lane `b` of a batch equals the scalar
//! evaluation under probability vector `b` bit-for-bit. See
//! `docs/kernels.md`.
//!
//! This crate is dependency-free and lint-hardened: the P1 no-panic lint
//! applies to it, so evaluators never index or unwrap — malformed inputs
//! (impossible for builder-validated programs) propagate as `NaN` instead
//! of panicking.

#![warn(missing_docs)]

pub mod boolean;
pub mod dnf;
pub mod program;
pub mod stats;

pub use boolean::{BoolBuilder, FlatBool};
pub use dnf::FlatDnf;
pub use program::{FlatBuilder, FlatError, FlatNode, FlatProgram, OpTag};
pub use stats::{program_bytes, stats, KernelStats};
