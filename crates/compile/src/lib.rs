//! # pdb-compile — knowledge compilation targets (§7)
//!
//! Query compilation converts a lineage into a circuit from which weighted
//! model counts are read off in time linear in the circuit. This crate
//! implements the representations of §7 and Figure 2 and the conversions
//! between them:
//!
//! * [`obdd::Obdd`] — reduced *Ordered* BDDs with a unique table and an
//!   `apply` combinator; Theorem 7.1(i) is about their sizes,
//! * [`fbdd::Fbdd`] — *Free* BDDs (each path reads a variable once); built
//!   from DPLL traces without components,
//! * [`ddnnf::DecisionDnnf`] — FBDDs extended with independent-∧ nodes: the
//!   trace language of DPLL with caching *and* components (Theorem 7.1(ii)),
//! * [`ddnnf::Ddnnf`] — general d-DNNF circuits (disjoint-∨ / independent-∧ /
//!   leaf-¬), obtained from decision-DNNFs by expanding decisions,
//! * [`fig2`] — the two circuits of Figure 2, constructed verbatim,
//! * [`order`] — variable-order heuristics, including the hierarchical
//!   grouping that yields the linear-size OBDDs of Theorem 7.1(i-a).
//!
//! Circuits are evaluated only through `flatten()`, which lowers them into
//! a `pdb-kernel` [`FlatProgram`](pdb_kernel::FlatProgram) — a contiguous,
//! topologically-ordered array program evaluated by a non-recursive loop
//! (optionally over many probability vectors at once). Decision circuits
//! share one lowering, [`DecisionDnnf::flatten`]: an OBDD becomes a
//! decision-DNNF ([`Obdd::to_decision_dnnf`]) and an FBDD already is one.
//! [`DecisionDnnf::probability`] is the one tree walk left, the reference
//! every lowering is pinned against bit for bit.

pub mod ddnnf;
pub mod fbdd;
pub mod fig2;
pub mod obdd;
pub mod order;

pub use ddnnf::{Ddnnf, DecisionDnnf};
pub use fbdd::Fbdd;
pub use obdd::Obdd;

/// The 0/1 indicator probability vector of the assignment `mask` over
/// variables `0..n`, `n ≤ 64` (`x_v` is true iff bit `v` is set). A flat
/// program evaluated at it returns exactly `1.0` or `0.0` — the circuit's
/// Boolean value on that assignment — since every node then combines 0s
/// and 1s.
pub fn indicators(mask: u64, n: u32) -> Vec<f64> {
    (0..n).map(|v| (mask >> v & 1) as f64).collect()
}
