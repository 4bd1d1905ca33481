//! # pdb-wmc — weighted model counting (grounded inference)
//!
//! Grounded inference (§7) computes `p_D(Q)` by model counting over the
//! lineage. This crate implements the counting stack:
//!
//! * [`brute`] — exact enumeration over all assignments (the ground truth for
//!   everything else; capped at 30 variables),
//! * [`dpll`] — a DPLL-style weighted model counter in the Cachet/sharpSAT
//!   tradition: Shannon expansion (rule (11)), connected components
//!   (rule (12)), unit propagation, and component caching. Its recorded
//!   *trace* is a decision-DNNF (Huang–Darwiche; `pdb-compile` converts it),
//!   which is how the Theorem 7.1 experiments measure trace sizes,
//! * [`karp_luby`] — the Karp–Luby FPRAS for monotone DNF lineages, the
//!   classical fallback for #P-hard queries,
//! * [`monte_carlo`] — naive world sampling (unbiased but not an FPRAS;
//!   the ablation baseline that motivates Karp–Luby),
//! * [`prob`] — the front-end that picks the CNF encoding for an arbitrary
//!   [`pdb_lineage::BoolExpr`] and counts it ([`count_expr`]; the engine's
//!   exact path, view compilation and [`probability_of_expr`] all call it).
//!
//! Probabilities may be non-standard (outside `[0,1]`) throughout; only the
//! sampling-based estimator requires standard values.

pub mod brute;
pub mod dpll;
pub mod karp_luby;
pub mod monte_carlo;
pub mod prob;

pub use dpll::{
    run_parallel, Dpll, DpllOptions, DpllResult, DpllStats, Trace, TraceNode, TraceNodeId,
};
pub use prob::{count_expr, probability_of_expr, probability_of_query, ExprCount, ExprTrace};
