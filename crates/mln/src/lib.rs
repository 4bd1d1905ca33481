//! # pdb-mln — correlations through constraints (§3 + appendix)
//!
//! Tuple-independent databases look correlation-free, but §3 shows they are
//! not: conditioning a TID on a database constraint recovers the full
//! expressiveness of Markov Logic Networks (and hence of Markov networks).
//! This crate implements both sides of Proposition 3.1:
//!
//! * [`model::Mln`] — soft constraints `(w, Δ)`, grounding, exact world
//!   weights, the partition function `Z`, and `p_MLN(Q)` by enumeration,
//! * [`translate`](mod@translate) — the MLN → TID + constraint encoding: each soft
//!   constraint `(w, Δ)` becomes a fresh relation `R` with tuple probability
//!   `1/w` and the clause `Γ = ∀x⃗ (R(x⃗) ∨ Δ)`; then
//!   `p_MLN(Q) = p_D(Q | Γ)`.
//!
//!   *Unit note:* the paper's §3 text gives the value `1/(w−1)` — that is
//!   the **weight** of the fresh variable (appendix, second approach); as a
//!   *probability* it is `p = u/(1+u) = 1/w`. Our tests verify the
//!   proposition numerically, which pins the unit down. For `w < 1` the
//!   probability `1/w > 1` is non-standard, exactly as the appendix warns,
//!   and conditional probabilities still land in `[0,1]`.
//!
//! * [`factors`] — the appendix machinery at the Boolean level: weighted
//!   variables, factors `(w, G)`, `weight'(θ)`, `Z'`, and both
//!   factor-elimination encodings (`X ⟺ G` with weight `w`, and `X ∨ G`
//!   with weight `1/(w−1)`), including the Figure 3 table generator,
//! * [`infer`] — conditional probability `p_D(Q | Γ)` via brute force and
//!   via grounded inference (lineage + DPLL), the SlimShot architecture.

pub mod factors;
pub mod infer;
pub mod model;
pub mod translate;

pub use infer::{conditional_brute, conditional_grounded};
pub use model::{Mln, SoftConstraint};
pub use translate::{translate, Translation};
