//! # pdb-symmetric — symmetric databases and FO² model counting (§8)
//!
//! On a *symmetric* database every tuple of a relation has the same
//! probability, so `PQE` degenerates to **symmetric weighted first-order
//! model counting**: the input is just the domain size `n` (a `#P₁`-flavored
//! problem). §8's surprises are implemented here:
//!
//! * [`h0`] — the paper's closed-form `O(n²)` formula for
//!   `H₀ = ∀x∀y (R(x) ∨ S(x,y) ∨ T(y))`, the query that is #P-hard on
//!   general databases (Theorem 2.2) yet polynomial on symmetric ones,
//! * [`wfomc`] — the general FO² algorithm behind Theorem 8.1: a
//!   1-type/2-table *cell decomposition* for `∀x∀y ψ` sentences, with
//!   `∀x∃y ψ` handled by Skolemization with **negative weights**
//!   (Van den Broeck–Meert–Darwiche, the paper's \[24\]): a fresh unary
//!   predicate with weight pair `(1, −1)` cancels exactly the worlds that
//!   violate the existential,
//! * log-space arithmetic (`pdb_num::LogNum`) throughout, so `n` in the
//!   thousands works for the closed form.
//!
//! Complexity: the cell algorithm sums over compositions of `n` into `c`
//! cell counts — `O(n^{c−1})` terms, polynomial in `n` for every fixed
//! sentence (the content of Theorem 8.1), in sharp contrast to the `2^{n²}`
//! possible worlds.

pub mod h0;
pub mod wfomc;

pub use h0::h0_probability;
pub use wfomc::{wfomc_probability, Fo2Clause, Fo2Query};
