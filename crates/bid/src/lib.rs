//! # pdb-bid — block-independent-disjoint databases
//!
//! The paper's §1 lists BID tables ("block-disjoint-independent \[16\]") as
//! the main studied alternative to tuple-independent databases. A BID
//! relation partitions its tuples into *blocks* (sharing a key); within a
//! block the tuples are **mutually exclusive** (at most one is present),
//! across blocks they are **independent**. This models attribute-level
//! uncertainty — "this customer's city is Paris (0.6) or London (0.3), or
//! unknown (0.1)" — which TIDs cannot express directly.
//!
//! * [`BidRelation`] / [`BidDb`] — the representation: the first `key_arity`
//!   columns form the block key; per-block probabilities must sum to ≤ 1
//!   (the slack is the "no tuple" option),
//! * [`worlds`] — exact possible-world enumeration and sampling under the
//!   BID semantics,
//! * [`inference`] — query evaluation by the **selector-chain encoding**:
//!   a block with tuples `t₁ … t_k` becomes independent selector variables
//!   `X₁ … X_k` with `p'ᵢ = pᵢ / (1 − Σ_{j<i} pⱼ)`, and `tᵢ` is present iff
//!   `¬X₁ ∧ … ∧ ¬Xᵢ₋₁ ∧ Xᵢ` (the chain rule); the query's lineage over the
//!   selectors is then counted by the ordinary TID machinery of `pdb-wmc`.

pub mod inference;
pub mod model;
pub mod worlds;

pub use inference::{probability, SelectorEncoding};
pub use model::{BidDb, BidRelation, Block};
