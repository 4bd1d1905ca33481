//! # pdb-lineage — Boolean provenance of queries
//!
//! The *lineage* `F_{Q,DOM}` of a query `Q` over a domain (paper appendix,
//! "Lineage of an FO sentence") is the Boolean function over tuple variables
//! `X_i` that is true exactly on the possible worlds satisfying `Q`.
//! Grounded inference (§7) is weighted model counting over this formula.
//!
//! * [`expr::BoolExpr`] — Boolean formula trees over tuple variables,
//! * [`cnf`] — clause representation; monotone DNF lineages (UCQs) negate
//!   into pure CNF, general formulas go through a Tseitin transform whose
//!   auxiliary variables carry the neutral weight pair `(1, 1)`,
//! * [`ground`] — the inductive lineage construction, plus a join-based fast
//!   path for UCQ lineages (only satisfying assignments over *stored* tuples
//!   are enumerated),
//! * [`eval`] — direct model checking of FO sentences on possible worlds,
//!   used to cross-validate the lineage construction.

pub mod cnf;
pub mod eval;
pub mod expr;
pub mod ground;

pub use cnf::{Clause, Cnf, Lit};
pub use expr::BoolExpr;
pub use ground::{
    cq_answer_bindings, lineage, lineage_with, reads_domain, ucq_dnf_lineage, DnfLineage,
};
