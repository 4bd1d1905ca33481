//! # pdb-datalog — probabilistic datalog over tuple-independent databases
//!
//! The paper's §2 lists datalog programs (ProbLog \[51\], declarative
//! probabilistic datalog \[6\]) among the query languages for `PQE`, and §9
//! covers recursive queries. This crate implements the ProbLog-style
//! semantics over a TID of extensional facts:
//!
//! > the probability of a derived fact is the probability that the random
//! > world derives it,
//!
//! computed exactly like ProbLog does (§9): ground the program to obtain
//! the fact's **lineage** and hand it to weighted model counting.
//!
//! * [`Rule`] / [`Program`] — positive datalog with recursion
//!   (`Path(x,z) <- Path(x,y), Edge(y,z).`), parsed by [`parse_program`],
//! * [`DatalogEngine`] — semi-naive fixpoint evaluation that carries each
//!   derived fact's monotone-DNF lineage (sets of EDB tuple ids), with
//!   absorption (minimal support sets) guaranteeing termination,
//! * probabilities via the `pdb-wmc` DPLL counter — two-terminal network
//!   reliability falls out as `p(Path(s,t))`, which the tests cross-check
//!   against possible-world enumeration.

pub mod engine;
pub mod program;

pub use engine::DatalogEngine;
pub use program::{parse_program, Program, Rule};
