//! A compiled query kept **evaluated** under its current leaf probabilities.
//!
//! An [`IncrementalCircuit`] is a row's [`CompiledQuery`] — the flat program
//! [`pdb_core::compile_grounded`] produced, gate index = topological rank —
//! plus the row's leaf probabilities and one reusable value buffer. On
//! [`set_prob`] it runs one kernel pass over the row's program
//! ([`pdb_kernel::FlatProgram::eval_into`]), no recompilation: compile once
//! (§7, eqs. (11)–(13)), then evaluate in time linear in the circuit — the
//! gap that makes materialized views cheaper to maintain than to recompute.
//!
//! [`set_prob`]: IncrementalCircuit::set_prob

use pdb_compile::DecisionDnnf;
use pdb_core::CompiledQuery;
use std::sync::Arc;

/// A compiled query with its leaf probabilities and last gate values.
///
/// The query's program is persisted as is (its flat nodes and leaf table);
/// the value buffer is scratch for the kernel and never persisted. The
/// query records how its root value maps back to the query probability
/// ([`CompiledQuery::answer`]): a monotone-DNF lineage is counted
/// **negated**, and a Tseitin encoding needs a `2^aux` correction.
#[derive(Clone, Debug)]
pub struct IncrementalCircuit {
    /// The compiled query: flat program, leaf table and encoding.
    query: Arc<CompiledQuery>,
    /// Leaf probabilities, indexed by program variable.
    probs: Vec<f64>,
    /// Value of every flat gate after the last pass (index = flat index).
    values: Vec<f64>,
}

impl IncrementalCircuit {
    /// Builds the circuit from a decision-DNNF and the leaf probabilities
    /// (`probs[v]` for circuit variable `v`; Tseitin auxiliary variables, if
    /// any, must already be present at weight ½). The program keeps the
    /// circuit's variables, so [`IncrementalCircuit::set_prob`] takes them
    /// too.
    pub fn new(
        dd: &DecisionDnnf,
        probs: Vec<f64>,
        negated: bool,
        scale: f64,
    ) -> IncrementalCircuit {
        // The one decision-DNNF lowering: a malformed arena degrades to ⊥
        // rather than panicking the request worker.
        let query = CompiledQuery::detached(dd.flatten(), negated, scale);
        IncrementalCircuit::compiled(Arc::new(query), probs)
    }

    /// The circuit of a compiled query under `probs`, one per program
    /// variable (from [`CompiledQuery::leaf_probs`] or a snapshot). Gate
    /// values are computed here, never trusted from disk: the forward pass
    /// is deterministic, so a restored row's probability is bit for bit the
    /// saved one.
    pub fn compiled(query: Arc<CompiledQuery>, probs: Vec<f64>) -> IncrementalCircuit {
        let mut values = Vec::new();
        query.program().eval_into(&probs, &mut values);
        IncrementalCircuit {
            query,
            probs,
            values,
        }
    }

    /// The compiled query (for persistence and leaf indexing).
    pub fn query(&self) -> &Arc<CompiledQuery> {
        &self.query
    }

    /// The current leaf probabilities, indexed by program variable (for
    /// persistence).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Changes one leaf probability and re-evaluates the program in one
    /// forward pass into the reused value buffer. Returns the number of
    /// gates evaluated: the program's length, or 0 when the probability is
    /// unchanged or the program reads no such variable.
    pub fn set_prob(&mut self, var: u32, p: f64) -> usize {
        let v = var as usize;
        match self.probs.get_mut(v) {
            Some(slot) if *slot != p => *slot = p,
            _ => return 0,
        }
        let program = self.query.program();
        if v >= program.num_vars() {
            return 0;
        }
        program.eval_into(&self.probs, &mut self.values);
        program.len()
    }

    /// The query probability implied by the cached root value (undoing the
    /// encoding's negation / Tseitin scale).
    pub fn probability(&self) -> f64 {
        self.query
            .answer(self.values.last().copied().unwrap_or(0.0))
    }

    /// Number of gates in the program.
    pub fn size(&self) -> usize {
        self.query.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_data::TupleId;
    use pdb_kernel::FlatProgram;
    use pdb_lineage::{BoolExpr, Cnf};
    use pdb_num::assert_close;
    use pdb_wmc::{brute, Dpll, DpllOptions};

    fn v(i: u32) -> BoolExpr {
        BoolExpr::var(TupleId(i))
    }

    /// Compiles a monotone DNF through the negated-CNF trace path.
    fn compile(expr: &BoolExpr, probs: &[f64]) -> IncrementalCircuit {
        let cnf = Cnf::from_negated_dnf(expr, probs.len() as u32);
        let r = Dpll::new(
            &cnf,
            probs.to_vec(),
            DpllOptions {
                components: true,
                record_trace: true,
                ..Default::default()
            },
        )
        .run();
        assert!(!r.aborted);
        let dd = DecisionDnnf::from_trace(&r.trace.unwrap());
        IncrementalCircuit::new(&dd, probs.to_vec(), true, 1.0)
    }

    #[test]
    fn initial_evaluation_matches_brute_force() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(1), v(2)]),
        ]);
        let probs = [0.3, 0.6, 0.8];
        let c = compile(&f, &probs);
        assert_close(c.probability(), brute::expr_probability(&f, &probs), 1e-12);
    }

    #[test]
    fn set_prob_tracks_a_full_reevaluation() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
            BoolExpr::and_all([v(0), v(3)]),
        ]);
        let mut probs = vec![0.3, 0.6, 0.8, 0.2];
        let mut c = compile(&f, &probs);
        // A deterministic walk of single-leaf updates.
        let updates = [(0u32, 0.9), (3, 0.05), (0, 0.3), (2, 0.999), (1, 0.0)];
        let mut recomputed = 0;
        for (var, p) in updates {
            probs[var as usize] = p;
            recomputed += c.set_prob(var, p);
            assert_close(c.probability(), brute::expr_probability(&f, &probs), 1e-12);
        }
        assert!(recomputed > 0);
    }

    #[test]
    fn untouched_leaves_cost_nothing() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
        ]);
        let probs = [0.3, 0.6, 0.8, 0.2];
        let mut c = compile(&f, &probs);
        // Same value: nothing recomputed.
        assert_eq!(c.set_prob(0, 0.3), 0);
        // Unknown variable: nothing recomputed, no panic.
        assert_eq!(c.set_prob(99, 0.5), 0);
    }

    #[test]
    fn constant_circuits_are_inert() {
        // What a lineage that simplifies to ⊤/⊥ compiles to — and what a
        // malformed decision-DNNF lowers to: one node, no leaves.
        let constant = |value, probs| {
            let query = CompiledQuery::detached(FlatProgram::constant(value), false, 1.0);
            IncrementalCircuit::compiled(Arc::new(query), probs)
        };
        let mut t = constant(true, Vec::new());
        let mut f = constant(false, vec![0.5]);
        assert_eq!(t.probability(), 1.0);
        assert_eq!(f.probability(), 0.0);
        assert_eq!(t.set_prob(0, 0.3), 0);
        assert_eq!(f.set_prob(0, 0.3), 0);
        assert_eq!(f.size(), 1);
    }
}
