//! A compiled query with **cached gate values**.
//!
//! A flat evaluation is a full forward pass — the right tool for a one-shot
//! WMC, wasteful when the same circuit is re-evaluated after every
//! tuple-probability change. An [`IncrementalCircuit`] is a row's
//! [`CompiledQuery`] — the flat program [`pdb_core::compile_grounded`]
//! produced, gate index = topological rank — plus the per-gate values of
//! the last evaluation, all sized by the row's own leaves. On [`set_prob`]
//! it re-evaluates only the **dirty cone**: the decision gates on the
//! changed variable and, transitively, any parent whose value actually
//! moved. For the balanced circuits produced by DPLL with components (§7,
//! eqs. (11)–(13)) that is O(depth) gates per update instead of O(size) —
//! the asymptotic gap that makes materialized views cheaper to maintain
//! than to recompute.
//!
//! [`set_prob`]: IncrementalCircuit::set_prob

use pdb_compile::DecisionDnnf;
use pdb_core::CompiledQuery;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A compiled query with cached gate values and parent pointers,
/// supporting incremental re-evaluation.
///
/// The query's program is persisted as is (its flat nodes and leaf table);
/// all evaluation state — values, parents, per-variable gate lists — lives
/// in **flat index space**, where a gate's index *is* its topological rank.
/// The query records how its root value maps back to the query probability
/// ([`CompiledQuery::answer`]): a monotone-DNF lineage is counted
/// **negated**, and a Tseitin encoding needs a `2^aux` correction.
#[derive(Clone, Debug)]
pub struct IncrementalCircuit {
    /// The compiled query: flat program, leaf table and encoding.
    query: Arc<CompiledQuery>,
    /// Leaf probabilities, indexed by program variable.
    probs: Vec<f64>,
    /// Cached value of every flat gate (index = flat index).
    values: Vec<f64>,
    /// Reverse edges in flat space: `parents[i]` lists the flat gates
    /// reading flat gate `i`.
    parents: Vec<Vec<u32>>,
    /// `var_gates[v]` lists the flat decision gates on variable `v`.
    var_gates: Vec<Vec<u32>>,
}

impl IncrementalCircuit {
    /// Builds the cached circuit from a decision-DNNF and the leaf
    /// probabilities (`probs[v]` for circuit variable `v`; Tseitin auxiliary
    /// variables, if any, must already be present at weight ½). The program
    /// keeps the circuit's variables, so [`IncrementalCircuit::set_prob`]
    /// takes them too.
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

    /// The cached circuit of a compiled query under `probs`, one per
    /// program variable (from [`CompiledQuery::leaf_probs`] or a snapshot).
    /// Gate values are computed here, never trusted from disk: the forward
    /// pass is deterministic, so a restored row's probability is bit for bit
    /// the saved one.
    pub fn compiled(query: Arc<CompiledQuery>, probs: Vec<f64>) -> IncrementalCircuit {
        let program = query.program();
        // Reverse edges and per-variable gate lists, in flat index space.
        let mut parents: Vec<Vec<u32>> = vec![Vec::new(); program.len()];
        let mut var_gates: Vec<Vec<u32>> = vec![Vec::new(); probs.len()];
        for (i, node) in program.iter().enumerate() {
            let i = i as u32;
            match node {
                pdb_kernel::FlatNode::Decision { var, hi, lo } => {
                    if let Some(ps) = parents.get_mut(hi as usize) {
                        ps.push(i);
                    }
                    if let Some(ps) = parents.get_mut(lo as usize) {
                        ps.push(i);
                    }
                    if let Some(gs) = var_gates.get_mut(var as usize) {
                        gs.push(i);
                    }
                }
                pdb_kernel::FlatNode::Mul(kids) => {
                    for &c in kids {
                        if let Some(ps) = parents.get_mut(c as usize) {
                            ps.push(i);
                        }
                    }
                }
                _ => {}
            }
        }

        // Initial evaluation: one non-recursive forward pass over the flat
        // program — the same per-gate arithmetic, in the same post-order,
        // as a gate-by-gate loop, so the cached values are bit-identical.
        let mut values = Vec::new();
        program.eval_into(&probs, &mut values);

        IncrementalCircuit {
            query,
            probs,
            values,
            parents,
            var_gates,
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

    /// Changes one leaf probability and re-evaluates the dirty cone
    /// bottom-up (a min-heap on the flat index — the topological rank —
    /// guarantees every gate is recomputed at most once, after all of its
    /// dirty children). Returns the number of gates recomputed — the work
    /// actually done, as opposed to the O(size) of a from-scratch pass.
    pub fn set_prob(&mut self, var: u32, p: f64) -> usize {
        let v = var as usize;
        match self.probs.get_mut(v) {
            Some(slot) if *slot != p => *slot = p,
            _ => return 0,
        }
        let program = self.query.program();
        let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        let mut queued = vec![false; program.len()];
        for &g in self.var_gates.get(v).map(Vec::as_slice).unwrap_or_default() {
            if let Some(q) = queued.get_mut(g as usize) {
                *q = true;
            }
            heap.push(Reverse(g));
        }
        let mut recomputed = 0;
        while let Some(Reverse(g)) = heap.pop() {
            let new = program.eval_node(g, &self.probs, &self.values);
            recomputed += 1;
            // Checked accesses degrade (P1 surface): a gate index outside
            // the value table — impossible for a builder-sealed program —
            // recomputes nothing rather than panicking.
            let moved = match self.values.get_mut(g as usize) {
                Some(slot) if *slot != new => {
                    *slot = new;
                    true
                }
                _ => false,
            };
            if moved {
                for &parent in self
                    .parents
                    .get(g as usize)
                    .map(Vec::as_slice)
                    .unwrap_or_default()
                {
                    match queued.get_mut(parent as usize) {
                        Some(q) if !*q => {
                            *q = true;
                            heap.push(Reverse(parent));
                        }
                        _ => {}
                    }
                }
            }
        }
        recomputed
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
    fn independent_blocks_keep_the_dirty_cone_small() {
        // 8 independent conjuncts: x_{2i} ∧ x_{2i+1}, OR-ed together. With
        // components on, updating one leaf must not re-evaluate gates from
        // the other blocks — the recomputed count stays well under the size.
        let blocks: Vec<BoolExpr> = (0..8)
            .map(|i| BoolExpr::and_all([v(2 * i), v(2 * i + 1)]))
            .collect();
        let f = BoolExpr::or_all(blocks);
        let probs = vec![0.5; 16];
        let mut c = compile(&f, &probs);
        let touched = c.set_prob(0, 0.25);
        assert!(
            touched < c.size() / 2,
            "dirty cone {touched} too large for circuit of {} gates",
            c.size()
        );
        let mut probs2 = probs.clone();
        probs2[0] = 0.25;
        assert_close(c.probability(), brute::expr_probability(&f, &probs2), 1e-12);
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
