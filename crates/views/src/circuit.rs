//! An arithmetic circuit over a decision-DNNF with **cached gate values**.
//!
//! A flat evaluation is a full forward pass — the right tool for a one-shot
//! WMC, wasteful when the same circuit is re-evaluated after every
//! tuple-probability change. This module lowers the circuit once at
//! construction through [`DecisionDnnf::flatten`] — gate index =
//! topological rank, evaluation a non-recursive forward pass — and keeps
//! the per-gate values of the last evaluation. On [`set_prob`] it
//! re-evaluates only the **dirty cone**: the decision gates on the changed
//! variable and, transitively, any parent whose value actually moved. For
//! the balanced circuits produced by DPLL with components (§7, eqs.
//! (11)–(13)) that is O(depth) gates per update instead of O(size) — the
//! asymptotic gap that makes materialized views cheaper to maintain than to
//! recompute.
//!
//! [`set_prob`]: IncrementalCircuit::set_prob

use pdb_compile::ddnnf::DdnnfNode;
use pdb_compile::DecisionDnnf;
use pdb_core::GroundedCircuit;
use pdb_kernel::FlatProgram;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A decision-DNNF flattened into a kernel program with cached gate values
/// and parent pointers, supporting incremental re-evaluation.
///
/// The original node arena is kept verbatim for persistence (`nodes()` /
/// `root()` round-trip through the store unchanged); all evaluation state —
/// values, parents, per-variable gate lists — lives in **flat index space**,
/// where a gate's index *is* its topological rank.
///
/// The circuit may have been produced by any of the three CNF encodings used
/// by the engine; `negated` and `scale` record how to map the root value
/// back to the query probability (see [`IncrementalCircuit::probability`]):
///
/// * monotone-DNF lineage is counted **negated** (`P(Q) = 1 − root`),
/// * a Tseitin encoding adds auxiliary variables of weight ½ and needs a
///   `2^aux` correction (`P(Q) = scale · root`).
#[derive(Clone, Debug)]
pub struct IncrementalCircuit {
    /// The persisted gate arena (unchanged on-disk format).
    nodes: Vec<DdnnfNode>,
    root: u32,
    /// The reachable sub-DAG lowered into a flat kernel program; the flat
    /// node order is the DFS post-order, so index = topological rank.
    program: FlatProgram,
    /// Leaf probabilities, indexed by circuit variable.
    probs: Vec<f64>,
    /// Cached value of every flat gate (index = flat index).
    values: Vec<f64>,
    /// Reverse edges in flat space: `parents[i]` lists the flat gates
    /// reading flat gate `i`.
    parents: Vec<Vec<u32>>,
    /// `var_gates[v]` lists the flat decision gates on variable `v`.
    var_gates: Vec<Vec<u32>>,
    negated: bool,
    scale: f64,
    gates_recomputed: u64,
}

impl IncrementalCircuit {
    /// Builds the cached circuit from a compiled decision-DNNF and the leaf
    /// probabilities (`probs[v]` for circuit variable `v`; Tseitin auxiliary
    /// variables, if any, must already be present at weight ½).
    pub fn new(
        dd: &DecisionDnnf,
        probs: Vec<f64>,
        negated: bool,
        scale: f64,
    ) -> IncrementalCircuit {
        // The one decision-DNNF lowering: the flat index is the
        // topological rank, and a malformed arena degrades to ⊥ rather than
        // panicking the request worker.
        IncrementalCircuit::lowered(dd, dd.flatten(), probs, negated, scale)
    }

    /// The cached circuit of a grounded compilation, reusing the program it
    /// was already lowered to.
    pub fn compiled(g: GroundedCircuit) -> IncrementalCircuit {
        IncrementalCircuit::lowered(&g.circuit, g.program, g.leaf_probs, g.negated, g.scale)
    }

    /// [`IncrementalCircuit::new`] once `program = dd.flatten()` is known.
    fn lowered(
        dd: &DecisionDnnf,
        program: FlatProgram,
        probs: Vec<f64>,
        negated: bool,
        scale: f64,
    ) -> IncrementalCircuit {
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
            nodes: dd.nodes().to_vec(),
            root: dd.root(),
            program,
            probs,
            values,
            parents,
            var_gates,
            negated,
            scale,
            gates_recomputed: 0,
        }
    }

    /// Rebuilds a circuit from persisted parts (the inverse of the
    /// [`nodes`](IncrementalCircuit::nodes) / [`root`](IncrementalCircuit::root)
    /// / [`probs`](IncrementalCircuit::probs) accessors). Gate values are
    /// **recomputed**, not trusted from disk — `eval_gate` is deterministic
    /// f64 arithmetic over the same post-order, so the resulting cached
    /// values (and [`IncrementalCircuit::probability`]) are bit-identical to
    /// the instance that was saved.
    ///
    /// Returns `None` when the parts are not a well-formed circuit: the root
    /// or a child index out of bounds, or an edge that does not point
    /// strictly downward (`child < parent` holds for every trace-built
    /// decision-DNNF and rules out cycles, which would hang construction).
    pub fn from_parts(
        nodes: Vec<DdnnfNode>,
        root: u32,
        probs: Vec<f64>,
        negated: bool,
        scale: f64,
    ) -> Option<IncrementalCircuit> {
        if nodes.is_empty() || root as usize >= nodes.len() {
            return None;
        }
        for (i, node) in nodes.iter().enumerate() {
            let ok = match node {
                DdnnfNode::True | DdnnfNode::False => true,
                DdnnfNode::Decision { hi, lo, .. } => (*hi as usize) < i && (*lo as usize) < i,
                DdnnfNode::And { children } => children.iter().all(|&c| (c as usize) < i),
            };
            if !ok {
                return None;
            }
        }
        let dd = DecisionDnnf::new(nodes, root);
        Some(IncrementalCircuit::new(&dd, probs, negated, scale))
    }

    /// The gate arena (for persistence).
    pub fn nodes(&self) -> &[DdnnfNode] {
        &self.nodes
    }

    /// The root gate index (for persistence).
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The current leaf probabilities, indexed by circuit variable (for
    /// persistence).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Whether the root counts the **negation** of the query (for
    /// persistence).
    pub fn negated(&self) -> bool {
        self.negated
    }

    /// The Tseitin `2^aux` correction factor (for persistence).
    pub fn scale(&self) -> f64 {
        self.scale
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
        let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        let mut queued = vec![false; self.program.len()];
        for &g in self.var_gates.get(v).map(Vec::as_slice).unwrap_or_default() {
            if let Some(q) = queued.get_mut(g as usize) {
                *q = true;
            }
            heap.push(Reverse(g));
        }
        let mut recomputed = 0;
        while let Some(Reverse(g)) = heap.pop() {
            let new = self.program.eval_node(g, &self.probs, &self.values);
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
        self.gates_recomputed += recomputed as u64;
        recomputed as usize
    }

    /// The query probability implied by the cached root value (undoing the
    /// encoding's negation / Tseitin scale).
    pub fn probability(&self) -> f64 {
        let root = self.values.last().copied().unwrap_or(0.0);
        let p = root * self.scale;
        if self.negated {
            1.0 - p
        } else {
            p
        }
    }

    /// The current probability of a leaf variable.
    pub fn prob_of(&self, var: u32) -> Option<f64> {
        self.probs.get(var as usize).copied()
    }

    /// Number of gates in the arena (reachable size may be smaller).
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Total gates recomputed by every [`IncrementalCircuit::set_prob`] so
    /// far (observability: incremental work vs. circuit size).
    pub fn gates_recomputed(&self) -> u64 {
        self.gates_recomputed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_data::TupleId;
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
        for (var, p) in updates {
            probs[var as usize] = p;
            c.set_prob(var, p);
            assert_close(c.probability(), brute::expr_probability(&f, &probs), 1e-12);
        }
        assert!(c.gates_recomputed() > 0);
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
    fn from_parts_round_trips_bit_identically() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(1), v(2)]),
        ]);
        let probs = [0.3, 0.6, 0.8];
        let mut c = compile(&f, &probs);
        c.set_prob(1, 0.17);
        let restored = IncrementalCircuit::from_parts(
            c.nodes().to_vec(),
            c.root(),
            c.probs().to_vec(),
            c.negated(),
            c.scale(),
        )
        .unwrap();
        // Recomputed values must be *bit-identical*, not merely close: the
        // durability contract promises exact pre-crash probabilities.
        assert_eq!(c.probability().to_bits(), restored.probability().to_bits());
        assert_eq!(c.prob_of(1), restored.prob_of(1));
    }

    #[test]
    fn from_parts_rejects_malformed_circuits() {
        // Root out of bounds.
        assert!(
            IncrementalCircuit::from_parts(vec![DdnnfNode::True], 7, vec![], false, 1.0).is_none()
        );
        // Upward edge (would cycle / hang construction).
        let nodes = vec![
            DdnnfNode::True,
            DdnnfNode::Decision {
                var: 0,
                hi: 2,
                lo: 0,
            },
            DdnnfNode::Decision {
                var: 1,
                hi: 1,
                lo: 0,
            },
        ];
        assert!(IncrementalCircuit::from_parts(nodes, 2, vec![0.5, 0.5], false, 1.0).is_none());
        // Empty arena.
        assert!(IncrementalCircuit::from_parts(vec![], 0, vec![], false, 1.0).is_none());
    }

    #[test]
    fn new_degrades_a_dangling_child_to_false() {
        // `from_parts` rejects this arena; `new` must still not panic.
        let nodes = vec![
            DdnnfNode::True,
            DdnnfNode::Decision {
                var: 0,
                hi: 0,
                lo: 5,
            },
        ];
        let dd = DecisionDnnf::new(nodes, 1);
        let mut c = IncrementalCircuit::new(&dd, vec![0.5], false, 1.0);
        assert_eq!(c.probability(), 0.0);
        assert_eq!(c.set_prob(0, 0.25), 0);
        assert_eq!(c.size(), 2);
    }

    #[test]
    fn constant_circuits_are_inert() {
        // What a lineage that simplifies to ⊤/⊥ compiles to: one node, no
        // leaves.
        let constant = |node| {
            let dd = DecisionDnnf::new(vec![node], 0);
            IncrementalCircuit::new(&dd, Vec::new(), false, 1.0)
        };
        let mut t = constant(DdnnfNode::True);
        let mut f = constant(DdnnfNode::False);
        assert_eq!(t.probability(), 1.0);
        assert_eq!(f.probability(), 0.0);
        assert_eq!(t.set_prob(0, 0.3), 0);
        assert_eq!(f.set_prob(0, 0.3), 0);
    }
}
