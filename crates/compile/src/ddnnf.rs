//! Decision-DNNFs and d-DNNFs.
//!
//! A *decision-DNNF* is an FBDD extended with independent-∧ nodes — exactly
//! the trace language of DPLL with caching and components (§7). A *d-DNNF*
//! is the general circuit form: ∨-nodes with *disjoint* children, ∧-nodes
//! with *independent* children, negation only at the leaves. Expanding every
//! decision node `⟨v, hi, lo⟩` into `(v ∧ hi) ∨ (¬v ∧ lo)` turns a
//! decision-DNNF into a d-DNNF whose ∨-disjointness is guaranteed by the
//! guard literals.

use pdb_kernel::{FlatBuilder, FlatProgram};
use pdb_wmc::{Trace, TraceNode, TraceNodeId};
use std::collections::{BTreeSet, HashMap};

/// Node of a [`DecisionDnnf`].
#[derive(Clone, Debug, PartialEq)]
pub enum DdnnfNode {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// Shannon decision on a variable.
    Decision {
        /// Decision variable.
        var: u32,
        /// Child under `var = 1`.
        hi: u32,
        /// Child under `var = 0`.
        lo: u32,
    },
    /// Independent conjunction (children over disjoint variable sets).
    And {
        /// Child node indices.
        children: Vec<u32>,
    },
}

/// A decision-DNNF circuit (DAG, arena-allocated).
#[derive(Clone, Debug)]
pub struct DecisionDnnf {
    nodes: Vec<DdnnfNode>,
    root: u32,
}

impl DecisionDnnf {
    /// Builds from raw nodes; `root` indexes into `nodes`.
    pub fn new(nodes: Vec<DdnnfNode>, root: u32) -> DecisionDnnf {
        assert!((root as usize) < nodes.len());
        DecisionDnnf { nodes, root }
    }

    /// Converts a DPLL trace (Huang–Darwiche: the trace *is* the circuit).
    pub fn from_trace(trace: &Trace) -> DecisionDnnf {
        let nodes = trace
            .nodes()
            .iter()
            .map(|n| match n {
                TraceNode::True => DdnnfNode::True,
                TraceNode::False => DdnnfNode::False,
                TraceNode::Decision { var, hi, lo } => DdnnfNode::Decision {
                    var: *var,
                    hi: hi.0,
                    lo: lo.0,
                },
                TraceNode::And { children } => DdnnfNode::And {
                    children: children.iter().map(|c: &TraceNodeId| c.0).collect(),
                },
            })
            .collect();
        DecisionDnnf::new(nodes, trace.root().0)
    }

    /// The root node index.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The node arena.
    pub fn nodes(&self) -> &[DdnnfNode] {
        &self.nodes
    }

    fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut seen[i as usize], true) {
                continue;
            }
            match &self.nodes[i as usize] {
                DdnnfNode::True | DdnnfNode::False => {}
                DdnnfNode::Decision { hi, lo, .. } => {
                    stack.push(*hi);
                    stack.push(*lo);
                }
                DdnnfNode::And { children } => stack.extend(children.iter().copied()),
            }
        }
        seen
    }

    /// Number of reachable nodes (the Theorem 7.1 size measure).
    pub fn size(&self) -> usize {
        self.count_reachable(|_| true)
    }

    /// Number of reachable decision nodes.
    pub fn decision_count(&self) -> usize {
        self.count_reachable(|n| matches!(n, DdnnfNode::Decision { .. }))
    }

    /// Number of reachable independent-∧ nodes.
    pub fn and_count(&self) -> usize {
        self.count_reachable(|n| matches!(n, DdnnfNode::And { .. }))
    }

    fn count_reachable(&self, pred: impl Fn(&DdnnfNode) -> bool) -> usize {
        let seen = self.reachable();
        self.nodes
            .iter()
            .zip(seen)
            .filter(|(n, s)| *s && pred(n))
            .count()
    }

    /// Weighted model count (probability) in one memoized recursive pass:
    /// the **reference walk**, the bit-identity oracle every lowering is
    /// pinned against (see [`DecisionDnnf::flatten`]). No engine path calls
    /// it.
    pub fn probability(&self, probs: &[f64]) -> f64 {
        fn go(d: &DecisionDnnf, i: u32, probs: &[f64], memo: &mut HashMap<u32, f64>) -> f64 {
            if let Some(&p) = memo.get(&i) {
                return p;
            }
            let p = match &d.nodes[i as usize] {
                DdnnfNode::True => 1.0,
                DdnnfNode::False => 0.0,
                DdnnfNode::Decision { var, hi, lo } => {
                    let pv = probs[*var as usize];
                    pv * go(d, *hi, probs, memo) + (1.0 - pv) * go(d, *lo, probs, memo)
                }
                DdnnfNode::And { children } => {
                    children.iter().map(|&c| go(d, c, probs, memo)).product()
                }
            };
            memo.insert(i, p);
            p
        }
        go(self, self.root, probs, &mut HashMap::new())
    }

    /// The variables below each node (memoized); used to validate the
    /// independence of ∧-children and the read-once property.
    fn vars_below(&self, i: u32, memo: &mut HashMap<u32, BTreeSet<u32>>) -> BTreeSet<u32> {
        if let Some(s) = memo.get(&i) {
            return s.clone();
        }
        let s = match &self.nodes[i as usize] {
            DdnnfNode::True | DdnnfNode::False => BTreeSet::new(),
            DdnnfNode::Decision { var, hi, lo } => {
                let mut s = self.vars_below(*hi, memo);
                s.extend(self.vars_below(*lo, memo));
                s.insert(*var);
                s
            }
            DdnnfNode::And { children } => {
                let mut s = BTreeSet::new();
                for &c in children {
                    s.extend(self.vars_below(c, memo));
                }
                s
            }
        };
        memo.insert(i, s.clone());
        s
    }

    /// Checks the structural invariants: ∧-children have pairwise-disjoint
    /// variable sets, and no path reads a decision variable twice.
    pub fn validate(&self) -> Result<(), String> {
        let mut memo = HashMap::new();
        let seen = self.reachable();
        for (i, n) in self.nodes.iter().enumerate() {
            if !seen[i] {
                continue;
            }
            match n {
                DdnnfNode::And { children } => {
                    let sets: Vec<BTreeSet<u32>> = children
                        .iter()
                        .map(|&c| self.vars_below(c, &mut memo))
                        .collect();
                    for a in 0..sets.len() {
                        for b in a + 1..sets.len() {
                            if !sets[a].is_disjoint(&sets[b]) {
                                return Err(format!("∧-node {i} has dependent children"));
                            }
                        }
                    }
                }
                DdnnfNode::Decision { var, hi, lo }
                    if (self.vars_below(*hi, &mut memo).contains(var)
                        || self.vars_below(*lo, &mut memo).contains(var)) =>
                {
                    return Err(format!("decision node {i} re-reads its variable x{var}"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Lowers the circuit into a flat kernel program — the one lowering of
    /// decision circuits: OBDDs come here through
    /// [`Obdd::to_decision_dnnf`](crate::Obdd::to_decision_dnnf), FBDDs and
    /// view circuits directly. Reachable nodes are emitted in DFS
    /// post-order, so a node's flat index is its topological rank. Each
    /// node performs the arithmetic of [`DecisionDnnf::probability`] —
    /// `p·hi + (1−p)·lo` for decisions, a left-to-right product for ∧ — and
    /// both compute every node exactly once, so `flatten().eval(probs)` is
    /// **bit-identical** to `probability(probs)`.
    ///
    /// Accesses are checked, so this never panics: a malformed arena (a
    /// dangling child) lowers to the constant ⊥ program.
    pub fn flatten(&self) -> FlatProgram {
        let mut b = FlatBuilder::new();
        // Flat index of each finished node; `u32::MAX` (which the builder
        // rejects) until then, and for out-of-bounds children.
        let mut rank = vec![u32::MAX; self.nodes.len()];
        let rank_of = |rank: &[u32], i: u32| rank.get(i as usize).copied().unwrap_or(u32::MAX);
        let mut stack: Vec<(u32, bool)> = vec![(self.root, false)];
        while let Some((i, expanded)) = stack.pop() {
            let Some(node) = self.nodes.get(i as usize) else {
                continue;
            };
            if rank_of(&rank, i) != u32::MAX {
                continue;
            }
            if expanded {
                let flat = match node {
                    DdnnfNode::True => b.push_const(true),
                    DdnnfNode::False => b.push_const(false),
                    DdnnfNode::Decision { var, hi, lo } => {
                        b.push_decision(*var, rank_of(&rank, *hi), rank_of(&rank, *lo))
                    }
                    DdnnfNode::And { children } => {
                        let kids: Vec<u32> = children.iter().map(|&c| rank_of(&rank, c)).collect();
                        b.push_mul(&kids)
                    }
                };
                if let Some(r) = rank.get_mut(i as usize) {
                    *r = flat;
                }
                continue;
            }
            stack.push((i, true));
            match node {
                DdnnfNode::True | DdnnfNode::False => {}
                DdnnfNode::Decision { hi, lo, .. } => {
                    stack.push((*hi, false));
                    stack.push((*lo, false));
                }
                DdnnfNode::And { children } => {
                    stack.extend(children.iter().map(|&c| (c, false)));
                }
            }
        }
        b.finish().unwrap_or_else(|_| FlatProgram::constant(false))
    }

    /// Expands into a general [`Ddnnf`].
    pub fn to_ddnnf(&self) -> Ddnnf {
        let mut out = Ddnnf::default();
        let mut map: HashMap<u32, u32> = HashMap::new();
        let root = self.expand(self.root, &mut out, &mut map);
        out.root = root;
        out
    }

    fn expand(&self, i: u32, out: &mut Ddnnf, map: &mut HashMap<u32, u32>) -> u32 {
        if let Some(&r) = map.get(&i) {
            return r;
        }
        let r = match &self.nodes[i as usize] {
            DdnnfNode::True => out.push(DNode::True),
            DdnnfNode::False => out.push(DNode::False),
            DdnnfNode::Decision { var, hi, lo } => {
                let hi = self.expand(*hi, out, map);
                let lo = self.expand(*lo, out, map);
                let pos = out.push(DNode::Lit {
                    var: *var,
                    positive: true,
                });
                let neg = out.push(DNode::Lit {
                    var: *var,
                    positive: false,
                });
                let left = out.push(DNode::And {
                    children: vec![pos, hi],
                });
                let right = out.push(DNode::And {
                    children: vec![neg, lo],
                });
                out.push(DNode::Or {
                    children: vec![left, right],
                })
            }
            DdnnfNode::And { children } => {
                let kids: Vec<u32> = children.iter().map(|&c| self.expand(c, out, map)).collect();
                out.push(DNode::And { children: kids })
            }
        };
        map.insert(i, r);
        r
    }
}

/// Node of a general d-DNNF circuit.
#[derive(Clone, Debug, PartialEq)]
pub enum DNode {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// A literal (negation only at the leaves, per the d-DNNF definition).
    Lit {
        /// Variable id.
        var: u32,
        /// Polarity.
        positive: bool,
    },
    /// Independent conjunction.
    And {
        /// Children indices.
        children: Vec<u32>,
    },
    /// Disjoint ("deterministic") disjunction.
    Or {
        /// Children indices.
        children: Vec<u32>,
    },
}

/// A d-DNNF circuit.
#[derive(Clone, Debug, Default)]
pub struct Ddnnf {
    nodes: Vec<DNode>,
    root: u32,
}

impl Ddnnf {
    fn push(&mut self, n: DNode) -> u32 {
        self.nodes.push(n);
        (self.nodes.len() - 1) as u32
    }

    /// The node arena.
    pub fn nodes(&self) -> &[DNode] {
        &self.nodes
    }

    /// The root index.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Number of reachable nodes.
    pub fn size(&self) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        let mut count = 0;
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut seen[i as usize], true) {
                continue;
            }
            count += 1;
            match &self.nodes[i as usize] {
                DNode::And { children } | DNode::Or { children } => {
                    stack.extend(children.iter().copied())
                }
                _ => {}
            }
        }
        count
    }

    /// Lowers the circuit into a flat kernel program: disjoint-∨ becomes a
    /// left-to-right sum (rule (12)), independent-∧ a left-to-right product
    /// (rule (13)), literals become (negated) leaf reads. For an expanded
    /// decision-DNNF ([`DecisionDnnf::to_ddnnf`]) each decision becomes
    /// `(0 + (1·p)·hi) + ((1·(1−p))·lo)`, the same f64 as `p·hi + (1−p)·lo`,
    /// so the evaluation is bit-identical to [`DecisionDnnf::probability`].
    pub fn flatten(&self) -> FlatProgram {
        let mut b = FlatBuilder::new();
        let mut map: Vec<u32> = vec![u32::MAX; self.nodes.len()];
        let mut stack: Vec<(u32, bool)> = vec![(self.root, false)];
        while let Some((i, expanded)) = stack.pop() {
            if map[i as usize] != u32::MAX {
                continue;
            }
            if expanded {
                let flat = match &self.nodes[i as usize] {
                    DNode::True => b.push_const(true),
                    DNode::False => b.push_const(false),
                    DNode::Lit { var, positive } => {
                        if *positive {
                            b.push_leaf(*var)
                        } else {
                            b.push_neg_leaf(*var)
                        }
                    }
                    DNode::And { children } => {
                        let kids: Vec<u32> = children.iter().map(|&c| map[c as usize]).collect();
                        b.push_mul(&kids)
                    }
                    DNode::Or { children } => {
                        let kids: Vec<u32> = children.iter().map(|&c| map[c as usize]).collect();
                        b.push_add(&kids)
                    }
                };
                map[i as usize] = flat;
                continue;
            }
            stack.push((i, true));
            match &self.nodes[i as usize] {
                DNode::And { children } | DNode::Or { children } => {
                    stack.extend(children.iter().map(|&c| (c, false)));
                }
                _ => {}
            }
        }
        b.finish()
            .expect("a post-order walk of a DAG flattens cleanly")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indicators;
    use pdb_data::TupleId;
    use pdb_lineage::{BoolExpr, Cnf};
    use pdb_num::assert_close;
    use pdb_wmc::{brute, Dpll, DpllOptions};

    fn v(i: u32) -> BoolExpr {
        BoolExpr::var(TupleId(i))
    }

    fn trace_of(expr: &BoolExpr, n: u32, components: bool) -> (Trace, f64) {
        // Count ¬expr (negated monotone DNF) with trace recording.
        let cnf = Cnf::from_negated_dnf(expr, n);
        let result = Dpll::new(
            &cnf,
            vec![0.5; n as usize],
            DpllOptions {
                components,
                record_trace: true,
                ..Default::default()
            },
        )
        .run();
        (result.trace.unwrap(), result.probability)
    }

    #[test]
    fn from_trace_preserves_semantics_and_count() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
        ]);
        let (trace, p) = trace_of(&f, 4, true);
        let dd = DecisionDnnf::from_trace(&trace);
        dd.validate().unwrap();
        let flat = dd.flatten();
        for mask in 0u64..16 {
            // The trace computes ¬f.
            let expected = !f.eval(&|t| mask >> t.0 & 1 == 1);
            assert_eq!(
                flat.eval(&indicators(mask, 4)),
                f64::from(u8::from(expected))
            );
        }
        assert_close(dd.probability(&[0.5; 4]), p, 1e-12);
    }

    #[test]
    fn component_traces_contain_and_nodes() {
        // Two fully independent blocks force a component split.
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
        ]);
        let (trace, _) = trace_of(&f, 4, true);
        let dd = DecisionDnnf::from_trace(&trace);
        assert!(dd.and_count() >= 1, "expected a component ∧-node");
        let (trace_nc, _) = trace_of(&f, 4, false);
        let dd_nc = DecisionDnnf::from_trace(&trace_nc);
        assert_eq!(dd_nc.and_count(), 0, "components disabled");
        dd_nc.validate().unwrap();
    }

    #[test]
    fn probability_matches_brute_force_weighted() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(1), v(2)]),
        ]);
        let probs = [0.3, 0.6, 0.8];
        let cnf = Cnf::from_negated_dnf(&f, 3);
        let result = Dpll::new(
            &cnf,
            probs.to_vec(),
            DpllOptions {
                record_trace: true,
                ..Default::default()
            },
        )
        .run();
        let dd = DecisionDnnf::from_trace(&result.trace.unwrap());
        let expected = 1.0 - brute::expr_probability(&f, &probs);
        assert_close(dd.probability(&probs), expected, 1e-12);
    }

    #[test]
    fn ddnnf_expansion_preserves_everything() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
        ]);
        let (trace, _) = trace_of(&f, 4, true);
        let dd = DecisionDnnf::from_trace(&trace);
        let circuit = dd.to_ddnnf();
        let flat = circuit.flatten();
        let probs = (0..16).map(|mask| indicators(mask, 4));
        for p in probs.chain([vec![0.1, 0.9, 0.4, 0.6]]) {
            assert_eq!(
                flat.eval(&p).to_bits(),
                dd.probability(&p).to_bits(),
                "{p:?}"
            );
        }
        // Expansion adds Or/Lit nodes.
        assert!(circuit.size() >= dd.size());
    }

    #[test]
    fn flatten_is_bit_identical_to_tree_walk() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
            BoolExpr::and_all([v(1), v(4)]),
        ]);
        let (trace, _) = trace_of(&f, 5, true);
        let dd = DecisionDnnf::from_trace(&trace);
        let flat = dd.flatten();
        let circuit = dd.to_ddnnf();
        let flat_circuit = circuit.flatten();
        for probs in [
            vec![0.5; 5],
            vec![0.1, 0.9, 0.33, 0.77, 0.5],
            vec![0.0, 1.0, 0.25, 0.5, 0.125],
        ] {
            assert_eq!(
                flat.eval(&probs).to_bits(),
                dd.probability(&probs).to_bits()
            );
            assert_eq!(
                flat_circuit.eval(&probs).to_bits(),
                dd.probability(&probs).to_bits()
            );
        }
        // Batched evaluation over three stacked vectors matches too.
        let stacked: Vec<f64> = [
            vec![0.5; 5],
            vec![0.1, 0.9, 0.33, 0.77, 0.5],
            vec![0.0, 1.0, 0.25, 0.5, 0.125],
        ]
        .concat();
        let lanes = flat.eval_batch(&stacked, 5);
        assert_eq!(lanes.len(), 3);
        for (lane, chunk) in lanes.iter().zip(stacked.chunks(5)) {
            assert_eq!(lane.to_bits(), dd.probability(chunk).to_bits());
        }
    }

    #[test]
    fn validate_rejects_dependent_and() {
        // Hand-build an invalid circuit: And over two decisions on the SAME var.
        let nodes = vec![
            DdnnfNode::True,  // 0
            DdnnfNode::False, // 1
            DdnnfNode::Decision {
                var: 0,
                hi: 0,
                lo: 1,
            }, // 2
            DdnnfNode::Decision {
                var: 0,
                hi: 1,
                lo: 0,
            }, // 3
            DdnnfNode::And {
                children: vec![2, 3],
            }, // 4
        ];
        let dd = DecisionDnnf::new(nodes, 4);
        assert!(dd.validate().is_err());
    }

    #[test]
    fn validate_rejects_repeated_reads() {
        let nodes = vec![
            DdnnfNode::True,  // 0
            DdnnfNode::False, // 1
            DdnnfNode::Decision {
                var: 0,
                hi: 0,
                lo: 1,
            }, // 2
            DdnnfNode::Decision {
                var: 0,
                hi: 2,
                lo: 1,
            }, // 3 re-reads x0
        ];
        let dd = DecisionDnnf::new(nodes, 3);
        assert!(dd.validate().is_err());
    }

    #[test]
    fn flatten_lowers_a_dangling_child_to_false() {
        // Node 2 decides x0 with hi pointing past the arena.
        let nodes = vec![
            DdnnfNode::True,
            DdnnfNode::False,
            DdnnfNode::Decision {
                var: 0,
                hi: 9,
                lo: 1,
            },
        ];
        let flat = DecisionDnnf::new(nodes, 2).flatten();
        assert_eq!(flat.len(), 1);
        assert_eq!(flat.eval(&[1.0]).to_bits(), 0.0f64.to_bits());
    }
}
