//! Free Binary Decision Diagrams.
//!
//! An FBDD reads each variable at most once per path but, unlike an OBDD,
//! different paths may read variables in different orders. Per
//! Huang–Darwiche (§7): the trace of a DPLL algorithm with caching but
//! *without* components is an FBDD.

use crate::ddnnf::{DdnnfNode, DecisionDnnf};
use pdb_wmc::Trace;
use std::collections::HashMap;

/// An FBDD (decision nodes only; arena-allocated DAG).
#[derive(Clone, Debug)]
pub struct Fbdd {
    inner: DecisionDnnf,
}

impl Fbdd {
    /// Builds from a DPLL trace; fails if the trace contains component
    /// ∧-nodes (run the counter with `components: false`) or violates the
    /// read-once property.
    pub fn from_trace(trace: &Trace) -> Result<Fbdd, String> {
        let dd = DecisionDnnf::from_trace(trace);
        Fbdd::from_nodes(dd.nodes().to_vec(), dd.root())
    }

    /// Builds an FBDD from raw decision nodes (the Fig. 2 reconstruction,
    /// an OBDD's [`Obdd::to_decision_dnnf`](crate::Obdd::to_decision_dnnf)
    /// arena); fails on ∧-nodes or a path reading a variable twice.
    pub fn from_nodes(nodes: Vec<DdnnfNode>, root: u32) -> Result<Fbdd, String> {
        if nodes.iter().any(|n| matches!(n, DdnnfNode::And { .. })) {
            return Err("FBDDs cannot contain ∧-nodes".to_string());
        }
        let inner = DecisionDnnf::new(nodes, root);
        inner.validate()?;
        Ok(Fbdd { inner })
    }

    /// Number of reachable nodes.
    pub fn size(&self) -> usize {
        self.inner.size()
    }

    /// Number of reachable decision nodes.
    pub fn decision_count(&self) -> usize {
        self.inner.decision_count()
    }

    /// Lowers the FBDD — a decision-DNNF without ∧-nodes — into a flat
    /// kernel program with [`DecisionDnnf::flatten`].
    pub fn flatten(&self) -> pdb_kernel::FlatProgram {
        self.inner.flatten()
    }

    /// Whether every path reads the variables in one global order — i.e.
    /// whether this FBDD happens to be an OBDD. (Checks that the order of
    /// first reads is consistent across all root-to-leaf paths, via a
    /// topological "level" assignment.)
    pub fn is_ordered(&self) -> bool {
        // Build the precedence relation var u → var v whenever a decision on
        // u has a child deciding v. The FBDD is an OBDD iff this relation is
        // acyclic (then any topological order works for every path).
        let mut edges: HashMap<u32, Vec<u32>> = HashMap::new();
        for n in self.inner.nodes() {
            if let DdnnfNode::Decision { var, hi, lo } = n {
                for &child in &[*hi, *lo] {
                    if let DdnnfNode::Decision { var: cv, .. } = &self.inner.nodes()[child as usize]
                    {
                        edges.entry(*var).or_default().push(*cv);
                    }
                }
            }
        }
        // Cycle detection (DFS, three colors).
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: HashMap<u32, Color> = HashMap::new();
        fn dfs(v: u32, edges: &HashMap<u32, Vec<u32>>, color: &mut HashMap<u32, Color>) -> bool {
            match color.get(&v).copied().unwrap_or(Color::White) {
                Color::Gray => return false,
                Color::Black => return true,
                Color::White => {}
            }
            color.insert(v, Color::Gray);
            if let Some(next) = edges.get(&v) {
                for &w in next {
                    if w != v && !dfs(w, edges, color) {
                        return false;
                    }
                }
            }
            color.insert(v, Color::Black);
            true
        }
        let vars: Vec<u32> = edges.keys().copied().collect();
        vars.iter().all(|&v| dfs(v, &edges, &mut color))
    }

    /// Access the underlying decision structure.
    pub fn as_decision_dnnf(&self) -> &DecisionDnnf {
        &self.inner
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

    fn fbdd_of(expr: &BoolExpr, n: u32) -> Fbdd {
        let cnf = Cnf::from_negated_dnf(expr, n);
        let result = Dpll::new(
            &cnf,
            vec![0.5; n as usize],
            DpllOptions {
                components: false,
                record_trace: true,
                ..Default::default()
            },
        )
        .run();
        Fbdd::from_trace(&result.trace.unwrap()).expect("component-free trace")
    }

    #[test]
    fn dpll_without_components_yields_fbdd() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
        ]);
        let flat = fbdd_of(&f, 4).flatten();
        for mask in 0u64..16 {
            let expected = !f.eval(&|t| mask >> t.0 & 1 == 1);
            assert_eq!(
                flat.eval(&indicators(mask, 4)),
                f64::from(u8::from(expected))
            );
        }
    }

    #[test]
    fn dpll_with_components_is_rejected() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
        ]);
        let cnf = Cnf::from_negated_dnf(&f, 4);
        let result = Dpll::new(
            &cnf,
            vec![0.5; 4],
            DpllOptions {
                components: true,
                record_trace: true,
                ..Default::default()
            },
        )
        .run();
        assert!(Fbdd::from_trace(&result.trace.unwrap()).is_err());
    }

    #[test]
    fn probability_matches_brute_force() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(1), v(2)]),
        ]);
        let probs = [0.3, 0.5, 0.7];
        let cnf = Cnf::from_negated_dnf(&f, 3);
        let result = Dpll::new(
            &cnf,
            probs.to_vec(),
            DpllOptions {
                components: false,
                record_trace: true,
                ..Default::default()
            },
        )
        .run();
        let fbdd = Fbdd::from_trace(&result.trace.unwrap()).unwrap();
        let expected = 1.0 - brute::expr_probability(&f, &probs);
        assert_close(fbdd.flatten().eval(&probs), expected, 1e-12);
    }

    #[test]
    fn flatten_is_bit_identical_to_tree_walk() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(1), v(2)]),
        ]);
        let fbdd = fbdd_of(&f, 3);
        let flat = fbdd.flatten();
        for probs in [vec![0.5; 3], vec![0.3, 0.5, 0.7]] {
            assert_eq!(
                flat.eval(&probs).to_bits(),
                fbdd.as_decision_dnnf().probability(&probs).to_bits()
            );
        }
    }

    #[test]
    fn fixed_order_trace_is_ordered() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(2)]),
            BoolExpr::and_all([v(1), v(3)]),
        ]);
        let cnf = Cnf::from_negated_dnf(&f, 4);
        let result = Dpll::new(
            &cnf,
            vec![0.5; 4],
            DpllOptions {
                components: false,
                var_order: Some(vec![0, 1, 2, 3]),
                record_trace: true,
                ..Default::default()
            },
        )
        .run();
        let fbdd = Fbdd::from_trace(&result.trace.unwrap()).unwrap();
        assert!(fbdd.is_ordered(), "fixed-order DPLL trace must be an OBDD");
    }

    #[test]
    fn hand_built_unordered_fbdd() {
        // Root decides x0; hi-branch reads x1 then x2, lo-branch reads x2
        // then x1 — free but not ordered.
        let nodes = vec![
            DdnnfNode::True,  // 0
            DdnnfNode::False, // 1
            DdnnfNode::Decision {
                var: 2,
                hi: 0,
                lo: 1,
            }, // 2: x2?
            DdnnfNode::Decision {
                var: 1,
                hi: 0,
                lo: 1,
            }, // 3: x1?
            DdnnfNode::Decision {
                var: 1,
                hi: 2,
                lo: 1,
            }, // 4: x1 then x2
            DdnnfNode::Decision {
                var: 2,
                hi: 3,
                lo: 1,
            }, // 5: x2 then x1
            DdnnfNode::Decision {
                var: 0,
                hi: 4,
                lo: 5,
            }, // 6: root
        ];
        let fbdd = Fbdd::from_nodes(nodes, 6).unwrap();
        assert!(!fbdd.is_ordered());
        // Still computes x1 & x2 regardless of branch order.
        let flat = fbdd.flatten();
        for mask in 0u64..8 {
            let expected = mask & 0b110 == 0b110;
            assert_eq!(
                flat.eval(&indicators(mask, 3)),
                f64::from(u8::from(expected))
            );
        }
    }
}
