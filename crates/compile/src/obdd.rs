//! Reduced Ordered Binary Decision Diagrams.
//!
//! An OBDD reads variables in one global order on every path; reduction
//! (unique table + node elision) makes it canonical for that order. The
//! dichotomy of Theorem 7.1(i) is about OBDD sizes of CQ lineages:
//! hierarchical self-join-free CQs have linear-size OBDDs under the right
//! order; non-hierarchical ones are exponential under *every* order.

use crate::ddnnf::{DdnnfNode, DecisionDnnf};
use pdb_kernel::FlatProgram;
use pdb_lineage::BoolExpr;
use std::collections::HashMap;

/// Node reference: 0 = false terminal, 1 = true terminal, else internal.
pub type Ref = u32;

const FALSE: Ref = 0;
const TRUE: Ref = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Node {
    /// Position in the variable order (not the variable id).
    level: u32,
    lo: Ref,
    hi: Ref,
}

/// A reduced OBDD manager plus a root, compiled from one formula.
#[derive(Clone, Debug)]
pub struct Obdd {
    nodes: Vec<Node>, // indices 0/1 reserved for terminals (dummy entries)
    unique: HashMap<Node, Ref>,
    /// `order[level]` = variable id read at that level.
    order: Vec<u32>,
    level_of: HashMap<u32, u32>,
    root: Ref,
}

impl Obdd {
    /// Compiles `expr` under the variable `order` (a permutation of a
    /// superset of the formula's variables; variables missing from the order
    /// cause a panic).
    pub fn compile(expr: &BoolExpr, order: &[u32]) -> Obdd {
        let level_of: HashMap<u32, u32> = order
            .iter()
            .enumerate()
            .map(|(l, &v)| (v, l as u32))
            .collect();
        let mut obdd = Obdd {
            nodes: vec![
                Node {
                    level: u32::MAX,
                    lo: FALSE,
                    hi: FALSE,
                },
                Node {
                    level: u32::MAX,
                    lo: TRUE,
                    hi: TRUE,
                },
            ],
            unique: HashMap::new(),
            order: order.to_vec(),
            level_of,
            root: FALSE,
        };
        let mut memo = HashMap::new();
        let nnf = expr.nnf();
        obdd.root = obdd.build(&nnf, &mut memo);
        obdd
    }

    /// The root reference.
    pub fn root(&self) -> Ref {
        self.root
    }

    /// The variable order used.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    fn mk(&mut self, level: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        let node = Node { level, lo, hi };
        if let Some(&r) = self.unique.get(&node) {
            return r;
        }
        let r = self.nodes.len() as Ref;
        self.nodes.push(node);
        self.unique.insert(node, r);
        r
    }

    fn build(&mut self, expr: &BoolExpr, memo: &mut HashMap<BoolExpr, Ref>) -> Ref {
        if let Some(&r) = memo.get(expr) {
            return r;
        }
        let r = match expr {
            BoolExpr::Const(true) => TRUE,
            BoolExpr::Const(false) => FALSE,
            BoolExpr::Var(v) => {
                let level = *self
                    .level_of
                    .get(&v.0)
                    .unwrap_or_else(|| panic!("variable x{} missing from order", v.0));
                self.mk(level, FALSE, TRUE)
            }
            BoolExpr::Not(inner) => match inner.as_ref() {
                BoolExpr::Var(v) => {
                    let level = *self
                        .level_of
                        .get(&v.0)
                        .unwrap_or_else(|| panic!("variable x{} missing from order", v.0));
                    self.mk(level, TRUE, FALSE)
                }
                _ => unreachable!("compile() normalizes to NNF first"),
            },
            BoolExpr::And(parts) => {
                let mut acc = TRUE;
                for p in parts {
                    let q = self.build(p, memo);
                    acc = self.apply_and(acc, q, &mut HashMap::new());
                    if acc == FALSE {
                        break;
                    }
                }
                acc
            }
            BoolExpr::Or(parts) => {
                let mut acc = FALSE;
                for p in parts {
                    let q = self.build(p, memo);
                    acc = self.apply_or(acc, q, &mut HashMap::new());
                    if acc == TRUE {
                        break;
                    }
                }
                acc
            }
        };
        memo.insert(expr.clone(), r);
        r
    }

    fn apply_and(&mut self, f: Ref, g: Ref, memo: &mut HashMap<(Ref, Ref), Ref>) -> Ref {
        match (f, g) {
            (FALSE, _) | (_, FALSE) => return FALSE,
            (TRUE, x) | (x, TRUE) => return x,
            _ => {}
        }
        let key = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let (nf, ng) = (self.nodes[f as usize], self.nodes[g as usize]);
        let level = nf.level.min(ng.level);
        let (f_lo, f_hi) = if nf.level == level {
            (nf.lo, nf.hi)
        } else {
            (f, f)
        };
        let (g_lo, g_hi) = if ng.level == level {
            (ng.lo, ng.hi)
        } else {
            (g, g)
        };
        let lo = self.apply_and(f_lo, g_lo, memo);
        let hi = self.apply_and(f_hi, g_hi, memo);
        let r = self.mk(level, lo, hi);
        memo.insert(key, r);
        r
    }

    fn apply_or(&mut self, f: Ref, g: Ref, memo: &mut HashMap<(Ref, Ref), Ref>) -> Ref {
        match (f, g) {
            (TRUE, _) | (_, TRUE) => return TRUE,
            (FALSE, x) | (x, FALSE) => return x,
            _ => {}
        }
        let key = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let (nf, ng) = (self.nodes[f as usize], self.nodes[g as usize]);
        let level = nf.level.min(ng.level);
        let (f_lo, f_hi) = if nf.level == level {
            (nf.lo, nf.hi)
        } else {
            (f, f)
        };
        let (g_lo, g_hi) = if ng.level == level {
            (ng.lo, ng.hi)
        } else {
            (g, g)
        };
        let lo = self.apply_or(f_lo, g_lo, memo);
        let hi = self.apply_or(f_hi, g_hi, memo);
        let r = self.mk(level, lo, hi);
        memo.insert(key, r);
        r
    }

    /// Number of internal (decision) nodes reachable from the root — the
    /// size measure of Theorem 7.1.
    pub fn size(&self) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        let mut count = 0;
        while let Some(r) = stack.pop() {
            if r <= TRUE || std::mem::replace(&mut seen[r as usize], true) {
                continue;
            }
            count += 1;
            let n = self.nodes[r as usize];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// The OBDD as a decision-DNNF over the same arena: indices are kept
    /// (0 becomes ⊥, 1 becomes ⊤) and each internal node becomes
    /// `Decision { var: order[level], hi, lo }` — the inclusion OBDD ⊂ FBDD
    /// ⊂ decision-DNNF of §7, made concrete.
    pub fn to_decision_dnnf(&self) -> DecisionDnnf {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(r, n)| match r as Ref {
                FALSE => DdnnfNode::False,
                TRUE => DdnnfNode::True,
                _ => DdnnfNode::Decision {
                    var: self.order[n.level as usize],
                    hi: n.hi,
                    lo: n.lo,
                },
            })
            .collect();
        DecisionDnnf::new(nodes, self.root)
    }

    /// Lowers the reachable part of the OBDD into a flat kernel program
    /// through [`DecisionDnnf::flatten`]. Elided levels contribute a factor
    /// of 1 in probability semantics, so no skip-correction is needed.
    pub fn flatten(&self) -> FlatProgram {
        self.to_decision_dnnf().flatten()
    }

    /// Unweighted model count over `num_vars` variables.
    pub fn model_count(&self, num_vars: u32) -> f64 {
        let probs = vec![0.5; self.order.len().max(num_vars as usize)];
        self.flatten().eval(&probs) * 2f64.powi(num_vars as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{indicators, order, Fbdd};
    use pdb_data::{generators, TupleId};
    use pdb_lineage::ucq_dnf_lineage;
    use pdb_logic::parse_ucq;
    use pdb_num::assert_close;
    use pdb_wmc::brute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn v(i: u32) -> BoolExpr {
        BoolExpr::var(TupleId(i))
    }

    fn ident_order(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    #[test]
    fn terminals_and_single_vars() {
        let t = Obdd::compile(&BoolExpr::TRUE, &[]);
        assert_eq!(t.size(), 0);
        assert_eq!(t.flatten().eval(&[]), 1.0);
        let x = Obdd::compile(&v(0), &ident_order(1));
        assert_eq!(x.size(), 1);
        assert_eq!(x.flatten().eval(&indicators(1, 1)), 1.0);
        assert_eq!(x.flatten().eval(&indicators(0, 1)), 0.0);
        let nx = Obdd::compile(&v(0).negate(), &ident_order(1));
        assert_eq!(nx.flatten().eval(&indicators(0, 1)), 1.0);
    }

    #[test]
    fn canonical_reduction_merges_equivalent() {
        // x0 | (x0 & x1) == x0: reduced OBDD has one node.
        let f = BoolExpr::or_all([v(0), BoolExpr::and_all([v(0), v(1)])]);
        let obdd = Obdd::compile(&f, &ident_order(2));
        assert_eq!(obdd.size(), 1);
    }

    #[test]
    fn semantics_preserved_exhaustively() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1).negate()]),
            BoolExpr::and_all([v(1), v(2)]),
            v(3).negate(),
        ]);
        let flat = Obdd::compile(&f, &ident_order(4)).flatten();
        for mask in 0u64..16 {
            let expected = f.eval(&|t| mask >> t.0 & 1 == 1);
            let value = flat.eval(&indicators(mask, 4));
            assert_eq!(value, f64::from(u8::from(expected)), "mask={mask}");
        }
    }

    #[test]
    fn probability_matches_brute_force() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
        ]);
        let probs = [0.2, 0.7, 0.4, 0.9];
        let obdd = Obdd::compile(&f, &ident_order(4));
        assert_close(
            obdd.flatten().eval(&probs),
            brute::expr_probability(&f, &probs),
            1e-12,
        );
    }

    #[test]
    fn model_count() {
        // x0 | x1 has 3 models over 2 vars.
        let f = BoolExpr::or_all([v(0), v(1)]);
        let obdd = Obdd::compile(&f, &ident_order(2));
        assert_close(obdd.model_count(2), 3.0, 1e-12);
    }

    #[test]
    fn order_sensitivity_classic_example() {
        // f = (x0&x1) | (x2&x3) | (x4&x5): pair-adjacent order is linear,
        // interleaved order blows up exponentially (classic result).
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
            BoolExpr::and_all([v(4), v(5)]),
        ]);
        let good = Obdd::compile(&f, &[0, 1, 2, 3, 4, 5]);
        let bad = Obdd::compile(&f, &[0, 2, 4, 1, 3, 5]);
        assert!(
            good.size() < bad.size(),
            "{} vs {}",
            good.size(),
            bad.size()
        );
        // Both still compute f.
        let (good, bad) = (good.flatten(), bad.flatten());
        for mask in 0u64..64 {
            let a = indicators(mask, 6);
            assert_eq!(good.eval(&a), bad.eval(&a), "mask={mask}");
        }
    }

    #[test]
    fn flatten_is_bit_identical_to_tree_walk() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1).negate()]),
            BoolExpr::and_all([v(1), v(2)]),
            v(3).negate(),
        ]);
        let obdd = Obdd::compile(&f, &ident_order(4));
        let flat = obdd.flatten();
        let dd = obdd.to_decision_dnnf();
        for probs in [vec![0.5; 4], vec![0.2, 0.7, 0.4, 0.9]] {
            assert_eq!(
                flat.eval(&probs).to_bits(),
                dd.probability(&probs).to_bits()
            );
        }
        // Terminal-rooted OBDDs flatten to constants.
        let t = Obdd::compile(&BoolExpr::TRUE, &[]);
        assert_eq!(t.flatten().eval(&[]), 1.0);
        let z = Obdd::compile(&BoolExpr::FALSE, &[]);
        assert_eq!(z.flatten().eval(&[]), 0.0);
    }

    #[test]
    fn eval_ignores_unmentioned_vars() {
        let f = v(2);
        let flat = Obdd::compile(&f, &ident_order(5)).flatten();
        assert_eq!(flat.eval(&indicators(0b00100, 5)), 1.0);
        assert_close(flat.eval(&[0.9, 0.9, 0.3, 0.9, 0.9]), 0.3, 1e-12);
    }

    /// §7's inclusion OBDD ⊂ FBDD, checked on the Theorem 7.1(i)
    /// hierarchical lineages: the OBDD's decision-DNNF arena is accepted as
    /// an FBDD, is ordered, and evaluates bit for bit like the OBDD.
    #[test]
    fn hierarchical_obdds_are_ordered_fbdds() {
        for n in [2u64, 4, 6, 8] {
            let mut rng = StdRng::seed_from_u64(7);
            let db = generators::star(n, 1, 2, 0.5, &mut rng);
            let idx = db.index();
            let probs: Vec<f64> = idx.iter().map(|(_, r)| r.prob).collect();
            let lin = ucq_dnf_lineage(&parse_ucq("R(x), S1(x,y)").unwrap(), &db, &idx).to_expr();
            let obdd = Obdd::compile(&lin, &order::hierarchical_order(&idx));
            let dd = obdd.to_decision_dnnf();
            let fbdd =
                Fbdd::from_nodes(dd.nodes().to_vec(), dd.root()).expect("an OBDD is an FBDD");
            assert!(fbdd.is_ordered(), "n={n}");
            assert_eq!(
                fbdd.flatten().eval(&probs).to_bits(),
                obdd.flatten().eval(&probs).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "missing from order")]
    fn missing_variable_in_order_panics() {
        let _ = Obdd::compile(&v(7), &ident_order(3));
    }
}
