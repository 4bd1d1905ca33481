//! Unions of Boolean conjunctive queries.
//!
//! A UCQ `Q = Q₁ ∨ … ∨ Q_m` is the fragment for which the dichotomy theorem
//! (Theorem 4.1) and the completeness of lifted inference with
//! inclusion/exclusion (Theorem 5.1) are stated. This module provides the
//! union-level analyses: independent partitioning of disjuncts, UCQ-level
//! separator variables, and the *inversion-free* test that characterizes
//! linear-size OBDDs (Theorem 7.1 discussion).

use crate::atom::Predicate;
use crate::cq::Cq;
use crate::fo::Fo;
use crate::term::Var;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A union of Boolean conjunctive queries.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Ucq {
    disjuncts: Vec<Cq>,
}

impl Ucq {
    /// Builds a UCQ (disjuncts deduplicated, canonical order).
    pub fn new(mut disjuncts: Vec<Cq>) -> Ucq {
        disjuncts.sort();
        disjuncts.dedup();
        Ucq { disjuncts }
    }

    /// A single-CQ union.
    pub fn single(cq: Cq) -> Ucq {
        Ucq {
            disjuncts: vec![cq],
        }
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[Cq] {
        &self.disjuncts
    }

    /// True iff the union is empty (logically `false`).
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// True iff some disjunct is trivially true.
    pub fn is_trivially_true(&self) -> bool {
        self.disjuncts.iter().any(Cq::is_trivial)
    }

    /// All predicate symbols.
    pub fn predicates(&self) -> BTreeSet<Predicate> {
        self.disjuncts.iter().flat_map(|d| d.predicates()).collect()
    }

    /// All variables (across disjuncts; scoping is per-disjunct).
    pub fn variables(&self) -> BTreeSet<Var> {
        self.disjuncts.iter().flat_map(|d| d.variables()).collect()
    }

    /// Partitions the disjuncts into groups that are independent events on a
    /// TID, so `p(⋁ᵢ) = 1 − ∏_groups (1 − p(group))` (dual of rule (7)).
    /// Two disjuncts land in one group when some pair of their atoms may
    /// unify (shattering-aware: `S(0,y)` and `S(1,y)` are independent).
    pub fn independent_partition(&self) -> Vec<Ucq> {
        let n = self.disjuncts.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        for i in 0..n {
            for j in i + 1..n {
                let overlap = self.disjuncts[i]
                    .atoms()
                    .iter()
                    .any(|a| self.disjuncts[j].atoms().iter().any(|b| a.may_unify(b)));
                if overlap {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        let mut groups: BTreeMap<usize, Vec<Cq>> = BTreeMap::new();
        for (i, d) in self.disjuncts.iter().enumerate() {
            groups
                .entry(find(&mut parent, i))
                .or_default()
                .push(d.clone());
        }
        groups.into_values().map(Ucq::new).collect()
    }

    /// A UCQ-level separator: one variable per disjunct, each a separator of
    /// its own disjunct, such that for every relation symbol `R` the chosen
    /// variables occupy a *common position* in all `R`-atoms across all
    /// disjuncts. Substituting the same constant for each then yields
    /// independent events across constants.
    ///
    /// Returns the chosen variable per disjunct, or `None`.
    pub fn separator(&self) -> Option<Vec<Var>> {
        // Candidate separators per disjunct.
        let cands: Vec<Vec<Var>> = self
            .disjuncts
            .iter()
            .map(|d| d.separator_variables())
            .collect();
        if cands.iter().any(Vec::is_empty) {
            return None;
        }
        // Backtracking over choices, checking global position consistency.
        fn positions(d: &Cq, v: &Var) -> BTreeMap<Predicate, BTreeSet<usize>> {
            let mut map: BTreeMap<Predicate, BTreeSet<usize>> = BTreeMap::new();
            for a in d.atoms() {
                let pos: BTreeSet<usize> = a.positions_of(v).into_iter().collect();
                map.entry(a.predicate.clone())
                    .and_modify(|s| *s = s.intersection(&pos).cloned().collect())
                    .or_insert(pos);
            }
            map
        }
        fn go(
            ucq: &Ucq,
            cands: &[Vec<Var>],
            idx: usize,
            chosen: &mut Vec<Var>,
            acc: &mut BTreeMap<Predicate, BTreeSet<usize>>,
        ) -> bool {
            if idx == cands.len() {
                return true;
            }
            for v in &cands[idx] {
                let pos = positions(&ucq.disjuncts[idx], v);
                let saved = acc.clone();
                let mut ok = true;
                for (p, s) in &pos {
                    let merged: BTreeSet<usize> = match acc.get(p) {
                        None => s.clone(),
                        Some(prev) => prev.intersection(s).cloned().collect(),
                    };
                    if merged.is_empty() {
                        ok = false;
                        break;
                    }
                    acc.insert(p.clone(), merged);
                }
                if ok {
                    chosen.push(v.clone());
                    if go(ucq, cands, idx + 1, chosen, acc) {
                        return true;
                    }
                    chosen.pop();
                }
                *acc = saved;
            }
            false
        }
        let mut chosen = Vec::new();
        let mut acc = BTreeMap::new();
        if go(self, &cands, 0, &mut chosen, &mut acc) {
            Some(chosen)
        } else {
            None
        }
    }

    /// The *inversion-free* test (Theorem 7.1 / \[46\]): a UCQ is inversion-
    /// free iff it has a UCQ-separator and, recursively, so does every query
    /// obtained by substituting the separator. We approximate with the
    /// standard syntactic test: every unification path between atoms keeps
    /// "root" positions aligned. Here we use the recursive-separator
    /// formulation, which is exact for the query families in the paper.
    pub fn is_inversion_free(&self) -> bool {
        // Trivial / ground queries are inversion-free.
        if self.variables().is_empty() {
            return true;
        }
        // Work on each independent group separately.
        let groups = self.independent_partition();
        if groups.len() > 1 {
            return groups.iter().all(Ucq::is_inversion_free);
        }
        let Some(seps) = self.separator() else {
            return false;
        };
        // Substitute a fresh marker constant for the separator in every
        // disjunct and recurse on the residual query. Atoms that became
        // ground are independent Boolean events and cannot participate in an
        // inversion, so they are dropped from the residual.
        const MARKER: u64 = u64::MAX; // never clashes with real domains
        let residual: Vec<Cq> = self
            .disjuncts
            .iter()
            .zip(&seps)
            .map(|(d, v)| {
                let sub = d.substitute(v, &crate::term::Term::Const(MARKER));
                Cq::new(
                    sub.atoms()
                        .iter()
                        .filter(|a| !a.is_ground())
                        .cloned()
                        .collect(),
                )
            })
            .filter(|d| !d.is_trivial())
            .collect();
        Ucq::new(residual).is_inversion_free()
    }

    /// The union as a first-order sentence.
    pub fn to_fo(&self) -> Fo {
        if self.disjuncts.is_empty() {
            Fo::False
        } else {
            Fo::Or(self.disjuncts.iter().map(Cq::to_fo).collect())
        }
    }
}

impl fmt::Debug for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return write!(f, "false");
        }
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "[{d}]")?;
        }
        Ok(())
    }
}

impl fmt::Display for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_cq, parse_ucq};

    #[test]
    fn construction_dedups() {
        let u = parse_ucq("[R(x)] | [R(y)] | [R(x)]").unwrap();
        // R(x) and R(y) are syntactically distinct (dedup is syntactic).
        assert_eq!(u.disjuncts().len(), 2);
    }

    #[test]
    fn independent_partition_by_symbols() {
        let u = parse_ucq("[R(x), S(x,y)] | [T(u)]").unwrap();
        assert_eq!(u.independent_partition().len(), 2);
        let v = parse_ucq("[R(x), S(x,y)] | [T(u), S(u,v)]").unwrap();
        assert_eq!(v.independent_partition().len(), 1);
    }

    #[test]
    fn ucq_separator_for_qj_dual_form() {
        // h₁ = [R(x),S(x,y)] ∨ [S(u,v),T(u)]: x/u are separators and S is
        // used at position 0 in both — a valid UCQ separator.
        let u = parse_ucq("[R(x), S(x,y)] | [S(u,v), T(u)]").unwrap();
        let sep = u.separator().expect("separator exists");
        assert_eq!(sep.len(), 2);
    }

    #[test]
    fn no_ucq_separator_with_inversion() {
        // H₁-style: [R(x),S(x,y)] ∨ [S(x,y),T(y)] — first disjunct's
        // separator must sit at S-position 0, second's at S-position 1.
        let u = parse_ucq("[R(x), S(x,y)] | [S(x,y), T(y)]").unwrap();
        assert!(u.separator().is_none());
        assert!(!u.is_inversion_free());
    }

    #[test]
    fn hierarchical_sjf_cq_is_inversion_free() {
        let u = Ucq::single(parse_cq("R(x), S(x,y)").unwrap());
        assert!(u.is_inversion_free());
    }

    #[test]
    fn non_hierarchical_cq_not_inversion_free() {
        let u = Ucq::single(parse_cq("R(x), S(x,y), T(y)").unwrap());
        assert!(!u.is_inversion_free());
    }

    #[test]
    fn ground_query_inversion_free() {
        let u = parse_ucq("[R(1)] | [S(1,2)]").unwrap();
        assert!(u.is_inversion_free());
    }

    #[test]
    fn to_fo_and_back() {
        // Prenexing renames variables, so compare up to logical equivalence.
        let u = parse_ucq("[R(x), S(x,y)] | [T(u)]").unwrap();
        let back = u.to_fo().to_ucq().unwrap();
        assert_eq!(back.disjuncts().len(), u.disjuncts().len());
        for d in u.disjuncts() {
            assert!(
                back.disjuncts()
                    .iter()
                    .any(|b| crate::hom::equivalent(b, d)),
                "missing equivalent of {d}"
            );
        }
    }
}
