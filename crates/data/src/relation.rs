//! A single probabilistic relation: tuples with a `P` column.

use crate::{Const, Tuple};
use std::collections::HashMap;
use std::fmt;

/// A named relation whose tuples each carry a marginal probability
/// (the paper's "relation with an additional attribute `P`", §2).
///
/// Tuples keep insertion order; lineage variables are numbered in this order,
/// so experiment output is deterministic.
///
/// A relation is **append-only**: nothing removes a tuple, and inserting a
/// tuple that is already stored overwrites its probability in place. So a
/// tuple's position never changes, and two states of one relation with the
/// same [`Relation::len`] hold the same tuples at the same positions —
/// only their probabilities can differ. Compiled query programs rely on
/// this: they address their leaves by `(relation, position)` and stay
/// valid for as long as the counts of the relations they read are equal.
#[derive(Clone, Debug)]
pub struct Relation {
    name: String,
    arity: usize,
    tuples: Vec<(Tuple, f64)>,
    index: HashMap<Tuple, usize>,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new(name: &str, arity: usize) -> Relation {
        Relation {
            name: name.to_string(),
            arity,
            tuples: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (possible) tuples stored.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Inserts (or overwrites) a tuple with probability `p`.
    ///
    /// `p` may be non-standard (outside `[0,1]`) — see the crate docs.
    pub fn insert(&mut self, tuple: impl Into<Tuple>, p: f64) {
        let tuple = tuple.into();
        assert_eq!(
            tuple.arity(),
            self.arity,
            "tuple arity does not match relation {}",
            self.name
        );
        match self.index.get(&tuple) {
            Some(&i) => self.tuples[i].1 = p,
            None => {
                self.index.insert(tuple.clone(), self.tuples.len());
                self.tuples.push((tuple, p));
            }
        }
    }

    /// The marginal probability of `tuple`; 0 for tuples not stored
    /// (closed-world semantics of §2).
    pub fn prob(&self, tuple: &Tuple) -> f64 {
        self.index
            .get(tuple)
            .map(|&i| self.tuples[i].1)
            .unwrap_or(0.0)
    }

    /// True iff the tuple is a *possible* tuple (stored with any probability).
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.index.contains_key(tuple)
    }

    /// Position of the tuple in insertion order, if present.
    pub fn position(&self, tuple: &Tuple) -> Option<usize> {
        self.index.get(tuple).copied()
    }

    /// The probability of the tuple at `position` (insertion order), if
    /// there is one.
    pub fn prob_at(&self, position: usize) -> Option<f64> {
        self.tuples.get(position).map(|&(_, p)| p)
    }

    /// The tuple at `position` (insertion order), if there is one.
    pub fn tuple_at(&self, position: usize) -> Option<&Tuple> {
        self.tuples.get(position).map(|(t, _)| t)
    }

    /// Iterates tuples with probabilities in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, f64)> {
        self.tuples.iter().map(|(t, p)| (t, *p))
    }

    /// All constants appearing in any tuple.
    pub fn active_domain(&self) -> impl Iterator<Item = Const> + '_ {
        self.tuples
            .iter()
            .flat_map(|(t, _)| t.values().iter().copied())
    }

    /// Applies `f` to every probability (used e.g. by the lower-bound
    /// rewriting of Theorem 6.1 and by `p ↦ 1−p` complementation).
    pub fn map_probs(&self, f: impl Fn(&Tuple, f64) -> f64) -> Relation {
        let mut out = self.clone();
        for (t, p) in out.tuples.iter_mut() {
            *p = f(t, *p);
        }
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}/{} ({} tuples)", self.name, self.arity, self.len())?;
        for (t, p) in self.iter() {
            writeln!(f, "  {t}  P={p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut r = Relation::new("R", 1);
        r.insert([1], 0.5);
        r.insert([2], 0.25);
        assert_eq!(r.len(), 2);
        assert_eq!(r.prob(&Tuple::from([1])), 0.5);
        assert_eq!(r.prob(&Tuple::from([3])), 0.0, "closed world");
        assert!(r.contains(&Tuple::from([2])));
        assert!(!r.contains(&Tuple::from([3])));
    }

    #[test]
    fn insert_overwrites() {
        let mut r = Relation::new("R", 1);
        r.insert([1], 0.5);
        r.insert([1], 0.75);
        assert_eq!(r.len(), 1);
        assert_eq!(r.prob(&Tuple::from([1])), 0.75);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut r = Relation::new("R", 2);
        r.insert([1], 0.5);
    }

    #[test]
    fn insertion_order_is_stable() {
        let mut r = Relation::new("S", 2);
        r.insert([1, 2], 0.1);
        r.insert([0, 9], 0.2);
        let order: Vec<_> = r.iter().map(|(t, _)| t.clone()).collect();
        assert_eq!(order, vec![Tuple::from([1, 2]), Tuple::from([0, 9])]);
        assert_eq!(r.position(&Tuple::from([0, 9])), Some(1));
    }

    #[test]
    fn relations_are_append_only() {
        let mut r = Relation::new("S", 2);
        r.insert([1, 2], 0.1);
        r.insert([0, 9], 0.2);
        r.insert([5, 5], 0.3);
        let before: Vec<Tuple> = r.iter().map(|(t, _)| t.clone()).collect();
        // Re-inserting a stored tuple changes its probability, not its
        // position, and not the count.
        r.insert([0, 9], 0.7);
        assert_eq!(r.len(), 3);
        assert_eq!(r.position(&Tuple::from([0, 9])), Some(1));
        assert_eq!(r.prob_at(1), Some(0.7));
        // A new tuple goes after every stored one.
        r.insert([4, 4], 0.4);
        let after: Vec<Tuple> = r.iter().map(|(t, _)| t.clone()).collect();
        assert_eq!(after[..3], before[..]);
        assert_eq!(r.position(&Tuple::from([4, 4])), Some(3));
        assert_eq!(r.prob_at(3), Some(0.4));
        assert_eq!(r.prob_at(4), None);
    }

    #[test]
    fn map_probs_transforms() {
        let mut r = Relation::new("R", 1);
        r.insert([1], 0.4);
        let c = r.map_probs(|_, p| 1.0 - p);
        assert_eq!(c.prob(&Tuple::from([1])), 0.6);
        // original untouched
        assert_eq!(r.prob(&Tuple::from([1])), 0.4);
    }

    #[test]
    fn nonstandard_probabilities_allowed() {
        let mut r = Relation::new("R", 1);
        r.insert([1], -0.5); // appendix: weight w<1 ⇒ negative probability
        assert_eq!(r.prob(&Tuple::from([1])), -0.5);
    }
}
