//! Variable-order heuristics for OBDD compilation.
//!
//! Theorem 7.1(i-a): hierarchical self-join-free CQ lineages have
//! *linear-size* OBDDs — under the order that groups each root constant's
//! tuples together (all tuples mentioning `a` before all tuples mentioning
//! `b`, …). [`hierarchical_order`] produces that grouping from a database
//! index; [`identity_order`] is the naive baseline.

use pdb_data::TupleIndex;

/// The identity order `0, 1, …, n−1` (tuple ids in index order).
pub fn identity_order(n: u32) -> Vec<u32> {
    (0..n).collect()
}

/// Groups tuple variables by their **first attribute value**, then relation
/// name, then tuple — the "process one root constant at a time" order that
/// realizes linear-size OBDDs for hierarchical queries like
/// `R(x), S(x,y)` (all of `R(a), S(a,·)` contiguous per `a`).
pub fn hierarchical_order(index: &TupleIndex) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..index.len() as u32).collect();
    ids.sort_by_key(|&i| {
        let r = index.get(pdb_data::TupleId(i));
        let first = r.tuple.values().first().copied().unwrap_or(0);
        (first, r.relation.clone(), r.tuple.clone())
    });
    ids
}

/// An adversarial order interleaving relations: all of `R`, then all of `S`,
/// then all of `T`, each sorted by tuple. For `R(x),S(x,y)`-style lineages
/// this separates each root from its children and degrades OBDD sharing;
/// used as the ablation baseline in the E6 experiment.
pub fn relation_major_order(index: &TupleIndex) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..index.len() as u32).collect();
    ids.sort_by_key(|&i| {
        let r = index.get(pdb_data::TupleId(i));
        (r.relation.clone(), r.tuple.clone())
    });
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obdd::Obdd;
    use pdb_data::generators;
    use pdb_lineage::ucq_dnf_lineage;
    use pdb_logic::parse_ucq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_identity() {
        assert_eq!(identity_order(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn hierarchical_order_groups_by_root() {
        let mut rng = StdRng::seed_from_u64(5);
        let db = generators::star(4, 1, 3, 0.5, &mut rng);
        let idx = db.index();
        let order = hierarchical_order(&idx);
        // Walk the order; once we leave a root constant we never return.
        let mut seen_roots = Vec::new();
        for &i in &order {
            let root = idx.get(pdb_data::TupleId(i)).tuple.get(0);
            if seen_roots.last() != Some(&root) {
                assert!(
                    !seen_roots.contains(&root),
                    "root {root} split across the order"
                );
                seen_roots.push(root);
            }
        }
    }

    #[test]
    fn hierarchical_order_beats_relation_major_on_star() {
        // OBDD of the lineage of R(x), S1(x,y) on a star instance: grouped
        // order stays linear, relation-major order grows.
        let mut rng = StdRng::seed_from_u64(5);
        let db = generators::star(6, 1, 2, 0.5, &mut rng);
        let idx = db.index();
        let lin = ucq_dnf_lineage(&parse_ucq("R(x), S1(x,y)").unwrap(), &db, &idx).to_expr();
        let good = Obdd::compile(&lin, &hierarchical_order(&idx));
        let bad = Obdd::compile(&lin, &relation_major_order(&idx));
        assert!(
            good.size() <= bad.size(),
            "grouped {} vs relation-major {}",
            good.size(),
            bad.size()
        );
        // Both compute the same function on a few spot checks.
        let (good, bad) = (good.flatten(), bad.flatten());
        for mask in [0u64, 3, 7, 13, (1 << idx.len()) - 1] {
            let a = crate::indicators(mask, idx.len() as u32);
            assert_eq!(good.eval(&a), bad.eval(&a));
        }
    }
}
