//! The clause-storage audit, alone in its own test binary: `clone_stats()`
//! reads process-global counters that every DPLL run in the process bumps,
//! so exact deltas only hold where no sibling test counts concurrently.

use pdb_lineage::{Clause, Cnf, Lit};
use pdb_wmc::{clone_stats, run_parallel, Dpll, DpllOptions};

#[test]
fn no_per_branch_clause_clones_sequential_or_parallel() {
    let mut clauses = Vec::new();
    for i in 0..8u32 {
        clauses.push(Clause::new(vec![Lit::neg(i), Lit::pos(i + 1)]));
    }
    for b in 0..3u32 {
        let base = 9 + b * 3;
        clauses.push(Clause::new(vec![Lit::pos(base), Lit::pos(base + 1)]));
    }
    let cnf = Cnf::new(clauses, 18);
    let probs = vec![0.4; 18];
    let before = clone_stats();
    let seq = Dpll::new(&cnf, probs.clone(), DpllOptions::default()).run();
    let pool = pdb_par::Pool::new(4);
    let par = run_parallel(&cnf, &probs, DpllOptions::default(), &pool);
    assert_eq!(seq.probability.to_bits(), par.probability.to_bits());
    let after = clone_stats();
    // Branches shared clauses through the interned storage...
    assert!(after.shared > before.shared, "branches share via Arc");
    // ...interning copied exactly the input clauses, per run...
    assert_eq!(
        after.interned - before.interned,
        2 * cnf.clauses.len() as u64
    );
    // ...and nothing deep-cloned a clause per branch.
    assert_eq!(after.cloned, 0, "per-branch clause clones must stay zero");
}
