//! Fixpoint evaluation with lineage.
//!
//! Every derived fact carries its monotone-DNF lineage: the *antichain of
//! minimal EDB support sets* (a support is a set of extensional tuples whose
//! joint presence derives the fact). Rule application joins body atoms over
//! known facts, takes the cross-product of their supports, and inserts the
//! results with **absorption** (a support subsumed by a smaller one is
//! dropped). Since supports draw from finitely many EDB tuples and the
//! antichain only ever gains ⊆-minimal elements, the iteration reaches a
//! fixpoint even on cyclic (and non-linear) recursion.
//!
//! `p(fact) = p(lineage)` is then exact weighted model counting — for the
//! transitive-closure program this *is* two-terminal network reliability.

use crate::program::{Program, Rule};
use pdb_data::{Const, Tuple, TupleDb, TupleId, TupleIndex};
use pdb_lineage::BoolExpr;
use pdb_logic::{Atom, Term as LTerm, Var};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One support set: EDB tuples whose presence suffices (with the rest of
/// the support) to derive the fact.
type Support = BTreeSet<TupleId>;

/// Safety valve against pathological support blow-up.
const MAX_SUPPORTS_PER_FACT: usize = 50_000;

/// The probabilistic datalog engine.
pub struct DatalogEngine<'a> {
    db: &'a TupleDb,
    index: TupleIndex,
    program: Program,
    idb: BTreeSet<String>,
    store: HashMap<(String, Tuple), Vec<Support>>,
    solved: bool,
}

impl<'a> DatalogEngine<'a> {
    /// Prepares an engine for `program` over the EDB facts in `db`.
    pub fn new(db: &'a TupleDb, program: Program) -> DatalogEngine<'a> {
        let idb = program.idb_predicates();
        for pred in &idb {
            assert!(
                db.relation(pred).is_none(),
                "predicate {pred} is intensional but has EDB facts; \
                 rename one of them"
            );
        }
        DatalogEngine {
            db,
            index: db.index(),
            program,
            idb: idb.into_iter().collect(),
            store: HashMap::new(),
            solved: false,
        }
    }

    /// Runs the fixpoint (idempotent).
    pub fn solve(&mut self) {
        if self.solved {
            return;
        }
        loop {
            let mut changed = false;
            for rule in self.program.rules.clone() {
                let derivations = self.apply_rule(&rule);
                for (fact, supports) in derivations {
                    for s in supports {
                        if self.insert_support(&rule.head, fact.clone(), s) {
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.solved = true;
    }

    /// All derived facts of `pred`, with probabilities, sorted by tuple.
    pub fn facts(&mut self, pred: &str) -> Vec<(Tuple, f64)> {
        self.solve();
        // Sorted before any probability is computed: nothing numeric runs
        // in the store's hash order.
        let tuples: BTreeSet<Tuple> = self
            .store
            .keys()
            .filter(|(p, _)| p == pred)
            .map(|(_, t)| t.clone())
            .collect();
        tuples
            .into_iter()
            .map(|t| {
                let p = self.probability(pred, &t);
                (t, p)
            })
            .collect()
    }

    /// The lineage of a derived fact (`None` if not derivable at all).
    pub fn lineage(&mut self, pred: &str, tuple: &Tuple) -> Option<BoolExpr> {
        self.solve();
        let supports = self.store.get(&(pred.to_string(), tuple.clone()))?;
        Some(BoolExpr::or_all(supports.iter().map(|s| {
            BoolExpr::and_all(s.iter().map(|&id| BoolExpr::var(id)))
        })))
    }

    /// `p(fact)`: the probability that the random world derives it.
    pub fn probability(&mut self, pred: &str, tuple: &Tuple) -> f64 {
        self.solve();
        let Some(expr) = self.lineage(pred, tuple) else {
            return 0.0;
        };
        let probs: Vec<f64> = self.index.iter().map(|(_, r)| r.prob).collect();
        pdb_wmc::probability_of_expr(&expr, &probs, pdb_wmc::DpllOptions::default()).0
    }

    /// Number of minimal supports of a fact (0 when not derivable).
    pub fn support_count(&mut self, pred: &str, tuple: &Tuple) -> usize {
        self.solve();
        self.store
            .get(&(pred.to_string(), tuple.clone()))
            .map(|s| s.len())
            .unwrap_or(0)
    }

    // ----------------------------------------------------------- internals

    /// Inserts one support into a fact's antichain; true if it changed.
    fn insert_support(&mut self, head: &Atom, fact: Tuple, support: Support) -> bool {
        let key = (head.predicate.name().to_string(), fact);
        let entry = self.store.entry(key).or_default();
        // Absorbed by an existing (smaller) support?
        if entry.iter().any(|s| s.is_subset(&support)) {
            return false;
        }
        // Remove supports the new one absorbs.
        entry.retain(|s| !support.is_subset(s));
        entry.push(support);
        assert!(
            entry.len() <= MAX_SUPPORTS_PER_FACT,
            "support antichain exceeded {MAX_SUPPORTS_PER_FACT} entries"
        );
        true
    }

    /// All derivations of one rule under the current store:
    /// `(head fact, supports)`.
    fn apply_rule(&self, rule: &Rule) -> Vec<(Tuple, Vec<Support>)> {
        let mut out: Vec<(Tuple, Vec<Support>)> = Vec::new();
        let mut binding: BTreeMap<Var, Const> = BTreeMap::new();
        let mut partial: Vec<Support> = vec![Support::new()];
        self.descend(rule, 0, &mut binding, &mut partial, &mut out);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        rule: &Rule,
        pos: usize,
        binding: &mut BTreeMap<Var, Const>,
        partial: &mut Vec<Support>,
        out: &mut Vec<(Tuple, Vec<Support>)>,
    ) {
        if pos == rule.body.len() {
            let fact = rule
                .head
                .apply(&|v| LTerm::Const(*binding.get(v).expect("range-restricted head")));
            let tuple = Tuple::new(fact.ground_tuple().expect("fully bound"));
            out.push((tuple, partial.clone()));
            return;
        }
        let atom = &rule.body[pos];
        // Candidate facts with their support DNFs.
        let candidates = self.candidates(atom);
        'facts: for (tuple, supports) in candidates {
            // Unify.
            let mut newly: Vec<Var> = Vec::new();
            for (i, term) in atom.args.iter().enumerate() {
                let val = tuple.get(i);
                match term {
                    LTerm::Const(c) => {
                        if *c != val {
                            for v in newly.drain(..) {
                                binding.remove(&v);
                            }
                            continue 'facts;
                        }
                    }
                    LTerm::Var(v) => match binding.get(v) {
                        Some(&b) if b != val => {
                            for v in newly.drain(..) {
                                binding.remove(&v);
                            }
                            continue 'facts;
                        }
                        Some(_) => {}
                        None => {
                            binding.insert(v.clone(), val);
                            newly.push(v.clone());
                        }
                    },
                }
            }
            // Cross the partial product with this fact's supports.
            let mut next: Vec<Support> = Vec::with_capacity(partial.len() * supports.len());
            for p in partial.iter() {
                for s in &supports {
                    let mut merged = p.clone();
                    merged.extend(s.iter().copied());
                    next.push(merged);
                }
            }
            std::mem::swap(partial, &mut next);
            self.descend(rule, pos + 1, binding, partial, out);
            std::mem::swap(partial, &mut next);
            for v in newly {
                binding.remove(&v);
            }
        }
    }

    /// Facts matching an atom's predicate: EDB tuples (singleton supports)
    /// or stored IDB facts (their antichains).
    fn candidates(&self, atom: &Atom) -> Vec<(Tuple, Vec<Support>)> {
        let name = atom.predicate.name();
        if self.idb.contains(name) {
            self.store
                .iter()
                .filter(|((p, _), _)| p == name)
                .map(|((_, t), supports)| (t.clone(), supports.clone()))
                .collect()
        } else if let Some(rel) = self.db.relation(name) {
            rel.iter()
                .map(|(t, _)| {
                    let id = self
                        .index
                        .id_of(name, t)
                        .expect("stored tuples are indexed");
                    (t.clone(), vec![Support::from([id])])
                })
                .collect()
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::parse_program;
    use pdb_num::assert_close;

    const TC: &str = "
        Path(x,y) <- Edge(x,y).
        Path(x,z) <- Path(x,y), Edge(y,z).
    ";

    /// Brute-force two-terminal reliability: enumerate edge worlds, BFS.
    fn reliability(db: &TupleDb, s: u64, t: u64) -> f64 {
        let idx = db.index();
        let mut total = 0.0;
        for w in pdb_data::worlds::enumerate(&idx) {
            // Reachability in this world.
            let mut reach = BTreeSet::from([s]);
            loop {
                let mut grew = false;
                for (id, fact) in idx.iter() {
                    if w.contains(id) && fact.relation == "Edge" {
                        let (a, b) = (fact.tuple.get(0), fact.tuple.get(1));
                        if reach.contains(&a) && reach.insert(b) {
                            grew = true;
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            if reach.contains(&t) {
                total += w.probability(&idx);
            }
        }
        total
    }

    fn diamond() -> TupleDb {
        // 0 → {1, 2} → 3, plus a chord 1 → 2.
        let mut db = TupleDb::new();
        db.insert("Edge", [0, 1], 0.8);
        db.insert("Edge", [0, 2], 0.5);
        db.insert("Edge", [1, 3], 0.7);
        db.insert("Edge", [2, 3], 0.6);
        db.insert("Edge", [1, 2], 0.4);
        db
    }

    #[test]
    fn transitive_closure_matches_reliability() {
        let db = diamond();
        let mut engine = DatalogEngine::new(&db, parse_program(TC).unwrap());
        for (s, t) in [(0, 3), (0, 2), (1, 3), (2, 3)] {
            let p = engine.probability("Path", &Tuple::from([s, t]));
            let expected = reliability(&db, s, t);
            assert_close(p, expected, 1e-9);
        }
        // Unreachable pair.
        assert_close(engine.probability("Path", &Tuple::from([3, 0])), 0.0, 1e-12);
    }

    #[test]
    fn cyclic_graphs_terminate() {
        let mut db = TupleDb::new();
        db.insert("Edge", [0, 1], 0.9);
        db.insert("Edge", [1, 0], 0.9); // 2-cycle
        db.insert("Edge", [1, 2], 0.5);
        let mut engine = DatalogEngine::new(&db, parse_program(TC).unwrap());
        let p = engine.probability("Path", &Tuple::from([0, 2]));
        assert_close(p, reliability(&db, 0, 2), 1e-9);
        // Path(0,0) through the cycle.
        let p00 = engine.probability("Path", &Tuple::from([0, 0]));
        assert_close(p00, 0.81, 1e-9);
    }

    #[test]
    fn nonlinear_recursion_agrees_with_linear() {
        let db = diamond();
        let nonlinear = "
            Path(x,y) <- Edge(x,y).
            Path(x,z) <- Path(x,y), Path(y,z).
        ";
        let mut a = DatalogEngine::new(&db, parse_program(TC).unwrap());
        let mut b = DatalogEngine::new(&db, parse_program(nonlinear).unwrap());
        for (s, t) in [(0u64, 3u64), (0, 2)] {
            assert_close(
                a.probability("Path", &Tuple::from([s, t])),
                b.probability("Path", &Tuple::from([s, t])),
                1e-9,
            );
        }
    }

    #[test]
    fn nonrecursive_program_equals_ucq() {
        let mut db = TupleDb::new();
        db.insert("R", [0], 0.5);
        db.insert("R", [1], 0.4);
        db.insert("S", [0, 1], 0.8);
        db.insert("S", [1, 1], 0.3);
        let program = parse_program("Out(x) <- R(x), S(x,y).").unwrap();
        let mut engine = DatalogEngine::new(&db, program);
        let expected0 = 0.5 * 0.8;
        assert_close(
            engine.probability("Out", &Tuple::from([0])),
            expected0,
            1e-12,
        );
        // And against the lifted engine on the bound query.
        let cq = pdb_logic::parse_cq("R(1), S(1,y)").unwrap();
        let lifted = pdb_lifted_probability(&cq, &db);
        assert_close(engine.probability("Out", &Tuple::from([1])), lifted, 1e-9);
    }

    // Tiny helper so the test above reads cleanly without a dev-dependency
    // on pdb-lifted: brute-force via the lineage oracle.
    fn pdb_lifted_probability(cq: &pdb_logic::Cq, db: &TupleDb) -> f64 {
        let idx = db.index();
        let lin =
            pdb_lineage::ucq_dnf_lineage(&pdb_logic::Ucq::single(cq.clone()), db, &idx).to_expr();
        let probs: Vec<f64> = idx.iter().map(|(_, r)| r.prob).collect();
        pdb_wmc::probability_of_expr(&lin, &probs, pdb_wmc::DpllOptions::default()).0
    }

    #[test]
    fn facts_lists_all_derivations() {
        let db = diamond();
        let mut engine = DatalogEngine::new(&db, parse_program(TC).unwrap());
        let facts = engine.facts("Path");
        // From 0: 1,2,3; from 1: 2,3; from 2: 3 ⇒ 6 facts.
        assert_eq!(facts.len(), 6);
        for (_, p) in &facts {
            assert!(*p > 0.0 && *p <= 1.0);
        }
    }

    #[test]
    fn minimal_supports_are_kept() {
        let db = diamond();
        let mut engine = DatalogEngine::new(&db, parse_program(TC).unwrap());
        engine.solve();
        // Path(0,3): supports {01,13}, {02,23}, {01,12,23} — the third is
        // NOT absorbed (it is ⊆-incomparable with the others).
        assert_eq!(engine.support_count("Path", &Tuple::from([0, 3])), 3);
        // Path(0,1): single direct edge.
        assert_eq!(engine.support_count("Path", &Tuple::from([0, 1])), 1);
    }

    #[test]
    fn certain_edges_give_certain_paths() {
        let mut db = TupleDb::new();
        db.insert("Edge", [0, 1], 1.0);
        db.insert("Edge", [1, 2], 1.0);
        let mut engine = DatalogEngine::new(&db, parse_program(TC).unwrap());
        assert_close(engine.probability("Path", &Tuple::from([0, 2])), 1.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "intensional but has EDB facts")]
    fn idb_edb_name_clashes_rejected() {
        let mut db = TupleDb::new();
        db.insert("Path", [0, 1], 0.5);
        let _ = DatalogEngine::new(&db, parse_program(TC).unwrap());
    }
}
