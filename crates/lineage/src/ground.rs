//! Lineage construction (grounding).
//!
//! Implements the appendix's inductive definition of `F_{Q,DOM}`:
//! `∀` becomes a conjunction over the domain, `∃` a disjunction, atoms become
//! the tuple variable `X_i` (or the constant *false* for impossible tuples —
//! the closed-world convention of §2).
//!
//! For UCQs there is a much better strategy than grounding over
//! `DOM^#vars`: enumerate only the assignments supported by *stored* tuples
//! via a backtracking join. [`ucq_dnf_lineage`] does that, returning the
//! monotone-DNF lineage as explicit tuple-id sets, which is also what the
//! plan lower bound of Theorem 6.1 needs (tuple multiplicities `k`).

use crate::expr::BoolExpr;
use pdb_data::{Const, Tuple, TupleDb, TupleId, TupleIndex};
use pdb_logic::{Atom, Cq, Fo, Term, Ucq, Var};
use std::collections::{BTreeMap, BTreeSet};

/// Grounds an FO sentence into its lineage over the database's domain.
///
/// The formula's Boolean variables are the [`TupleId`]s of `index` (take it
/// from `db.index()`). Free variables in `fo` cause a panic — ground the
/// query first or quantify it.
pub fn lineage(fo: &Fo, db: &TupleDb, index: &TupleIndex) -> BoolExpr {
    let dom: Vec<Const> = db.domain().into_iter().collect();
    assert!(
        fo.is_sentence(),
        "lineage requires a sentence (no free variables)"
    );
    go(fo, index, &dom)
}

/// Whether the lineage [`lineage`] builds for `fo` can change when `DOM`
/// grows by constants that no tuple of `fo`'s relations holds.
///
/// Grounded at such a constant `c`, an atom over `c` is absent, hence ⊥.
/// A quantifier is *guarded* when that makes every instance of its body at
/// `c` fold to its neutral element — ⊥ under ∃ (an atom over the variable
/// in every disjunct: `∃y. S(x,y) ∧ T(y)`), ⊤ under ∀ (a negated atom over
/// it in some disjunct: `∀y. R(x) ∨ ¬S(x,y)`) — which the smart ∧/∨ of
/// [`BoolExpr`] then drop. A sentence whose every quantifier is guarded
/// has a lineage that is a function of its relations' tuples alone; any
/// other reads the domain (`∀x. R(x)` gains a conjunct ⊥, `∃x. R(1)`
/// repeats its body, once per constant).
pub fn reads_domain(fo: &Fo) -> bool {
    /// Every grounding of `f` at `v := c`, for `c` in no mentioned tuple,
    /// folds to the constant `to`.
    fn folds(f: &Fo, v: &Var, to: bool) -> bool {
        match f {
            Fo::True => to,
            Fo::False => !to,
            Fo::Atom(a) => !to && a.contains_var(v),
            Fo::Not(inner) => folds(inner, v, !to),
            // ∧ is ⊥ once one part is, ⊤ only when all are; ∨ dually.
            Fo::And(parts) if to => parts.iter().all(|p| folds(p, v, to)),
            Fo::And(parts) => parts.iter().any(|p| folds(p, v, to)),
            Fo::Or(parts) if to => parts.iter().any(|p| folds(p, v, to)),
            Fo::Or(parts) => parts.iter().all(|p| folds(p, v, to)),
            // `DOM` holds `c`, so a quantifier over instances that all fold
            // alike folds the same way.
            Fo::Exists(w, body) | Fo::Forall(w, body) => w != v && folds(body, v, to),
        }
    }
    match fo {
        Fo::True | Fo::False | Fo::Atom(_) => false,
        Fo::Not(inner) => reads_domain(inner),
        Fo::And(parts) | Fo::Or(parts) => parts.iter().any(reads_domain),
        Fo::Exists(v, body) => !folds(body, v, false) || reads_domain(body),
        Fo::Forall(v, body) => !folds(body, v, true) || reads_domain(body),
    }
}

fn go(fo: &Fo, index: &TupleIndex, dom: &[Const]) -> BoolExpr {
    lineage_with(fo, dom, &|a| atom_expr(a, index))
}

/// Grounds a sentence with a **pluggable atom resolver**: each ground atom
/// is mapped to an arbitrary Boolean expression. This is how richer
/// representation systems reuse the grounding — e.g. BID databases resolve
/// an atom to its selector-chain expression rather than a single variable.
pub fn lineage_with(fo: &Fo, dom: &[Const], resolve: &dyn Fn(&Atom) -> BoolExpr) -> BoolExpr {
    match fo {
        Fo::True => BoolExpr::TRUE,
        Fo::False => BoolExpr::FALSE,
        Fo::Atom(a) => resolve(a),
        Fo::Not(inner) => lineage_with(inner, dom, resolve).negate(),
        Fo::And(parts) => BoolExpr::and_all(parts.iter().map(|p| lineage_with(p, dom, resolve))),
        Fo::Or(parts) => BoolExpr::or_all(parts.iter().map(|p| lineage_with(p, dom, resolve))),
        Fo::Forall(v, body) => BoolExpr::and_all(
            dom.iter()
                .map(|&a| lineage_with(&body.substitute(v, &Term::Const(a)), dom, resolve)),
        ),
        Fo::Exists(v, body) => BoolExpr::or_all(
            dom.iter()
                .map(|&a| lineage_with(&body.substitute(v, &Term::Const(a)), dom, resolve)),
        ),
    }
}

fn atom_expr(a: &Atom, index: &TupleIndex) -> BoolExpr {
    let tuple = a
        .ground_tuple()
        .expect("atom not fully grounded during lineage construction");
    match index.id_of(a.predicate.name(), &Tuple::new(tuple)) {
        Some(id) => BoolExpr::var(id),
        None => BoolExpr::FALSE,
    }
}

/// A monotone-DNF lineage: a set of terms, each a set of tuple variables.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DnfLineage {
    terms: Vec<BTreeSet<TupleId>>,
    trivially_true: bool,
}

impl DnfLineage {
    /// The lineage's terms (absent when trivially true).
    pub fn terms(&self) -> &[BTreeSet<TupleId>] {
        &self.terms
    }

    /// True iff the lineage is the constant *true* (some disjunct had no
    /// atoms, or a term became empty).
    pub fn is_trivially_true(&self) -> bool {
        self.trivially_true
    }

    /// True iff the lineage is the constant *false* (no satisfying
    /// assignments at all).
    pub fn is_false(&self) -> bool {
        !self.trivially_true && self.terms.is_empty()
    }

    /// All variables mentioned.
    pub fn vars(&self) -> BTreeSet<TupleId> {
        self.terms.iter().flatten().copied().collect()
    }

    /// Number of terms containing the given tuple — the multiplicity `k`
    /// used by the oblivious lower bound (§6).
    pub fn occurrences(&self, id: TupleId) -> usize {
        self.terms.iter().filter(|t| t.contains(&id)).count()
    }

    /// Converts to a [`BoolExpr`] tree.
    pub fn to_expr(&self) -> BoolExpr {
        if self.trivially_true {
            return BoolExpr::TRUE;
        }
        BoolExpr::or_all(
            self.terms
                .iter()
                .map(|term| BoolExpr::and_all(term.iter().map(|&id| BoolExpr::var(id)))),
        )
    }
}

/// Computes the DNF lineage of a UCQ by joining against stored tuples only.
pub fn ucq_dnf_lineage(ucq: &Ucq, db: &TupleDb, index: &TupleIndex) -> DnfLineage {
    let mut terms: BTreeSet<BTreeSet<TupleId>> = BTreeSet::new();
    let mut trivially_true = false;
    for cq in ucq.disjuncts() {
        if cq.is_trivial() {
            trivially_true = true;
            continue;
        }
        join_cq(cq, db, index, &mut terms);
    }
    if trivially_true {
        return DnfLineage {
            terms: Vec::new(),
            trivially_true: true,
        };
    }
    DnfLineage {
        terms: terms.into_iter().collect(),
        trivially_true: false,
    }
}

/// Enumerates the *candidate answers* of a non-Boolean CQ: the distinct
/// assignments of `head` that can be extended to map every atom onto a
/// stored tuple. The probability of each answer is then the Boolean query
/// `Q[a⃗/head]` — the paper's "probability of each item in the answer".
pub fn cq_answer_bindings(cq: &Cq, head: &[Var], db: &TupleDb) -> BTreeSet<Vec<Const>> {
    let mut out = BTreeSet::new();
    // A dedicated backtracking search mirroring `join_cq`, but recording the
    // head bindings of each satisfying assignment instead of tuple ids.
    let mut atoms: Vec<&Atom> = cq.atoms().iter().collect();
    atoms.sort_by_key(|a| {
        db.relation(a.predicate.name())
            .map(|r| r.len())
            .unwrap_or(0)
    });
    if atoms
        .iter()
        .any(|a| db.relation(a.predicate.name()).is_none())
    {
        return out;
    }
    fn descend(
        atoms: &[&Atom],
        pos: usize,
        binding: &mut BTreeMap<Var, Const>,
        head: &[Var],
        db: &TupleDb,
        out: &mut BTreeSet<Vec<Const>>,
    ) {
        if pos == atoms.len() {
            if let Some(values) = head
                .iter()
                .map(|v| binding.get(v).copied())
                .collect::<Option<Vec<Const>>>()
            {
                out.insert(values);
            }
            return;
        }
        let atom = atoms[pos];
        let rel = db.relation(atom.predicate.name()).expect("checked");
        'tuples: for (tuple, _) in rel.iter() {
            let mut newly: Vec<Var> = Vec::new();
            for (i, term) in atom.args.iter().enumerate() {
                let val = tuple.get(i);
                match term {
                    Term::Const(c) => {
                        if *c != val {
                            for v in newly.drain(..) {
                                binding.remove(&v);
                            }
                            continue 'tuples;
                        }
                    }
                    Term::Var(v) => match binding.get(v) {
                        Some(&b) => {
                            if b != val {
                                for v in newly.drain(..) {
                                    binding.remove(&v);
                                }
                                continue 'tuples;
                            }
                        }
                        None => {
                            binding.insert(v.clone(), val);
                            newly.push(v.clone());
                        }
                    },
                }
            }
            descend(atoms, pos + 1, binding, head, db, out);
            for v in newly {
                binding.remove(&v);
            }
        }
    }
    let mut binding = BTreeMap::new();
    descend(&atoms, 0, &mut binding, head, db, &mut out);
    out
}

/// Backtracking join: enumerates all assignments of the CQ's variables that
/// map every atom onto a stored tuple, emitting the used tuple-id sets.
fn join_cq(cq: &Cq, db: &TupleDb, index: &TupleIndex, out: &mut BTreeSet<BTreeSet<TupleId>>) {
    // Order atoms so that atoms over smaller relations bind first.
    let mut atoms: Vec<&Atom> = cq.atoms().iter().collect();
    atoms.sort_by_key(|a| {
        db.relation(a.predicate.name())
            .map(|r| r.len())
            .unwrap_or(0)
    });
    // A relation missing entirely ⇒ no satisfying assignment.
    if atoms
        .iter()
        .any(|a| db.relation(a.predicate.name()).is_none())
    {
        return;
    }
    fn descend(
        atoms: &[&Atom],
        pos: usize,
        binding: &mut BTreeMap<Var, Const>,
        used: &mut Vec<TupleId>,
        db: &TupleDb,
        index: &TupleIndex,
        out: &mut BTreeSet<BTreeSet<TupleId>>,
    ) {
        if pos == atoms.len() {
            out.insert(used.iter().copied().collect());
            return;
        }
        let atom = atoms[pos];
        let rel = db
            .relation(atom.predicate.name())
            .expect("checked by caller");
        'tuples: for (tuple, _) in rel.iter() {
            // Try to unify the atom's terms with this tuple.
            let mut newly_bound: Vec<Var> = Vec::new();
            for (i, term) in atom.args.iter().enumerate() {
                let val = tuple.get(i);
                match term {
                    Term::Const(c) => {
                        if *c != val {
                            undo(binding, &newly_bound);
                            continue 'tuples;
                        }
                    }
                    Term::Var(v) => match binding.get(v) {
                        Some(&bound) => {
                            if bound != val {
                                undo(binding, &newly_bound);
                                continue 'tuples;
                            }
                        }
                        None => {
                            binding.insert(v.clone(), val);
                            newly_bound.push(v.clone());
                        }
                    },
                }
            }
            let id = index
                .id_of(atom.predicate.name(), tuple)
                .expect("stored tuple must be indexed");
            used.push(id);
            descend(atoms, pos + 1, binding, used, db, index, out);
            used.pop();
            undo(binding, &newly_bound);
        }
    }
    fn undo(binding: &mut BTreeMap<Var, Const>, vars: &[Var]) {
        for v in vars {
            binding.remove(v);
        }
    }
    let mut binding = BTreeMap::new();
    let mut used = Vec::new();
    descend(&atoms, 0, &mut binding, &mut used, db, index, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_logic::{parse_cq, parse_fo, parse_ucq};

    fn sample_db() -> TupleDb {
        let mut db = TupleDb::new();
        db.insert("R", [0], 0.5);
        db.insert("R", [1], 0.5);
        db.insert("S", [0, 1], 0.5);
        db.insert("S", [1, 1], 0.5);
        db
    }

    #[test]
    fn guarded_quantifiers_do_not_read_the_domain() {
        for (q, reads) in [
            ("exists x. exists y. R(x) & S(x,y) & T(y)", false),
            ("(exists x. R(x)) | (exists y. S(1,y))", false),
            ("exists x. R(x) | exists y. S(1,y)", true),
            ("R(1) & exists x. (R(x) & (S(x,2) | S(x,3)))", false),
            ("exists x. R(1)", true),
            ("exists x. (R(x) | S(1,2))", true),
            ("exists x. exists x. R(x)", true),
            ("exists x. R(x) & !S(x,x)", false),
            ("exists x. exists y. R(x) & S(x,y) & !T(y)", false),
            ("forall x. forall y. (R(x) | !S(x,y) | T(y))", false),
            ("forall x. forall y. (S(x,y) -> R(x))", false),
            ("forall x. forall y. (R(x) | S(x,y) | T(y))", true),
            ("forall x. exists y. S(x,y)", true),
            ("forall x. R(x)", true),
            ("!(exists x. R(x))", false),
        ] {
            let fo = parse_fo(q).unwrap();
            assert_eq!(reads_domain(&fo), reads, "{q}");
            if reads {
                continue;
            }
            // Growing DOM by constants no tuple holds leaves the lineage
            // — the expression, not just its meaning — unchanged.
            let mut db = sample_db();
            db.insert("T", [1], 0.5);
            let before = lineage(&fo, &db, &db.index());
            db.extend_domain([7, 8]);
            db.insert("A", [9], 0.5);
            let after = lineage(&fo, &db, &db.index());
            // `A` sorts first, so every id moved up by one.
            assert_eq!(before, renumber(&after, -1), "{q}");
        }
    }

    /// `expr` with every variable id moved by `by`.
    fn renumber(expr: &BoolExpr, by: i64) -> BoolExpr {
        match expr {
            BoolExpr::Const(b) => BoolExpr::Const(*b),
            BoolExpr::Var(v) => BoolExpr::var(TupleId((v.0 as i64 + by) as u32)),
            BoolExpr::Not(inner) => renumber(inner, by).negate(),
            BoolExpr::And(parts) => BoolExpr::And(parts.iter().map(|p| renumber(p, by)).collect()),
            BoolExpr::Or(parts) => BoolExpr::Or(parts.iter().map(|p| renumber(p, by)).collect()),
        }
    }

    #[test]
    fn existential_lineage_is_dnf_over_matches() {
        let db = sample_db();
        let idx = db.index();
        let q = parse_fo("exists x. exists y. R(x) & S(x,y)").unwrap();
        let lin = lineage(&q, &db, &idx);
        // Matches: (R(0),S(0,1)), (R(1),S(1,1)).
        let fast = ucq_dnf_lineage(&parse_ucq("R(x), S(x,y)").unwrap(), &db, &idx);
        assert_eq!(fast.terms().len(), 2);
        // Both constructions agree on all worlds.
        for w in pdb_data::worlds::enumerate(&idx) {
            assert_eq!(lin.eval_world(&w), fast.to_expr().eval_world(&w));
        }
    }

    #[test]
    fn universal_lineage_example_2_1_shape() {
        // Q = ∀x∀y (S(x,y) ⇒ R(x)) on a small instance: one world check.
        let db = sample_db();
        let idx = db.index();
        let q = parse_fo("forall x. forall y. (S(x,y) -> R(x))").unwrap();
        let lin = lineage(&q, &db, &idx);
        // World with S(0,1) but no R(0): violates Q.
        let mut w = pdb_data::World::empty(idx.len());
        w.set(idx.id_of("S", &Tuple::from([0, 1])).unwrap(), true);
        assert!(!lin.eval_world(&w));
        // Adding R(0) satisfies it.
        w.set(idx.id_of("R", &Tuple::from([0])).unwrap(), true);
        assert!(lin.eval_world(&w));
        // Empty world satisfies it vacuously.
        let empty = pdb_data::World::empty(idx.len());
        assert!(lin.eval_world(&empty));
    }

    #[test]
    fn missing_tuples_are_false() {
        let db = sample_db();
        let idx = db.index();
        // T does not exist at all.
        let q = parse_fo("exists x. T(x)").unwrap();
        assert_eq!(lineage(&q, &db, &idx), BoolExpr::FALSE);
        // Ground atom not stored.
        let q2 = parse_fo("S(0,0)").unwrap();
        assert_eq!(lineage(&q2, &db, &idx), BoolExpr::FALSE);
        // Stored ground atom is its variable.
        let q3 = parse_fo("S(0,1)").unwrap();
        let id = idx.id_of("S", &Tuple::from([0, 1])).unwrap();
        assert_eq!(lineage(&q3, &db, &idx), BoolExpr::var(id));
    }

    #[test]
    fn dnf_lineage_constants_in_query() {
        let db = sample_db();
        let idx = db.index();
        let u = parse_ucq("S(x, 1)").unwrap();
        let lin = ucq_dnf_lineage(&u, &db, &idx);
        assert_eq!(lin.terms().len(), 2); // S(0,1), S(1,1)
        let u2 = parse_ucq("S(x, 0)").unwrap();
        assert!(ucq_dnf_lineage(&u2, &db, &idx).is_false());
    }

    #[test]
    fn dnf_lineage_self_join_shares_variables() {
        let db = sample_db();
        let idx = db.index();
        // S(x,y), S(y,z): needs S-pairs chaining; (0,1)(1,1) and (1,1)(1,1).
        let u = parse_ucq("S(x,y), S(y,z)").unwrap();
        let lin = ucq_dnf_lineage(&u, &db, &idx);
        assert_eq!(lin.terms().len(), 2);
        // One term is the singleton {S(1,1)} (x=y=z=1).
        assert!(lin.terms().iter().any(|t| t.len() == 1));
    }

    #[test]
    fn occurrences_counts_terms() {
        let db = sample_db();
        let idx = db.index();
        let u = parse_ucq("R(x), S(x,y)").unwrap();
        let lin = ucq_dnf_lineage(&u, &db, &idx);
        let s11 = idx.id_of("S", &Tuple::from([1, 1])).unwrap();
        assert_eq!(lin.occurrences(s11), 1);
        let r0 = idx.id_of("R", &Tuple::from([0])).unwrap();
        assert_eq!(lin.occurrences(r0), 1);
    }

    #[test]
    fn trivial_ucq_lineage() {
        let db = sample_db();
        let idx = db.index();
        let u = Ucq::new(vec![parse_cq("R(x)").unwrap(), Cq::new(vec![])]);
        let lin = ucq_dnf_lineage(&u, &db, &idx);
        assert!(lin.is_trivially_true());
        assert_eq!(lin.to_expr(), BoolExpr::TRUE);
    }

    #[test]
    fn lineage_agrees_with_model_checking() {
        let db = sample_db();
        let idx = db.index();
        for q in [
            "exists x. exists y. R(x) & S(x,y)",
            "forall x. (R(x) | (forall y. !S(x,y)))",
            "exists x. R(x) & !S(x,x)",
            "forall x. exists y. S(x,y)",
        ] {
            let fo = parse_fo(q).unwrap();
            let lin = lineage(&fo, &db, &idx);
            for w in pdb_data::worlds::enumerate(&idx) {
                assert_eq!(
                    lin.eval_world(&w),
                    crate::eval::holds(&fo, &db, &idx, &w),
                    "query {q}"
                );
            }
        }
    }
}
