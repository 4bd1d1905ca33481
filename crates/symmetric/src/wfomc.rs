//! Symmetric weighted first-order model counting for FO² (Theorem 8.1).
//!
//! Input: a conjunction of clauses, each either `∀x∀y ψ(x,y)` or
//! `∀x∃y ψ(x,y)` with `ψ` quantifier-free over unary and binary predicates.
//! Existentials are removed by **Skolemization with negative weights** \[24\]:
//! `∀x∃y ψ` becomes `∀x∀y (¬ψ ∨ A(x))` for a fresh unary `A` with weight
//! pair `(1, −1)` — worlds where the existential fails get matching `+1/−1`
//! contributions and cancel.
//!
//! The resulting universal sentence is counted by the classic
//! 1-type / 2-table *cell decomposition*:
//!
//! * a **cell** is a complete description of one element `a`: which unary
//!   atoms `U(a)` and reflexive binary atoms `B(a,a)` hold; only cells
//!   satisfying `ψ(a,a)` survive;
//! * for an ordered pair of distinct elements with cells `(i, j)`, the
//!   **2-table weight** `r_ij` sums, over all assignments of the cross atoms
//!   `B(a,b), B(b,a)`, the weights of those satisfying `ψ(a,b) ∧ ψ(b,a)`;
//! * summing over how many of the `n` elements take each cell:
//!
//!   `WFOMC = Σ_{n₁+…+n_c = n} (n; n⃗) ∏ᵢ wᵢ^{nᵢ} ∏_{i<j} r_ij^{nᵢnⱼ}
//!            ∏ᵢ r_ii^{C(nᵢ,2)}`
//!
//! — `O(n^{c−1})` terms: polynomial in the domain size for every fixed
//! sentence, versus `2^{Θ(n²)}` possible worlds. With probability weight
//! pairs `(p, 1−p)` the count *is* `p_D(Q)`.

use pdb_data::SymmetricDb;
use pdb_logic::{Fo, Var};
use pdb_num::comb::{ln_multinomial, Compositions};
use pdb_num::LogNum;
use std::collections::BTreeMap;

/// One quantified clause of an FO² query.
#[derive(Clone, Debug)]
pub enum Fo2Clause {
    /// `∀x∀y ψ(x,y)`.
    ForallForall(Fo),
    /// `∀x∃y ψ(x,y)` (Skolemized internally).
    ForallExists(Fo),
}

impl Fo2Clause {
    fn matrix(&self) -> &Fo {
        match self {
            Fo2Clause::ForallForall(m) | Fo2Clause::ForallExists(m) => m,
        }
    }
}

/// A conjunction of FO² clauses over variables named `x` and `y`.
#[derive(Clone, Debug)]
pub struct Fo2Query {
    /// The clauses (conjoined).
    pub clauses: Vec<Fo2Clause>,
}

impl Fo2Query {
    /// A single `∀x∀y ψ` query.
    pub fn forall_forall(matrix: Fo) -> Fo2Query {
        Fo2Query {
            clauses: vec![Fo2Clause::ForallForall(matrix)],
        }
    }

    /// A single `∀x∃y ψ` query.
    pub fn forall_exists(matrix: Fo) -> Fo2Query {
        Fo2Query {
            clauses: vec![Fo2Clause::ForallExists(matrix)],
        }
    }
}

#[derive(Clone, Debug)]
struct Vocab {
    unary: Vec<String>,
    binary: Vec<String>,
    /// weight pairs (w_true, w_false) per predicate name
    weights: BTreeMap<String, (f64, f64)>,
}

impl Vocab {
    fn cell_bits(&self) -> usize {
        self.unary.len() + self.binary.len()
    }
}

/// `p_D(Q)` for an FO² query over a symmetric database, by the cell
/// algorithm. Every predicate mentioned must be declared in `db` with arity
/// ≤ 2; matrices must be quantifier-free with free variables ⊆ {x, y}.
pub fn wfomc_probability(query: &Fo2Query, db: &SymmetricDb) -> f64 {
    wfomc(query, db).to_f64()
}

/// Log-space variant of [`wfomc_probability`] for large `n`.
pub fn wfomc(query: &Fo2Query, db: &SymmetricDb) -> LogNum {
    let x = Var::new("x");
    let y = Var::new("y");
    // --- validate and collect the vocabulary -----------------------------
    let mut weights: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut unary: Vec<String> = Vec::new();
    let mut binary: Vec<String> = Vec::new();
    for clause in &query.clauses {
        let m = clause.matrix();
        for v in m.free_vars() {
            assert!(
                v == x || v == y,
                "FO² matrices must use variables named x and y (found {v})"
            );
        }
        for pred in m.predicates() {
            let (arity, p) = db.relation(pred.name()).unwrap_or_else(|| {
                panic!("predicate {} not declared in the symmetric database", pred)
            });
            assert_eq!(arity, pred.arity(), "arity mismatch for {pred}");
            match arity {
                1 => {
                    if !unary.contains(&pred.name().to_string()) {
                        unary.push(pred.name().to_string());
                    }
                }
                2 => {
                    if !binary.contains(&pred.name().to_string()) {
                        binary.push(pred.name().to_string());
                    }
                }
                other => panic!("FO² supports arity ≤ 2, got {pred} with arity {other}"),
            }
            weights.insert(pred.name().to_string(), (p, 1.0 - p));
        }
    }
    unary.sort();
    binary.sort();
    // --- Skolemize ∀∃ clauses --------------------------------------------
    let mut matrices: Vec<Fo> = Vec::new();
    for (i, clause) in query.clauses.iter().enumerate() {
        match clause {
            Fo2Clause::ForallForall(m) => matrices.push(m.clone()),
            Fo2Clause::ForallExists(m) => {
                let name = format!("Sk{i}");
                let atom = Fo::Atom(pdb_logic::Atom::new(
                    pdb_logic::Predicate::new(&name, 1),
                    vec![pdb_logic::Term::Var(x.clone())],
                ));
                // ∀x∀y (¬ψ ∨ A(x)) with w(A) = 1, w(¬A) = −1.
                matrices.push(m.clone().not().or(atom));
                unary.push(name.clone());
                weights.insert(name, (1.0, -1.0));
            }
        }
    }
    let vocab = Vocab {
        unary,
        binary,
        weights,
    };
    assert!(
        vocab.cell_bits() <= 6,
        "cell decomposition over {} atoms is too large (max 6 bits)",
        vocab.cell_bits()
    );
    let psi = Fo::And(matrices);
    let n = db.domain_size();
    // --- cells ------------------------------------------------------------
    // A cell is a bitmask: bits [0, |unary|) are U(a); the rest are B(a,a).
    let all_cells: Vec<u64> = (0..(1u64 << vocab.cell_bits()))
        .filter(|&cell| eval_matrix(&psi, &vocab, cell, cell, 0, true))
        .collect();
    if all_cells.is_empty() {
        return if n == 0 { LogNum::ONE } else { LogNum::ZERO };
    }
    let cell_weight = |cell: u64| -> LogNum {
        let mut w = LogNum::ONE;
        for (i, u) in vocab.unary.iter().enumerate() {
            let (wt, wf) = vocab.weights[u];
            w *= LogNum::from_f64(if cell >> i & 1 == 1 { wt } else { wf });
        }
        for (j, b) in vocab.binary.iter().enumerate() {
            let (wt, wf) = vocab.weights[b];
            let bit = cell >> (vocab.unary.len() + j) & 1 == 1;
            w *= LogNum::from_f64(if bit { wt } else { wf });
        }
        w
    };
    let w: Vec<LogNum> = all_cells.iter().map(|&c| cell_weight(c)).collect();
    // --- 2-table weights r_ij ----------------------------------------------
    let c = all_cells.len();
    let mb = vocab.binary.len();
    let mut r = vec![vec![LogNum::ZERO; c]; c];
    for i in 0..c {
        for j in i..c {
            let mut acc = LogNum::ZERO;
            // Cross mask: bit 2k = B_k(a,b), bit 2k+1 = B_k(b,a).
            for cross in 0..(1u64 << (2 * mb)) {
                let fwd = eval_matrix(&psi, &vocab, all_cells[i], all_cells[j], cross, false);
                let bwd = eval_matrix(
                    &psi,
                    &vocab,
                    all_cells[j],
                    all_cells[i],
                    swap_cross(cross, mb),
                    false,
                );
                if fwd && bwd {
                    let mut wt = LogNum::ONE;
                    for (k, b) in vocab.binary.iter().enumerate() {
                        let (w_true, w_false) = vocab.weights[b];
                        for bit in [cross >> (2 * k) & 1, cross >> (2 * k + 1) & 1] {
                            wt *= LogNum::from_f64(if bit == 1 { w_true } else { w_false });
                        }
                    }
                    acc += wt;
                }
            }
            r[i][j] = acc;
            r[j][i] = acc;
        }
    }
    // --- sum over cell-count compositions ---------------------------------
    let mut total = LogNum::ZERO;
    for counts in Compositions::new(n, c) {
        let mut term = LogNum::from_ln(ln_multinomial(n, &counts));
        for i in 0..c {
            if counts[i] == 0 {
                continue;
            }
            term *= w[i].powi(counts[i]);
            term *= r[i][i].powi(counts[i] * (counts[i] - 1) / 2);
            for (j, _) in (0..c).enumerate().skip(i + 1) {
                if counts[j] > 0 {
                    term *= r[i][j].powi(counts[i] * counts[j]);
                }
            }
        }
        total += term;
    }
    total
}

/// Swaps the `(a,b)` / `(b,a)` roles in a cross mask.
fn swap_cross(cross: u64, binary_count: usize) -> u64 {
    let mut out = 0u64;
    for k in 0..binary_count {
        let ab = cross >> (2 * k) & 1;
        let ba = cross >> (2 * k + 1) & 1;
        out |= ba << (2 * k);
        out |= ab << (2 * k + 1);
    }
    out
}

/// Evaluates a quantifier-free matrix with `x` described by `cell_x`, `y` by
/// `cell_y`, and cross atoms by `cross`. With `diagonal = true`, `y` is the
/// same element as `x` (cross atoms resolve to reflexive bits of `cell_x`).
fn eval_matrix(
    m: &Fo,
    vocab: &Vocab,
    cell_x: u64,
    cell_y: u64,
    cross: u64,
    diagonal: bool,
) -> bool {
    match m {
        Fo::True => true,
        Fo::False => false,
        Fo::Not(inner) => !eval_matrix(inner, vocab, cell_x, cell_y, cross, diagonal),
        Fo::And(parts) => parts
            .iter()
            .all(|p| eval_matrix(p, vocab, cell_x, cell_y, cross, diagonal)),
        Fo::Or(parts) => parts
            .iter()
            .any(|p| eval_matrix(p, vocab, cell_x, cell_y, cross, diagonal)),
        Fo::Exists(..) | Fo::Forall(..) => {
            panic!("FO² matrices must be quantifier-free")
        }
        Fo::Atom(a) => {
            let is_x =
                |t: &pdb_logic::Term| matches!(t, pdb_logic::Term::Var(v) if v.name() == "x");
            let is_y =
                |t: &pdb_logic::Term| matches!(t, pdb_logic::Term::Var(v) if v.name() == "y");
            let name = a.predicate.name();
            match a.args.len() {
                1 => {
                    let i = vocab
                        .unary
                        .iter()
                        .position(|u| u == name)
                        .expect("vocabulary collected upfront");
                    let cell = if is_x(&a.args[0]) {
                        cell_x
                    } else if is_y(&a.args[0]) {
                        if diagonal {
                            cell_x
                        } else {
                            cell_y
                        }
                    } else {
                        panic!("constants are not supported in FO² matrices")
                    };
                    cell >> i & 1 == 1
                }
                2 => {
                    let k = vocab
                        .binary
                        .iter()
                        .position(|b| b == name)
                        .expect("vocabulary collected upfront");
                    let refl_bit = |cell: u64| cell >> (vocab.unary.len() + k) & 1 == 1;
                    let (a0x, a1x) = (is_x(&a.args[0]), is_x(&a.args[1]));
                    let (a0y, a1y) = (is_y(&a.args[0]), is_y(&a.args[1]));
                    if diagonal {
                        // Everything resolves to B(x,x).
                        assert!(
                            (a0x || a0y) && (a1x || a1y),
                            "constants are not supported in FO² matrices"
                        );
                        return refl_bit(cell_x);
                    }
                    match (a0x, a1x, a0y, a1y) {
                        (true, true, _, _) => refl_bit(cell_x),
                        (_, _, true, true) => refl_bit(cell_y),
                        (true, _, _, true) => cross >> (2 * k) & 1 == 1, // B(x,y)
                        (_, true, true, _) => cross >> (2 * k + 1) & 1 == 1, // B(y,x)
                        _ => panic!("constants are not supported in FO² matrices"),
                    }
                }
                other => panic!("arity {other} atom in FO² matrix"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::h0::h0_probability;
    use pdb_logic::parse_fo;
    use pdb_num::assert_close;

    fn brute(query_fo: &str, db: &SymmetricDb) -> f64 {
        let fo = parse_fo(query_fo).unwrap();
        let mat = db.materialize();
        pdb_lineage::eval::brute_force_probability(&fo, &mat)
    }

    #[test]
    fn h0_matches_closed_form_and_brute_force() {
        let matrix = parse_fo("R(x) | S(x,y) | T(y)").unwrap();
        for n in 1..=2u64 {
            for &(pr, ps, pt) in &[(0.5, 0.5, 0.5), (0.3, 0.8, 0.6)] {
                let mut db = SymmetricDb::new(n);
                db.set_relation("R", 1, pr)
                    .set_relation("S", 2, ps)
                    .set_relation("T", 1, pt);
                let q = Fo2Query::forall_forall(matrix.clone());
                let cell = wfomc_probability(&q, &db);
                assert_close(cell, h0_probability(n, pr, ps, pt), 1e-10);
                assert_close(
                    cell,
                    brute("forall x. forall y. (R(x) | S(x,y) | T(y))", &db),
                    1e-9,
                );
            }
        }
        // Large n against the closed form only.
        let mut db = SymmetricDb::new(12);
        db.set_relation("R", 1, 0.4)
            .set_relation("S", 2, 0.7)
            .set_relation("T", 1, 0.2);
        let q = Fo2Query::forall_forall(matrix);
        assert_close(
            wfomc_probability(&q, &db),
            h0_probability(12, 0.4, 0.7, 0.2),
            1e-9,
        );
    }

    #[test]
    fn unary_only_sentence() {
        // ∀x R(x): p^n.
        let mut db = SymmetricDb::new(5);
        db.set_relation("R", 1, 0.7);
        let q = Fo2Query::forall_forall(parse_fo("R(x)").unwrap());
        assert_close(wfomc_probability(&q, &db), 0.7f64.powi(5), 1e-10);
    }

    #[test]
    fn forall_exists_via_skolemization() {
        // ∀x∃y S(x,y): rows independent ⇒ (1 − (1−p)^n)^n.
        for n in 1..=3u64 {
            for &p in &[0.3, 0.5, 0.8] {
                let mut db = SymmetricDb::new(n);
                db.set_relation("S", 2, p);
                let q = Fo2Query::forall_exists(parse_fo("S(x,y)").unwrap());
                let expected = (1.0 - (1.0 - p).powi(n as i32)).powi(n as i32);
                assert_close(wfomc_probability(&q, &db), expected, 1e-9);
                assert_close(
                    wfomc_probability(&q, &db),
                    brute("forall x. exists y. S(x,y)", &db),
                    1e-9,
                );
            }
        }
    }

    #[test]
    fn smokers_drinkers_sentence() {
        // ∀x∀y (S(x) ∧ F(x,y) → S(y)) — the MLN classic, as a hard sentence.
        for n in 1..=2u64 {
            let mut db = SymmetricDb::new(n);
            db.set_relation("S", 1, 0.4).set_relation("F", 2, 0.6);
            let q = Fo2Query::forall_forall(parse_fo("S(x) & F(x,y) -> S(y)").unwrap());
            assert_close(
                wfomc_probability(&q, &db),
                brute("forall x. forall y. ((S(x) & F(x,y)) -> S(y))", &db),
                1e-9,
            );
        }
    }

    #[test]
    fn conjunction_of_clauses() {
        // ∀x∀y (R(x) ∨ S(x,y)) ∧ ∀x∃y S(x,y).
        for n in 1..=2u64 {
            let mut db = SymmetricDb::new(n);
            db.set_relation("R", 1, 0.5).set_relation("S", 2, 0.4);
            let q = Fo2Query {
                clauses: vec![
                    Fo2Clause::ForallForall(parse_fo("R(x) | S(x,y)").unwrap()),
                    Fo2Clause::ForallExists(parse_fo("S(x,y)").unwrap()),
                ],
            };
            let expected = brute(
                "(forall x. forall y. (R(x) | S(x,y))) & (forall x. exists y. S(x,y))",
                &db,
            );
            assert_close(wfomc_probability(&q, &db), expected, 1e-9);
        }
    }

    #[test]
    fn asymmetric_binary_matrix() {
        // ∀x∀y (S(x,y) -> S(y,x)): symmetry constraint on S.
        for n in 1..=2u64 {
            let mut db = SymmetricDb::new(n);
            db.set_relation("S", 2, 0.5);
            let q = Fo2Query::forall_forall(parse_fo("S(x,y) -> S(y,x)").unwrap());
            assert_close(
                wfomc_probability(&q, &db),
                brute("forall x. forall y. (S(x,y) -> S(y,x))", &db),
                1e-9,
            );
        }
    }

    #[test]
    fn reflexive_atoms_in_matrix() {
        // ∀x∀y (S(x,x) | S(x,y)) exercises reflexive-bit resolution.
        let mut db = SymmetricDb::new(2);
        db.set_relation("S", 2, 0.5);
        let q = Fo2Query::forall_forall(parse_fo("S(x,x) | S(x,y)").unwrap());
        assert_close(
            wfomc_probability(&q, &db),
            brute("forall x. forall y. (S(x,x) | S(x,y))", &db),
            1e-9,
        );
    }

    #[test]
    fn unsatisfiable_matrix_counts_zero() {
        let mut db = SymmetricDb::new(3);
        db.set_relation("R", 1, 0.5);
        let q = Fo2Query::forall_forall(parse_fo("R(x) & !R(x)").unwrap());
        assert_close(wfomc_probability(&q, &db), 0.0, 1e-12);
    }

    #[test]
    fn domain_zero_is_vacuous() {
        let mut db = SymmetricDb::new(0);
        db.set_relation("R", 1, 0.5);
        let q = Fo2Query::forall_forall(parse_fo("R(x)").unwrap());
        assert_close(wfomc_probability(&q, &db), 1.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "arity ≤ 2")]
    fn ternary_predicates_rejected() {
        let mut db = SymmetricDb::new(2);
        db.set_relation("U", 3, 0.5);
        let q = Fo2Query::forall_forall(parse_fo("U(x,y,x)").unwrap());
        let _ = wfomc_probability(&q, &db);
    }

    #[test]
    #[should_panic(expected = "variables named x and y")]
    fn wrong_variable_names_rejected() {
        let mut db = SymmetricDb::new(2);
        db.set_relation("R", 1, 0.5);
        let q = Fo2Query::forall_forall(parse_fo("R(z)").unwrap());
        let _ = wfomc_probability(&q, &db);
    }

    #[test]
    fn polynomial_scaling_smoke() {
        // n = 24 with 3 vocabulary bits (7 cells): ~0.6M compositions —
        // quick even unoptimized, whereas 2^{n²} worlds is astronomically
        // out of reach. (Benches sweep further.)
        let mut db = SymmetricDb::new(24);
        db.set_relation("R", 1, 0.4)
            .set_relation("S", 2, 0.9)
            .set_relation("T", 1, 0.2);
        let q = Fo2Query::forall_forall(parse_fo("R(x) | S(x,y) | T(y)").unwrap());
        let p = wfomc_probability(&q, &db);
        assert_close(p, h0_probability(24, 0.4, 0.9, 0.2), 1e-8);
    }
}
