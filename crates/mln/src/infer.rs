//! Conditional-probability inference `p_D(Q | Γ)`.
//!
//! Two engines:
//! * [`conditional_brute`] — possible-world enumeration (the definition;
//!   exponential, used as ground truth),
//! * [`conditional_grounded`] — grounded inference: build the lineages of
//!   `Q ∧ Γ` and `Γ` and run the DPLL weighted model counter on each. This
//!   is the architecture of SlimShot \[37\] with the safe-plan fast path
//!   replaced by exact counting.
//!
//! Note the non-standard-probability subtlety: with auxiliary probabilities
//! `1/w > 1` (from `w < 1` factors) each individual count may leave `[0,1]`,
//! but the *ratio* is a standard probability — the appendix's observation.

use pdb_data::TupleDb;
use pdb_logic::Fo;
use pdb_num::KahanSum;
use pdb_wmc::DpllOptions;

/// `p_D(Q | Γ) = p_D(Q ∧ Γ) / p_D(Γ)` by world enumeration.
pub fn conditional_brute(q: &Fo, gamma: &Fo, db: &TupleDb) -> f64 {
    let index = db.index();
    let mut joint = KahanSum::new();
    let mut cond = KahanSum::new();
    for w in pdb_data::worlds::enumerate(&index) {
        if pdb_lineage::eval::holds(gamma, db, &index, &w) {
            let p = w.probability(&index);
            cond.add(p);
            if pdb_lineage::eval::holds(q, db, &index, &w) {
                joint.add(p);
            }
        }
    }
    joint.total() / cond.total()
}

/// `p_D(Q | Γ)` by grounded inference (lineage + DPLL) — polynomially many
/// variables, exponential only when the counting itself is hard.
pub fn conditional_grounded(q: &Fo, gamma: &Fo, db: &TupleDb) -> f64 {
    let index = db.index();
    let probs: Vec<f64> = index.iter().map(|(_, r)| r.prob).collect();
    let lin_gamma = pdb_lineage::lineage(gamma, db, &index);
    let lin_joint =
        pdb_lineage::BoolExpr::and_all([pdb_lineage::lineage(q, db, &index), lin_gamma.clone()]);
    let (p_joint, _) = pdb_wmc::probability_of_expr(&lin_joint, &probs, DpllOptions::default());
    let (p_gamma, _) = pdb_wmc::probability_of_expr(&lin_gamma, &probs, DpllOptions::default());
    p_joint / p_gamma
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Mln;
    use crate::translate::translate;
    use pdb_logic::parse_fo;
    use pdb_num::assert_close;

    #[test]
    fn brute_and_grounded_agree() {
        let mln = Mln::manager_example(2);
        let t = translate(&mln);
        for q in [
            "Manager(0,1)",
            "HighlyCompensated(0)",
            "exists m. exists e. Manager(m,e) & HighlyCompensated(m)",
        ] {
            let fo = parse_fo(q).unwrap();
            let b = conditional_brute(&fo, &t.gamma, &t.db);
            let g = conditional_grounded(&fo, &t.gamma, &t.db);
            assert_close(g, b, 1e-10);
        }
    }

    #[test]
    fn grounded_matches_mln_semantics_end_to_end() {
        let mln = Mln::manager_example(2);
        let t = translate(&mln);
        let q = parse_fo("exists m. HighlyCompensated(m)").unwrap();
        assert_close(
            conditional_grounded(&q, &t.gamma, &t.db),
            mln.probability(&q),
            1e-10,
        );
    }

    #[test]
    fn conditioning_on_true_is_unconditional() {
        let mut db = TupleDb::new();
        db.insert("R", [0], 0.3);
        let q = parse_fo("R(0)").unwrap();
        let top = Fo::True;
        assert_close(conditional_brute(&q, &top, &db), 0.3, 1e-12);
        assert_close(conditional_grounded(&q, &top, &db), 0.3, 1e-12);
    }

    #[test]
    fn nonstandard_probabilities_cancel_in_the_ratio() {
        let mut mln = Mln::new(vec![0, 1]);
        mln.add_constraint(0.5, parse_fo("R(x) -> S(x)").unwrap());
        let t = translate(&mln);
        let q = parse_fo("exists x. S(x)").unwrap();
        let b = conditional_brute(&q, &t.gamma, &t.db);
        let g = conditional_grounded(&q, &t.gamma, &t.db);
        assert_close(g, b, 1e-10);
        assert!((0.0..=1.0).contains(&g), "conditional must be standard");
        assert_close(g, mln.probability(&q), 1e-10);
    }
}
