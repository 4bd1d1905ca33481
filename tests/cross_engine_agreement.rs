//! Cross-engine agreement: every inference path must compute the same
//! `p_D(Q)` — brute-force enumeration (the definition), lifted inference,
//! grounded DPLL, OBDD compilation, decision-DNNF compilation, and safe
//! plans — on randomized small databases.

use probdb::compile::{order, Obdd};
use probdb::data::{generators, TupleDb};
use probdb::lifted::LiftedEngine;
use probdb::lineage::{eval, lineage, ucq_dnf_lineage};
use probdb::logic::{parse_fo, parse_ucq};
use probdb::num::assert_close;
use probdb::wmc::{probability_of_expr, DpllOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_db(seed: u64) -> TupleDb {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::random_tid(
        3,
        &[
            generators::RelationSpec::new("R", 1, 2),
            generators::RelationSpec::new("S", 2, 4),
            generators::RelationSpec::new("T", 1, 2),
        ],
        (0.1, 0.9),
        &mut rng,
    )
}

fn probs_of(db: &TupleDb) -> Vec<f64> {
    db.index().iter().map(|(_, r)| r.prob).collect()
}

#[test]
fn all_engines_agree_on_liftable_queries() {
    let queries = [
        "R(x), S(x,y)",
        "[R(x)] | [T(u)]",
        "[R(x), S(x,y)] | [T(u), S(u,v)]",
        "R(x), S(x,y), T(u), S(u,v)",
    ];
    for seed in 0..4 {
        let db = random_db(seed);
        let idx = db.index();
        let probs = probs_of(&db);
        for q in queries {
            let ucq = parse_ucq(q).unwrap();
            let truth = eval::brute_force_probability(&ucq.to_fo(), &db);
            // Lifted.
            let lifted = LiftedEngine::new(&db)
                .probability_ucq(&ucq)
                .unwrap_or_else(|e| panic!("{q} liftable: {e}"));
            assert_close(lifted, truth, 1e-9);
            // Grounded DPLL over the lineage.
            let lin = ucq_dnf_lineage(&ucq, &db, &idx).to_expr();
            let (grounded, _) = probability_of_expr(&lin, &probs, DpllOptions::default());
            assert_close(grounded, truth, 1e-9);
            // OBDD compilation.
            let obdd = Obdd::compile(&lin, &order::identity_order(idx.len() as u32));
            assert_close(obdd.flatten().eval(&probs), truth, 1e-9);
        }
    }
}

#[test]
fn grounded_engines_agree_on_hard_queries() {
    for seed in 0..4 {
        let db = random_db(seed);
        let idx = db.index();
        let probs = probs_of(&db);
        let ucq = parse_ucq("R(x), S(x,y), T(y)").unwrap();
        let truth = eval::brute_force_probability(&ucq.to_fo(), &db);
        let lin = ucq_dnf_lineage(&ucq, &db, &idx).to_expr();
        let (grounded, _) = probability_of_expr(&lin, &probs, DpllOptions::default());
        assert_close(grounded, truth, 1e-9);
        let obdd = Obdd::compile(&lin, &order::hierarchical_order(&idx));
        assert_close(obdd.flatten().eval(&probs), truth, 1e-9);
        // Lifted must refuse (Theorem 4.3: non-hierarchical sjf CQ).
        assert!(LiftedEngine::new(&db).probability_ucq(&ucq).is_err());
    }
}

#[test]
fn fo_lineage_and_direct_grounding_agree() {
    // Universal and mixed-quantifier sentences through the generic lineage.
    let sentences = [
        "forall x. forall y. (S(x,y) -> R(x))",
        "forall x. (R(x) | T(x))",
        "forall x. exists y. S(x,y)",
        "exists x. R(x) & !T(x)",
    ];
    for seed in 0..3 {
        let db = random_db(seed);
        let idx = db.index();
        let probs = probs_of(&db);
        for s in sentences {
            let fo = parse_fo(s).unwrap();
            let truth = eval::brute_force_probability(&fo, &db);
            let lin = lineage(&fo, &db, &idx);
            let (p, _) = probability_of_expr(&lin, &probs, DpllOptions::default());
            assert_close(p, truth, 1e-9);
        }
    }
}

#[test]
fn engine_cascade_matches_brute_force() {
    for seed in 0..3 {
        let db = random_db(seed);
        let engine = probdb::ProbDb::from_tuple_db(db.clone());
        for q in [
            "exists x. exists y. R(x) & S(x,y)",
            "exists x. exists y. R(x) & S(x,y) & T(y)",
            "forall x. forall y. (S(x,y) -> R(x))",
        ] {
            let fo = parse_fo(q).unwrap();
            let truth = eval::brute_force_probability(&fo, &db);
            let answer = engine.query(q).unwrap();
            assert_close(answer.probability, truth, 1e-9);
        }
    }
}

#[test]
fn duality_bridge_holds_end_to_end() {
    // p_D(Q) = 1 − p_D̄(dual(Q)) on random instances for several sentences.
    for seed in 0..3 {
        let mut db = random_db(seed);
        db.extend_domain(0..3);
        for s in ["forall x. forall y. (R(x) | S(x,y))", "forall x. R(x)"] {
            let fo = parse_fo(s).unwrap();
            let lhs = eval::brute_force_probability(&fo, &db);
            let comp = db.complemented();
            let dual = fo.dual();
            // The complemented database can have up to 3 + 9 + 3 tuples: use
            // grounded inference rather than enumeration.
            let idx = comp.index();
            let lin = lineage(&dual, &comp, &idx);
            let probs: Vec<f64> = idx.iter().map(|(_, r)| r.prob).collect();
            let (p, _) = probability_of_expr(&lin, &probs, DpllOptions::default());
            assert_close(lhs, 1.0 - p, 1e-9);
        }
    }
}
