//! Property-based invariants over randomly generated formulas, databases,
//! and queries.

use probdb::compile::{indicators, Obdd};
use probdb::data::{TupleDb, TupleId};
use probdb::lineage::BoolExpr;
use probdb::num::{approx_eq, Rational};
use probdb::wmc::{brute, probability_of_expr, DpllOptions};
use proptest::prelude::*;

/// A random Boolean expression over `n` variables.
fn arb_expr(nvars: u32, depth: u32) -> impl Strategy<Value = BoolExpr> {
    let leaf = prop_oneof![
        (0..nvars).prop_map(|v| BoolExpr::var(TupleId(v))),
        Just(BoolExpr::TRUE),
        Just(BoolExpr::FALSE),
    ];
    leaf.prop_recursive(depth, 32, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(BoolExpr::and_all),
            prop::collection::vec(inner.clone(), 1..4).prop_map(BoolExpr::or_all),
            inner.prop_map(BoolExpr::negate),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DPLL counter (through whichever CNF encoding applies) agrees
    /// with brute-force enumeration on arbitrary formulas.
    #[test]
    fn dpll_matches_brute_force(expr in arb_expr(6, 3), seed in 0u64..1000) {
        let mut probs = Vec::with_capacity(6);
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for _ in 0..6 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            probs.push((state >> 11) as f64 / (1u64 << 53) as f64);
        }
        let truth = brute::expr_probability(&expr, &probs);
        let (p, _) = probability_of_expr(&expr, &probs, DpllOptions::default());
        prop_assert!(approx_eq(p, truth, 1e-9), "dpll {p} vs brute {truth}");
    }

    /// OBDD compilation preserves semantics and probability under any
    /// variable order (here: identity and reverse).
    #[test]
    fn obdd_is_faithful(expr in arb_expr(5, 3)) {
        let ident: Vec<u32> = (0..5).collect();
        let rev: Vec<u32> = (0..5).rev().collect();
        let a = Obdd::compile(&expr, &ident).flatten();
        let b = Obdd::compile(&expr, &rev).flatten();
        for mask in 0u64..32 {
            let direct = f64::from(u8::from(expr.eval(&|t| mask >> t.0 & 1 == 1)));
            prop_assert_eq!(a.eval(&indicators(mask, 5)), direct);
            prop_assert_eq!(b.eval(&indicators(mask, 5)), direct);
        }
        let probs = [0.3; 5];
        prop_assert!(approx_eq(a.eval(&probs), b.eval(&probs), 1e-9));
    }

    /// NNF conversion preserves semantics.
    #[test]
    fn nnf_preserves_semantics(expr in arb_expr(5, 4)) {
        let nnf = expr.nnf();
        for mask in 0u32..32 {
            let assignment = |t: TupleId| mask >> t.0 & 1 == 1;
            prop_assert_eq!(expr.eval(&assignment), nnf.eval(&assignment));
        }
    }

    /// Rational arithmetic is a field (on small operands): associativity,
    /// commutativity, distributivity, inverses.
    #[test]
    fn rational_field_axioms(
        (an, ad) in (-50i64..50, 1i64..50),
        (bn, bd) in (-50i64..50, 1i64..50),
        (cn, cd) in (-50i64..50, 1i64..50),
    ) {
        let a = Rational::new(an as i128, ad as i128);
        let b = Rational::new(bn as i128, bd as i128);
        let c = Rational::new(cn as i128, cd as i128);
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + (-a), Rational::ZERO);
        if !b.is_zero() {
            prop_assert_eq!(b * b.recip(), Rational::ONE);
        }
    }

    /// World probabilities of a random TID sum to 1 (exactly, in rationals).
    #[test]
    fn world_probabilities_sum_to_one(probs in prop::collection::vec(0u32..=4, 1..8)) {
        // probabilities k/4 for k in 0..=4
        let mut db = TupleDb::new();
        for (i, &k) in probs.iter().enumerate() {
            db.insert("R", [i as u64], k as f64 / 4.0);
        }
        let idx = db.index();
        let mut total = Rational::ZERO;
        for w in probdb::data::worlds::enumerate(&idx) {
            let mut pw = Rational::ONE;
            for (id, _) in idx.iter() {
                let k = probs[id.index()] as i128;
                let p = Rational::new(k, 4);
                pw *= if w.contains(id) { p } else { p.complement() };
            }
            total += pw;
        }
        prop_assert_eq!(total, Rational::ONE);
    }

    /// The hierarchical test is invariant under variable renaming and atom
    /// order, and `safe_plan` agrees with it for sjf CQs.
    #[test]
    fn hierarchy_renaming_invariance(perm in 0usize..6) {
        use probdb::logic::parse_cq;
        let variants = [
            ("R(x), S(x,y)", "R(a), S(a,b)"),
            ("R(x), S(x,y), T(y)", "T(q), R(p), S(p,q)"),
            ("A(x), B(y)", "B(v), A(u)"),
        ];
        let (orig, renamed) = variants[perm % variants.len()];
        let a = parse_cq(orig).unwrap();
        let b = parse_cq(renamed).unwrap();
        prop_assert_eq!(a.is_hierarchical(), b.is_hierarchical());
        prop_assert_eq!(
            probdb::plans::safe_plan(&a).is_some(),
            probdb::plans::safe_plan(&b).is_some()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lineage evaluation equals direct FO model checking on sampled worlds
    /// for random databases.
    #[test]
    fn lineage_equals_model_checking(seed in 0u64..500) {
        use probdb::data::generators::{random_tid, RelationSpec};
        use probdb::logic::parse_fo;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let db = random_tid(
            3,
            &[RelationSpec::new("R", 1, 2), RelationSpec::new("S", 2, 3)],
            (0.2, 0.8),
            &mut rng,
        );
        let idx = db.index();
        let fo = parse_fo("forall x. (R(x) -> (exists y. S(x,y)))").unwrap();
        let lin = probdb::lineage::lineage(&fo, &db, &idx);
        for _ in 0..20 {
            let w = probdb::data::worlds::sample(&idx, &mut rng);
            prop_assert_eq!(
                lin.eval_world(&w),
                probdb::lineage::eval::holds(&fo, &db, &idx, &w)
            );
        }
    }

    /// The all-plans upper bound dominates the oblivious lower bound, and
    /// both bracket the Karp–Luby estimate, on random hard instances.
    #[test]
    fn bounds_bracket_estimates(seed in 0u64..200) {
        use probdb::data::generators::bipartite;
        use probdb::logic::parse_cq;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let db = bipartite(3, 0.7, (0.2, 0.8), &mut rng);
        let cq = parse_cq("R(x), S(x,y), T(y)").unwrap();
        let b = probdb::plans::bounds::bounds(&cq, &db);
        prop_assert!(b.lower <= b.upper + 1e-9);
        let idx = db.index();
        let lin = probdb::lineage::ucq_dnf_lineage(
            &probdb::logic::Ucq::single(cq),
            &db,
            &idx,
        );
        let probs: Vec<f64> = idx.iter().map(|(_, r)| r.prob).collect();
        let est = probdb::wmc::karp_luby::estimate(&lin, &probs, 20_000, &mut rng);
        prop_assert!(
            est.value >= b.lower - 0.08 && est.value <= b.upper + 0.08,
            "estimate {} outside [{}, {}]", est.value, b.lower, b.upper
        );
    }
}
