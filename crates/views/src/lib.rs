//! Incrementally maintained materialized probabilistic views.
//!
//! The serving layer built in `pdb-server` answers every query from
//! scratch. This crate turns the §7 compilation machinery into
//! **maintained state**: a registered query is compiled — per answer tuple
//! — into an arithmetic circuit over its lineage (DPLL trace →
//! decision-DNNF, Huang–Darwiche), lowered once to a flat program. The
//! update cost model follows:
//!
//! * **probability update** of an existing tuple: one kernel pass over the
//!   row's program, no recompilation — linear in the circuit, not a new
//!   WMC ([`IncrementalCircuit::set_prob`]);
//! * **insert / domain extension**: the compiled lineage itself is
//!   invalidated, so affected views go *stale* and are recompiled on
//!   [`ViewManager::refresh`] — but only views whose relations (or domain
//!   sensitivity) are actually touched, decided with the per-relation
//!   version vector of [`pdb_core::ProbDb`];
//! * **compilation too large**: the row falls back to the engine cascade
//!   (plan-based dissociation bounds / Karp–Luby) and refreshes by
//!   re-querying.
//!
//! See the module docs of [`view`] for the versioned event protocol that
//! keeps this sound under concurrent, possibly out-of-order delivery.

#![warn(missing_docs)]

pub mod circuit;
pub mod metrics;
pub mod persist;
pub mod view;

pub use circuit::IncrementalCircuit;
pub use persist::{CircuitState, RowState, ViewDefState, ViewState};
pub use view::{RefreshOutcome, View, ViewDef, ViewManager, ViewOptions, ViewRow};

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_core::{ProbDb, QueryOptions};
    use pdb_data::Tuple;
    use pdb_num::assert_close;

    fn fig1_like_db() -> ProbDb {
        let mut db = ProbDb::new();
        db.insert("R", [1], 0.5);
        db.insert("R", [2], 0.7);
        db.insert("S", [1, 1], 0.8);
        db.insert("S", [1, 2], 0.3);
        db.insert("S", [2, 1], 0.9);
        db.insert("T", [9], 0.4);
        db
    }

    fn fresh_probability(db: &ProbDb, query: &str) -> f64 {
        db.query(query).unwrap().probability
    }

    #[test]
    fn boolean_view_tracks_probability_updates_incrementally() {
        let mut db = fig1_like_db();
        let mut views = ViewManager::new();
        let q = "exists x. exists y. R(x) & S(x,y)";
        views
            .create("v", ViewDef::boolean(q).unwrap(), &db)
            .unwrap();
        let v = views.get("v").unwrap();
        assert_eq!(v.backend_summary(), "circuit");
        assert_close(
            v.boolean_answer().unwrap().probability,
            fresh_probability(&db, q),
            1e-12,
        );

        // Stream updates; the view must track without any refresh.
        for (rel, tuple, p) in [
            ("R", vec![1u64], 0.05),
            ("S", vec![1, 2], 0.95),
            ("R", vec![2], 0.33),
            ("S", vec![2, 1], 0.0),
        ] {
            let t = Tuple::new(tuple);
            let version = db.update_prob(rel, &t, p).unwrap();
            views.on_update_prob(rel, &t, p, version);
            let v = views.get("v").unwrap();
            assert!(!v.is_stale());
            assert_close(
                v.boolean_answer().unwrap().probability,
                fresh_probability(&db, q),
                1e-12,
            );
        }
        assert_eq!(views.incremental_applied(), 4);
        assert_eq!(views.recompiles(), 1, "never rebuilt");
    }

    #[test]
    fn updates_to_unmentioned_relations_are_ignored() {
        let mut db = fig1_like_db();
        let mut views = ViewManager::new();
        views
            .create(
                "v",
                ViewDef::boolean("exists x. exists y. R(x) & S(x,y)").unwrap(),
                &db,
            )
            .unwrap();
        let t = Tuple::from([9]);
        let version = db.update_prob("T", &t, 0.99).unwrap();
        views.on_update_prob("T", &t, 0.99, version);
        assert!(!views.get("v").unwrap().is_stale());
        assert_eq!(views.incremental_applied(), 0);
    }

    #[test]
    fn updates_to_tuples_no_row_reads_are_absorbed_in_place() {
        let mut db = fig1_like_db();
        // No `S` partner: no row's lineage reads `R(5)`.
        db.insert("R", [5], 0.4);
        let mut views = ViewManager::new();
        let def = ViewDef::answers(&["x".into()], "R(x), S(x,y)").unwrap();
        views.create("per_x", def, &db).unwrap();
        let bits = |views: &ViewManager| -> Vec<u64> {
            let rows = views.get("per_x").unwrap().rows();
            rows.iter().map(|r| r.probability.to_bits()).collect()
        };
        let before = bits(&views);
        let t = Tuple::from([5]);
        let version = db.update_prob("R", &t, 0.9).unwrap();
        assert_eq!(views.on_update_prob("R", &t, 0.9, version), 1);
        assert!(!views.get("per_x").unwrap().is_stale());
        assert_eq!(bits(&views), before);
        assert_eq!(views.recompiles(), 1, "never rebuilt");
    }

    #[test]
    fn inserts_stale_only_views_that_mention_the_relation() {
        let mut db = fig1_like_db();
        let mut views = ViewManager::new();
        views
            .create(
                "rs",
                ViewDef::boolean("exists x. exists y. R(x) & S(x,y)").unwrap(),
                &db,
            )
            .unwrap();
        views
            .create("t", ViewDef::boolean("exists x. T(x)").unwrap(), &db)
            .unwrap();

        db.insert("T", [10], 0.5);
        views.on_insert("T", db.relation_version("T"));
        assert!(
            !views.get("rs").unwrap().is_stale(),
            "rs does not mention T"
        );
        assert!(views.get("t").unwrap().is_stale());

        assert_eq!(
            views.refresh("rs", &db).unwrap(),
            RefreshOutcome::Fresh,
            "untouched view refreshes for free"
        );
        assert_eq!(views.refresh("t", &db).unwrap(), RefreshOutcome::Rebuilt);
        assert_close(
            views
                .get("t")
                .unwrap()
                .boolean_answer()
                .unwrap()
                .probability,
            fresh_probability(&db, "exists x. T(x)"),
            1e-12,
        );
    }

    #[test]
    fn take_changed_names_exactly_the_views_a_change_touched() {
        let mut db = fig1_like_db();
        let mut views = ViewManager::new();
        let q = "exists x. exists y. R(x) & S(x,y)";
        views
            .create("rs", ViewDef::boolean(q).unwrap(), &db)
            .unwrap();
        views
            .create("t", ViewDef::boolean("exists x. T(x)").unwrap(), &db)
            .unwrap();
        let changed =
            |views: &mut ViewManager| -> Vec<String> { views.take_changed().into_iter().collect() };
        assert_eq!(changed(&mut views), ["rs", "t"]);
        assert!(changed(&mut views).is_empty());

        let t = Tuple::from([9]);
        let version = db.update_prob("T", &t, 0.9).unwrap();
        views.on_update_prob("T", &t, 0.9, version);
        assert_eq!(changed(&mut views), ["t"]);
        views.on_update_prob("T", &t, 0.9, version);
        assert!(changed(&mut views).is_empty(), "a duplicate");

        db.insert("R", [3], 0.4);
        views.on_insert("R", db.relation_version("R"));
        assert_eq!(changed(&mut views), ["rs"]);
        assert_eq!(views.refresh("t", &db).unwrap(), RefreshOutcome::Fresh);
        assert!(changed(&mut views).is_empty());
        assert_eq!(views.refresh("rs", &db).unwrap(), RefreshOutcome::Rebuilt);
        assert_eq!(changed(&mut views), ["rs"]);
        assert!(views.drop_view("t"));
        assert_eq!(changed(&mut views), ["t"]);
    }

    #[test]
    fn domain_sensitive_views_go_stale_on_any_growth() {
        let mut db = ProbDb::new();
        db.insert("R", [1], 0.5);
        db.insert("S", [1, 1], 0.8);
        let mut views = ViewManager::new();
        // Example 2.1's shape: ∀ depends on the whole domain.
        let q = "forall x. forall y. (S(x,y) -> R(x))";
        views
            .create("guard", ViewDef::boolean(q).unwrap(), &db)
            .unwrap();
        assert_close(
            views
                .get("guard")
                .unwrap()
                .boolean_answer()
                .unwrap()
                .probability,
            fresh_probability(&db, q),
            1e-12,
        );
        // An insert into an *unmentioned* relation can still grow the
        // active domain, so the ∀ view must go stale.
        db.insert("Z", [7], 1.0);
        views.on_insert("Z", db.relation_version("Z"));
        assert!(views.get("guard").unwrap().is_stale());
        assert_eq!(
            views.refresh("guard", &db).unwrap(),
            RefreshOutcome::Rebuilt
        );
        assert_close(
            views
                .get("guard")
                .unwrap()
                .boolean_answer()
                .unwrap()
                .probability,
            fresh_probability(&db, q),
            1e-12,
        );
        // extend_domain likewise.
        db.extend_domain([42]);
        views.on_domain_extend();
        assert!(views.get("guard").unwrap().is_stale());
        views.refresh("guard", &db).unwrap();
        assert_close(
            views
                .get("guard")
                .unwrap()
                .boolean_answer()
                .unwrap()
                .probability,
            fresh_probability(&db, q),
            1e-12,
        );
    }

    #[test]
    fn answers_view_materializes_one_circuit_per_row() {
        let mut db = fig1_like_db();
        let mut views = ViewManager::new();
        views
            .create(
                "per_x",
                ViewDef::answers(&["x".into()], "R(x), S(x,y)").unwrap(),
                &db,
            )
            .unwrap();
        let v = views.get("per_x").unwrap();
        assert_eq!(v.rows().len(), 2);
        let (head, rows) = v.answer_rows().unwrap();
        assert_eq!(head, vec!["x".to_string()]);
        // Compare each row against the engine.
        let opts = QueryOptions::default();
        let expected = db
            .query_answers(
                &pdb_logic::parse_cq("R(x), S(x,y)").unwrap(),
                &[pdb_logic::Var::new("x")],
                &opts,
            )
            .unwrap();
        for row in &rows {
            let reference = expected
                .iter()
                .find(|e| e.values == row.values)
                .expect("row exists");
            assert_close(row.probability, reference.probability, 1e-12);
        }

        // An update flows into the right row only.
        let t = Tuple::from([2, 1]);
        let version = db.update_prob("S", &t, 0.1).unwrap();
        views.on_update_prob("S", &t, 0.1, version);
        let (_, rows) = views.get("per_x").unwrap().answer_rows().unwrap();
        let expected = db
            .query_answers(
                &pdb_logic::parse_cq("R(x), S(x,y)").unwrap(),
                &[pdb_logic::Var::new("x")],
                &opts,
            )
            .unwrap();
        for row in &rows {
            let reference = expected
                .iter()
                .find(|e| e.values == row.values)
                .expect("row exists");
            assert_close(row.probability, reference.probability, 1e-12);
        }
    }

    #[test]
    fn out_of_order_events_are_tolerated() {
        let mut db = fig1_like_db();
        let mut views = ViewManager::new();
        let q = "exists x. exists y. R(x) & S(x,y)";
        views
            .create("v", ViewDef::boolean(q).unwrap(), &db)
            .unwrap();

        let t1 = Tuple::from([1]);
        let t2 = Tuple::from([2]);
        let v1 = db.update_prob("R", &t1, 0.6).unwrap();
        let v2 = db.update_prob("R", &t2, 0.2).unwrap();

        // Deliver the second event first: a gap — the view goes stale and
        // must NOT apply either update out of order.
        views.on_update_prob("R", &t2, 0.2, v2);
        assert!(views.get("v").unwrap().is_stale());
        // The earlier event arrives late; it cannot "unstale" the view.
        views.on_update_prob("R", &t1, 0.6, v1);
        assert!(views.get("v").unwrap().is_stale());

        assert_eq!(views.refresh("v", &db).unwrap(), RefreshOutcome::Rebuilt);
        assert_close(
            views
                .get("v")
                .unwrap()
                .boolean_answer()
                .unwrap()
                .probability,
            fresh_probability(&db, q),
            1e-12,
        );
        // A duplicate of an already-reflected event is ignored.
        views.on_update_prob("R", &t1, 0.6, v1);
        assert!(!views.get("v").unwrap().is_stale());
    }

    #[test]
    fn missed_events_are_caught_by_the_version_safety_net() {
        let mut db = fig1_like_db();
        let mut views = ViewManager::new();
        let q = "exists x. exists y. R(x) & S(x,y)";
        views
            .create("v", ViewDef::boolean(q).unwrap(), &db)
            .unwrap();
        // Mutate WITHOUT delivering any event: refresh must still notice
        // via the version vector.
        db.update_prob("R", &Tuple::from([1]), 0.01).unwrap();
        assert!(!views.get("v").unwrap().is_stale(), "no event delivered");
        assert_eq!(views.refresh("v", &db).unwrap(), RefreshOutcome::Rebuilt);
        assert_close(
            views
                .get("v")
                .unwrap()
                .boolean_answer()
                .unwrap()
                .probability,
            fresh_probability(&db, q),
            1e-12,
        );
    }

    #[test]
    fn compile_budget_exhaustion_falls_back_to_the_cascade() {
        // An H₀-shaped (#P-hard) query over a bipartite clique with a
        // compile budget of 1 cannot compile; rows must fall back.
        let mut db = ProbDb::new();
        for i in 0..4u64 {
            db.insert("R", [i], 0.3);
            db.insert("T", [i], 0.4);
            for j in 0..4u64 {
                db.insert("S", [i, j], 0.5);
            }
        }
        let mut views = ViewManager::with_options(ViewOptions {
            compile_budget: 1,
            fallback: QueryOptions {
                samples: 20_000,
                ..QueryOptions::default()
            },
        });
        let q = "exists x. exists y. R(x) & S(x,y) & T(y)";
        views
            .create("hard", ViewDef::boolean(q).unwrap(), &db)
            .unwrap();
        let v = views.get("hard").unwrap();
        assert_eq!(v.backend_summary(), "fallback");
        let a = v.boolean_answer().unwrap();
        // The fallback went through the cascade; when it used the
        // approximate engine it carries dissociation bounds that must
        // bracket the estimate.
        if let Some((lo, hi)) = a.bounds {
            assert!(lo <= a.probability && a.probability <= hi);
        }
        // A probability update cannot be absorbed by a fallback row: the
        // view goes stale and refresh re-queries.
        let t = Tuple::from([0]);
        let version = db.update_prob("R", &t, 0.9).unwrap();
        views.on_update_prob("R", &t, 0.9, version);
        assert!(views.get("hard").unwrap().is_stale());
        assert_eq!(views.refresh("hard", &db).unwrap(), RefreshOutcome::Rebuilt);
    }

    #[test]
    fn create_and_drop_manage_the_registry() {
        let db = fig1_like_db();
        let mut views = ViewManager::new();
        views
            .create("v", ViewDef::boolean("exists x. R(x)").unwrap(), &db)
            .unwrap();
        assert!(views
            .create("v", ViewDef::boolean("exists x. T(x)").unwrap(), &db)
            .is_err());
        assert_eq!(views.len(), 1);
        assert!(views.drop_view("v"));
        assert!(!views.drop_view("v"));
        assert!(views.is_empty());
        assert!(views.refresh("v", &db).is_err());
    }

    #[test]
    fn export_import_round_trips_bit_identically() {
        let mut db = fig1_like_db();
        let mut views = ViewManager::new();
        views
            .create(
                "b",
                ViewDef::boolean("exists x. exists y. R(x) & S(x,y)").unwrap(),
                &db,
            )
            .unwrap();
        views
            .create(
                "a",
                ViewDef::answers(&["x".into()], "R(x), S(x,y)").unwrap(),
                &db,
            )
            .unwrap();
        // Exercise the incremental path before exporting, so the exported
        // circuits carry post-update leaf probabilities.
        let t = Tuple::from([1, 1]);
        let version = db.update_prob("S", &t, 0.35).unwrap();
        views.on_update_prob("S", &t, 0.35, version);

        let restored = ViewManager::import_states(views.export_states(), &db).unwrap();
        assert_eq!(restored.len(), views.len());
        assert_eq!(restored.recompiles(), 0, "restore must not recompile");
        for (orig, back) in views.iter().zip(restored.iter()) {
            assert_eq!(orig.name(), back.name());
            assert_eq!(orig.is_stale(), back.is_stale());
            assert_eq!(orig.rebuilds(), back.rebuilds());
            assert_eq!(orig.incremental_updates(), back.incremental_updates());
            assert_eq!(orig.rows().len(), back.rows().len());
            for (r1, r2) in orig.rows().iter().zip(back.rows()) {
                assert_eq!(r1.values, r2.values);
                assert_eq!(
                    r1.probability.to_bits(),
                    r2.probability.to_bits(),
                    "restored probabilities must be bit-identical"
                );
            }
        }

        // The restored manager keeps absorbing updates incrementally.
        let mut restored = restored;
        let version = db.update_prob("S", &t, 0.6).unwrap();
        let absorbed = restored.on_update_prob("S", &t, 0.6, version);
        assert!(absorbed >= 1, "restored circuits must absorb updates");
        assert_eq!(restored.recompiles(), 0);
        let expect = fresh_probability(&db, "exists x. exists y. R(x) & S(x,y)");
        let got = restored.get("b").unwrap().boolean_answer().unwrap();
        assert_close(got.probability, expect, 1e-12);
    }

    #[test]
    fn view_def_rejects_bad_input() {
        assert!(ViewDef::boolean("R(x)").is_err(), "free variable");
        assert!(ViewDef::boolean("R(x").is_err(), "parse error");
        assert!(
            ViewDef::answers(&["z".into()], "R(x), S(x,y)").is_err(),
            "head variable not in body"
        );
    }
}
