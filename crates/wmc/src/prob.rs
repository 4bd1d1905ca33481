//! Front-end: exact probability of an arbitrary lineage formula.
//!
//! Dispatches to the cheapest sound encoding:
//! 1. monotone DNF → count the negation (pure CNF), return `1 − p`;
//! 2. already CNF-shaped → count directly;
//! 3. anything else → Tseitin with neutral auxiliaries (`p = 1/2`, result
//!    corrected by `2^aux` thanks to the unique-extension property).

use crate::dpll::{run_parallel, DpllOptions, DpllStats, Trace};
use pdb_data::TupleDb;
use pdb_lineage::{BoolExpr, Cnf};
use pdb_logic::Fo;
use std::borrow::Cow;

/// The outcome of [`count_expr`].
#[derive(Clone, Debug)]
pub struct ExprCount {
    /// `p(expr)` — of the expression itself, whichever encoding was
    /// counted. NaN when the run was aborted.
    pub probability: f64,
    /// Run statistics.
    pub stats: DpllStats,
    /// True when the decision budget or the deadline stopped the run.
    pub aborted: bool,
    /// The trace, when `options.record_trace` was set and the run completed.
    pub trace: Option<ExprTrace>,
}

/// A recorded trace plus what it takes to read it as a circuit for the
/// counted *expression*: `p(expr) = 1 − p(trace)` when `negated`,
/// `scale · p(trace)` otherwise, over `leaf_probs`.
#[derive(Clone, Debug)]
pub struct ExprTrace {
    /// The DPLL trace of the encoding that was counted.
    pub trace: Trace,
    /// The trace computes `¬expr` (a monotone DNF is counted by negation).
    pub negated: bool,
    /// `2^aux` for a Tseitin encoding, `1.0` otherwise.
    pub scale: f64,
    /// One probability per trace variable (Tseitin auxiliaries weigh 1/2).
    pub leaf_probs: Vec<f64>,
}

/// Counts `expr` exactly where `probs[i] = p(Xᵢ)`: picks the encoding (see
/// the module docs), runs [`run_parallel`] on `pool` under `options` — its
/// decision budget, deadline and `record_trace` — and maps the count back
/// to the probability of the expression. The one place the workspace
/// chooses a CNF encoding for the counter.
pub fn count_expr(
    expr: &BoolExpr,
    probs: &[f64],
    options: DpllOptions,
    pool: &pdb_par::Pool,
) -> ExprCount {
    let n = probs.len() as u32;
    // A constant is a (degenerate) monotone DNF: no decision is taken.
    let negated = expr.is_monotone_dnf();
    let cnf = if negated {
        Cnf::from_negated_dnf(expr, n)
    } else {
        Cnf::from_expr_direct(expr, n).unwrap_or_else(|| Cnf::tseitin(expr, n))
    };
    // Neutral auxiliaries: each original assignment extends to exactly one
    // model, so weighing them 1/2 and scaling by 2^aux preserves the count.
    // Without auxiliaries the scale is exactly 1.0 and changes no bit.
    let scale = 2f64.powi(cnf.aux_vars() as i32);
    let mut leaf_probs = Cow::Borrowed(probs);
    if cnf.aux_vars() > 0 {
        leaf_probs.to_mut().resize(cnf.num_vars as usize, 0.5);
    }
    let run = run_parallel(&cnf, &leaf_probs, options, pool);
    ExprCount {
        probability: if negated {
            1.0 - run.probability
        } else {
            run.probability * scale
        },
        stats: run.stats,
        aborted: run.aborted,
        trace: run.trace.map(|trace| ExprTrace {
            trace,
            negated,
            scale,
            leaf_probs: leaf_probs.into_owned(),
        }),
    }
}

/// Exact probability of `expr` where `probs[i] = p(Xᵢ)`, via the
/// sequential DPLL counter. Returns the probability and the run statistics.
/// Panics if `options` carries a budget and it aborts the run.
pub fn probability_of_expr(
    expr: &BoolExpr,
    probs: &[f64],
    options: DpllOptions,
) -> (f64, DpllStats) {
    let count = count_expr(expr, probs, options, &pdb_par::Pool::new(1));
    assert!(!count.aborted, "exact counting aborted by its budget");
    (count.probability, count.stats)
}

/// Grounded inference end-to-end: builds the lineage of `fo` over `db` and
/// counts it. This is the `PQE` path the paper calls *grounded* / intensional
/// (§7), correct for **every** FO sentence but potentially exponential.
pub fn probability_of_query(fo: &Fo, db: &TupleDb) -> f64 {
    let index = db.index();
    let lineage = pdb_lineage::lineage(fo, db, &index);
    let probs: Vec<f64> = index.iter().map(|(_, r)| r.prob).collect();
    probability_of_expr(&lineage, &probs, DpllOptions::default()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use pdb_data::{generators, TupleId};
    use pdb_logic::parse_fo;
    use pdb_num::assert_close;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn v(i: u32) -> BoolExpr {
        BoolExpr::var(TupleId(i))
    }

    /// One fixture per encoding, with the bits `probability_of_expr`
    /// returned for it before `count_expr` existed.
    fn encoding_fixtures() -> [(BoolExpr, Vec<f64>, u64); 3] {
        let dnf = BoolExpr::or_all([BoolExpr::and_all([v(0), v(1)]), v(2)]);
        let cnf = BoolExpr::and_all([BoolExpr::or_all([v(0), v(1)]), v(2).negate()]);
        // (x0 | (x1 & x2)) & (!x0 | x3) — neither DNF nor CNF: Tseitin.
        let mixed = BoolExpr::and_all([
            BoolExpr::or_all([v(0), BoolExpr::and_all([v(1), v(2)])]),
            BoolExpr::or_all([v(0).negate(), v(3)]),
        ]);
        [
            (dnf, vec![0.3, 0.6, 0.2], 0x3fd604189374bc6a),
            (cnf, vec![0.3, 0.6, 0.2], 0x3fe26e978d4fdf3b),
            (mixed, vec![0.3, 0.6, 0.2, 0.8], 0x3fd4bc6a7ef9db23),
        ]
    }

    #[test]
    fn every_encoding_counts_the_expression_itself() {
        for (f, probs, bits) in encoding_fixtures() {
            let (p, _) = probability_of_expr(&f, &probs, DpllOptions::default());
            assert_close(p, brute::expr_probability(&f, &probs), 1e-10);
            assert_eq!(p.to_bits(), bits, "{f:?}");
        }
    }

    #[test]
    fn count_expr_agrees_bitwise_with_and_without_a_trace_on_any_pool() {
        for (f, probs, bits) in encoding_fixtures() {
            for threads in [1, 4] {
                let pool = pdb_par::Pool::new(threads);
                let plain = count_expr(&f, &probs, DpllOptions::default(), &pool);
                assert!(!plain.aborted && plain.trace.is_none());
                assert_eq!(plain.probability.to_bits(), bits, "{f:?} threads={threads}");

                let traced = DpllOptions {
                    record_trace: true,
                    ..Default::default()
                };
                let traced = count_expr(&f, &probs, traced, &pool);
                assert_eq!(
                    traced.probability.to_bits(),
                    bits,
                    "{f:?} threads={threads}"
                );
                // The trace, read the way it says to be read, is a circuit
                // for the expression over the original variables.
                let t = traced.trace.expect("trace requested");
                assert_eq!(t.negated, f.is_monotone_dnf());
                assert_eq!(
                    t.scale,
                    2f64.powi((t.leaf_probs.len() - probs.len()) as i32)
                );
                assert_eq!(t.leaf_probs[..probs.len()], probs[..]);
                for mask in 0u32..1 << probs.len() {
                    let expected = f.eval(&|x| mask >> x.0 & 1 == 1);
                    // Tseitin auxiliaries are functions of the originals:
                    // the expression holds iff some extension satisfies it.
                    let aux = t.leaf_probs.len() - probs.len();
                    let holds = (0u32..1 << aux).any(|ext| {
                        let bit = |var: u32| (mask | ext << probs.len()) >> var & 1 == 1;
                        t.trace.eval(&bit)
                    });
                    assert_eq!(holds != t.negated, expected, "{f:?} mask={mask:b}");
                }
            }
        }
    }

    #[test]
    fn count_expr_reports_a_passed_deadline_for_every_encoding() {
        let past = std::time::Instant::now();
        for (f, probs, _) in encoding_fixtures() {
            for threads in [1, 4] {
                let pool = pdb_par::Pool::new(threads);
                let opts = DpllOptions {
                    record_trace: true,
                    deadline: Some(past),
                    ..Default::default()
                };
                let count = count_expr(&f, &probs, opts, &pool);
                assert!(count.aborted);
                assert!(count.probability.is_nan());
                assert!(count.trace.is_none());
            }
        }
    }

    #[test]
    fn constants() {
        let (p, _) = probability_of_expr(&BoolExpr::TRUE, &[], DpllOptions::default());
        assert_close(p, 1.0, 1e-12);
        let (q, _) = probability_of_expr(&BoolExpr::FALSE, &[0.5], DpllOptions::default());
        assert_close(q, 0.0, 1e-12);
    }

    #[test]
    fn end_to_end_query_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(21);
        let db = generators::bipartite(2, 0.9, (0.2, 0.8), &mut rng);
        for q in [
            "exists x. exists y. R(x) & S(x,y) & T(y)",
            "forall x. forall y. (R(x) | S(x,y) | T(y))",
            "forall x. forall y. (S(x,y) -> R(x))",
            "exists x. R(x) & !T(x)",
        ] {
            let fo = parse_fo(q).unwrap();
            let expected = pdb_lineage::eval::brute_force_probability(&fo, &db);
            assert_close(probability_of_query(&fo, &db), expected, 1e-10);
        }
    }

    #[test]
    fn example_2_1_via_grounded_inference() {
        let p = [0.1, 0.2, 0.3];
        let q = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
        let (db, _) = generators::fig1(p, q);
        let sentence = parse_fo("forall x. forall y. (S(x,y) -> R(x))").unwrap();
        let expected = (p[0] + (1.0 - p[0]) * (1.0 - q[0]) * (1.0 - q[1]))
            * (p[1] + (1.0 - p[1]) * (1.0 - q[2]) * (1.0 - q[3]) * (1.0 - q[4]))
            * (1.0 - q[5]);
        assert_close(probability_of_query(&sentence, &db), expected, 1e-10);
    }
}
