//! Kernel equivalence: the flat SoA programs produced by `flatten()` are
//! **bit-identical** to the reference walk `DecisionDnnf::probability`.
//!
//! Every circuit type is evaluated only through its flat program, and
//! decision circuits share one lowering (`DecisionDnnf::flatten`). The
//! flattening pass may only change *how* a circuit is evaluated — one
//! non-recursive forward loop over topologically ordered arrays instead of
//! a memoized recursion — never *what* it computes. Each node combines its
//! children with the same arithmetic in the same left-to-right order, and
//! each node is computed exactly once in both schemes, so every
//! intermediate f64 is the same bit pattern. These tests pin that contract
//! across
//!
//!   * all four circuit types, each checked against the reference walk of
//!     its decision-DNNF (OBDD via `to_decision_dnnf`, FBDD via
//!     `as_decision_dnnf`, d-DNNF via `to_ddnnf`),
//!   * every lowering's exact node sequence, pinned as constants,
//!   * all five query kinds (lifted, grounded, approximate, answers-CQ,
//!     views),
//!   * pool sizes 1 / 2 / 8 (the engine must not care how the flat
//!     programs were produced or on how many threads), and
//!   * batch sizes 1 / 7 / 64 (the batched entry point runs the same
//!     per-node arithmetic per lane, so lane values cannot depend on how
//!     many lanes share the instruction stream).

use probdb::compile::ddnnf::DdnnfNode;
use probdb::compile::{order, DecisionDnnf, Fbdd, Obdd};
use probdb::data::{generators, TupleDb};
use probdb::kernel::FlatProgram;
use probdb::lineage::{ucq_dnf_lineage, BoolExpr, Cnf};
use probdb::logic::{parse_ucq, Var};
use probdb::par::{with_pool, Pool};
use probdb::views::{IncrementalCircuit, ViewDef, ViewManager, ViewOptions};
use probdb::wmc::{monte_carlo, Dpll, DpllOptions};
use probdb::{ProbDb, QueryOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCH_SIZES: [usize; 3] = [1, 7, 64];
const POOL_SIZES: [usize; 3] = [1, 2, 8];

// ---------------------------------------------------------------- fixtures

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

fn engine_db(n: u64) -> ProbDb {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    ProbDb::from_tuple_db(generators::bipartite(n, 0.7, (0.15, 0.85), &mut rng))
}

/// The lineage of the prototypical #P-hard query over `db`.
fn hard_lineage(db: &TupleDb) -> BoolExpr {
    let ucq = parse_ucq("R(x), S(x,y), T(y)").unwrap();
    ucq_dnf_lineage(&ucq, db, &db.index()).to_expr()
}

/// Runs the traced DPLL on the negated DNF of `expr` and rebuilds the
/// decision-DNNF from the trace (the §7 trace-as-circuit construction).
fn traced_dd(expr: &BoolExpr, nvars: u32, probs: &[f64], components: bool) -> DecisionDnnf {
    let cnf = Cnf::from_negated_dnf(expr, nvars);
    let result = Dpll::new(
        &cnf,
        probs.to_vec(),
        DpllOptions {
            record_trace: true,
            components,
            ..Default::default()
        },
    )
    .run();
    DecisionDnnf::from_trace(&result.trace.unwrap())
}

/// Stacks `lanes` probability vectors end to end. Lane 0 is `probs`
/// verbatim; lane `k` is a deterministic perturbation kept inside `[0, 1]`
/// so each lane is a legal leaf-weight assignment.
fn stacked_lanes(probs: &[f64], lanes: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(probs.len() * lanes);
    for lane in 0..lanes {
        let shrink = 1.0 / (1.0 + lane as f64 / 3.0);
        for &p in probs {
            out.push(if lane == 0 {
                p
            } else {
                (p * shrink).clamp(0.0, 1.0)
            });
        }
    }
    out
}

/// Runs `f` under a fresh pool of each size in [`POOL_SIZES`] and asserts
/// all outputs are equal; returns the pool-1 baseline.
fn invariant_under_pools<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
    let baseline = with_pool(&Pool::new(POOL_SIZES[0]), &f);
    for &threads in &POOL_SIZES[1..] {
        let out = with_pool(&Pool::new(threads), &f);
        assert_eq!(out, baseline, "diverged at {threads} threads");
    }
    baseline
}

/// Asserts that `flat.eval` reproduces `tree_bits` exactly and that
/// `flat.eval_batch` at every batch size is lane-for-lane bit-identical to
/// scalar evaluation of each lane.
fn assert_flat_matches(flat: &pdb_kernel::FlatProgram, probs: &[f64], tree_bits: u64, tag: &str) {
    let stride = probs.len();
    assert_eq!(
        flat.eval(probs).to_bits(),
        tree_bits,
        "{tag}: flat vs tree diverged"
    );
    for lanes in BATCH_SIZES {
        let stacked = stacked_lanes(probs, lanes);
        let batched = flat.eval_batch(&stacked, stride);
        assert_eq!(batched.len(), lanes, "{tag}: lane count at B={lanes}");
        for (k, &value) in batched.iter().enumerate() {
            let lane = &stacked[k * stride..(k + 1) * stride];
            assert_eq!(
                value.to_bits(),
                flat.eval(lane).to_bits(),
                "{tag}: batched lane {k} of {lanes} diverged from scalar eval"
            );
        }
    }
}

// ----------------------------------------------- circuit-type equivalence

/// Every circuit type flattens to a program that is bit-identical to the
/// reference walk of its decision-DNNF, scalar and batched.
#[test]
fn all_circuit_types_flatten_bit_identically() {
    for seed in 0..4 {
        let db = random_db(seed);
        let idx = db.index();
        let probs = probs_of(&db);
        let nvars = probs.len() as u32;
        let expr = hard_lineage(&db);

        let dd = traced_dd(&expr, nvars, &probs, true);
        assert_flat_matches(
            &dd.flatten(),
            &probs,
            dd.probability(&probs).to_bits(),
            &format!("decision-DNNF seed {seed}"),
        );

        let ddnnf = dd.to_ddnnf();
        assert_flat_matches(
            &ddnnf.flatten(),
            &probs,
            dd.probability(&probs).to_bits(),
            &format!("d-DNNF seed {seed}"),
        );

        let fbdd = Fbdd::from_trace(&{
            let cnf = Cnf::from_negated_dnf(&expr, nvars);
            Dpll::new(
                &cnf,
                probs.clone(),
                DpllOptions {
                    record_trace: true,
                    components: false,
                    ..Default::default()
                },
            )
            .run()
            .trace
            .unwrap()
        })
        .unwrap();
        assert_flat_matches(
            &fbdd.flatten(),
            &probs,
            fbdd.as_decision_dnnf().probability(&probs).to_bits(),
            &format!("FBDD seed {seed}"),
        );

        let obdd = Obdd::compile(&expr, &order::hierarchical_order(&idx));
        assert_flat_matches(
            &obdd.flatten(),
            &probs,
            obdd.to_decision_dnnf().probability(&probs).to_bits(),
            &format!("OBDD seed {seed}"),
        );
    }
}

/// Chunking the same lanes into different batch sizes never changes a
/// lane's bits: 64 lanes evaluated as one B=64 call, as ⌈64/7⌉ B≤7 calls,
/// and as 64 B=1 calls all agree.
#[test]
fn batch_size_never_changes_lane_bits() {
    let db = random_db(11);
    let probs = probs_of(&db);
    let stride = probs.len();
    let expr = hard_lineage(&db);
    let flat = traced_dd(&expr, stride as u32, &probs, true).flatten();

    let stacked = stacked_lanes(&probs, 64);
    let all_at_once = flat.eval_batch(&stacked, stride);

    let mut chunked = Vec::new();
    for chunk in stacked.chunks(7 * stride) {
        chunked.extend(flat.eval_batch(chunk, stride));
    }
    let one_by_one: Vec<f64> = (0..64)
        .map(|k| flat.eval(&stacked[k * stride..(k + 1) * stride]))
        .collect();

    let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&all_at_once), bits(&chunked), "B=64 vs B=7 chunks");
    assert_eq!(bits(&all_at_once), bits(&one_by_one), "B=64 vs B=1 lanes");
}

// ------------------------------------------------------- lowering pins

/// The E15 circuit shape: `⋁ᵢ (x_{2i} ∧ x_{2i+1})` as a chain of decision
/// pairs, each falling through to the next pair on `x_{2i} = 0`.
fn matching_dnnf(pairs: u32) -> DecisionDnnf {
    let mut nodes = vec![DdnnfNode::True, DdnnfNode::False];
    let mut next = 1u32;
    for i in (0..pairs).rev() {
        let y = nodes.len() as u32;
        nodes.push(DdnnfNode::Decision {
            var: 2 * i + 1,
            hi: 0,
            lo: next,
        });
        let x = nodes.len() as u32;
        nodes.push(DdnnfNode::Decision {
            var: 2 * i,
            hi: y,
            lo: next,
        });
        next = x;
    }
    DecisionDnnf::new(nodes, next)
}

/// `(len, FNV-1a over the node sequence, eval bits on three vectors)` of a
/// flat program: lane 0 is `probs`, lanes 1–2 its [`stacked_lanes`]
/// perturbations.
fn pin_of(flat: &FlatProgram, probs: &[f64]) -> (usize, u64, [u64; 3]) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for node in flat.iter() {
        for byte in format!("{node:?};").bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let stacked = stacked_lanes(probs, 3);
    let bits = |k: usize| {
        flat.eval(&stacked[k * probs.len()..(k + 1) * probs.len()])
            .to_bits()
    };
    (flat.len(), hash, [bits(0), bits(1), bits(2)])
}

/// Every lowering pinned node for node and bit for bit: the flat program
/// of each circuit type (the E15 matching shape, traced H₀ decision-DNNFs
/// with components, the component-free FBDD, OBDDs under two orders, the
/// d-DNNF expansion) and one incremental view circuit's update sequence.
/// A change that alters any program fails here; a refactor of the
/// lowering must pass without re-recording the constants.
#[test]
fn lowerings_are_pinned_node_for_node() {
    let mut pins = Vec::new();
    let matching_probs: Vec<f64> = (0..100).map(|v| f64::from(v % 9 + 1) / 10.0).collect();
    pins.push(pin_of(&matching_dnnf(50).flatten(), &matching_probs));
    for seed in 0..4 {
        let db = random_db(seed);
        let idx = db.index();
        let probs = probs_of(&db);
        let nvars = probs.len() as u32;
        let expr = hard_lineage(&db);
        let dd = traced_dd(&expr, nvars, &probs, true);
        pins.push(pin_of(&dd.flatten(), &probs));
        pins.push(pin_of(&dd.to_ddnnf().flatten(), &probs));
        let fbdd = Fbdd::from_trace(&{
            let cnf = Cnf::from_negated_dnf(&expr, nvars);
            let opts = DpllOptions {
                record_trace: true,
                components: false,
                ..Default::default()
            };
            Dpll::new(&cnf, probs.clone(), opts).run().trace.unwrap()
        })
        .unwrap();
        pins.push(pin_of(&fbdd.flatten(), &probs));
        for order in [
            order::hierarchical_order(&idx),
            order::identity_order(nvars),
        ] {
            pins.push(pin_of(&Obdd::compile(&expr, &order).flatten(), &probs));
        }
    }
    let rendered: Vec<String> = pins.iter().map(|p| format!("{p:?}")).collect();
    assert_eq!(rendered, PINNED_PROGRAMS, "{rendered:#?}");

    let db = random_db(2);
    let probs = probs_of(&db);
    let dd = traced_dd(&hard_lineage(&db), probs.len() as u32, &probs, true);
    let mut circuit = IncrementalCircuit::new(&dd, probs.clone(), true, 1.0);
    let mut trail = vec![(0, circuit.probability().to_bits())];
    for step in 0..12u32 {
        let var = (step * 7) % probs.len() as u32;
        let gates = circuit.set_prob(var, f64::from(step % 5 + 1) / 6.0);
        trail.push((gates, circuit.probability().to_bits()));
    }
    assert_eq!(trail, PINNED_INCREMENTAL);
}

const PINNED_PROGRAMS: &[&str] = &[
    "(102, 1330173014317951876, [4607182418751218036, 4607181177741651898, 4607139442535986889])",
    "(9, 12750953677830003925, [4606082709355668219, 4606711613333388227, 4606940114624505325])",
    "(33, 6569760855496356203, [4606082709355668219, 4606711613333388227, 4606940114624505325])",
    "(11, 12582671001626728131, [4606082709355668218, 4606711613333388228, 4606940114624505325])",
    "(8, 8966540806801489142, [4593462096217958446, 4587693708501861330, 4583410955024810554])",
    "(12, 8872292335217028078, [4593462096217958446, 4587693708501861330, 4583410955024810555])",
    "(8, 7556858680117439828, [4606538442286570467, 4606903634426976063, 4607037997015651651])",
    "(28, 11763311166563289215, [4606538442286570467, 4606903634426976063, 4607037997015651651])",
    "(7, 4164857408938670607, [4606538442286570467, 4606903634426976063, 4607037997015651651])",
    "(8, 18415827344789365691, [4589816232770740459, 4584578321345746986, 4580278718508128173])",
    "(9, 6377608962448768538, [4589816232770740460, 4584578321345746986, 4580278718508128173])",
    "(9, 7989284544277269706, [4604118447739924113, 4605838032813711107, 4606484653505453168])",
    "(33, 12012953719299634881, [4604118447739924113, 4605838032813711107, 4606484653505453168])",
    "(11, 8571666982006908215, [4604118447739924112, 4605838032813711107, 4606484653505453168])",
    "(8, 13294745615128072741, [4599799562038092511, 4594545564235760628, 4590246543019678844])",
    "(12, 15084791498790261586, [4599799562038092511, 4594545564235760627, 4590246543019678844])",
    "(5, 9948008786822978681, [4605513729279737228, 4606478440408649207, 4606821981863636889])",
    "(17, 1460678241123622139, [4605513729279737228, 4606478440408649207, 4606821981863636889])",
    "(5, 9948008786822978681, [4605513729279737228, 4606478440408649207, 4606821981863636889])",
    "(5, 4083387037373490965, [4595842778371656144, 4590296247794110536, 4585927812017882736])",
    "(5, 13811525675048554809, [4595842778371656144, 4590296247794110536, 4585927812017882736])",
];
const PINNED_INCREMENTAL: &[(usize, u64)] = &[
    (0, 4599799562038092510),
    (2, 4598972735374060496),
    (4, 4599057878976219816),
    (4, 4597917630404526932),
    (3, 4598184050009502766),
    (3, 4599386000176787268),
    (0, 4599386000176787268),
    (0, 4599386000176787268),
    (2, 4597730419582079328),
    (2, 4599537419432567490),
    (4, 4602692719171496821),
    (4, 4601131285967357050),
    (3, 4597878686236478356),
];

// -------------------------------------------------- five query kinds

/// Kind 1 — lifted. The engine answer is pool-invariant, and the lifted
/// query's lineage compiled to an OBDD flattens bit-identically.
#[test]
fn lifted_kind_flat_equals_tree() {
    let db = engine_db(4);
    let opts = QueryOptions::default();
    let (bits, method) = invariant_under_pools(|| {
        let a = db
            .query_fo(
                &probdb::logic::parse_fo("exists x. exists y. R(x) & S(x,y)").unwrap(),
                &opts,
            )
            .unwrap();
        (a.probability.to_bits(), format!("{:?}", a.method))
    });
    assert_eq!(method, "Lifted");
    assert!(f64::from_bits(bits).is_finite());

    let tdb = random_db(1);
    let probs = probs_of(&tdb);
    let ucq = parse_ucq("R(x), S(x,y)").unwrap();
    let lin = ucq_dnf_lineage(&ucq, &tdb, &tdb.index()).to_expr();
    let obdd = Obdd::compile(&lin, &order::identity_order(probs.len() as u32));
    assert_flat_matches(
        &obdd.flatten(),
        &probs,
        obdd.to_decision_dnnf().probability(&probs).to_bits(),
        "lifted-kind OBDD",
    );
}

/// Kind 2 — grounded. The DPLL trace of the hard query lowers to a flat
/// program matching the reference walk, and the engine's grounded answer is
/// pool-invariant.
#[test]
fn grounded_kind_flat_equals_tree() {
    let db = engine_db(4);
    let opts = QueryOptions::default();
    let (_, method) = invariant_under_pools(|| {
        let a = db
            .query_fo(
                &probdb::logic::parse_fo("exists x. exists y. R(x) & S(x,y) & T(y)").unwrap(),
                &opts,
            )
            .unwrap();
        (a.probability.to_bits(), format!("{:?}", a.method))
    });
    assert_eq!(method, "Grounded");

    for seed in 4..8 {
        let tdb = random_db(seed);
        let probs = probs_of(&tdb);
        let dd = traced_dd(&hard_lineage(&tdb), probs.len() as u32, &probs, true);
        assert_flat_matches(
            &dd.flatten(),
            &probs,
            dd.probability(&probs).to_bits(),
            &format!("grounded-kind seed {seed}"),
        );
    }
}

/// Kind 3 — approximate. The Karp–Luby estimator (whose per-sample force
/// and first-satisfied scans now run on the flat DNF kernel) is bit-stable
/// across pool sizes, and the Monte-Carlo sampler (flat Boolean forward
/// pass) reproduces a literal `BoolExpr` tree walk bit for bit under the
/// same RNG stream.
#[test]
fn approximate_kind_flat_equals_tree() {
    let db = engine_db(6);
    let opts = QueryOptions {
        exact_budget: 2,
        samples: 20_000,
        ..Default::default()
    };
    let (_, method, std_error) = invariant_under_pools(|| {
        let a = db
            .query_fo(
                &probdb::logic::parse_fo("exists x. exists y. R(x) & S(x,y) & T(y)").unwrap(),
                &opts,
            )
            .unwrap();
        (
            a.probability.to_bits(),
            format!("{:?}", a.method),
            a.std_error.map(f64::to_bits),
        )
    });
    assert_eq!(method, "Approximate");
    assert!(std_error.is_some());

    // Monte Carlo: flat kernel vs hand-rolled tree walk, same RNG sequence.
    let tdb = random_db(3);
    let probs = probs_of(&tdb);
    let expr = hard_lineage(&tdb);
    let samples = 5_000;
    let flat_est = monte_carlo::estimate(&expr, &probs, samples, &mut StdRng::seed_from_u64(42));

    let mut rng = StdRng::seed_from_u64(42);
    let vars: Vec<u32> = expr.vars().into_iter().map(|t| t.0).collect();
    let mut assignment = vec![false; probs.len()];
    let mut hits = 0u64;
    for _ in 0..samples {
        for &v in &vars {
            assignment[v as usize] = rng.gen_bool(probs[v as usize].clamp(0.0, 1.0));
        }
        if expr.eval(&|t| assignment[t.0 as usize]) {
            hits += 1;
        }
    }
    let mean = hits as f64 / samples as f64;
    assert_eq!(
        flat_est.value.to_bits(),
        mean.to_bits(),
        "flat MC diverged from tree-walk MC"
    );
}

/// Kind 4 — answers-CQ. Per-answer rows are pool-invariant, and each
/// answer's lineage flattens bit-identically.
#[test]
fn answers_kind_flat_equals_tree() {
    let db = engine_db(5);
    let cq = probdb::logic::parse_cq("R(x), S(x,y), T(y)").unwrap();
    let head = [Var::new("x")];
    let opts = QueryOptions::default();
    let rows = invariant_under_pools(|| {
        db.query_answers(&cq, &head, &opts)
            .unwrap()
            .into_iter()
            .map(|r| (r.values, r.probability.to_bits()))
            .collect::<Vec<_>>()
    });
    assert!(!rows.is_empty(), "fixture should produce answer rows");

    let tdb = random_db(6);
    let probs = probs_of(&tdb);
    let dd = traced_dd(&hard_lineage(&tdb), probs.len() as u32, &probs, true);
    assert_flat_matches(
        &dd.flatten(),
        &probs,
        dd.probability(&probs).to_bits(),
        "answers-kind",
    );
}

/// Kind 5 — views. The full lifecycle (build, insert, refresh) is
/// pool-invariant, and the batched what-if path is bit-identical to the
/// stored row probabilities at lane 0 and batch-size-invariant everywhere.
#[test]
fn views_kind_batched_refresh_is_bit_identical() {
    let lifecycle = || {
        let mut db = engine_db(4);
        let mut views = ViewManager::with_options(ViewOptions::default());
        views
            .create(
                "vb",
                ViewDef::boolean("exists x. exists y. R(x) & S(x,y) & T(y)").unwrap(),
                &db,
            )
            .unwrap();
        views
            .create(
                "va",
                ViewDef::answers(&["x".into()], "R(x), S(x,y), T(y)").unwrap(),
                &db,
            )
            .unwrap();
        db.insert("R", [17], 0.35);
        views.on_insert("R", db.relation_version("R"));
        views.refresh_all(&db).unwrap();
        let mut fingerprint = Vec::new();
        for view in views.iter() {
            // One circuit-leaf vector per view row; all rows of these
            // views share the build snapshot's leaf numbering.
            let state = view.to_state();
            let stride = state
                .rows
                .iter()
                .filter_map(|r| r.circuit.as_ref().map(|c| c.probs.len()))
                .max()
                .unwrap_or(0);
            let base: Vec<f64> = state
                .rows
                .iter()
                .filter_map(|r| r.circuit.as_ref())
                .map(|c| c.probs.clone())
                .next()
                .unwrap_or_default();
            assert_eq!(base.len(), stride, "rows share one leaf numbering");
            assert!(stride > 0, "fixture views should be circuit-backed");

            for lanes in BATCH_SIZES {
                let stacked = stacked_lanes(&base, lanes);
                let batched = view.what_if_batch(&stacked, stride);
                let singly: Vec<Option<Vec<f64>>> = (0..lanes)
                    .map(|k| view.what_if_batch(&stacked[k * stride..(k + 1) * stride], stride))
                    .fold(Vec::new(), |mut acc, per_row| {
                        if acc.is_empty() {
                            acc = per_row;
                        } else {
                            for (row, one) in acc.iter_mut().zip(per_row) {
                                if let (Some(all), Some(one)) = (row.as_mut(), one) {
                                    all.extend(one);
                                }
                            }
                        }
                        acc
                    });
                for (row, (b, s)) in batched.iter().zip(&singly).enumerate() {
                    match (b, s) {
                        (Some(b), Some(s)) => {
                            let bits =
                                |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(b), bits(s), "row {row} lanes differ at B={lanes}");
                        }
                        (None, None) => {}
                        _ => panic!("row {row}: backend disagreement across batch sizes"),
                    }
                }
                // Lane 0 is the build snapshot's own probabilities, so it
                // must reproduce the stored row probability bits exactly.
                for (row_state, lanes_of_row) in state.rows.iter().zip(&batched) {
                    if let (Some(_), Some(values)) = (&row_state.circuit, lanes_of_row) {
                        assert_eq!(
                            values[0].to_bits(),
                            row_state.probability.to_bits(),
                            "lane 0 must equal the stored row probability"
                        );
                    }
                }
            }
            let rows = view
                .rows()
                .iter()
                .map(|r| (r.values.clone(), r.probability.to_bits()))
                .collect::<Vec<_>>();
            fingerprint.push((view.name().to_string(), rows));
        }
        fingerprint
    };
    invariant_under_pools(lifecycle);
}

// ------------------------------------------------------------- proptest

/// A random monotone DNF over `n` variables — the lineage shape the traced
/// DPLL accepts (`Cnf::from_negated_dnf` rejects anything else).
fn arb_monotone_dnf(nvars: u32) -> impl Strategy<Value = BoolExpr> {
    prop::collection::vec(prop::collection::vec(0..nvars, 1..4), 1..6).prop_map(|terms| {
        BoolExpr::or_all(
            terms
                .into_iter()
                .map(|t| {
                    BoolExpr::and_all(
                        t.into_iter()
                            .map(|v| BoolExpr::var(probdb::data::TupleId(v)))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>(),
        )
    })
}

/// A random Boolean expression over `n` variables (same shape as
/// `tests/proptest_invariants.rs`) — exercised through the OBDD, which
/// compiles arbitrary formulas.
fn arb_expr(nvars: u32, depth: u32) -> impl Strategy<Value = BoolExpr> {
    let leaf = prop_oneof![
        (0..nvars).prop_map(|v| BoolExpr::var(probdb::data::TupleId(v))),
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

fn derived_probs(seed: u64, n: usize) -> Vec<f64> {
    let mut probs = Vec::with_capacity(n);
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    for _ in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        probs.push((state >> 11) as f64 / (1u64 << 53) as f64);
    }
    probs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On arbitrary formulas and probability vectors, flattened traced
    /// decision-DNNFs and OBDDs agree with the reference walk to the bit,
    /// scalar and batched at every batch size.
    #[test]
    fn random_formulas_flatten_bit_identically(
        dnf in arb_monotone_dnf(6),
        expr in arb_expr(6, 3),
        seed in 0u64..1000,
    ) {
        let probs = derived_probs(seed, 6);
        let dd = traced_dd(&dnf, 6, &probs, true);
        let flat = dd.flatten();
        prop_assert_eq!(flat.eval(&probs).to_bits(), dd.probability(&probs).to_bits());

        let obdd = Obdd::compile(&expr, &order::identity_order(6));
        let flat_obdd = obdd.flatten();
        prop_assert_eq!(
            flat_obdd.eval(&probs).to_bits(),
            obdd.to_decision_dnnf().probability(&probs).to_bits()
        );

        for lanes in BATCH_SIZES {
            let stacked = stacked_lanes(&probs, lanes);
            for (flat, tag) in [(&flat, "dd"), (&flat_obdd, "obdd")] {
                let batched = flat.eval_batch(&stacked, 6);
                for (k, &value) in batched.iter().enumerate() {
                    let lane = &stacked[k * 6..(k + 1) * 6];
                    prop_assert_eq!(
                        value.to_bits(),
                        flat.eval(lane).to_bits(),
                        "{} lane {} of {}", tag, k, lanes
                    );
                }
            }
        }
    }
}
