//! The grounded engine as a compiler (§7): a traced DPLL run *is* a
//! decision-DNNF (Huang–Darwiche), so the exact count of a lineage and
//! the circuit that re-computes it under any probabilities come out of one
//! run.
//!
//! [`compile_grounded`] is the one grounded path: ground → count with a
//! trace ([`pdb_wmc::count_expr`]) → [`DecisionDnnf::from_trace`] →
//! [`DecisionDnnf::flatten`]. [`crate::ProbDb::query_fo`] answers with the
//! program's evaluation, and materialized views build their incremental
//! circuits from the same artifact.
//!
//! A [`CompiledQuery`] is that program kept for later: its leaves are
//! addressed by `(relation, position)` rather than by the global tuple ids
//! of the index it was grounded against, because an insert into any
//! relation that sorts earlier renumbers every id after it. Relations are
//! append-only (see [`pdb_data::Relation`]), so the program stays the
//! query's circuit for as long as the counts of the relations it mentions
//! — and `|DOM|`, when its lineage reads the domain
//! ([`pdb_lineage::reads_domain`]) — are unchanged; it checks that itself
//! before every evaluation. The DPLL run that recorded it read no
//! probability to choose its branches (the most frequent variable, ties to
//! the lowest id; renumbering keeps the ids' relative order), so a fresh
//! run on such a state records the same circuit, and the kernel repeats
//! its `p·hi + (1−p)·lo` and component products in the same order.

use crate::ProbDb;
use pdb_compile::ddnnf::DdnnfNode;
use pdb_compile::DecisionDnnf;
use pdb_data::{Relation, TupleDb, TupleIndex};
use pdb_kernel::FlatProgram;
use pdb_lineage::BoolExpr;
use pdb_logic::Fo;
use pdb_wmc::DpllOptions;
use std::time::Instant;

/// A grounded query compiled once: the decision-DNNF its traced DPLL run
/// recorded, over the variables of the [`TupleIndex`] it was grounded
/// against (Tseitin auxiliaries numbered after them), and its flat program.
#[derive(Clone, Debug)]
pub struct GroundedCircuit {
    /// The recorded circuit.
    pub circuit: DecisionDnnf,
    /// `circuit.flatten()`: the only evaluator of the circuit.
    pub program: FlatProgram,
    /// One probability per circuit variable (auxiliaries weigh 1/2).
    pub leaf_probs: Vec<f64>,
    /// The circuit computes the negated lineage (a monotone DNF is
    /// counted by its negation).
    pub negated: bool,
    /// The Tseitin `2^aux` correction, `1.0` without auxiliaries.
    pub scale: f64,
}

impl GroundedCircuit {
    /// The query probability: the program evaluated under `leaf_probs`,
    /// mapped back through the encoding exactly as
    /// [`pdb_wmc::count_expr`] maps its count — so bit-identical to it.
    pub fn probability(&self) -> f64 {
        answer_of(
            self.program.eval(&self.leaf_probs),
            self.negated,
            self.scale,
        )
    }
}

/// The count-to-probability map of [`pdb_wmc::count_expr`].
fn answer_of(root: f64, negated: bool, scale: f64) -> f64 {
    if negated {
        1.0 - root
    } else {
        root * scale
    }
}

/// Grounds `fo` over `db` (variables from `index`, whose probabilities are
/// `probs`) and compiles its lineage: the traced exact count, read as a
/// decision-DNNF and flattened. `None` when `options`' decision budget or
/// deadline stopped the count — or the deadline had passed once grounding
/// was done. Emits the `compile` (grounding) and `ground` (counting and
/// lowering) spans.
pub fn compile_grounded(
    fo: &Fo,
    db: &TupleDb,
    index: &TupleIndex,
    probs: &[f64],
    options: DpllOptions,
    pool: &pdb_par::Pool,
) -> Option<GroundedCircuit> {
    let past_deadline = |deadline: Option<Instant>| deadline.is_some_and(|d| Instant::now() >= d);
    let lineage = {
        let mut span = pdb_obs::span(pdb_obs::Stage::Compile);
        let lineage = pdb_lineage::lineage(fo, db, index);
        span.set_u64("tuples", probs.len() as u64);
        lineage
    };
    if past_deadline(options.deadline) {
        return None;
    }
    if let BoolExpr::Const(value) = lineage {
        // Nothing to count: a one-node circuit with no leaves.
        let node = if value {
            DdnnfNode::True
        } else {
            DdnnfNode::False
        };
        let circuit = DecisionDnnf::new(vec![node], 0);
        return Some(GroundedCircuit {
            program: circuit.flatten(),
            circuit,
            leaf_probs: Vec::new(),
            negated: false,
            scale: 1.0,
        });
    }
    let mut span = pdb_obs::span(pdb_obs::Stage::Ground);
    let kernel_before = span.is_recording().then(pdb_kernel::stats);
    span.set_u64("budget", options.max_decisions);
    let deadline = options.deadline;
    let options = DpllOptions {
        record_trace: true,
        ..options
    };
    let count = pdb_wmc::count_expr(&lineage, probs, options, pool);
    span.set_bool("within_budget", !count.aborted);
    if count.aborted && past_deadline(deadline) {
        span.set_bool("deadline", true);
    }
    let t = count.trace?;
    let circuit = DecisionDnnf::from_trace(&t.trace);
    let program = circuit.flatten();
    span.set_u64("nodes", program.len() as u64);
    if let Some(before) = kernel_before {
        let after = pdb_kernel::stats();
        span.set_u64("kernel_evals", after.evals - before.evals);
        span.set_u64("kernel_bytes", after.eval_bytes - before.eval_bytes);
    }
    Some(GroundedCircuit {
        circuit,
        program,
        leaf_probs: t.leaf_probs,
        negated: t.negated,
        scale: t.scale,
    })
}

/// Where a [`CompiledQuery`] reads one leaf's probability.
#[derive(Clone, Copy, Debug)]
enum Leaf {
    /// The tuple at `position` of relation `relation` (an index into
    /// [`CompiledQuery`]'s mentioned relations).
    Tuple { relation: u32, position: u32 },
    /// A Tseitin auxiliary: always 1/2.
    Aux,
}

/// A grounded query's program kept to answer the query again. It is valid
/// for every later state of the database in which the relations the query
/// mentions hold as many tuples as when it was compiled — the same tuples
/// at the same positions, relations being append-only — and, when the
/// lineage reads the domain, `|DOM|` is unchanged: there, evaluating it
/// returns bit for bit what grounding and counting that state afresh
/// would. Built by [`ProbDb::query_fo_compiled`].
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    /// The flat program, its variables renumbered densely.
    program: FlatProgram,
    /// The relations the query mentions, in name order, with their tuple
    /// counts at compile time.
    relations: Vec<(String, usize)>,
    /// `|DOM|` at compile time, when the lineage reads the domain
    /// ([`pdb_lineage::reads_domain`]).
    domain: Option<usize>,
    /// `leaves[v]` says where variable `v` of `program` reads.
    leaves: Vec<Leaf>,
    negated: bool,
    scale: f64,
}

impl CompiledQuery {
    /// Keeps `g`, compiled for `fo` against `index` over `db`, with its
    /// leaves re-addressed from tuple ids to `(relation, position)`.
    pub(crate) fn new(
        g: GroundedCircuit,
        fo: &Fo,
        index: &TupleIndex,
        db: &TupleDb,
    ) -> CompiledQuery {
        let relations: Vec<(String, usize)> = fo
            .predicates()
            .iter()
            .map(|p| {
                let count = db.relation(p.name()).map_or(0, Relation::len);
                (p.name().to_string(), count)
            })
            .collect();
        let mut program = g.program;
        let leaves = program
            .compact_vars()
            .into_iter()
            .map(|var| {
                if var as usize >= index.len() {
                    return Leaf::Aux;
                }
                // Only tuples of mentioned relations occur in the lineage.
                let r = index.get(pdb_data::TupleId(var));
                let relation = relations
                    .iter()
                    .position(|(name, _)| *name == r.relation)
                    .expect("a lineage reads only the relations its query mentions");
                let position = db
                    .relation(&r.relation)
                    .and_then(|rel| rel.position(&r.tuple))
                    .expect("an indexed tuple is stored in its relation");
                Leaf::Tuple {
                    relation: relation as u32,
                    position: position as u32,
                }
            })
            .collect();
        CompiledQuery {
            program,
            relations,
            domain: pdb_lineage::reads_domain(fo).then(|| db.domain().len()),
            leaves,
            negated: g.negated,
            scale: g.scale,
        }
    }

    /// The probabilities `db` holds at the leaves' positions, one per
    /// program variable — `None` when `db` is not a state the program is
    /// valid for. Reads the relations the query mentions (and the domain,
    /// when the lineage reads it); calls neither `db.index()` nor any
    /// engine.
    pub fn leaf_probs(&self, db: &ProbDb) -> Option<Vec<f64>> {
        let db = db.tuple_db();
        if self.domain.is_some_and(|n| db.domain().len() != n) {
            return None;
        }
        let relations = self
            .relations
            .iter()
            .map(|(name, count)| {
                let rel = db.relation(name);
                (rel.map_or(0, Relation::len) == *count).then_some(rel)
            })
            .collect::<Option<Vec<_>>>()?;
        self.leaves
            .iter()
            .map(|leaf| match *leaf {
                Leaf::Tuple { relation, position } => {
                    relations[relation as usize]?.prob_at(position as usize)
                }
                Leaf::Aux => Some(0.5),
            })
            .collect()
    }

    /// The query probability under `leaf_probs` (from
    /// [`CompiledQuery::leaf_probs`]): one kernel pass, mapped back
    /// through the encoding.
    pub fn eval(&self, leaf_probs: &[f64]) -> f64 {
        answer_of(self.program.eval(leaf_probs), self.negated, self.scale)
    }

    /// Number of program nodes.
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// Always false: a program has at least one node.
    pub fn is_empty(&self) -> bool {
        self.program.is_empty()
    }

    /// Bytes held: the program's arrays plus the leaf table.
    pub fn byte_size(&self) -> usize {
        self.program.byte_size()
            + self.leaves.len() * std::mem::size_of::<Leaf>()
            + self
                .relations
                .iter()
                .map(|(name, _)| name.len() + std::mem::size_of::<(String, usize)>())
                .sum::<usize>()
    }
}
