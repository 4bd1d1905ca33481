//! The grounded engine as a compiler (§7): a traced DPLL run *is* a
//! decision-DNNF (Huang–Darwiche), so the exact count of a lineage and
//! the circuit that re-computes it under any probabilities come out of one
//! run.
//!
//! [`compile_grounded`] is the one grounded path: ground → count with a
//! trace ([`pdb_wmc::count_expr`]) → [`DecisionDnnf::from_trace`] →
//! [`DecisionDnnf::flatten`] → [`FlatProgram::compact_vars`]. Its result,
//! a [`CompiledQuery`], is the only compiled form of a grounded lineage:
//! [`crate::ProbDb::query_fo`] answers with its evaluation, the server's
//! result cache keeps it, every materialized view row maintains one, and
//! snapshots persist it.
//!
//! A [`CompiledQuery`]'s leaves are addressed by `(relation, position)`
//! rather than by the global tuple ids of the index it was grounded
//! against, because an insert into any relation that sorts earlier
//! renumbers every id after it. Relations are append-only (see
//! [`pdb_data::Relation`]), so the program stays the query's circuit for as
//! long as the counts of the relations it mentions — and `|DOM|`, when its
//! lineage reads the domain ([`pdb_lineage::reads_domain`]) — are
//! unchanged; it checks that itself before every evaluation. The DPLL run
//! that recorded it read no probability to choose its branches (the most
//! frequent variable, ties to the lowest id; renumbering keeps the ids'
//! relative order), so a fresh run on such a state records the same
//! circuit, and the kernel repeats its `p·hi + (1−p)·lo` and component
//! products in the same order.

use crate::ProbDb;
use pdb_compile::ddnnf::DdnnfNode;
use pdb_compile::DecisionDnnf;
use pdb_data::{Relation, TupleDb, TupleIndex};
use pdb_kernel::FlatProgram;
use pdb_lineage::BoolExpr;
use pdb_logic::Fo;
use pdb_wmc::DpllOptions;
use std::time::Instant;

/// Grounds `fo` over `db` (variables from `index`, whose probabilities are
/// `probs`) and compiles its lineage: the traced exact count, read as a
/// decision-DNNF, flattened, and its leaves re-addressed to
/// `(relation, position)`. `None` when `options`' decision budget or
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
) -> Option<CompiledQuery> {
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
    let relations: Vec<(String, usize)> = fo
        .predicates()
        .iter()
        .map(|p| {
            let count = db.relation(p.name()).map_or(0, Relation::len);
            (p.name().to_string(), count)
        })
        .collect();
    let domain = pdb_lineage::reads_domain(fo).then(|| db.domain().len());
    if let BoolExpr::Const(value) = lineage {
        // Nothing to count: a one-node circuit with no leaves.
        let node = if value {
            DdnnfNode::True
        } else {
            DdnnfNode::False
        };
        return Some(CompiledQuery {
            program: DecisionDnnf::new(vec![node], 0).flatten(),
            relations,
            domain,
            leaves: Vec::new(),
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
    let mut program = DecisionDnnf::from_trace(&t.trace).flatten();
    span.set_u64("nodes", program.len() as u64);
    if let Some(before) = kernel_before {
        let after = pdb_kernel::stats();
        span.set_u64("kernel_evals", after.evals - before.evals);
        span.set_u64("kernel_bytes", after.eval_bytes - before.eval_bytes);
    }
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
    Some(CompiledQuery {
        program,
        relations,
        domain,
        leaves,
        negated: t.negated,
        scale: t.scale,
    })
}

/// Where a [`CompiledQuery`] reads one leaf's probability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Leaf {
    /// The tuple at `position` of relation `relation` (an index into
    /// [`CompiledQuery::relations`]).
    Tuple {
        /// Index into the mentioned relations.
        relation: u32,
        /// Insertion position within that relation.
        position: u32,
    },
    /// A Tseitin auxiliary: always 1/2.
    Aux,
}

/// A grounded query compiled once, kept to answer the query again. It is
/// valid for every later state of the database in which the relations the
/// query mentions hold as many tuples as when it was compiled — the same
/// tuples at the same positions, relations being append-only — and, when
/// the lineage reads the domain, `|DOM|` is unchanged: there, evaluating it
/// returns bit for bit what grounding and counting that state afresh
/// would. Built by [`compile_grounded`].
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
    /// The program computes the negated lineage (a monotone DNF is counted
    /// by its negation).
    negated: bool,
    /// The Tseitin `2^aux` correction, `1.0` without auxiliaries.
    scale: f64,
}

impl CompiledQuery {
    /// Reassembles a compiled query from its parts (a persisted view row).
    /// `None` when the program reads a variable past the leaf table.
    pub fn restore(
        program: FlatProgram,
        relations: Vec<(String, usize)>,
        domain: Option<usize>,
        leaves: Vec<Leaf>,
        negated: bool,
        scale: f64,
    ) -> Option<CompiledQuery> {
        (program.num_vars() <= leaves.len()).then_some(CompiledQuery {
            program,
            relations,
            domain,
            leaves,
            negated,
            scale,
        })
    }

    /// A program without a leaf table: its variables index a probability
    /// vector its caller keeps, so it is valid for no database state
    /// ([`CompiledQuery::leaf_probs`] is `None`).
    pub fn detached(program: FlatProgram, negated: bool, scale: f64) -> CompiledQuery {
        CompiledQuery {
            program,
            relations: Vec::new(),
            domain: None,
            leaves: Vec::new(),
            negated,
            scale,
        }
    }

    /// The probabilities `db` holds at the leaves' positions, one per
    /// program variable — `None` when `db` is not a state the program is
    /// valid for. Reads the relations the query mentions (and the domain,
    /// when the lineage reads it); calls neither `db.index()` nor any
    /// engine.
    pub fn leaf_probs(&self, db: &ProbDb) -> Option<Vec<f64>> {
        let db = db.tuple_db();
        if self.domain.is_some_and(|n| db.domain().len() != n)
            || self.program.num_vars() > self.leaves.len()
        {
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
                Leaf::Tuple { relation, position } => relations
                    .get(relation as usize)
                    .copied()
                    .flatten()?
                    .prob_at(position as usize),
                Leaf::Aux => Some(0.5),
            })
            .collect()
    }

    /// The query probability under `leaf_probs` (from
    /// [`CompiledQuery::leaf_probs`]): one kernel pass, mapped back
    /// through the encoding.
    pub fn eval(&self, leaf_probs: &[f64]) -> f64 {
        self.answer(self.program.eval(leaf_probs))
    }

    /// Maps the program's root value back through the encoding exactly as
    /// [`pdb_wmc::count_expr`] maps its count.
    pub fn answer(&self, root: f64) -> f64 {
        if self.negated {
            1.0 - root
        } else {
            root * self.scale
        }
    }

    /// The flat program.
    pub fn program(&self) -> &FlatProgram {
        &self.program
    }

    /// The mentioned relations with their tuple counts at compile time.
    pub fn relations(&self) -> &[(String, usize)] {
        &self.relations
    }

    /// `|DOM|` at compile time, when the lineage reads the domain.
    pub fn domain(&self) -> Option<usize> {
        self.domain
    }

    /// Where each program variable reads.
    pub fn leaves(&self) -> &[Leaf] {
        &self.leaves
    }

    /// Whether the program computes the negated lineage.
    pub fn negated(&self) -> bool {
        self.negated
    }

    /// The Tseitin `2^aux` correction.
    pub fn scale(&self) -> f64 {
        self.scale
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
