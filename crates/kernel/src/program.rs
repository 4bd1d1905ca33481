//! The flat arithmetic-circuit program: SoA layout, builder, evaluators.
//!
//! A [`FlatProgram`] is a compiled circuit lowered into parallel arrays in
//! **topological order** (every child strictly precedes its parents; the
//! root is the last node):
//!
//! | array      | per node                                                |
//! |------------|---------------------------------------------------------|
//! | `ops[i]`   | the operation tag (one byte)                            |
//! | `a[i]`     | leaf/decision variable, or child-span start (mul/add)   |
//! | `b[i]`     | decision `hi` child, or child-span length (mul/add)     |
//! | `c[i]`     | decision `lo` child                                     |
//! | `children` | flat child-index array sliced by the mul/add spans      |
//! | `vars`     | sorted, deduplicated leaf→tuple table                   |
//!
//! Evaluation is a single forward pass pushing one `f64` per node — no
//! recursion, no hashing, no per-node allocation, and a branch predictor
//! friendly tag dispatch. The floating-point combination order inside each
//! node is identical to the memoized reference walk in `pdb-compile`
//! (`DecisionDnnf::probability`), which makes flat results bit-identical to
//! it (see the crate docs for the argument).

use crate::stats;

/// Operation tag of one flat node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpTag {
    /// Constant 0 (the ⊥ leaf).
    ConstFalse,
    /// Constant 1 (the ⊤ leaf).
    ConstTrue,
    /// A positive literal leaf: the value is `probs[var]`.
    Leaf,
    /// A negative literal leaf: the value is `1 − probs[var]`.
    NegLeaf,
    /// A Shannon decision: `probs[var]·hi + (1 − probs[var])·lo`.
    Decision,
    /// Independent-∧: the left-to-right product of the child span.
    Mul,
    /// Disjoint-∨: the left-to-right sum of the child span.
    Add,
}

/// A structural defect detected while building a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlatError {
    /// `finish` on a builder with no nodes.
    Empty,
    /// A node referenced a child at or above its own index (the program
    /// would not be topologically ordered).
    ChildOutOfOrder {
        /// Index of the offending node.
        node: u32,
    },
}

impl std::fmt::Display for FlatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlatError::Empty => write!(f, "flat program has no nodes"),
            FlatError::ChildOutOfOrder { node } => {
                write!(f, "node {node} references a child at or above itself")
            }
        }
    }
}

/// A read-only structured view of one flat node (for consumers that need
/// to walk the program, e.g. building reverse edges for dirty-cone
/// maintenance).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlatNode<'a> {
    /// Constant 0.
    False,
    /// Constant 1.
    True,
    /// Positive literal on a variable.
    Leaf(u32),
    /// Negative literal on a variable.
    NegLeaf(u32),
    /// Shannon decision.
    Decision {
        /// Decision variable.
        var: u32,
        /// Flat index of the `var = 1` child.
        hi: u32,
        /// Flat index of the `var = 0` child.
        lo: u32,
    },
    /// Independent-∧ over a child span.
    Mul(&'a [u32]),
    /// Disjoint-∨ over a child span.
    Add(&'a [u32]),
}

/// Incremental builder for a [`FlatProgram`]. Push nodes in topological
/// order (children first); the **last node pushed is the root**. Child
/// references are validated as they are pushed; [`FlatBuilder::finish`]
/// reports the first defect.
#[derive(Debug, Default)]
pub struct FlatBuilder {
    ops: Vec<OpTag>,
    a: Vec<u32>,
    b: Vec<u32>,
    c: Vec<u32>,
    children: Vec<u32>,
    vars: Vec<u32>,
    err: Option<FlatError>,
}

impl FlatBuilder {
    /// A fresh, empty builder.
    pub fn new() -> FlatBuilder {
        FlatBuilder::default()
    }

    fn push(&mut self, op: OpTag, a: u32, b: u32, c: u32) -> u32 {
        let id = self.ops.len() as u32;
        self.ops.push(op);
        self.a.push(a);
        self.b.push(b);
        self.c.push(c);
        id
    }

    fn check_child(&mut self, child: u32) {
        if child as usize >= self.ops.len() && self.err.is_none() {
            self.err = Some(FlatError::ChildOutOfOrder {
                node: self.ops.len() as u32,
            });
        }
    }

    /// Pushes a constant node; returns its flat index.
    pub fn push_const(&mut self, value: bool) -> u32 {
        let op = if value {
            OpTag::ConstTrue
        } else {
            OpTag::ConstFalse
        };
        self.push(op, 0, 0, 0)
    }

    /// Pushes a positive-literal leaf on `var`; returns its flat index.
    pub fn push_leaf(&mut self, var: u32) -> u32 {
        self.vars.push(var);
        self.push(OpTag::Leaf, var, 0, 0)
    }

    /// Pushes a negative-literal leaf on `var`; returns its flat index.
    pub fn push_neg_leaf(&mut self, var: u32) -> u32 {
        self.vars.push(var);
        self.push(OpTag::NegLeaf, var, 0, 0)
    }

    /// Pushes a Shannon decision on `var` with already-pushed children;
    /// returns its flat index.
    pub fn push_decision(&mut self, var: u32, hi: u32, lo: u32) -> u32 {
        self.check_child(hi);
        self.check_child(lo);
        self.vars.push(var);
        self.push(OpTag::Decision, var, hi, lo)
    }

    fn push_span(&mut self, op: OpTag, kids: &[u32]) -> u32 {
        for &k in kids {
            self.check_child(k);
        }
        let start = self.children.len() as u32;
        self.children.extend_from_slice(kids);
        self.push(op, start, kids.len() as u32, 0)
    }

    /// Pushes an independent-∧ node over already-pushed children (the
    /// span keeps their order — it is the product order); returns its
    /// flat index.
    pub fn push_mul(&mut self, kids: &[u32]) -> u32 {
        self.push_span(OpTag::Mul, kids)
    }

    /// Pushes a disjoint-∨ node over already-pushed children (the span
    /// keeps their order — it is the summation order); returns its flat
    /// index.
    pub fn push_add(&mut self, kids: &[u32]) -> u32 {
        self.push_span(OpTag::Add, kids)
    }

    /// Number of nodes pushed so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no node has been pushed.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Seals the program (root = last node pushed). Fails on an empty
    /// builder or any out-of-order child reference recorded during pushes.
    pub fn finish(mut self) -> Result<FlatProgram, FlatError> {
        if let Some(err) = self.err {
            return Err(err);
        }
        if self.ops.is_empty() {
            return Err(FlatError::Empty);
        }
        self.vars.sort_unstable();
        self.vars.dedup();
        let num_vars = self.vars.last().map_or(0, |&v| v as usize + 1);
        let program = FlatProgram {
            ops: self.ops,
            a: self.a,
            b: self.b,
            c: self.c,
            children: self.children,
            vars: self.vars,
            num_vars,
        };
        stats::record_flatten(program.byte_size());
        Ok(program)
    }
}

/// Reads `xs[i]`, yielding `NaN` out of range: builder validation makes
/// the miss unreachable, and `NaN` propagates visibly instead of panicking
/// (this crate is on the P1 no-panic surface).
#[inline(always)]
fn at(xs: &[f64], i: usize) -> f64 {
    match xs.get(i) {
        Some(&v) => v,
        None => f64::NAN,
    }
}

#[inline(always)]
fn at_u32(xs: &[u32], i: usize) -> u32 {
    match xs.get(i) {
        Some(&v) => v,
        None => u32::MAX,
    }
}

/// A contiguous, topologically-ordered arithmetic-circuit program.
///
/// Built by [`FlatBuilder`]; see the module docs for the array layout.
#[derive(Clone, Debug)]
pub struct FlatProgram {
    ops: Vec<OpTag>,
    a: Vec<u32>,
    b: Vec<u32>,
    c: Vec<u32>,
    children: Vec<u32>,
    vars: Vec<u32>,
    num_vars: usize,
}

impl FlatProgram {
    /// A single-node constant program (`len() == 1`, the constant is the
    /// root). Infallible — the degenerate shape cannot violate the
    /// builder's child-ordering invariant — so callers on the no-panic
    /// surface can degrade to it instead of `expect`ing a `finish`.
    pub fn constant(value: bool) -> FlatProgram {
        let op = if value {
            OpTag::ConstTrue
        } else {
            OpTag::ConstFalse
        };
        FlatProgram {
            ops: vec![op],
            a: vec![0],
            b: vec![0],
            c: vec![0],
            children: Vec::new(),
            vars: Vec::new(),
            num_vars: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always false: sealed programs have at least one node.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Flat index of the root (the last node).
    pub fn root(&self) -> u32 {
        (self.ops.len().max(1) - 1) as u32
    }

    /// The leaf→tuple table: every variable the program reads, sorted and
    /// deduplicated.
    pub fn vars(&self) -> &[u32] {
        &self.vars
    }

    /// One more than the largest variable read (minimum usable
    /// probability-vector length / batch stride).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Bytes of program state streamed by one evaluation pass (the SoA
    /// arrays; the basis of the server's `bytes_per_eval` gauge).
    pub fn byte_size(&self) -> usize {
        self.ops.len() * (1 + 3 * 4) + self.children.len() * 4 + self.vars.len() * 4
    }

    /// A structured view of node `i` (`FlatNode::False` out of range).
    pub fn node(&self, i: u32) -> FlatNode<'_> {
        let idx = i as usize;
        let op = match self.ops.get(idx) {
            Some(&op) => op,
            None => return FlatNode::False,
        };
        match op {
            OpTag::ConstFalse => FlatNode::False,
            OpTag::ConstTrue => FlatNode::True,
            OpTag::Leaf => FlatNode::Leaf(at_u32(&self.a, idx)),
            OpTag::NegLeaf => FlatNode::NegLeaf(at_u32(&self.a, idx)),
            OpTag::Decision => FlatNode::Decision {
                var: at_u32(&self.a, idx),
                hi: at_u32(&self.b, idx),
                lo: at_u32(&self.c, idx),
            },
            OpTag::Mul => FlatNode::Mul(self.span(idx)),
            OpTag::Add => FlatNode::Add(self.span(idx)),
        }
    }

    /// Iterates the nodes in topological (= flat index) order.
    pub fn iter(&self) -> impl Iterator<Item = FlatNode<'_>> + '_ {
        (0..self.ops.len() as u32).map(|i| self.node(i))
    }

    fn span(&self, idx: usize) -> &[u32] {
        let start = at_u32(&self.a, idx) as usize;
        let len = at_u32(&self.b, idx) as usize;
        match self.children.get(start..start.saturating_add(len)) {
            Some(s) => s,
            None => &[],
        }
    }

    /// Computes node `i` from leaf probabilities and the values of its
    /// children (`values` is in flat index space, as produced by
    /// [`FlatProgram::eval_into`]). This is the single-gate kernel behind
    /// dirty-cone re-evaluation in `pdb-views`.
    #[inline]
    pub fn eval_node(&self, i: u32, probs: &[f64], values: &[f64]) -> f64 {
        let idx = i as usize;
        let op = match self.ops.get(idx) {
            Some(&op) => op,
            None => return f64::NAN,
        };
        match op {
            OpTag::ConstFalse => 0.0,
            OpTag::ConstTrue => 1.0,
            OpTag::Leaf => at(probs, at_u32(&self.a, idx) as usize),
            OpTag::NegLeaf => 1.0 - at(probs, at_u32(&self.a, idx) as usize),
            OpTag::Decision => {
                let pv = at(probs, at_u32(&self.a, idx) as usize);
                let hi = at(values, at_u32(&self.b, idx) as usize);
                let lo = at(values, at_u32(&self.c, idx) as usize);
                pv * hi + (1.0 - pv) * lo
            }
            OpTag::Mul => self
                .span(idx)
                .iter()
                .fold(1.0, |acc, &k| acc * at(values, k as usize)),
            OpTag::Add => self
                .span(idx)
                .iter()
                .fold(0.0, |acc, &k| acc + at(values, k as usize)),
        }
    }

    /// Evaluates the whole program in one forward pass, leaving per-node
    /// values in `values` (flat index space; reusable across calls), and
    /// returns the root value. Bit-identical to the memoized recursive
    /// walk of the source circuit.
    pub fn eval_into(&self, probs: &[f64], values: &mut Vec<f64>) -> f64 {
        values.clear();
        values.reserve(self.ops.len());
        for i in 0..self.ops.len() as u32 {
            let v = self.eval_node(i, probs, values);
            values.push(v);
        }
        stats::record_eval(self.byte_size());
        match values.last() {
            Some(&v) => v,
            None => f64::NAN,
        }
    }

    /// Convenience scalar evaluation with a throwaway scratch buffer.
    pub fn eval(&self, probs: &[f64]) -> f64 {
        let mut values = Vec::new();
        self.eval_into(probs, &mut values)
    }

    /// Batched evaluation: one program, `B` probability vectors.
    ///
    /// `probs` is a row-major `B × stride` matrix (lane `b` reads variable
    /// `v` at `probs[b·stride + v]`); `B = probs.len() / stride`, any
    /// trailing partial row is ignored. Requires `stride ≥ num_vars()`;
    /// undersized strides yield `NaN` lanes rather than misaligned reads.
    ///
    /// `out` receives the `B` root values; lane `b` is **bit-identical**
    /// to `eval` under row `b` (identical per-node arithmetic, per lane,
    /// in the same order — the inner lane loops are plain element-wise
    /// passes the compiler can vectorize). `scratch` is node-major
    /// (`len() × B`) and reusable across calls.
    pub fn eval_batch_into(
        &self,
        probs: &[f64],
        stride: usize,
        scratch: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if stride == 0 {
            return;
        }
        let lanes = probs.len() / stride;
        if lanes == 0 {
            return;
        }
        if stride < self.num_vars {
            out.resize(lanes, f64::NAN);
            return;
        }
        scratch.clear();
        scratch.resize(self.ops.len() * lanes, 0.0);
        for i in 0..self.ops.len() {
            let (done, rest) = scratch.split_at_mut(i * lanes);
            let dst = match rest.get_mut(..lanes) {
                Some(d) => d,
                None => break,
            };
            let op = match self.ops.get(i) {
                Some(&op) => op,
                None => break,
            };
            let lane_probs = |var: u32| {
                probs
                    .iter()
                    .skip((var as usize).min(stride.saturating_sub(1)))
                    .step_by(stride)
                    .copied()
            };
            let chunk = |j: u32| -> &[f64] {
                let s = (j as usize).saturating_mul(lanes);
                match done.get(s..s + lanes) {
                    Some(c) => c,
                    None => &[],
                }
            };
            match op {
                OpTag::ConstFalse => dst.fill(0.0),
                OpTag::ConstTrue => dst.fill(1.0),
                OpTag::Leaf => {
                    for (d, p) in dst.iter_mut().zip(lane_probs(at_u32(&self.a, i))) {
                        *d = p;
                    }
                }
                OpTag::NegLeaf => {
                    for (d, p) in dst.iter_mut().zip(lane_probs(at_u32(&self.a, i))) {
                        *d = 1.0 - p;
                    }
                }
                OpTag::Decision => {
                    let hi = chunk(at_u32(&self.b, i));
                    let lo = chunk(at_u32(&self.c, i));
                    let ps = lane_probs(at_u32(&self.a, i));
                    for (((d, &h), &l), p) in dst.iter_mut().zip(hi).zip(lo).zip(ps) {
                        *d = p * h + (1.0 - p) * l;
                    }
                }
                OpTag::Mul => {
                    dst.fill(1.0);
                    for &k in self.span(i) {
                        for (d, &v) in dst.iter_mut().zip(chunk(k)) {
                            *d *= v;
                        }
                    }
                }
                OpTag::Add => {
                    dst.fill(0.0);
                    for &k in self.span(i) {
                        for (d, &v) in dst.iter_mut().zip(chunk(k)) {
                            *d += v;
                        }
                    }
                }
            }
        }
        let root_start = (self.root() as usize).saturating_mul(lanes);
        match scratch.get(root_start..root_start + lanes) {
            Some(roots) => out.extend_from_slice(roots),
            None => out.resize(lanes, f64::NAN),
        }
        stats::record_batched(self.byte_size(), lanes);
    }

    /// Convenience batched evaluation with throwaway buffers.
    pub fn eval_batch(&self, probs: &[f64], stride: usize) -> Vec<f64> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.eval_batch_into(probs, stride, &mut scratch, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (x0 ∧ x1) as a decision chain plus an independent x2 via Mul, under
    /// an Add with a guard — small but exercises every op.
    fn sample_program() -> FlatProgram {
        let mut b = FlatBuilder::new();
        let f = b.push_const(false);
        let t = b.push_const(true);
        let x1 = b.push_decision(1, t, f);
        let x01 = b.push_decision(0, x1, f);
        let x2 = b.push_leaf(2);
        let nx3 = b.push_neg_leaf(3);
        let prod = b.push_mul(&[x01, x2]);
        b.push_add(&[prod, nx3]);
        b.finish().unwrap()
    }

    fn reference(probs: &[f64]) -> f64 {
        let p = |i: usize| probs[i];
        p(0) * p(1) * p(2) + (1.0 - p(3))
    }

    #[test]
    fn scalar_eval_matches_reference() {
        let prog = sample_program();
        let probs = [0.3, 0.7, 0.9, 0.2];
        assert_eq!(prog.eval(&probs).to_bits(), reference(&probs).to_bits());
        assert_eq!(prog.vars(), &[0, 1, 2, 3]);
        assert_eq!(prog.num_vars(), 4);
        assert_eq!(prog.root(), prog.len() as u32 - 1);
    }

    #[test]
    fn batch_lanes_are_bit_identical_to_scalar() {
        let prog = sample_program();
        for lanes in [1usize, 7, 64] {
            let stride = 4;
            let mut probs = Vec::new();
            for b in 0..lanes {
                for v in 0..stride {
                    probs.push(((b * 13 + v * 7) % 97) as f64 / 97.0);
                }
            }
            let out = prog.eval_batch(&probs, stride);
            assert_eq!(out.len(), lanes);
            for (b, &got) in out.iter().enumerate() {
                let row = &probs[b * stride..(b + 1) * stride];
                assert_eq!(
                    got.to_bits(),
                    prog.eval(row).to_bits(),
                    "lane {b} of {lanes}"
                );
            }
        }
    }

    #[test]
    fn eval_node_recomputes_any_node() {
        let prog = sample_program();
        let probs = [0.3, 0.7, 0.9, 0.2];
        let mut values = Vec::new();
        prog.eval_into(&probs, &mut values);
        for i in 0..prog.len() as u32 {
            assert_eq!(
                prog.eval_node(i, &probs, &values).to_bits(),
                values[i as usize].to_bits(),
                "node {i}"
            );
        }
    }

    #[test]
    fn builder_rejects_forward_references() {
        let mut b = FlatBuilder::new();
        let t = b.push_const(true);
        b.push_decision(0, t, 7); // child 7 does not exist yet
        assert_eq!(
            b.finish().unwrap_err(),
            FlatError::ChildOutOfOrder { node: 1 }
        );
        assert_eq!(FlatBuilder::new().finish().unwrap_err(), FlatError::Empty);
    }

    #[test]
    fn undersized_stride_yields_visible_nans() {
        let prog = sample_program();
        let out = prog.eval_batch(&[0.5; 6], 2); // stride 2 < num_vars 4
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|v| v.is_nan()));
        assert!(prog.eval_batch(&[0.5; 4], 0).is_empty());
        assert!(prog.eval_batch(&[], 4).is_empty());
    }

    #[test]
    fn node_views_round_trip() {
        let prog = sample_program();
        let mut decisions = 0;
        let mut spans = 0;
        for n in prog.iter() {
            match n {
                FlatNode::Decision { .. } => decisions += 1,
                FlatNode::Mul(kids) | FlatNode::Add(kids) => {
                    spans += 1;
                    assert!(kids.iter().all(|&k| (k as usize) < prog.len()));
                }
                _ => {}
            }
        }
        assert_eq!(decisions, 2);
        assert_eq!(spans, 2);
        assert!(prog.byte_size() > 0);
    }
}
