//! Boolean expressions flattened into a non-recursive program.
//!
//! The Monte-Carlo estimator evaluates one lineage formula under hundreds
//! of thousands of sampled worlds; the `BoolExpr` tree walk pays a dynamic
//! dispatch and pointer chase per node per world. [`FlatBool`] lowers the
//! expression once into the same topologically-ordered SoA shape as
//! [`crate::FlatProgram`], but over `bool`: evaluation is a single forward
//! pass per world. Because every operator is total and deterministic, the
//! flat result equals the tree walk's on every assignment (short-circuit
//! order in the tree walk cannot change a boolean outcome).

/// Operation tag of one flat boolean node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum BOp {
    /// Constant false.
    Const0,
    /// Constant true.
    Const1,
    /// Variable read.
    Var,
    /// Negation of one child.
    Not,
    /// Conjunction over a child span.
    All,
    /// Disjunction over a child span.
    Any,
}

/// Builder for a [`FlatBool`]; push children before parents, last node is
/// the root.
#[derive(Debug, Default)]
pub struct BoolBuilder {
    ops: Vec<BOp>,
    a: Vec<u32>,
    b: Vec<u32>,
    children: Vec<u32>,
}

impl BoolBuilder {
    /// A fresh, empty builder.
    pub fn new() -> BoolBuilder {
        BoolBuilder::default()
    }

    fn push(&mut self, op: BOp, a: u32, b: u32) -> u32 {
        let id = self.ops.len() as u32;
        self.ops.push(op);
        self.a.push(a);
        self.b.push(b);
        id
    }

    /// Pushes a constant node; returns its flat index.
    pub fn push_const(&mut self, value: bool) -> u32 {
        self.push(if value { BOp::Const1 } else { BOp::Const0 }, 0, 0)
    }

    /// Pushes a variable read; returns its flat index.
    pub fn push_var(&mut self, var: u32) -> u32 {
        self.push(BOp::Var, var, 0)
    }

    /// Pushes a negation of an already-pushed child; returns its flat
    /// index.
    pub fn push_not(&mut self, child: u32) -> u32 {
        self.push(BOp::Not, child, 0)
    }

    fn push_span(&mut self, op: BOp, kids: &[u32]) -> u32 {
        let start = self.children.len() as u32;
        self.children.extend_from_slice(kids);
        self.push(op, start, kids.len() as u32)
    }

    /// Pushes a conjunction over already-pushed children; returns its flat
    /// index.
    pub fn push_all(&mut self, kids: &[u32]) -> u32 {
        self.push_span(BOp::All, kids)
    }

    /// Pushes a disjunction over already-pushed children; returns its flat
    /// index.
    pub fn push_any(&mut self, kids: &[u32]) -> u32 {
        self.push_span(BOp::Any, kids)
    }

    /// Number of nodes pushed so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no node has been pushed.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Seals the program (an empty builder yields the constant false).
    pub fn finish(mut self) -> FlatBool {
        if self.ops.is_empty() {
            self.push(BOp::Const0, 0, 0);
        }
        let bytes = self.ops.len() * (1 + 2 * 4) + self.children.len() * 4;
        crate::stats::record_flatten(bytes);
        FlatBool {
            ops: self.ops,
            a: self.a,
            b: self.b,
            children: self.children,
        }
    }
}

/// A flattened boolean program (see the module docs).
#[derive(Clone, Debug)]
pub struct FlatBool {
    ops: Vec<BOp>,
    a: Vec<u32>,
    b: Vec<u32>,
    children: Vec<u32>,
}

impl FlatBool {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always false: sealed programs have at least one node.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Evaluates the program on a world (`assignment[v]` is variable `v`;
    /// out-of-range variables read as false). `values` is a reusable
    /// per-node scratch buffer.
    pub fn eval_into(&self, assignment: &[bool], values: &mut Vec<bool>) -> bool {
        values.clear();
        values.reserve(self.ops.len());
        let val = |vals: &[bool], i: u32| -> bool {
            match vals.get(i as usize) {
                Some(&v) => v,
                None => false,
            }
        };
        for i in 0..self.ops.len() {
            let op = match self.ops.get(i) {
                Some(&op) => op,
                None => break,
            };
            let a = match self.a.get(i) {
                Some(&a) => a,
                None => 0,
            };
            let v = match op {
                BOp::Const0 => false,
                BOp::Const1 => true,
                BOp::Var => match assignment.get(a as usize) {
                    Some(&b) => b,
                    None => false,
                },
                BOp::Not => !val(values, a),
                BOp::All | BOp::Any => {
                    let len = match self.b.get(i) {
                        Some(&l) => l as usize,
                        None => 0,
                    };
                    let kids = match self.children.get(a as usize..a as usize + len) {
                        Some(k) => k,
                        None => &[],
                    };
                    if op == BOp::All {
                        kids.iter().all(|&k| val(values, k))
                    } else {
                        kids.iter().any(|&k| val(values, k))
                    }
                }
            };
            values.push(v);
        }
        match values.last() {
            Some(&v) => v,
            None => false,
        }
    }

    /// Convenience evaluation with a throwaway scratch buffer.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        let mut values = Vec::new();
        self.eval_into(assignment, &mut values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (x0 ∧ ¬x1) ∨ (x1 ∧ x2)
    fn sample() -> FlatBool {
        let mut b = BoolBuilder::new();
        let x0 = b.push_var(0);
        let x1 = b.push_var(1);
        let x2 = b.push_var(2);
        let n1 = b.push_not(x1);
        let t1 = b.push_all(&[x0, n1]);
        let t2 = b.push_all(&[x1, x2]);
        b.push_any(&[t1, t2]);
        b.finish()
    }

    #[test]
    fn matches_truth_table() {
        let f = sample();
        for mask in 0u32..8 {
            let w: Vec<bool> = (0..3).map(|v| mask >> v & 1 == 1).collect();
            let expected = (w[0] && !w[1]) || (w[1] && w[2]);
            assert_eq!(f.eval(&w), expected, "mask={mask}");
        }
    }

    #[test]
    fn reusable_scratch_and_edge_cases() {
        let f = sample();
        let mut scratch = Vec::new();
        assert!(f.eval_into(&[true, false, false], &mut scratch));
        assert!(!f.eval_into(&[false, false, true], &mut scratch));
        // Out-of-range variables read false, not a panic.
        assert!(!f.eval_into(&[], &mut scratch));
        // Empty builder is the constant false.
        assert!(!BoolBuilder::new().finish().eval(&[true]));
        assert_eq!(BoolBuilder::new().len(), 0);
        assert!(BoolBuilder::new().is_empty());
    }

    #[test]
    fn empty_spans_behave_like_identities() {
        let mut b = BoolBuilder::new();
        b.push_all(&[]);
        assert!(b.finish().eval(&[]), "empty conjunction is true");
        let mut b = BoolBuilder::new();
        b.push_any(&[]);
        assert!(!b.finish().eval(&[]), "empty disjunction is false");
    }
}
