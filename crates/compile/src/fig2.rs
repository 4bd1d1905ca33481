//! The two circuits of the paper's Figure 2, constructed verbatim.
//!
//! (a) An FBDD representing `(¬X)YZ ∨ XY ∨ XZ`.
//! (b) A decision-DNNF representing `(¬X)YZU ∨ XYZ ∨ XZU`.
//!
//! Variable numbering: `X = 0, Y = 1, Z = 2, U = 3`.

use crate::ddnnf::{DdnnfNode, DecisionDnnf};
use crate::fbdd::Fbdd;

/// Variable `X`.
pub const X: u32 = 0;
/// Variable `Y`.
pub const Y: u32 = 1;
/// Variable `Z`.
pub const Z: u32 = 2;
/// Variable `U`.
pub const U: u32 = 3;

/// The reference function of Fig. 2(a): `(¬X)YZ ∨ XY ∨ XZ`.
#[allow(clippy::nonminimal_bool)] // written exactly as the figure's formula
pub fn fig2a_function(x: bool, y: bool, z: bool) -> bool {
    (!x && y && z) || (x && y) || (x && z)
}

/// The reference function of Fig. 2(b): `(¬X)YZU ∨ XYZ ∨ XZU`.
#[allow(clippy::nonminimal_bool)] // written exactly as the figure's formula
pub fn fig2b_function(x: bool, y: bool, z: bool, u: bool) -> bool {
    (!x && y && z && u) || (x && y && z) || (x && z && u)
}

/// Figure 2(a): the FBDD.
///
/// On `X = 0` the paths check `Y` then `Z`; on `X = 1` they check `Y`, and
/// on `Y = 0` fall through to `Z`. The `Z?` test is shared between the two
/// branches (DAG sharing), giving four decision nodes; every path reads each
/// variable at most once.
pub fn fig2a_fbdd() -> Fbdd {
    let nodes = vec![
        DdnnfNode::True,  // 0
        DdnnfNode::False, // 1
        DdnnfNode::Decision {
            var: Z,
            hi: 0,
            lo: 1,
        }, // 2: Z?
        DdnnfNode::Decision {
            var: Y,
            hi: 2,
            lo: 1,
        }, // 3: X=0 branch: Y then Z
        DdnnfNode::Decision {
            var: Y,
            hi: 0,
            lo: 2,
        }, // 4: X=1 branch: Y, else Z
        DdnnfNode::Decision {
            var: X,
            hi: 4,
            lo: 3,
        }, // 5: root
    ];
    Fbdd::from_nodes(nodes, 5).expect("Fig. 2(a) is a valid FBDD")
}

/// Figure 2(b): the decision-DNNF.
///
/// `X = 1` gives `Z ∧ (Y ∨ U)`: an independent-∧ node over the decision on
/// `Z` and a decision chain on `Y`/`U`. `X = 0` gives `Y ∧ Z ∧ U`, again an
/// independent-∧ of single-variable decisions (sharing the `Z?` and `U?`
/// subtrees with the other branch — the DAG sharing a DPLL cache provides).
pub fn fig2b_decision_dnnf() -> DecisionDnnf {
    let nodes = vec![
        DdnnfNode::True,  // 0
        DdnnfNode::False, // 1
        DdnnfNode::Decision {
            var: Z,
            hi: 0,
            lo: 1,
        }, // 2: Z?
        DdnnfNode::Decision {
            var: U,
            hi: 0,
            lo: 1,
        }, // 3: U?
        DdnnfNode::Decision {
            var: Y,
            hi: 0,
            lo: 3,
        }, // 4: Y ∨ U (as decisions)
        DdnnfNode::And {
            children: vec![2, 4],
        }, // 5: X=1: Z ∧ (Y ∨ U)
        DdnnfNode::Decision {
            var: Y,
            hi: 0,
            lo: 1,
        }, // 6: Y?
        DdnnfNode::And {
            children: vec![6, 2, 3],
        }, // 7: X=0: Y ∧ Z ∧ U
        DdnnfNode::Decision {
            var: X,
            hi: 5,
            lo: 7,
        }, // 8: root
    ];
    DecisionDnnf::new(nodes, 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indicators;
    use pdb_num::assert_close;

    #[test]
    fn fig2a_computes_its_formula() {
        let flat = fig2a_fbdd().flatten();
        for mask in 0u64..8 {
            let (x, y, z) = (mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1);
            let expected = f64::from(u8::from(fig2a_function(x, y, z)));
            assert_eq!(flat.eval(&indicators(mask, 3)), expected, "mask={mask}");
        }
    }

    #[test]
    fn fig2a_has_four_decision_nodes_with_sharing() {
        assert_eq!(fig2a_fbdd().decision_count(), 4);
    }

    #[test]
    fn fig2a_is_free_but_not_ordered() {
        let fbdd = fig2a_fbdd();
        // In this construction both branches read Y first, so it happens to
        // be orderable — the figure's point is freeness, which the
        // constructor's validation already checks. 4 decisions + 2 terminals.
        assert_eq!(fbdd.size(), 6);
    }

    #[test]
    fn fig2b_computes_its_formula() {
        let dd = fig2b_decision_dnnf();
        dd.validate()
            .expect("Fig. 2(b) satisfies d-DNNF invariants");
        let flat = dd.flatten();
        for mask in 0u64..16 {
            let (x, y, z, u) = (
                mask & 1 == 1,
                mask >> 1 & 1 == 1,
                mask >> 2 & 1 == 1,
                mask >> 3 & 1 == 1,
            );
            let expected = f64::from(u8::from(fig2b_function(x, y, z, u)));
            assert_eq!(flat.eval(&indicators(mask, 4)), expected, "mask={mask}");
        }
    }

    #[test]
    fn fig2b_has_and_nodes_and_sharing() {
        let dd = fig2b_decision_dnnf();
        assert_eq!(dd.and_count(), 2);
        // The Z? node is shared between the two ∧-nodes: total decisions is
        // 5, not 6.
        assert_eq!(dd.decision_count(), 5);
    }

    #[test]
    fn fig2b_probability_is_sound() {
        let dd = fig2b_decision_dnnf();
        let probs = [0.5, 0.5, 0.5, 0.5];
        // Count models: brute force over the reference function.
        let models = (0u32..16)
            .filter(|mask| {
                fig2b_function(
                    mask & 1 == 1,
                    mask >> 1 & 1 == 1,
                    mask >> 2 & 1 == 1,
                    mask >> 3 & 1 == 1,
                )
            })
            .count();
        assert_close(dd.probability(&probs), models as f64 / 16.0, 1e-12);
    }

    #[test]
    fn fig2a_probability_under_uniform_weights() {
        let fbdd = fig2a_fbdd();
        let models = (0u32..8)
            .filter(|mask| fig2a_function(mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1))
            .count();
        assert_close(
            fbdd.flatten().eval(&[0.5, 0.5, 0.5]),
            models as f64 / 8.0,
            1e-12,
        );
    }
}
