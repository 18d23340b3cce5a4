//! Classical (function-preserving) network simplification — the MIS/SIS
//! "simplify" operation the paper builds on (§3): each node's SOP is
//! re-minimized against its satisfiability and observability don't-cares,
//! computed with the same windowing engine the approximate flow uses. Unlike
//! the ASE-based algorithms, the *global* network function never changes.

use crate::AlsConfig;
use als_dontcare::{compute_dont_cares, DontCareConfig};
use als_logic::factor::factor_cover;
use als_logic::minimize::minimize_exactish;
use als_logic::TruthTable;
use als_network::{Network, NodeId};

/// Re-minimizes every node against its windowed don't-cares, accepting a
/// change only when the factored-form literal count shrinks. Nodes are
/// visited in topological order, one at a time, so each individual rewrite
/// is sound against the current network (the classical sequential-mfs
/// discipline). Returns the number of literals saved.
///
/// This is the "traditional logic synthesis" counterpart of the approximate
/// flow: run it first to get a well-optimized starting point, exactly as the
/// paper assumes of its benchmark netlists.
pub fn simplify_with_dont_cares(net: &mut Network, config: &DontCareConfig) -> usize {
    let before = net.literal_count();
    let order: Vec<NodeId> = net
        .topo_order()
        .into_iter()
        .filter(|&id| !net.node(id).is_pi())
        .collect();
    // Each node is classified against the current network: small windows
    // are enumerated and wider ones get a SAT solver of their own, so the
    // rewrites made so far are always seen.
    for id in order {
        if !net.is_live(id) {
            continue;
        }
        let node = net.node(id);
        let k = node.fanins().len();
        if k == 0 || k > 12 {
            continue;
        }
        let old_literals = node.literal_count();
        if old_literals == 0 {
            continue;
        }
        let tt = node.cover().to_truth_table();
        let dc = compute_dont_cares(net, id, config);
        let mut dc_tt = TruthTable::zero(k).expect("fanin count bounded"); // lint:allow(panic): variable count validated by the caller
        for v in 0..(1u64 << k) {
            if dc.is_dont_care(v as usize) {
                // lint:allow(as-cast): local pattern index < 2^MAX_LOCAL_FANINS
                dc_tt.set(v, true);
            }
        }
        if dc_tt.is_zero() {
            continue;
        }
        let minimized = minimize_exactish(&tt, &dc_tt);
        let expr = factor_cover(&minimized);
        if expr.literal_count() < old_literals {
            net.replace_expr(id, expr);
        }
    }
    net.propagate_constants();
    net.sweep();
    before.saturating_sub(net.literal_count())
}

/// A convenient whole-flow optimizer: sweep, cheap eliminate, then
/// don't-care simplification — a small stand-in for a SIS script. Returns
/// the number of literals saved.
pub fn optimize_classical(net: &mut Network, config: &AlsConfig) -> usize {
    let before = net.literal_count();
    net.sweep();
    net.eliminate(-1);
    simplify_with_dont_cares(net, &config.dont_care);
    before.saturating_sub(net.literal_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    #[test]
    fn sdc_enables_node_shrinking() {
        // g = a·b; y = g·a (the literal a in y is redundant given g ⇒ a:
        // the pattern g=1, a=0 is an SDC).
        let mut net = Network::new("t");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let g = net.add_node(
            "g",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let y = net.add_node(
            "y",
            vec![g, a],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        net.add_po("y", y);

        let reference: Vec<Vec<bool>> = (0..4u32)
            .map(|m| net.eval(&[m & 1 == 1, m >> 1 & 1 == 1]))
            .collect();
        let saved = simplify_with_dont_cares(&mut net, &DontCareConfig::default());
        assert!(saved >= 1, "the redundant literal must disappear");
        net.check().unwrap();
        for (m, expect) in reference.iter().enumerate() {
            let pis = [m & 1 == 1, m >> 1 & 1 == 1];
            assert_eq!(&net.eval(&pis), expect, "function changed at {m:02b}");
        }
    }

    #[test]
    fn irredundant_network_is_untouched() {
        let mut net = Network::new("x");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let y = net.add_node(
            "y",
            vec![a, b],
            Cover::from_cubes(
                2,
                [
                    cube(&[(0, true), (1, false)]),
                    cube(&[(0, false), (1, true)]),
                ],
            ),
        );
        net.add_po("y", y);
        let before = net.literal_count();
        let saved = simplify_with_dont_cares(&mut net, &DontCareConfig::default());
        assert_eq!(saved, 0);
        assert_eq!(net.literal_count(), before);
    }

    #[test]
    fn optimize_classical_preserves_function_on_benchmarks() {
        use als_circuits::ripple_carry_adder;
        let mut net = ripple_carry_adder(4);
        let reference: Vec<Vec<bool>> = (0..256u32)
            .map(|m| net.eval(&(0..8).map(|i| m >> i & 1 == 1).collect::<Vec<_>>()))
            .collect();
        let config = AlsConfig::with_threshold(0.05);
        optimize_classical(&mut net, &config);
        net.check().unwrap();
        for (m, expect) in reference.iter().enumerate() {
            let pis: Vec<bool> = (0..8).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(&net.eval(&pis), expect, "minterm {m}");
        }
    }
}
