//! Exact (global, non-windowed) SDC/ODC computation via BDDs.
//!
//! The paper's estimate uses *windowed* don't-cares — a sound subset. This
//! module computes the **complete** sets for networks whose BDDs stay small,
//! which lets us (a) quantify how much the 2×2 window loses (the
//! `ablation` bench) and (b) drive the single-selection estimate with exact
//! don't-cares as an upper-bound-tightening option.

use crate::compute::DontCares;
use als_bdd::{network_bdds, structural_pi_order, Bdd, BddError, BddManager};
use als_network::{Network, NodeId, NodeKind};
use std::collections::HashMap;

/// Computes the exact SDC and ODC sets of `pivot`'s local input patterns by
/// global BDD analysis:
///
/// * pattern `v` is an **SDC** iff no PI assignment drives the fanins to
///   `v`;
/// * pattern `v` is an **ODC** iff it is reachable but no PI assignment
///   producing `v` propagates a flipped pivot value to any PO.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] when the network's BDDs exceed
/// `node_limit` (multiplier-like structures); fall back to the windowed
/// engines in that case.
///
/// # Panics
///
/// Panics if `pivot` is not a live internal node, or has more than 16
/// fanins.
pub fn compute_exact_dont_cares(
    net: &Network,
    pivot: NodeId,
    node_limit: usize,
) -> Result<DontCares, BddError> {
    assert!(net.is_live(pivot), "pivot must be live");
    let k = net.node(pivot).fanins().len();
    assert!(k <= 16, "local-pattern enumeration limited to 16 fanins");

    let mut mgr = BddManager::new(net.num_pis(), node_limit);
    let order = structural_pi_order(net);

    // Golden PO functions and, along the way, every internal node's global
    // function (we rebuild them here rather than reuse network_bdds so we
    // can also capture the fanin functions).
    let mut of_node: HashMap<NodeId, Bdd> = HashMap::new();
    for (i, &pi) in net.pis().iter().enumerate() {
        of_node.insert(pi, mgr.var(order[i])?);
    }
    for id in net.topo_order() {
        let node = net.node(id);
        if node.kind() != NodeKind::Internal {
            continue;
        }
        let mut acc = mgr.zero();
        for cube in node.cover().cubes() {
            let mut term = mgr.one();
            for (var, phase) in cube.literals() {
                let fanin = of_node[&node.fanins()[var]];
                let lit = if phase { fanin } else { mgr.not(fanin)? };
                term = mgr.and(term, lit)?;
            }
            acc = mgr.or(acc, term)?;
        }
        of_node.insert(id, acc);
    }

    // Flipped copy: pivot inverted, downstream nodes recomputed.
    let flipped_net = {
        let mut copy = net.clone();
        let expr = copy.node(pivot).expr().clone();
        let inverted = invert_expr(&expr);
        copy.replace_expr(pivot, inverted);
        copy
    };
    let flipped_pos = network_bdds(&flipped_net, &mut mgr, &order)?;

    // Miter over the POs.
    let golden_pos: Vec<Bdd> = net.pos().iter().map(|(_, d)| of_node[d]).collect();
    let mut miter = mgr.zero();
    for (g, a) in golden_pos.iter().zip(&flipped_pos) {
        let d = mgr.xor(*g, *a)?;
        miter = mgr.or(miter, d)?;
    }

    // Classify each local pattern.
    let fanin_bdds: Vec<Bdd> = net
        .node(pivot)
        .fanins()
        .iter()
        .map(|f| of_node[f])
        .collect();
    let mut sdc = vec![false; 1 << k];
    let mut odc = vec![false; 1 << k];
    for v in 0..(1usize << k) {
        let mut cond = mgr.one();
        for (i, &fb) in fanin_bdds.iter().enumerate() {
            let lit = if v >> i & 1 == 1 { fb } else { mgr.not(fb)? };
            cond = mgr.and(cond, lit)?;
        }
        if cond == mgr.zero() {
            sdc[v] = true;
            continue;
        }
        let observable = mgr.and(cond, miter)?;
        if observable == mgr.zero() {
            odc[v] = true;
        }
    }
    Ok(DontCares::from_classification(k, sdc, odc))
}

/// Negates a factored expression by De Morgan.
fn invert_expr(expr: &als_logic::Expr) -> als_logic::Expr {
    use als_logic::Expr;
    match expr {
        Expr::Const(b) => Expr::Const(!b),
        Expr::Lit { var, phase } => Expr::lit(*var, !phase),
        Expr::And(children) => Expr::or(children.iter().map(invert_expr).collect()),
        Expr::Or(children) => Expr::and(children.iter().map(invert_expr).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compute_dont_cares, DontCareConfig, DontCareMethod};
    use als_logic::{Cover, Cube};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// The paper's Fig. 1 network.
    fn fig1() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("fig1");
        let i0 = net.add_pi("i0");
        let i1 = net.add_pi("i1");
        let i2 = net.add_pi("i2");
        let i3 = net.add_pi("i3");
        let n1 = net.add_node(
            "n1",
            vec![i1, i2],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let n2 = net.add_node(
            "n2",
            vec![n1, i3],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let f = net.add_node(
            "f",
            vec![i0, n2, n1],
            Cover::from_cubes(
                3,
                [
                    cube(&[(0, true), (1, true)]),
                    cube(&[(0, false), (2, true)]),
                ],
            ),
        );
        net.add_po("f", f);
        (net, n1, n2)
    }

    #[test]
    fn windowed_is_a_subset_of_exact() {
        let (net, n1, n2) = fig1();
        for node in [n1, n2] {
            let exact = compute_exact_dont_cares(&net, node, 1 << 20).unwrap();
            for method in [
                DontCareMethod::Enumerate,
                DontCareMethod::Sat,
                DontCareMethod::Auto,
            ] {
                let cfg = DontCareConfig {
                    method,
                    ..DontCareConfig::default()
                };
                let windowed = compute_dont_cares(&net, node, &cfg);
                for v in 0..(1 << exact.num_fanins()) {
                    if windowed.is_sdc(v) {
                        assert!(exact.is_sdc(v), "{node:?} {v:b}: windowed SDC not exact");
                    }
                    if windowed.is_odc(v) {
                        assert!(
                            exact.is_dont_care(v),
                            "{node:?} {v:b}: windowed ODC not exact DC"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_finds_the_fig1_partial_odc() {
        // The window around n2 sees the masking at f directly, but *exact*
        // analysis additionally knows the PI-level reachability: for n2's
        // fanins (n1, i3), pattern (1,1) occurs for PI patterns 0111 and
        // 1111 and only the latter propagates — so it is NOT an ODC (some
        // assignment propagates). Pattern (1,0) → n2=0 already... exact
        // must agree with brute force; check against it.
        let (net, _n1, n2) = fig1();
        let exact = compute_exact_dont_cares(&net, n2, 1 << 20).unwrap();
        // Brute force over the 16 PI patterns.
        let fanins = net.node(n2).fanins().to_vec();
        for v in 0..4usize {
            let mut reachable = false;
            let mut observable = false;
            for m in 0..16u64 {
                let pis: Vec<bool> = (0..4).map(|i| m >> i & 1 == 1).collect();
                // Evaluate fanin values.
                let mut vals = std::collections::HashMap::new();
                for (i, &pi) in net.pis().iter().enumerate() {
                    vals.insert(pi, pis[i]);
                }
                for id in net.topo_order() {
                    let node = net.node(id);
                    if node.is_pi() {
                        continue;
                    }
                    let mut a = 0u64;
                    for (i, &f) in node.fanins().iter().enumerate() {
                        if vals[&f] {
                            a |= 1 << i;
                        }
                    }
                    vals.insert(id, node.expr().eval(a));
                }
                let pattern = fanins
                    .iter()
                    .enumerate()
                    .fold(0usize, |acc, (i, f)| acc | (usize::from(vals[f]) << i));
                if pattern != v {
                    continue;
                }
                reachable = true;
                // Flip n2 and re-evaluate the PO.
                let mut fvals = vals.clone();
                fvals.insert(n2, !vals[&n2]);
                for id in net.topo_order() {
                    let node = net.node(id);
                    if node.is_pi() || id == n2 {
                        continue;
                    }
                    let mut a = 0u64;
                    for (i, &f) in node.fanins().iter().enumerate() {
                        if fvals[&f] {
                            a |= 1 << i;
                        }
                    }
                    fvals.insert(id, node.expr().eval(a));
                }
                let po = net.pos()[0].1;
                if vals[&po] != fvals[&po] {
                    observable = true;
                }
            }
            assert_eq!(exact.is_sdc(v), !reachable, "pattern {v:02b} sdc");
            assert_eq!(
                exact.is_odc(v),
                reachable && !observable,
                "pattern {v:02b} odc"
            );
        }
    }

    #[test]
    fn exact_on_masked_node() {
        // y = n OR a with n = a·b: a=1 patterns are exact ODCs of n.
        let mut net = Network::new("odc");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let n = net.add_node(
            "n",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let y = net.add_node(
            "y",
            vec![n, a],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        net.add_po("y", y);
        let exact = compute_exact_dont_cares(&net, n, 1 << 20).unwrap();
        assert!(exact.is_odc(0b01)); // a=1, b=0
        assert!(exact.is_odc(0b11)); // a=1, b=1
        assert!(!exact.is_dont_care(0b00));
        assert!(!exact.is_dont_care(0b10));
    }
}
