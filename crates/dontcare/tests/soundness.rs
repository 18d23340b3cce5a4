//! Soundness of the don't-care engines on random networks: every windowed
//! classification must be a subset of the exact (BDD) one, and the exact one
//! must agree with brute force.

use als_dontcare::{compute_dont_cares, compute_exact_dont_cares, DontCareConfig, DontCareMethod};
use als_logic::{Cover, Cube};
use als_network::{Network, NodeId};
use proptest::prelude::*;

const NUM_PIS: usize = 4;

fn build_network(recipe: &[(u8, u8, u8)]) -> Network {
    let mut net = Network::new("random");
    let mut signals: Vec<NodeId> = (0..NUM_PIS).map(|i| net.add_pi(format!("x{i}"))).collect();
    for (idx, &(sel_a, sel_b, kind)) in recipe.iter().enumerate() {
        let a = signals[sel_a as usize % signals.len()];
        let mut b = signals[sel_b as usize % signals.len()];
        if a == b {
            b = signals[(sel_b as usize + 1) % signals.len()];
        }
        if a == b {
            continue;
        }
        let cover = match kind % 4 {
            0 => Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)]).unwrap()]),
            1 => Cover::from_cubes(
                2,
                [
                    Cube::from_literals(&[(0, true)]).unwrap(),
                    Cube::from_literals(&[(1, true)]).unwrap(),
                ],
            ),
            2 => Cover::from_cubes(
                2,
                [
                    Cube::from_literals(&[(0, true), (1, false)]).unwrap(),
                    Cube::from_literals(&[(0, false), (1, true)]).unwrap(),
                ],
            ),
            _ => Cover::from_cubes(2, [Cube::from_literals(&[(0, false), (1, false)]).unwrap()]),
        };
        let id = net.add_node(format!("g{idx}"), vec![a, b], cover);
        signals.push(id);
    }
    let driver = *signals.last().expect("non-empty");
    net.add_po("y", driver);
    net
}

/// Brute-force SDC/ODC classification of `pivot` by exhaustive PI sweep.
fn brute_force(net: &Network, pivot: NodeId) -> (Vec<bool>, Vec<bool>) {
    let fanins = net.node(pivot).fanins().to_vec();
    let k = fanins.len();
    let mut reachable = vec![false; 1 << k];
    let mut observable = vec![false; 1 << k];
    for m in 0..(1u64 << NUM_PIS) {
        let pis: Vec<bool> = (0..NUM_PIS).map(|i| m >> i & 1 == 1).collect();
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
        reachable[pattern] = true;
        // Flip the pivot and re-propagate.
        let mut fvals = vals.clone();
        fvals.insert(pivot, !vals[&pivot]);
        for id in net.topo_order() {
            let node = net.node(id);
            if node.is_pi() || id == pivot {
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
        if net.pos().iter().any(|(_, d)| vals[d] != fvals[d]) {
            observable[pattern] = true;
        }
    }
    let sdc: Vec<bool> = reachable.iter().map(|&r| !r).collect();
    let odc: Vec<bool> = reachable
        .iter()
        .zip(&observable)
        .map(|(&r, &o)| r && !o)
        .collect();
    (sdc, odc)
}

fn arb_recipe() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exact_engine_matches_brute_force(recipe in arb_recipe(), pick in any::<u8>()) {
        let net = build_network(&recipe);
        let internals: Vec<NodeId> = net.internal_ids().collect();
        prop_assume!(!internals.is_empty());
        let pivot = internals[pick as usize % internals.len()];
        let exact = compute_exact_dont_cares(&net, pivot, 1 << 18).unwrap();
        let (sdc, odc) = brute_force(&net, pivot);
        for v in 0..sdc.len() {
            prop_assert_eq!(exact.is_sdc(v), sdc[v], "sdc at {:b}", v);
            prop_assert_eq!(exact.is_odc(v), odc[v], "odc at {:b}", v);
        }
    }

    /// The engine differential: sweeping every internal node as a pivot,
    /// SAT, exhaustive window enumeration and `Auto` must produce
    /// *identical* SDC/ODC classifications — not merely mutually sound ones.
    /// `Auto` runs twice: at the default leaf limit, and at a limit of 2,
    /// below most of these windows, so that it takes both of its branches.
    #[test]
    fn sat_enumeration_and_auto_classify_identically(recipe in arb_recipe()) {
        let net = build_network(&recipe);
        let internals: Vec<NodeId> = net.internal_ids().collect();
        prop_assume!(!internals.is_empty());
        let with = |method, max_enumerated_leaves| DontCareConfig {
            method,
            max_enumerated_leaves,
            ..DontCareConfig::default()
        };
        let sat_cfg = with(DontCareMethod::Sat, 14);
        let others = [
            with(DontCareMethod::Enumerate, 14),
            with(DontCareMethod::Auto, 14),
            with(DontCareMethod::Auto, 2),
        ];
        for &pivot in &internals {
            let a = compute_dont_cares(&net, pivot, &sat_cfg);
            let k = a.num_fanins();
            for cfg in &others {
                let b = compute_dont_cares(&net, pivot, cfg);
                prop_assert_eq!(k, b.num_fanins());
                for v in 0..(1usize << k) {
                    prop_assert_eq!(a.is_sdc(v), b.is_sdc(v), "sat vs {:?} sdc at {:b}", cfg, v);
                    prop_assert_eq!(a.is_odc(v), b.is_odc(v), "sat vs {:?} odc at {:b}", cfg, v);
                }
            }
        }
    }

    #[test]
    fn windowed_engines_are_sound(recipe in arb_recipe(), pick in any::<u8>()) {
        let net = build_network(&recipe);
        let internals: Vec<NodeId> = net.internal_ids().collect();
        prop_assume!(!internals.is_empty());
        let pivot = internals[pick as usize % internals.len()];
        let (sdc, odc) = brute_force(&net, pivot);
        for method in [DontCareMethod::Enumerate, DontCareMethod::Sat, DontCareMethod::Auto] {
            let cfg = DontCareConfig { method, ..DontCareConfig::default() };
            let w = compute_dont_cares(&net, pivot, &cfg);
            for v in 0..sdc.len() {
                if w.is_sdc(v) {
                    prop_assert!(sdc[v], "{:?} claims false SDC at {:b}", method, v);
                }
                if w.is_odc(v) {
                    // A windowed ODC must at least be a true don't-care
                    // (brute-force ODC or SDC).
                    prop_assert!(odc[v] || sdc[v], "{:?} claims false ODC at {:b}", method, v);
                }
            }
        }
    }
}
