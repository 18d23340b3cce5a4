//! Property-based tests: the structural operations of `als-network` must
//! preserve the global function on arbitrary random networks.

use als_logic::{Cover, Cube};
use als_network::{blif, Network, NodeId};
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
        let cover = match kind % 5 {
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
            3 => Cover::from_cubes(2, [Cube::from_literals(&[(0, false), (1, false)]).unwrap()]),
            _ => Cover::from_cubes(2, [Cube::from_literals(&[(0, false)]).unwrap()]),
        };
        let id = net.add_node(format!("g{idx}"), vec![a, b], cover);
        signals.push(id);
    }
    let n_po = 2.min(signals.len() - NUM_PIS).max(1);
    for (i, &s) in signals.iter().rev().take(n_po).enumerate() {
        net.add_po(format!("y{i}"), s);
    }
    net
}

fn truth_vectors(net: &Network) -> Vec<Vec<bool>> {
    (0..(1u32 << NUM_PIS))
        .map(|m| net.eval(&(0..NUM_PIS).map(|i| m >> i & 1 == 1).collect::<Vec<_>>()))
        .collect()
}

fn arb_recipe() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 2..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweep_preserves_function(recipe in arb_recipe()) {
        let mut net = build_network(&recipe);
        prop_assume!(net.num_internal() > 0);
        let before = truth_vectors(&net);
        net.sweep();
        net.check().unwrap();
        prop_assert_eq!(truth_vectors(&net), before);
        // Swept slots stay in the arena as tombstones.
        prop_assert_eq!(net.arena_len(), net.fanouts().len());
    }

    #[test]
    fn eliminate_preserves_function(recipe in arb_recipe(), threshold in -2i64..20) {
        let mut net = build_network(&recipe);
        prop_assume!(net.num_internal() > 0);
        let before = truth_vectors(&net);
        net.eliminate(threshold);
        net.check().unwrap();
        prop_assert_eq!(truth_vectors(&net), before);
    }

    #[test]
    fn propagate_constants_preserves_function(recipe in arb_recipe(), victim in any::<u8>(), value in any::<bool>()) {
        let mut net = build_network(&recipe);
        let internals: Vec<NodeId> = net.internal_ids().collect();
        prop_assume!(!internals.is_empty());
        // Introduce a constant, then check propagation keeps the new function.
        let v = internals[victim as usize % internals.len()];
        net.replace_with_constant(v, value);
        let before = truth_vectors(&net);
        net.propagate_constants();
        net.check().unwrap();
        prop_assert_eq!(truth_vectors(&net), before);
    }

    #[test]
    fn blif_roundtrip_preserves_function(recipe in arb_recipe()) {
        let net = build_network(&recipe);
        prop_assume!(net.num_internal() > 0);
        let text = blif::write(&net);
        let reparsed = blif::parse(&text).unwrap();
        prop_assert_eq!(reparsed.num_pis(), net.num_pis());
        prop_assert_eq!(truth_vectors(&reparsed), truth_vectors(&net));
    }

    #[test]
    fn blif_write_parse_write_is_textually_stable(recipe in arb_recipe()) {
        // parse → write must be a fixed point: the first write settles
        // naming and ordering, and a second round-trip reproduces the
        // text byte for byte (the CLI relies on this for diffable output).
        let net = build_network(&recipe);
        prop_assume!(net.num_internal() > 0);
        let text = blif::write(&net);
        let reparsed = blif::parse(&text).unwrap();
        prop_assert_eq!(blif::write(&reparsed), text);
    }

    #[test]
    fn truncated_blif_never_panics(recipe in arb_recipe(), cut_permille in 0u16..1000) {
        // Feeding any prefix of a valid file back to the parser must
        // produce a clean `Err` (or a smaller valid network), never a
        // panic — `als check` runs on arbitrary user files.
        let net = build_network(&recipe);
        prop_assume!(net.num_internal() > 0);
        let text = blif::write(&net);
        let cut = text.len() * cut_permille as usize / 1000;
        let _ = blif::parse(&text[..cut]);
    }

    #[test]
    fn replace_expr_roundtrip_is_identity(recipe in arb_recipe(), victim in any::<u8>()) {
        let mut net = build_network(&recipe);
        let internals: Vec<NodeId> = net.internal_ids().collect();
        prop_assume!(!internals.is_empty());
        let v = internals[victim as usize % internals.len()];
        let before = truth_vectors(&net);
        let expr = net.node(v).expr().clone();
        net.replace_expr(v, expr);
        net.check().unwrap();
        prop_assert_eq!(truth_vectors(&net), before);
    }

    #[test]
    fn global_functions_agree_with_eval(recipe in arb_recipe()) {
        let net = build_network(&recipe);
        let tts = net.global_functions();
        for m in 0..(1u64 << NUM_PIS) {
            let pis: Vec<bool> = (0..NUM_PIS).map(|i| m >> i & 1 == 1).collect();
            let values = net.eval(&pis);
            for (tt, v) in tts.iter().zip(&values) {
                prop_assert_eq!(tt.get(m), *v);
            }
        }
    }
}
