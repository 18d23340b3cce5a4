//! Property-based integration tests: the algorithms' contracts must hold on
//! arbitrary small random networks, with the true error rate measured
//! exhaustively.

use als::core::{approximate, AlsConfig};
use als::logic::{Cover, Cube};
use als::network::{Network, NodeId};
use als::sim::{error_rate, PatternSet};
use proptest::prelude::*;

const NUM_PIS: usize = 5;

/// Builds a random layered network from a compact recipe.
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
    // Last few signals become outputs.
    let n_po = 2.min(signals.len() - NUM_PIS).max(1);
    for (i, &s) in signals.iter().rev().take(n_po).enumerate() {
        net.add_po(format!("y{i}"), s);
    }
    net
}

fn arb_recipe() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 3..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_selection_contract(recipe in arb_recipe(), t_pct in 0u8..15) {
        let golden = build_network(&recipe);
        prop_assume!(golden.num_internal() > 0);
        let threshold = f64::from(t_pct) / 100.0;
        let mut config = AlsConfig::with_threshold(threshold);
        config.patterns = 4096; // ≈128 samples of each of the 32 input points
        let outcome = approximate(&golden, als::Strategy::Single, &config).unwrap();
        outcome.network.check().unwrap();
        prop_assert!(outcome.final_literals <= outcome.initial_literals);
        let patterns = PatternSet::exhaustive(NUM_PIS).unwrap();
        let true_er = error_rate(&golden, &outcome.network, &patterns);
        // 4096 random draws over 32 input points: the sampled rate is
        // near-exact; the slack covers multinomial weighting noise.
        prop_assert!(true_er <= threshold + 0.08, "true {true_er} budget {threshold}");
    }

    #[test]
    fn multi_selection_contract(recipe in arb_recipe(), t_pct in 0u8..15) {
        let golden = build_network(&recipe);
        prop_assume!(golden.num_internal() > 0);
        let threshold = f64::from(t_pct) / 100.0;
        let mut config = AlsConfig::with_threshold(threshold);
        config.patterns = 4096;
        let outcome = approximate(&golden, als::Strategy::Multi, &config).unwrap();
        outcome.network.check().unwrap();
        prop_assert!(outcome.final_literals <= outcome.initial_literals);
        let patterns = PatternSet::exhaustive(NUM_PIS).unwrap();
        let true_er = error_rate(&golden, &outcome.network, &patterns);
        prop_assert!(true_er <= threshold + 0.08, "true {true_er} budget {threshold}");
    }

    #[test]
    fn sasimi_contract(recipe in arb_recipe(), t_pct in 0u8..15) {
        let golden = build_network(&recipe);
        prop_assume!(golden.num_internal() > 0);
        let threshold = f64::from(t_pct) / 100.0;
        let mut config = AlsConfig::with_threshold(threshold);
        config.patterns = 4096;
        let outcome = approximate(&golden, als::Strategy::Sasimi, &config).unwrap();
        outcome.network.check().unwrap();
        prop_assert!(outcome.final_literals <= outcome.initial_literals);
        let patterns = PatternSet::exhaustive(NUM_PIS).unwrap();
        let true_er = error_rate(&golden, &outcome.network, &patterns);
        prop_assert!(true_er <= threshold + 0.08, "true {true_er} budget {threshold}");
    }

    #[test]
    fn zero_budget_preserves_function(recipe in arb_recipe()) {
        let golden = build_network(&recipe);
        prop_assume!(golden.num_internal() > 0);
        let mut config = AlsConfig::with_threshold(0.0);
        config.patterns = 4096;
        let patterns = PatternSet::exhaustive(NUM_PIS).unwrap();
        for outcome in [
            approximate(&golden, als::Strategy::Single, &config).unwrap(),
            approximate(&golden, als::Strategy::Multi, &config).unwrap(),
        ] {
            // At a zero budget the output must be functionally identical —
            // redundancy removal and exact ASEs only.
            prop_assert_eq!(error_rate(&golden, &outcome.network, &patterns), 0.0);
        }
    }
}
