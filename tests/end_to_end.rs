//! End-to-end integration tests spanning every crate: generate → preprocess
//! → approximate → verify → map.

use als::circuits::{all_benchmarks, ripple_carry_adder, wallace_tree_multiplier};
use als::core::{approximate, AlsConfig, Strategy};
use als::mapper::{map_network, Library};
use als::network::blif;
use als::sim::{error_rate, PatternSet};

fn quick_config(threshold: f64) -> AlsConfig {
    let mut config = AlsConfig::with_threshold(threshold);
    config.patterns = 2048;
    config
}

#[test]
fn all_algorithms_respect_threshold_exhaustively() {
    // Small circuit with few PIs → the true error rate is exactly
    // measurable, independent of the synthesis-time sampling.
    let golden = wallace_tree_multiplier(3); // 6 PIs, 64 patterns
    let patterns = PatternSet::exhaustive(6).unwrap();
    for threshold in [0.0, 0.02, 0.05, 0.10] {
        let config = quick_config(threshold);
        for (name, outcome) in [
            (
                "single",
                approximate(&golden, Strategy::Single, &config).unwrap(),
            ),
            (
                "multi",
                approximate(&golden, Strategy::Multi, &config).unwrap(),
            ),
            (
                "sasimi",
                approximate(&golden, Strategy::Sasimi, &config).unwrap(),
            ),
        ] {
            outcome.network.check().unwrap();
            let true_er = error_rate(&golden, &outcome.network, &patterns);
            // Sampling noise at 2048 patterns is ~1% at these rates.
            assert!(
                true_er <= threshold + 0.03,
                "{name}@{threshold}: true error rate {true_er}"
            );
        }
    }
}

#[test]
fn approximation_then_mapping_preserves_claimed_function() {
    let golden = ripple_carry_adder(8);
    let config = quick_config(0.05);
    let outcome = approximate(&golden, Strategy::Multi, &config).unwrap();
    let lib = Library::mcnc_like();
    let mapped = map_network(&outcome.network, &lib);
    // The mapped netlist must equal the approximate network exactly.
    let mut state = 7u64;
    for _ in 0..200 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let pis: Vec<bool> = (0..16).map(|i| state >> i & 1 == 1).collect();
        assert_eq!(outcome.network.eval(&pis), mapped.eval(&pis));
    }
}

#[test]
fn blif_roundtrip_preserves_approximate_network() {
    let golden = ripple_carry_adder(4);
    let outcome = approximate(&golden, Strategy::Single, &quick_config(0.08)).unwrap();
    let text = blif::write(&outcome.network);
    let reparsed = blif::parse(&text).unwrap();
    let patterns = PatternSet::exhaustive(8).unwrap();
    assert_eq!(
        error_rate(&outcome.network, &reparsed, &patterns),
        0.0,
        "write→parse must be exact"
    );
}

#[test]
fn every_benchmark_survives_a_quick_multi_selection() {
    for bench in all_benchmarks() {
        let golden = (bench.build)();
        let mut config = quick_config(0.03);
        config.max_iterations = 10; // keep CI time bounded
        let outcome = approximate(&golden, Strategy::Multi, &config).unwrap();
        outcome.network.check().unwrap();
        assert!(
            outcome.measured_error_rate <= 0.03 + 1e-12,
            "{}: {}",
            bench.name,
            outcome.measured_error_rate
        );
        assert!(
            outcome.final_literals <= outcome.initial_literals,
            "{} grew",
            bench.name
        );
    }
}

#[test]
fn algorithm_ordering_on_area_matches_paper_trend() {
    // The single-selection algorithm should never be (meaningfully) worse
    // than multi-selection on the same circuit, and both track SASIMI.
    let golden = (all_benchmarks()[1].build)(); // c1908-class: most headroom
    let config = quick_config(0.05);
    let single = approximate(&golden, Strategy::Single, &config).unwrap();
    let multi = approximate(&golden, Strategy::Multi, &config).unwrap();
    assert!(
        single.final_literals <= multi.final_literals + multi.final_literals / 10,
        "single {} vs multi {}",
        single.final_literals,
        multi.final_literals
    );
    // And multi takes no more iterations.
    assert!(multi.iterations.len() <= single.iterations.len().max(1));
}

#[test]
fn deterministic_per_seed() {
    let golden = ripple_carry_adder(6);
    let config = quick_config(0.05);
    let a = approximate(&golden, Strategy::Multi, &config).unwrap();
    let b = approximate(&golden, Strategy::Multi, &config).unwrap();
    assert_eq!(a.final_literals, b.final_literals);
    assert_eq!(a.measured_error_rate, b.measured_error_rate);
    let mut c2 = config;
    c2.seed = 999;
    // A different seed may change the sample, but never break the contract.
    let c = approximate(&golden, Strategy::Multi, &c2).unwrap();
    assert!(c.measured_error_rate <= 0.05 + 1e-12);
}
