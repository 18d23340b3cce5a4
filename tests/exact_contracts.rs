//! Exact (BDD/SAT) verification of the algorithms' contracts — no sampling
//! slack: the synthesized circuits' true error rates are computed over the
//! full input space.

use als::bdd::exact_error_rate;
use als::check::{cec, CecResult};
use als::circuits::{carry_lookahead_adder, kogge_stone_adder, ripple_carry_adder};
use als::core::{approximate, AlsConfig, Strategy};

const NODE_LIMIT: usize = 1 << 22;

#[test]
fn zero_budget_runs_are_provably_equivalent() {
    // 2^24 input vectors — impossible to sweep, trivial to certify.
    let circuits = [
        ripple_carry_adder(12),
        carry_lookahead_adder(12),
        kogge_stone_adder(12),
    ];
    let config = AlsConfig::with_threshold(0.0);
    for golden in &circuits {
        for outcome in [
            approximate(golden, Strategy::Single, &config).unwrap(),
            approximate(golden, Strategy::Multi, &config).unwrap(),
            approximate(golden, Strategy::Sasimi, &config).unwrap(),
        ] {
            assert_eq!(
                cec(golden, &outcome.network),
                CecResult::Equivalent,
                "{}: zero budget must preserve the function",
                golden.name()
            );
            assert_eq!(
                exact_error_rate(golden, &outcome.network, NODE_LIMIT).unwrap(),
                0.0
            );
        }
    }
}

#[test]
fn exact_error_tracks_sampled_error() {
    let golden = kogge_stone_adder(10);
    for threshold in [0.01, 0.05] {
        let config = AlsConfig::with_threshold(threshold);
        let outcome = approximate(&golden, Strategy::Multi, &config).unwrap();
        let exact = exact_error_rate(&golden, &outcome.network, NODE_LIMIT).unwrap();
        // The synthesis-time estimate is a 10 048-vector sample of the exact
        // rate; the binomial standard error at these rates is < 0.004.
        assert!(
            (exact - outcome.measured_error_rate).abs() < 0.02,
            "exact {exact} vs sampled {} at {threshold}",
            outcome.measured_error_rate
        );
        assert!(
            exact <= threshold + 0.02,
            "exact rate {exact} blows the {threshold} budget"
        );
    }
}

#[test]
fn nonzero_error_implies_cec_counterexample() {
    let golden = kogge_stone_adder(8);
    let config = AlsConfig::with_threshold(0.05);
    let outcome = approximate(&golden, Strategy::Multi, &config).unwrap();
    let exact = exact_error_rate(&golden, &outcome.network, NODE_LIMIT).unwrap();
    match cec(&golden, &outcome.network) {
        CecResult::Equivalent => assert_eq!(exact, 0.0),
        CecResult::Counterexample(pis) => {
            assert!(exact > 0.0);
            assert_ne!(
                golden.eval(&pis),
                outcome.network.eval(&pis),
                "the witness must actually distinguish the circuits"
            );
        }
        CecResult::InterfaceMismatch => panic!("interfaces are identical"),
    }
}

#[test]
fn classical_optimizer_is_provably_function_preserving() {
    use als::core::classical::optimize_classical;
    let golden = carry_lookahead_adder(10);
    let mut optimized = golden.clone();
    let config = AlsConfig::default();
    optimize_classical(&mut optimized, &config);
    assert_eq!(cec(&golden, &optimized), CecResult::Equivalent);
}
