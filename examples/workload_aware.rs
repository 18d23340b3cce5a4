//! Workload-aware approximation: the error *rate* depends on the input
//! distribution, and the synthesis budget should be spent where the
//! application actually lives.
//!
//! The paper assumes uniform inputs (§6). Real error-tolerant applications
//! rarely are: here an 8-bit adder is used as an accumulator whose second
//! operand is a small delta (0..16). Under that workload the high half of
//! operand `b` is always zero, so a workload-aware run
//! ([`approximate_under`]) can strip logic a uniform run must keep —
//! at the price that the result is only valid *for that workload*, which
//! the example quantifies.
//!
//! Run with: `cargo run --release --example workload_aware`

use als::circuits::ripple_carry_adder;
use als::core::{approximate, approximate_under, AlsConfig, AlsError, Strategy};
use als::sim::{error_rate, PatternSet};

/// The accumulator workload: operand `a` uniform, operand `b` in 0..16.
fn accumulator_vectors(count: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let a = state & 0xFF;
            let b = (state >> 32) & 0x0F; // small deltas only
            a | (b << 8)
        })
        .collect()
}

fn main() -> Result<(), AlsError> {
    let golden = ripple_carry_adder(8);
    let budget = 0.05;
    let config = AlsConfig::with_threshold(budget);

    let workload = || PatternSet::from_vectors(16, &accumulator_vectors(10_048, 7));
    let uniform_patterns = PatternSet::random(16, 10_048, 99);

    // Uniform synthesis (the paper's setting).
    let uniform_run = approximate(&golden, Strategy::Single, &config)?;
    // Workload-aware synthesis: the budget is measured under the workload.
    let workload_run = approximate_under(&golden, Strategy::Single, &config, workload())?;

    println!(
        "8-bit adder, 5% error-rate budget ({} literals golden):",
        golden.literal_count()
    );
    println!(
        "{:<22} {:>9} {:>16} {:>16}",
        "synthesis stimulus", "literals", "ER (uniform)", "ER (workload)"
    );
    for (label, outcome) in [("uniform", &uniform_run), ("accumulator", &workload_run)] {
        let er_u = error_rate(&golden, &outcome.network, &uniform_patterns);
        let er_w = error_rate(&golden, &outcome.network, &workload());
        println!(
            "{label:<22} {:>9} {er_u:>16.4} {er_w:>16.4}",
            outcome.final_literals
        );
    }
    println!();
    println!("the workload-aware run shrinks further (the never-exercised high");
    println!("bits of operand b are free to delete) and stays inside the budget");
    println!("under its own workload — but its uniform-input error rate shows why");
    println!("such a circuit must only ever see the workload it was built for.");

    assert!(workload_run.final_literals <= uniform_run.final_literals);
    assert!(workload_run.measured_error_rate <= budget + 1e-12);
    Ok(())
}
