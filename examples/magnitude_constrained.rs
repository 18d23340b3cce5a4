//! The paper's future-work extension (§7) in action: approximate an adder
//! under **both** an error-rate budget and an error-*magnitude* bound.
//!
//! With only the rate constraint, the synthesizer happily flips
//! high-significance outputs (a wrong answer is a wrong answer). Adding a
//! magnitude bound steers the approximation toward the low-order bits, the
//! behaviour hand-designed approximate adders aim for.
//!
//! Run with: `cargo run --release --example magnitude_constrained`

use als::circuits::ripple_carry_adder;
use als::core::{approximate, AlsConfig, AlsError, MagnitudeConstraint, Strategy};
use als::sim::{magnitude_stats, PatternSet};

fn main() -> Result<(), AlsError> {
    let golden = ripple_carry_adder(6);
    let patterns = PatternSet::exhaustive(12).expect("12 PIs are enumerable");

    println!(
        "{:>12} {:>10} {:>10} {:>12} {:>12}",
        "max |err|", "literals", "meas. ER", "true max", "true mean"
    );
    for bound in [None, Some(16), Some(4), Some(1)] {
        let mut config = AlsConfig::with_threshold(0.25);
        config.patterns = 4096;
        config.magnitude = bound.map(|max_abs| MagnitudeConstraint { max_abs });
        let outcome = approximate(&golden, Strategy::Multi, &config)?;
        let stats = magnitude_stats(&golden, &outcome.network, &patterns);
        println!(
            "{:>12} {:>10} {:>10.4} {:>12} {:>12.4}",
            bound.map_or("∞".to_string(), |b| b.to_string()),
            outcome.final_literals,
            outcome.measured_error_rate,
            stats.max_abs,
            stats.mean_abs,
        );
        if let Some(b) = bound {
            assert!(
                stats.max_abs <= b + 1,
                "sampled bound must generalize closely"
            );
        }
    }
    println!("\ntighter magnitude bounds keep more literals but confine errors");
    println!("to the low-order sum bits.");
    Ok(())
}
