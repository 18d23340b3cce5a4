//! Error-rate vs. area trade-off across the three 32-bit adder
//! architectures of the paper (RCA32, CLA32, KSA32).
//!
//! The paper's motivating workloads tolerate a bounded fraction of wrong
//! outputs; this example shows how much mapped area each adder architecture
//! gives back as the tolerated error rate grows — prefix-tree adders
//! (Kogge–Stone) have the most redundancy to harvest, textbook ripple-carry
//! adders the least.
//!
//! Run with: `cargo run --release --example adder_tradeoff`

use als::circuits::{carry_lookahead_adder, kogge_stone_adder, ripple_carry_adder};
use als::core::{approximate, AlsConfig, AlsError, Strategy};
use als::mapper::{map_network, Library};

fn main() -> Result<(), AlsError> {
    let thresholds = [0.001, 0.01, 0.05];
    let adders = [
        ("RCA32", ripple_carry_adder(32)),
        ("CLA32", carry_lookahead_adder(32)),
        ("KSA32", kogge_stone_adder(32)),
    ];
    let lib = Library::mcnc_like();

    println!(
        "{:<7} {:>10} {:>12} {:>12} {:>12}",
        "adder", "base area", "ER ≤ 0.1%", "ER ≤ 1%", "ER ≤ 5%"
    );
    for (name, golden) in &adders {
        let base = map_network(golden, &lib).area();
        print!("{name:<7} {base:>10.0}");
        for &t in &thresholds {
            let mut config = AlsConfig::with_threshold(t);
            config.patterns = 4096;
            let outcome = approximate(golden, Strategy::Multi, &config)?;
            let area = map_network(&outcome.network, &lib).area();
            print!("{:>11.1}%", (1.0 - area / base) * 100.0);
            assert!(outcome.measured_error_rate <= t + 1e-12);
        }
        println!();
    }
    println!("\n(values are mapped-area savings on the MCNC-like library)");
    Ok(())
}
