//! Verifying an approximate circuit *exactly* — beyond the paper.
//!
//! The paper validates error rates with 10 000 random vectors. For circuits
//! whose BDDs stay small, this repo can do better: the BDD miter gives the
//! **exact** error rate over all `2^n` inputs, and the SAT-based CEC gives a
//! yes/no equivalence certificate with a counterexample. This example
//! approximates a 16-bit Kogge–Stone adder and compares the sampled estimate
//! with the exact rate.
//!
//! Run with: `cargo run --release --example exact_verification`

use als::bdd::exact_error_rate;
use als::check::{cec, CecResult};
use als::circuits::kogge_stone_adder;
use als::core::{approximate, AlsConfig, AlsError, Strategy};

fn main() -> Result<(), AlsError> {
    let golden = kogge_stone_adder(16); // 32 PIs: 4 billion input vectors
    println!(
        "golden KSA16: {} nodes, {} literals, 2^{} input vectors",
        golden.num_internal(),
        golden.literal_count(),
        golden.num_pis()
    );

    println!(
        "\n{:>9} {:>10} {:>12} {:>12} {:>10}",
        "budget", "literals", "sampled ER", "exact ER", "CEC"
    );
    for threshold in [0.0, 0.01, 0.05] {
        let config = AlsConfig::with_threshold(threshold);
        let outcome = approximate(&golden, Strategy::Multi, &config)?;
        let exact = exact_error_rate(&golden, &outcome.network, 1 << 22)
            .expect("adder BDDs stay small under the structural order");
        let equivalence = match cec(&golden, &outcome.network) {
            CecResult::Equivalent => "equal",
            CecResult::Counterexample(_) => "differs",
            CecResult::InterfaceMismatch => unreachable!("same interface"),
        };
        println!(
            "{:>8.1}% {:>10} {:>12.5} {:>12.8} {:>10}",
            threshold * 100.0,
            outcome.final_literals,
            outcome.measured_error_rate,
            exact,
            equivalence,
        );
        // The exact rate must respect the budget up to sampling noise of the
        // synthesis-time estimate (the 10 048-vector run).
        assert!(
            exact <= threshold + 0.01,
            "exact {exact} vs budget {threshold}"
        );
        if threshold == 0.0 {
            assert_eq!(exact, 0.0);
            assert_eq!(equivalence, "equal");
        }
    }
    println!("\nat a 0% budget the result is *provably* equivalent (UNSAT miter);");
    println!("at positive budgets the exact rate quantifies the sampling gap.");
    Ok(())
}
