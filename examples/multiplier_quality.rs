//! Application-level quality of an approximate multiplier.
//!
//! The paper constrains the **error rate** (how often any output bit is
//! wrong) — the metric of §1 — and leaves error *magnitude* to future work.
//! This example shows what that means for a downstream user: it approximates
//! the 8-bit array multiplier at several error-rate budgets and reports both
//! the error rate and the numerical deviation the resulting circuit exhibits
//! on random workloads (mean relative error of the product).
//!
//! Run with: `cargo run --release --example multiplier_quality`

use als::circuits::array_multiplier;
use als::core::{approximate, AlsConfig, AlsError, Strategy};
use als::network::Network;

/// Multiplies through a network: drives the first 16 PIs with `a` and `b`,
/// reads the 16 product bits.
fn product(net: &Network, a: u8, b: u8) -> u32 {
    let mut pis = Vec::with_capacity(16);
    for i in 0..8 {
        pis.push(a >> i & 1 == 1);
    }
    for i in 0..8 {
        pis.push(b >> i & 1 == 1);
    }
    net.eval(&pis)
        .iter()
        .enumerate()
        .fold(0u32, |acc, (i, &v)| acc | (u32::from(v) << i))
}

fn main() -> Result<(), AlsError> {
    let golden = array_multiplier(8);
    println!(
        "{:>9} {:>12} {:>12} {:>14} {:>14}",
        "budget", "literals", "meas. ER", "wrong prods", "mean rel err"
    );
    for threshold in [0.001, 0.01, 0.05, 0.10] {
        let mut config = AlsConfig::with_threshold(threshold);
        config.patterns = 4096;
        let outcome = approximate(&golden, Strategy::Single, &config)?;

        // Exhaustive application-level evaluation: all 65 536 products.
        let mut wrong = 0u32;
        let mut rel_err_sum = 0.0f64;
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let exact = u32::from(a) * u32::from(b);
                let approx = product(&outcome.network, a, b);
                if approx != exact {
                    wrong += 1;
                    if exact != 0 {
                        rel_err_sum +=
                            (f64::from(approx) - f64::from(exact)).abs() / f64::from(exact);
                    }
                }
            }
        }
        let total = 65_536.0;
        println!(
            "{:>8.1}% {:>12} {:>12.4} {:>13.2}% {:>14.5}",
            threshold * 100.0,
            outcome.final_literals,
            outcome.measured_error_rate,
            f64::from(wrong) / total * 100.0,
            rel_err_sum / total,
        );
        assert!(
            f64::from(wrong) / total <= threshold + 0.02,
            "true error rate must track the sampled one"
        );
    }
    println!("\nthe error *rate* is bounded by construction; the error *magnitude*");
    println!("is whatever the removed literals imply — the paper's future-work");
    println!("extension would constrain both.");
    Ok(())
}
