//! Quickstart: approximate a small hand-written circuit with both
//! algorithms and inspect the results.
//!
//! Run with: `cargo run --release --example quickstart`

use als::core::{approximate, AlsConfig, Strategy};
use als::network::blif;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A toy network in BLIF: two outputs, one of which depends on a
    // rarely-true product term — a cheap approximation target.
    let golden = blif::parse(
        "\
.model toy
.inputs x0 x1 x2 x3 x4 x5
.outputs y z
.names x0 x1 x2 x3 g
1111 1
.names x4 x5 h
1- 1
-1 1
.names g h y
1- 1
-1 1
.names x4 x5 z
11 1
.end
",
    )?;
    println!(
        "golden: {} nodes, {} literals",
        golden.num_internal(),
        golden.literal_count()
    );

    // A 5% error-rate budget.
    let config = AlsConfig::with_threshold(0.05);

    let single = approximate(&golden, Strategy::Single, &config)?;
    println!("\nsingle-selection: {single}");
    for it in &single.iterations {
        for ch in &it.changes {
            println!(
                "  iter {}: {} → `{}` (saves {} literals, est. error {:.4})",
                it.iteration, ch.node_name, ch.ase, ch.literals_saved, ch.error_estimate
            );
        }
    }

    let multi = approximate(&golden, Strategy::Multi, &config)?;
    println!("\nmulti-selection:  {multi}");

    // The approximate networks still satisfy the budget — and can be
    // exported back to BLIF for downstream tools.
    println!("\napproximate BLIF:\n{}", blif::write(&single.network));
    Ok(())
}
