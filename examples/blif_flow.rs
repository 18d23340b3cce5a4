//! A complete BLIF-in / BLIF-out flow, the way an EDA user would script it:
//! read a netlist, remove redundancy, approximate under a budget, verify by
//! independent simulation, technology-map, and export.
//!
//! Run with: `cargo run --release --example blif_flow [path/to/circuit.blif]`
//! (without an argument it uses the paper's Fig. 1 network).

use als::core::{approximate, AlsConfig, Strategy};
use als::mapper::{map_network, Library};
use als::network::blif;
use als::sim::{error_rate, PatternSet};

/// The paper's Fig. 1: n1 = i1·i2, n2 = n1·i3, f = i0·n2 + i0'·n1.
const FIG1: &str = "\
.model fig1
.inputs i0 i1 i2 i3
.outputs f
.names i1 i2 n1
11 1
.names n1 i3 n2
11 1
.names i0 n2 n1 f
11- 1
0-1 1
.end
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => FIG1.to_string(),
    };
    let golden = blif::parse(&text)?;
    golden.check()?;
    println!(
        "read `{}`: {} PIs, {} POs, {} nodes, {} literals",
        golden.name(),
        golden.num_pis(),
        golden.num_pos(),
        golden.num_internal(),
        golden.literal_count()
    );

    let config = AlsConfig::with_threshold(0.05);
    let outcome = approximate(&golden, Strategy::Multi, &config)?;
    println!("approximated: {outcome}");

    // Independent verification on a fresh pattern set (different seed than
    // the synthesis run used).
    let patterns = PatternSet::random(golden.num_pis(), 1 << 14, 0xFE11);
    let verified = error_rate(&golden, &outcome.network, &patterns);
    println!("independent error-rate check: {verified:.4} (budget 0.05)");

    let lib = Library::mcnc_like();
    let before = map_network(&golden, &lib);
    let after = map_network(&outcome.network, &lib);
    println!(
        "mapped: area {:.0} → {:.0}, delay {:.1} → {:.1}",
        before.area(),
        after.area(),
        before.delay(),
        after.delay()
    );

    println!("\n{}", blif::write(&outcome.network));
    Ok(())
}
