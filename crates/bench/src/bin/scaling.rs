//! Runtime-scaling experiment backing the paper's complexity claim (§6):
//! SASIMI's candidate search is quadratic in the signal count while both
//! proposed algorithms are linear in the node count. We sweep one circuit
//! family (the adder/comparator) across widths and report runtime vs. size.
//!
//! Usage: `cargo run --release -p als-bench --bin scaling [--quick]
//! [--threads N]` (N = 0 uses all cores; timings change, results do not).

use als_bench::{run_one, Algorithm};
use als_circuits::alu::adder_comparator;

fn main() {
    als_bench::reject_unknown_flags(&["--quick", "--threads"]);
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = als_bench::parse_threads().unwrap_or_else(|e| als_bench::exit_with_error(&e));
    let widths: &[usize] = if quick {
        &[8, 16, 32]
    } else {
        &[8, 16, 32, 48, 64]
    };

    println!("Runtime vs. circuit size (adder/comparator family, 5% threshold)");
    println!(
        "{:>6} {:>7} | {:>10} {:>10} {:>10}",
        "width", "nodes", "SASIMI/s", "single/s", "multi/s"
    );
    let mut prev: Option<(f64, [f64; 3])> = None;
    for &w in widths {
        let golden = als_bench::artifacts(adder_comparator(w));
        let nodes = golden.network.num_internal() as f64;
        let mut times = [0.0f64; 3];
        for (i, &alg) in Algorithm::ALL.iter().enumerate() {
            let r = run_one(&format!("ADDCMP{w}"), &golden, alg, 0.05, quick, threads);
            times[i] = r.runtime_s;
        }
        print!(
            "{:>6} {:>7} | {:>10.3} {:>10.3} {:>10.3}",
            w, nodes as usize, times[0], times[1], times[2]
        );
        if let Some((pn, pt)) = prev {
            let growth = nodes / pn;
            print!(
                "   (growth ×{:.1}: SASIMI ×{:.1}, single ×{:.1}, multi ×{:.1})",
                growth,
                times[0] / pt[0].max(1e-9),
                times[1] / pt[1].max(1e-9),
                times[2] / pt[2].max(1e-9)
            );
        }
        println!();
        prev = Some((nodes, times));
    }
    println!();
    println!("expected: SASIMI's runtime grows roughly quadratically with the node");
    println!("count (pairwise signature comparison), the proposed algorithms roughly");
    println!("linearly — the source of the paper's 1.7x/5.9x speedups at scale.");
}
