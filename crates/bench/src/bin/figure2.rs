//! Regenerates the paper's **Figure 2**: area saving (%) of the
//! single-selection algorithm as a function of the error-rate threshold,
//! one series per benchmark.
//!
//! Usage: `table` output by default; pass `--csv` for machine-readable
//! series, `--quick` for a reduced run, `--circuit <name>` to restrict to
//! one benchmark.

use als_bench::{run_one, Algorithm, PAPER_THRESHOLDS, QUICK_THRESHOLDS};
use als_circuits::all_benchmarks;

fn main() {
    als_bench::reject_unknown_flags(&["--quick", "--circuit", "--csv"]);
    let (quick, filter) = als_bench::parse_common_args();
    let csv = std::env::args().any(|a| a == "--csv");
    // Figure 2 includes the zero-threshold point (where some circuits still
    // save area thanks to redundancy removal).
    let mut thresholds = vec![0.0];
    if quick {
        thresholds.extend(QUICK_THRESHOLDS);
    } else {
        thresholds.extend(PAPER_THRESHOLDS);
    }

    if csv {
        println!("circuit,threshold,area_saving_percent");
    } else {
        println!("Figure 2: area saving of the single-selection algorithm");
        print!("{:<8}", "circuit");
        for t in &thresholds {
            print!("{:>9}", format!("{:.1}%", t * 100.0));
        }
        println!();
    }

    for bench in all_benchmarks() {
        if let Some(f) = &filter {
            if !bench.name.eq_ignore_ascii_case(f) {
                continue;
            }
        }
        let golden = als_bench::artifacts((bench.build)());
        let mut row = Vec::new();
        for &t in &thresholds {
            let r = run_one(bench.name, &golden, Algorithm::SingleSelection, t, quick, 1);
            let saving = (1.0 - r.area_ratio) * 100.0;
            if csv {
                println!("{},{},{:.2}", bench.name, t, saving);
            }
            row.push(saving);
        }
        if !csv {
            print!("{:<8}", bench.name);
            for s in row {
                print!("{s:>9.1}");
            }
            println!();
        }
    }
    if !csv {
        println!();
        println!("values are mapped-area savings (%) vs. the original circuit;");
        println!("expected shape: monotone growth with the threshold, 15–35% at 5%");
        println!("for most circuits, far more for the SEC/DED-class circuit.");
    }
}
