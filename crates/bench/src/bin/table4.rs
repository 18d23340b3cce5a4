//! Regenerates the paper's **Table 4**: average mapped-area ratio and
//! average runtime over the seven thresholds, for SASIMI vs. the
//! single-selection vs. the multi-selection algorithm, with geometric means
//! and the headline speedups.
//!
//! Usage: `--quick` for a reduced run (3 thresholds, fewer patterns),
//! `--circuit <name>` to restrict to one benchmark, `--csv` for raw records,
//! `--json` for schema-versioned perf records on stdout (one JSON object
//! per circuit, the `BENCH_*.json` format of the `perfsuite` binary),
//! `--threads N` to size the candidate-evaluation worker pool (0 = all
//! cores; the reported results are identical for every thread count).

use als_bench::record::{BenchEntry, BenchRecord};
use als_bench::{
    exit_with_error, geometric_mean, run_one, Algorithm, PAPER_THRESHOLDS, QUICK_THRESHOLDS,
};

fn main() {
    let (quick, filter) = als_bench::parse_common_args();
    let threads = als_bench::parse_threads().unwrap_or_else(|e| exit_with_error(&e));
    let csv = std::env::args().any(|a| a == "--csv");
    let json = std::env::args().any(|a| a == "--json");
    let thresholds: Vec<f64> = if quick {
        QUICK_THRESHOLDS.to_vec()
    } else {
        PAPER_THRESHOLDS.to_vec()
    };

    let benches =
        als_bench::resolve_benchmarks(filter.as_deref()).unwrap_or_else(|e| exit_with_error(&e));

    if json {
        // Perf-record mode: one BENCH_*.json object per circuit on stdout.
        for bench in &benches {
            let golden = als_bench::artifacts((bench.build)());
            let mut record = BenchRecord::new(bench.name, threads, quick);
            for &alg in &Algorithm::ALL {
                for &t in &thresholds {
                    let r = run_one(bench.name, &golden, alg, t, quick, threads);
                    record.entries.push(BenchEntry::from_run(&r));
                }
            }
            print!("{}", record.render());
        }
        return;
    }

    if csv {
        println!("circuit,algorithm,threshold,area_ratio,literal_ratio,error_rate,runtime_s");
    } else {
        println!(
            "Table 4: area ratio (avg over {} thresholds) and avg runtime/s",
            thresholds.len()
        );
        println!(
            "{:<8} | {:>10} {:>8} | {:>10} {:>8} | {:>10} {:>8}",
            "circuit", "SASIMI", "time/s", "single", "time/s", "multi", "time/s"
        );
    }

    let mut per_alg_ratios: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut per_alg_times: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut per_alg_delays: Vec<Vec<f64>> = vec![Vec::new(); 3];

    for bench in &benches {
        let golden = als_bench::artifacts((bench.build)());
        let mut ratios = [0.0f64; 3];
        let mut times = [0.0f64; 3];
        for (ai, &alg) in Algorithm::ALL.iter().enumerate() {
            let mut ratio_sum = 0.0;
            let mut time_sum = 0.0;
            let mut delay_sum = 0.0;
            for &t in &thresholds {
                let r = run_one(bench.name, &golden, alg, t, quick, threads);
                delay_sum += r.delay_ratio;
                if csv {
                    println!(
                        "{},{},{},{:.4},{:.4},{:.5},{:.3}",
                        r.circuit,
                        r.algorithm,
                        r.threshold,
                        r.area_ratio,
                        r.literal_ratio,
                        r.error_rate,
                        r.runtime_s
                    );
                }
                ratio_sum += r.area_ratio;
                time_sum += r.runtime_s;
            }
            ratios[ai] = ratio_sum / thresholds.len() as f64;
            times[ai] = time_sum / thresholds.len() as f64;
            per_alg_ratios[ai].push(ratios[ai].max(1e-6));
            per_alg_times[ai].push(times[ai].max(1e-6));
            per_alg_delays[ai].push((delay_sum / thresholds.len() as f64).max(1e-6));
        }
        if !csv {
            println!(
                "{:<8} | {:>10.3} {:>8.2} | {:>10.3} {:>8.2} | {:>10.3} {:>8.2}",
                bench.name, ratios[0], times[0], ratios[1], times[1], ratios[2], times[2]
            );
        }
    }

    if !csv && !benches.is_empty() {
        let gm: Vec<f64> = per_alg_ratios.iter().map(|v| geometric_mean(v)).collect();
        let gt: Vec<f64> = per_alg_times.iter().map(|v| geometric_mean(v)).collect();
        println!(
            "{:<8} | {:>10.3} {:>8.2} | {:>10.3} {:>8.2} | {:>10.3} {:>8.2}",
            "Geomean", gm[0], gt[0], gm[1], gt[1], gm[2], gt[2]
        );
        println!();
        let gd: Vec<f64> = per_alg_delays.iter().map(|v| geometric_mean(v)).collect();
        println!(
            "speedup over SASIMI: single-selection {:.1}x, multi-selection {:.1}x",
            gt[0] / gt[1],
            gt[0] / gt[2]
        );
        println!(
            "delay ratio geomeans (approx/original): SASIMI {:.3}, single {:.3}, multi {:.3}",
            gd[0], gd[1], gd[2]
        );
        println!("(the paper observes delays do not degrade — shrinking nodes never");
        println!(" deepens the network; ratios at or below 1.0 reproduce that)");
        println!("paper reports 1.7x and 5.9x with better (smaller) area ratios for");
        println!("both proposed algorithms on nearly every circuit.");
    }
}
