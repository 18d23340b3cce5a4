//! The sweep-frontier gate: compares two `SWEEP_<circuit>.json` records
//! (written by `als sweep`) and exits nonzero when the new one regresses —
//! a point newly dominated by the baseline frontier, or a point whose
//! literal count grew past the tolerance.
//!
//! Usage: `als-bench --compare <baseline.json> <new.json>
//! [--max-quality PCT] [--warn-only]`
//!
//! * `--max-quality` — tolerated literal-count growth in percent (default 2);
//! * `--warn-only` — print regressions but exit 0 (CI uses this on pull
//!   requests, where the comparison is advisory; pushes to main fail hard).

use als_bench::exit_with_error;
use als_bench::record::{compare_sweep, CompareOptions};
use als_core::sweep::SweepRecord;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.iter().any(|a| a == "--compare") {
        exit_with_error(
            "usage: als-bench --compare <baseline.json> <new.json> \
             [--max-quality PCT] [--warn-only]",
        );
    }

    let mut files: Vec<String> = Vec::new();
    let mut opts = CompareOptions::default();
    let mut warn_only = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--compare" => {}
            "--warn-only" => warn_only = true,
            "--max-quality" => {
                let value = argv
                    .get(i + 1)
                    .unwrap_or_else(|| exit_with_error("--max-quality expects a percentage"));
                opts.max_quality_pct = value.parse().unwrap_or_else(|_| {
                    exit_with_error(&format!("--max-quality expects a number, got `{value}`"))
                });
                i += 1;
            }
            flag if flag.starts_with("--") => {
                exit_with_error(&format!("unknown flag `{flag}`"));
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    if files.len() != 2 {
        exit_with_error("--compare expects exactly two files: <baseline.json> <new.json>");
    }

    let load = |path: &str| -> SweepRecord {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| exit_with_error(&format!("cannot read {path}: {e}")));
        SweepRecord::parse(&text).unwrap_or_else(|e| exit_with_error(&format!("{path}: {e}")))
    };
    let old = load(&files[0]);
    let new = load(&files[1]);
    let regressions = compare_sweep(&old, &new, &opts);

    if regressions.is_empty() {
        println!(
            "{}: no regression vs baseline {} (limit: +{:.0}% literals)",
            new.circuit, old.git_sha, opts.max_quality_pct
        );
        return;
    }
    for line in &regressions {
        println!("REGRESSION: {line}");
    }
    if warn_only {
        println!(
            "(--warn-only: exiting 0 despite {} regression(s))",
            regressions.len()
        );
    } else {
        std::process::exit(1);
    }
}
