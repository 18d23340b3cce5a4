//! Perf-record emitter: runs the three algorithms over benchmark circuits
//! and writes one schema-versioned `BENCH_<circuit>.json` per circuit, for
//! the CI perf gate (see `als-bench --compare`).
//!
//! Usage: `perfsuite [--quick] [--circuit <name>]... [--threads N]
//! [--out-dir DIR] [--notes TEXT]`
//!
//! * `--quick` — reduced setup (3 thresholds, fewer patterns); what CI runs;
//! * `--circuit` — may be repeated; default is all twelve Table 3 circuits;
//! * `--out-dir` — where the records are written (default `.`);
//! * `--notes` — free-form caveat stored in the record (e.g. host quirks).

use als_bench::record::BenchRecord;
use als_bench::{exit_with_error, run_one, Algorithm, PAPER_THRESHOLDS, QUICK_THRESHOLDS};
use als_circuits::Benchmark;
use std::path::PathBuf;

struct Args {
    quick: bool,
    circuits: Vec<String>,
    threads: usize,
    out_dir: PathBuf,
    notes: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        quick: false,
        circuits: Vec::new(),
        threads: als_bench::parse_threads()?,
        out_dir: PathBuf::from("."),
        notes: String::new(),
    };
    let mut i = 0;
    while i < argv.len() {
        let value_of = |i: usize| {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} expects a value", argv[i]))
        };
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--circuit" => {
                args.circuits.push(value_of(i)?);
                i += 1;
            }
            "--out-dir" => {
                args.out_dir = PathBuf::from(value_of(i)?);
                i += 1;
            }
            "--notes" => {
                args.notes = value_of(i)?;
                i += 1;
            }
            "--threads" => i += 1, // parsed above
            other => return Err(format!("unknown flag `{other}` (see --help in the docs)")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit_with_error(&e));

    // Resolve every requested circuit up front so a typo fails before any
    // (slow) run starts.
    let benches: Vec<Benchmark> = if args.circuits.is_empty() {
        als_bench::resolve_benchmarks(None).unwrap_or_else(|e| exit_with_error(&e))
    } else {
        args.circuits
            .iter()
            .map(|name| {
                als_bench::resolve_benchmarks(Some(name))
                    .map_or_else(|e| exit_with_error(&e), |mut v| v.remove(0))
            })
            .collect()
    };
    let thresholds: &[f64] = if args.quick {
        &QUICK_THRESHOLDS
    } else {
        &PAPER_THRESHOLDS
    };

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        exit_with_error(&format!(
            "cannot create out-dir {}: {e}",
            args.out_dir.display()
        ));
    }

    for bench in &benches {
        let golden = als_bench::artifacts((bench.build)());
        let mut record = BenchRecord::new(bench.name, args.threads, args.quick);
        record.notes.clone_from(&args.notes);
        for &alg in &Algorithm::ALL {
            for &t in thresholds {
                let r = run_one(bench.name, &golden, alg, t, args.quick, args.threads);
                record
                    .entries
                    .push(als_bench::record::BenchEntry::from_run(&r));
            }
        }
        let path = args.out_dir.join(record.file_name());
        if let Err(e) = std::fs::write(&path, record.render()) {
            exit_with_error(&format!("cannot write {}: {e}", path.display()));
        }
        println!(
            "wrote {} ({} entries, git {})",
            path.display(),
            record.entries.len(),
            record.git_sha
        );
    }
}
