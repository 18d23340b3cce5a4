//! Shared harness for regenerating the paper's tables and figures.
//!
//! One binary per experiment (see `src/bin/`):
//!
//! * `table3` — benchmark information (I/O, nodes, mapped area/delay);
//! * `figure2` — area saving of the single-selection algorithm vs. the
//!   error-rate threshold;
//! * `table4` — area-ratio & runtime comparison of SASIMI vs. single- vs.
//!   multi-selection over the seven thresholds;
//! * `knapsack_example` — the worked multi-state-knapsack example of
//!   Tables 1 and 2;
//! * `ablation` — the design-choice study of DESIGN.md §4 (don't-cares,
//!   window size, engine, preprocess);
//! * `scaling` — runtime vs. circuit size, backing the §6 complexity claim;
//! * `als-bench --compare` — the sweep-frontier gate over two
//!   `SWEEP_<circuit>.json` records (see [`record`]).
//!
//! Criterion microbenches live under `benches/`. The runtime benchmark of
//! the whole flow (end-to-end and per-layer metrics, with the bounds a
//! change is judged by) is the separate `benchmark/` package.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

use als_circuits::{all_benchmarks, Benchmark};
use als_core::{approximate_with_context, AlsConfig, AlsOutcome, CircuitArtifacts, Strategy};
use als_mapper::{map_network, Library};
use als_network::Network;

pub mod record;

/// The seven error-rate thresholds of the paper's evaluation (§6), and the
/// reduced `--quick` set (the paper's tightest threshold is included so
/// quick runs exercise the static-pruning fast path).
pub use als_core::sweep::{FULL_THRESHOLDS as PAPER_THRESHOLDS, QUICK_THRESHOLDS};

/// The three compared algorithms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// The SASIMI baseline.
    Sasimi,
    /// Paper Algorithm 1.
    SingleSelection,
    /// Paper Algorithm 2.
    MultiSelection,
}

impl Algorithm {
    /// Display name as used in the paper's Table 4 header.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Sasimi => "SASIMI",
            Algorithm::SingleSelection => "single-selection",
            Algorithm::MultiSelection => "multi-selection",
        }
    }

    /// All three, in Table 4 column order.
    pub const ALL: [Algorithm; 3] = [
        Algorithm::Sasimi,
        Algorithm::SingleSelection,
        Algorithm::MultiSelection,
    ];

    /// The corresponding [`Strategy`] for [`als_core::approximate`].
    pub fn strategy(self) -> Strategy {
        match self {
            Algorithm::Sasimi => Strategy::Sasimi,
            Algorithm::SingleSelection => Strategy::Single,
            Algorithm::MultiSelection => Strategy::Multi,
        }
    }
}

/// One experiment record (circuit × algorithm × threshold).
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Benchmark name.
    pub circuit: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Error-rate threshold.
    pub threshold: f64,
    /// Technology-independent literal ratio (approx / original).
    pub literal_ratio: f64,
    /// Mapped-area ratio (approx / original) on the MCNC-like library.
    pub area_ratio: f64,
    /// Mapped delay ratio (approx / original).
    pub delay_ratio: f64,
    /// Measured error rate of the result.
    pub error_rate: f64,
    /// Wall-clock runtime in seconds.
    pub runtime_s: f64,
}

/// Runs one algorithm on one circuit at one threshold, reporting mapped
/// ratios against the unmodified circuit. `golden` carries the circuit's
/// shared artifacts: build it once per circuit, and every call reuses its
/// golden mapping and simulation.
///
/// `threads` sizes the candidate-evaluation engine's worker pool (`0` means
/// "use all available cores", see [`AlsConfig::threads`]).
pub fn run_one(
    circuit_name: &str,
    golden: &CircuitArtifacts,
    algorithm: Algorithm,
    threshold: f64,
    quick: bool,
    threads: usize,
) -> RunResult {
    let mut config = AlsConfig::with_threshold(threshold);
    config.threads = threads;
    // Quick mode measures on 2,048 patterns; full mode keeps the paper's
    // 10,048.
    if quick {
        config.patterns = 2048;
    }
    let (ctx, _) = golden.context(&config);
    let outcome: AlsOutcome =
        approximate_with_context(&golden.network, algorithm.strategy(), &config, ctx)
            .expect("benchmark configuration must be valid"); // lint:allow(panic): internal invariant; the message states it
    let approx_mapped = map_network(&outcome.network, &Library::mcnc_like());
    RunResult {
        circuit: circuit_name.to_string(),
        algorithm: algorithm.name().to_string(),
        threshold,
        literal_ratio: outcome.literal_ratio(),
        area_ratio: approx_mapped.area() / golden.golden_area,
        delay_ratio: approx_mapped.delay() / golden.golden_delay,
        error_rate: outcome.measured_error_rate,
        runtime_s: outcome.runtime.as_secs_f64(),
    }
}

/// Builds the shared golden artifacts of a circuit, exiting with an error
/// (like the other argument helpers) if it fails its consistency check.
pub fn artifacts(net: Network) -> CircuitArtifacts {
    CircuitArtifacts::build(net).unwrap_or_else(|e| exit_with_error(&e.to_string()))
}

/// Geometric mean (for the Table 4 summary row).
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty set");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp() // lint:allow(as-cast): counts << 2^52, exact in f64
}

/// Exits with a usage error, before any work starts, if the command line
/// holds a `--flag` outside `accepted`; the error lists the accepted flags.
/// The flag-taking experiment binaries (`table4`, `figure2`, `scaling`,
/// `ablation`) call it first, so a mistyped or retired flag fails loudly
/// instead of being ignored.
pub fn reject_unknown_flags(accepted: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_flags(&args, accepted) {
        exit_with_error(&e);
    }
}

fn check_flags(args: &[String], accepted: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !accepted.contains(&a.as_str()))
    {
        Some(flag) => Err(format!(
            "unknown flag `{flag}`; accepted flags: {}",
            accepted.join(", ")
        )),
        None => Ok(()),
    }
}

/// Parses the common CLI flags of the bench binaries: `--quick`, and an
/// optional `--circuit <name>` filter. Returns `(quick, circuit_filter)`.
pub fn parse_common_args() -> (bool, Option<String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let circuit = args
        .iter()
        .position(|a| a == "--circuit")
        .and_then(|i| args.get(i + 1))
        .cloned();
    (quick, circuit)
}

/// Parses the `--threads N` flag shared by the bench binaries. Defaults to
/// `1` (the deterministic baseline); `0` means "all available cores".
///
/// A missing or non-integer value is an error (the binaries print it and
/// exit nonzero instead of panicking).
pub fn parse_threads() -> Result<usize, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(i) = args.iter().position(|a| a == "--threads") else {
        return Ok(1);
    };
    let Some(value) = args.get(i + 1) else {
        return Err("--threads expects a value (a worker count, 0 = all cores)".to_string());
    };
    value
        .parse()
        .map_err(|_| format!("--threads expects an integer, got `{value}` (0 = all cores)"))
}

/// Resolves an optional `--circuit` filter against the Table 3 registry.
/// An unknown name is an error that lists the valid names, so a typo fails
/// loudly instead of silently benchmarking nothing.
pub fn resolve_benchmarks(filter: Option<&str>) -> Result<Vec<Benchmark>, String> {
    let all = all_benchmarks();
    let Some(name) = filter else { return Ok(all) };
    let selected: Vec<Benchmark> = all
        .iter()
        .filter(|b| b.name.eq_ignore_ascii_case(name))
        .cloned()
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = all.iter().map(|b| b.name).collect();
        return Err(format!(
            "unknown circuit `{name}`; valid names: {}",
            names.join(", ")
        ));
    }
    Ok(selected)
}

/// Prints a bench-binary error to stderr and exits nonzero.
pub fn exit_with_error(err: &str) -> ! {
    eprintln!("error: {err}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_circuits::adders::ripple_carry_adder;

    #[test]
    fn unknown_flags_are_named_with_the_accepted_ones() {
        let args = |list: &[&str]| list.iter().map(ToString::to_string).collect::<Vec<_>>();
        let accepted = ["--quick", "--circuit"];
        assert!(check_flags(&args(&["--quick", "--circuit", "RCA32"]), &accepted).is_ok());
        let err = check_flags(&args(&["--quick", "--json"]), &accepted).unwrap_err();
        assert!(err.contains("`--json`"), "{err}");
        assert!(err.contains("--quick, --circuit"), "{err}");
    }

    #[test]
    fn geomean_basics() {
        assert!((geometric_mean(&[4.0, 9.0]) - 6.0).abs() < 1e-12);
        assert!((geometric_mean(&[7.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }

    fn rca4() -> CircuitArtifacts {
        CircuitArtifacts::build(ripple_carry_adder(4)).unwrap()
    }

    #[test]
    fn run_one_produces_consistent_ratios() {
        let r = run_one("RCA4", &rca4(), Algorithm::MultiSelection, 0.05, true, 1);
        assert!(r.literal_ratio <= 1.0);
        assert!(r.area_ratio <= 1.05);
        assert!(r.error_rate <= 0.05 + 1e-12);
        assert!(r.delay_ratio > 0.0);
        assert!(r.runtime_s >= 0.0);
    }

    #[test]
    fn resolve_benchmarks_rejects_unknown_names() {
        let err = resolve_benchmarks(Some("nonesuch")).unwrap_err();
        assert!(err.contains("nonesuch"));
        assert!(err.contains("RCA32"), "must list valid names: {err}");
        assert_eq!(resolve_benchmarks(None).unwrap().len(), 12);
        assert_eq!(resolve_benchmarks(Some("rca32")).unwrap().len(), 1);
    }

    #[test]
    fn paper_thresholds_match_section_6() {
        assert_eq!(PAPER_THRESHOLDS.len(), 7);
        assert_eq!(PAPER_THRESHOLDS[0], 0.001);
        assert_eq!(PAPER_THRESHOLDS[6], 0.05);
    }
}
