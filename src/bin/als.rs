//! `als` — command-line front end for the approximate-logic-synthesis flow.
//!
//! ```text
//! als stats       <in.blif>                       network statistics
//! als gen         <benchmark> [-o out.blif]       emit a generated benchmark
//! als approximate <in.blif> --threshold 0.05
//!                 [--algorithm single|multi|sasimi] [-o out.blif]
//!                 [--seed N] [--patterns N]
//!                 [--resim incremental|full] [--threads N] [--no-cache]
//!                 [--no-dontcares] [--verbose] [--metrics]
//!                 [--events <log.jsonl>]
//! als sweep       <benchmark|in.blif> [--quick] [--thresholds a,b,..]
//!                 [--algorithms single,multi,sasimi] [--patterns N,..]
//!                 [--delay-weight W] [--sweep-workers N] [--seed N]
//!                 [-o out.json | --out-dir DIR]   Pareto design-space sweep
//! als verify      <golden.blif> <approx.blif> [--patterns N] [--seed N]
//! als check       <in.blif> [--fast] [--json] [--certify <events.jsonl>]
//!                 [--golden <golden.blif>]        analyze + audit
//! als bound       <in.blif> [--golden <golden.blif>] [--json]
//!                                                 static probability/error intervals
//! als map         <in.blif>                       mapped area/delay/cells
//! als verilog     <in.blif> [-o out.v]            technology-map, emit Verilog
//! als cec         <a.blif> <b.blif>               SAT equivalence check
//! als simplify    <in.blif> [-o out.blif]         exact optimization
//! als serve       --listen ADDR [--workers N] [--queue N] [--cache N]
//!                 [--max-patterns N] [--max-iterations N]
//!                 [--events <log.jsonl>]          JSONL-over-TCP daemon
//! als list                                        available benchmarks
//! ```

use als::absint::{error_bounds, signal_probabilities, Policy};
use als::check::{
    audit_certificates, cec, AnalyzerConfig, AuditConfig, CecResult, CertificateLog, CheckEngine,
    NetworkAnalyzer,
};
use als::circuits::all_benchmarks;
use als::circuits::registry::find_benchmark;
use als::core::classical::optimize_classical;
use als::mapper::{map_network, write_verilog, Library};
use als::network::{blif, Network};
use als::prelude::*;
use als::sim::{error_rate, PatternSet};
use als::telemetry::Json;
use std::process::ExitCode;

/// Exit code for analyzer findings and `cec` disagreement.
const EXIT_FINDINGS: u8 = 1;
/// Exit code for usage errors and inputs that fail structural checks.
const EXIT_USAGE: u8 = 2;

/// A command failure with the exit code it should map to.
struct CliError {
    code: u8,
    message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self {
            code: EXIT_FINDINGS,
            message,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        Self::from(message.to_string())
    }
}

/// A bad invocation (missing arguments, unknown flags): exit code 2.
fn usage(message: impl Into<String>) -> CliError {
    CliError {
        code: EXIT_USAGE,
        message: message.into(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (Some(cmd.as_str()), rest),
        None => (None, &[][..]),
    };
    let result = positionals(cmd, rest).and_then(|pos| match cmd {
        Some("stats") => cmd_stats(&pos),
        Some("gen") => cmd_gen(&pos, rest),
        Some("approximate") => cmd_approximate(&pos, rest),
        Some("sweep") => cmd_sweep(&pos, rest),
        Some("verify") => cmd_verify(&pos, rest),
        Some("check") => cmd_check(&pos, rest),
        Some("bound") => cmd_bound(&pos, rest),
        Some("map") => cmd_map(&pos),
        Some("verilog") => cmd_verilog(&pos, rest),
        Some("cec") => cmd_cec(&pos),
        Some("simplify") => cmd_simplify(&pos, rest),
        Some("serve") => cmd_serve(rest),
        Some("list") => cmd_list(),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(usage(format!("unknown command `{other}`\n\n{USAGE}"))),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError { code, message }) => {
            eprintln!("error: {message}");
            ExitCode::from(code)
        }
    }
}

/// The flags each subcommand accepts, space-separated; a trailing `=` marks
/// a flag that takes a value.
const FLAGS: &[(&str, &str)] = &[
    ("stats", ""),
    ("gen", "-o= --output="),
    ("approximate", "--threshold= --algorithm= -o= --output= --seed= --threads= --patterns= --resim= --events= --no-cache --no-dontcares --verbose --metrics"),
    ("sweep", "--thresholds= --algorithms= --patterns= --seed= --delay-weight= --sweep-workers= --threads= --notes= -o= --output= --out-dir= --quick"),
    ("verify", "--patterns= --seed= --exact"),
    ("check", "--certify= --golden= --engine= --fast --json"),
    ("bound", "--golden= --json"),
    ("map", ""),
    ("verilog", "-o= --output="),
    ("cec", ""),
    ("simplify", "-o= --output="),
    ("serve", "--listen= --workers= --queue= --cache= --max-patterns= --max-iterations= --events="),
    ("list", ""),
];

/// The positional arguments of `cmd`, rejecting any flag it does not
/// accept (exit 2). `main` runs this before every command and hands the
/// result to it, so flags may come before or after the positionals. A
/// value-taking flag consumes the next argument, so a value such as `-3`
/// is never mistaken for a flag. Unknown commands pass through to the
/// dispatcher's own error.
fn positionals<'a>(cmd: Option<&str>, args: &'a [String]) -> Result<Vec<&'a str>, CliError> {
    let Some(&(cmd, accepted)) = FLAGS.iter().find(|(name, _)| Some(*name) == cmd) else {
        return Ok(Vec::new());
    };
    let mut found = Vec::new();
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            found.push(arg);
            continue;
        }
        match accepted.split(' ').find(|f| f.trim_end_matches('=') == arg) {
            Some(flag) if flag.ends_with('=') => {
                rest.next();
            }
            Some(_) => {}
            None => return Err(usage(format!("{cmd}: unknown flag `{arg}`"))),
        }
    }
    Ok(found)
}

const USAGE: &str = "\
als — multi-level approximate logic synthesis under error rate constraint

USAGE:
  als stats       <in.blif>
  als gen         <benchmark> [-o out.blif]
  als approximate <in.blif> --threshold T [--algorithm single|multi|sasimi]
                  [-o out.blif] [--seed N] [--threads N]
                  [--patterns N]          random simulation vectors
                                          (default 10048)
                  [--resim incremental|full]
                  [--no-cache] [--no-dontcares] [--verbose]
                  [--metrics]             print engine counters and timings
                  [--events <log.jsonl>]  stream telemetry events to a file
  als sweep       <benchmark|in.blif>          threshold × algorithm grid,
                  [--quick]                    Pareto frontier over
                  [--thresholds a,b,..]        (literals, delay, error rate)
                  [--algorithms single,multi,sasimi]
                  [--patterns N[,N..]] [--seed N]
                  [--delay-weight W]           delay-aware scoring (0 = off)
                  [--sweep-workers N]          grid-point parallelism (0 = all
                                               cores; results identical)
                  [--threads N] [--notes TEXT]
                  [-o out.json | --out-dir DIR]  (default: stdout)
  als verify      <golden.blif> <approx.blif> [--patterns N] [--seed N]
                  [--exact]   (BDD-based, no sampling)
  als check       <in.blif> [--fast]          structural + functional lint
                  [--json]                    machine-readable diagnostics
                  [--certify <events.jsonl>]  audit a run's certificates
                  [--golden <golden.blif>]    re-derive the real error rate
                  [--engine bdd|sat|auto]     exact-rate engine: BDD miter
                                              density, #SAT cube enumeration,
                                              or BDD with SAT fallback
                  (exit 0 clean, 1 findings, 2 usage)
  als bound       <in.blif>                   static signal-probability intervals
                  [--golden <golden.blif>]    sound per-output error-rate intervals
                  [--json]                    machine-readable output
  als map         <in.blif>
  als verilog     <in.blif> [-o out.v]     technology-map and emit Verilog
  als cec         <a.blif> <b.blif>        SAT equivalence check
  als simplify    <in.blif> [-o out.blif]  function-preserving optimization
  als serve       --listen ADDR            line-delimited-JSON synthesis daemon
                  [--workers N]            worker threads (default: all cores)
                  [--queue N]              admission-queue capacity (default 16)
                  [--cache N]              circuits kept in the artifact cache
                  [--max-patterns N] [--max-iterations N]   per-job budget caps
                  [--events <log.jsonl>]   job-admission + cache-traffic log
  als list
";

fn read_network(path: &str) -> Result<Network, CliError> {
    let net = read_network_unchecked(path)?;
    net.check().map_err(|e| format!("`{path}`: {e}"))?;
    Ok(net)
}

/// Parses without the consistency check — for commands that run the full
/// analyzer themselves and want diagnostics instead of a hard error.
fn read_network_unchecked(path: &str) -> Result<Network, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    let net = blif::parse(&text).map_err(|e| format!("parsing `{path}`: {e}"))?;
    Ok(net)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn write_or_print(net: &Network, args: &[String]) -> Result<(), CliError> {
    let text = blif::write(net);
    if let Some(path) = flag_value(args, "-o").or_else(|| flag_value(args, "--output")) {
        std::fs::write(path, text).map_err(|e| format!("writing `{path}`: {e}"))?;
        eprintln!("wrote {path}");
        Ok(())
    } else {
        print!("{text}");
        Ok(())
    }
}

fn cmd_stats(pos: &[&str]) -> Result<(), CliError> {
    let path = *pos
        .first()
        .ok_or_else(|| usage("stats needs a BLIF file"))?;
    let net = read_network(path)?;
    let s = net.stats();
    println!("model:    {}", net.name());
    println!("inputs:   {}", s.num_pis);
    println!("outputs:  {}", s.num_pos);
    println!("nodes:    {}", s.num_nodes);
    println!("literals: {}", s.literals);
    println!("depth:    {}", s.depth);
    Ok(())
}

fn cmd_gen(pos: &[&str], args: &[String]) -> Result<(), CliError> {
    let name = *pos
        .first()
        .ok_or_else(|| usage("gen needs a benchmark name (see `als list`)"))?;
    let bench = find_benchmark(name)
        .ok_or_else(|| usage(format!("unknown benchmark `{name}` (see `als list`)")))?;
    let net = (bench.build)();
    write_or_print(&net, args)
}

// Infallible, but every subcommand returns `Result` so `main`'s dispatch
// stays uniform.
#[allow(clippy::unnecessary_wraps)]
fn cmd_list() -> Result<(), CliError> {
    println!("{:<8} {:<32} kind", "name", "function");
    for b in all_benchmarks() {
        println!(
            "{:<8} {:<32} {}",
            b.name,
            b.function,
            if b.stand_in { "stand-in" } else { "exact" }
        );
    }
    Ok(())
}

fn cmd_approximate(pos: &[&str], args: &[String]) -> Result<(), CliError> {
    let path = *pos
        .first()
        .ok_or_else(|| usage("approximate needs a BLIF file"))?;
    let net = read_network_unchecked(path)?;
    // Refuse to optimize a structurally broken network: the synthesis
    // loops assume the invariants the fast passes verify, and would
    // otherwise panic (or worse, quietly mis-optimize) deep inside.
    let report = NetworkAnalyzer::new(AnalyzerConfig::fast()).analyze(&net);
    if !report.is_clean() {
        return Err(usage(format!(
            "`{path}` fails structural checks; refusing to approximate\n{report}"
        )));
    }
    let threshold: f64 = flag_value(args, "--threshold")
        .ok_or_else(|| usage("approximate needs --threshold (e.g. 0.05)"))?
        .parse()
        .map_err(|e| usage(format!("bad --threshold: {e}")))?;
    let mut builder = AlsConfig::builder().threshold(threshold);
    if let Some(seed) = flag_value(args, "--seed") {
        builder = builder.seed(
            seed.parse()
                .map_err(|e| usage(format!("bad --seed: {e}")))?,
        );
    }
    if let Some(patterns) = flag_value(args, "--patterns") {
        builder = builder.patterns(
            patterns
                .parse()
                .map_err(|e| usage(format!("bad --patterns: {e} (a pattern count)")))?,
        );
    }
    if let Some(mode) = flag_value(args, "--resim") {
        builder = builder.resim(match mode {
            "incremental" => ResimMode::Incremental,
            "full" => ResimMode::Full,
            other => {
                return Err(usage(format!(
                    "unknown --resim `{other}` (incremental or full)"
                )))
            }
        });
    }
    if let Some(threads) = flag_value(args, "--threads") {
        builder = builder.threads(
            threads
                .parse()
                .map_err(|e| usage(format!("bad --threads: {e}")))?,
        );
    }
    if args.iter().any(|a| a == "--no-cache") {
        builder = builder.cache(false);
    }
    if args.iter().any(|a| a == "--no-dontcares") {
        builder = builder.use_dont_cares(false);
    }
    if let Some(log_path) = flag_value(args, "--events") {
        let sink = als::telemetry::JsonlSink::create(log_path)
            .map_err(|e| format!("cannot open --events log `{log_path}`: {e}"))?;
        builder = builder.telemetry(std::sync::Arc::new(sink));
    }
    let config = builder.build().map_err(|e| CliError::from(e.to_string()))?;
    let strategy = match flag_value(args, "--algorithm").unwrap_or("multi") {
        "single" => Strategy::Single,
        "multi" => Strategy::Multi,
        "sasimi" => Strategy::Sasimi,
        other => return Err(usage(format!("unknown --algorithm `{other}`"))),
    };
    let outcome =
        approximate(&net, strategy, &config).map_err(|e| CliError::from(e.to_string()))?;
    eprintln!("{outcome}");
    if args.iter().any(|a| a == "--metrics") {
        let m = &outcome.metrics;
        eprintln!("metrics ({}, {} threads):", m.algorithm, m.threads);
        eprintln!(
            "  simulations:  {:>8}  ({} node-patterns simulated)",
            m.simulations, m.patterns_simulated
        );
        eprintln!(
            "  sim words:    {:>8}  (signature words simulated or scanned)",
            m.patterns_simulated_words
        );
        eprintln!("  measurements: {:>8}", m.measurements);
        if m.resim_updates > 0 {
            eprintln!(
                "  resim:        {:>8}  updates ({} nodes resimulated of {} full-equivalent, {} early exits)",
                m.resim_updates, m.resim_nodes, m.resim_full_equivalent, m.resim_skipped_early_exit
            );
        }
        if m.adaptive_early_decisions > 0 {
            eprintln!(
                "  pair probe:   {:>8}  SASIMI pairs rejected from a signature prefix",
                m.adaptive_early_decisions
            );
        }
        eprintln!(
            "  evaluations:  {:>8}  (cache hits {}, hit rate {:.1}%)",
            m.evaluations,
            m.cache_hits,
            m.cache_hit_rate() * 100.0
        );
        eprintln!(
            "  invalidations:{:>8}  ({} cache entries dropped)",
            m.invalidations, m.invalidated_entries
        );
        if m.knapsack_solves > 0 {
            eprintln!(
                "  knapsack:     {:>8}  solves ({} DP cells)",
                m.knapsack_solves, m.knapsack_dp_cells
            );
        }
        for (phase, secs) in m.phase_nanos.as_seconds() {
            if secs > 0.0 {
                eprintln!("  phase {phase:<10} {secs:.4}s");
            }
        }
    }
    if args.iter().any(|a| a == "--verbose") {
        for it in &outcome.iterations {
            for ch in &it.changes {
                eprintln!(
                    "  iter {:>3}: {:<16} → {:<24} (-{} lits, est {:.5})",
                    it.iteration, ch.node_name, ch.ase, ch.literals_saved, ch.error_estimate
                );
            }
        }
    }
    write_or_print(&outcome.network, args)
}

/// `als sweep`: run a threshold × algorithm × pattern-count grid against
/// one circuit and emit the schema-versioned Pareto-frontier record
/// (`SWEEP_<circuit>.json`). Shared artifacts (golden mapping, absint
/// intervals, golden simulation per pattern count) are computed once;
/// grid points run in parallel with byte-identical results for any
/// `--sweep-workers` setting.
fn cmd_sweep(pos: &[&str], args: &[String]) -> Result<(), CliError> {
    use als::core::sweep::{detect_git_sha, run_sweep, SweepGrid};

    let target = *pos
        .first()
        .ok_or_else(|| usage("sweep needs a benchmark name (see `als list`) or a BLIF file"))?;
    let (circuit, net) = if let Some(bench) = find_benchmark(target) {
        (bench.name.to_string(), (bench.build)())
    } else if std::path::Path::new(target).exists() {
        let net = read_network(target)?;
        (net.name().to_string(), net)
    } else {
        return Err(usage(format!(
            "`{target}` is neither a known benchmark (see `als list`) nor a readable BLIF file"
        )));
    };

    let quick = args.iter().any(|a| a == "--quick");
    let mut grid = if quick {
        SweepGrid::quick()
    } else {
        SweepGrid::full()
    };
    if let Some(spec) = flag_value(args, "--thresholds") {
        grid.thresholds = spec
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<f64>()
                    .map_err(|e| usage(format!("bad --thresholds entry `{t}`: {e}")))
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(spec) = flag_value(args, "--algorithms") {
        grid.strategies = spec
            .split(',')
            .map(|a| match a.trim() {
                "single" => Ok(Strategy::Single),
                "multi" => Ok(Strategy::Multi),
                "sasimi" => Ok(Strategy::Sasimi),
                other => Err(usage(format!(
                    "unknown --algorithms entry `{other}` (single, multi or sasimi)"
                ))),
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(spec) = flag_value(args, "--patterns") {
        grid.patterns = spec
            .split(',')
            .map(|p| {
                p.trim().parse().map_err(|e| {
                    usage(format!("bad --patterns entry `{p}`: {e} (a pattern count)"))
                })
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(w) = flag_value(args, "--delay-weight") {
        let w: f64 = w
            .parse()
            .map_err(|e| usage(format!("bad --delay-weight: {e}")))?;
        grid.delay_weight = if w == 0.0 {
            DelayWeight::Off
        } else {
            DelayWeight::Scaled(w)
        };
    }
    if let Some(n) = flag_value(args, "--sweep-workers") {
        grid.sweep_workers = n
            .parse()
            .map_err(|e| usage(format!("bad --sweep-workers: {e}")))?;
    }

    let mut config = AlsConfig::default();
    if let Some(seed) = flag_value(args, "--seed") {
        config.seed = seed
            .parse()
            .map_err(|e| usage(format!("bad --seed: {e}")))?;
    }
    if let Some(threads) = flag_value(args, "--threads") {
        config.threads = threads
            .parse()
            .map_err(|e| usage(format!("bad --threads: {e}")))?;
    }
    if quick {
        // Enumeration classifies don't-cares exactly like SAT, only faster;
        // the checked-in `SWEEP_*.json` quick baselines were recorded with
        // it.
        config.dont_care.method = als::dontcare::DontCareMethod::Enumerate;
    }

    let mut record =
        run_sweep(&circuit, &net, &grid, &config).map_err(|e| CliError::from(e.to_string()))?;
    record.git_sha = detect_git_sha();
    if let Some(notes) = flag_value(args, "--notes") {
        record.notes = notes.to_string();
    }

    let frontier = record.frontier().count();
    eprintln!(
        "sweep {}: {} grid points, {} on the Pareto frontier (golden {} lits, area {:.1}, delay {:.2})",
        record.circuit,
        record.points.len(),
        frontier,
        record.golden_literals,
        record.golden_area,
        record.golden_delay
    );

    let text = record.render();
    if let Some(path) = flag_value(args, "-o").or_else(|| flag_value(args, "--output")) {
        std::fs::write(path, &text).map_err(|e| format!("writing `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    } else if let Some(dir) = flag_value(args, "--out-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating `{dir}`: {e}"))?;
        let path = std::path::Path::new(dir).join(record.file_name());
        std::fs::write(&path, &text).map_err(|e| format!("writing `{}`: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    } else {
        print!("{text}");
    }
    Ok(())
}

fn cmd_check(pos: &[&str], args: &[String]) -> Result<(), CliError> {
    let path = *pos
        .first()
        .ok_or_else(|| usage("check needs a BLIF file"))?;
    let net = read_network_unchecked(path)?;
    let engine = match flag_value(args, "--engine") {
        None | Some("bdd") => CheckEngine::Bdd,
        Some("sat") => CheckEngine::Sat,
        Some("auto") => CheckEngine::Auto,
        Some(other) => {
            return Err(usage(format!(
                "unknown --engine `{other}` (expected bdd, sat, or auto)"
            )))
        }
    };
    let config = if args.iter().any(|a| a == "--fast") {
        AnalyzerConfig::fast()
    } else {
        AnalyzerConfig::full()
    };
    let mut report = NetworkAnalyzer::new(config).analyze(&net);

    if let Some(log_path) = flag_value(args, "--certify") {
        let text = std::fs::read_to_string(log_path)
            .map_err(|e| format!("reading --certify log `{log_path}`: {e}"))?;
        match CertificateLog::from_jsonl(&text) {
            Ok(log) => {
                let golden = flag_value(args, "--golden").map(read_network).transpose()?;
                // The network being checked is the run's final network;
                // with --golden the audit re-derives its real error rate
                // on the selected exact engine.
                let config = AuditConfig {
                    engine,
                    ..AuditConfig::default()
                };
                let audit = audit_certificates(&log, golden.as_ref(), Some(&net), &config);
                report.extend(audit);
            }
            Err(e) => {
                report.push(als::check::Diagnostic::error("certificates", e.to_string()));
            }
        }
    } else if flag_value(args, "--golden").is_some() {
        return Err(usage("--golden only makes sense together with --certify"));
    } else if flag_value(args, "--engine").is_some() {
        return Err(usage("--engine only makes sense together with --certify"));
    }

    // Repeated passes (or an analyze + audit combination) can derive the
    // same finding twice; report each distinct fact once.
    report.dedupe();

    if args.iter().any(|a| a == "--json") {
        print!("{}", report_to_json(&report).render_pretty());
    } else {
        print!("{report}");
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(CliError {
            code: EXIT_FINDINGS,
            message: format!("`{path}`: {} error(s) found", report.error_count()),
        })
    }
}

/// Serializes an analysis report with the workspace's own JSON type (the
/// same one backing the telemetry event log — no external dependency).
fn report_to_json(report: &als::check::AnalysisReport) -> Json {
    let diagnostics: Vec<Json> = report
        .diagnostics
        .iter()
        .map(|d| {
            let mut obj = Json::object();
            obj.set("severity", d.severity.to_string())
                .set("pass", d.pass)
                .set("message", d.message.as_str());
            if let Some(node) = d.node {
                obj.set("node", node.index());
            }
            if let Some(name) = &d.node_name {
                obj.set("node_name", name.as_str());
            }
            if let Some(hint) = &d.hint {
                obj.set("hint", hint.as_str());
            }
            obj
        })
        .collect();
    let mut out = Json::object();
    out.set("clean", report.is_clean())
        .set("errors", report.error_count())
        .set("findings", report.diagnostics.len())
        .set("diagnostics", diagnostics);
    out
}

/// `als bound`: print the abstract interpreter's static intervals. Without
/// `--golden` these are per-output signal-probability intervals under the
/// paper's independent-uniform input model; with `--golden` they are sound
/// per-output (and combined) error-rate intervals of the network against
/// the golden function.
fn cmd_bound(pos: &[&str], args: &[String]) -> Result<(), CliError> {
    let path = *pos
        .first()
        .ok_or_else(|| usage("bound needs a BLIF file"))?;
    let net = read_network(path)?;
    let json = args.iter().any(|a| a == "--json");

    if let Some(golden_path) = flag_value(args, "--golden") {
        let golden = read_network(golden_path)?;
        let bounds = error_bounds(&golden, &net, Policy::Exact)
            .map_err(|e| CliError::from(e.to_string()))?;
        if json {
            let outputs: Vec<Json> = bounds
                .per_output
                .iter()
                .map(|o| {
                    let mut obj = Json::object();
                    obj.set("output", o.name.as_str())
                        .set("lo", o.interval.lo)
                        .set("hi", o.interval.hi);
                    obj
                })
                .collect();
            let mut out = Json::object();
            out.set("model", net.name())
                .set("golden", golden.name())
                .set("combined_lo", bounds.combined.lo)
                .set("combined_hi", bounds.combined.hi)
                .set("outputs", outputs);
            print!("{}", out.render_pretty());
        } else {
            println!("error-rate intervals vs `{golden_path}` (sound, any input distribution):");
            for o in &bounds.per_output {
                println!("  {:<24} {}", o.name, o.interval);
            }
            println!("  {:<24} {}", "any-output (combined)", bounds.combined);
        }
        return Ok(());
    }

    let probs = signal_probabilities(&net, Policy::Exact);
    if json {
        let outputs: Vec<Json> = net
            .pos()
            .iter()
            .map(|(name, driver)| {
                let i = probs.interval(*driver);
                let mut obj = Json::object();
                obj.set("output", name.as_str())
                    .set("lo", i.lo)
                    .set("hi", i.hi);
                obj
            })
            .collect();
        let mut out = Json::object();
        out.set("model", net.name())
            .set("frechet_forced_nodes", probs.frechet_count())
            .set("outputs", outputs);
        print!("{}", out.render_pretty());
    } else {
        println!(
            "signal-probability intervals (independent uniform inputs, \
             {} node(s) under reconvergent fanout use worst-case bounds):",
            probs.frechet_count()
        );
        for (name, driver) in net.pos() {
            println!("  {:<24} {}", name, probs.interval(*driver));
        }
    }
    Ok(())
}

fn cmd_verify(pos: &[&str], args: &[String]) -> Result<(), CliError> {
    let [golden_path, approx_path, ..] = *pos else {
        return Err(usage("verify needs <golden.blif> <approx.blif>"));
    };
    let golden = read_network(golden_path)?;
    let approx = read_network(approx_path)?;
    if golden.num_pis() != approx.num_pis() || golden.num_pos() != approx.num_pos() {
        return Err(CliError::from(format!(
            "interface mismatch: {}/{} vs {}/{} PIs/POs",
            golden.num_pis(),
            golden.num_pos(),
            approx.num_pis(),
            approx.num_pos()
        )));
    }
    let num_patterns: usize = flag_value(args, "--patterns")
        .map(str::parse)
        .transpose()
        .map_err(|e| usage(format!("bad --patterns: {e}")))?
        .unwrap_or(als::sim::DEFAULT_NUM_PATTERNS);
    let seed: u64 = flag_value(args, "--seed")
        .map(str::parse)
        .transpose()
        .map_err(|e| usage(format!("bad --seed: {e}")))?
        .unwrap_or(1);
    if args.iter().any(|a| a == "--exact") {
        match als::bdd::exact_error_rate(&golden, &approx, 1 << 22) {
            Ok(er) => {
                println!("exact error rate: {er:.9} (BDD miter)");
                return Ok(());
            }
            Err(e) => eprintln!("exact verification unavailable ({e}); falling back to sampling"),
        }
    }
    let patterns = PatternSet::random(golden.num_pis(), num_patterns, seed);
    let er = error_rate(&golden, &approx, &patterns);
    println!(
        "error rate: {er:.6} ({} patterns, seed {seed})",
        patterns.num_patterns()
    );
    Ok(())
}

fn cmd_verilog(pos: &[&str], args: &[String]) -> Result<(), CliError> {
    let path = *pos
        .first()
        .ok_or_else(|| usage("verilog needs a BLIF file"))?;
    let net = read_network(path)?;
    let lib = Library::mcnc_like();
    let mapped = map_network(&net, &lib);
    let text = write_verilog(&net, &mapped);
    match flag_value(args, "-o").or_else(|| flag_value(args, "--output")) {
        Some(out) => {
            std::fs::write(out, text).map_err(|e| format!("writing `{out}`: {e}"))?;
            eprintln!("wrote {out} ({} gates)", mapped.num_gates());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_cec(pos: &[&str]) -> Result<(), CliError> {
    let [a_path, b_path, ..] = *pos else {
        return Err(usage("cec needs <a.blif> <b.blif>"));
    };
    let a = read_network(a_path)?;
    let b = read_network(b_path)?;
    let result = cec(&a, &b);
    println!("{result}");
    match result {
        CecResult::Equivalent => Ok(()),
        _ => Err("networks differ".into()),
    }
}

fn cmd_simplify(pos: &[&str], args: &[String]) -> Result<(), CliError> {
    let path = *pos
        .first()
        .ok_or_else(|| usage("simplify needs a BLIF file"))?;
    let mut net = read_network(path)?;
    let before = net.literal_count();
    let config = AlsConfig::default();
    let saved = optimize_classical(&mut net, &config);
    eprintln!(
        "simplified: {before} → {} literals ({saved} saved, function preserved)",
        net.literal_count()
    );
    write_or_print(&net, args)
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let addr = flag_value(args, "--listen").ok_or_else(|| usage("serve needs --listen ADDR"))?;
    let mut config = als::serve::ServeConfig::new(addr);
    let parse_count = |name: &str, current: usize| -> Result<usize, CliError> {
        match flag_value(args, name) {
            Some(v) => v.parse().map_err(|e| usage(format!("{name}: {e}"))),
            None => Ok(current),
        }
    };
    config.workers = parse_count("--workers", config.workers)?;
    config.queue_capacity = parse_count("--queue", config.queue_capacity)?;
    config.cache_capacity = parse_count("--cache", config.cache_capacity)?;
    config.max_patterns = parse_count("--max-patterns", config.max_patterns)?;
    config.max_iterations = parse_count("--max-iterations", config.max_iterations)?;
    let telemetry = match flag_value(args, "--events") {
        Some(log_path) => {
            let sink = als::telemetry::JsonlSink::create(log_path)
                .map_err(|e| format!("cannot open --events log `{log_path}`: {e}"))?;
            als::telemetry::Telemetry::new(std::sync::Arc::new(sink))
        }
        None => als::telemetry::Telemetry::disabled(),
    };
    let server = als::serve::Server::bind(&config, telemetry)
        .map_err(|e| format!("cannot listen on `{}`: {e}", config.addr))?;
    eprintln!(
        "als serve: listening on {} ({} workers, queue {}, cache {} circuits)",
        server.local_addr(),
        server.num_workers(),
        config.queue_capacity,
        config.cache_capacity
    );
    server
        .run()
        .map_err(|e| CliError::from(format!("serve: {e}")))
}

fn cmd_map(pos: &[&str]) -> Result<(), CliError> {
    let path = *pos.first().ok_or_else(|| usage("map needs a BLIF file"))?;
    let net = read_network(path)?;
    let lib = Library::mcnc_like();
    let mapped = map_network(&net, &lib);
    println!("area:  {:.1}", mapped.area());
    println!("delay: {:.2}", mapped.delay());
    println!("gates: {}", mapped.num_gates());
    let mut hist: Vec<_> = mapped.cell_histogram().into_iter().collect();
    hist.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (cell, count) in hist {
        println!("  {cell:<8} {count}");
    }
    Ok(())
}
