//! `als-lint` — the workspace's static-analysis subsystem.
//!
//! The repo's core guarantee is byte-identical determinism across threads,
//! policies and solver-reuse modes: it is what makes the error-rate
//! certificates auditable. This crate defends it (and the library's
//! no-panic / no-lossy-cast hygiene) with a token-aware scanner and a
//! registry of lint passes, replacing the line-oriented lint that used to
//! live in `als-bench`:
//!
//! * [`scanner`] — a hand-rolled string/char/raw-string/comment-aware Rust
//!   token scanner (the workspace is offline, so no `syn`);
//! * [`passes`] — the pass registry: `panic`, `as-cast`, `map-iter`
//!   (ported from the old lint), `float-cmp`, `silent-result`,
//!   `nondeterminism` (new), plus the driver-level `stale-allow`
//!   suppression audit;
//! * [`workspace`] — file discovery, the `// lint:allow(<pass>): why`
//!   suppression protocol, and the stale-marker audit;
//! * [`baseline`] — the schema-versioned `lint-baseline.json` ratchet:
//!   per-pass finding and suppression counts may only go down;
//! * [`report`] — the human listing and the `--json` machine report.
//!
//! The `als-lint` binary wires it together:
//!
//! ```text
//! als-lint [--pass <name>|all] [--json] [--baseline FILE]
//!          [--update-baseline] [--root DIR] [--list-passes]
//! ```
//!
//! Exit codes: 0 clean, 1 findings / stale markers / ratchet regression,
//! 2 usage or I/O error.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(missing_docs)]

pub mod baseline;
pub mod passes;
pub mod report;
pub mod scanner;
pub mod workspace;

use std::io::Write;
use std::path::PathBuf;

use baseline::Baseline;
use workspace::Selection;

/// A parsed command line.
#[derive(Debug)]
struct Cli {
    selection: Selection,
    json: bool,
    baseline: Option<PathBuf>,
    update_baseline: bool,
    root: Option<PathBuf>,
    list_passes: bool,
}

/// The full CLI behind the `als-lint` binary. Returns the process exit
/// code; the JSON report goes to stdout and everything human-facing to
/// stderr, so `als-lint --json > report.json` captures a well-formed
/// document even when the run fails.
pub fn cli_main(args: &[String]) -> u8 {
    let cli = match parse_args(args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("als-lint: {message}");
            return 2;
        }
    };
    if cli.list_passes {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for pass in passes::registry() {
            // lint:allow(silent-result): a closed stdout pipe must not abort the lint
            let _ = writeln!(out, "{:<16} {}", pass.name(), pass.description());
        }
        // lint:allow(silent-result): a closed stdout pipe must not abort the lint
        let _ = writeln!(
            out,
            "{:<16} {}",
            passes::STALE_ALLOW,
            passes::STALE_ALLOW_DESCRIPTION
        );
        return 0;
    }
    let Some(root) = cli.root.clone().or_else(workspace::find_workspace_root) else {
        eprintln!(
            "als-lint: cannot locate the workspace root (no Cargo.toml with [workspace] \
             upwards; use --root)"
        );
        return 2;
    };
    let report = match workspace::lint_workspace(&root, &cli.selection) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("als-lint: {message}");
            return 2;
        }
    };

    // Stale / malformed suppression markers are never ratchetable debt:
    // they fail the run whatever the baseline says.
    let stale_failed = report
        .findings
        .iter()
        .any(|f| f.pass == passes::STALE_ALLOW);
    let (failed, ratchet) = match &cli.baseline {
        Some(path) if cli.update_baseline => {
            if let Err(message) = Baseline::update(path, &report) {
                eprintln!("als-lint: {message}");
                return 2;
            }
            eprintln!("als-lint: baseline {} updated", path.display());
            // Updating *is* the act of recording triaged counts, so the
            // ratchet holds by construction afterwards.
            (stale_failed, None)
        }
        Some(path) => match Baseline::load(path) {
            Ok(baseline) => {
                // Counts at or below the baseline are recorded debt, not
                // new findings: only a regression (or a stale marker)
                // fails a baselined run.
                let ratchet = baseline.compare(&report);
                (
                    stale_failed || !ratchet.regressions.is_empty(),
                    Some(ratchet),
                )
            }
            Err(message) => {
                eprintln!("als-lint: {message}");
                return 2;
            }
        },
        None => (!report.clean(), None),
    };

    let human = report::render_human(&report, ratchet.as_ref());
    if cli.json {
        let json = report::render_json(&report, ratchet.as_ref());
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        // lint:allow(silent-result): a closed stdout pipe must not abort the lint
        let _ = out.write_all(json.as_bytes());
        eprint!("{human}");
    } else {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        // lint:allow(silent-result): a closed stdout pipe must not abort the lint
        let _ = out.write_all(human.as_bytes());
    }
    u8::from(failed)
}

/// Parses the argument list (program name already stripped).
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        selection: Selection::All,
        json: false,
        baseline: None,
        update_baseline: false,
        root: None,
        list_passes: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--pass" => {
                let value = it.next().ok_or_else(|| {
                    format!(
                        "--pass needs a value: {}, all",
                        passes::pass_names().join(", ")
                    )
                })?;
                cli.selection = Selection::parse(value)?;
            }
            "--json" => cli.json = true,
            "--baseline" => {
                let value = it.next().ok_or("--baseline needs a file path")?;
                cli.baseline = Some(PathBuf::from(value));
            }
            "--update-baseline" => cli.update_baseline = true,
            "--root" => {
                let value = it.next().ok_or("--root needs a directory")?;
                cli.root = Some(PathBuf::from(value));
            }
            "--list-passes" => cli.list_passes = true,
            other => {
                return Err(format!(
                    "unknown argument `{other}` (try --pass, --json, --baseline, --update-baseline, --root, --list-passes)"
                ));
            }
        }
    }
    if cli.update_baseline && cli.baseline.is_none() {
        return Err("--update-baseline needs --baseline <file>".to_string());
    }
    if cli.update_baseline && cli.selection != Selection::All {
        return Err(
            "--update-baseline requires --pass all: a partial run has no counts for the \
             unselected passes and would silently loosen them"
                .to_string(),
        );
    }
    Ok(cli)
}
