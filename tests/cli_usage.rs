//! Usage-conformance audit for the `als` binary.
//!
//! The help text is a contract: every subcommand it advertises must be
//! dispatched (not fall through to "unknown command"), every advertised
//! subcommand invoked with missing/bad arguments must exit 2 with a usage
//! error, and the advertised set must match the dispatcher's set exactly —
//! so the help text can never silently drift from `main`'s match again.

use std::process::{Command, Output};

/// Every subcommand `main` dispatches. Keep in sync with the dispatcher —
/// the first test fails if the help text and this list ever disagree.
const DISPATCHED: &[&str] = &[
    "stats",
    "gen",
    "approximate",
    "sweep",
    "verify",
    "check",
    "bound",
    "map",
    "verilog",
    "cec",
    "simplify",
    "serve",
    "list",
];

fn als(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_als"))
        .args(args)
        .output()
        .expect("run als")
}

/// The subcommand names the `--help` text advertises, in order.
fn advertised_subcommands() -> Vec<String> {
    let out = als(&["--help"]);
    assert!(out.status.success(), "--help must exit 0");
    let help = String::from_utf8_lossy(&out.stdout).into_owned();
    help.lines()
        .filter_map(|line| line.strip_prefix("  als "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(ToString::to_string)
        .collect()
}

#[test]
fn help_advertises_exactly_the_dispatched_subcommands() {
    let advertised = advertised_subcommands();
    assert_eq!(
        advertised, DISPATCHED,
        "help text and dispatcher disagree on the subcommand set"
    );
}

#[test]
fn every_advertised_subcommand_is_dispatched() {
    for cmd in advertised_subcommands() {
        // A dispatched subcommand may fail for lack of arguments, but it
        // must never fall through to the unknown-command arm.
        let out = als(&[&cmd]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("unknown command"),
            "`als {cmd}` is advertised but not dispatched: {stderr}"
        );
    }
}

#[test]
fn bad_arguments_exit_2_for_every_argument_taking_subcommand() {
    for cmd in DISPATCHED {
        if *cmd == "list" {
            continue; // takes no arguments; exercised below
        }
        // Invoked bare, every argument-taking subcommand is a usage error:
        // exit code 2 and a diagnostic on stderr.
        let out = als(&[cmd]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`als {cmd}` without arguments should exit 2, got {:?}",
            out.status.code()
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error:"),
            "`als {cmd}` should print an error diagnostic, got: {stderr}"
        );
    }
}

#[test]
fn unknown_commands_exit_2_and_echo_usage() {
    let out = als(&["transmogrify"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
    assert!(
        stderr.contains("USAGE"),
        "usage text missing from: {stderr}"
    );
}

#[test]
fn list_and_help_exit_0() {
    assert!(als(&["list"]).status.success());
    assert!(als(&["--help"]).status.success());
    assert!(als(&["help"]).status.success());
    assert!(als(&[]).status.success());
}

#[test]
fn serve_rejects_bad_flags_with_usage_errors() {
    for args in [
        vec!["serve"], // missing --listen
        vec!["serve", "--listen", "127.0.0.1:0", "--workers", "many"],
        vec!["serve", "--listen", "127.0.0.1:0", "--queue", "-3"],
    ] {
        let out = als(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`als {}` should exit 2",
            args.join(" ")
        );
    }
}

/// A path in this test binary's scratch directory.
fn tmp_path(file: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    dir.join(file).to_string_lossy().into_owned()
}

/// Writes `y = f(a, b)` with the given SOP rows as a BLIF file; returns its path.
fn write_blif(name: &str, rows: &str) -> String {
    let path = tmp_path(&format!("{name}.blif"));
    let text = format!(".model {name}\n.inputs a b\n.outputs y\n.names a b y\n{rows}.end\n");
    std::fs::write(&path, text).expect("write BLIF");
    path
}

#[test]
fn cec_reports_equivalence_and_witnesses() {
    let (rca, ksa) = (tmp_path("cec_rca32.blif"), tmp_path("cec_ksa32.blif"));
    assert!(als(&["gen", "RCA32", "-o", &rca]).status.success());
    assert!(als(&["gen", "KSA32", "-o", &ksa]).status.success());
    let out = als(&["cec", &rca, &ksa]);
    assert_eq!(out.status.code(), Some(0), "RCA32 and KSA32 are equivalent");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "equivalent");

    let out = als(&[
        "cec",
        &write_blif("cec_and", "11 1\n"),
        &write_blif("cec_or", "1- 1\n-1 1\n"),
    ]);
    assert_eq!(out.status.code(), Some(1), "AND and OR differ");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The witness sets exactly one of the two inputs.
    let witness = stdout.trim().strip_prefix("not equivalent; witness ");
    assert!(
        matches!(witness, Some("01" | "10")),
        "no witness in: {stdout}"
    );
}

#[test]
fn unknown_flags_exit_2_on_every_subcommand() {
    let blif = write_blif("flags_and", "11 1\n");
    for cmd in DISPATCHED {
        // A valid invocation, so the unknown flag is the only fault.
        let mut args: Vec<&str> = match *cmd {
            "gen" | "sweep" => vec![cmd, "RCA32"],
            "approximate" => vec![cmd, &blif, "--threshold", "0.05"],
            "verify" | "cec" => vec![cmd, &blif, &blif],
            "serve" => vec![cmd, "--listen", "127.0.0.1:0"],
            "list" => vec![cmd],
            _ => vec![cmd, &blif],
        };
        args.push("--no-such-flag");
        let out = als(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`als {}`", args.join(" "));
        assert!(stderr.contains("unknown flag `--no-such-flag`"), "{stderr}");
    }
    // The removed pattern-count alias is an unknown flag too, not a silent
    // run at the default budget.
    let out = als(&[
        "approximate",
        &blif,
        "--threshold",
        "0.05",
        "--num-patterns",
        "256",
    ]);
    assert_eq!(out.status.code(), Some(2));
}
