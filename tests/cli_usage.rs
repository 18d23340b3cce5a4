//! Usage-conformance audit for the `als` binary.
//!
//! The help text is a contract: every subcommand it advertises must be
//! dispatched (not fall through to "unknown command"), every advertised
//! subcommand invoked with missing/bad arguments must exit 2 with a usage
//! error, and the advertised set must match the dispatcher's set exactly —
//! so the help text can never silently drift from `main`'s match again.
//! Last, a real `als serve` process must answer a cold→warm job pair over
//! TCP and exit cleanly on `shutdown`.

use als::telemetry::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

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
    // The removed pattern-count alias and the removed pattern specs are
    // usage errors too, not a silent run at the default count.
    for removed in [
        ["--num-patterns", "256"],
        ["--patterns", "adaptive:64..256"],
    ] {
        let out = als(&[
            "approximate",
            &blif,
            "--threshold",
            "0.05",
            removed[0],
            removed[1],
        ]);
        assert_eq!(out.status.code(), Some(2), "{removed:?}");
    }
}

#[test]
fn flags_may_come_before_the_input_paths() {
    let golden = tmp_path("flags_first_ksa32.blif");
    assert!(als(&["gen", "KSA32", "-o", &golden]).status.success());
    let path_first = als(&[
        "approximate",
        &golden,
        "--threshold",
        "0.05",
        "--patterns",
        "256",
    ]);
    let flags_first = als(&[
        "approximate",
        "--threshold",
        "0.05",
        "--patterns",
        "256",
        &golden,
    ]);
    assert!(path_first.status.success());
    assert!(flags_first.status.success(), "{flags_first:?}");
    assert_eq!(path_first.stdout, flags_first.stdout);

    let approx = tmp_path("flags_first_ksa32_approx.blif");
    std::fs::write(&approx, &path_first.stdout).expect("write approximate BLIF");
    let path_first = als(&["verify", &golden, &approx, "--patterns", "1024"]);
    let flags_first = als(&["verify", "--patterns", "1024", &golden, &approx]);
    assert!(path_first.status.success());
    assert!(flags_first.status.success(), "{flags_first:?}");
    assert_eq!(path_first.stdout, flags_first.stdout);
}

/// A spawned `als serve` that is killed and reaped when dropped, so a
/// failing assertion never leaves the daemon running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        // The daemon may already have exited; either way it is reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Reads frames until `type` is `want`, skipping `accepted`/`progress`.
fn await_frame(reader: &mut BufReader<TcpStream>, want: &str) -> Json {
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("daemon frame in time");
        assert!(n > 0, "daemon hung up while waiting for `{want}`");
        let frame = Json::parse(line.trim_end()).expect("frames are JSON");
        match frame.get("type").and_then(Json::as_str) {
            Some(t) if t == want => return frame,
            Some("accepted" | "progress") => {}
            _ => panic!("expected a `{want}` frame, got {line}"),
        }
    }
}

fn field<'a>(frame: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().fold(frame, |j, key| {
        j.get(key)
            .unwrap_or_else(|| panic!("frame lacks `{}`: {}", path.join("."), frame.render()))
    })
}

#[test]
fn serve_process_answers_a_cold_then_warm_job_over_tcp() {
    const TIMEOUT: Duration = Duration::from_secs(10);
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_als"))
            .args(["serve", "--listen", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn als serve"),
    );

    // The bound port is only known from the banner. A reader thread passes
    // the banner on, then drains stderr until the daemon exits, so the
    // test can wait on the banner with a timeout.
    let stderr = daemon.0.stderr.take().expect("piped stderr");
    let (banner_tx, banner_rx) = mpsc::channel();
    let drain = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = banner_tx.send(line);
        }
    });
    let banner = banner_rx.recv_timeout(TIMEOUT).expect("serve banner");
    let addr: SocketAddr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in banner `{banner}`"));

    let stream = TcpStream::connect_timeout(&addr, TIMEOUT).expect("connect to daemon");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    stream
        .set_write_timeout(Some(TIMEOUT))
        .expect("write timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    // Same circuit and stimulus, new threshold: the warm job reruns only
    // the selection loop, with every artifact served from the cache.
    let mut job = |id: &str, threshold: f64| {
        writeln!(
            writer,
            r#"{{"v":2,"type":"synthesize","id":"{id}","circuit":{{"bench":"MUL8"}},"threshold":{threshold},"algorithm":"multi","seed":7,"patterns":256}}"#
        )
        .expect("send job");
        let result = await_frame(&mut reader, "result");
        assert_eq!(field(&result, &["status"]).as_str(), Some("done"));
        result
    };
    let cold = job("cold", 0.01);
    let warm = job("warm", 0.05);
    let misses = |frame: &Json| field(frame, &["metrics", "artifact_cache_misses"]).as_u64();
    assert!(misses(&cold) > Some(0), "the cold job must miss the cache");
    assert_eq!(misses(&warm), Some(0), "the warm job missed the cache");
    assert_eq!(field(&warm, &["timings", "parse_s"]).as_f64(), Some(0.0));
    assert_eq!(field(&warm, &["timings", "context_s"]).as_f64(), Some(0.0));

    writeln!(writer, r#"{{"v":2,"type":"shutdown"}}"#).expect("send shutdown");
    await_frame(&mut reader, "bye");
    let deadline = Instant::now() + TIMEOUT;
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll daemon") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "daemon still running after shutdown"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "daemon exited with {status}");
    drain.join().expect("stderr drain thread");
}
