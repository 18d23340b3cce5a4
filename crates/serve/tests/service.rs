//! In-process client/server integration suite.
//!
//! The headline contracts under test, straight from the daemon's design:
//!
//! * **Byte identity** — a job's result (the emitted BLIF, the measured
//!   error rate, the literal counts) is byte-identical to a cold one-shot
//!   `als_core::approximate` call with the same configuration, whether the
//!   daemon served it cold or from a warm artifact cache.
//! * **Warm cache skips phases** — a repeat request for the same circuit
//!   at a *new threshold* reports every cache flag true, zero parse and
//!   context phase time, and non-vacuous hit counters in its metrics.
//! * **Cancellation frees the slot** — cancelling a long job mid-run
//!   yields a `"cancelled"` result at the next iteration boundary and the
//!   worker immediately serves the next job.

mod common;

use als_core::{approximate, AlsConfig, AlsOutcome, Strategy};
use als_network::blif;
use als_serve::ServeConfig;
use als_telemetry::Json;
use common::{
    bool_field, f64_field, obj_field, slow_job, start, str_field, synth_request, u64_field, Client,
};

/// The shared small circuit: an 8-bit ripple-carry adder as BLIF text.
fn rca8_blif() -> String {
    blif::write(&als_circuits::adders::ripple_carry_adder(8))
}

/// The direct (no daemon) reference run the byte-identity contract names.
fn direct(text: &str, threshold: f64, strategy: Strategy, seed: u64, budget: usize) -> AlsOutcome {
    let net = blif::parse(text).expect("reference BLIF parses");
    direct_net(&net, threshold, strategy, seed, budget)
}

/// Reference run on an already-built network (the daemon resolves
/// registry benchmarks without a BLIF round-trip, so the reference must
/// too).
fn direct_net(
    net: &als_network::Network,
    threshold: f64,
    strategy: Strategy,
    seed: u64,
    budget: usize,
) -> AlsOutcome {
    let config = AlsConfig::builder()
        .threshold(threshold)
        .seed(seed)
        .patterns(budget)
        .max_iterations(10_000)
        .build()
        .expect("reference config");
    approximate(net, strategy, &config).expect("reference run")
}

/// Asserts a `"result"` frame equals the reference outcome byte for byte.
fn assert_matches_direct(result: &Json, reference: &AlsOutcome) {
    assert_eq!(str_field(result, "status"), "done");
    assert_eq!(str_field(result, "blif"), blif::write(&reference.network));
    assert_eq!(
        f64_field(result, "error_rate").to_bits(),
        reference.measured_error_rate.to_bits(),
        "error rates differ bit-for-bit"
    );
    assert_eq!(
        u64_field(result, "initial_literals"),
        reference.initial_literals as u64
    );
    assert_eq!(
        u64_field(result, "final_literals"),
        reference.final_literals as u64
    );
    assert_eq!(
        u64_field(result, "iterations"),
        reference.iterations.len() as u64
    );
}

#[test]
fn cold_and_warm_results_are_byte_identical_to_direct_runs() {
    let text = rca8_blif();
    let daemon = start(ServeConfig::new(""));
    let mut client = Client::connect(daemon.addr());

    // Cold: every artifact is a miss and every phase runs.
    client.send(&synth_request(
        "cold", "blif", &text, 0.05, "multi", 7, 256, false,
    ));
    let cold = client.recv_type("result");
    assert_matches_direct(&cold, &direct(&text, 0.05, Strategy::Multi, 7, 256));
    let cache = obj_field(&cold, "cache");
    for artifact in ["network", "signatures", "absint"] {
        assert!(!bool_field(cache, artifact), "cold job hit `{artifact}`");
    }
    let metrics = obj_field(&cold, "metrics");
    assert_eq!(u64_field(metrics, "artifact_cache_hits"), 0);
    assert_eq!(u64_field(metrics, "artifact_cache_misses"), 3);

    // Warm: same circuit, same stimulus, NEW threshold. The parse,
    // absint, mapping and golden-signature phases are all served from the
    // cache — their cache flags flip to true, their phase timings are
    // exactly zero, and the hit counters are non-vacuous — yet the result
    // is still byte-identical to a cold single-shot run at the new
    // threshold.
    client.send(&synth_request(
        "warm", "blif", &text, 0.02, "multi", 7, 256, false,
    ));
    let warm = client.recv_type("result");
    assert_matches_direct(&warm, &direct(&text, 0.02, Strategy::Multi, 7, 256));
    let cache = obj_field(&warm, "cache");
    for artifact in ["network", "signatures", "absint"] {
        assert!(bool_field(cache, artifact), "warm job missed `{artifact}`");
    }
    let timings = obj_field(&warm, "timings");
    assert_eq!(f64_field(timings, "parse_s"), 0.0, "parse phase ran warm");
    assert_eq!(
        f64_field(timings, "context_s"),
        0.0,
        "signature phase ran warm"
    );
    assert!(
        f64_field(timings, "synth_s") > 0.0,
        "synthesis is never cached"
    );
    let metrics = obj_field(&warm, "metrics");
    assert_eq!(u64_field(metrics, "artifact_cache_hits"), 3);
    assert_eq!(u64_field(metrics, "artifact_cache_misses"), 0);
}

#[test]
fn concurrent_jobs_on_separate_connections_all_match_direct_runs() {
    let text = rca8_blif();
    let mut config = ServeConfig::new("");
    config.workers = 4;
    let daemon = start(config);
    let addr = daemon.addr();

    // Four jobs at different thresholds/seeds race through the daemon;
    // each must match its own reference run exactly.
    let jobs: Vec<(f64, u64)> = vec![(0.05, 1), (0.02, 2), (0.08, 3), (0.05, 4)];
    let handles: Vec<_> = jobs
        .iter()
        .map(|&(threshold, seed)| {
            let text = text.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                client.send(&synth_request(
                    "job", "blif", &text, threshold, "single", seed, 256, false,
                ));
                client.recv_type("result")
            })
        })
        .collect();
    for (handle, (threshold, seed)) in handles.into_iter().zip(jobs) {
        let result = handle.join().expect("client thread");
        assert_matches_direct(
            &result,
            &direct(&text, threshold, Strategy::Single, seed, 256),
        );
    }
}

#[test]
fn registry_benchmarks_are_accepted_by_name() {
    let daemon = start(ServeConfig::new(""));
    let mut client = Client::connect(daemon.addr());
    client.send(&synth_request(
        "bench", "bench", "RCA32", 0.05, "multi", 3, 128, false,
    ));
    let result = client.recv_type("result");
    let net = (als_circuits::registry::find_benchmark("RCA32")
        .expect("RCA32 registered")
        .build)();
    assert_matches_direct(&result, &direct_net(&net, 0.05, Strategy::Multi, 3, 128));
}

#[test]
fn cancellation_mid_job_frees_the_worker_slot() {
    let mut config = ServeConfig::new("");
    config.workers = 1;
    let daemon = start(config);
    let mut client = Client::connect(daemon.addr());

    // A long job with progress streaming on.
    client.send(&slow_job("slow", true));
    let accepted = client.recv_type("accepted");
    assert_eq!(str_field(&accepted, "id"), "slow");
    // Wait until the job is demonstrably mid-run, then cancel it.
    let first_progress = client.recv_type("progress");
    assert_eq!(str_field(&first_progress, "id"), "slow");
    client.send(r#"{"v":2,"type":"cancel","id":"slow"}"#);
    // The `cancel_ok` acknowledgement and the job's final `result` frame
    // race on the wire (reader thread vs. worker); accept either order, and
    // read until both have arrived.
    let mut saw_cancel_ok = false;
    let mut result = None;
    while !saw_cancel_ok || result.is_none() {
        let frame = client.recv();
        match str_field(&frame, "type").to_string().as_str() {
            "cancel_ok" => {
                assert!(bool_field(&frame, "found"), "token not found");
                saw_cancel_ok = true;
            }
            "result" => result = Some(frame),
            "progress" => {}
            other => panic!("unexpected `{other}` frame: {}", frame.render()),
        }
    }
    assert!(saw_cancel_ok, "cancel went unacknowledged");
    let result = result.expect("the loop ends only once the result arrived");
    assert_eq!(str_field(&result, "status"), "cancelled");

    // The single worker slot is free again: the next job runs to
    // completion on the same connection.
    client.send(&synth_request(
        "next",
        "blif",
        &rca8_blif(),
        0.05,
        "multi",
        7,
        64,
        false,
    ));
    let next = client.recv_type("result");
    assert_eq!(str_field(&next, "status"), "done");

    // Cancelling a finished job's id is answered, not an error.
    client.send(r#"{"v":2,"type":"cancel","id":"nope"}"#);
    let missing = client.recv_type("cancel_ok");
    assert!(!bool_field(&missing, "found"));
}

#[test]
fn ping_stats_and_shutdown_round_trip() {
    let mut config = ServeConfig::new("");
    config.workers = 2;
    config.queue_capacity = 5;
    let daemon = start(config);
    let mut client = Client::connect(daemon.addr());

    client.send(r#"{"v":2,"type":"ping"}"#);
    assert_eq!(str_field(&client.recv(), "type"), "pong");

    client.send(&synth_request(
        "s1",
        "blif",
        &rca8_blif(),
        0.05,
        "multi",
        7,
        64,
        false,
    ));
    client.recv_type("result");

    client.send(r#"{"v":2,"type":"stats"}"#);
    let stats = client.recv_type("stats");
    assert_eq!(u64_field(&stats, "protocol"), 2);
    assert_eq!(u64_field(&stats, "workers"), 2);
    assert_eq!(u64_field(&stats, "queue_capacity"), 5);
    assert_eq!(u64_field(&stats, "jobs_admitted"), 1);
    assert_eq!(u64_field(&stats, "jobs_done"), 1);
    assert_eq!(u64_field(&stats, "jobs_failed"), 0);
    assert_eq!(u64_field(&stats, "cache_circuits"), 1);
    assert_eq!(u64_field(&stats, "cache_misses"), 3);

    // A client-initiated shutdown is acknowledged before the daemon
    // stops; the Daemon drop below joins the server thread, which only
    // returns if the shutdown actually propagated.
    client.send(r#"{"v":2,"type":"shutdown"}"#);
    assert_eq!(str_field(&client.recv(), "type"), "bye");
}
