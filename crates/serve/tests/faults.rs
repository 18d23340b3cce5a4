//! Fault-injection suite: every failure a client can inflict — vanishing
//! mid-stream, oversized or truncated frames, overflowing the admission
//! queue, plain garbage — must come back as a typed error frame or a
//! clean teardown. Never a panic, and never a wedged worker: after each
//! fault the pool is shown to accept and finish the next job.

mod common;

use als_network::blif;
use als_serve::ServeConfig;
use als_telemetry::Json;
use common::{bool_field, slow_job, start, str_field, synth_request, u64_field, Client};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn rca8_blif() -> String {
    blif::write(&als_circuits::adders::ripple_carry_adder(8))
}

/// Submits a quick job and asserts it completes — the "pool still serves"
/// probe run after every injected fault.
fn assert_pool_accepts_next_job(client: &mut Client) {
    client.send(&synth_request(
        "probe",
        "blif",
        &rca8_blif(),
        0.05,
        "multi",
        7,
        64,
        false,
    ));
    let result = client.recv_type("result");
    assert_eq!(str_field(&result, "status"), "done");
}

/// Polls `stats` until the queue drains (the worker picked up the job).
fn wait_until_queue_empty(client: &mut Client) {
    for _ in 0..200 {
        client.send(r#"{"v":2,"type":"stats"}"#);
        let stats = client.recv_type("stats");
        if u64_field(&stats, "queue_depth") == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("queue never drained");
}

#[test]
fn client_disconnect_mid_stream_cancels_the_job_and_frees_the_worker() {
    let mut config = ServeConfig::new("");
    config.workers = 1;
    let daemon = start(config);

    // Client one starts a long streaming job and vanishes mid-stream.
    {
        let mut doomed = Client::connect(daemon.addr());
        doomed.send(&slow_job("doomed", true));
        doomed.recv_type("accepted");
        doomed.recv_type("progress");
    } // both stream halves drop here — an abrupt disconnect

    // The reader thread observes EOF and trips the job's cancel token, so
    // the single worker frees at the next iteration boundary and serves
    // client two. The generous client read timeout bounds this wait.
    let mut client = Client::connect(daemon.addr());
    assert_pool_accepts_next_job(&mut client);
}

#[test]
fn oversized_frame_is_a_typed_error_and_a_closed_connection() {
    let mut config = ServeConfig::new("");
    config.max_frame_bytes = 1024;
    let daemon = start(config);

    let mut client = Client::connect(daemon.addr());
    let huge = format!(
        "{{\"v\":2,\"type\":\"ping\",\"pad\":\"{}\"}}",
        "x".repeat(4096)
    );
    client.send(&huge);
    let err = client.recv_type("error");
    assert_eq!(str_field(&err, "code"), "oversized_frame");
    // The daemon closes the connection after the error frame.
    assert!(client.try_recv().is_none(), "connection not closed");

    // The daemon itself is unharmed.
    let mut client = Client::connect(daemon.addr());
    client.send(r#"{"v":2,"type":"ping"}"#);
    assert_eq!(str_field(&client.recv(), "type"), "pong");
}

#[test]
fn truncated_frame_at_eof_is_clean_teardown() {
    let daemon = start(ServeConfig::new(""));

    // Write half a frame — no terminating newline — and hang up.
    let mut raw = TcpStream::connect(daemon.addr()).expect("connect");
    raw.write_all(br#"{"v":2,"type":"synthesize","id":"trunc"#)
        .expect("partial write");
    drop(raw);

    // No panic, no wedged reader: the daemon still answers.
    let mut client = Client::connect(daemon.addr());
    client.send(r#"{"v":2,"type":"ping"}"#);
    assert_eq!(str_field(&client.recv(), "type"), "pong");
}

#[test]
fn full_admission_queue_rejects_with_queue_full_then_recovers() {
    let mut config = ServeConfig::new("");
    config.workers = 1;
    config.queue_capacity = 1;
    let daemon = start(config);
    let mut client = Client::connect(daemon.addr());

    // Occupy the single worker…
    client.send(&slow_job("running", false));
    client.recv_type("accepted");
    wait_until_queue_empty(&mut client);
    // …fill the queue…
    client.send(&slow_job("queued", false));
    client.recv_type("accepted");
    // …and overflow it: typed rejection carrying the request id.
    client.send(&slow_job("rejected", false));
    let err = client.recv_type("error");
    assert_eq!(str_field(&err, "code"), "queue_full");
    assert_eq!(str_field(&err, "id"), "rejected");

    // Cancel both admitted jobs; each still yields a (cancelled) result
    // frame. Acknowledgements and results race on the wire, so count
    // frames by type rather than assuming an order.
    client.send(r#"{"v":2,"type":"cancel","id":"running"}"#);
    client.send(r#"{"v":2,"type":"cancel","id":"queued"}"#);
    let (mut cancel_oks, mut results) = (0, 0);
    while cancel_oks < 2 || results < 2 {
        let frame = client.recv();
        match str_field(&frame, "type").to_string().as_str() {
            "cancel_ok" => cancel_oks += 1,
            "result" => {
                assert_eq!(str_field(&frame, "status"), "cancelled");
                results += 1;
            }
            other => panic!("unexpected `{other}` frame: {}", frame.render()),
        }
    }

    // Queue space and the worker slot are both back.
    assert_pool_accepts_next_job(&mut client);
}

#[test]
fn admission_rejects_budgets_above_the_daemon_caps() {
    let mut config = ServeConfig::new("");
    config.max_patterns = 512;
    config.max_iterations = 50;
    let daemon = start(config);
    let mut client = Client::connect(daemon.addr());

    // Pattern count above the cap.
    client.send(&synth_request(
        "pat",
        "blif",
        &rca8_blif(),
        0.05,
        "multi",
        7,
        1024,
        false,
    ));
    let err = client.recv_type("error");
    assert_eq!(str_field(&err, "code"), "bad_config");
    assert_eq!(str_field(&err, "id"), "pat");

    // Iteration budget above the cap.
    let line = format!(
        "{{\"v\":2,\"type\":\"synthesize\",\"id\":\"iter\",\"circuit\":{{\"blif\":{}}},\"threshold\":0.05,\"max_iterations\":51}}",
        Json::from(rca8_blif().as_str()).render()
    );
    client.send(&line);
    let err = client.recv_type("error");
    assert_eq!(str_field(&err, "code"), "bad_config");

    // Nonsense threshold.
    client.send(&synth_request(
        "thr",
        "blif",
        &rca8_blif(),
        42.0,
        "multi",
        7,
        64,
        false,
    ));
    let err = client.recv_type("error");
    assert_eq!(str_field(&err, "code"), "bad_config");

    // In-budget requests still fly on the same connection.
    client.send(&synth_request(
        "ok",
        "blif",
        &rca8_blif(),
        0.05,
        "multi",
        7,
        256,
        false,
    ));
    assert_eq!(str_field(&client.recv_type("result"), "status"), "done");
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let daemon = start(ServeConfig::new(""));
    let mut client = Client::connect(daemon.addr());

    for (line, code) in [
        ("$$$ not json $$$", "bad_json"),
        (r#"{"v":9,"type":"ping"}"#, "unsupported_version"),
        (r#"{"v":2,"type":"teleport"}"#, "bad_request"),
        (
            r#"{"v":2,"type":"synthesize","id":"x","circuit":{},"threshold":0.1}"#,
            "bad_request",
        ),
    ] {
        client.send(line);
        let err = client.recv_type("error");
        assert_eq!(str_field(&err, "code"), code, "line: {line}");
    }

    // An unknown benchmark is admitted, then fails in the worker with a
    // typed error — and the worker itself survives to run the next job.
    client.send(&synth_request(
        "ghost",
        "bench",
        "no-such-circuit",
        0.05,
        "multi",
        7,
        64,
        false,
    ));
    let err = client.recv_type("error");
    assert_eq!(str_field(&err, "code"), "bad_circuit");
    assert_eq!(str_field(&err, "id"), "ghost");

    // Unparseable inline BLIF: same typed path.
    client.send(&synth_request(
        "bad-blif",
        "blif",
        ".model broken\n.nonsense\n",
        0.05,
        "multi",
        7,
        64,
        false,
    ));
    let err = client.recv_type("error");
    assert_eq!(str_field(&err, "code"), "bad_circuit");

    assert_pool_accepts_next_job(&mut client);
    // The failures above were counted, not hidden.
    client.send(r#"{"v":2,"type":"stats"}"#);
    let stats = client.recv_type("stats");
    assert_eq!(u64_field(&stats, "jobs_failed"), 2);

    // `found:false` — cancel for a job this connection never admitted.
    client.send(r#"{"v":2,"type":"cancel","id":"martian"}"#);
    assert!(!bool_field(&client.recv_type("cancel_ok"), "found"));
}
