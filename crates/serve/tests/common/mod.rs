//! Shared daemon/client helpers for the in-process service suites.
//!
//! [`start`] binds a [`Server`] on an ephemeral loopback port and runs it
//! on a background thread; dropping the returned [`Daemon`] requests
//! shutdown and joins that thread. [`Client`] is a minimal line-oriented
//! JSONL client with a generous read timeout, so a protocol bug fails the
//! test instead of hanging the suite.

use als_serve::{ServeConfig, Server, ServerHandle, PROTOCOL_VERSION};
use als_telemetry::{Json, Telemetry};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

/// A daemon running on a background thread; shut down and joined on drop.
pub struct Daemon {
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

/// Binds `config` on a loopback ephemeral port and serves it in the
/// background.
pub fn start(mut config: ServeConfig) -> Daemon {
    config.addr = "127.0.0.1:0".to_string();
    let server = Server::bind(&config, Telemetry::disabled()).expect("bind daemon");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Daemon {
        handle,
        thread: Some(thread),
    }
}

impl Daemon {
    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread").expect("server run");
        }
    }
}

/// A blocking line-oriented client for one daemon connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(300)))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { reader, writer }
    }

    /// Sends one raw request line.
    pub fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send line");
        self.writer.flush().expect("flush");
    }

    /// Receives the next frame; panics on EOF.
    pub fn recv(&mut self) -> Json {
        self.try_recv().expect("connection closed mid-conversation")
    }

    /// Receives the next frame, or `None` on clean EOF.
    pub fn try_recv(&mut self) -> Option<Json> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read frame");
        if n == 0 {
            return None;
        }
        Some(Json::parse(line.trim()).expect("frame is JSON"))
    }

    /// Reads frames until one of type `kind` arrives, skipping `accepted`
    /// and `progress` frames; any other type fails the test.
    pub fn recv_type(&mut self, kind: &str) -> Json {
        loop {
            let frame = self.recv();
            let ty = frame
                .get("type")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            if ty == kind {
                return frame;
            }
            assert!(
                ty == "accepted" || ty == "progress",
                "unexpected `{ty}` frame while waiting for `{kind}`: {}",
                frame.render()
            );
        }
    }
}

/// Renders a `"synthesize"` request line.
#[allow(clippy::too_many_arguments)]
pub fn synth_request(
    id: &str,
    circuit_field: &str,
    circuit_value: &str,
    threshold: f64,
    algorithm: &str,
    seed: u64,
    patterns: u64,
    progress: bool,
) -> String {
    let mut circuit = Json::object();
    circuit.set(circuit_field, circuit_value);
    let mut obj = Json::object();
    obj.set("v", PROTOCOL_VERSION)
        .set("type", "synthesize")
        .set("id", id)
        .set("circuit", circuit)
        .set("threshold", threshold)
        .set("algorithm", algorithm)
        .set("seed", seed)
        .set("patterns", patterns)
        .set("progress", progress);
    obj.render()
}

/// A request line for a job that occupies a worker for over a second
/// (about 1.3 s in a release build): SASIMI on c7552, whose pair scan is
/// quadratic in the node count and runs over 16k-pattern signatures. Its
/// iterations stay short, and each one ends at a cancellation check and
/// (with `progress`) a progress frame.
pub fn slow_job(id: &str, progress: bool) -> String {
    synth_request(id, "bench", "c7552", 0.2, "sasimi", 1, 16384, progress)
}

/// Field accessors for response frames.
pub fn str_field<'a>(frame: &'a Json, key: &str) -> &'a str {
    frame
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("frame lacks string `{key}`: {}", frame.render()))
}

// Not every suite uses every accessor; the module is compiled per test
// binary, so the unused ones vary by suite.
#[allow(dead_code)]
pub fn f64_field(frame: &Json, key: &str) -> f64 {
    frame
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("frame lacks number `{key}`: {}", frame.render()))
}

pub fn u64_field(frame: &Json, key: &str) -> u64 {
    frame
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("frame lacks integer `{key}`: {}", frame.render()))
}

pub fn bool_field(frame: &Json, key: &str) -> bool {
    frame
        .get(key)
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("frame lacks bool `{key}`: {}", frame.render()))
}

#[allow(dead_code)]
pub fn obj_field<'a>(frame: &'a Json, key: &str) -> &'a Json {
    frame
        .get(key)
        .unwrap_or_else(|| panic!("frame lacks object `{key}`: {}", frame.render()))
}
