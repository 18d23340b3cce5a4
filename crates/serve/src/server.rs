//! The TCP daemon: admission queue, worker pool, connection handling.
//!
//! One thread accepts connections; each connection gets a reader thread
//! that parses request lines (byte-capped, so an oversized frame is a
//! typed error, not an allocation bomb) and answers control requests
//! inline. `"synthesize"` requests pass admission control — budget caps
//! checked, bounded queue with typed `queue_full` rejection — and are
//! picked up by a fixed pool of worker threads. Workers run jobs through
//! the cross-job [`ArtifactCache`](crate::ArtifactCache) and
//! `als_core::approximate_with_context`, stream per-iteration progress
//! frames when asked, and are panic-isolated: a job that fails returns an
//! `"internal"` error frame and the worker keeps serving.
//!
//! Cancellation is cooperative end to end: every admitted job carries an
//! armed `CancelToken`; a `"cancel"` request (connection-scoped, by
//! request id) or a client disconnect trips it, the selection loop stops
//! at the next iteration boundary, and the worker slot frees without
//! disturbing concurrent jobs.

use crate::cache::ArtifactCache;
use crate::protocol::{
    frame, parse_request, strategy_wire_name, ErrorCode, ProtocolError, Request, SynthesizeRequest,
    PROTOCOL_VERSION,
};
use als_core::{
    approximate_with_context, AlsConfig, AlsError, CancelToken, Event, MetricsCollector, Telemetry,
    TelemetrySink,
};
use als_network::blif;
use als_telemetry::Json;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Daemon configuration: listen address, pool sizes, per-job budget caps.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7171` (port 0 picks an ephemeral
    /// port; see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Admission-queue capacity; a full queue rejects with `queue_full`.
    pub queue_capacity: usize,
    /// Maximum request-line length in bytes; longer frames are rejected
    /// with `oversized_frame` and the connection is closed.
    pub max_frame_bytes: usize,
    /// Per-job pattern-count cap: requests whose pattern count exceeds
    /// this are rejected at admission with `bad_config`.
    pub max_patterns: usize,
    /// Per-job iteration cap; requested `max_iterations` are clamped to it
    /// and requests above it are rejected at admission with `bad_config`.
    pub max_iterations: usize,
    /// Circuits the artifact cache retains (FIFO eviction).
    pub cache_capacity: usize,
}

impl ServeConfig {
    /// Defaults for everything but the listen address.
    pub fn new(addr: impl Into<String>) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            workers: 0,
            queue_capacity: 16,
            max_frame_bytes: 4 << 20,
            max_patterns: 1 << 20,
            max_iterations: 10_000,
            cache_capacity: 8,
        }
    }
}

/// One admitted job, queued for a worker.
struct Job {
    id: u64,
    request: SynthesizeRequest,
    conn: Arc<ConnWriter>,
    cancel: CancelToken,
}

/// State shared by the acceptor, reader threads and workers.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    shutdown: AtomicBool,
    cache: ArtifactCache,
    limits: ServeConfig,
    local_addr: SocketAddr,
    /// Daemon-level telemetry (job_admitted / artifact_cache lines).
    telemetry: Telemetry,
    jobs_admitted: AtomicU64,
    jobs_done: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_failed: AtomicU64,
    workers: usize,
}

impl Shared {
    fn queue_depth(&self) -> u64 {
        let depth = self
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        depth as u64 // lint:allow(as-cast): usize fits u64 on all supported targets
    }
}

/// The serialized write half of one client connection. Any thread (reader,
/// workers streaming progress) may send frames; a failed write marks the
/// connection dead so later sends become cheap no-ops.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> ConnWriter {
        ConnWriter {
            stream: Mutex::new(stream),
            dead: AtomicBool::new(false),
        }
    }

    /// Writes one frame line; returns whether the connection is still
    /// usable.
    fn send(&self, frame: &Json) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        let mut stream = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
        let line = frame.render();
        let ok = writeln!(stream, "{line}")
            .and_then(|()| stream.flush())
            .is_ok();
        if !ok {
            self.dead.store(true, Ordering::Release);
        }
        ok
    }
}

/// A telemetry sink that forwards run milestones (`run_start`,
/// `iteration_end`, `run_end`) to the client as `"progress"` frames. A
/// failed send — the client disconnected mid-stream — trips the job's
/// cancellation token so the worker slot frees at the next iteration
/// boundary instead of streaming into a dead socket.
#[derive(Debug)]
struct ProgressSink {
    conn: Arc<ConnWriter>,
    id: String,
    job_id: u64,
    cancel: CancelToken,
}

impl TelemetrySink for ProgressSink {
    fn record(&self, event: &Event) {
        if !matches!(
            event,
            Event::RunStart { .. } | Event::IterationEnd { .. } | Event::RunEnd { .. }
        ) {
            return;
        }
        let mut obj = frame("progress");
        obj.set("id", self.id.as_str())
            .set("job", self.job_id)
            .set("event", event.to_json());
        if !self.conn.send(&obj) {
            self.cancel.cancel();
        }
    }
}

// `ConnWriter` holds no debug-interesting state beyond liveness.
impl std::fmt::Debug for ConnWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnWriter")
            .field("dead", &self.dead.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A handle for stopping a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.shared.local_addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Requests shutdown: no new jobs are admitted, workers drain and
    /// exit, the accept loop wakes and returns. Idempotent.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared);
    }
}

/// Sets the shutdown flag and wakes every blocked thread: workers via the
/// queue condvar, the acceptor via a throwaway local connection.
fn request_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::Release);
    shared.job_ready.notify_all();
    // The acceptor blocks in `accept()`; a loopback connection wakes it so
    // it can observe the flag. The connection itself is discarded.
    drop(TcpStream::connect(shared.local_addr));
}

/// The `als serve` daemon. [`Server::bind`] opens the listener (so tests
/// can learn the ephemeral port before serving); [`Server::run`] blocks
/// until a shutdown request.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.shared.local_addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listen address and starts the worker pool. `telemetry`
    /// receives daemon-level events (`job_admitted`, `artifact_cache`);
    /// pass `Telemetry::disabled()` for none.
    pub fn bind(config: &ServeConfig, telemetry: Telemetry) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache: ArtifactCache::new(config.cache_capacity),
            limits: config.clone(),
            local_addr,
            telemetry,
            jobs_admitted: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            workers,
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server {
            listener,
            shared,
            workers: handles,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Resolved worker-pool size.
    pub fn num_workers(&self) -> usize {
        self.shared.workers
    }

    /// A handle that can stop the daemon from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until shutdown: accepts connections, spawning one reader
    /// thread each, then drains the queue (rejecting still-queued jobs
    /// with `shutting_down`) and joins the workers.
    pub fn run(self) -> std::io::Result<()> {
        for incoming in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = incoming else { continue };
            let shared = Arc::clone(&self.shared);
            // Reader threads exit when their client disconnects (or on the
            // oversized-frame hard close); they are deliberately detached —
            // joining them would mean waiting on arbitrary clients.
            std::thread::spawn(move || handle_connection(stream, &shared));
        }
        // Reject whatever is still queued, then let the workers drain.
        let pending: Vec<Job> = {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            queue.drain(..).collect()
        };
        for job in pending {
            let err = ProtocolError::new(ErrorCode::ShuttingDown, "daemon is shutting down")
                .with_id(job.request.id.clone());
            job.conn.send(&err.frame());
        }
        self.shared.job_ready.notify_all();
        for worker in self.workers {
            // A worker that panicked despite the per-job isolation is
            // already accounted for; there is nothing further to unwind.
            drop(worker.join());
        }
        Ok(())
    }
}

/// Worker loop: claim jobs until shutdown.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared
                    .job_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        execute_job(shared, &job);
    }
}

/// Runs one job with panic isolation: a panicking job yields an
/// `"internal"` error frame and the worker keeps serving.
fn execute_job(shared: &Arc<Shared>, job: &Job) {
    let outcome = catch_unwind(AssertUnwindSafe(|| run_job(shared, job)));
    match outcome {
        Ok(Ok(result_frame)) => {
            job.conn.send(&result_frame);
        }
        Ok(Err(err)) => {
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            job.conn.send(&err.with_id(job.request.id.clone()).frame());
        }
        Err(_) => {
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            let err = ProtocolError::new(
                ErrorCode::Internal,
                "worker failed unexpectedly while running the job",
            )
            .with_id(job.request.id.clone());
            job.conn.send(&err.frame());
        }
    }
}

/// The job body: resolve artifacts through the cache, synthesize, render
/// the result frame.
fn run_job(shared: &Arc<Shared>, job: &Job) -> Result<Json, ProtocolError> {
    let req = &job.request;
    let collector = Arc::new(MetricsCollector::new());
    let mut job_telemetry = Telemetry::new(Arc::clone(&collector) as Arc<dyn TelemetrySink>);
    if req.progress {
        job_telemetry = job_telemetry.with(Arc::new(ProgressSink {
            conn: Arc::clone(&job.conn),
            id: req.id.clone(),
            job_id: job.id,
            cancel: job.cancel.clone(),
        }));
    }

    // Phase 1: circuit artifacts (parse + map + absint), cached across
    // jobs. `job_telemetry` always has the collector attached, so the
    // phase marks are live.
    let parse_mark = job_telemetry.start();
    let (arts, circuit_hit) = shared.cache.lookup(&req.source)?;
    let parse_nanos = if circuit_hit {
        0
    } else {
        Telemetry::nanos_since(parse_mark)
    };

    let mut builder = AlsConfig::builder().threshold(req.threshold);
    if let Some(seed) = req.seed {
        builder = builder.seed(seed);
    }
    if let Some(patterns) = req.patterns {
        builder = builder.patterns(patterns);
    }
    builder = builder.max_iterations(
        req.max_iterations
            .unwrap_or(shared.limits.max_iterations)
            .min(shared.limits.max_iterations),
    );
    builder = builder.cancel(job.cancel.clone());
    let mut config = builder
        .build()
        .map_err(|e| ProtocolError::new(ErrorCode::BadConfig, e.to_string()))?;
    config.telemetry = job_telemetry.clone();

    // Phase 2: golden signatures, cached per (pattern count, seed).
    let context_mark = job_telemetry.start();
    let (ctx, signatures_hit) = arts.context(&config);
    let context_nanos = if signatures_hit {
        0
    } else {
        Telemetry::nanos_since(context_mark)
    };
    shared.cache.record_context_lookup(signatures_hit);

    // One artifact_cache line per artifact kind, on both the daemon log
    // and the job's own metrics stream.
    for (artifact, hit) in [
        ("network", circuit_hit),
        ("absint", circuit_hit),
        ("signatures", signatures_hit),
    ] {
        shared
            .telemetry
            .emit(|| Event::ArtifactCache { artifact, hit });
        job_telemetry.emit(|| Event::ArtifactCache { artifact, hit });
    }

    // Phase 3: the selection loop itself.
    let synth_mark = job_telemetry.start();
    let outcome = approximate_with_context(&arts.network, req.strategy, &config, ctx).map_err(
        |e| match e {
            AlsError::InvalidNetwork(m) => ProtocolError::new(ErrorCode::BadCircuit, m),
            other => ProtocolError::new(ErrorCode::BadConfig, other.to_string()),
        },
    )?;
    let synth_nanos = Telemetry::nanos_since(synth_mark);

    let cancelled = job.cancel.is_cancelled();
    if cancelled {
        shared.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.jobs_done.fetch_add(1, Ordering::Relaxed);
    }

    // The outcome's metrics come from the run's internal collector; the
    // artifact-cache counters are daemon-level facts, populated externally.
    let mut metrics = outcome.metrics.clone();
    let report = collector.report();
    metrics.artifact_cache_hits = report.artifact_cache_hits;
    metrics.artifact_cache_misses = report.artifact_cache_misses;

    let mut cache_obj = Json::object();
    cache_obj
        .set("network", circuit_hit)
        .set("absint", circuit_hit)
        .set("signatures", signatures_hit);
    let mut timings = Json::object();
    timings
        .set("parse_s", nanos_to_secs(parse_nanos))
        .set("context_s", nanos_to_secs(context_nanos))
        .set("synth_s", nanos_to_secs(synth_nanos));
    let mut golden = Json::object();
    golden
        .set("literals", arts.golden_literals)
        .set("area", arts.golden_area)
        .set("delay", arts.golden_delay)
        .set("absint_frechet_nodes", arts.absint_frechet_nodes)
        .set("absint_max_po_width", arts.absint_max_po_width);

    let mut result = frame("result");
    result
        .set("id", req.id.as_str())
        .set("job", job.id)
        .set("status", if cancelled { "cancelled" } else { "done" })
        .set("algorithm", strategy_wire_name(req.strategy))
        .set("iterations", outcome.iterations.len())
        .set("initial_literals", outcome.initial_literals)
        .set("final_literals", outcome.final_literals)
        .set("error_rate", outcome.measured_error_rate)
        .set("golden", golden)
        .set("cache", cache_obj)
        .set("timings", timings)
        .set("metrics", metrics.to_json())
        .set("blif", blif::write(&outcome.network));
    Ok(result)
}

/// Nanoseconds → seconds for frame timings.
fn nanos_to_secs(nanos: u64) -> f64 {
    std::time::Duration::from_nanos(nanos).as_secs_f64()
}

/// Reads one `\n`-terminated line with a byte cap. `Ok(None)` is a clean
/// EOF; `Err(true)` means the cap was exceeded; `Err(false)` is an I/O
/// error. A truncated final line (EOF before `\n`) is treated as clean
/// teardown — clients that die mid-frame never leave a wedged reader.
fn read_line_capped(reader: &mut BufReader<TcpStream>, cap: usize) -> Result<Option<String>, bool> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf().map_err(|_| false)?;
        if buf.is_empty() {
            // EOF: a complete unterminated line would be data loss, but a
            // client that closes mid-frame has abandoned the request.
            return Ok(None);
        }
        let (chunk, found_newline) = match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos, true),
            None => (buf.len(), false),
        };
        if line.len() + chunk > cap {
            return Err(true);
        }
        line.extend_from_slice(&buf[..chunk]);
        let consumed = if found_newline { chunk + 1 } else { chunk };
        reader.consume(consumed);
        if found_newline {
            let text = String::from_utf8_lossy(&line).into_owned();
            return Ok(Some(text));
        }
    }
}

/// Per-connection reader loop.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let conn = match stream.try_clone() {
        Ok(write_half) => Arc::new(ConnWriter::new(write_half)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Connection-scoped job registry: `cancel` can only reach jobs
    // admitted on the same connection.
    let mut cancels: BTreeMap<String, CancelToken> = BTreeMap::new();
    loop {
        let line = match read_line_capped(&mut reader, shared.limits.max_frame_bytes) {
            Ok(Some(line)) => line,
            Ok(None) | Err(false) => break,
            Err(true) => {
                let err = ProtocolError::new(
                    ErrorCode::OversizedFrame,
                    format!(
                        "request line exceeds the {}-byte frame cap",
                        shared.limits.max_frame_bytes
                    ),
                );
                conn.send(&err.frame());
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(err) => {
                conn.send(&err.frame());
                continue;
            }
        };
        match request {
            Request::Ping => {
                conn.send(&frame("pong"));
            }
            Request::Stats => {
                conn.send(&stats_frame(shared));
            }
            Request::Shutdown => {
                conn.send(&frame("bye"));
                request_shutdown(shared);
                break;
            }
            Request::Cancel { id } => {
                let found = cancels.get(&id).is_some_and(|token| {
                    token.cancel();
                    true
                });
                let mut obj = frame("cancel_ok");
                obj.set("id", id.as_str()).set("found", found);
                conn.send(&obj);
            }
            Request::Synthesize(req) => match admit(shared, req, &conn) {
                Ok((id, token)) => {
                    cancels.insert(id, token);
                }
                Err(err) => {
                    conn.send(&err.frame());
                }
            },
        }
    }
    // Client gone: tear down its in-flight jobs so workers free up
    // instead of synthesizing into a dead socket.
    conn.dead.store(true, Ordering::Release);
    for token in cancels.values() {
        token.cancel();
    }
}

/// Admission control: budget caps, then the bounded queue. Success sends
/// the `"accepted"` frame and returns the (id, cancel token) pair for the
/// connection's registry.
fn admit(
    shared: &Arc<Shared>,
    request: SynthesizeRequest,
    conn: &Arc<ConnWriter>,
) -> Result<(String, CancelToken), ProtocolError> {
    let id = request.id.clone();
    let reject = |code: ErrorCode, message: String| {
        Err(ProtocolError::new(code, message).with_id(id.clone()))
    };
    if shared.shutdown.load(Ordering::Acquire) {
        return reject(
            ErrorCode::ShuttingDown,
            "daemon is shutting down".to_string(),
        );
    }
    if !request.threshold.is_finite() || request.threshold <= 0.0 || request.threshold >= 1.0 {
        return reject(
            ErrorCode::BadConfig,
            format!(
                "threshold {} outside the open interval (0, 1)",
                request.threshold
            ),
        );
    }
    if let Some(patterns) = request.patterns {
        if patterns > shared.limits.max_patterns {
            return reject(
                ErrorCode::BadConfig,
                format!(
                    "pattern count {patterns} exceeds the daemon cap {}",
                    shared.limits.max_patterns
                ),
            );
        }
    }
    if let Some(n) = request.max_iterations {
        if n > shared.limits.max_iterations {
            return reject(
                ErrorCode::BadConfig,
                format!(
                    "max_iterations {n} exceeds the daemon cap {}",
                    shared.limits.max_iterations
                ),
            );
        }
    }
    let cancel = CancelToken::armed();
    let (job_id, queue_depth) = {
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= shared.limits.queue_capacity {
            drop(queue);
            return reject(
                ErrorCode::QueueFull,
                format!(
                    "admission queue is full ({} jobs)",
                    shared.limits.queue_capacity
                ),
            );
        }
        let job_id = shared.jobs_admitted.fetch_add(1, Ordering::Relaxed) + 1;
        queue.push_back(Job {
            id: job_id,
            request,
            conn: Arc::clone(conn),
            cancel: cancel.clone(),
        });
        let depth = queue.len() as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
        (job_id, depth)
    };
    shared.job_ready.notify_one();
    shared.telemetry.emit(|| Event::JobAdmitted {
        job: job_id,
        queue_depth,
    });
    let mut accepted = frame("accepted");
    accepted
        .set("id", id.as_str())
        .set("job", job_id)
        .set("queue_depth", queue_depth);
    conn.send(&accepted);
    Ok((id, cancel))
}

/// The `"stats"` response frame.
fn stats_frame(shared: &Arc<Shared>) -> Json {
    let mut obj = frame("stats");
    obj.set("protocol", PROTOCOL_VERSION)
        .set("workers", shared.workers)
        .set("queue_depth", shared.queue_depth())
        .set("queue_capacity", shared.limits.queue_capacity)
        .set(
            "jobs_admitted",
            shared.jobs_admitted.load(Ordering::Relaxed),
        )
        .set("jobs_done", shared.jobs_done.load(Ordering::Relaxed))
        .set(
            "jobs_cancelled",
            shared.jobs_cancelled.load(Ordering::Relaxed),
        )
        .set("jobs_failed", shared.jobs_failed.load(Ordering::Relaxed))
        .set("cache_hits", shared.cache.hits())
        .set("cache_misses", shared.cache.misses())
        .set("cache_circuits", shared.cache.len());
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_line_capped_splits_lines_and_caps() {
        // Loopback pair: write a few frames, read them back capped.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        client.write_all(b"hello\nworld\n").unwrap();
        let mut reader = BufReader::new(server_side);
        assert_eq!(
            read_line_capped(&mut reader, 64).unwrap().as_deref(),
            Some("hello")
        );
        assert_eq!(
            read_line_capped(&mut reader, 64).unwrap().as_deref(),
            Some("world")
        );
        client.write_all(&[b'x'; 100]).unwrap();
        client.write_all(b"\n").unwrap();
        assert_eq!(read_line_capped(&mut reader, 64), Err(true));
    }

    #[test]
    fn truncated_final_line_is_clean_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        client.write_all(b"partial frame without newline").unwrap();
        drop(client);
        let mut reader = BufReader::new(server_side);
        assert_eq!(read_line_capped(&mut reader, 64).unwrap(), None);
    }
}
