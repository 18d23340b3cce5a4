//! The line-delimited JSONL wire protocol of `als serve`.
//!
//! Every frame — request, response, progress — is one JSON object on one
//! line, carrying `"v": 1` (see [`PROTOCOL_VERSION`]). Requests carry a
//! `"type"` of `"synthesize"`, `"cancel"`, `"stats"`, `"ping"` or
//! `"shutdown"`; responses answer with `"accepted"`, `"progress"`,
//! `"result"`, `"error"`, `"cancel_ok"`, `"stats"`, `"pong"` or `"bye"`.
//! The parser ([`parse_request`]) is total: any byte sequence maps to
//! either a [`Request`] or a typed [`ProtocolError`] whose
//! [`frame`](ProtocolError::frame) is itself a valid response line — a
//! malformed request always round-trips to a structured error frame, never
//! a panic or a dropped connection.
//!
//! A synthesize request:
//!
//! ```json
//! {"v":1,"type":"synthesize","id":"job-1",
//!  "circuit":{"bench":"RCA32"},
//!  "threshold":0.05,"algorithm":"single",
//!  "seed":1,"patterns":"fixed:1024","max_iterations":50,"progress":true}
//! ```
//!
//! The `circuit` object names either a registry benchmark (`"bench"`) or
//! carries inline BLIF text (`"blif"`); either form keys the daemon's
//! cross-job artifact cache by content hash (see
//! [`CircuitSource::cache_key`]).

use als_core::{PatternPolicy, Strategy};
use als_telemetry::Json;

/// Version of the wire protocol; bump on breaking frame changes.
/// v1: initial protocol — synthesize/cancel/stats/ping/shutdown requests,
/// accepted/progress/result/error/cancel_ok/stats/pong/bye responses.
pub const PROTOCOL_VERSION: u64 = 1;

/// Typed error categories carried by `"error"` frames; stable names on the
/// wire (see [`ErrorCode::name`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The line was not valid JSON.
    BadJson,
    /// The frame was JSON but not a well-formed request (missing or
    /// mistyped fields, unknown `"type"`).
    BadRequest,
    /// The frame's `"v"` does not match [`PROTOCOL_VERSION`].
    UnsupportedVersion,
    /// The admission queue is full; retry later.
    QueueFull,
    /// The request line exceeded the daemon's frame-size cap.
    OversizedFrame,
    /// The circuit could not be resolved (BLIF parse error, unknown
    /// benchmark, or a network failing its consistency check).
    BadCircuit,
    /// The synthesis configuration was rejected (bad threshold, a pattern
    /// or iteration budget above the daemon's cap, …).
    BadConfig,
    /// The daemon is shutting down and admits no new jobs.
    ShuttingDown,
    /// A worker failed unexpectedly while running the job.
    Internal,
}

impl ErrorCode {
    /// The stable snake_case wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::OversizedFrame => "oversized_frame",
            ErrorCode::BadCircuit => "bad_circuit",
            ErrorCode::BadConfig => "bad_config",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Inverse of [`ErrorCode::name`].
    pub fn parse(name: &str) -> Option<ErrorCode> {
        Some(match name {
            "bad_json" => ErrorCode::BadJson,
            "bad_request" => ErrorCode::BadRequest,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "queue_full" => ErrorCode::QueueFull,
            "oversized_frame" => ErrorCode::OversizedFrame,
            "bad_circuit" => ErrorCode::BadCircuit,
            "bad_config" => ErrorCode::BadConfig,
            "shutting_down" => ErrorCode::ShuttingDown,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A typed protocol-level failure, renderable as an `"error"` frame.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtocolError {
    /// The error category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// The request id the error answers, when the request carried one.
    pub id: Option<String>,
}

impl ProtocolError {
    /// A new error with no request id.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            code,
            message: message.into(),
            id: None,
        }
    }

    /// Attaches the request id the error answers.
    #[must_use]
    pub fn with_id(mut self, id: impl Into<String>) -> ProtocolError {
        self.id = Some(id.into());
        self
    }

    /// The error as a response frame (one JSON object; the caller adds the
    /// newline).
    pub fn frame(&self) -> Json {
        let mut obj = frame("error");
        obj.set("code", self.code.name())
            .set("message", self.message.as_str());
        if let Some(id) = &self.id {
            obj.set("id", id.as_str());
        }
        obj
    }

    /// Parses an `"error"` frame back into a [`ProtocolError`] — the
    /// client-side inverse of [`ProtocolError::frame`]. Returns `None` for
    /// frames of any other type or shape.
    pub fn parse_frame(json: &Json) -> Option<ProtocolError> {
        if json.get("type").and_then(Json::as_str) != Some("error") {
            return None;
        }
        let code = ErrorCode::parse(json.get("code").and_then(Json::as_str)?)?;
        let message = json.get("message").and_then(Json::as_str)?.to_string();
        let id = json
            .get("id")
            .and_then(Json::as_str)
            .map(ToString::to_string);
        Some(ProtocolError { code, message, id })
    }
}

/// Where a job's circuit comes from. Both forms hash to a stable cache key
/// over their content, so repeated requests for the same circuit share one
/// artifact-cache entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitSource {
    /// Inline BLIF text.
    Blif(String),
    /// A benchmark name from the `als-circuits` registry (see `als list`).
    Bench(String),
}

impl CircuitSource {
    /// The artifact-cache key: FNV-1a over a tagged rendering of the
    /// source, so BLIF text and a benchmark name can never collide with
    /// each other.
    pub fn cache_key(&self) -> u64 {
        match self {
            CircuitSource::Blif(text) => fnv1a(b"blif:", text.as_bytes()),
            CircuitSource::Bench(name) => fnv1a(b"bench:", name.as_bytes()),
        }
    }

    /// A short display label (benchmark name, or the BLIF model line).
    pub fn label(&self) -> &str {
        match self {
            CircuitSource::Blif(text) => text.lines().next().unwrap_or(""),
            CircuitSource::Bench(name) => name,
        }
    }
}

/// 64-bit FNV-1a over a tag and a payload.
fn fnv1a(tag: &[u8], payload: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in tag.iter().chain(payload) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A parsed `"synthesize"` request.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthesizeRequest {
    /// Client-chosen id echoed on every response frame of this job.
    pub id: String,
    /// The circuit to approximate.
    pub source: CircuitSource,
    /// The error-rate threshold.
    pub threshold: f64,
    /// Which selection algorithm to run.
    pub strategy: Strategy,
    /// Stimulus seed (daemon default when absent).
    pub seed: Option<u64>,
    /// Pattern policy (`fixed:N`, `adaptive:MIN..MAX`, or a bare count).
    pub patterns: Option<PatternPolicy>,
    /// Per-job iteration cap (clamped by the daemon's budget).
    pub max_iterations: Option<usize>,
    /// Stream per-iteration progress frames while the job runs.
    pub progress: bool,
}

/// One parsed request frame.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// Run a synthesis job.
    Synthesize(SynthesizeRequest),
    /// Trip the cancellation token of a job admitted on this connection.
    Cancel {
        /// The id the `"synthesize"` request carried.
        id: String,
    },
    /// Report daemon counters (jobs, queue depth, cache hits/misses).
    Stats,
    /// Liveness probe; answered with a `"pong"` frame.
    Ping,
    /// Stop the daemon after in-flight jobs finish.
    Shutdown,
}

/// The stable wire name of a strategy (`"single"`, `"multi"`, `"sasimi"` —
/// the same spelling `als approximate --algorithm` takes).
pub fn strategy_wire_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Single => "single",
        Strategy::Sasimi => "sasimi",
        // `Strategy` is non_exhaustive; default any future variant to the
        // paper's main algorithm rather than failing a display path.
        _ => "multi",
    }
}

/// A fresh response frame skeleton: `{"v": 1, "type": <kind>}`.
pub fn frame(kind: &str) -> Json {
    let mut obj = Json::object();
    obj.set("v", PROTOCOL_VERSION).set("type", kind);
    obj
}

/// Parses one request line. Total: never panics, and every failure is a
/// typed [`ProtocolError`] (carrying the request's `"id"` when one was
/// readable) whose [`frame`](ProtocolError::frame) can be sent straight
/// back to the client.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let json = Json::parse(line)
        .map_err(|e| ProtocolError::new(ErrorCode::BadJson, format!("invalid JSON: {e}")))?;
    // Best-effort id extraction so even version/shape errors can name the
    // request they answer.
    let id = json
        .get("id")
        .and_then(Json::as_str)
        .map(ToString::to_string);
    let fail = |code: ErrorCode, message: String| {
        let e = ProtocolError::new(code, message);
        match &id {
            Some(id) => e.with_id(id.clone()),
            None => e,
        }
    };
    let version = json.get("v").and_then(Json::as_u64);
    if version != Some(PROTOCOL_VERSION) {
        return Err(fail(
            ErrorCode::UnsupportedVersion,
            match version {
                Some(v) => format!(
                    "protocol version {v} unsupported (this daemon speaks v{PROTOCOL_VERSION})"
                ),
                None => format!("missing \"v\" (this daemon speaks v{PROTOCOL_VERSION})"),
            },
        ));
    }
    let kind = json
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| fail(ErrorCode::BadRequest, "missing \"type\"".to_string()))?;
    match kind {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "cancel" => match id {
            Some(id) => Ok(Request::Cancel { id }),
            None => Err(ProtocolError::new(
                ErrorCode::BadRequest,
                "cancel needs an \"id\"".to_string(),
            )),
        },
        "synthesize" => parse_synthesize(&json, id).map(Request::Synthesize),
        other => Err(fail(
            ErrorCode::BadRequest,
            format!("unknown request type `{other}`"),
        )),
    }
}

/// Parses the body of a `"synthesize"` frame (version and type already
/// checked).
fn parse_synthesize(json: &Json, id: Option<String>) -> Result<SynthesizeRequest, ProtocolError> {
    let fail = |message: String| {
        let e = ProtocolError::new(ErrorCode::BadRequest, message);
        match &id {
            Some(id) => e.with_id(id.clone()),
            None => e,
        }
    };
    let circuit = json
        .get("circuit")
        .ok_or_else(|| fail("synthesize needs a \"circuit\" object".to_string()))?;
    let source = match (
        circuit.get("blif").and_then(Json::as_str),
        circuit.get("bench").and_then(Json::as_str),
    ) {
        (Some(text), None) => CircuitSource::Blif(text.to_string()),
        (None, Some(name)) => CircuitSource::Bench(name.to_string()),
        (Some(_), Some(_)) => {
            return Err(fail(
                "\"circuit\" wants exactly one of \"blif\" or \"bench\", not both".to_string(),
            ))
        }
        (None, None) => {
            return Err(fail(
                "\"circuit\" wants a \"blif\" string or a \"bench\" name".to_string(),
            ))
        }
    };
    let threshold = json
        .get("threshold")
        .and_then(Json::as_f64)
        .ok_or_else(|| fail("synthesize needs a numeric \"threshold\"".to_string()))?;
    let strategy = match json.get("algorithm").and_then(Json::as_str) {
        None | Some("multi") => Strategy::Multi,
        Some("single") => Strategy::Single,
        Some("sasimi") => Strategy::Sasimi,
        Some(other) => {
            return Err(fail(format!(
                "unknown algorithm `{other}` (single, multi or sasimi)"
            )))
        }
    };
    let seed = match json.get("seed") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| fail("\"seed\" must be an unsigned integer".to_string()))?,
        ),
    };
    let patterns = match json.get("patterns").map(|v| (v, v.as_str())) {
        None => None,
        Some((_, Some(spec))) => Some(
            spec.parse::<PatternPolicy>()
                .map_err(|e| fail(format!("bad \"patterns\" spec: {e}")))?,
        ),
        Some((_, None)) => {
            return Err(fail(
                "\"patterns\" must be a spec string (fixed:N, adaptive:MIN..MAX, or N)".to_string(),
            ))
        }
    };
    let max_iterations = match json.get("max_iterations") {
        None => None,
        Some(v) => {
            let n = v.as_u64().ok_or_else(|| {
                fail("\"max_iterations\" must be an unsigned integer".to_string())
            })?;
            Some(usize::try_from(n).map_err(|e| fail(format!("\"max_iterations\": {e}")))?)
        }
    };
    let progress = match json.get("progress") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| fail("\"progress\" must be a boolean".to_string()))?,
    };
    let id = id.ok_or_else(|| {
        ProtocolError::new(
            ErrorCode::BadRequest,
            "synthesize needs a string \"id\"".to_string(),
        )
    })?;
    Ok(SynthesizeRequest {
        id,
        source,
        threshold,
        strategy,
        seed,
        patterns,
        max_iterations,
        progress,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_synthesize_request() {
        let line = r#"{"v":1,"type":"synthesize","id":"j1","circuit":{"bench":"RCA32"},"threshold":0.05,"algorithm":"single","seed":9,"patterns":"adaptive:64..1024","max_iterations":12,"progress":true}"#;
        let req = match parse_request(line).unwrap() {
            Request::Synthesize(req) => req,
            other => panic!("wrong request: {other:?}"),
        };
        assert_eq!(req.id, "j1");
        assert_eq!(req.source, CircuitSource::Bench("RCA32".to_string()));
        assert!((req.threshold - 0.05).abs() < 1e-12);
        assert_eq!(req.strategy, Strategy::Single);
        assert_eq!(req.seed, Some(9));
        assert_eq!(
            req.patterns,
            Some(PatternPolicy::Adaptive { min: 64, max: 1024 })
        );
        assert_eq!(req.max_iterations, Some(12));
        assert!(req.progress);
    }

    #[test]
    fn defaults_are_applied() {
        let line = r#"{"v":1,"type":"synthesize","id":"j","circuit":{"blif":".model m\n.end\n"},"threshold":0.1}"#;
        let req = match parse_request(line).unwrap() {
            Request::Synthesize(req) => req,
            other => panic!("wrong request: {other:?}"),
        };
        assert_eq!(req.strategy, Strategy::Multi);
        assert_eq!(req.seed, None);
        assert_eq!(req.patterns, None);
        assert!(!req.progress);
    }

    #[test]
    fn control_requests_parse() {
        assert_eq!(
            parse_request(r#"{"v":1,"type":"ping"}"#).unwrap(),
            Request::Ping
        );
        assert_eq!(
            parse_request(r#"{"v":1,"type":"stats"}"#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"v":1,"type":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"v":1,"type":"cancel","id":"j7"}"#).unwrap(),
            Request::Cancel {
                id: "j7".to_string()
            }
        );
    }

    #[test]
    fn garbage_is_bad_json() {
        let err = parse_request("not json at all").unwrap_err();
        assert_eq!(err.code, ErrorCode::BadJson);
    }

    #[test]
    fn wrong_version_is_typed_and_carries_the_id() {
        let err = parse_request(r#"{"v":99,"type":"ping","id":"x"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnsupportedVersion);
        assert_eq!(err.id.as_deref(), Some("x"));
        let err = parse_request(r#"{"type":"ping"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnsupportedVersion);
    }

    #[test]
    fn malformed_synthesize_fields_are_bad_request() {
        for line in [
            r#"{"v":1,"type":"synthesize","id":"j","threshold":0.1}"#,
            r#"{"v":1,"type":"synthesize","id":"j","circuit":{},"threshold":0.1}"#,
            r#"{"v":1,"type":"synthesize","id":"j","circuit":{"bench":"a","blif":"b"},"threshold":0.1}"#,
            r#"{"v":1,"type":"synthesize","id":"j","circuit":{"bench":"a"}}"#,
            r#"{"v":1,"type":"synthesize","id":"j","circuit":{"bench":"a"},"threshold":0.1,"algorithm":"magic"}"#,
            r#"{"v":1,"type":"synthesize","id":"j","circuit":{"bench":"a"},"threshold":0.1,"patterns":7}"#,
            r#"{"v":1,"type":"synthesize","id":"j","circuit":{"bench":"a"},"threshold":0.1,"seed":-1}"#,
            r#"{"v":1,"type":"synthesize","circuit":{"bench":"a"},"threshold":0.1}"#,
            r#"{"v":1,"type":"cancel"}"#,
            r#"{"v":1,"type":"warp"}"#,
            r#"{"v":1}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "line: {line}");
        }
    }

    #[test]
    fn error_frames_round_trip() {
        let errors = [
            ProtocolError::new(ErrorCode::QueueFull, "queue is full").with_id("j9"),
            ProtocolError::new(ErrorCode::BadJson, "invalid JSON: oops"),
            ProtocolError::new(ErrorCode::Internal, "worker panicked").with_id("x"),
        ];
        for err in errors {
            let rendered = err.frame().render();
            let parsed = Json::parse(&rendered).unwrap();
            assert_eq!(ProtocolError::parse_frame(&parsed), Some(err));
        }
    }

    #[test]
    fn cache_keys_separate_sources_and_are_content_stable() {
        let a = CircuitSource::Bench("RCA32".to_string());
        let b = CircuitSource::Blif("RCA32".to_string());
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(
            a.cache_key(),
            CircuitSource::Bench("RCA32".to_string()).cache_key()
        );
        assert_ne!(
            a.cache_key(),
            CircuitSource::Bench("CLA32".to_string()).cache_key()
        );
    }
}
