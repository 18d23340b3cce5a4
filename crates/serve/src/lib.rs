//! `als-serve` — a long-running synthesis service with a cross-job
//! artifact cache.
//!
//! The CLI's one-shot commands re-do the expensive circuit-independent
//! work — BLIF parsing, golden-signature simulation, abstract-interpretation
//! probability bounds, technology mapping — on every invocation. When a
//! designer sweeps thresholds over the same circuit, that work is identical
//! each time. This crate packages the synthesis flow as a daemon
//! (`als serve --listen ADDR`) so repeated requests amortize it:
//!
//! - **Protocol** ([`parse_request`], [`frame`]): line-delimited JSON over
//!   TCP. Every frame carries `"v":` [`PROTOCOL_VERSION`]; requests are
//!   `synthesize`, `cancel`, `stats`, `ping`, `shutdown`, and responses are
//!   `accepted`, `progress`, `result`, `stats`, `pong`, `bye`, or a typed
//!   `error` frame ([`ErrorCode`]). The parser is total: arbitrary bytes
//!   produce a structured error, never a panic.
//! - **Artifact cache** ([`ArtifactCache`]): shared
//!   `als_core::CircuitArtifacts` keyed by a content hash of the circuit
//!   source. A hit skips parse + mapping + absint; golden
//!   simulation signatures are cached one level deeper, per
//!   `(pattern count, seed)`, so a repeat request at a *new threshold*
//!   skips every phase but the selection loop itself — and still returns
//!   results byte-identical to a cold one-shot `als_core::approximate`
//!   call, because the cached stimulus is exactly what that call would
//!   have drawn.
//! - **Admission & execution** ([`Server`]): a bounded queue (typed
//!   `queue_full` rejection), a fixed worker pool, per-job budget caps,
//!   and cooperative cancellation via `als_core::CancelToken` — tripped by
//!   a `cancel` request, a mid-stream disconnect, or daemon shutdown.
//!
//! Cache traffic is observable: every lookup emits an `artifact_cache`
//! telemetry event (schema v7) and the per-job `MetricsReport` carries
//! `artifact_cache_hits` / `artifact_cache_misses`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

mod cache;
mod protocol;
mod server;

pub use cache::{ArtifactCache, ARTIFACT_KINDS, CIRCUIT_LEVEL_ARTIFACTS};
pub use protocol::{
    frame, parse_request, strategy_wire_name, CircuitSource, ErrorCode, ProtocolError, Request,
    SynthesizeRequest, PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server, ServerHandle};
