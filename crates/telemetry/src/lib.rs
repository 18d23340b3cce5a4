//! Observability for the approximate-logic-synthesis engine.
//!
//! The paper's core claim is a *runtime* one — the proposed algorithms
//! finish in seconds where SASIMI takes minutes (Table 4) — so the engine
//! carries a lightweight telemetry layer that makes every run measurable:
//!
//! * [`TelemetrySink`] — the sink trait; implementations receive coarse
//!   [`Event`]s (one per refresh / simulation / iteration, never per node);
//! * [`Telemetry`] — the cheap handle threaded through `AlsConfig` and the
//!   candidate engine. Disabled (no sinks) it costs one branch per
//!   instrumentation point and never constructs an event;
//! * [`MetricsCollector`] / [`MetricsReport`] — the in-memory aggregation
//!   sink; every `AlsOutcome` carries a report in its `metrics` field;
//! * [`JsonlSink`] — a streaming JSONL event log for offline analysis;
//! * [`Json`] — the minimal JSON value type backing the event log, the
//!   `SWEEP_*.json` frontier records and the `als serve` protocol (the
//!   build environment is offline, so `serde` is not available).
//!
//! # Example
//!
//! ```
//! use als_telemetry::{Event, MetricsCollector, Telemetry, TelemetrySink};
//! use std::sync::Arc;
//!
//! let collector = Arc::new(MetricsCollector::new());
//! let telemetry = Telemetry::from(collector.clone());
//! telemetry.emit(|| Event::EngineRefresh {
//!     evaluated: 10,
//!     cache_hits: 3,
//!     candidates_pruned: 5,
//!     nodes_skipped: 2,
//!     nanos: 1_000,
//! });
//! assert_eq!(collector.report().evaluations, 10);
//! assert_eq!(collector.report().cache_hits, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

mod event;
pub mod json;
mod jsonl;
mod metrics;
mod sink;

pub use event::{Event, PhaseKind};
pub use json::{Json, JsonError};
pub use jsonl::{JsonlSink, EVENT_LOG_SCHEMA_VERSION};
pub use metrics::{IterationMetrics, MetricsCollector, MetricsReport, PhaseNanos};
pub use sink::{Telemetry, TelemetrySink};
