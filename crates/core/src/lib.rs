//! Multi-level approximate logic synthesis under an error rate constraint.
//!
//! This crate implements the contribution of Wu & Qian, *"An Efficient Method
//! for Multi-level Approximate Logic Synthesis under Error Rate Constraint"*
//! (DAC 2016): shrinking nodes of a Boolean network by replacing their
//! factored-form expressions with **approximate simplified expressions**
//! (ASEs) obtained by deleting literals, while keeping the network's error
//! rate (fraction of PI vectors producing any wrong PO value) below a
//! threshold.
//!
//! The documented entry point is [`approximate`], which takes a [`Strategy`]:
//!
//! * [`Strategy::Single`] (paper Algorithm 1) — per iteration, picks the one
//!   node/ASE with the best score `saved literals / estimated real error
//!   rate`, where the estimate discards erroneous local input patterns that
//!   are SDCs or ODCs of the node (§3.3);
//! * [`Strategy::Multi`] (paper Algorithm 2) — per iteration, selects a
//!   *set* of nodes and ASEs by solving a **multi-state 0/1 knapsack**
//!   ([`knapsack`]) whose weights are apparent error rates (sound by the
//!   paper's Theorem 1) and whose values are saved literals;
//! * [`Strategy::Sasimi`] — the signal-substitution baseline the paper
//!   compares against.
//!
//! All three draw their candidates from the [`CandidateEngine`], which
//! memoizes per-node evaluations, re-computes them in parallel (see
//! [`AlsConfig::threads`]) and invalidates incrementally after each commit.
//! The same-support/same-signature redundancy-removal pre-process of §6 is
//! available as [`preprocess::remove_redundancies`].
//!
//! # Example
//!
//! ```
//! use als_core::{approximate, AlsConfig, Strategy};
//! use als_network::blif;
//!
//! let net = blif::parse("\
//! .model toy
//! .inputs a b c
//! .outputs y
//! .names a b t
//! 11 1
//! .names t c y
//! 1- 1
//! -1 1
//! .end
//! ")?;
//! let config = AlsConfig::builder().threshold(0.10).build()?;
//! let outcome = approximate(&net, Strategy::Single, &config)?;
//! assert!(outcome.measured_error_rate <= 0.10);
//! assert!(outcome.network.literal_count() <= net.literal_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

mod api;
mod artifacts;
mod ase;
mod cancel;
mod config;
mod context;
mod delay_score;
mod engine;
mod error;
mod error_model;
mod multi;
mod report;
mod single;

pub mod classical;
pub mod knapsack;
pub mod preprocess;
pub mod sasimi;
pub mod sweep;

pub use api::{approximate, approximate_under, approximate_with_context, Strategy};
pub use artifacts::CircuitArtifacts;
pub use ase::{generate_ases, Ase, AseKind};
pub use cancel::CancelToken;
pub use config::{
    AlsConfig, AlsConfigBuilder, DelayWeight, MagnitudeConstraint, PatternPolicy, PrunePolicy,
    ResimMode,
};
pub use context::AlsContext;
pub use engine::{CandidateEngine, CandidateEval, EngineStats};
pub use error::AlsError;
pub use error_model::{apparent_error_rate, estimated_real_error_rate, score, NodeErrorAnalysis};
pub use multi::{multi_selection, multi_selection_under};
pub use report::{AlsOutcome, IterationRecord, SelectedChange};
pub use single::{single_selection, single_selection_under};

/// The telemetry crate, re-exported so downstream users can attach sinks
/// without naming `als-telemetry` in their own manifests.
pub use als_telemetry as telemetry;
pub use als_telemetry::{
    Event, JsonlSink, MetricsCollector, MetricsReport, PhaseKind, Telemetry, TelemetrySink,
};

/// The convenience import surface: everything a typical caller needs to run
/// a synthesis and inspect the outcome.
///
/// ```
/// use als_core::prelude::*;
///
/// let config = AlsConfig::builder()
///     .threshold(0.05)
///     .patterns(PatternPolicy::Adaptive { min: 1024, max: 10_048 })
///     .resim(ResimMode::Incremental)
///     .build()?;
/// # let _ = (config, Strategy::Single);
/// # Ok::<(), als_core::AlsError>(())
/// ```
pub mod prelude {
    pub use crate::{
        approximate, approximate_under, AlsConfig, AlsError, AlsOutcome, CancelToken, DelayWeight,
        MagnitudeConstraint, MetricsReport, PatternPolicy, PrunePolicy, ResimMode, Strategy,
    };
}
