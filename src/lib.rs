//! `als` — multi-level approximate logic synthesis under error rate
//! constraint.
//!
//! A from-scratch Rust reproduction of Wu & Qian, *"An Efficient Method for
//! Multi-level Approximate Logic Synthesis under Error Rate Constraint"*
//! (DAC 2016), together with every substrate the paper's flow relies on.
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`logic`] | cubes, SOP covers, truth tables, ISOP minimization, factored forms, algebraic factoring |
//! | [`network`] | MIS/SIS-style multi-level Boolean networks, BLIF I/O |
//! | [`sim`] | bit-parallel simulation, error-rate measurement, local-pattern statistics |
//! | [`sat`] | a CDCL SAT solver (used for don't-care computation) |
//! | [`dontcare`] | windowed SDC/ODC classification (enumeration and SAT engines) |
//! | [`core`] | **the paper's contribution**: ASEs, both selection algorithms, the multi-state knapsack, and the SASIMI baseline they are compared against |
//! | [`circuits`] | the Table 3 benchmark generators |
//! | [`mapper`] | technology mapping onto an MCNC-like cell library |
//! | [`bdd`] | ROBDDs for exact (non-sampled) error-rate verification |
//! | [`check`] | static analysis, certificate audit, #SAT exact error rates, SAT equivalence checking |
//! | [`absint`] | abstract-interpretation error bounds: probability/error intervals, static candidate pruning |
//! | [`serve`] | the `als serve` daemon: JSONL-over-TCP synthesis jobs with a cross-job artifact cache |
//!
//! # Quickstart
//!
//! The entry point is [`approximate`]: pick a [`Strategy`], build an
//! [`AlsConfig`] with the builder, and get an [`AlsOutcome`] (or a
//! non-panicking [`AlsError`] for invalid inputs).
//!
//! ```
//! use als::circuits::adders::ripple_carry_adder;
//! use als::{approximate, AlsConfig, Strategy};
//!
//! // Approximate an 8-bit ripple-carry adder with a 5% error-rate budget,
//! // evaluating candidates on two threads.
//! let golden = ripple_carry_adder(8);
//! let config = AlsConfig::builder().threshold(0.05).threads(2).build()?;
//! let outcome = approximate(&golden, Strategy::Multi, &config)?;
//! assert!(outcome.measured_error_rate <= 0.05);
//! assert!(outcome.final_literals <= outcome.initial_literals);
//! println!("{outcome}");
//! # Ok::<(), als::AlsError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub use als_absint as absint;
pub use als_bdd as bdd;
pub use als_check as check;
pub use als_circuits as circuits;
pub use als_core as core;
pub use als_dontcare as dontcare;
pub use als_logic as logic;
pub use als_mapper as mapper;
pub use als_network as network;
pub use als_sat as sat;
pub use als_serve as serve;
pub use als_sim as sim;
pub use als_telemetry as telemetry;

// Convenience re-exports of the items used in almost every program.
pub use als_core::{
    approximate, AlsConfig, AlsError, AlsOutcome, DelayWeight, MagnitudeConstraint, MetricsReport,
    PrunePolicy, ResimMode, Strategy,
};
pub use als_network::Network;

/// The convenience import surface: everything a typical caller needs to run
/// a synthesis and inspect the outcome.
///
/// ```
/// use als::prelude::*;
///
/// let config = AlsConfig::builder()
///     .threshold(0.05)
///     .patterns(10_048)
///     .build()?;
/// # let _ = (config, Strategy::Single);
/// # Ok::<(), als::AlsError>(())
/// ```
pub mod prelude {
    pub use als_core::prelude::*;
}
