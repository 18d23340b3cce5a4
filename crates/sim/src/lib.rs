//! Bit-parallel logic simulation for the ALS stack.
//!
//! The paper measures error rates by logic simulation with 10 000 random
//! primary-input vectors (§6) and collects, in a *single* simulation run, the
//! occurrence probability of every local input pattern of every node (§3.2).
//! This crate provides exactly those services, 64 patterns per machine word:
//!
//! * [`PatternSet`] — random or exhaustive PI stimulus;
//! * [`simulate`] / [`SimResult`] — per-node signatures over the pattern set,
//!   kept up to date across rewrites by dirty-set resimulation
//!   ([`SimResult::update`]);
//! * [`local_pattern_counts`] — per-node local-input-pattern statistics;
//! * [`error_rate`] / [`error_rate_from_sim`] — whole-network error rate
//!   (the fraction of patterns on which *any* PO differs).
//!
//! # Example
//!
//! ```
//! use als_network::Network;
//! use als_logic::{Cover, Cube};
//! use als_sim::{simulate, PatternSet};
//!
//! let mut net = Network::new("and2");
//! let a = net.add_pi("a");
//! let b = net.add_pi("b");
//! let y = net.add_node("y", vec![a, b],
//!     Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)])?]));
//! net.add_po("y", y);
//!
//! let patterns = PatternSet::exhaustive(2)?;
//! let sim = simulate(&net, &patterns);
//! // a·b is true on exactly 1 of the 4 exhaustive patterns.
//! assert_eq!(sim.count_ones(y), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

mod error_rate;
mod lanes;
mod local;
mod magnitude;
mod patterns;
mod simulator;

pub use error_rate::{error_rate, error_rate_from_sim, po_words};
pub use local::{local_pattern_counts, local_pattern_probabilities, MAX_LOCAL_FANINS};
pub use magnitude::{
    magnitude_stats, magnitude_stats_from_sim, MagnitudeStats, MAX_MAGNITUDE_OUTPUTS,
};
pub use patterns::{ExhaustiveTooLarge, PatternSet};
pub use simulator::{simulate, DiffProbe, SimResult, UpdateDelta};

/// The paper's default number of random simulation vectors (§6): 10 000,
/// rounded up to a whole number of 64-bit words (157 × 64 = 10 048).
pub const DEFAULT_NUM_PATTERNS: usize = 157 * 64;
