//! Windowed satisfiability / observability don't-care (SDC/ODC) computation.
//!
//! The DAC'16 paper estimates the *real* error rate of an ASE by discarding
//! erroneous local input patterns (ELIPs) that are SDCs or ODCs of the node
//! (§3.3), computing them with MVSIS `mfs` using a 2×2 window and SAT. This
//! crate reproduces that service:
//!
//! * [`Window`] — extracts a `levels_in × levels_out` window around a node;
//! * [`compute_dont_cares`] — classifies every local input pattern of the
//!   node as SDC, ODC or care, by exhaustive in-window enumeration or by SAT
//!   queries on a window miter (both sound: they yield *subsets* of the true
//!   don't-care sets, exactly as the paper requires for its upper bound);
//!   the default [`DontCareMethod::Auto`] enumerates small windows and asks
//!   SAT, one solver per window, about the rest;
//! * [`IncrementalClassifier`] — the same classification over a sweep of
//!   windows, counting the SAT work it issued.
//!
//! # Example
//!
//! ```
//! use als_network::Network;
//! use als_logic::{Cover, Cube};
//! use als_dontcare::{compute_dont_cares, DontCareConfig};
//!
//! // y = (a AND b) OR a: the pattern (ab=1, a=0) can never occur — an SDC.
//! let mut net = Network::new("sdc");
//! let a = net.add_pi("a");
//! let b = net.add_pi("b");
//! let g = net.add_node("g", vec![a, b],
//!     Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)])?]));
//! let y = net.add_node("y", vec![g, a],
//!     Cover::from_cubes(2, [
//!         Cube::from_literals(&[(0, true)])?,
//!         Cube::from_literals(&[(1, true)])?,
//!     ]));
//! net.add_po("y", y);
//!
//! let dc = compute_dont_cares(&net, y, &DontCareConfig::default());
//! // Local pattern 0b01 means g=1, a=0 — unreachable.
//! assert!(dc.is_sdc(0b01));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

mod compute;
mod encode;
mod exact;
mod window;

pub use compute::{
    compute_dont_cares, DontCareConfig, DontCareMethod, DontCares, IncrementalClassifier,
    SolverReuse, SolverStats,
};
pub use encode::encode_node_cnf;
pub use exact::compute_exact_dont_cares;
pub use window::{undirected_ball, window_influence, Window};
