//! Static analysis and certification for the ALS stack.
//!
//! Three tool families live here:
//!
//! * **Structural analysis** ([`NetworkAnalyzer`]): a configurable pass list
//!   over any [`Network`](als_network::Network) — reference/arity
//!   consistency, acyclicity, topological-order validity, SOP ↔
//!   factored-form functional equivalence, don't-care soundness,
//!   abstract-interpretation error-bound containment ([`Pass::ErrorBound`],
//!   backed by [`als_absint`]), and incremental SAT sweeping
//!   ([`Pass::SatSweep`]: signature-bucketed equivalence candidates
//!   confirmed by miter queries) — producing a structured
//!   [`AnalysisReport`] instead of panicking.
//! * **Certificate audit** ([`audit_certificates`]): every accepted
//!   approximate change records an [`ApproxCertificate`] (node, ASE, claimed
//!   apparent error rate, §3.2) in the telemetry JSONL stream; the auditor
//!   replays such a log and verifies the Theorem-1 inequality chain, the
//!   per-iteration error budget, containment of each claimed apparent rate
//!   in its recorded static interval, and — given the golden network —
//!   re-derives the real error rate of the final network from the logged
//!   seed. The informational full-space exact check runs on a selectable
//!   engine ([`CheckEngine`]): BDD miter density, #SAT disjoint-cube
//!   enumeration ([`exact_error_rate_sat`]), or automatic fallback from
//!   BDD to SAT when the node limit trips.
//! * **Equivalence checking** ([`cec`]): a SAT query on the same
//!   structurally hashed two-network miter the #SAT engine counts over.
//!
//! The analyzer **never panics** on malformed networks: that is the point.
//! Tooling (the `als check` CLI subcommand, CI mutation tests) relies on
//! getting diagnostics back from inputs that the rest of the workspace
//! would assert on.
//!
//! # Example
//!
//! ```
//! use als_check::{AnalyzerConfig, NetworkAnalyzer};
//! use als_network::Network;
//!
//! let mut net = Network::new("buf");
//! let a = net.add_pi("a");
//! net.add_po("y", a);
//! let report = NetworkAnalyzer::new(AnalyzerConfig::full()).analyze(&net);
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

mod analyzer;
mod audit;
mod certificate;
mod diagnostic;
mod miter;
mod satcount;

pub use analyzer::{AnalyzerConfig, NetworkAnalyzer, Pass};
pub use audit::{audit_certificates, AuditConfig, CheckEngine};
pub use certificate::{ApproxCertificate, CertificateError, CertificateLog, IterationCert};
pub use diagnostic::{AnalysisReport, Diagnostic, Severity};
pub use miter::{cec, CecResult};
pub use satcount::{exact_error_rate_sat, SatCountError, SatErrorRate};
