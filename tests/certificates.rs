//! Acceptance: the Theorem-1 certificate audit over the paper's Table-4
//! threshold sweep.
//!
//! For KSA32 and RCA32 at every Table-4 threshold, each algorithm's run is
//! logged to an in-memory JSONL sink, parsed back into a certificate
//! chain, and audited against the golden and final networks: the measured
//! (re-derived) error rate must satisfy the iteration-by-iteration
//! Theorem-1 chain and never exceed the claimed bound or the budget.
//!
//! Iterations are capped and the pattern count reduced so the sweep stays
//! affordable in debug builds — the audit's soundness does not depend on
//! running the optimization to convergence.

use als::check::{audit_certificates, AuditConfig, CertificateLog};
use als::circuits::adders::{kogge_stone_adder, ripple_carry_adder};
use als::network::Network;
use als::telemetry::{JsonlSink, Telemetry};
use als::{approximate, AlsConfig, Strategy};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The paper's Table-4 error-rate thresholds.
const PAPER_THRESHOLDS: [f64; 7] = [0.001, 0.003, 0.005, 0.008, 0.01, 0.03, 0.05];

const NUM_PATTERNS: usize = 256;
const MAX_ITERATIONS: usize = 40;

/// A `Write` handle into a shared buffer, so the test can read back what
/// the sink (which owns its writer) wrote.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);
impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn audited_sweep(strategy: Strategy) {
    type Build = fn() -> Network;
    let circuits: [(&str, Build); 2] = [
        ("KSA32", || kogge_stone_adder(32)),
        ("RCA32", || ripple_carry_adder(32)),
    ];
    for (name, build) in circuits {
        let golden = build();
        for threshold in PAPER_THRESHOLDS {
            let buf = SharedBuf::default();
            let config = AlsConfig::builder()
                .threshold(threshold)
                .patterns(NUM_PATTERNS)
                .max_iterations(MAX_ITERATIONS)
                .seed(11)
                .telemetry(Telemetry::from(Arc::new(JsonlSink::new(buf.clone()))))
                .build()
                .expect("sweep config is valid");
            let outcome = approximate(&golden, strategy, &config).expect("run succeeds");
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8 jsonl");

            let log = CertificateLog::from_jsonl(&text)
                .unwrap_or_else(|e| panic!("{name}@{threshold}: bad log: {e}"));
            assert_eq!(log.threshold, threshold);
            assert_eq!(log.num_patterns, NUM_PATTERNS);
            assert_eq!(
                log.iterations.len(),
                outcome.iterations.len(),
                "{name}@{threshold}: log and outcome disagree on iterations"
            );

            // The audit re-derives the real error rate from the logged
            // seed and checks real ≤ claimed ≤ budget plus the chain.
            let report = audit_certificates(
                &log,
                Some(&golden),
                Some(&outcome.network),
                &AuditConfig::default(),
            );
            assert!(
                report.is_clean(),
                "{name}@{threshold} ({strategy:?}): audit found errors:\n{report}"
            );

            // Redundant with the audit, but spelled out: the claimed final
            // rate respects the budget, and the Theorem-1 chained bound
            // dominates the measured increase over the initial rate.
            let claimed = log.final_error.expect("run_end present");
            assert!(
                claimed <= threshold + 1e-12,
                "{name}@{threshold}: claimed {claimed} over budget"
            );
            let initial = log.initial_error.expect("initial measurement present");
            let apparent_sum: f64 = log.all_certificates().map(|c| c.apparent).sum();
            assert!(
                claimed <= initial + apparent_sum + 1e-12,
                "{name}@{threshold}: claimed {claimed} exceeds Theorem-1 bound {initial} + {apparent_sum}"
            );
        }
    }
}

#[test]
fn single_selection_certificates_audit_clean_at_every_table4_threshold() {
    audited_sweep(Strategy::Single);
}

#[test]
fn multi_selection_certificates_audit_clean_at_every_table4_threshold() {
    audited_sweep(Strategy::Multi);
}

#[test]
fn sasimi_certificates_audit_clean_at_every_table4_threshold() {
    audited_sweep(Strategy::Sasimi);
}
