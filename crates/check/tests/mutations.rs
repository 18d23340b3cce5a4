//! Mutation tests: seed every defect class the analyzer is built to catch
//! and assert the right pass flags it — plus the negative control that the
//! unmutated network analyzes clean.
//!
//! Defect classes (one per `als_network::testing` hook):
//!
//! | defect                         | flagging pass        |
//! |--------------------------------|----------------------|
//! | combinational cycle            | `acyclicity`         |
//! | dropped fanin edge             | `references`         |
//! | flipped SOP literal            | `sop_equivalence`    |
//! | dangling node reference        | `references`         |
//! | tampered (deflated) certificate| `certificates` audit |

use als_check::{audit_certificates, AnalyzerConfig, AuditConfig, CertificateLog, NetworkAnalyzer};
use als_circuits::adders::ripple_carry_adder;
use als_network::{testing, Network, NodeId};
use als_telemetry::{JsonlSink, Telemetry};
use std::io::Write;
use std::sync::{Arc, Mutex};

fn analyzer() -> NetworkAnalyzer {
    NetworkAnalyzer::new(AnalyzerConfig::full())
}

/// A small real circuit plus two internal node ids to mutate (one early,
/// one late in the arena, both with ≥ 2 fanins).
fn subject() -> (Network, NodeId, NodeId) {
    let net = ripple_carry_adder(4);
    let mut internals = net
        .internal_ids()
        .filter(|&id| net.node(id).fanins().len() >= 2);
    let early = internals.next().expect("adder has internal nodes");
    let late = internals.last().unwrap_or(early);
    (net, early, late)
}

#[test]
fn unmutated_subject_is_clean() {
    let (net, _, _) = subject();
    let report = analyzer().analyze(&net);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn cycle_is_flagged_by_acyclicity() {
    let (mut net, _, _) = subject();
    // Find a gate with another gate strictly downstream of it, then point
    // one of its fanins back at that gate: a genuine combinational cycle.
    let (upstream, downstream) = net
        .internal_ids()
        .find_map(|id| {
            let tfo = net.tfo_mask(id);
            net.internal_ids()
                .find(|&d| d != id && tfo[d.index()])
                .map(|d| (id, d))
        })
        .expect("an adder's carry chain has gate-to-gate edges");
    let mut fanins = net.node(upstream).fanins().to_vec();
    fanins[0] = downstream;
    testing::raw_set_fanins(&mut net, upstream, fanins);
    let report = analyzer().analyze(&net);
    assert!(
        report.errors().any(|d| d.pass == "acyclicity"),
        "cycle not flagged:\n{report}"
    );
}

#[test]
fn dropped_fanin_edge_is_flagged_by_references() {
    let (mut net, early, _) = subject();
    testing::raw_drop_fanin(&mut net, early, 0);
    let report = analyzer().analyze(&net);
    assert!(
        report
            .errors()
            .any(|d| d.pass == "references" && d.node == Some(early)),
        "dropped edge not flagged:\n{report}"
    );
}

#[test]
fn flipped_sop_literal_is_flagged_by_sop_equivalence() {
    let (mut net, _, late) = subject();
    testing::raw_flip_cover_literal(&mut net, late);
    let report = analyzer().analyze(&net);
    assert!(
        report
            .errors()
            .any(|d| d.pass == "sop_equivalence" && d.node == Some(late)),
        "flipped literal not flagged:\n{report}"
    );
}

#[test]
fn dangling_reference_is_flagged_by_references() {
    let mut net = ripple_carry_adder(4);
    // Manufacture a tombstone: an orphan node no PO can reach, swept away.
    let pi0 = net.pis()[0];
    let ghost = net.add_node(
        "orphan",
        vec![pi0],
        als_logic::Cover::from_cubes(
            1,
            [als_logic::Cube::from_literals(&[(0, true)]).expect("one literal")],
        ),
    );
    assert!(net.sweep() >= 1, "orphan must be swept");
    assert!(!net.is_live(ghost));
    let victim = net.internal_ids().next().expect("adder has internal nodes");
    testing::raw_redirect_first_fanin(&mut net, victim, ghost);
    let report = analyzer().analyze(&net);
    assert!(
        report
            .errors()
            .any(|d| d.pass == "references" && d.message.contains("dead")),
        "dangling reference not flagged:\n{report}"
    );
}

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

/// Runs single-selection on a real circuit with a JSONL sink attached and
/// returns (golden, final network, log text).
fn certified_run() -> (Network, Network, String) {
    let golden = ripple_carry_adder(8);
    let buf = SharedBuf::default();
    let config = als_core::AlsConfig::builder()
        .threshold(0.08)
        .patterns(2048)
        .seed(3)
        .telemetry(Telemetry::from(Arc::new(JsonlSink::new(buf.clone()))))
        .build()
        .expect("test config is valid");
    let outcome = als_core::approximate(&golden, als_core::Strategy::Single, &config)
        .expect("the golden circuit and config are valid");
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8 jsonl");
    (golden, outcome.network, text)
}

#[test]
fn genuine_run_log_audits_clean_and_tampering_is_caught() {
    let (golden, final_net, text) = certified_run();
    let log = CertificateLog::from_jsonl(&text).expect("well-formed log");
    assert!(
        !log.iterations.is_empty(),
        "the run must commit changes for the tamper test to mean anything"
    );
    let clean = audit_certificates(
        &log,
        Some(&golden),
        Some(&final_net),
        &AuditConfig::default(),
    );
    assert!(clean.is_clean(), "honest log must audit clean:\n{clean}");

    // Tamper 1: deflate a certificate's claimed apparent rate. The
    // measured chain no longer fits under the claimed Theorem-1 bound.
    let victim = log
        .all_certificates()
        .find(|c| c.apparent > 1e-6)
        .expect("at least one change with a nonzero apparent rate");
    let mut tampered = log.clone();
    for it in &mut tampered.iterations {
        for cert in &mut it.certificates {
            if cert.node == victim.node && cert.ase == victim.ase {
                cert.apparent = 0.0;
            }
        }
    }
    let report = audit_certificates(
        &tampered,
        Some(&golden),
        Some(&final_net),
        &AuditConfig::default(),
    );
    assert!(
        report.errors().any(|d| d.message.contains("chain bound")),
        "deflated certificate not flagged:\n{report}"
    );

    // Tamper 2: rewrite the summary to claim a rosier final error rate.
    // Re-derivation from the logged seed against the real networks
    // exposes it.
    let mut tampered = log.clone();
    let claimed = tampered.final_error.expect("run_end present");
    if claimed > 0.0 {
        tampered.final_error = Some(claimed / 2.0);
        if let Some(last) = tampered.iterations.last_mut() {
            last.error_after = claimed / 2.0;
        }
        let report = audit_certificates(
            &tampered,
            Some(&golden),
            Some(&final_net),
            &AuditConfig::default(),
        );
        assert!(
            report
                .errors()
                .any(|d| d.message.contains("re-derived error rate")),
            "tampered summary not flagged:\n{report}"
        );
    }

    // Tamper 3: the raw JSONL path — truncate the log mid-iteration; the
    // parser itself must reject it.
    let lines: Vec<&str> = text.lines().collect();
    if let Some(cut) = lines
        .iter()
        .position(|l| l.contains("\"change_committed\""))
    {
        let truncated = lines[..=cut].join("\n");
        assert!(
            CertificateLog::from_jsonl(&truncated).is_err(),
            "truncated log must not parse"
        );
    }
}
