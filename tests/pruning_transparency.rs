//! Property: static candidate pruning is a pure *speed* knob.
//!
//! The engine discards a candidate without pricing it only when the
//! abstract interpreter proves its apparent error exceeds the remaining
//! budget — a candidate the exact pricing would also reject. So
//! [`als::approximate`] with [`prune`](als::AlsConfig::prune) on or off
//! must produce byte-identical outcomes (BLIF text, iteration log, error
//! rate), exactly like the thread-count and cache knobs in the
//! `determinism` suite.
//!
//! The suite also guards against vacuity: a sweep where the pruner never
//! fires would make the transparency check meaningless, so one test pins a
//! configuration (a 32-bit adder at the paper's tightest threshold) where
//! static bounds provably discard candidates and simulations are avoided.

use als::circuits::adders::ripple_carry_adder;
use als::circuits::alu::adder_comparator;
use als::circuits::misc::priority_encoder;
use als::network::{blif, Network};
use als::telemetry::{Json, JsonlSink, Telemetry};
use als::{approximate, AlsConfig, AlsOutcome, PrunePolicy, Strategy};
use als_bench::PAPER_THRESHOLDS;
use std::io::Write;
use std::sync::{Arc, Mutex};

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

/// Everything observable about an outcome except engine metrics and
/// wall-clock time, as one comparable string.
fn fingerprint(out: &AlsOutcome) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    s.push_str(&blif::write(&out.network));
    let _ = writeln!(
        s,
        "\nliterals {} -> {}\nerror_rate {:.17e}",
        out.initial_literals, out.final_literals, out.measured_error_rate
    );
    for it in &out.iterations {
        let _ = writeln!(
            s,
            "iter {} lits {} er {:.17e}",
            it.iteration, it.literals_after, it.error_rate_after
        );
        for ch in &it.changes {
            let _ = writeln!(
                s,
                "  {} := {} (-{} lits, est {:.17e} app {:.17e})",
                ch.node_name, ch.ase, ch.literals_saved, ch.error_estimate, ch.apparent
            );
        }
    }
    s
}

fn config(threshold: f64, prune: bool) -> AlsConfig {
    AlsConfig::builder()
        .threshold(threshold)
        .patterns(256)
        .seed(41)
        .pruning(if prune {
            PrunePolicy::Static
        } else {
            PrunePolicy::Off
        })
        .build()
        .expect("test config is valid")
}

/// The three circuits the transparency sweep covers: an adder (deep
/// reconvergent carry chain), an ALU slice, and a control-style encoder.
fn circuits() -> [Network; 3] {
    [
        ripple_carry_adder(4),
        adder_comparator(4),
        priority_encoder(4),
    ]
}

/// The headline property: every circuit × every Table-4 threshold × both
/// paper algorithms, pruning on vs. off, byte-identical outcomes.
#[test]
fn pruning_never_changes_the_outcome_across_table4_thresholds() {
    let mut pruned_total = 0u64;
    for net in circuits() {
        for &threshold in &PAPER_THRESHOLDS {
            for strategy in [Strategy::Single, Strategy::Multi] {
                let on = approximate(&net, strategy, &config(threshold, true)).unwrap();
                let off = approximate(&net, strategy, &config(threshold, false)).unwrap();
                assert_eq!(
                    fingerprint(&on),
                    fingerprint(&off),
                    "{} @ {threshold} {strategy:?}: pruning changed the outcome",
                    net.name()
                );
                assert_eq!(
                    off.metrics.candidates_pruned, 0,
                    "prune=false must not prune"
                );
                pruned_total += on.metrics.candidates_pruned;
            }
        }
    }
    // Non-vacuity: the sweep exercised the pruner, not just its bypass.
    assert!(
        pruned_total > 0,
        "no candidate was ever statically pruned — the transparency sweep is vacuous"
    );
}

/// SASIMI ignores the knob entirely (its substitution pricing has no
/// static pre-filter); the outcome must still be identical.
#[test]
fn sasimi_is_unaffected_by_the_prune_knob() {
    let net = ripple_carry_adder(4);
    let on = approximate(&net, Strategy::Sasimi, &config(0.01, true)).unwrap();
    let off = approximate(&net, Strategy::Sasimi, &config(0.01, false)).unwrap();
    assert_eq!(fingerprint(&on), fingerprint(&off));
    assert_eq!(on.metrics.candidates_pruned, 0);
    assert_eq!(on.metrics.nodes_skipped, 0);
}

/// The simulations-avoided measure is live where it matters: the paper's
/// tightest threshold on a 32-bit adder leaves a budget so small that the
/// static lower bounds discard whole nodes' candidate lists before any
/// local-pattern gather runs. The event log carries the pruning counts on
/// its `engine_refresh` lines, one line per refresh rather than one per
/// pruned candidate.
#[test]
fn tightest_threshold_on_a_wide_adder_skips_simulations() {
    let net = ripple_carry_adder(32);
    let buf = SharedBuf::default();
    let config = AlsConfig::builder()
        .threshold(PAPER_THRESHOLDS[0])
        .patterns(2048)
        .seed(41)
        .pruning(PrunePolicy::Static)
        .telemetry(Telemetry::from(Arc::new(JsonlSink::new(buf.clone()))))
        .build()
        .expect("test config is valid");
    let out = approximate(&net, Strategy::Multi, &config).unwrap();
    let log = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8 jsonl");
    let mut logged_pruned = 0u64;
    for line in log.lines() {
        let event = Json::parse(line).expect("every log line is JSON");
        let name = event.get("event").and_then(Json::as_str);
        assert_ne!(name, Some("candidate_pruned"), "per-candidate line: {line}");
        if name == Some("engine_refresh") {
            logged_pruned += event
                .get("candidates_pruned")
                .and_then(Json::as_u64)
                .expect("engine_refresh carries candidates_pruned");
        }
    }
    assert_eq!(logged_pruned, out.metrics.candidates_pruned);
    assert!(
        out.metrics.candidates_pruned > 0,
        "expected static pruning on RCA32 at threshold {}",
        PAPER_THRESHOLDS[0]
    );
    assert!(
        out.metrics.nodes_skipped > 0,
        "expected whole-node gather skips on RCA32 at threshold {}",
        PAPER_THRESHOLDS[0]
    );
    assert!(out.measured_error_rate <= PAPER_THRESHOLDS[0] + 1e-12);
}
