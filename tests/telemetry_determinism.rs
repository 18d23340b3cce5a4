//! Property: telemetry is *purely observational*. Attaching any sink — the
//! metrics collector, a JSONL event log, or a user-defined one — must leave
//! the outcome byte-identical to an untelemetered run, at one worker and at
//! many.

use als::circuits::adders::ripple_carry_adder;
use als::circuits::alu::adder_comparator;
use als::circuits::misc::priority_encoder;
use als::network::{blif, Network};
use als::telemetry::{Event, JsonlSink, MetricsCollector, Telemetry, TelemetrySink};
use als::{approximate, AlsConfig, AlsOutcome, Strategy};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Everything observable about an outcome, as one comparable string.
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
                "  {} := {} (-{} lits, est {:.17e})",
                ch.node_name, ch.ase, ch.literals_saved, ch.error_estimate
            );
        }
    }
    s
}

fn circuit(index: usize) -> Network {
    match index {
        0 => ripple_carry_adder(4),
        1 => adder_comparator(4),
        _ => priority_encoder(4),
    }
}

/// A user-defined sink: counts events, to prove the runs under test really
/// were observed (the property would be vacuous otherwise).
#[derive(Default)]
struct CountingSink {
    events: AtomicU64,
}

impl TelemetrySink for CountingSink {
    fn record(&self, _event: &Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

fn config(seed: u64, threads: usize, telemetry: Telemetry) -> AlsConfig {
    AlsConfig::builder()
        .threshold(0.05)
        .patterns(512)
        .seed(seed)
        .threads(threads)
        .telemetry(telemetry)
        .build()
        .expect("test config is valid")
}

/// Every sink arrangement to sweep: disabled, metrics collector, JSONL log
/// (into a throwaway writer), custom counter, and all three stacked.
fn sink_arrangements() -> Vec<(&'static str, Telemetry)> {
    vec![
        ("disabled", Telemetry::disabled()),
        (
            "metrics",
            Telemetry::from(Arc::new(MetricsCollector::new())),
        ),
        (
            "jsonl",
            Telemetry::from(Arc::new(JsonlSink::new(std::io::sink()))),
        ),
        (
            "counting",
            Telemetry::from(Arc::new(CountingSink::default())),
        ),
        (
            "stacked",
            Telemetry::from(Arc::new(MetricsCollector::new()))
                .with(Arc::new(JsonlSink::new(std::io::sink())))
                .with(Arc::new(CountingSink::default())),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sinks_never_change_the_outcome(
        seed in 1u64..1000,
        circuit_index in 0usize..3,
        strategy_index in 0usize..3,
    ) {
        let net = circuit(circuit_index);
        let strategy = [Strategy::Single, Strategy::Multi, Strategy::Sasimi][strategy_index];
        let want = fingerprint(
            &approximate(&net, strategy, &config(seed, 1, Telemetry::disabled())).unwrap(),
        );

        for (label, telemetry) in sink_arrangements() {
            for threads in [1usize, 4] {
                let out =
                    approximate(&net, strategy, &config(seed, threads, telemetry.clone())).unwrap();
                prop_assert_eq!(
                    &want,
                    &fingerprint(&out),
                    "sink `{}` with threads={} changed the outcome (circuit {}, {:?}, seed {})",
                    label, threads, circuit_index, strategy, seed
                );
            }
        }
    }
}

/// Pinned non-property variant, plus the vacuity check: the sinks really do
/// receive events during the compared runs.
#[test]
fn stacked_sinks_observe_without_perturbing() {
    let net = ripple_carry_adder(4);
    let want = fingerprint(
        &approximate(&net, Strategy::Multi, &config(7, 1, Telemetry::disabled())).unwrap(),
    );

    let counter = Arc::new(CountingSink::default());
    let collector = Arc::new(MetricsCollector::new());
    let telemetry = Telemetry::from(collector.clone()).with(counter.clone());
    for threads in [1usize, 4] {
        let out = approximate(
            &net,
            Strategy::Multi,
            &config(7, threads, telemetry.clone()),
        )
        .unwrap();
        assert_eq!(want, fingerprint(&out), "threads={threads}");
    }
    assert!(
        counter.events.load(Ordering::Relaxed) > 0,
        "the custom sink never saw an event — the property above is vacuous"
    );
    assert!(collector.report().measurements > 0);
}
