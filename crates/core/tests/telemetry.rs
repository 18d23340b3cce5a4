//! Telemetry integration: the counters the engine reports are *exact* on a
//! fixed circuit, every algorithm populates `AlsOutcome::metrics`, and the
//! event stream is consistent with the iteration log.

use als_circuits::adders::ripple_carry_adder;
use als_core::{
    approximate, AlsConfig, AlsContext, CandidateEngine, MetricsCollector, Strategy, Telemetry,
};
use std::sync::Arc;

fn config_with(collector: &Arc<MetricsCollector>) -> AlsConfig {
    AlsConfig::builder()
        .threshold(0.05)
        .patterns(512)
        .telemetry(collector.clone())
        .build()
        .expect("test config is valid")
}

#[test]
fn refresh_counters_are_exact_on_a_fixed_circuit() {
    let net = ripple_carry_adder(3);
    let n = net.num_internal() as u64;
    assert!(n > 0);

    let collector = Arc::new(MetricsCollector::new());
    let config = config_with(&collector);
    let ctx = AlsContext::new(&net, &config);
    let mut engine = CandidateEngine::new(&config, true);

    // First refresh on an empty cache: every node is a miss.
    engine.refresh(&net, &ctx);
    let r = collector.report();
    assert_eq!(r.refreshes, 1);
    assert_eq!(r.evaluations, n, "all {n} nodes evaluated");
    assert_eq!(r.cache_hits, 0);
    assert_eq!(r.cache_misses(), n);

    // Second refresh of the unchanged network: every node is a hit.
    engine.refresh(&net, &ctx);
    let r = collector.report();
    assert_eq!(r.refreshes, 2);
    assert_eq!(r.evaluations, n, "nothing re-evaluated");
    assert_eq!(r.cache_hits, n);
    assert_eq!(r.cache_hit_rate(), 0.5);
}

#[test]
fn disabled_cache_reports_all_misses() {
    let net = ripple_carry_adder(3);
    let n = net.num_internal() as u64;

    let collector = Arc::new(MetricsCollector::new());
    let mut config = config_with(&collector);
    config.cache = false;
    let ctx = AlsContext::new(&net, &config);
    let mut engine = CandidateEngine::new(&config, true);

    engine.refresh(&net, &ctx);
    engine.refresh(&net, &ctx);
    let r = collector.report();
    assert_eq!(r.evaluations, 2 * n, "no cache: every refresh re-evaluates");
    assert_eq!(r.cache_hits, 0);
    assert_eq!(r.cache_hit_rate(), 0.0);
}

#[test]
fn every_algorithm_populates_outcome_metrics() {
    let net = ripple_carry_adder(4);
    let config = AlsConfig::builder()
        .threshold(0.05)
        .patterns(512)
        .build()
        .unwrap();
    for (strategy, name) in [
        (Strategy::Single, "single-selection"),
        (Strategy::Multi, "multi-selection"),
        (Strategy::Sasimi, "sasimi"),
    ] {
        let out = approximate(&net, strategy, &config).unwrap();
        let m = &out.metrics;
        assert_eq!(m.algorithm, name);
        assert!(m.measurements > 0, "{name}: no measurements recorded");
        assert!(m.simulations > 0, "{name}: no simulations recorded");
        assert!(
            m.total_time() >= m.phase_nanos.get(als_core::PhaseKind::Simulate),
            "{name}: total time below a phase time"
        );
        // One IterationMetrics entry per committed iteration.
        assert_eq!(
            m.iterations.len(),
            out.iterations.len(),
            "{name}: metrics iteration log out of sync"
        );
        for (im, ir) in m.iterations.iter().zip(&out.iterations) {
            assert_eq!(im.iteration, ir.iteration as u64);
            assert_eq!(im.literals, ir.literals_after as u64);
            assert_eq!(im.error_rate, ir.error_rate_after);
        }
    }
}

#[test]
fn multi_selection_reports_knapsack_work() {
    let net = ripple_carry_adder(4);
    let config = AlsConfig::builder()
        .threshold(0.05)
        .patterns(512)
        .build()
        .unwrap();
    let out = approximate(&net, Strategy::Multi, &config).unwrap();
    assert!(out.metrics.knapsack_solves > 0);
    assert!(out.metrics.knapsack_dp_cells > 0);
}

#[test]
fn telemetry_handle_is_cheap_when_disabled() {
    let telemetry = Telemetry::disabled();
    assert!(!telemetry.is_enabled());
    // `emit` must not even build the event.
    telemetry.emit(|| panic!("event constructed with no sinks attached"));
    // `start` must not sample the clock.
    assert!(telemetry.start().is_none());
    assert_eq!(Telemetry::nanos_since(None), 0);
}
