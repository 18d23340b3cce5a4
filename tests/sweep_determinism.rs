//! Property: a design-space sweep is a pure function of `(circuit, grid,
//! base config)` — the sweep worker count, like the engine thread count, is
//! a pure *speed* knob. One worker and many workers must produce
//! byte-identical frontier records (fingerprints exclude wall-clock noise by
//! construction).

use als::circuits::adders::ripple_carry_adder;
use als::circuits::alu::adder_comparator;
use als::core::sweep::{run_sweep, SweepGrid, SweepRecord};
use als::{AlsConfig, DelayWeight, Strategy};

fn small_grid(workers: usize, delay_weight: DelayWeight) -> SweepGrid {
    SweepGrid {
        thresholds: vec![0.005, 0.05],
        strategies: vec![Strategy::Single, Strategy::Multi, Strategy::Sasimi],
        patterns: vec![256],
        delay_weight,
        sweep_workers: workers,
        quick: true,
    }
}

fn base_config() -> AlsConfig {
    AlsConfig::builder()
        .seed(29)
        .build()
        .expect("test config is valid")
}

#[test]
fn sweep_workers_never_change_the_record() {
    for (name, net) in [
        ("RCA4", ripple_carry_adder(4)),
        ("CMP4", adder_comparator(4)),
    ] {
        let serial = run_sweep(name, &net, &small_grid(1, DelayWeight::Off), &base_config())
            .expect("sweep runs");
        let parallel = run_sweep(name, &net, &small_grid(4, DelayWeight::Off), &base_config())
            .expect("sweep runs");
        assert_eq!(
            serial.fingerprint(),
            parallel.fingerprint(),
            "{name}: sweep workers changed the record"
        );
        assert_eq!(serial.points.len(), 6);
        assert!(serial.frontier().count() >= 1);
    }
}

#[test]
fn delay_weighted_sweeps_are_deterministic_too() {
    let net = ripple_carry_adder(4);
    let grid = |w| small_grid(w, DelayWeight::Scaled(1.0));
    let serial = run_sweep("RCA4", &net, &grid(1), &base_config()).expect("sweep runs");
    let parallel = run_sweep("RCA4", &net, &grid(3), &base_config()).expect("sweep runs");
    assert_eq!(
        serial.fingerprint(),
        parallel.fingerprint(),
        "delay-weighted sweep diverged across worker counts"
    );
    // Every point still satisfies its threshold under delay-aware scoring.
    for p in &serial.points {
        assert!(p.error_rate <= p.threshold + 1e-12, "{p:?}");
    }
}

#[test]
fn rendered_records_round_trip_with_identical_fingerprints() {
    let net = ripple_carry_adder(3);
    let record = run_sweep(
        "RCA3",
        &net,
        &small_grid(2, DelayWeight::Off),
        &base_config(),
    )
    .expect("sweep runs");
    let parsed = SweepRecord::parse(&record.render()).expect("rendered record parses");
    assert_eq!(parsed.fingerprint(), record.fingerprint());
    assert_eq!(parsed.points, record.points);
}
