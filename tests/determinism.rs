//! Property: [`als::approximate`] is a pure function of `(network, strategy,
//! config-minus-engine-knobs)`. The candidate-evaluation engine's thread
//! count and cache are pure *speed* knobs — one worker, many workers, and a
//! disabled cache must produce byte-identical outcomes for the same seed.
//!
//! Outcomes are compared down to the BLIF text of the result network, the
//! full iteration log, and the measured error rate.

use als::circuits::adders::ripple_carry_adder;
use als::circuits::alu::adder_comparator;
use als::circuits::misc::priority_encoder;
use als::network::{blif, Network};
use als::{approximate, AlsConfig, AlsOutcome, DelayWeight, PatternPolicy, ResimMode, Strategy};
use als_bench::PAPER_THRESHOLDS;
use als_dontcare::{DontCareConfig, DontCareMethod, SolverReuse};
use proptest::prelude::*;

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

/// The three generator circuits the property sweeps.
fn circuit(index: usize) -> Network {
    match index {
        0 => ripple_carry_adder(4),
        1 => adder_comparator(4),
        _ => priority_encoder(4),
    }
}

fn config(seed: u64, threads: usize, cache: bool) -> AlsConfig {
    AlsConfig::builder()
        .threshold(0.05)
        .patterns(PatternPolicy::Fixed(512))
        .seed(seed)
        .threads(threads)
        .cache(cache)
        .build()
        .expect("test config is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn engine_knobs_never_change_the_outcome(
        seed in 1u64..1000,
        circuit_index in 0usize..3,
        strategy_index in 0usize..2,
    ) {
        let net = circuit(circuit_index);
        let strategy = [Strategy::Single, Strategy::Multi][strategy_index];

        let baseline = approximate(&net, strategy, &config(seed, 1, true)).unwrap();
        let parallel = approximate(&net, strategy, &config(seed, 4, true)).unwrap();
        let uncached = approximate(&net, strategy, &config(seed, 1, false)).unwrap();

        let want = fingerprint(&baseline);
        prop_assert_eq!(
            &want,
            &fingerprint(&parallel),
            "threads=4 diverged from threads=1 (circuit {}, {:?}, seed {})",
            circuit_index, strategy, seed
        );
        prop_assert_eq!(
            &want,
            &fingerprint(&uncached),
            "cache=off diverged from cache=on (circuit {}, {:?}, seed {})",
            circuit_index, strategy, seed
        );
    }
}

/// The incremental dirty-set resimulation engine is a pure *speed* knob
/// too: `ResimMode::Full` (the `--resim full` CLI escape hatch) degrades every
/// update to a full pass through the identical measurement arithmetic, so
/// outcomes must stay byte-identical across every circuit × Table-4
/// threshold × all three algorithms (quick pattern counts keep the sweep
/// fast). Non-vacuity is asserted on the resim work counters: the
/// incremental side must actually have saved node evaluations somewhere,
/// and the full side must never have.
#[test]
fn incremental_resimulation_never_changes_the_outcome() {
    let resim_config = |threshold: f64, full: bool| {
        AlsConfig::builder()
            .threshold(threshold)
            .patterns(PatternPolicy::Fixed(256))
            .seed(41)
            .resim(if full {
                ResimMode::Full
            } else {
                ResimMode::Incremental
            })
            .build()
            .expect("test config is valid")
    };
    let mut incremental_saved = 0u64;
    for circuit_index in 0..3 {
        let net = circuit(circuit_index);
        for &threshold in &PAPER_THRESHOLDS {
            for strategy in [Strategy::Single, Strategy::Multi, Strategy::Sasimi] {
                let inc = approximate(&net, strategy, &resim_config(threshold, false)).unwrap();
                let full = approximate(&net, strategy, &resim_config(threshold, true)).unwrap();
                assert_eq!(
                    fingerprint(&inc),
                    fingerprint(&full),
                    "{} @ {threshold} {strategy:?}: full_resim changed the outcome",
                    net.name()
                );
                assert!(
                    full.metrics.resim_nodes >= full.metrics.resim_full_equivalent,
                    "full_resim must not skip any node"
                );
                incremental_saved += inc
                    .metrics
                    .resim_full_equivalent
                    .saturating_sub(inc.metrics.resim_nodes);
            }
        }
    }
    assert!(
        incremental_saved > 0,
        "incremental resimulation never skipped a node — the sweep is vacuous"
    );
}

/// The one-solver-per-window-sweep SAT path is a pure *speed* knob as
/// well: [`SolverReuse::Incremental`] keeps a single solver warm across a
/// whole sweep (retracting each window's clause group afterwards) while
/// [`SolverReuse::Fresh`] builds a throwaway solver per query, and both
/// must answer every SDC/ODC query identically — so outcomes stay
/// byte-identical across every circuit × Table-4 threshold × all three
/// algorithms. Non-vacuity is asserted two ways: the incremental side must
/// somewhere have amortized (strictly fewer solver instances than queries,
/// and strictly fewer than the fresh oracle's one-solver-per-window total).
#[test]
fn incremental_solver_reuse_never_changes_the_outcome() {
    let reuse_config = |threshold: f64, reuse: SolverReuse| {
        AlsConfig::builder()
            .threshold(threshold)
            .patterns(PatternPolicy::Fixed(256))
            .seed(29)
            .dont_care(DontCareConfig {
                method: DontCareMethod::Sat,
                reuse,
                ..DontCareConfig::default()
            })
            .build()
            .expect("test config is valid")
    };
    let (mut inc_queries, mut inc_instances, mut fresh_instances) = (0u64, 0u64, 0u64);
    for circuit_index in 0..3 {
        let net = circuit(circuit_index);
        for &threshold in &PAPER_THRESHOLDS {
            for strategy in [Strategy::Single, Strategy::Multi, Strategy::Sasimi] {
                let inc = approximate(
                    &net,
                    strategy,
                    &reuse_config(threshold, SolverReuse::Incremental),
                )
                .unwrap();
                let fresh =
                    approximate(&net, strategy, &reuse_config(threshold, SolverReuse::Fresh))
                        .unwrap();
                assert_eq!(
                    fingerprint(&inc),
                    fingerprint(&fresh),
                    "{} @ {threshold} {strategy:?}: solver reuse changed the outcome",
                    net.name()
                );
                assert_eq!(
                    inc.metrics.sat_queries,
                    fresh.metrics.sat_queries,
                    "{} @ {threshold} {strategy:?}: reuse changed the query count",
                    net.name()
                );
                assert!(
                    inc.metrics.solver_instances <= fresh.metrics.solver_instances,
                    "{} @ {threshold} {strategy:?}: incremental path built more solvers \
                     than the fresh oracle",
                    net.name()
                );
                inc_queries += inc.metrics.sat_queries;
                inc_instances += inc.metrics.solver_instances;
                fresh_instances += fresh.metrics.solver_instances;
            }
        }
    }
    assert!(
        inc_instances < inc_queries,
        "incremental path never amortized a solver across queries \
         ({inc_instances} instances for {inc_queries} queries) — the sweep is vacuous"
    );
    assert!(
        inc_instances < fresh_instances,
        "incremental path built as many solvers as the fresh oracle \
         ({inc_instances} vs {fresh_instances}) — reuse never engaged"
    );
}

/// Adaptive pattern sampling is a pure *speed* knob as well: an early
/// reject fires only when the full-budget measurement would also reject,
/// and every other decision is made at the full budget through identical
/// arithmetic — so `Adaptive { min, max }` must produce byte-identical
/// outcomes to `Fixed(max)` across every circuit × Table-4 threshold × all
/// three algorithms. Non-vacuity is asserted on the
/// `adaptive_early_decisions` counter: somewhere in the sweep a trial must
/// actually have been rejected from a pattern prefix, or the equivalence
/// proves nothing.
#[test]
fn adaptive_sampling_never_changes_the_outcome() {
    let sampling_config = |threshold: f64, patterns: PatternPolicy| {
        AlsConfig::builder()
            .threshold(threshold)
            .patterns(patterns)
            .seed(23)
            .build()
            .expect("test config is valid")
    };
    let mut early_decisions = 0u64;
    let mut words_saved = 0u64;
    for circuit_index in 0..3 {
        let net = circuit(circuit_index);
        for &threshold in &PAPER_THRESHOLDS {
            for strategy in [Strategy::Single, Strategy::Multi, Strategy::Sasimi] {
                let adaptive = approximate(
                    &net,
                    strategy,
                    &sampling_config(threshold, PatternPolicy::Adaptive { min: 64, max: 256 }),
                )
                .unwrap();
                let fixed = approximate(
                    &net,
                    strategy,
                    &sampling_config(threshold, PatternPolicy::Fixed(256)),
                )
                .unwrap();
                assert_eq!(
                    fingerprint(&adaptive),
                    fingerprint(&fixed),
                    "{} @ {threshold} {strategy:?}: adaptive sampling changed the outcome",
                    net.name()
                );
                assert_eq!(
                    fixed.metrics.adaptive_early_decisions, 0,
                    "fixed sampling must never decide early"
                );
                early_decisions += adaptive.metrics.adaptive_early_decisions;
                words_saved += fixed
                    .metrics
                    .patterns_simulated_words
                    .saturating_sub(adaptive.metrics.patterns_simulated_words);
            }
        }
    }
    assert!(
        early_decisions > 0,
        "no trial was ever rejected from a pattern prefix — the sweep is vacuous"
    );
    assert!(
        words_saved > 0,
        "adaptive sampling simulated at least as many words as fixed sampling"
    );
}

/// `DelayWeight::Off` (the default) must be *byte-identical* to every
/// pre-delay-scoring release: under `Off` no `DelayScorer` is even built and
/// the legacy literals-per-error ranking runs untouched, so an explicit
/// `delay_weight(DelayWeight::Off)` must reproduce the plain default config
/// exactly — across every circuit × Table-4 threshold × both scored
/// algorithms (SASIMI's scoring is delay-unaware by design and rides along
/// as a control). A `Scaled` run, in contrast, may legitimately pick
/// different candidates but must still satisfy its threshold.
#[test]
fn delay_weight_off_is_byte_identical_to_the_default() {
    let weight_config = |threshold: f64, weight: Option<DelayWeight>| {
        let mut b = AlsConfig::builder()
            .threshold(threshold)
            .patterns(PatternPolicy::Fixed(256))
            .seed(17);
        if let Some(w) = weight {
            b = b.delay_weight(w);
        }
        b.build().expect("test config is valid")
    };
    for circuit_index in 0..3 {
        let net = circuit(circuit_index);
        for &threshold in &PAPER_THRESHOLDS {
            for strategy in [Strategy::Single, Strategy::Multi, Strategy::Sasimi] {
                let default = approximate(&net, strategy, &weight_config(threshold, None)).unwrap();
                let off = approximate(
                    &net,
                    strategy,
                    &weight_config(threshold, Some(DelayWeight::Off)),
                )
                .unwrap();
                assert_eq!(
                    fingerprint(&default),
                    fingerprint(&off),
                    "{} @ {threshold} {strategy:?}: DelayWeight::Off changed the outcome",
                    net.name()
                );
            }
        }
    }
    // A scaled weight is a different (legal) operating point: still sound,
    // not necessarily identical.
    let net = circuit(0);
    for strategy in [Strategy::Single, Strategy::Multi] {
        let scaled = approximate(
            &net,
            strategy,
            &weight_config(0.05, Some(DelayWeight::Scaled(2.0))),
        )
        .unwrap();
        assert!(
            scaled.measured_error_rate <= 0.05 + 1e-12,
            "{strategy:?}: delay-weighted run broke its threshold"
        );
        assert!(scaled.final_literals <= scaled.initial_literals);
    }
}

/// The same invariant, pinned on one explicit case per circuit so a failure
/// names the circuit directly (and so `--test determinism` exercises all
/// three even if the property's RNG happens not to).
#[test]
fn all_three_circuits_agree_across_engine_configs() {
    for circuit_index in 0..3 {
        let net = circuit(circuit_index);
        for strategy in [Strategy::Single, Strategy::Multi] {
            let baseline = approximate(&net, strategy, &config(7, 1, true)).unwrap();
            let parallel = approximate(&net, strategy, &config(7, 8, true)).unwrap();
            let uncached = approximate(&net, strategy, &config(7, 1, false)).unwrap();
            assert_eq!(
                fingerprint(&baseline),
                fingerprint(&parallel),
                "circuit {circuit_index} {strategy:?}: threads changed the outcome"
            );
            assert_eq!(
                fingerprint(&baseline),
                fingerprint(&uncached),
                "circuit {circuit_index} {strategy:?}: cache changed the outcome"
            );
        }
    }
}
