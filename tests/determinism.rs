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
use als::telemetry::{Event, TelemetrySink};
use als::{approximate, AlsConfig, AlsOutcome, DelayWeight, ResimMode, Strategy};
use als_bench::PAPER_THRESHOLDS;
use als_dontcare::{DontCareConfig, DontCareMethod};
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
        .patterns(512)
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
            .patterns(256)
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

/// The don't-care engine is a pure *speed* knob as well: `Auto` enumerates
/// windows with at most `max_enumerated_leaves` leaves and asks SAT about
/// the rest, and the two engines classify every pattern identically — so
/// outcomes must stay byte-identical to `Sat` across every circuit ×
/// Table-4 threshold × all three algorithms. `Auto` runs twice: at the
/// default leaf limit, and at a limit of 4, which sends these small
/// circuits' wider windows down its SAT branch. Non-vacuity: both sides
/// must issue SAT queries somewhere, and default `Auto` strictly fewer
/// than `Sat`.
#[test]
fn auto_dont_cares_never_change_the_outcome() {
    let dc_config = |threshold: f64, method: DontCareMethod, max_enumerated_leaves: usize| {
        AlsConfig::builder()
            .threshold(threshold)
            .patterns(256)
            .seed(29)
            .dont_care(DontCareConfig {
                method,
                max_enumerated_leaves,
                ..DontCareConfig::default()
            })
            .build()
            .expect("test config is valid")
    };
    let default_leaves = DontCareConfig::default().max_enumerated_leaves;
    let (mut sat_queries, mut auto_queries, mut narrow_auto_queries) = (0u64, 0u64, 0u64);
    for circuit_index in 0..3 {
        let net = circuit(circuit_index);
        for &threshold in &PAPER_THRESHOLDS {
            for strategy in [Strategy::Single, Strategy::Multi, Strategy::Sasimi] {
                let sat_config = dc_config(threshold, DontCareMethod::Sat, default_leaves);
                let sat = approximate(&net, strategy, &sat_config).unwrap();
                sat_queries += sat.metrics.sat_queries;
                for (leaves, queries) in [
                    (default_leaves, &mut auto_queries),
                    (4, &mut narrow_auto_queries),
                ] {
                    let auto_config = dc_config(threshold, DontCareMethod::Auto, leaves);
                    let auto = approximate(&net, strategy, &auto_config).unwrap();
                    assert_eq!(
                        fingerprint(&auto),
                        fingerprint(&sat),
                        "{} @ {threshold} {strategy:?}: Auto at max_enumerated_leaves {leaves} \
                         changed the outcome",
                        net.name()
                    );
                    *queries += auto.metrics.sat_queries;
                }
            }
        }
    }
    assert!(
        sat_queries > 0,
        "Sat never issued a query — the sweep is vacuous"
    );
    assert!(
        narrow_auto_queries > 0,
        "Auto never took its SAT branch — the sweep is vacuous"
    );
    assert!(
        auto_queries < sat_queries,
        "default Auto issued as many SAT queries as Sat ({auto_queries} vs {sat_queries}) — \
         enumeration never engaged"
    );
}

/// Counts the signature words SASIMI's pair scans read, and the words
/// full-width scans of the same pairs would have read.
#[derive(Default)]
struct ScanWords {
    words: AtomicU64,
    words_full: AtomicU64,
}

impl TelemetrySink for ScanWords {
    fn record(&self, event: &Event) {
        if let Event::SimilarityScanned {
            words, words_full, ..
        } = *event
        {
            self.words.fetch_add(words, Ordering::Relaxed);
            self.words_full.fetch_add(words_full, Ordering::Relaxed);
        }
    }
}

/// SASIMI's pair scan probes every pair from a one-word prefix and drops
/// the pairs that prefix already proves infeasible in both phases. The
/// probe is exact (`crates/sim/tests/difference_probe.rs` holds it to the
/// full count); this checks that it runs under the default config: across
/// the three circuits × Table-4 thresholds, SASIMI decides pairs from a
/// prefix and reads fewer signature words than full-width scans would.
#[test]
fn sasimi_pair_probe_stops_early_under_the_default_config() {
    let scans = Arc::new(ScanWords::default());
    let mut early_decisions = 0u64;
    for circuit_index in 0..3 {
        let net = circuit(circuit_index);
        for &threshold in &PAPER_THRESHOLDS {
            let config = AlsConfig::builder()
                .threshold(threshold)
                .seed(23)
                .telemetry(scans.clone())
                .build()
                .expect("test config is valid");
            let out = approximate(&net, Strategy::Sasimi, &config).unwrap();
            early_decisions += out.metrics.adaptive_early_decisions;
        }
    }
    assert!(
        early_decisions > 0,
        "no pair was ever decided from a prefix under the default config"
    );
    let words = scans.words.load(Ordering::Relaxed);
    let words_full = scans.words_full.load(Ordering::Relaxed);
    assert!(
        words < words_full,
        "pair scans read {words} signature words, no fewer than full-width scans ({words_full})"
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
            .patterns(256)
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
