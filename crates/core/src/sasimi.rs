//! SASIMI — the *substitute-and-simplify* baseline (Venkataramani et al.,
//! DATE'13), as configured in the DAC'16 paper's comparison.
//!
//! SASIMI's idea: find **signal pairs** `(target, substitute)` that agree on
//! almost all input vectors, replace the target with the substitute (possibly
//! inverted), and let the network simplify. The DAC'16 comparison disables
//! SASIMI's timing handling and gate downsizing so it optimizes area only;
//! this implementation reproduces that configuration.
//!
//! Candidate generation compares all signal pairs — quadratic in the signal
//! count, which is exactly why the paper's node-local algorithms are faster
//! (their complexity is linear in the node count).

use crate::report::{AlsOutcome, IterationRecord, SelectedChange};
use crate::{AlsConfig, AlsContext};
use als_logic::{Cover, Cube};
use als_network::{Network, NodeId};
use als_sim::SimView;
use als_telemetry::{Event, MetricsCollector, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// A candidate substitution: drive every user of `target` with `substitute`
/// (inverted when `inverted` is set).
#[derive(Clone, Copy, Debug)]
struct Candidate {
    target: NodeId,
    substitute: Option<NodeId>, // None = constant
    constant: bool,
    inverted: bool,
    difference: u64,
    score: f64,
}

/// How many top-ranked candidates are trial-applied per iteration before
/// SASIMI gives up (each trial costs a simulation).
const TRIALS_PER_ITERATION: usize = 25;

/// Runs SASIMI on `original` under the error-rate threshold in `config`.
///
/// Shared knobs (`num_patterns`, `seed`, `threshold`, `max_iterations`) are
/// honoured; the ASE- and don't-care-related options do not apply. Prefer
/// [`approximate`](crate::approximate) with
/// [`Strategy::Sasimi`](crate::Strategy::Sasimi) for the non-panicking
/// entry point.
///
/// # Panics
///
/// Panics if the input network fails its consistency check.
pub fn sasimi(original: &Network, config: &AlsConfig) -> AlsOutcome {
    original.check().expect("input network must be consistent"); // lint:allow(panic): documented panic contract; `approximate()` is the fallible entry
    let ctx = AlsContext::new(original, config);
    sasimi_with_context(original, config, ctx)
}

pub(crate) fn sasimi_with_context(
    original: &Network,
    config: &AlsConfig,
    ctx: AlsContext,
) -> AlsOutcome {
    // lint:allow(nondeterminism): feeds telemetry wall-clock only, never the synthesis outcome
    let start = Instant::now();
    original.check().expect("input network must be consistent"); // lint:allow(panic): documented panic contract; `approximate()` is the fallible entry
    let initial_literals = original.literal_count();

    // Same sink arrangement as the paper's algorithms, so the baseline's
    // runs are directly comparable in the perf records.
    let collector = Arc::new(MetricsCollector::new());
    let mut config = config.clone();
    config.telemetry = config.telemetry.clone().with(collector.clone());
    let config = &config;
    let ctx = ctx
        .with_telemetry(config.telemetry.clone())
        .with_sampling(config);

    config.telemetry.emit(|| Event::RunStart {
        algorithm: "sasimi",
        threads: 1, // the baseline's pairwise search is sequential
        num_patterns: ctx.patterns().num_patterns(),
        nodes: original.num_internal(),
        threshold: config.threshold,
        seed: config.seed,
    });

    let mut current = original.clone();
    // The persistent incremental simulation state; trial substitutions are
    // resimulated through dirty-set updates and rolled back when rejected.
    let mut inc = ctx.incremental(&current);
    inc.set_full_resim(config.resim.is_full());
    let mut error_rate = ctx.measure_view(&current, inc.view());
    let mut iterations: Vec<IterationRecord> = Vec::new();

    for iteration in 1..=config.max_iterations {
        let margin = config.threshold - error_rate;
        if margin < 0.0 {
            break;
        }
        // Cooperative cancellation: the network already satisfies the
        // threshold at every iteration boundary, so stopping here is sound.
        if config.cancel.is_cancelled() {
            break;
        }
        let iter_mark = config.telemetry.start();
        let candidates = generate_candidates(&current, inc.view(), &ctx, margin);
        let mut committed = false;
        for cand in candidates.into_iter().take(TRIALS_PER_ITERATION) {
            let mut trial = current.clone();
            // The dirty set, captured pre-apply: a constant replacement
            // rewrites the target in place; a substitution rebuilds the
            // covers of every user (the target itself is swept, and a new
            // inverter is picked up as a newly-live slot).
            let dirty: Vec<NodeId> = if cand.substitute.is_none() {
                vec![cand.target]
            } else {
                trial.fanouts()[cand.target.index()].clone()
            };
            let description = apply(&mut trial, &cand);
            // Resimulate and decide under one undo span (same protocol as
            // multi-selection): the dirty set is resimulated before constant
            // propagation, liveness reconciled on the swept structure; under
            // adaptive sampling a bad trial is rejected from a prefix.
            let Some(new_error_rate) =
                ctx.update_and_accept(&mut inc, &mut trial, &dirty, true, config)
            else {
                inc.rollback();
                continue;
            };
            let saved = current
                .literal_count()
                .saturating_sub(trial.literal_count());
            if saved == 0 {
                inc.rollback();
                continue;
            }
            inc.commit();
            error_rate = new_error_rate;
            let literals_after = trial.literal_count();
            // A substitution flips an output only on a vector where target
            // and substitute disagree, so the pairwise difference rate is
            // this change's apparent rate in the Theorem-1 sense.
            let apparent = cand.difference as f64 / ctx.patterns().num_patterns() as f64; // lint:allow(as-cast): counts << 2^52, exact in f64
            debug_assert!(
                trial.check().is_ok(),
                "network inconsistent after sasimi substitution: {:?}",
                trial.check()
            );
            config.telemetry.emit(|| Event::ChangeCommitted {
                iteration: iteration as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                node: description.clone(),
                ase: String::from("substitution"),
                literals_saved: saved as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                apparent,
                // SASIMI's pairwise search never runs the static analysis.
                static_lo: None,
                static_hi: None,
            });
            iterations.push(IterationRecord {
                iteration,
                changes: vec![SelectedChange {
                    node_name: description,
                    ase: String::from("substitution"),
                    literals_saved: saved,
                    error_estimate: apparent,
                    apparent,
                }],
                literals_after,
                error_rate_after: error_rate,
            });
            current = trial;
            committed = true;
            config.telemetry.emit(|| Event::IterationEnd {
                iteration: iteration as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                changes: 1,
                literals: literals_after as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                error_rate,
                nanos: Telemetry::nanos_since(iter_mark),
            });
            break;
        }
        if !committed {
            break;
        }
    }

    debug_assert!(current.check().is_ok());
    let final_literals = current.literal_count();
    config.telemetry.emit(|| Event::RunEnd {
        iterations: iterations.len() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
        literals: final_literals as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
        error_rate,
        nanos: start.elapsed().as_nanos() as u64, // lint:allow(as-cast): run duration << 584 years
    });
    AlsOutcome {
        final_literals,
        measured_error_rate: error_rate,
        network: current,
        iterations,
        initial_literals,
        runtime: start.elapsed(),
        metrics: collector.report(),
    }
}

/// Ranks substitution candidates by `literals-freed / error`, considering
/// every ordered signal pair (in both phases) and the two constants. Signal
/// signatures come from the caller's (incremental) view — no fresh
/// simulation.
///
/// Under [`PatternPolicy::Adaptive`](crate::PatternPolicy::Adaptive) the
/// pairwise scan — the `O(signals² × words)` bulk of SASIMI's runtime —
/// probes each pair at a word prefix and doubles coverage only while the
/// pair could still substitute in some phase
/// ([`SimView::difference_probe`]). Mismatch and match counts are monotone
/// in coverage, so a prefix-infeasible pair is exactly a full-scan-rejected
/// pair: the surviving candidate set, its exact difference counts, and
/// hence the whole run are byte-identical to fixed sampling.
fn generate_candidates(
    net: &Network,
    sim: SimView<'_>,
    ctx: &AlsContext,
    margin: f64,
) -> Vec<Candidate> {
    let num_patterns = ctx.patterns().num_patterns() as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
    let allowed = (margin * num_patterns as f64).floor() as u64; // lint:allow(as-cast): margin >= 0 and the product <= num_patterns
    let wps = sim.words_per_signal();
    // Fixed sampling starts at full width: the probe then returns exact
    // counts in one round and never early-exits.
    let start_words = ctx.adaptive_min_words().unwrap_or(wps);

    let targets: Vec<NodeId> = net
        .internal_ids()
        .filter(|&id| !net.node(id).is_constant())
        .collect();
    let mut all_signals: Vec<NodeId> = net.pis().to_vec();
    all_signals.extend(targets.iter().copied());

    let mut pairs = 0u64;
    let mut early_rejects = 0u64;
    let mut words_scanned = 0u64;
    let mut out: Vec<Candidate> = Vec::new();
    for &t in &targets {
        // Deleting t frees its literals (more after simplification; this is
        // the ranking heuristic, the trial measures reality).
        let freed = net.node(t).literal_count();
        let tfo = net.tfo_mask(t);
        // Constants: cost of t being 1 with probability ~0 or ~1.
        let ones = sim.count_ones(t);
        for (constant, diff) in [(false, ones), (true, num_patterns - ones)] {
            if diff <= allowed {
                out.push(Candidate {
                    target: t,
                    substitute: None,
                    constant,
                    inverted: false,
                    difference: diff,
                    score: score(freed, diff, num_patterns),
                });
            }
        }
        for &s in &all_signals {
            if s == t || tfo[s.index()] {
                continue; // self or would create a cycle
            }
            // The inverted phase costs an extra inverter literal, so it is
            // only ever considered when freed > 1 — pairs without it can
            // early-exit on the mismatch bound alone.
            let max_matches = (freed > 1).then_some(allowed);
            let probe = sim.difference_probe(t, s, allowed, max_matches, start_words);
            pairs += 1;
            words_scanned += probe.words_scanned;
            if probe.early_exit {
                early_rejects += 1;
                continue;
            }
            let diff = probe.count;
            // Same phase.
            if diff <= allowed {
                out.push(Candidate {
                    target: t,
                    substitute: Some(s),
                    constant: false,
                    inverted: false,
                    difference: diff,
                    score: score(freed, diff, num_patterns),
                });
            }
            // Inverted phase (costs one extra inverter literal).
            let inv_diff = num_patterns - diff;
            if inv_diff <= allowed && freed > 1 {
                out.push(Candidate {
                    target: t,
                    substitute: Some(s),
                    constant: false,
                    inverted: true,
                    difference: inv_diff,
                    score: score(freed - 1, inv_diff, num_patterns),
                });
            }
        }
    }
    ctx.record_similarity_scan(
        pairs,
        early_rejects,
        words_scanned,
        pairs * wps as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
    );
    out.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.difference.cmp(&b.difference))
    });
    out
}

fn score(freed: usize, diff: u64, num_patterns: u64) -> f64 {
    let rate = diff as f64 / num_patterns as f64; // lint:allow(as-cast): counts << 2^52, exact in f64
    if rate <= 0.0 {
        f64::INFINITY
    } else {
        freed as f64 / rate // lint:allow(as-cast): counts << 2^52, exact in f64
    }
}

/// Applies a candidate to the network, returning a human-readable label.
fn apply(net: &mut Network, cand: &Candidate) -> String {
    let target_name = net.node(cand.target).name().to_string();
    match cand.substitute {
        None => {
            net.replace_with_constant(cand.target, cand.constant);
            format!("{target_name} ← const {}", u8::from(cand.constant))
        }
        Some(s) => {
            let source_name = net.node(s).name().to_string();
            if cand.inverted {
                let inv = net.add_node(
                    format!("{target_name}_inv"),
                    vec![s],
                    Cover::from_cubes(
                        1,
                        [Cube::from_literals(&[(0, false)]).expect("single negative literal")], // lint:allow(panic): cube literals are valid by construction
                    ),
                );
                net.substitute(cand.target, inv);
                format!("{target_name} ← {source_name}'")
            } else {
                net.substitute(cand.target, s);
                format!("{target_name} ← {source_name}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_sim::{error_rate, PatternSet};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// Two signals that agree on 7 of 8 patterns: `ab` vs `ab + a'b'c`.
    fn near_duplicate_net() -> Network {
        let mut net = Network::new("near");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let g1 = net.add_node(
            "g1",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let g2 = net.add_node(
            "g2",
            vec![a, b, c],
            Cover::from_cubes(
                3,
                [
                    cube(&[(0, true), (1, true)]),
                    cube(&[(0, false), (1, false), (2, true)]),
                ],
            ),
        );
        net.add_po("y1", g1);
        net.add_po("y2", g2);
        net
    }

    #[test]
    fn substitutes_near_identical_signals() {
        let net = near_duplicate_net();
        // g2 differs from g1 on 1/8 of inputs (a'b'c); a 20% budget allows
        // replacing g2 by g1.
        let out = sasimi(&net, &AlsConfig::with_threshold(0.20));
        assert!(out.measured_error_rate <= 0.20 + 1e-12);
        assert!(
            out.final_literals < out.initial_literals,
            "{} -> {}",
            out.initial_literals,
            out.final_literals
        );
        let p = PatternSet::exhaustive(3).unwrap();
        let er = error_rate(&net, &out.network, &p);
        assert!(er <= 0.20, "true error {er}");
    }

    #[test]
    fn tight_budget_blocks_substitution() {
        let net = near_duplicate_net();
        // The only non-trivial substitution costs 12.5% error.
        let out = sasimi(&net, &AlsConfig::with_threshold(0.01));
        assert_eq!(out.final_literals, out.initial_literals);
        assert_eq!(out.measured_error_rate, 0.0);
    }

    #[test]
    fn exact_duplicates_are_free() {
        let mut net = Network::new("dup");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let g1 = net.add_node(
            "g1",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let g2 = net.add_node(
            "g2",
            vec![b, a],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        net.add_po("y1", g1);
        net.add_po("y2", g2);
        let out = sasimi(&net, &AlsConfig::with_threshold(0.0));
        assert_eq!(out.measured_error_rate, 0.0);
        assert!(out.final_literals < out.initial_literals);
    }

    #[test]
    fn inverted_substitution_found() {
        // g2 = NOT g1 exactly: substitution with an inverter saves literals.
        let mut net = Network::new("inv");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let g1 = net.add_node(
            "g1",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        // g2 = (ab)' as a 2-cube SOP: a' + b'.
        let g2 = net.add_node(
            "g2",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, false)]), cube(&[(1, false)])]),
        );
        net.add_po("y1", g1);
        net.add_po("y2", g2);
        let out = sasimi(&net, &AlsConfig::with_threshold(0.0));
        assert_eq!(out.measured_error_rate, 0.0);
        // g2 (2 literals) becomes one inverter on g1 (1 literal).
        assert!(out.final_literals < out.initial_literals);
    }

    #[test]
    fn respects_threshold_on_arithmetic() {
        use als_circuits::adders::ripple_carry_adder;
        let net = ripple_carry_adder(4);
        let out = sasimi(&net, &AlsConfig::with_threshold(0.05));
        assert!(out.measured_error_rate <= 0.05 + 1e-12);
        let p = PatternSet::exhaustive(8).unwrap();
        let er = error_rate(&net, &out.network, &p);
        assert!(er <= 0.08, "true error {er}");
    }
}
