//! The single-selection algorithm (paper Algorithm 1); see
//! [`Strategy::Single`](crate::Strategy::Single).

use crate::api::Run;
use crate::ase::{Ase, AseKind};
use crate::delay_score::{score_gain, DelayScorer};
use crate::engine::{CandidateEngine, CandidateEval};
use crate::error_model::score;
use crate::report::SelectedChange;
use als_network::{Network, NodeId};

/// Runs Algorithm 1's loop on `run`: one best-scored change per iteration.
pub(crate) fn select(run: &mut Run) {
    let mut engine = CandidateEngine::new(&run.config, true);
    // `None` under `DelayWeight::Off`: the legacy scoring path runs with no
    // delay machinery constructed at all (byte-identity is pinned by the
    // determinism suite).
    let mut delay_scorer = DelayScorer::new(&run.current, run.config.delay_weight);

    while run.next_iteration() {
        let margin = run.margin();
        // The engine's static pruning may discard candidates whose sound
        // lower bound on the apparent rate exceeds the margin — exactly the
        // ones `best_candidate` would filter (when estimates equal apparent
        // rates; the engine disables pruning otherwise).
        engine.set_prune_budget(margin);
        engine.refresh_from_sim(&run.current, &run.sim, &run.ctx);
        let Some((node, cand)) =
            best_candidate(&engine, margin, &run.current, delay_scorer.as_ref())
        else {
            break;
        };
        let snapshot = run.current.clone();
        let node_name = run.current.node(node).name().to_string();
        let ase_display = cand.ase.expr.to_string();

        apply_ase(&mut run.current, node, &cand.ase);

        // Resimulate and decide in one step (see
        // `AlsContext::update_and_accept`).
        let Some(new_error_rate) =
            run.ctx
                .update_and_accept(&mut run.sim, &mut run.current, &[node], false, &run.config)
        else {
            run.current = snapshot;
            run.sim.rollback();
            if run.config.magnitude.is_some() {
                // Magnitude violations are routine (the estimate does not
                // model them): suppress this candidate and keep searching.
                engine.ban(&run.current, node, &cand.ase.expr);
                continue;
            }
            // A pure rate violation is unreachable in practice (the estimate
            // upper-bounds the increase on this pattern set); Algorithm 1
            // returns the network of the last iteration.
            break;
        };
        run.sim.commit();
        // Two-cone invalidation: the pre-change network covers windows that
        // contained the edges the ASE removed, the post-change one covers the
        // new structure (see `CandidateEngine::invalidate_committed`).
        engine.invalidate_committed(&snapshot, &[node]);
        engine.invalidate_committed(&run.current, &[node]);
        // Constant propagation is deferred to the end of the loop, so the
        // commit rewrote exactly one node in place and the delay map can
        // refresh its fanout cone incrementally.
        if let Some(scorer) = delay_scorer.as_mut() {
            scorer.update_cone(&run.current, &[node]);
        }
        // Committed-state invariant, compiled out of release builds: the
        // network must still pass its structural check after every rewrite.
        debug_assert!(
            run.current.check().is_ok(),
            "network inconsistent after committing {node_name}: {:?}",
            run.current.check()
        );
        let change = SelectedChange {
            node_name,
            ase: ase_display,
            literals_saved: cand.ase.literals_saved,
            error_estimate: cand.estimate,
            apparent: cand.apparent,
        };
        run.commit(
            vec![(change, Some((cand.static_lo, cand.static_hi)))],
            new_error_rate,
        );
    }

    // Constant propagation is deferred to the end so that each committed
    // change touches exactly one node (which keeps cache invalidation
    // local); it preserves the function, only tidying structure.
    run.current.propagate_constants();
}

/// Picks the highest-scoring feasible (estimate ≤ margin) engine candidate.
/// Ties in score break toward more saved literals, then lower node ids.
/// With a [`DelayScorer`] attached, the score numerator is the
/// delay-adjusted gain instead of the raw literal count; without one, this
/// is exactly the paper's ranking.
fn best_candidate(
    engine: &CandidateEngine,
    margin: f64,
    net: &Network,
    scorer: Option<&DelayScorer>,
) -> Option<(NodeId, CandidateEval)> {
    let mut best: Option<(NodeId, &CandidateEval, f64)> = None;
    for id in engine.node_ids() {
        for cand in engine.candidates(id) {
            if cand.estimate > margin {
                continue;
            }
            let s = match scorer {
                None => score(cand.ase.literals_saved, cand.estimate),
                Some(sc) => score_gain(sc.adjusted_gain(net, id, &cand.ase), cand.estimate),
            };
            let better = match &best {
                None => true,
                Some((_, b, b_score)) => {
                    s > *b_score
                        || (s == *b_score && cand.ase.literals_saved > b.ase.literals_saved)
                }
            };
            if better {
                best = Some((id, cand, s));
            }
        }
    }
    best.map(|(id, cand, _)| (id, cand.clone()))
}

/// Applies an ASE to the network.
pub(crate) fn apply_ase(net: &mut Network, node: NodeId, ase: &Ase) {
    match ase.kind {
        AseKind::ConstZero => net.replace_with_constant(node, false),
        AseKind::ConstOne => net.replace_with_constant(node, true),
        AseKind::Shrunk => net.replace_expr(node, ase.expr.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approximate, AlsConfig, Strategy};
    use als_logic::{Cover, Cube};
    use als_sim::{error_rate, PatternSet};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// A small circuit with an obviously cheap approximation: one output
    /// term depends on a rarely-true product.
    fn rare_term_net() -> Network {
        let mut net = Network::new("rare");
        let pis: Vec<NodeId> = (0..6).map(|i| net.add_pi(format!("x{i}"))).collect();
        // g = x0·x1·x2·x3 (true 1/16 of the time)
        let g = net.add_node(
            "g",
            pis[..4].to_vec(),
            Cover::from_cubes(4, [cube(&[(0, true), (1, true), (2, true), (3, true)])]),
        );
        // h = x4 + x5
        let h = net.add_node(
            "h",
            pis[4..].to_vec(),
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        // y = g + h
        let y = net.add_node(
            "y",
            vec![g, h],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        net.add_po("y", y);
        net
    }

    #[test]
    fn zero_threshold_only_removes_redundancy() {
        let net = rare_term_net();
        let config = AlsConfig::with_threshold(0.0);
        let out = approximate(&net, Strategy::Single, &config).unwrap();
        assert_eq!(out.measured_error_rate, 0.0);
        // The network is already irredundant: nothing to save for free.
        assert_eq!(out.final_literals, out.initial_literals);
    }

    #[test]
    fn budget_buys_area() {
        let net = rare_term_net();
        let config = AlsConfig::with_threshold(0.05);
        let out = approximate(&net, Strategy::Single, &config).unwrap();
        assert!(out.measured_error_rate <= 0.05 + 1e-12);
        assert!(
            out.final_literals < out.initial_literals,
            "a 5% budget must shrink this circuit ({} vs {})",
            out.final_literals,
            out.initial_literals
        );
        // Verify the reported error rate independently on fresh patterns.
        let p = PatternSet::exhaustive(6).unwrap();
        let true_er = error_rate(&net, &out.network, &p);
        assert!(true_er <= 0.10, "true error rate {true_er} is implausible");
    }

    #[test]
    fn larger_budget_never_hurts() {
        let net = rare_term_net();
        let small = approximate(&net, Strategy::Single, &AlsConfig::with_threshold(0.01)).unwrap();
        let large = approximate(&net, Strategy::Single, &AlsConfig::with_threshold(0.20)).unwrap();
        assert!(large.final_literals <= small.final_literals);
    }

    #[test]
    fn iterations_record_monotone_literal_decrease() {
        let net = rare_term_net();
        let out = approximate(&net, Strategy::Single, &AlsConfig::with_threshold(0.3)).unwrap();
        let mut prev = out.initial_literals;
        for it in &out.iterations {
            assert!(it.literals_after < prev, "literals must strictly decrease");
            assert!(it.error_rate_after <= 0.3 + 1e-12);
            prev = it.literals_after;
        }
    }

    #[test]
    fn dont_care_ablation_is_sound_too() {
        let net = rare_term_net();
        let mut config = AlsConfig::with_threshold(0.05);
        config.use_dont_cares = false;
        let out = approximate(&net, Strategy::Single, &config).unwrap();
        assert!(out.measured_error_rate <= 0.05 + 1e-12);
    }

    #[test]
    fn redundancy_is_removed_even_at_zero_threshold() {
        // Duplicate logic: the pre-process (§6) removes it with no error.
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
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let y = net.add_node(
            "y",
            vec![g1, g2],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        net.add_po("y", y);
        let out = approximate(&net, Strategy::Single, &AlsConfig::with_threshold(0.0)).unwrap();
        assert_eq!(out.measured_error_rate, 0.0);
        assert!(out.final_literals < net.literal_count());
    }

    #[test]
    fn magnitude_constraint_respected() {
        use crate::MagnitudeConstraint;
        use als_sim::magnitude_stats;
        let golden = als_circuits::ripple_carry_adder(3);
        let mut config = AlsConfig::with_threshold(0.40);
        config.patterns = 4096;
        config.magnitude = Some(MagnitudeConstraint { max_abs: 1 });
        let out = approximate(&golden, Strategy::Single, &config).unwrap();
        let p = PatternSet::exhaustive(6).unwrap();
        let stats = magnitude_stats(&golden, &out.network, &p);
        assert!(
            stats.max_abs <= 1,
            "deviation {} exceeds bound",
            stats.max_abs
        );
        assert!(out.measured_error_rate <= 0.40 + 1e-12);
    }

    #[test]
    fn cache_and_fresh_runs_agree() {
        // Determinism per seed: two identical runs must agree exactly.
        let net = rare_term_net();
        let config = AlsConfig::with_threshold(0.10);
        let a = approximate(&net, Strategy::Single, &config).unwrap();
        let b = approximate(&net, Strategy::Single, &config).unwrap();
        assert_eq!(a.final_literals, b.final_literals);
        assert_eq!(a.measured_error_rate, b.measured_error_rate);
        assert_eq!(a.iterations.len(), b.iterations.len());
    }
}
