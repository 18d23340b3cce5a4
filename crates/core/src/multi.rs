//! The multi-selection algorithm (paper Algorithm 2); see
//! [`Strategy::Multi`](crate::Strategy::Multi).

use crate::api::Run;
use crate::ase::Ase;
use crate::delay_score::{DelayScorer, GAIN_SCALE};
use crate::engine::CandidateEngine;
use crate::knapsack::{self, error_rate_scale, scale_weight, KnapsackItem, KnapsackState};
use crate::report::SelectedChange;
use crate::single::apply_ase;
use als_network::NodeId;
use als_telemetry::{Event, Telemetry};

/// Runs Algorithm 2's loop on `run`: one knapsack-selected batch of changes
/// per iteration.
pub(crate) fn select(run: &mut Run) {
    let scale = error_rate_scale(run.config.threshold);
    // Apparent rates only: no don't-care windows in the engine.
    let mut engine = CandidateEngine::new(&run.config, false);
    // `None` under `DelayWeight::Off`: knapsack values are then the plain
    // literal counts, byte-identical to the legacy path.
    let mut delay_scorer = DelayScorer::new(&run.current, run.config.delay_weight);

    'outer: while run.next_iteration() {
        // Static pruning budget: a candidate with apparent rate above
        // `(capacity + 0.5) / scale` scales-and-rounds to a knapsack weight
        // of at least `capacity + 1`, which no solution can pack — so
        // pruning on a sound lower bound above that budget cannot change
        // the solve (the capacity-halving retry below only shrinks the
        // capacity, keeping pruned candidates infeasible).
        let initial_capacity = scale_weight(run.margin().max(0.0), scale);
        engine.set_prune_budget((initial_capacity as f64 + 0.5) / scale); // lint:allow(as-cast): capacity ≤ scale = 1e4, exactly representable in f64

        // Collect the candidate items: every eligible node with its ASEs.
        engine.refresh_from_sim(&run.current, &run.sim, &run.ctx);
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut ase_store: Vec<Vec<Ase>> = Vec::new();
        let mut rate_store: Vec<Vec<f64>> = Vec::new();
        let mut bounds_store: Vec<Vec<(f64, f64)>> = Vec::new();
        let mut items: Vec<KnapsackItem> = Vec::new();
        for id in engine.node_ids() {
            let mut ases: Vec<Ase> = Vec::new();
            let mut rates: Vec<f64> = Vec::new();
            let mut bounds: Vec<(f64, f64)> = Vec::new();
            let mut states: Vec<KnapsackState> = Vec::new();
            for cand in engine.candidates(id) {
                // With delay scoring on, values are delay-adjusted gains in
                // 1/64-literal fixed point; the weights (error budget
                // accounting, Theorem 1) are never touched. The `Off` arm
                // is the legacy value, bit for bit.
                let value = match &delay_scorer {
                    None => cand.ase.literals_saved as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                    Some(sc) => {
                        (sc.adjusted_gain(&run.current, id, &cand.ase) * GAIN_SCALE).round() as u64
                        // lint:allow(as-cast): gains are small non-negative reals
                    }
                };
                states.push(KnapsackState {
                    weight: scale_weight(cand.apparent, scale),
                    value,
                });
                ases.push(cand.ase.clone());
                rates.push(cand.apparent);
                bounds.push((cand.static_lo, cand.static_hi));
            }
            if ases.is_empty() {
                continue;
            }
            nodes.push(id);
            ase_store.push(ases);
            rate_store.push(rates);
            bounds_store.push(bounds);
            items.push(KnapsackItem { states });
        }
        if items.is_empty() {
            break;
        }

        let mut capacity = initial_capacity;
        loop {
            let dp_mark = run.config.telemetry.start();
            let solution = knapsack::solve(&items, capacity, true);
            run.config.telemetry.emit(|| Event::KnapsackSolved {
                items: items.len() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                capacity,
                dp_cells: solution.dp_cells,
                nanos: Telemetry::nanos_since(dp_mark),
            });
            if solution.choices.iter().all(Option::is_none) {
                break 'outer;
            }

            // Apply the batch.
            let snapshot = run.current.clone();
            let mut changes = Vec::new();
            let mut batch: Vec<NodeId> = Vec::new();
            for ((idx, choice), id) in solution.choices.iter().enumerate().zip(&nodes) {
                let Some(state) = choice else { continue };
                let ase = &ase_store[idx][*state];
                let change = SelectedChange {
                    node_name: run.current.node(*id).name().to_string(),
                    ase: ase.expr.to_string(),
                    literals_saved: ase.literals_saved,
                    error_estimate: rate_store[idx][*state],
                    apparent: rate_store[idx][*state],
                };
                changes.push((change, Some(bounds_store[idx][*state])));
                apply_ase(&mut run.current, *id, ase);
                batch.push(*id);
            }
            // Resimulate and decide in one step, one undo span: the batch
            // nodes are resimulated *before* constant propagation (which
            // rewrites users of swept nodes multi-level deep without marking
            // them dirty), then the propagated structure — function-
            // preserving per surviving node — only needs liveness
            // reconciliation.
            let decision = run.ctx.update_and_accept(
                &mut run.sim,
                &mut run.current,
                &batch,
                true,
                &run.config,
            );
            debug_assert!(
                decision.is_none() || run.current.check().is_ok(),
                "network inconsistent after applying a multi-selection batch: {:?}",
                run.current.check()
            );

            let Some(new_error_rate) = decision else {
                run.current = snapshot;
                run.sim.rollback();
                // The knapsack weights do not model magnitudes, so under a
                // magnitude constraint a rejected batch is retried with half
                // the capacity until it fits. Otherwise an overshoot ends the
                // run, as in the paper.
                if run.config.magnitude.is_some() && capacity > 0 {
                    capacity /= 2;
                    continue;
                }
                break 'outer;
            };
            run.sim.commit();
            // Invalidate on the pre-change snapshot, where every batch node
            // is still live: constant-propagation cascades stay inside
            // TFO(batch), whose fanout edges the snapshot already has.
            engine.invalidate_committed(&snapshot, &batch);
            // Batches propagate constants (restructuring users multi-level
            // deep), so the delay map is rebuilt rather than cone-patched.
            if let Some(scorer) = delay_scorer.as_mut() {
                scorer.rebuild(&run.current);
            }
            run.commit(changes, new_error_rate);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{approximate, AlsConfig, Strategy};
    use als_logic::{Cover, Cube};
    use als_network::Network;
    use als_sim::{error_rate, PatternSet};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// Several independent rarely-true product terms feeding separate
    /// outputs — ideal for simultaneous multi-node shrinking.
    fn parallel_net() -> Network {
        let mut net = Network::new("parallel");
        let pis: Vec<_> = (0..12).map(|i| net.add_pi(format!("x{i}"))).collect();
        for o in 0..3 {
            let base = o * 4;
            let g = net.add_node(
                format!("g{o}"),
                pis[base..base + 4].to_vec(),
                Cover::from_cubes(4, [cube(&[(0, true), (1, true), (2, true), (3, true)])]),
            );
            net.add_po(format!("y{o}"), g);
        }
        net
    }

    #[test]
    fn selects_multiple_nodes_in_one_iteration() {
        let net = parallel_net();
        // Each constant-0 ASE has apparent rate 1/16 ≈ 0.0625; a 25% budget
        // affords all three at once.
        let out = approximate(&net, Strategy::Multi, &AlsConfig::with_threshold(0.25)).unwrap();
        assert!(out.measured_error_rate <= 0.25 + 1e-12);
        assert!(!out.iterations.is_empty());
        assert!(
            out.iterations[0].changes.len() >= 2,
            "knapsack should batch several changes, got {:?}",
            out.iterations[0].changes.len()
        );
        assert!(out.final_literals < out.initial_literals);
    }

    #[test]
    fn respects_threshold_on_true_function() {
        let net = parallel_net();
        let out = approximate(&net, Strategy::Multi, &AlsConfig::with_threshold(0.10)).unwrap();
        let p = PatternSet::exhaustive(12).unwrap();
        let true_er = error_rate(&net, &out.network, &p);
        assert!(
            true_er <= 0.13,
            "true error rate {true_er} too far over budget"
        );
    }

    #[test]
    fn zero_threshold_changes_nothing_without_redundancy() {
        let net = parallel_net();
        let out = approximate(&net, Strategy::Multi, &AlsConfig::with_threshold(0.0)).unwrap();
        assert_eq!(out.measured_error_rate, 0.0);
        assert_eq!(out.final_literals, out.initial_literals);
    }

    #[test]
    fn fewer_iterations_than_single_selection() {
        let net = parallel_net();
        let config = AlsConfig::with_threshold(0.25);
        let single = approximate(&net, Strategy::Single, &config).unwrap();
        let multi = approximate(&net, Strategy::Multi, &config).unwrap();
        assert!(
            multi.iterations.len() <= single.iterations.len(),
            "multi ({}) must not take more iterations than single ({})",
            multi.iterations.len(),
            single.iterations.len()
        );
    }

    #[test]
    fn magnitude_constraint_limits_deviation() {
        use crate::MagnitudeConstraint;
        use als_sim::magnitude_stats;
        // A 3-bit adder: with a generous rate budget but max_abs = 1, only
        // LSB-scale deviations may survive.
        let golden = als_circuits::ripple_carry_adder(3);
        let mut config = AlsConfig::with_threshold(0.40);
        config.patterns = 4096;
        config.magnitude = Some(MagnitudeConstraint { max_abs: 1 });
        let out = approximate(&golden, Strategy::Multi, &config).unwrap();
        let p = PatternSet::exhaustive(6).unwrap();
        let stats = magnitude_stats(&golden, &out.network, &p);
        assert!(
            stats.max_abs <= 1,
            "deviation {} exceeds bound",
            stats.max_abs
        );
        // Without the constraint the same budget allows larger deviations.
        config.magnitude = None;
        let free = approximate(&golden, Strategy::Multi, &config).unwrap();
        let free_stats = magnitude_stats(&golden, &free.network, &p);
        assert!(
            free_stats.max_abs >= stats.max_abs,
            "unconstrained run should deviate at least as much"
        );
    }
}
