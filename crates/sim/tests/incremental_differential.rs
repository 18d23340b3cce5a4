//! Differential verification of the incremental resimulation kernel.
//!
//! Property: after *every* `SimResult::update` and after *every*
//! `rollback`, the updated signatures are word-for-word identical to a
//! fresh full `simulate` of the same network. Networks and rewrite chains
//! are generated from the deterministic proptest RNG, so failures reproduce.
//!
//! Non-vacuity is asserted at the end of the chain property: across the
//! suite at least one early exit (a recomputed-but-identical frontier) and
//! at least one multi-level TFO propagation must have occurred, so the
//! property cannot silently degenerate into "nothing ever changed".
//!
//! Falsifiability of this check itself is proven by the seeded-mutant unit
//! test `sabotaged_kernel_is_caught_by_the_differential_check` inside
//! `src/simulator/incremental.rs` (the sabotage hook is `#[cfg(test)]`,
//! invisible here): a kernel that skips one TFO node fails the identical
//! comparison.

mod common;

use als_logic::{Cover, Cube, Expr};
use als_network::{Network, NodeId};
use als_sim::{simulate, PatternSet, SimResult};
use common::random_network;
use proptest::{seed_from_name, TestRng};

/// The differential check: every live node of `net` must have identical
/// words in the updated store and in a fresh simulation.
fn assert_matches_fresh(net: &Network, patterns: &PatternSet, sim: &SimResult, what: &str) {
    let fresh = simulate(net, patterns);
    for id in net.node_ids() {
        assert_eq!(
            sim.node_words(id),
            fresh.node_words(id),
            "{what}: node {id} diverged from fresh simulation"
        );
    }
}

/// Applies one random single-node rewrite and returns the dirty node, or
/// `None` if the network has no rewritable node left.
fn apply_random_rewrite(rng: &mut TestRng, net: &mut Network) -> Option<NodeId> {
    let internals: Vec<NodeId> = net.internal_ids().collect();
    if internals.is_empty() {
        return None;
    }
    let id = internals[rng.below(internals.len() as u64) as usize];
    let k = net.node(id).fanins().len();
    if k == 0 || rng.below(4) == 0 {
        net.replace_with_constant(id, rng.below(2) == 0);
    } else {
        let expr = random_expr(rng, k);
        net.replace_expr(id, expr);
    }
    Some(id)
}

fn random_expr(rng: &mut TestRng, k: usize) -> Expr {
    let v0 = rng.below(k as u64) as usize;
    let p0 = rng.below(2) == 0;
    if k == 1 || rng.below(3) == 0 {
        return Expr::lit(v0, p0);
    }
    let mut v1 = rng.below(k as u64) as usize;
    if v1 == v0 {
        v1 = (v1 + 1) % k;
    }
    let p1 = rng.below(2) == 0;
    if rng.below(2) == 0 {
        Expr::and(vec![Expr::lit(v0, p0), Expr::lit(v1, p1)])
    } else {
        Expr::or(vec![Expr::lit(v0, p0), Expr::lit(v1, p1)])
    }
}

/// The main chain property: random network, then a chain of random rewrites
/// with incremental updates, random rollbacks and occasional constant
/// propagation — the updated store must match a fresh simulation at every
/// observation point.
#[test]
fn incremental_matches_fresh_simulation_over_random_rewrite_chains() {
    let mut rng = TestRng::new(seed_from_name(
        "incremental_matches_fresh_simulation_over_random_rewrite_chains",
    ));
    let mut total_early_exits = 0u64;
    let mut total_multi_level = 0u64;
    for case in 0..48 {
        let mut net = random_network(&mut rng, case);
        let patterns = PatternSet::exhaustive(net.num_pis()).expect("≤ 4 PIs");
        let mut sim = simulate(&net, &patterns);
        assert_matches_fresh(&net, &patterns, &sim, "after construction");
        for _step in 0..5 {
            let snapshot = net.clone();
            // Sometimes a batch of two rewrites under one update, mirroring
            // the multi-selection engine; usually a single rewrite.
            let mut dirty = Vec::new();
            match apply_random_rewrite(&mut rng, &mut net) {
                Some(d) => dirty.push(d),
                None => break,
            }
            if rng.below(4) == 0 {
                if let Some(d) = apply_random_rewrite(&mut rng, &mut net) {
                    if !dirty.contains(&d) {
                        dirty.push(d);
                    }
                }
            }
            let delta = sim.update(&net, &dirty);
            total_early_exits += delta.skipped_early_exit;
            if delta.dirty == 1 && delta.resim_nodes >= 2 {
                total_multi_level += 1;
            }
            assert_matches_fresh(&net, &patterns, &sim, "after update");
            if rng.below(2) == 0 {
                sim.rollback();
                net = snapshot;
                assert_matches_fresh(&net, &patterns, &sim, "after rollback");
            } else {
                sim.commit();
                if rng.below(4) == 0 {
                    // Constant propagation rewrites surviving users
                    // function-preservingly and sweeps dead nodes: liveness
                    // reconciliation alone must keep the arena consistent.
                    net.propagate_constants();
                    sim.update(&net, &[]);
                    assert_matches_fresh(&net, &patterns, &sim, "after propagate_constants");
                    sim.commit();
                }
            }
        }
    }
    assert!(
        total_early_exits > 0,
        "vacuous suite: no early exit ever occurred"
    );
    assert!(
        total_multi_level > 0,
        "vacuous suite: no multi-level TFO propagation ever occurred"
    );
}

/// SASIMI-style trial: substitute a node by a freshly added inverter, then
/// run SASIMI's two-phase protocol (constant propagation, then an
/// empty-dirty update). This exercises arena growth (new slot), newly-live
/// resimulation, dead-slot reconciliation (the substituted node is swept)
/// and rollback across all of them at once.
#[test]
fn substitution_with_a_new_inverter_matches_fresh() {
    let mut rng = TestRng::new(seed_from_name(
        "substitution_with_a_new_inverter_matches_fresh",
    ));
    let mut exercised = 0u64;
    for case in 0..24 {
        let mut net = random_network(&mut rng, case);
        let patterns = PatternSet::exhaustive(net.num_pis()).expect("≤ 4 PIs");
        let mut sim = simulate(&net, &patterns);
        let internals: Vec<NodeId> = net.internal_ids().collect();
        // Pick a target with at least one fanout (so the dirty set is
        // non-empty) and a source outside its TFO (acyclicity).
        let fanouts = net.fanouts();
        let Some(&target) = internals.iter().find(|id| !fanouts[id.index()].is_empty()) else {
            continue;
        };
        let tfo = net.tfo_mask(target);
        let Some(source) = net.node_ids().find(|s| *s != target && !tfo[s.index()]) else {
            continue;
        };
        let snapshot = net.clone();
        let users = fanouts[target.index()].clone();
        let inv = net.add_node(
            "trial_inv",
            vec![source],
            Cover::from_cubes(
                1,
                [Cube::from_literals(&[(0, false)]).expect("one literal")],
            ),
        );
        net.substitute(target, inv);
        sim.update(&net, &users);
        assert_matches_fresh(&net, &patterns, &sim, "after substitution");
        net.propagate_constants();
        sim.update(&net, &[]);
        assert_matches_fresh(&net, &patterns, &sim, "after propagate_constants");
        sim.rollback();
        net = snapshot;
        assert_matches_fresh(&net, &patterns, &sim, "after substitution rollback");
        exercised += 1;
    }
    assert!(exercised > 0, "vacuous: no substitution trial ran");
}
