//! Incremental dirty-set resimulation of a [`SimResult`].
//!
//! Every accepted change in the paper's Algorithms 1/2 (and every SASIMI
//! substitution trial) alters only the transitive fanout of the rewritten
//! nodes, yet a fresh [`simulate`](crate::simulate) recomputes the whole
//! network. A run therefore keeps one [`SimResult`] alive across iterations
//! and, given the *dirty set* of nodes whose function changed,
//! [`SimResult::update`] resimulates only `TFO(dirty)` in topological order —
//! early-exiting any branch whose recomputed signature equals its cached one
//! (word-wise compare; the canonical-tail invariant makes plain `==` exact).
//! Every overwrite is undo-logged, so a rejected candidate costs
//! `O(|dirty cone|)` words to roll back.

use super::{eval_node_flat, SimResult};
use crate::lanes;
use als_network::{Network, NodeId};

/// One undone-able arena mutation: the slot's previous words and liveness.
#[derive(Clone, Debug)]
pub(super) struct UndoEntry {
    index: usize,
    was_live: bool,
    old_words: Vec<u64>,
}

/// Per-[`update`](SimResult::update) work counts, for telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateDelta {
    /// Distinct live internal nodes the caller marked dirty.
    pub dirty: u64,
    /// Nodes actually re-evaluated (cube evaluation executed).
    pub resim_nodes: u64,
    /// Nodes structurally inside `TFO(dirty)` that were *not* re-evaluated
    /// because every fanin's recomputed signature matched its cached one.
    pub skipped_early_exit: u64,
    /// Nodes a full (non-incremental) resimulation would have evaluated —
    /// every live non-PI node. `resim_nodes < full_equivalent` is the
    /// incremental saving.
    pub full_equivalent: u64,
    /// Signature words actually evaluated: `resim_nodes × words per
    /// signal`.
    pub words_simulated: u64,
}

impl SimResult {
    /// Escape hatch: when enabled, every `update` re-evaluates all live
    /// nodes (the pre-incremental behaviour) while keeping the same API,
    /// counters and rollback protocol. Results are bit-identical either way;
    /// this exists to *prove* that, and to isolate suspected incremental
    /// bugs in the field.
    pub fn set_full_resim(&mut self, on: bool) {
        self.full_resim = on;
    }

    /// Brings the signatures up to date with `net`, given the set of
    /// surviving nodes whose function changed since the previous
    /// `update` (or since [`simulate`](crate::simulate)).
    ///
    /// **Dirty-set contract.** Between two `update` calls the caller may
    /// mutate the network arbitrarily as long as `dirty` lists every
    /// *surviving* node whose cover or fanin list changed. Nodes that died
    /// are found by liveness reconciliation, and nodes that appeared are
    /// resimulated because their slot is not live yet; neither needs to be
    /// listed. Primary inputs never change (the stimulus is frozen at
    /// simulation).
    ///
    /// Walks the network once in topological order; a node is re-evaluated
    /// iff it is dirty, newly live, or some fanin's signature actually
    /// changed. A re-evaluated node whose fresh signature equals its cached
    /// one stops the propagation along that branch (the early exit).
    ///
    /// **Rollback protocol.** Every slot overwrite (and liveness
    /// transition) is recorded in an undo log that spans stacked updates.
    /// A rejected candidate calls [`rollback`](Self::rollback), restoring
    /// the store as of the last [`commit`](Self::commit); an accepted one
    /// calls `commit`, which merely clears the log.
    ///
    /// # Panics
    ///
    /// Panics if `net` gained primary inputs since simulation (the frozen
    /// stimulus cannot drive them).
    pub fn update(&mut self, net: &Network, dirty: &[NodeId]) -> UpdateDelta {
        let wps = self.words_per_signal;
        let arena = net.node_ids().map(NodeId::index).max().map_or(0, |m| m + 1);
        if arena > self.live.len() {
            self.live.resize(arena, false);
            self.words.resize(arena * wps, 0);
        }

        // Liveness reconciliation: slots of nodes swept since the last
        // update become tombstones (undo-logged, so rollback resurrects
        // them).
        let mut now_live = vec![false; self.live.len()];
        for id in net.node_ids() {
            now_live[id.index()] = true;
        }
        for (i, slot_live) in self.live.iter_mut().enumerate() {
            if *slot_live && !now_live[i] {
                self.undo.push(UndoEntry {
                    index: i,
                    was_live: true,
                    old_words: self.words[i * wps..(i + 1) * wps].to_vec(),
                });
                *slot_live = false;
            }
        }

        let mut dirty_flag = vec![false; self.live.len()];
        let mut delta = UpdateDelta::default();
        for d in dirty {
            let i = d.index();
            if now_live[i] && !net.node(*d).is_pi() && !dirty_flag[i] {
                dirty_flag[i] = true;
                delta.dirty += 1;
            }
        }

        let words_per_node = wps as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
        let mut changed = vec![false; self.live.len()];
        let mut in_tfo = vec![false; self.live.len()];
        let mut fresh = vec![0u64; wps];
        for id in net.topo_order() {
            let i = id.index();
            let node = net.node(id);
            if node.is_pi() {
                assert!(
                    self.live[i],
                    "PI {id} has no frozen stimulus; the pattern set predates it"
                );
                continue;
            }
            delta.full_equivalent += 1;
            let newly_live = !self.live[i];
            let fanin_changed = node.fanins().iter().any(|f| changed[f.index()]);
            let structurally_in_tfo =
                dirty_flag[i] || node.fanins().iter().any(|f| in_tfo[f.index()]);
            in_tfo[i] = structurally_in_tfo;
            let recompute = self.full_resim || newly_live || dirty_flag[i] || fanin_changed;
            if !recompute {
                if structurally_in_tfo {
                    delta.skipped_early_exit += 1;
                }
                continue;
            }
            #[cfg(test)]
            {
                self.recompute_counter += 1;
                if !newly_live && self.sabotage_skip_nth == Some(self.recompute_counter) {
                    // Fault injection: silently keep the stale signature.
                    continue;
                }
            }
            eval_node_flat(net, id, &self.words, wps, self.tail_mask, &mut fresh);
            delta.resim_nodes += 1;
            delta.words_simulated += words_per_node;
            let base = i * wps;
            if newly_live {
                self.undo.push(UndoEntry {
                    index: i,
                    was_live: false,
                    old_words: self.words[base..base + wps].to_vec(),
                });
                self.words[base..base + wps].copy_from_slice(&fresh);
                self.live[i] = true;
                changed[i] = true;
            } else if lanes::words_differ(&self.words[base..base + wps], &fresh) {
                self.undo.push(UndoEntry {
                    index: i,
                    was_live: true,
                    old_words: self.words[base..base + wps].to_vec(),
                });
                self.words[base..base + wps].copy_from_slice(&fresh);
                changed[i] = true;
            }
            // Recomputed-but-identical: downstream fanouts early-exit.
        }
        delta
    }

    /// Restores the arena to its state at the last [`commit`](Self::commit)
    /// (or simulation), discarding every update since. `O(|dirty cone|)`
    /// words.
    pub fn rollback(&mut self) {
        let wps = self.words_per_signal;
        while let Some(e) = self.undo.pop() {
            let base = e.index * wps;
            self.words[base..base + wps].copy_from_slice(&e.old_words);
            self.live[e.index] = e.was_live;
        }
    }

    /// Accepts every update since the last commit: the undo log is cleared,
    /// making the current arena the new rollback point.
    pub fn commit(&mut self) {
        self.undo.clear();
    }

    /// Arms the test-only fault injection: the `nth` recomputation (1-based,
    /// counted across updates) of an already-live node is silently skipped.
    #[cfg(test)]
    fn sabotage_skip_nth_recompute(&mut self, nth: u64) {
        self.sabotage_skip_nth = Some(nth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, PatternSet};
    use als_logic::{Cover, Cube, Expr};
    use als_network::Network;

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// A 3-level chain: y2 = (a·b) ⊕ c feeding y3 = y2 + d, so a rewrite at
    /// g1 propagates two levels.
    fn chain_net() -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new("chain");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let d = net.add_pi("d");
        let g1 = net.add_node(
            "g1",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let g2 = net.add_node(
            "g2",
            vec![g1, c],
            Cover::from_cubes(
                2,
                [
                    cube(&[(0, true), (1, false)]),
                    cube(&[(0, false), (1, true)]),
                ],
            ),
        );
        let g3 = net.add_node(
            "g3",
            vec![g2, d],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        net.add_po("g3", g3);
        (net, g1, g2, g3)
    }

    /// The differential check: every live node's updated signature must
    /// equal a fresh full simulation, word for word.
    fn assert_matches_fresh(net: &Network, patterns: &PatternSet, sim: &SimResult) {
        let fresh = simulate(net, patterns);
        for id in net.node_ids() {
            assert_eq!(
                sim.node_words(id),
                fresh.node_words(id),
                "node {id} diverged from fresh simulation"
            );
        }
    }

    #[test]
    fn update_propagates_through_the_tfo() {
        let (mut net, g1, _g2, _g3) = chain_net();
        let patterns = PatternSet::exhaustive(4).unwrap();
        let mut sim = simulate(&net, &patterns);
        assert_matches_fresh(&net, &patterns, &sim);
        // Rewrite g1: AND -> OR. Both levels above must refresh.
        net.replace_expr(g1, Expr::or(vec![Expr::lit(0, true), Expr::lit(1, true)]));
        let d = sim.update(&net, &[g1]);
        assert_matches_fresh(&net, &patterns, &sim);
        assert!(d.resim_nodes >= 2, "g1 and g2 must re-evaluate: {d:?}");
        assert!(d.full_equivalent >= d.resim_nodes);
    }

    #[test]
    fn rollback_restores_the_previous_arena() {
        let (mut net, g1, _g2, g3) = chain_net();
        let patterns = PatternSet::exhaustive(4).unwrap();
        let mut sim = simulate(&net, &patterns);
        let before: Vec<u64> = sim.node_words(g3).to_vec();
        let snapshot = net.clone();
        net.replace_with_constant(g1, true);
        sim.update(&net, &[g1]);
        assert_matches_fresh(&net, &patterns, &sim);
        sim.rollback();
        assert_eq!(sim.node_words(g3), &before[..]);
        assert_matches_fresh(&snapshot, &patterns, &sim);
    }

    #[test]
    fn early_exit_stops_propagation_of_equal_signatures() {
        let (mut net, g1, _g2, _g3) = chain_net();
        let patterns = PatternSet::exhaustive(4).unwrap();
        let mut sim = simulate(&net, &patterns);
        // Semantically identical rewrite of g1 (a·b with literals swapped):
        // g1 re-evaluates, its signature is unchanged, g2/g3 early-exit.
        net.replace_expr(g1, Expr::and(vec![Expr::lit(1, true), Expr::lit(0, true)]));
        let d = sim.update(&net, &[g1]);
        assert_eq!(d.resim_nodes, 1, "only g1 re-evaluates: {d:?}");
        assert!(d.skipped_early_exit >= 2, "g2+g3 early-exit: {d:?}");
        assert_matches_fresh(&net, &patterns, &sim);
    }

    #[test]
    fn full_resim_mode_recomputes_everything_and_agrees() {
        let (mut net, g1, _g2, _g3) = chain_net();
        let patterns = PatternSet::exhaustive(4).unwrap();
        let mut sim = simulate(&net, &patterns);
        sim.set_full_resim(true);
        net.replace_expr(g1, Expr::or(vec![Expr::lit(0, true), Expr::lit(1, false)]));
        let d = sim.update(&net, &[g1]);
        assert_eq!(d.resim_nodes, d.full_equivalent, "no node may be skipped");
        assert_matches_fresh(&net, &patterns, &sim);
    }

    #[test]
    fn dead_nodes_are_reconciled_and_resurrected_by_rollback() {
        let (mut net, g1, g2, _g3) = chain_net();
        let patterns = PatternSet::exhaustive(4).unwrap();
        let mut sim = simulate(&net, &patterns);
        let snapshot = net.clone();
        net.replace_with_constant(g1, false);
        let swept = net.propagate_constants();
        assert!(swept > 0, "constant propagation must sweep g1");
        sim.update(&net, &[g2]);
        assert_matches_fresh(&net, &patterns, &sim);
        sim.rollback();
        assert_matches_fresh(&snapshot, &patterns, &sim);
        let fresh = simulate(&snapshot, &patterns);
        assert_eq!(sim.node_words(g1), fresh.node_words(g1));
    }

    #[test]
    fn sabotaged_kernel_is_caught_by_the_differential_check() {
        let (mut net, g1, _g2, _g3) = chain_net();
        let patterns = PatternSet::exhaustive(4).unwrap();
        let mut sim = simulate(&net, &patterns);
        // Skip the 2nd recomputation: g1 refreshes, g2 keeps a stale
        // signature even though its fanin changed.
        sim.sabotage_skip_nth_recompute(2);
        net.replace_expr(g1, Expr::or(vec![Expr::lit(0, true), Expr::lit(1, true)]));
        sim.update(&net, &[g1]);
        let fresh = simulate(&net, &patterns);
        let diverged = net
            .node_ids()
            .any(|id| sim.node_words(id) != fresh.node_words(id));
        assert!(
            diverged,
            "the differential check must detect the sabotaged TFO skip"
        );
    }
}
