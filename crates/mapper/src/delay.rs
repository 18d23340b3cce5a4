//! Incremental critical-path delay estimation over the *logic* network.
//!
//! [`map_network`](crate::map_network) prices a finished network exactly by
//! building the gate netlist; that is the number the sweep reports. During
//! synthesis, however, a delay-aware candidate scorer needs thousands of
//! cheap "what would the critical path look like if this node's function
//! became X?" queries against a network that mutates every iteration.
//! [`DelayMap`] answers those without re-mapping:
//!
//! * each node gets a **local delay estimate** — the delay of the cell (or
//!   balanced AND/OR cell tree) the mapper would instantiate for its
//!   factored form, mirroring the Boolean-matching and decomposition rules
//!   of [`map_network`](crate::map_network) but skipping gate emission;
//! * a forward pass computes per-node **arrival times**, a backward pass
//!   per-node **required paths** (the worst downstream delay from the
//!   node's output to any primary output), so the longest path *through*
//!   node `v` is `arrival(v) + required(v)`;
//! * [`DelayMap::query_delta`] prices a substitution as the change of the
//!   critical path if only `v`'s local delay changed, and
//!   [`DelayMap::update_cone`] refreshes the map after a committed change
//!   by re-propagating arrivals through the transitive fanout only, with
//!   early exit where arrivals are unchanged.
//!
//! The estimate is deliberately *local*: it prices the rewritten node's own
//! cell tree and assumes the rest of the mapping is stable (shared-inverter
//! reuse and cross-node matching can shift neighbouring cells in a real
//! re-map). It is a scoring heuristic for steering the search, not a timing
//! sign-off — consumers must re-map the final network for reported delays.

use crate::library::Library;
use crate::map::permutations;
use als_logic::{Expr, TruthTable};
use als_network::{Network, NodeId};

/// Tolerance for "is this path critical" float comparisons.
const EPS: f64 = 1e-9;

/// Per-node arrival/required delay bookkeeping over a logic network; the
/// module-level comment above describes the model.
#[derive(Clone, Debug)]
pub struct DelayMap {
    /// Local cell-tree delay estimate per arena slot (0 for PIs and dead
    /// slots).
    local: Vec<f64>,
    /// Worst input-to-node-output delay per arena slot.
    arrival: Vec<f64>,
    /// Worst node-output-to-PO delay per arena slot (excluding the node's
    /// own local delay).
    required: Vec<f64>,
    /// Worst arrival over the primary outputs.
    critical: f64,
}

impl DelayMap {
    /// Builds the map from scratch: local estimates for every live node,
    /// then full forward and backward passes.
    #[must_use]
    pub fn build(net: &Network, lib: &Library) -> Self {
        let len = net.arena_len();
        let mut map = DelayMap {
            local: vec![0.0; len],
            arrival: vec![0.0; len],
            required: vec![0.0; len],
            critical: 0.0,
        };
        for id in net.topo_order() {
            let node = net.node(id);
            if !node.is_pi() {
                map.local[id.index()] = expr_delay(lib, node.expr(), node.fanins().len());
            }
        }
        map.forward_full(net);
        map.backward(net);
        map
    }

    /// Refreshes the map after `changed` nodes were rewritten in place
    /// (their expressions replaced; the arena itself not restructured).
    /// Arrivals re-propagate through the transitive fanout only, stopping
    /// early wherever a recomputed arrival is unchanged; the backward pass
    /// is then rerun in full (it is a single linear sweep).
    pub fn update_cone(&mut self, net: &Network, lib: &Library, changed: &[NodeId]) {
        let len = net.arena_len();
        if len > self.local.len() {
            self.local.resize(len, 0.0);
            self.arrival.resize(len, 0.0);
            self.required.resize(len, 0.0);
        }
        let mut dirty = vec![false; self.local.len()];
        for &id in changed {
            let node = net.node(id);
            self.local[id.index()] = if node.is_pi() {
                0.0
            } else {
                expr_delay(lib, node.expr(), node.fanins().len())
            };
            dirty[id.index()] = true;
        }
        for id in net.topo_order() {
            let idx = id.index();
            let node = net.node(id);
            let affected = dirty[idx] || node.fanins().iter().any(|f| dirty[f.index()]);
            if !affected {
                continue;
            }
            let worst = node
                .fanins()
                .iter()
                .map(|f| self.arrival[f.index()])
                .fold(0.0, f64::max);
            let arrival = worst + self.local[idx];
            if (arrival - self.arrival[idx]).abs() <= EPS && !dirty[idx] {
                continue; // arrival unchanged: the fanout cone is unaffected
            }
            self.arrival[idx] = arrival;
            dirty[idx] = true;
        }
        self.backward(net);
    }

    fn forward_full(&mut self, net: &Network) {
        for id in net.topo_order() {
            let worst = net
                .node(id)
                .fanins()
                .iter()
                .map(|f| self.arrival[f.index()])
                .fold(0.0, f64::max);
            self.arrival[id.index()] = worst + self.local[id.index()];
        }
    }

    fn backward(&mut self, net: &Network) {
        let fanouts = net.fanouts();
        for slot in &mut self.required {
            *slot = 0.0;
        }
        let order = net.topo_order();
        for &id in order.iter().rev() {
            self.required[id.index()] = fanouts[id.index()]
                .iter()
                .map(|fo| self.required[fo.index()] + self.local[fo.index()])
                .fold(0.0, f64::max);
        }
        self.critical = net
            .pos()
            .iter()
            .map(|(_, driver)| self.arrival[driver.index()])
            .fold(0.0, f64::max);
    }

    /// The estimated critical-path delay of the whole network.
    #[must_use]
    pub fn critical(&self) -> f64 {
        self.critical
    }

    /// The local cell-tree delay estimate of one node.
    #[must_use]
    pub fn local(&self, id: NodeId) -> f64 {
        self.local[id.index()]
    }

    /// The worst input-to-output arrival time at one node.
    #[must_use]
    pub fn arrival(&self, id: NodeId) -> f64 {
        self.arrival[id.index()]
    }

    /// How close the longest path through this node comes to the critical
    /// path, in `[0, 1]` (1 = the node lies on the critical path).
    #[must_use]
    pub fn criticality(&self, id: NodeId) -> f64 {
        if self.critical <= 0.0 {
            return 0.0;
        }
        ((self.arrival[id.index()] + self.required[id.index()]) / self.critical).clamp(0.0, 1.0)
    }

    /// Estimated change of the critical path if only this node's local
    /// delay became `new_local`: positive when the rewritten path would
    /// exceed today's critical path, negative when the node is *on* the
    /// critical path and the substitution shortens it (an optimistic bound
    /// — a parallel path may cap the real gain), and exactly `0.0` when an
    /// off-critical node stays under the critical path (including the
    /// no-change query `query_delta(v, local(v))`, for every node).
    #[must_use]
    pub fn query_delta(&self, id: NodeId, new_local: f64) -> f64 {
        let idx = id.index();
        let through = self.arrival[idx] + self.required[idx];
        let new_through = through - self.local[idx] + new_local;
        let delta = new_through - self.critical;
        if through >= self.critical - EPS {
            delta
        } else {
            delta.max(0.0)
        }
    }
}

/// The delay of the cell (or balanced AND/OR cell tree) the mapper would
/// instantiate for `expr` over `num_vars` fanin variables: Boolean-matched
/// single cells for arity ≤ 4 (cheapest by area, matching
/// [`map_network`](crate::map_network)'s tie-break, inverter added for a
/// phase match), otherwise the factored form's decomposition tree.
/// Constants cost `0.0`.
#[must_use]
pub fn expr_delay(lib: &Library, expr: &Expr, num_vars: usize) -> f64 {
    if expr.as_constant().is_some() {
        return 0.0;
    }
    if (1..=4).contains(&num_vars) {
        let tt = expr.to_truth_table(num_vars);
        if let Some(delay) = match_delay(lib, &tt, num_vars) {
            return delay;
        }
    }
    tree_delay(lib, expr)
}

/// The delay of the cheapest-by-area single-cell Boolean match (input
/// permutations, free output phase) — the same selection rule as the
/// mapper's direct matching, so the estimate prices the cell the mapper
/// would pick.
fn match_delay(lib: &Library, tt: &TruthTable, k: usize) -> Option<f64> {
    let inv = lib.cell("inv")?;
    let perms = permutations(k);
    let ntt = !tt;
    let mut best: Option<(f64, f64)> = None; // (area cost, delay)
    for cell in lib.cells() {
        if cell.arity != k {
            continue;
        }
        for perm in &perms {
            let permuted = tt.remap(k, perm).expect("arity bounded by 4"); // lint:allow(panic): internal invariant; the message states it
            let (matches, inv_out) = if permuted == cell.function {
                (true, false)
            } else if ntt.remap(k, perm).expect("arity bounded by 4") == cell.function {
                // lint:allow(panic): internal invariant; the message states it
                (true, true)
            } else {
                (false, false)
            };
            if !matches {
                continue;
            }
            let cost = cell.area + if inv_out { inv.area } else { 0.0 };
            let delay = cell.delay + if inv_out { inv.delay } else { 0.0 };
            if best.is_none_or(|b| cost < b.0) {
                best = Some((cost, delay));
            }
        }
    }
    best.map(|b| b.1)
}

/// Delay of the factored form's AND/OR decomposition tree, mirroring the
/// mapper's widest-gate-first reduction.
fn tree_delay(lib: &Library, expr: &Expr) -> f64 {
    match expr {
        Expr::Const(_) => 0.0,
        Expr::Lit { phase, .. } => {
            if *phase {
                0.0
            } else {
                lib.cell("inv").map_or(1.0, |c| c.delay)
            }
        }
        Expr::And(children) => reduce_delay(
            lib,
            children.iter().map(|c| tree_delay(lib, c)).collect(),
            true,
        ),
        Expr::Or(children) => reduce_delay(
            lib,
            children.iter().map(|c| tree_delay(lib, c)).collect(),
            false,
        ),
    }
}

/// Delay of the balanced reduction tree the mapper builds for an N-ary
/// AND/OR: repeatedly combine up to four operands with the widest gate.
fn reduce_delay(lib: &Library, mut delays: Vec<f64>, is_and: bool) -> f64 {
    let names: [&str; 3] = if is_and {
        ["and2", "and3", "and4"]
    } else {
        ["or2", "or3", "or4"]
    };
    while delays.len() > 1 {
        let take = delays.len().min(4);
        let gate = lib.cell(names[take - 2]).map_or(1.0, |c| c.delay);
        let worst = delays.drain(..take).fold(0.0, f64::max);
        delays.push(worst + gate);
    }
    delays.first().copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_network;
    use als_circuits::adders::ripple_carry_adder;

    #[test]
    fn critical_is_positive_and_grows_with_depth() {
        let lib = Library::mcnc_like();
        let shallow = DelayMap::build(&ripple_carry_adder(2), &lib);
        let deep = DelayMap::build(&ripple_carry_adder(16), &lib);
        assert!(shallow.critical() > 0.0);
        assert!(deep.critical() > shallow.critical());
    }

    #[test]
    fn estimate_tracks_the_real_mapped_delay() {
        // Same library, same decomposition rules: the estimate must land in
        // the same ballpark as the exact mapped delay (shared inverters and
        // cross-node matching cause bounded divergence, not runaway).
        let lib = Library::mcnc_like();
        let net = ripple_carry_adder(8);
        let est = DelayMap::build(&net, &lib).critical();
        let real = map_network(&net, &lib).delay();
        assert!(
            est > 0.5 * real && est < 2.0 * real,
            "est {est} real {real}"
        );
    }

    #[test]
    fn criticality_is_a_unit_interval_and_some_node_is_critical() {
        let lib = Library::mcnc_like();
        let net = ripple_carry_adder(4);
        let map = DelayMap::build(&net, &lib);
        let mut worst = 0.0f64;
        for id in net.node_ids() {
            let c = map.criticality(id);
            assert!((0.0..=1.0).contains(&c), "criticality {c} out of range");
            worst = worst.max(c);
        }
        assert!(worst >= 1.0 - 1e-12, "no node lies on the critical path");
    }

    #[test]
    fn no_change_query_is_zero_for_every_node() {
        let lib = Library::mcnc_like();
        let net = ripple_carry_adder(4);
        let map = DelayMap::build(&net, &lib);
        for id in net.node_ids() {
            let delta = map.query_delta(id, map.local(id));
            assert!(delta.abs() <= 1e-9, "node {id:?}: no-op delta {delta}");
        }
    }

    #[test]
    fn shrinking_a_node_never_reports_a_slowdown() {
        let lib = Library::mcnc_like();
        let net = ripple_carry_adder(4);
        let map = DelayMap::build(&net, &lib);
        for id in net.internal_ids() {
            let delta = map.query_delta(id, 0.0);
            assert!(delta <= 1e-9, "constant substitution slowed node {id:?}");
        }
    }

    #[test]
    fn update_cone_matches_a_fresh_build() {
        let lib = Library::mcnc_like();
        let mut net = ripple_carry_adder(6);
        let mut map = DelayMap::build(&net, &lib);
        // Rewrite a mid-network node to a constant and refresh incrementally.
        let victims: Vec<_> = net.internal_ids().collect();
        for &victim in &[victims[victims.len() / 2], victims[victims.len() - 1]] {
            net.replace_with_constant(victim, false);
            map.update_cone(&net, &lib, &[victim]);
            let fresh = DelayMap::build(&net, &lib);
            assert!(
                (map.critical() - fresh.critical()).abs() <= 1e-9,
                "critical diverged: {} vs {}",
                map.critical(),
                fresh.critical()
            );
            for id in net.node_ids() {
                assert!(
                    (map.arrival(id) - fresh.arrival(id)).abs() <= 1e-9,
                    "arrival diverged at {id:?}"
                );
            }
        }
    }

    #[test]
    fn expr_delay_prices_cells_and_trees() {
        let lib = Library::mcnc_like();
        // A bare positive literal Boolean-matches the buffer cell (the
        // mapper emits one too when a node is a single literal).
        let buf = lib.cell("buf").unwrap().delay;
        assert_eq!(expr_delay(&lib, &Expr::lit(0, true), 1), buf);
        // Constants are free.
        assert_eq!(expr_delay(&lib, &Expr::TRUE, 3), 0.0);
        // A 2-input AND Boolean-matches nand2 + inv (area ties with and2;
        // the first match wins, exactly as in `map_network`).
        let and2 = Expr::and(vec![Expr::lit(0, true), Expr::lit(1, true)]);
        let nand_inv = lib.cell("nand2").unwrap().delay + lib.cell("inv").unwrap().delay;
        assert_eq!(expr_delay(&lib, &and2, 2), nand_inv);
        // A wide conjunction decomposes into a tree deeper than one cell.
        let wide = Expr::and((0..8).map(|v| Expr::lit(v, true)).collect());
        assert!(expr_delay(&lib, &wide, 8) > lib.cell("and4").unwrap().delay);
    }
}
