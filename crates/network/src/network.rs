use crate::{NetworkError, Node, NodeId, NodeKind};
use als_logic::factor::factor_cover;
use als_logic::isop::isop_exact;
use als_logic::{Cover, Expr, TruthTable};
use std::collections::HashMap;

/// A multi-level combinational Boolean network.
///
/// Nodes live in an arena addressed by [`NodeId`]; removing a node leaves a
/// tombstone so ids stay stable. Primary outputs are named references to
/// driver nodes. See the [crate-level documentation](crate) for an example.
#[derive(Clone, Debug)]
pub struct Network {
    name: String,
    nodes: Vec<Option<Node>>,
    pis: Vec<NodeId>,
    pos: Vec<(String, NodeId)>,
}

/// Summary statistics of a network, as reported in the paper's Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct NetworkStats {
    /// Number of primary inputs.
    pub num_pis: usize,
    /// Number of primary outputs.
    pub num_pos: usize,
    /// Number of live internal nodes.
    pub num_nodes: usize,
    /// Total factored-form literal count (technology-independent area).
    pub literals: usize,
    /// Logic depth (levels of internal nodes on the longest PI→PO path).
    pub depth: usize,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            pis: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node arena overflow")); // lint:allow(panic): size bounded far below the overflow point
        self.nodes.push(Some(node));
        id
    }

    /// Adds a primary input and returns its id.
    pub fn add_pi(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.alloc(Node {
            name: name.into(),
            kind: NodeKind::Pi,
            fanins: Vec::new(),
            cover: Cover::new(0),
            expr: Expr::FALSE,
        });
        self.pis.push(id);
        id
    }

    /// Adds an internal node computing `cover` over `fanins`; the factored
    /// form is derived by algebraic factoring.
    ///
    /// # Panics
    ///
    /// Panics if the cover's variable count differs from the fanin count, a
    /// fanin id is invalid, or a fanin repeats.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        fanins: Vec<NodeId>,
        cover: Cover,
    ) -> NodeId {
        let expr = factor_cover(&cover);
        self.add_node_with_expr(name, fanins, cover, expr)
    }

    /// Adds an internal node with both representations supplied.
    ///
    /// # Panics
    ///
    /// Panics if the representations disagree in variable count with the
    /// fanin list, a fanin id is invalid, or a fanin repeats. Functional
    /// agreement between `cover` and `expr` is checked in debug builds.
    pub fn add_node_with_expr(
        &mut self,
        name: impl Into<String>,
        fanins: Vec<NodeId>,
        cover: Cover,
        expr: Expr,
    ) -> NodeId {
        assert_eq!(
            cover.num_vars(),
            fanins.len(),
            "cover variable count must match fanin count"
        );
        for (i, &f) in fanins.iter().enumerate() {
            assert!(self.is_live(f), "fanin {f} is not a live node");
            assert!(!fanins[..i].contains(&f), "fanin {f} repeats");
        }
        debug_assert_eq!(
            expr.to_truth_table(fanins.len()),
            cover.to_truth_table(),
            "cover and factored form must agree"
        );
        self.alloc(Node {
            name: name.into(),
            kind: NodeKind::Internal,
            fanins,
            cover,
            expr,
        })
    }

    /// Adds an internal node computing a constant.
    pub fn add_constant(&mut self, name: impl Into<String>, value: bool) -> NodeId {
        let cover = if value {
            Cover::constant_one(0)
        } else {
            Cover::constant_zero(0)
        };
        self.alloc(Node {
            name: name.into(),
            kind: NodeKind::Internal,
            fanins: Vec::new(),
            cover,
            expr: Expr::Const(value),
        })
    }

    /// Declares a primary output `name` driven by `driver`.
    ///
    /// # Panics
    ///
    /// Panics if `driver` is not a live node.
    pub fn add_po(&mut self, name: impl Into<String>, driver: NodeId) {
        assert!(self.is_live(driver), "po driver {driver} is not live");
        self.pos.push((name.into(), driver));
    }

    /// Whether `id` refers to a live (not removed) node.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(Option::is_some)
    }

    /// The node behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is invalid; use [`Network::try_node`] for a fallible
    /// variant.
    pub fn node(&self, id: NodeId) -> &Node {
        self.try_node(id).expect("invalid node id") // lint:allow(panic): documented panic contract; the `try_` twin is the fallible entry
    }

    /// The node behind `id`, if live.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InvalidNode`] for removed or unknown ids.
    pub fn try_node(&self, id: NodeId) -> Result<&Node, NetworkError> {
        self.nodes
            .get(id.index())
            .and_then(Option::as_ref)
            .ok_or(NetworkError::InvalidNode { node: id })
    }

    /// The number of arena slots, dead ones included: every
    /// `id.index()` is below it, so per-node tables indexed by arena
    /// position have this length (the length of [`Network::fanouts`]).
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over all live node ids in arena order (PIs included).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| NodeId(i as u32))) // lint:allow(as-cast): arena size < 2^32 (NodeId is u32)
    }

    /// Iterates over live internal (non-PI) node ids in arena order.
    pub fn internal_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| {
            n.as_ref()
                .filter(|n| n.kind == NodeKind::Internal)
                .map(|_| NodeId(i as u32)) // lint:allow(as-cast): arena size < 2^32 (NodeId is u32)
        })
    }

    /// The primary inputs in declaration order.
    pub fn pis(&self) -> &[NodeId] {
        &self.pis
    }

    /// The primary outputs as `(name, driver)` pairs in declaration order.
    pub fn pos(&self) -> &[(String, NodeId)] {
        &self.pos
    }

    /// Number of primary inputs.
    pub fn num_pis(&self) -> usize {
        self.pis.len()
    }

    /// Number of primary outputs.
    pub fn num_pos(&self) -> usize {
        self.pos.len()
    }

    /// Number of live internal nodes.
    pub fn num_internal(&self) -> usize {
        self.internal_ids().count()
    }

    /// Redirects primary output `index` to a new driver.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or the driver is not live.
    pub fn set_po_driver(&mut self, index: usize, driver: NodeId) {
        assert!(self.is_live(driver), "po driver {driver} is not live");
        self.pos[index].1 = driver;
    }

    /// Total factored-form literal count over all internal nodes — the
    /// technology-independent area metric of the paper.
    pub fn literal_count(&self) -> usize {
        self.node_ids()
            .map(|id| self.node(id).literal_count())
            .sum()
    }

    /// Replaces the factored-form expression of `id`, recomputing the SOP
    /// form and pruning fanins the new expression no longer mentions.
    ///
    /// This is the operation at the heart of the ALS algorithms: an ASE
    /// replaces the original factored form, and the node shrinks.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live internal node or `expr` mentions a
    /// variable outside the current fanin list.
    // Takes the expression by value deliberately: it conceptually becomes
    // the node's function, and every caller hands one off.
    #[allow(clippy::needless_pass_by_value)]
    pub fn replace_expr(&mut self, id: NodeId, expr: Expr) {
        let node = self.node(id);
        assert_eq!(node.kind, NodeKind::Internal, "cannot rewrite a PI");
        let old_fanins = node.fanins.clone();
        let support = expr.support_mask();
        assert!(
            old_fanins.len() >= 64 || support >> old_fanins.len() == 0,
            "expression mentions variables outside the fanin list"
        );
        // Keep only mentioned fanins; remap variables to the packed order.
        let mut map = vec![usize::MAX; old_fanins.len()];
        let mut new_fanins = Vec::new();
        for (i, &f) in old_fanins.iter().enumerate() {
            if support >> i & 1 == 1 {
                map[i] = new_fanins.len();
                new_fanins.push(f);
            }
        }
        let packed = expr.remap(&map);
        let cover = packed.to_cover(new_fanins.len());
        let node = self.nodes[id.index()].as_mut().expect("checked live"); // lint:allow(panic): internal invariant; the message states it
        node.fanins = new_fanins;
        node.cover = cover;
        node.expr = packed;
    }

    /// Replaces node `id` with a constant function (the `n = 0` / `n = 1`
    /// ASEs of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live internal node.
    pub fn replace_with_constant(&mut self, id: NodeId, value: bool) {
        let node = self.nodes[id.index()].as_mut().expect("invalid node id"); // lint:allow(panic): internal invariant; the message states it
        assert_eq!(node.kind, NodeKind::Internal, "cannot rewrite a PI");
        node.fanins.clear();
        node.cover = if value {
            Cover::constant_one(0)
        } else {
            Cover::constant_zero(0)
        };
        node.expr = Expr::Const(value);
    }

    /// Computes, for every node, the list of nodes that use it as a fanin.
    /// Indexed by arena position; tombstones yield empty lists.
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for id in self.node_ids() {
            for &f in &self.node(id).fanins {
                out[f.index()].push(id);
            }
        }
        out
    }

    /// A topological order over all live nodes (PIs first, then internal
    /// nodes, fanins always before fanouts).
    ///
    /// # Panics
    ///
    /// Panics if the network contains a combinational cycle (construction
    /// normally prevents this; [`Network::check`] reports it as an error).
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut state = vec![0u8; self.nodes.len()]; // 0 unseen, 1 active, 2 done
        let mut stack: Vec<(NodeId, usize)> = Vec::new();
        for root in self.node_ids() {
            if state[root.index()] == 2 {
                continue;
            }
            stack.push((root, 0));
            state[root.index()] = 1;
            while let Some(&mut (id, ref mut next)) = stack.last_mut() {
                let fanins = &self.node(id).fanins;
                if *next < fanins.len() {
                    let f = fanins[*next];
                    *next += 1;
                    match state[f.index()] {
                        0 => {
                            state[f.index()] = 1;
                            stack.push((f, 0));
                        }
                        1 => panic!("combinational cycle through {f}"), // lint:allow(panic): documented panic contract
                        _ => {}
                    }
                } else {
                    state[id.index()] = 2;
                    order.push(id);
                    stack.pop();
                }
            }
        }
        order
    }

    /// The transitive fanin cone of `id` (including `id` itself), as a
    /// membership bitmap indexed by arena position.
    pub fn tfi_mask(&self, id: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n.index()], true) {
                continue;
            }
            stack.extend(self.node(n).fanins.iter().copied());
        }
        seen
    }

    /// The transitive fanout cone of `id` (including `id` itself), as a
    /// membership bitmap indexed by arena position.
    pub fn tfo_mask(&self, id: NodeId) -> Vec<bool> {
        let fanouts = self.fanouts();
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n.index()], true) {
                continue;
            }
            stack.extend(fanouts[n.index()].iter().copied());
        }
        seen
    }

    /// The set of primary-input positions (indices into [`Network::pis`])
    /// that `id` transitively depends on, as a bitmap.
    pub fn pi_support(&self, id: NodeId) -> Vec<bool> {
        let tfi = self.tfi_mask(id);
        self.pis.iter().map(|p| tfi[p.index()]).collect()
    }

    /// Logic level of every node (PIs and constants at level 0), indexed by
    /// arena position.
    pub fn levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.nodes.len()];
        for id in self.topo_order() {
            let node = self.node(id);
            if node.kind == NodeKind::Internal && !node.fanins.is_empty() {
                level[id.index()] = 1 + node
                    .fanins
                    .iter()
                    .map(|f| level[f.index()])
                    .max()
                    .expect("non-empty fanins"); // lint:allow(panic): internal invariant; the message states it
            }
        }
        level
    }

    /// The logic depth: the maximum level over PO drivers.
    pub fn depth(&self) -> usize {
        let levels = self.levels();
        self.pos
            .iter()
            .map(|(_, d)| levels[d.index()])
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the network on one PI assignment, returning PO values in
    /// declaration order. Intended for tests and small examples; use
    /// `als-sim` for bulk simulation.
    ///
    /// # Panics
    ///
    /// Panics if `pi_values.len() != num_pis()`.
    pub fn eval(&self, pi_values: &[bool]) -> Vec<bool> {
        assert_eq!(pi_values.len(), self.num_pis(), "pi value count mismatch");
        let mut value = vec![false; self.nodes.len()];
        for (pi, &v) in self.pis.iter().zip(pi_values) {
            value[pi.index()] = v;
        }
        for id in self.topo_order() {
            let node = self.node(id);
            if node.kind == NodeKind::Internal {
                let mut assignment = 0u64;
                for (i, &f) in node.fanins.iter().enumerate() {
                    if value[f.index()] {
                        assignment |= 1 << i;
                    }
                }
                value[id.index()] = node.expr.eval(assignment);
            }
        }
        self.pos.iter().map(|(_, d)| value[d.index()]).collect()
    }

    /// Redirects every use of `old` (fanin references and PO drivers) to
    /// `new`, then removes `old`. Duplicate fanins introduced by the
    /// substitution are merged functionally.
    ///
    /// Used by the redundancy-removal pre-process and by SASIMI-style
    /// substitution.
    ///
    /// # Panics
    ///
    /// Panics if either id is not live, if `old` is a PI, or if `new` lies in
    /// the transitive fanout of `old` (which would create a cycle).
    pub fn substitute(&mut self, old: NodeId, new: NodeId) {
        assert!(self.is_live(old) && self.is_live(new), "ids must be live");
        assert!(old != new, "substituting a node with itself");
        assert_eq!(
            self.node(old).kind,
            NodeKind::Internal,
            "cannot remove a PI"
        );
        let tfo = self.tfo_mask(old);
        assert!(!tfo[new.index()], "substitution would create a cycle");

        let users: Vec<NodeId> = self.fanouts()[old.index()].clone();
        for user in users {
            let node = self.node(user);
            let old_fanins = node.fanins.clone();
            let tt = node.cover.to_truth_table();
            // Build the new fanin list with `old` replaced and duplicates
            // merged, then recompute the function over the deduplicated list.
            let mut new_fanins: Vec<NodeId> = Vec::with_capacity(old_fanins.len());
            for &f in &old_fanins {
                let target = if f == old { new } else { f };
                if !new_fanins.contains(&target) {
                    new_fanins.push(target);
                }
            }
            let map: Vec<usize> = old_fanins
                .iter()
                .map(|&f| {
                    let target = if f == old { new } else { f };
                    new_fanins
                        .iter()
                        .position(|&g| g == target)
                        .expect("target inserted above") // lint:allow(panic): internal invariant; the message states it
                })
                .collect();
            let new_tt = tt
                .remap_merge(new_fanins.len(), &map)
                .expect("fanin count within bounds"); // lint:allow(panic): internal invariant; the message states it
            let cover = isop_exact(&new_tt);
            let expr = factor_cover(&cover);
            let n = self.nodes[user.index()].as_mut().expect("live user"); // lint:allow(panic): internal invariant; the message states it
            n.fanins = new_fanins;
            n.cover = cover;
            n.expr = expr;
        }
        for po in &mut self.pos {
            if po.1 == old {
                po.1 = new;
            }
        }
        self.nodes[old.index()] = None;
    }

    /// Removes internal nodes with no path to any primary output. Returns
    /// the number of removed nodes. PIs are never removed.
    pub fn sweep(&mut self) -> usize {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.pos.iter().map(|(_, d)| *d).collect();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut live[id.index()], true) {
                continue;
            }
            stack.extend(self.node(id).fanins.iter().copied());
        }
        let mut removed = 0;
        for (i, slot) in self.nodes.iter_mut().enumerate() {
            if let Some(node) = slot {
                if node.kind == NodeKind::Internal && !live[i] {
                    *slot = None;
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Propagates constant nodes into their fanouts (cofactoring the fanout
    /// functions) until a fixpoint, then sweeps. Returns the number of nodes
    /// removed.
    ///
    /// Constant nodes that still drive a PO are kept.
    pub fn propagate_constants(&mut self) -> usize {
        loop {
            let mut changed = false;
            let const_nodes: Vec<(NodeId, bool)> = self
                .internal_ids()
                .filter_map(|id| self.node(id).expr.as_constant().map(|v| (id, v)))
                .collect();
            for (cid, value) in const_nodes {
                let users: Vec<NodeId> = self.fanouts()[cid.index()].clone();
                for user in users {
                    let node = self.node(user);
                    let var = node
                        .fanins
                        .iter()
                        .position(|&f| f == cid)
                        .expect("fanout bookkeeping"); // lint:allow(panic): internal invariant; the message states it
                    let new_expr = {
                        let cof = node.cover.cofactor(var, value);
                        factor_cover(&cof)
                    };
                    self.replace_expr(user, new_expr);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.sweep()
    }

    /// Verifies structural invariants: fanins are live, acyclic, function
    /// arities match fanin counts, PO drivers are live, and no fanin repeats.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::Inconsistent`] describing the first violation
    /// found.
    pub fn check(&self) -> Result<(), NetworkError> {
        for id in self.node_ids() {
            let node = self.node(id);
            if node.kind == NodeKind::Internal {
                if node.cover.num_vars() != node.fanins.len() {
                    return Err(NetworkError::Inconsistent {
                        message: format!("{id}: cover arity != fanin count"),
                    });
                }
                if node.expr.support_mask() >> node.fanins.len().min(63) != 0
                    && node.fanins.len() < 64
                {
                    return Err(NetworkError::Inconsistent {
                        message: format!("{id}: expr mentions unknown fanin"),
                    });
                }
            }
            for (i, &f) in node.fanins.iter().enumerate() {
                if !self.is_live(f) {
                    return Err(NetworkError::Inconsistent {
                        message: format!("{id}: dead fanin {f}"),
                    });
                }
                if node.fanins[..i].contains(&f) {
                    return Err(NetworkError::Inconsistent {
                        message: format!("{id}: repeated fanin {f}"),
                    });
                }
            }
        }
        for (name, d) in &self.pos {
            if !self.is_live(*d) {
                return Err(NetworkError::Inconsistent {
                    message: format!("po `{name}`: dead driver {d}"),
                });
            }
        }
        // Acyclicity: topo_order panics on cycles; detect gently instead.
        let mut indegree: HashMap<NodeId, usize> = HashMap::new();
        let mut order_count = 0usize;
        let fanouts = self.fanouts();
        let mut queue: Vec<NodeId> = Vec::new();
        for id in self.node_ids() {
            let d = self.node(id).fanins.len();
            indegree.insert(id, d);
            if d == 0 {
                queue.push(id);
            }
        }
        while let Some(id) = queue.pop() {
            order_count += 1;
            for &u in &fanouts[id.index()] {
                let e = indegree.get_mut(&u).expect("live user"); // lint:allow(panic): internal invariant; the message states it
                *e -= 1;
                if *e == 0 {
                    queue.push(u);
                }
            }
        }
        if order_count != self.node_ids().count() {
            return Err(NetworkError::Inconsistent {
                message: "combinational cycle".into(),
            });
        }
        Ok(())
    }

    pub(crate) fn nodes_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id.index()].as_mut().expect("invalid node id") // lint:allow(panic): internal invariant; the message states it
    }

    /// Summary statistics (PIs, POs, nodes, literals, depth).
    pub fn stats(&self) -> NetworkStats {
        NetworkStats {
            num_pis: self.num_pis(),
            num_pos: self.num_pos(),
            num_nodes: self.num_internal(),
            literals: self.literal_count(),
            depth: self.depth(),
        }
    }

    /// Computes the global function of every PO as a truth table over the
    /// PIs. Only usable for networks with at most
    /// [`MAX_VARS`](als_logic::MAX_VARS) primary inputs; intended for
    /// verification in tests.
    ///
    /// # Panics
    ///
    /// Panics if the network has more PIs than `MAX_VARS`.
    pub fn global_functions(&self) -> Vec<TruthTable> {
        let n = self.num_pis();
        let mut tables: Vec<Option<TruthTable>> = vec![None; self.nodes.len()];
        for (i, &pi) in self.pis.iter().enumerate() {
            tables[pi.index()] = Some(TruthTable::var(n, i).expect("PI count within MAX_VARS"));
            // lint:allow(panic): variable count validated by the caller
        }
        for id in self.topo_order() {
            let node = self.node(id);
            if node.kind != NodeKind::Internal {
                continue;
            }
            let mut acc = TruthTable::zero(n).expect("PI count within MAX_VARS"); // lint:allow(panic): variable count validated by the caller
            for cube in node.cover.cubes() {
                let mut term = TruthTable::one(n).expect("PI count within MAX_VARS"); // lint:allow(panic): variable count validated by the caller
                for (var, phase) in cube.literals() {
                    let fanin_tt = tables[node.fanins[var].index()]
                        .as_ref()
                        .expect("topological order"); // lint:allow(panic): internal invariant; the message states it
                    term = if phase {
                        &term & fanin_tt
                    } else {
                        &term & &!fanin_tt
                    };
                }
                acc = &acc | &term;
            }
            tables[id.index()] = Some(acc);
        }
        self.pos
            .iter()
            .map(|(_, d)| tables[d.index()].clone().expect("driver computed")) // lint:allow(panic): internal invariant; the message states it
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::Cube;

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// The running example of the paper's Fig. 1:
    /// n1 = i1·i2, n2 = n1·i3, f = i0·n2 + i0'·n1 (a network with the same
    /// blocking structure: errors at n2 propagate only when i0 = 1).
    fn fig1_like() -> (Network, [NodeId; 6]) {
        let mut net = Network::new("fig1");
        let i0 = net.add_pi("i0");
        let i1 = net.add_pi("i1");
        let i2 = net.add_pi("i2");
        let i3 = net.add_pi("i3");
        let n1 = net.add_node(
            "n1",
            vec![i1, i2],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let n2 = net.add_node(
            "n2",
            vec![n1, i3],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let f = net.add_node(
            "f",
            vec![i0, n2, n1],
            Cover::from_cubes(
                3,
                [
                    cube(&[(0, true), (1, true)]),
                    cube(&[(0, false), (2, true)]),
                ],
            ),
        );
        net.add_po("f", f);
        (net, [i0, i1, i2, i3, n1, n2])
    }

    #[test]
    fn build_and_eval() {
        let (net, _) = fig1_like();
        assert_eq!(net.num_pis(), 4);
        assert_eq!(net.num_internal(), 3);
        // i0=1, i1=i2=i3=1 → n1=1, n2=1, f=1
        assert_eq!(net.eval(&[true, true, true, true]), vec![true]);
        // i0=0, i1=i2=1 → f = n1 = 1
        assert_eq!(net.eval(&[false, true, true, false]), vec![true]);
        // all 0 → 0
        assert_eq!(net.eval(&[false, false, false, false]), vec![false]);
        net.check().unwrap();
    }

    #[test]
    fn literal_count_sums_factored_forms() {
        let (net, _) = fig1_like();
        // n1: 2, n2: 2, f: 4
        assert_eq!(net.literal_count(), 8);
    }

    #[test]
    fn topo_order_respects_edges() {
        let (net, _) = fig1_like();
        let order = net.topo_order();
        let pos_of = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        for id in net.node_ids() {
            for &f in net.node(id).fanins() {
                assert!(pos_of(f) < pos_of(id));
            }
        }
        assert_eq!(order.len(), 7);
    }

    #[test]
    fn levels_and_depth() {
        let (net, ids) = fig1_like();
        let levels = net.levels();
        assert_eq!(levels[ids[0].index()], 0); // PI
        assert_eq!(levels[ids[4].index()], 1); // n1
        assert_eq!(levels[ids[5].index()], 2); // n2
        assert_eq!(net.depth(), 3); // f
    }

    #[test]
    fn tfi_tfo_cones() {
        let (net, ids) = fig1_like();
        let [i0, i1, _i2, i3, n1, n2] = ids;
        let tfi = net.tfi_mask(n2);
        assert!(tfi[n2.index()] && tfi[n1.index()] && tfi[i1.index()] && tfi[i3.index()]);
        assert!(!tfi[i0.index()]);
        let tfo = net.tfo_mask(n1);
        assert!(tfo[n1.index()] && tfo[n2.index()]);
        assert!(!tfo[i3.index()]);
    }

    #[test]
    fn pi_support() {
        let (net, ids) = fig1_like();
        let n2 = ids[5];
        assert_eq!(net.pi_support(n2), vec![false, true, true, true]);
    }

    #[test]
    fn replace_expr_prunes_fanins() {
        let (mut net, ids) = fig1_like();
        let n2 = ids[5];
        // n2 = n1·i3 → drop the i3 literal: n2 = n1.
        let new = Expr::lit(0, true);
        net.replace_expr(n2, new);
        assert_eq!(net.node(n2).fanins().len(), 1);
        assert_eq!(net.node(n2).literal_count(), 1);
        net.check().unwrap();
        // Function now ignores i3.
        assert_eq!(
            net.eval(&[true, true, true, false]),
            net.eval(&[true, true, true, true])
        );
    }

    #[test]
    fn replace_with_constant_and_propagate() {
        let (mut net, ids) = fig1_like();
        let n2 = ids[5];
        net.replace_with_constant(n2, false);
        assert!(net.node(n2).is_constant());
        // f = i0·0 + i0'·n1 = i0'·n1
        assert_eq!(net.eval(&[true, true, true, true]), vec![false]);
        assert_eq!(net.eval(&[false, true, true, true]), vec![true]);
        let removed = net.propagate_constants();
        assert!(removed >= 1, "constant node should be removed");
        net.check().unwrap();
        assert_eq!(net.eval(&[false, true, true, true]), vec![true]);
        assert_eq!(net.eval(&[true, true, true, true]), vec![false]);
    }

    #[test]
    fn sweep_removes_dangling() {
        let (mut net, _) = fig1_like();
        let a = net.pis()[0];
        let dangling = net.add_node(
            "dangling",
            vec![a],
            Cover::from_cubes(1, [cube(&[(0, false)])]),
        );
        assert!(net.is_live(dangling));
        let removed = net.sweep();
        assert_eq!(removed, 1);
        assert!(!net.is_live(dangling));
        net.check().unwrap();
    }

    #[test]
    fn substitute_redirects_and_merges() {
        let mut net = Network::new("sub");
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
        // h = g1 + g2 (duplicate logic).
        let h = net.add_node(
            "h",
            vec![g1, g2],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        net.add_po("h", h);
        net.substitute(g2, g1);
        assert!(!net.is_live(g2));
        net.check().unwrap();
        // h = g1 + g1 = g1 = ab
        assert_eq!(net.node(h).fanins(), &[g1]);
        assert_eq!(net.eval(&[true, true]), vec![true]);
        assert_eq!(net.eval(&[true, false]), vec![false]);
    }

    #[test]
    fn substitute_po_driver() {
        let mut net = Network::new("sub_po");
        let a = net.add_pi("a");
        let g1 = net.add_node("g1", vec![a], Cover::from_cubes(1, [cube(&[(0, true)])]));
        let g2 = net.add_node("g2", vec![a], Cover::from_cubes(1, [cube(&[(0, true)])]));
        net.add_po("f", g2);
        net.substitute(g2, g1);
        assert_eq!(net.pos()[0].1, g1);
        assert_eq!(net.eval(&[true]), vec![true]);
    }

    #[test]
    fn global_functions_match_eval() {
        let (net, _) = fig1_like();
        let tts = net.global_functions();
        assert_eq!(tts.len(), 1);
        for m in 0..16u64 {
            let pis: Vec<bool> = (0..4).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(tts[0].get(m), net.eval(&pis)[0], "minterm {m}");
        }
    }

    #[test]
    fn stats_snapshot() {
        let (net, _) = fig1_like();
        let s = net.stats();
        assert_eq!(
            s,
            NetworkStats {
                num_pis: 4,
                num_pos: 1,
                num_nodes: 3,
                literals: 8,
                depth: 3
            }
        );
    }

    #[test]
    #[should_panic(expected = "fanin")]
    fn repeated_fanin_panics() {
        let mut net = Network::new("bad");
        let a = net.add_pi("a");
        let _ = net.add_node(
            "g",
            vec![a, a],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
    }

    #[test]
    fn try_node_reports_invalid() {
        let net = Network::new("empty");
        assert!(matches!(
            net.try_node(NodeId(4)),
            Err(NetworkError::InvalidNode { .. })
        ));
    }
}
