use als_network::{Network, NodeId};
use std::collections::{HashSet, VecDeque};

/// A window around a pivot node: the sub-network the don't-care computation
/// reasons about, following the `mfs` windowing scheme (`levels_in` levels of
/// transitive fanin, `levels_out` levels of transitive fanout, plus the
/// fanin cones feeding the fanout side).
///
/// *Leaves* are signals feeding the window from outside (treated as free
/// variables — which makes the resulting don't-care sets sound subsets of
/// the true ones). *Roots* are window nodes observed from outside (fanouts
/// escaping the window, or primary outputs).
#[derive(Clone, Debug)]
pub struct Window {
    pivot: NodeId,
    /// Window-internal nodes in topological order (pivot included).
    internals: Vec<NodeId>,
    leaves: Vec<NodeId>,
    roots: Vec<NodeId>,
}

impl Window {
    /// Builds the window of `pivot` with the given depths.
    ///
    /// # Panics
    ///
    /// Panics if `pivot` is not a live internal node.
    pub fn build(net: &Network, pivot: NodeId, levels_in: usize, levels_out: usize) -> Self {
        assert!(net.is_live(pivot), "pivot must be live");
        assert!(!net.node(pivot).is_pi(), "pivot must be an internal node");
        let fanouts = net.fanouts();

        // Fanout side: BFS up to levels_out.
        let mut tfo: HashSet<NodeId> = HashSet::new();
        let mut frontier = vec![pivot];
        tfo.insert(pivot);
        for _ in 0..levels_out {
            let mut next = Vec::new();
            for &n in &frontier {
                for &u in &fanouts[n.index()] {
                    if tfo.insert(u) {
                        next.push(u);
                    }
                }
            }
            frontier = next;
        }

        // Fanin side: BFS up to levels_in from the pivot *and* from every
        // TFO node, collecting internal nodes only.
        let mut inside: HashSet<NodeId> = tfo.clone();
        // lint:allow(map-iter): seeds a BFS whose result is a membership set
        let mut queue: VecDeque<(NodeId, usize)> = tfo.iter().map(|&n| (n, 0)).collect();
        while let Some((n, d)) = queue.pop_front() {
            if d == levels_in {
                continue;
            }
            for &f in net.node(n).fanins() {
                if !net.node(f).is_pi() && inside.insert(f) {
                    queue.push_back((f, d + 1));
                }
            }
        }

        // Leaves: fanins of internal nodes that are not themselves internal.
        let mut leaves: Vec<NodeId> = Vec::new();
        let mut leaf_set: HashSet<NodeId> = HashSet::new();
        for &n in &inside {
            // lint:allow(map-iter): leaves are sorted below
            for &f in net.node(n).fanins() {
                if !inside.contains(&f) && leaf_set.insert(f) {
                    leaves.push(f);
                }
            }
        }
        leaves.sort();

        // Roots: internal nodes observed from outside the window.
        let po_drivers: HashSet<NodeId> = net.pos().iter().map(|(_, d)| *d).collect();
        // lint:allow(map-iter): collected then sorted, so set order never leaks out
        let mut roots: Vec<NodeId> = inside
            .iter()
            .copied()
            .filter(|&n| {
                po_drivers.contains(&n) || fanouts[n.index()].iter().any(|u| !inside.contains(u))
            })
            .collect();
        roots.sort();

        // Topological order restricted to the window.
        let order: Vec<NodeId> = net
            .topo_order()
            .into_iter()
            .filter(|n| inside.contains(n))
            .collect();

        Window {
            pivot,
            internals: order,
            leaves,
            roots,
        }
    }

    /// The pivot node.
    pub fn pivot(&self) -> NodeId {
        self.pivot
    }

    /// Window-internal nodes, topologically ordered (pivot included).
    pub fn internals(&self) -> &[NodeId] {
        &self.internals
    }

    /// The window's free inputs.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// The window's observed outputs.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }
}

/// Membership bitmap (indexed by arena position) of nodes within `radius`
/// undirected hops of `center`, traversing fanin and fanout edges alike.
pub fn undirected_ball(net: &Network, center: NodeId, radius: usize) -> Vec<bool> {
    let fanouts = net.fanouts();
    let mut seen = vec![false; fanouts.len()];
    let mut frontier = vec![center];
    seen[center.index()] = true;
    for _ in 0..radius {
        let mut next = Vec::new();
        for &n in &frontier {
            let node = net.node(n);
            for &f in node.fanins() {
                if !seen[f.index()] {
                    seen[f.index()] = true;
                    next.push(f);
                }
            }
            for &u in &fanouts[n.index()] {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    seen
}

/// Conservative superset of the nodes whose `levels_in × levels_out` window
/// can contain `center` — i.e. the nodes whose SDC/ODC classification a
/// structural change at `center` may alter. Every member of a node's window
/// lies within `levels_in + levels_out` undirected hops of its pivot, so a
/// ball of that radius plus one hop of slack (covering edges incident to
/// `center` that the change removes) is a sound invalidation cone.
pub fn window_influence(
    net: &Network,
    center: NodeId,
    levels_in: usize,
    levels_out: usize,
) -> Vec<bool> {
    undirected_ball(net, center, levels_in + levels_out + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    fn chain() -> (Network, Vec<NodeId>) {
        // a → g1 → g2 → g3 → po, all buffers-with-AND shape.
        let mut net = Network::new("chain");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let g1 = net.add_node(
            "g1",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let g2 = net.add_node(
            "g2",
            vec![g1, b],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, false)])]),
        );
        let g3 = net.add_node("g3", vec![g2], Cover::from_cubes(1, [cube(&[(0, false)])]));
        net.add_po("f", g3);
        (net, vec![a, b, g1, g2, g3])
    }

    #[test]
    fn window_of_middle_node() {
        let (net, ids) = chain();
        let g2 = ids[3];
        let w = Window::build(&net, g2, 1, 1);
        assert_eq!(w.pivot(), g2);
        // 1 level in: g1; 1 level out: g3.
        assert!(w.internals().contains(&ids[2]));
        assert!(w.internals().contains(&ids[4]));
        // Leaves: a and b (fanins of g1/g2 outside the window).
        assert_eq!(w.leaves(), &[ids[0], ids[1]]);
        // Root: g3 drives the PO.
        assert_eq!(w.roots(), &[ids[4]]);
    }

    #[test]
    fn window_zero_levels_is_just_pivot() {
        let (net, ids) = chain();
        let g2 = ids[3];
        let w = Window::build(&net, g2, 0, 0);
        assert_eq!(w.internals(), &[g2]);
        // g2's fanins g1 and b become leaves; g2 itself is the root (its
        // fanout g3 is outside).
        assert_eq!(w.leaves(), &[ids[1], ids[2]]);
        assert_eq!(w.roots(), &[g2]);
    }

    #[test]
    fn root_detection_includes_escaping_fanout() {
        // g1 feeds g2 (inside) and an external node far away.
        let mut net = Network::new("esc");
        let a = net.add_pi("a");
        let g1 = net.add_node("g1", vec![a], Cover::from_cubes(1, [cube(&[(0, true)])]));
        let g2 = net.add_node("g2", vec![g1], Cover::from_cubes(1, [cube(&[(0, false)])]));
        let g3 = net.add_node("g3", vec![g2], Cover::from_cubes(1, [cube(&[(0, false)])]));
        let far = net.add_node("far", vec![g1], Cover::from_cubes(1, [cube(&[(0, true)])]));
        let top = net.add_node(
            "top",
            vec![g3, far],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        net.add_po("top", top);
        let w = Window::build(&net, g2, 1, 1);
        // g1 is inside (1 level in); its fanout `far` is outside → g1 is a root.
        assert!(w.roots().contains(&g1));
    }
}
