use crate::lanes;
use crate::PatternSet;
use als_network::{Network, NodeId};

/// Per-node signatures produced by [`simulate`]: for every live node, the
/// 64-bit words holding the node's value under every pattern.
///
/// Storage is one flat arena-backed buffer (`arena_len × words_per_signal`
/// words, node `id` at offset `id.index() * words_per_signal`) rather than a
/// `Vec<Vec<u64>>`: signatures of topologically adjacent nodes sit next to
/// each other in memory, which is what the incremental resimulation walk
/// ([`IncrementalSim`](crate::IncrementalSim)) streams over. A separate
/// liveness bitmap distinguishes dead arena slots from real signatures.
///
/// **Canonical-tail invariant:** the unused high bits of every stored final
/// word are zero (masked at write time), so two signatures are equal iff
/// their words are equal — plain `==`, no per-read masking or hashing.
#[derive(Clone, Debug)]
pub struct SimResult {
    num_patterns: usize,
    words_per_signal: usize,
    tail_mask: u64,
    /// Flat signature arena; node `id` occupies
    /// `words[id.index() * words_per_signal ..][..words_per_signal]`.
    words: Vec<u64>,
    /// Which arena slots hold a simulated signature (dead slots are
    /// tombstones left by rewrites).
    live: Vec<bool>,
}

impl SimResult {
    /// Number of simulated patterns.
    #[inline]
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Number of words per signal.
    #[inline]
    pub fn words_per_signal(&self) -> usize {
        self.words_per_signal
    }

    /// The signature (value words) of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not live at simulation time.
    pub fn node_words(&self, id: NodeId) -> &[u64] {
        assert!(
            self.live.get(id.index()).copied().unwrap_or(false),
            "node {id} was not simulated"
        );
        let base = id.index() * self.words_per_signal;
        &self.words[base..base + self.words_per_signal]
    }

    /// The value of node `id` under pattern `p`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not simulated or `p` is out of range.
    pub fn node_value(&self, id: NodeId, p: usize) -> bool {
        assert!(p < self.num_patterns, "pattern index out of range");
        self.node_words(id)[p / 64] >> (p % 64) & 1 == 1
    }

    /// How many patterns set node `id` to 1.
    pub fn count_ones(&self, id: NodeId) -> u64 {
        // Tail bits are canonically zero, so a plain popcount is exact.
        lanes::popcount_masked(self.node_words(id), u64::MAX)
    }

    /// The signal probability of node `id` (fraction of patterns at 1).
    pub fn probability(&self, id: NodeId) -> f64 {
        self.count_ones(id) as f64 / self.num_patterns as f64 // lint:allow(as-cast): counts << 2^52, exact in f64
    }

    /// A compact hash of the node's signature (used by the redundancy
    /// pre-process to bucket candidate-identical signals).
    pub fn signature_hash(&self, id: NodeId) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for w in self.node_words(id) {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Whether two nodes have identical signatures over the pattern set.
    pub fn signatures_equal(&self, a: NodeId, b: NodeId) -> bool {
        self.node_words(a) == self.node_words(b)
    }

    /// The number of patterns on which two simulated nodes differ.
    pub fn difference_count(&self, a: NodeId, b: NodeId) -> u64 {
        let mut diff = vec![0u64; self.words_per_signal];
        lanes::xor_or_accumulate(&mut diff, self.node_words(a), self.node_words(b));
        lanes::popcount_masked(&diff, u64::MAX)
    }

    /// Mask selecting the valid bits of the final word.
    #[inline]
    pub fn tail_mask(&self) -> u64 {
        self.tail_mask
    }

    /// The flat signature arena (for [`SimView`]).
    ///
    /// [`SimView`]: crate::SimView
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The liveness bitmap (for [`SimView`]).
    ///
    /// [`SimView`]: crate::SimView
    #[inline]
    pub(crate) fn live(&self) -> &[bool] {
        &self.live
    }
}

/// Evaluates node `id`'s cover over the fanin signatures stored in the flat
/// arena `words` (stride `wps`), writing the tail-canonical result into
/// `out`. Shared by [`simulate`] and the incremental engine so both compute
/// bit-identical signatures.
pub(crate) fn eval_node_flat(
    net: &Network,
    id: NodeId,
    words: &[u64],
    wps: usize,
    tail_mask: u64,
    out: &mut [u64],
) {
    debug_assert_eq!(out.len(), wps);
    out.fill(0);
    let node = net.node(id);
    let mut term = vec![u64::MAX; wps];
    for cube in node.cover().cubes() {
        term.fill(u64::MAX);
        for (var, phase) in cube.literals() {
            let base = node.fanins()[var].index() * wps;
            lanes::and_phase(&mut term, &words[base..base + wps], phase);
        }
        lanes::or_accumulate(out, &term);
    }
    if let Some(last) = out.last_mut() {
        *last &= tail_mask;
    }
}

/// Simulates the network under the pattern set, producing per-node
/// signatures. One run serves every consumer: error-rate measurement, local
/// pattern statistics and signature-based redundancy detection (§3.2, §6).
///
/// # Panics
///
/// Panics if `patterns.num_pis()` differs from the network's PI count.
pub fn simulate(net: &Network, patterns: &PatternSet) -> SimResult {
    assert_eq!(
        patterns.num_pis(),
        net.num_pis(),
        "pattern set drives a different PI count"
    );
    let wps = patterns.words_per_signal();
    let tail_mask = patterns.tail_mask();
    let arena = net.node_ids().map(NodeId::index).max().map_or(0, |m| m + 1);
    let mut words = vec![0u64; arena * wps];
    let mut live = vec![false; arena];
    for (i, &pi) in net.pis().iter().enumerate() {
        let base = pi.index() * wps;
        words[base..base + wps].copy_from_slice(patterns.pi_words(i));
        if let Some(last) = words[base..base + wps].last_mut() {
            *last &= tail_mask;
        }
        live[pi.index()] = true;
    }
    let mut out = vec![0u64; wps];
    for id in net.topo_order() {
        if net.node(id).is_pi() {
            continue;
        }
        eval_node_flat(net, id, &words, wps, tail_mask, &mut out);
        let base = id.index() * wps;
        words[base..base + wps].copy_from_slice(&out);
        live[id.index()] = true;
    }
    SimResult {
        num_patterns: patterns.num_patterns(),
        words_per_signal: wps,
        tail_mask,
        words,
        live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    fn xor_net() -> (Network, NodeId) {
        let mut net = Network::new("xor");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let y = net.add_node(
            "y",
            vec![a, b],
            Cover::from_cubes(
                2,
                [
                    cube(&[(0, true), (1, false)]),
                    cube(&[(0, false), (1, true)]),
                ],
            ),
        );
        net.add_po("y", y);
        (net, y)
    }

    #[test]
    fn exhaustive_simulation_matches_eval() {
        let (net, y) = xor_net();
        let patterns = PatternSet::exhaustive(2).unwrap();
        let sim = simulate(&net, &patterns);
        for p in 0..4 {
            let pis: Vec<bool> = (0..2).map(|i| patterns.pi_value(i, p)).collect();
            assert_eq!(sim.node_value(y, p), net.eval(&pis)[0], "pattern {p}");
        }
        assert_eq!(sim.count_ones(y), 2);
        assert!((sim.probability(y) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn random_simulation_matches_eval_spotchecks() {
        let (net, y) = xor_net();
        let patterns = PatternSet::random(2, 256, 42);
        let sim = simulate(&net, &patterns);
        for p in (0..256).step_by(17) {
            let pis: Vec<bool> = (0..2).map(|i| patterns.pi_value(i, p)).collect();
            assert_eq!(sim.node_value(y, p), net.eval(&pis)[0]);
        }
    }

    #[test]
    fn constant_nodes_simulate() {
        let mut net = Network::new("consts");
        let _a = net.add_pi("a");
        let k1 = net.add_constant("k1", true);
        let k0 = net.add_constant("k0", false);
        net.add_po("k1", k1);
        net.add_po("k0", k0);
        let patterns = PatternSet::exhaustive(1).unwrap();
        let sim = simulate(&net, &patterns);
        assert_eq!(sim.count_ones(k1), 2);
        assert_eq!(sim.count_ones(k0), 0);
    }

    #[test]
    fn signature_identity_and_hash() {
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
        let g3 = net.add_node("g3", vec![a, b], Cover::from_cubes(2, [cube(&[(0, true)])]));
        net.add_po("g1", g1);
        net.add_po("g2", g2);
        net.add_po("g3", g3);
        let sim = simulate(&net, &PatternSet::exhaustive(2).unwrap());
        assert!(sim.signatures_equal(g1, g2));
        assert_eq!(sim.signature_hash(g1), sim.signature_hash(g2));
        assert!(!sim.signatures_equal(g1, g3));
        assert_eq!(sim.difference_count(g1, g3), 1); // a=1,b=0
    }

    #[test]
    #[should_panic(expected = "different PI count")]
    fn pi_count_mismatch_panics() {
        let (net, _) = xor_net();
        let patterns = PatternSet::exhaustive(3).unwrap();
        let _ = simulate(&net, &patterns);
    }

    /// Regression for the latent tail-mask edge case: pattern counts that
    /// are an exact multiple of 64 and counts that are not must agree on
    /// `count_ones`/`probability`. A constant-1 node must report exactly
    /// `num_patterns` ones — neither more (tail garbage or storage padding
    /// counted) nor fewer — and `a + a'` must partition the pattern set.
    #[test]
    fn tail_mask_is_exact_for_multiple_and_non_multiple_pattern_counts() {
        for n in [1usize, 63, 64, 65, 128] {
            let mut net = Network::new("k");
            let a = net.add_pi("a");
            let k1 = net.add_constant("k1", true);
            // nota = a' exercises the negative-literal path, whose `!word`
            // sets every tail bit before the canonical write-time mask.
            let nota = net.add_node("nota", vec![a], Cover::from_cubes(1, [cube(&[(0, false)])]));
            net.add_po("k1", k1);
            net.add_po("nota", nota);
            let vectors: Vec<u64> = (0..n as u64).map(|i| i & 1).collect(); // lint:allow(as-cast): n <= 128
            let patterns = PatternSet::from_vectors(1, &vectors);
            assert_eq!(patterns.num_patterns(), n, "exact pattern count");
            let sim = simulate(&net, &patterns);
            let n64 = n as u64; // lint:allow(as-cast): n <= 128
            assert_eq!(sim.count_ones(k1), n64, "constant-1 over {n} patterns");
            assert!((sim.probability(k1) - 1.0).abs() < 1e-15, "{n} patterns");
            assert_eq!(
                sim.count_ones(a) + sim.count_ones(nota),
                n64,
                "a + a' must partition {n} patterns"
            );
            assert_eq!(sim.count_ones(a), n64 / 2, "alternating stimulus");
            // The canonical-tail invariant itself: no garbage above tail_mask.
            let last = *sim.node_words(nota).last().unwrap();
            assert_eq!(last & !sim.tail_mask(), 0, "tail garbage at {n}");
        }
    }
}
