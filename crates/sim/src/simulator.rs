use crate::lanes;
use crate::PatternSet;
use als_network::{Network, NodeId};
use incremental::UndoEntry;

mod incremental;

pub use incremental::UpdateDelta;

/// The signatures of one network under one pattern set: for every live
/// node, the 64-bit words holding the node's value under every pattern.
///
/// [`simulate`] is the one constructor. The store then lives as long as the
/// synthesis run: [`update`](SimResult::update) brings it up to date after a
/// rewrite by resimulating only the dirty cone, and
/// [`rollback`](SimResult::rollback) / [`commit`](SimResult::commit) undo or
/// accept those updates (`update` states the dirty-set contract). Every
/// measurement — error rates, local pattern statistics, candidate pricing,
/// SASIMI's pair probe — reads this one store. A shared `&SimResult` is
/// `Send + Sync`, so scoped worker threads read the same signatures without
/// copying them: the §3.2 "one simulation run serves every consumer" idea
/// extended across threads.
///
/// Storage is one flat arena-backed buffer (`arena_len × words_per_signal`
/// words, node `id` at offset `id.index() * words_per_signal`) rather than a
/// `Vec<Vec<u64>>`: signatures of topologically adjacent nodes sit next to
/// each other in memory, which is what the incremental resimulation walk
/// streams over. A separate liveness bitmap distinguishes dead arena slots
/// from real signatures.
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
    /// Every slot overwrite since the last commit, newest last.
    undo: Vec<UndoEntry>,
    /// Whether every update re-evaluates all live nodes.
    full_resim: bool,
    /// Test-only fault injection: skip the Nth would-be recomputation,
    /// leaving that TFO node silently stale. Proves the differential suite
    /// is falsifiable.
    #[cfg(test)]
    sabotage_skip_nth: Option<u64>,
    #[cfg(test)]
    recompute_counter: u64,
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

    /// Mask selecting the valid bits of the final word.
    #[inline]
    pub fn tail_mask(&self) -> u64 {
        self.tail_mask
    }

    /// The store itself. Kept for callers written against the borrowed view
    /// type this store replaced; new code takes `&SimResult` directly.
    #[inline]
    pub fn view(&self) -> &SimResult {
        self
    }

    /// The signature (value words) of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` holds no signature (dead, or never simulated).
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
        self.node_words(id)
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum()
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
        self.node_words(a)
            .iter()
            .zip(self.node_words(b))
            .map(|(x, y)| u64::from((x ^ y).count_ones()))
            .sum()
    }

    /// [`difference_count`](Self::difference_count) with prefix probing:
    /// the scan starts at a `start_words`-word prefix and doubles its
    /// coverage only while the pair could still be *similar enough* — it
    /// stops early once the prefix alone proves both phases infeasible.
    /// `start_words = words_per_signal` scans at full width in one round.
    ///
    /// Both mismatch and match counts are monotone in coverage, so over a
    /// prefix of `c` patterns with `e` mismatches:
    ///
    /// - `e > max_mismatches` already implies the full-width mismatch count
    ///   exceeds `max_mismatches` (same-phase substitution infeasible);
    /// - `c − e > max_matches` already implies the full-width *match* count
    ///   exceeds `max_matches` — and the full match count is exactly the
    ///   inverted-phase mismatch count `N − diff` (inverted substitution
    ///   infeasible). `max_matches: None` marks the inverted phase as
    ///   infeasible from the outset.
    ///
    /// When both hold, the probe returns with `early_exit: true` and a
    /// partial `count`; the caller's accept/reject decision is then
    /// byte-identical to a full scan. Otherwise the scan runs to completion
    /// and `count` is the exact [`difference_count`](Self::difference_count).
    ///
    /// Only full 64-pattern words are counted as covered before the final
    /// word, so the match bound never credits the canonical-zero tail bits
    /// as agreements.
    ///
    /// # Panics
    ///
    /// Panics if either node was not simulated.
    pub fn difference_probe(
        &self,
        a: NodeId,
        b: NodeId,
        max_mismatches: u64,
        max_matches: Option<u64>,
        start_words: usize,
    ) -> DiffProbe {
        let wps = self.words_per_signal;
        let wa = self.node_words(a);
        let wb = self.node_words(b);
        let mut mismatches = 0u64;
        let mut scanned = 0usize;
        let mut end = start_words.clamp(1, wps);
        loop {
            for w in scanned..end {
                mismatches += u64::from((wa[w] ^ wb[w]).count_ones());
            }
            scanned = end;
            if scanned == wps {
                return DiffProbe {
                    count: mismatches,
                    words_scanned: scanned as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                    early_exit: false,
                };
            }
            // Every scanned word is a full 64 patterns (only the final word
            // can be partial, and `scanned < wps` here).
            let covered = (scanned * 64) as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
            let same_feasible = mismatches <= max_mismatches;
            let inv_feasible = max_matches.is_some_and(|mm| covered - mismatches <= mm);
            if !same_feasible && !inv_feasible {
                return DiffProbe {
                    count: mismatches,
                    words_scanned: scanned as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                    early_exit: true,
                };
            }
            end = (end * 2).min(wps);
        }
    }
}

/// Result of one [`SimResult::difference_probe`] scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiffProbe {
    /// Mismatching patterns counted before the scan stopped: the exact
    /// difference count when `early_exit` is false, otherwise a prefix
    /// count that already proves both phases infeasible.
    pub count: u64,
    /// Signature words actually read (per signal).
    pub words_scanned: u64,
    /// Whether the scan stopped at a word prefix.
    pub early_exit: bool,
}

/// Evaluates node `id`'s cover over the fanin signatures stored in the flat
/// arena `words` (stride `wps`), writing the tail-canonical result into
/// `out`. Shared by [`simulate`] and [`SimResult::update`] so both compute
/// bit-identical signatures.
fn eval_node_flat(
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
/// signatures — the one way to build a [`SimResult`]. One run serves every
/// consumer: error-rate measurement, local pattern statistics and
/// signature-based redundancy detection (§3.2, §6).
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
        undo: Vec::new(),
        full_resim: false,
        #[cfg(test)]
        sabotage_skip_nth: None,
        #[cfg(test)]
        recompute_counter: 0,
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

    #[test]
    fn difference_probe_matches_full_scan_and_only_early_exits_soundly() {
        // Two 8-PI signals over 256 patterns (4 words): a PI and a gate.
        let mut net = Network::new("probe");
        let pis: Vec<NodeId> = (0..8).map(|i| net.add_pi(format!("x{i}"))).collect();
        let y = net.add_node(
            "y",
            vec![pis[0], pis[1]],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        net.add_po("y", y);
        let sim = simulate(&net, &PatternSet::exhaustive(8).unwrap());
        let full = sim.difference_count(pis[2], y);
        // Unbounded limits: the probe always completes with the exact count.
        let probe = sim.difference_probe(pis[2], y, u64::MAX, Some(u64::MAX), 1);
        assert_eq!(
            probe,
            DiffProbe {
                count: full,
                words_scanned: 4,
                early_exit: false
            }
        );
        // Tight limits on a dissimilar pair: early exit from the first word,
        // and the partial count already exceeds the mismatch limit while the
        // match bound is violated too.
        let tight = sim.difference_probe(pis[2], y, 3, Some(3), 1);
        assert!(tight.early_exit);
        assert_eq!(tight.words_scanned, 1);
        assert!(tight.count > 3 && 64 - tight.count > 3);
        // A pair similar in the inverted phase is never early-exited by a
        // tight mismatch limit alone.
        let mut inv_net = Network::new("inv");
        let a = inv_net.add_pi("a");
        let filler = inv_net.add_pi("f");
        let na = inv_net.add_node("na", vec![a], Cover::from_cubes(1, [cube(&[(0, false)])]));
        inv_net.add_po("na", na);
        inv_net.add_po("f", filler);
        let s2 = simulate(&inv_net, &PatternSet::random(2, 256, 7));
        let inv_probe = s2.difference_probe(a, na, 0, Some(0), 1);
        assert!(!inv_probe.early_exit, "perfect inverse must scan fully");
        assert_eq!(inv_probe.count, 256, "a vs a' differs everywhere");
    }

    #[test]
    fn signatures_are_shareable_across_scoped_threads() {
        let (net, y) = xor_net();
        let sim = simulate(&net, &PatternSet::exhaustive(2).unwrap());
        let shared = &sim;
        let counts: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(move || shared.count_ones(y)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(counts.iter().all(|&c| c == 2));
        assert_eq!(
            crate::local_pattern_counts(&net, shared, y),
            vec![1, 1, 1, 1]
        );
    }
}
