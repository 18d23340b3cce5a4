use crate::{lanes, SimResult};
use als_network::{Network, NodeId};

/// Maximum fanin count for local-pattern enumeration (`2^k` counters).
pub const MAX_LOCAL_FANINS: usize = 16;

/// Fanin counts up to this bound use the dense minterm path: one word-wise
/// AND-reduction per local pattern (`2^k · k` chunked word ops) instead of
/// the per-bit column gather (`64 · k` scalar bit probes per word). The
/// crossover favors dense for every k the paper's covers actually use.
const DENSE_LOCAL_FANINS: usize = 6;

/// Counts how often each local input pattern of node `id` occurs over the
/// simulated pattern set.
///
/// Local pattern `v` assigns bit `i` of `v` to fanin `i` of the node. The
/// returned vector has `2^k` entries for a node with `k` fanins. This is the
/// §3.2 statistic: one simulation run provides the probabilities of all the
/// local input patterns of every node.
///
/// # Panics
///
/// Panics if the node has more than [`MAX_LOCAL_FANINS`] fanins or was not
/// simulated.
pub fn local_pattern_counts(net: &Network, sim: &SimResult, id: NodeId) -> Vec<u64> {
    let node = net.node(id);
    let k = node.fanins().len();
    assert!(
        k <= MAX_LOCAL_FANINS,
        "node {id} has {k} fanins, exceeding the local-pattern limit"
    );
    let mut counts = vec![0u64; 1 << k];
    if k == 0 {
        counts[0] = sim.num_patterns() as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
        return counts;
    }
    let fanin_words: Vec<&[u64]> = node.fanins().iter().map(|&f| sim.node_words(f)).collect();
    let wps = sim.words_per_signal();
    let tail = sim.tail_mask();
    if k <= DENSE_LOCAL_FANINS {
        dense_counts(&fanin_words, wps, tail, &mut counts);
    } else {
        gather_counts(&fanin_words, wps, tail, &mut counts);
    }
    counts
}

/// Dense minterm path: local pattern `v` occurs exactly where the AND of
/// each fanin's (possibly complemented) signature is 1. The minterms
/// partition the pattern set, so the counts sum to `num_patterns` by
/// construction — same totals, per-pattern, as [`gather_counts`].
fn dense_counts(fanin_words: &[&[u64]], wps: usize, tail: u64, counts: &mut [u64]) {
    let mut term = vec![0u64; wps];
    for (v, count) in counts.iter_mut().enumerate() {
        term.fill(u64::MAX);
        for (i, fw) in fanin_words.iter().enumerate() {
            lanes::and_phase(&mut term, fw, v >> i & 1 == 1);
        }
        *count = lanes::popcount_masked(&term, tail);
    }
}

/// Per-bit column gather: transpose each word of the fanin signatures one
/// valid pattern bit at a time and bump that pattern's counter.
fn gather_counts(fanin_words: &[&[u64]], wps: usize, tail: u64, counts: &mut [u64]) {
    for w in 0..wps {
        let valid = if w + 1 == wps { tail } else { u64::MAX };
        if valid == 0 {
            continue;
        }
        let bits = 64 - valid.leading_zeros() as usize; // lint:allow(as-cast): u32 bit index fits usize
        let cols: Vec<u64> = fanin_words.iter().map(|fw| fw[w]).collect();
        for b in 0..bits {
            if valid >> b & 1 == 0 {
                continue;
            }
            let mut v = 0usize;
            for (i, c) in cols.iter().enumerate() {
                if c >> b & 1 == 1 {
                    v |= 1 << i;
                }
            }
            counts[v] += 1;
        }
    }
}

/// The probabilities of the local input patterns of node `id` (counts
/// normalized by the number of simulated patterns).
///
/// # Panics
///
/// Same conditions as [`local_pattern_counts`].
pub fn local_pattern_probabilities(net: &Network, sim: &SimResult, id: NodeId) -> Vec<f64> {
    let n = sim.num_patterns() as f64; // lint:allow(as-cast): counts << 2^52, exact in f64
    local_pattern_counts(net, sim, id)
        .into_iter()
        .map(|c| c as f64 / n) // lint:allow(as-cast): counts << 2^52, exact in f64
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, PatternSet};
    use als_logic::{Cover, Cube};
    use als_network::Network;

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    #[test]
    fn exhaustive_counts_are_uniform_for_independent_fanins() {
        let mut net = Network::new("t");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let y = net.add_node(
            "y",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        net.add_po("y", y);
        let p = PatternSet::exhaustive(2).unwrap();
        let sim = simulate(&net, &p);
        let counts = local_pattern_counts(&net, &sim, y);
        assert_eq!(counts, vec![1, 1, 1, 1]);
        let probs = local_pattern_probabilities(&net, &sim, y);
        assert!(probs.iter().all(|&p| (p - 0.25).abs() < 1e-12));
    }

    #[test]
    fn correlated_fanins_skew_counts() {
        // y's fanins are g = a AND b, and a itself: pattern (g=1, a=0) is
        // impossible — a satisfiability don't-care visible in the counts.
        let mut net = Network::new("c");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let g = net.add_node(
            "g",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let y = net.add_node(
            "y",
            vec![g, a],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        net.add_po("y", y);
        let p = PatternSet::exhaustive(2).unwrap();
        let sim = simulate(&net, &p);
        let counts = local_pattern_counts(&net, &sim, y);
        // Pattern bit 0 = g, bit 1 = a.
        // v=0 (g=0,a=0): 2 patterns; v=1 (g=1,a=0): impossible (SDC);
        // v=2 (g=0,a=1): a=1,b=0 → 1 pattern; v=3 (g=1,a=1): 1 pattern.
        assert_eq!(counts, vec![2, 0, 1, 1]);
    }

    #[test]
    fn counts_sum_to_pattern_count() {
        let mut net = Network::new("s");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let y = net.add_node(
            "y",
            vec![a, b, c],
            Cover::from_cubes(3, [cube(&[(0, true), (1, true), (2, false)])]),
        );
        net.add_po("y", y);
        let p = PatternSet::random(3, 1000, 5);
        let sim = simulate(&net, &p);
        let counts = local_pattern_counts(&net, &sim, y);
        assert_eq!(counts.iter().sum::<u64>(), p.num_patterns() as u64);
    }

    /// The dense minterm path and the per-bit gather path must agree count
    /// for count on every fanin width up to the dense cutoff, including a
    /// non-multiple-of-64 pattern count (tail-masked final word).
    #[test]
    fn dense_and_gather_paths_agree() {
        for k in 1..=DENSE_LOCAL_FANINS {
            for n in [100usize, 128] {
                // from_vectors keeps the exact count (100 stays 100, with a
                // tail-masked final word) — the case the dense path must not
                // over-count.
                let mut state = 7 + k as u64; // lint:allow(as-cast): small k
                let vectors: Vec<u64> = (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        state >> 8
                    })
                    .collect();
                let p = PatternSet::from_vectors(k, &vectors);
                assert_eq!(p.num_patterns(), n);
                let wps = p.words_per_signal();
                let fanin_words: Vec<&[u64]> = (0..k).map(|i| p.pi_words(i)).collect();
                let mut dense = vec![0u64; 1 << k];
                let mut gather = vec![0u64; 1 << k];
                dense_counts(&fanin_words, wps, p.tail_mask(), &mut dense);
                gather_counts(&fanin_words, wps, p.tail_mask(), &mut gather);
                assert_eq!(dense, gather, "k={k} n={n}");
                assert_eq!(dense.iter().sum::<u64>(), n as u64, "k={k} n={n}"); // lint:allow(as-cast): n <= 128
            }
        }
    }

    #[test]
    fn constant_node_counts() {
        let mut net = Network::new("k");
        let _a = net.add_pi("a");
        let k = net.add_constant("k", true);
        net.add_po("k", k);
        let p = PatternSet::exhaustive(1).unwrap();
        let sim = simulate(&net, &p);
        let counts = local_pattern_counts(&net, &sim, k);
        assert_eq!(counts, vec![2]);
    }
}
