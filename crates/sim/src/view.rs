use crate::SimResult;
use als_network::NodeId;

/// A borrowed, read-only view of a set of simulated signatures — either a
/// [`SimResult`] or the current state of an
/// [`IncrementalSim`](crate::IncrementalSim).
///
/// `SimView` is `Copy` and (being a shared borrow of plain data) `Send +
/// Sync`, so one simulation run can be fanned out across scoped worker
/// threads without cloning the signature words: every worker receives the
/// same view by value and reads the shared signatures concurrently. This is
/// the §3.2 "one simulation run serves every consumer" idea extended across
/// threads.
///
/// The backing storage upholds the canonical-tail invariant (unused bits of
/// each final word are zero), so signature equality is plain word equality.
#[derive(Clone, Copy, Debug)]
pub struct SimView<'a> {
    pub(crate) num_patterns: usize,
    pub(crate) words_per_signal: usize,
    pub(crate) tail_mask: u64,
    /// Flat signature arena; node `id` occupies
    /// `words[id.index() * words_per_signal ..][..words_per_signal]`.
    pub(crate) words: &'a [u64],
    /// Which arena slots hold a signature (dead slots are tombstones).
    pub(crate) live: &'a [bool],
}

impl<'a> SimView<'a> {
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

    /// The signature (value words) of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not live at simulation time.
    pub fn node_words(&self, id: NodeId) -> &'a [u64] {
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

    /// [`difference_count`](SimView::difference_count) with prefix
    /// probing: the scan starts at a `start_words`-word prefix and doubles
    /// its coverage only while the pair could still be *similar enough* —
    /// it stops early once the prefix alone proves both phases infeasible.
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

/// Result of one [`SimView::difference_probe`] scan.
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

impl SimResult {
    /// A borrowed view suitable for sharing across scoped threads.
    pub fn view(&self) -> SimView<'_> {
        SimView {
            num_patterns: self.num_patterns(),
            words_per_signal: self.words_per_signal(),
            tail_mask: self.tail_mask(),
            words: self.words(),
            live: self.live(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{local_pattern_counts_view, simulate, PatternSet};
    use als_logic::{Cover, Cube};
    use als_network::Network;

    fn and_net() -> (Network, NodeId) {
        let mut net = Network::new("and2");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let y = net.add_node(
            "y",
            vec![a, b],
            Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)]).unwrap()]),
        );
        net.add_po("y", y);
        (net, y)
    }

    #[test]
    fn view_mirrors_the_result() {
        let (net, y) = and_net();
        let p = PatternSet::exhaustive(2).unwrap();
        let sim = simulate(&net, &p);
        let view = sim.view();
        assert_eq!(view.num_patterns(), sim.num_patterns());
        assert_eq!(view.count_ones(y), sim.count_ones(y));
        assert_eq!(view.node_words(y), sim.node_words(y));
        assert_eq!(view.probability(y), sim.probability(y));
        let a = net.pis()[0];
        assert_eq!(view.node_value(a, 1), sim.node_value(a, 1));
        assert_eq!(view.difference_count(a, y), sim.difference_count(a, y));
        assert_eq!(view.signatures_equal(y, y), sim.signatures_equal(y, y));
    }

    #[test]
    fn difference_probe_matches_full_scan_and_only_early_exits_soundly() {
        // Two 8-PI signals over 256 patterns (4 words): a PI and a gate.
        let mut net = Network::new("probe");
        let pis: Vec<NodeId> = (0..8).map(|i| net.add_pi(format!("x{i}"))).collect();
        let y = net.add_node(
            "y",
            vec![pis[0], pis[1]],
            Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)]).unwrap()]),
        );
        net.add_po("y", y);
        let p = PatternSet::exhaustive(8).unwrap();
        let sim = simulate(&net, &p);
        let view = sim.view();
        let full = view.difference_count(pis[2], y);
        // Unbounded limits: the probe always completes with the exact count.
        let probe = view.difference_probe(pis[2], y, u64::MAX, Some(u64::MAX), 1);
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
        let tight = view.difference_probe(pis[2], y, 3, Some(3), 1);
        assert!(tight.early_exit);
        assert_eq!(tight.words_scanned, 1);
        assert!(tight.count > 3 && 64 - tight.count > 3);
        // A pair similar in the inverted phase is never early-exited by a
        // tight mismatch limit alone.
        let mut inv_net = Network::new("inv");
        let a = inv_net.add_pi("a");
        let filler = inv_net.add_pi("f");
        let na = inv_net.add_node(
            "na",
            vec![a],
            Cover::from_cubes(1, [Cube::from_literals(&[(0, false)]).unwrap()]),
        );
        inv_net.add_po("na", na);
        inv_net.add_po("f", filler);
        let p2 = PatternSet::random(2, 256, 7);
        let s2 = simulate(&inv_net, &p2);
        let v2 = s2.view();
        let inv_probe = v2.difference_probe(a, na, 0, Some(0), 1);
        assert!(!inv_probe.early_exit, "perfect inverse must scan fully");
        assert_eq!(inv_probe.count, 256, "a vs a' differs everywhere");
    }

    #[test]
    fn view_is_shareable_across_scoped_threads() {
        let (net, y) = and_net();
        let p = PatternSet::exhaustive(2).unwrap();
        let sim = simulate(&net, &p);
        let view = sim.view();
        let counts: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(move || view.count_ones(y)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(counts.iter().all(|&c| c == 1));
        let local = local_pattern_counts_view(&net, view, y);
        assert_eq!(local, vec![1, 1, 1, 1]);
    }
}
