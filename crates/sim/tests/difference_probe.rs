//! Oracle for SASIMI's pair probe: [`SimResult::difference_probe`] against
//! the full-width [`SimResult::difference_count`].
//!
//! SASIMI's candidate scan probes every (target, substitute) pair from a
//! one-word prefix and drops the pairs the probe stops early on. That is
//! exact when two things hold, which this suite checks over random networks,
//! pattern counts with a partial last word, start widths and limits:
//!
//! * an early stop means the full count makes both phases infeasible: the
//!   mismatches exceed `max_mismatches`, and the matches `N − diff` exceed
//!   `max_matches` (or the inverted phase was ruled out with `None`);
//! * a scan that runs to the end returns the full count.
//!
//! [`SimResult::difference_probe`]: als_sim::SimResult::difference_probe
//! [`SimResult::difference_count`]: als_sim::SimResult::difference_count

mod common;

use als_network::NodeId;
use als_sim::{simulate, PatternSet};
use common::random_network;
use proptest::{seed_from_name, TestRng};

/// A limit in `[0, n]`, drawn small half the time so that both early stops
/// and full scans occur.
fn random_limit(rng: &mut TestRng, n: u64) -> u64 {
    if rng.below(2) == 0 {
        rng.below(n / 8 + 1)
    } else {
        rng.below(n + 1)
    }
}

#[test]
fn difference_probe_agrees_with_the_full_count() {
    let mut rng = TestRng::new(seed_from_name(
        "difference_probe_agrees_with_the_full_count",
    ));
    let (mut early, mut full_scans) = (0u64, 0u64);
    for case in 0..16 {
        let net = random_network(&mut rng, case);
        let ids: Vec<NodeId> = net.node_ids().collect();
        for num_patterns in [1usize, 63, 64, 65, 200, 256, 383] {
            let vectors: Vec<u64> = (0..num_patterns).map(|_| rng.next_u64()).collect();
            let patterns = PatternSet::from_vectors(net.num_pis(), &vectors);
            let sim = simulate(&net, &patterns);
            let n = num_patterns as u64;
            let wps = sim.words_per_signal();
            for &a in &ids {
                for &b in &ids {
                    let max_mismatches = random_limit(&mut rng, n);
                    let max_matches = (rng.below(4) > 0).then(|| random_limit(&mut rng, n));
                    // SASIMI's start width most of the time; any width,
                    // including out-of-range ones the probe clamps, else.
                    let start_words = if rng.below(2) == 0 {
                        1
                    } else {
                        rng.below(wps as u64 + 2) as usize
                    };
                    let diff = sim.difference_count(a, b);
                    let probe =
                        sim.difference_probe(a, b, max_mismatches, max_matches, start_words);
                    let what = format!(
                        "case {case}, {num_patterns} patterns, {a}/{b}, limits \
                         {max_mismatches}/{max_matches:?}, start {start_words}: {probe:?}, \
                         full count {diff}"
                    );
                    if probe.early_exit {
                        early += 1;
                        assert!(diff > max_mismatches, "same phase feasible: {what}");
                        assert!(
                            max_matches.is_none_or(|mm| n - diff > mm),
                            "inverted phase feasible: {what}"
                        );
                        assert!(probe.words_scanned < wps as u64, "{what}");
                    } else {
                        full_scans += 1;
                        assert_eq!(probe.count, diff, "{what}");
                        assert_eq!(probe.words_scanned, wps as u64, "{what}");
                    }
                }
            }
        }
    }
    assert!(early > 0, "vacuous: the probe never stopped early");
    assert!(
        full_scans > 0,
        "vacuous: the probe never scanned to the end"
    );
}
