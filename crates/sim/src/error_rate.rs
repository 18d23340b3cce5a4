use crate::{lanes, simulate, PatternSet, SimResult, SimView};
use als_network::Network;

/// The error rate between two networks over a pattern set: the fraction of
/// patterns on which **any** primary output differs (the paper's error-rate
/// definition).
///
/// Both networks are simulated; use [`error_rate_vs_reference`] to reuse a
/// stored reference simulation across iterations.
///
/// # Panics
///
/// Panics if the networks disagree in PI or PO count, or the pattern set
/// drives a different PI count.
pub fn error_rate(golden: &Network, approx: &Network, patterns: &PatternSet) -> f64 {
    assert_eq!(golden.num_pos(), approx.num_pos(), "PO count mismatch");
    let ref_sim = simulate(golden, patterns);
    let ref_words = po_words(golden, &ref_sim);
    error_rate_vs_reference(&ref_words, approx, patterns)
}

/// Extracts the PO signature words of a simulated network, in PO order.
pub fn po_words(net: &Network, sim: &SimResult) -> Vec<Vec<u64>> {
    net.pos()
        .iter()
        .map(|(_, d)| sim.node_words(*d).to_vec())
        .collect()
}

/// The error rate of `approx` against stored reference PO signatures
/// (produced by [`po_words`] on the golden network with the *same* pattern
/// set).
///
/// # Panics
///
/// Panics if the reference PO count differs from the network's.
pub fn error_rate_vs_reference(
    reference: &[Vec<u64>],
    approx: &Network,
    patterns: &PatternSet,
) -> f64 {
    let sim = simulate(approx, patterns);
    error_rate_from_view(reference, approx, sim.view())
}

/// The error rate of already-simulated signatures (a [`SimView`], typically
/// an [`IncrementalSim`](crate::IncrementalSim)'s current state) against
/// stored reference PO signatures. Arithmetic is identical word-by-word to
/// [`error_rate_vs_reference`], so incremental and full measurement paths
/// produce bit-identical rates.
///
/// # Panics
///
/// Panics if the reference PO count differs from the network's.
pub fn error_rate_from_view(reference: &[Vec<u64>], approx: &Network, sim: SimView<'_>) -> f64 {
    assert_eq!(reference.len(), approx.num_pos(), "PO count mismatch");
    let mut any_diff = vec![0u64; sim.words_per_signal()];
    for (r, (_, d)) in reference.iter().zip(approx.pos()) {
        lanes::xor_or_accumulate(&mut any_diff, r, sim.node_words(*d));
    }
    let errors = lanes::popcount_masked(&any_diff, sim.tail_mask());
    errors as f64 / sim.num_patterns() as f64 // lint:allow(as-cast): counts << 2^52, exact in f64
}

/// Per-output error rates between two networks (fraction of patterns on
/// which each individual PO differs).
///
/// # Panics
///
/// Panics if the networks disagree in PO count.
pub fn per_output_error_rates(
    golden: &Network,
    approx: &Network,
    patterns: &PatternSet,
) -> Vec<f64> {
    assert_eq!(golden.num_pos(), approx.num_pos(), "PO count mismatch");
    let gs = simulate(golden, patterns);
    let asim = simulate(approx, patterns);
    let tail = gs.tail_mask();
    let n = patterns.num_patterns() as f64; // lint:allow(as-cast): counts << 2^52, exact in f64
    golden
        .pos()
        .iter()
        .zip(approx.pos())
        .map(|((_, gd), (_, ad))| {
            let gw = gs.node_words(*gd);
            let aw = asim.node_words(*ad);
            let mut diff = vec![0u64; gw.len()];
            lanes::xor_or_accumulate(&mut diff, gw, aw);
            lanes::popcount_masked(&diff, tail) as f64 / n // lint:allow(as-cast): counts << 2^52, exact in f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    fn and_or_pair() -> (Network, Network) {
        // golden: y = a·b; approx: y = a (wrong when a=1,b=0).
        let mut golden = Network::new("g");
        let a = golden.add_pi("a");
        let b = golden.add_pi("b");
        let y = golden.add_node(
            "y",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        golden.add_po("y", y);

        let mut approx = Network::new("a");
        let a2 = approx.add_pi("a");
        let _b2 = approx.add_pi("b");
        let y2 = approx.add_node("y", vec![a2], Cover::from_cubes(1, [cube(&[(0, true)])]));
        approx.add_po("y", y2);
        (golden, approx)
    }

    #[test]
    fn exact_error_rate_on_exhaustive_patterns() {
        let (g, a) = and_or_pair();
        let p = PatternSet::exhaustive(2).unwrap();
        // Differs only on (a=1, b=0): 1 of 4 patterns.
        assert!((error_rate(&g, &a, &p) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn identical_networks_have_zero_error() {
        let (g, _) = and_or_pair();
        let p = PatternSet::random(2, 1024, 3);
        assert_eq!(error_rate(&g, &g.clone(), &p), 0.0);
    }

    #[test]
    fn reference_reuse_matches_direct() {
        let (g, a) = and_or_pair();
        let p = PatternSet::exhaustive(2).unwrap();
        let gs = simulate(&g, &p);
        let refw = po_words(&g, &gs);
        let direct = error_rate(&g, &a, &p);
        let reused = error_rate_vs_reference(&refw, &a, &p);
        assert_eq!(direct, reused);
    }

    #[test]
    fn per_output_rates() {
        // Two POs: one exact, one approximated.
        let mut golden = Network::new("g2");
        let a = golden.add_pi("a");
        let b = golden.add_pi("b");
        let y1 = golden.add_node(
            "y1",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let y2 = golden.add_node(
            "y2",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        golden.add_po("y1", y1);
        golden.add_po("y2", y2);
        let mut approx = golden.clone();
        let d = approx.pos()[0].1;
        approx.replace_with_constant(d, false); // y1 ≡ 0
        let p = PatternSet::exhaustive(2).unwrap();
        let rates = per_output_error_rates(&golden, &approx, &p);
        assert!((rates[0] - 0.25).abs() < 1e-12); // ab = 1 on 1/4 patterns
        assert_eq!(rates[1], 0.0);
        // Whole-network rate equals the union of per-output errors here.
        assert!((error_rate(&golden, &approx, &p) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn random_error_rate_converges() {
        let (g, a) = and_or_pair();
        let p = PatternSet::random(2, 64 * 400, 11);
        let er = error_rate(&g, &a, &p);
        assert!((er - 0.25).abs() < 0.03, "sampled {er}");
    }
}
