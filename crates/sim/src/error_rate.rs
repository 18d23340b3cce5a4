use crate::{lanes, simulate, PatternSet, SimResult};
use als_network::Network;

/// The error rate between two networks over a pattern set: the fraction of
/// patterns on which **any** primary output differs (the paper's error-rate
/// definition).
///
/// Both networks are simulated; a synthesis run measures with
/// [`error_rate_from_sim`] against golden signatures stored once.
///
/// # Panics
///
/// Panics if the networks disagree in PI or PO count, or the pattern set
/// drives a different PI count.
pub fn error_rate(golden: &Network, approx: &Network, patterns: &PatternSet) -> f64 {
    assert_eq!(golden.num_pos(), approx.num_pos(), "PO count mismatch");
    let reference = po_words(golden, &simulate(golden, patterns));
    error_rate_from_sim(&reference, approx, &simulate(approx, patterns))
}

/// Extracts the PO signature words of a simulated network, in PO order.
pub fn po_words(net: &Network, sim: &SimResult) -> Vec<Vec<u64>> {
    net.pos()
        .iter()
        .map(|(_, d)| sim.node_words(*d).to_vec())
        .collect()
}

/// The error rate of `approx`, whose current signatures are `sim`, against
/// stored reference PO signatures (produced by [`po_words`] on the golden
/// network with the *same* pattern set).
///
/// # Panics
///
/// Panics if the reference PO count differs from the network's.
pub fn error_rate_from_sim(reference: &[Vec<u64>], approx: &Network, sim: &SimResult) -> f64 {
    assert_eq!(reference.len(), approx.num_pos(), "PO count mismatch");
    let mut any_diff = vec![0u64; sim.words_per_signal()];
    for (r, (_, d)) in reference.iter().zip(approx.pos()) {
        lanes::xor_or_accumulate(&mut any_diff, r, sim.node_words(*d));
    }
    let errors = lanes::popcount_masked(&any_diff, sim.tail_mask());
    errors as f64 / sim.num_patterns() as f64 // lint:allow(as-cast): counts << 2^52, exact in f64
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
        let refw = po_words(&g, &simulate(&g, &p));
        let direct = error_rate(&g, &a, &p);
        let reused = error_rate_from_sim(&refw, &a, &simulate(&a, &p));
        assert_eq!(direct, reused);
    }

    #[test]
    fn a_pattern_counts_once_however_many_outputs_differ() {
        // y1 = a·b and y2 = a + b, both approximated by constant 0: y1 is
        // wrong on 11, y2 on 01, 10 and 11, so the network is wrong on 3/4.
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
        approx.replace_with_constant(y1, false);
        approx.replace_with_constant(y2, false);
        let p = PatternSet::exhaustive(2).unwrap();
        assert!((error_rate(&golden, &approx, &p) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn random_error_rate_converges() {
        let (g, a) = and_or_pair();
        let p = PatternSet::random(2, 64 * 400, 11);
        let er = error_rate(&g, &a, &p);
        assert!((er - 0.25).abs() < 0.03, "sampled {er}");
    }
}
