//! Numeric error-magnitude measurement.
//!
//! The paper constrains the **error rate** and names the combined
//! rate-plus-magnitude problem as future work (§7). This module provides the
//! measurement side of that extension: interpreting the POs as a
//! little-endian binary number (PO `i` has weight `2^i`, the convention of
//! every arithmetic circuit in `als-circuits`), it reports the maximal and
//! mean absolute deviation of an approximate network from golden reference
//! signatures.

use crate::{po_words, simulate, PatternSet, SimResult};
use als_network::Network;

/// The most primary outputs a magnitude measurement reads: the POs form one
/// `u128` value.
pub const MAX_MAGNITUDE_OUTPUTS: usize = 128;

/// Deviation statistics of an approximate network over a pattern set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MagnitudeStats {
    /// The worst absolute deviation over all patterns (the paper's "error
    /// magnitude" metric).
    pub max_abs: u128,
    /// The mean absolute deviation.
    pub mean_abs: f64,
    /// Number of patterns with any deviation (numerator of the error rate).
    pub num_erroneous: u64,
}

/// Measures deviation statistics of `approx`, whose current signatures are
/// `sim`, against golden PO signatures (produced by [`po_words`] on the
/// same pattern set). PO `i` is weighted `2^i`.
///
/// # Panics
///
/// Panics if the reference PO count differs from the network's, or exceeds
/// [`MAX_MAGNITUDE_OUTPUTS`].
pub fn magnitude_stats_from_sim(
    reference: &[Vec<u64>],
    approx: &Network,
    sim: &SimResult,
) -> MagnitudeStats {
    assert_eq!(reference.len(), approx.num_pos(), "PO count mismatch");
    assert!(
        approx.num_pos() <= MAX_MAGNITUDE_OUTPUTS,
        "magnitude interpretation limited to {MAX_MAGNITUDE_OUTPUTS} outputs"
    );
    let approx_words: Vec<&[u64]> = approx
        .pos()
        .iter()
        .map(|(_, d)| sim.node_words(*d))
        .collect();

    let mut max_abs = 0u128;
    let mut sum_abs = 0f64;
    let mut num_erroneous = 0u64;
    for p in 0..sim.num_patterns() {
        let w = p / 64;
        let b = p % 64;
        let mut golden_value = 0u128;
        let mut approx_value = 0u128;
        for (i, (r, a)) in reference.iter().zip(&approx_words).enumerate() {
            if r[w] >> b & 1 == 1 {
                golden_value |= 1 << i;
            }
            if a[w] >> b & 1 == 1 {
                approx_value |= 1 << i;
            }
        }
        let diff = golden_value.abs_diff(approx_value);
        if diff != 0 {
            num_erroneous += 1;
            max_abs = max_abs.max(diff);
            sum_abs += diff as f64; // lint:allow(as-cast): counts << 2^52, exact in f64
        }
    }
    MagnitudeStats {
        max_abs,
        mean_abs: sum_abs / sim.num_patterns() as f64, // lint:allow(as-cast): counts << 2^52, exact in f64
        num_erroneous,
    }
}

/// Convenience wrapper measuring one network against another directly.
///
/// # Panics
///
/// Same conditions as [`magnitude_stats_from_sim`], plus a PI-count
/// mismatch between the networks and pattern set.
pub fn magnitude_stats(
    golden: &Network,
    approx: &Network,
    patterns: &PatternSet,
) -> MagnitudeStats {
    let reference = po_words(golden, &simulate(golden, patterns));
    magnitude_stats_from_sim(&reference, approx, &simulate(approx, patterns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// golden: y1y0 = (a, a·b); approx drops the AND: y1y0 = (a, a).
    fn pair() -> (Network, Network) {
        let mut golden = Network::new("g");
        let a = golden.add_pi("a");
        let b = golden.add_pi("b");
        let y0 = golden.add_node(
            "y0",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let y1 = golden.add_node("y1", vec![a], Cover::from_cubes(1, [cube(&[(0, true)])]));
        golden.add_po("y0", y0);
        golden.add_po("y1", y1);

        let mut approx = golden.clone();
        let d0 = approx.pos()[0].1;
        approx.replace_expr(d0, als_logic::Expr::lit(0, true)); // y0 := a
        (golden, approx)
    }

    #[test]
    fn deviation_on_exhaustive_patterns() {
        let (golden, approx) = pair();
        let p = PatternSet::exhaustive(2).unwrap();
        let stats = magnitude_stats(&golden, &approx, &p);
        // Wrong only at (a=1, b=0): golden 10₂=2, approx 11₂=3 → diff 1.
        assert_eq!(stats.max_abs, 1);
        assert_eq!(stats.num_erroneous, 1);
        assert!((stats.mean_abs - 0.25).abs() < 1e-12);
    }

    #[test]
    fn identical_networks_have_zero_magnitude() {
        let (golden, _) = pair();
        let p = PatternSet::random(2, 512, 9);
        let stats = magnitude_stats(&golden, &golden.clone(), &p);
        assert_eq!(stats.max_abs, 0);
        assert_eq!(stats.num_erroneous, 0);
        assert_eq!(stats.mean_abs, 0.0);
    }

    #[test]
    fn msb_errors_weigh_more() {
        let (golden, _) = pair();
        let mut approx = golden.clone();
        let d1 = approx.pos()[1].1;
        approx.replace_with_constant(d1, false); // y1 := 0, wrong whenever a=1
        let p = PatternSet::exhaustive(2).unwrap();
        let stats = magnitude_stats(&golden, &approx, &p);
        assert_eq!(stats.max_abs, 2, "MSB flip costs 2^1");
        assert_eq!(stats.num_erroneous, 2);
    }
}
