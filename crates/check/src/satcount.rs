//! #SAT exact error-rate certification — the SAT-engine alternative to
//! [`als_bdd::exact_error_rate`].
//!
//! Builds a [`Miter`] between the golden and approximate networks in one
//! incremental solver — with **structural hashing** across the two copies,
//! so any cone the approximation left untouched is encoded once and shared,
//! and output pairs that collapse to the same solver variable are provably
//! equal and excluded from the miter up front — and enumerates the error
//! set as **disjoint** primary-input cubes (projected model counting): each satisfying
//! assignment of the miter is greedily enlarged to a cube — PIs are freed
//! one at a time in ascending index order — and every enlargement step is
//! validated by a *second* solver holding the complementary query "some
//! vector of the cube has equal outputs or lies in an already-counted
//! cube". A freed PI is kept free only when that query is UNSAT, so every
//! counted cube consists entirely of fresh error minterms and the cube
//! weights sum to the exact error count.
//!
//! The already-counted cubes are referenced through one-directional
//! selector literals (`sel → cube`) so the secondary solver's clause
//! database only ever grows monotonically; the per-round disjunction over
//! the selectors lives in a retractable clause group and is swept after
//! the round. The primary solver accumulates one blocking clause per cube.
//!
//! Counting is bit-exact (`u128` minterm arithmetic) up to 127 primary
//! inputs. Wider interfaces fall back to summing the dyadic cube weights
//! `2^-fixed` in `f64`, exact per term and within `cubes · ulp` overall —
//! far below the auditor's `1e-9` tolerance for any feasible cube count.

use crate::miter::Miter;
use als_network::Network;
use als_sat::{Lit, SatResult, Solver};

/// Early-cutoff slack against a claimed rate: the enumeration stops as
/// soon as the accumulated rate provably exceeds `claimed + CUTOFF_TOL`.
const CUTOFF_TOL: f64 = 1e-9;

/// Outcome of a SAT-based exact error-rate derivation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SatErrorRate {
    /// The error rate: exact when `truncated` is false, otherwise a sound
    /// lower bound already above the claimed rate.
    pub rate: f64,
    /// Disjoint PI cubes enumerated.
    pub cubes: usize,
    /// True when the enumeration cut off early because the accumulated
    /// rate exceeded the claimed rate — `rate` is then a lower bound.
    pub truncated: bool,
    /// Total SAT queries issued (miter + cube-validity checks).
    pub sat_queries: u64,
}

/// Errors from the SAT counting engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SatCountError {
    /// The two networks have different PI or PO counts.
    InterfaceMismatch,
    /// The error set needed more disjoint cubes than the limit allows; the
    /// structure is enumeration-hostile (mirror of the BDD node limit).
    CubeLimit {
        /// The limit that was hit.
        limit: usize,
    },
}

/// Exact minterm accumulator: bit-exact `u128` units up to 127 PIs, dyadic
/// `f64` weight summation above.
struct MintermCount {
    num_pis: usize,
    exact: Option<u128>,
    dyadic: f64,
}

impl MintermCount {
    fn new(num_pis: usize) -> Self {
        Self {
            num_pis,
            exact: (num_pis <= 127).then_some(0),
            dyadic: 0.0,
        }
    }

    /// Adds one disjoint cube fixing `fixed` of the PIs (covering
    /// `2^(num_pis - fixed)` minterms).
    fn add_cube(&mut self, fixed: usize) {
        match &mut self.exact {
            Some(count) => *count += 1u128 << (self.num_pis - fixed),
            None => {
                self.dyadic += f64::powi(
                    2.0,
                    -i32::try_from(fixed).expect("PI count fits i32"), // lint:allow(panic): bounded by the network interface
                );
            }
        }
    }

    fn rate(&self) -> f64 {
        match self.exact {
            Some(count) => {
                let total = f64::powi(
                    2.0,
                    i32::try_from(self.num_pis).expect("checked <= 127"), // lint:allow(panic): guarded at construction
                );
                count as f64 / total // lint:allow(as-cast): nearest-even rounding of the exact count
            }
            None => self.dyadic,
        }
    }
}

/// The **exact** error rate between two networks by projected model
/// counting: the density of the miter `∨ᵢ (fᵢ ⊕ f'ᵢ)` over all
/// `2^num_pis` input vectors, enumerated as at most `max_cubes` disjoint
/// PI cubes.
///
/// With `claimed = Some(r)` the enumeration stops early once the
/// accumulated rate provably exceeds `r` — the result is then flagged
/// [`truncated`](SatErrorRate::truncated) and its rate is a sound lower
/// bound (sufficient to refute the claim without finishing the count).
///
/// # Errors
///
/// Returns [`SatCountError::InterfaceMismatch`] when the interfaces
/// differ, or [`SatCountError::CubeLimit`] when the error set does not fit
/// in `max_cubes` disjoint cubes.
pub fn exact_error_rate_sat(
    golden: &Network,
    approx: &Network,
    max_cubes: usize,
    claimed: Option<f64>,
) -> Result<SatErrorRate, SatCountError> {
    if golden.num_pis() != approx.num_pis() || golden.num_pos() != approx.num_pos() {
        return Err(SatCountError::InterfaceMismatch);
    }
    let n = golden.num_pis();

    // Primary solver: SAT iff some not-yet-counted error input exists.
    // Output pairs sharing a variable after structural hashing are
    // provably equal and contribute no difference literal.
    let mut primary = Solver::new();
    let miter = Miter::build(&mut primary, golden, approx);
    let any = miter.difference_lits(&mut primary);
    let p_pis = miter.pis;
    if any.is_empty() {
        // Every output cone hashed to the same variable: the networks are
        // structurally identical up to node naming, hence equivalent.
        return Ok(SatErrorRate {
            rate: 0.0,
            cubes: 0,
            truncated: false,
            sat_queries: 0,
        });
    }
    primary.add_clause(&any);

    // Secondary solver: the cube-validity oracle. Selector literals, each
    // one-directional: `eq` forces the (non-shared) outputs equal, later
    // ones force membership in an already-counted cube.
    let mut secondary = Solver::new();
    let Miter { pis: s_pis, pairs } = Miter::build(&mut secondary, golden, approx);
    let eq = Lit::pos(secondary.new_var());
    for (g, a) in pairs {
        secondary.add_clause(&[!eq, Lit::neg(g), Lit::pos(a)]);
        secondary.add_clause(&[!eq, Lit::pos(g), Lit::neg(a)]);
    }
    let mut selectors: Vec<Lit> = vec![eq];

    let mut count = MintermCount::new(n);
    let mut cubes = 0usize;
    let mut queries = 0u64;
    let mut assumptions: Vec<Lit> = Vec::with_capacity(n + 1);
    loop {
        queries += 1;
        if primary.solve() == SatResult::Unsat {
            break;
        }
        if cubes == max_cubes {
            return Err(SatCountError::CubeLimit { limit: max_cubes });
        }
        // Read the model before any clause addition backtracks it away.
        let phases: Vec<bool> = p_pis
            .iter()
            .map(|&v| primary.value(v).unwrap_or(false))
            .collect();

        // Greedy cube enlargement in ascending PI order. The model itself
        // is a valid (fully fixed) cube: the miter clause makes it an
        // error input and the blocking clauses keep it out of every
        // counted cube. Freeing PI `i` stays accepted only when no vector
        // of the enlarged cube has equal outputs or was already counted.
        let mut fixed = vec![true; n];
        let round = secondary.new_group();
        secondary.add_clause_in(round, &selectors);
        for i in 0..n {
            fixed[i] = false;
            assumptions.clear();
            assumptions.push(round.lit());
            for j in 0..n {
                if fixed[j] {
                    assumptions.push(Lit::with_sign(s_pis[j], phases[j]));
                }
            }
            queries += 1;
            if secondary.solve_with_assumptions(&assumptions) != SatResult::Unsat {
                fixed[i] = true;
            }
        }
        secondary.retract(round);

        let fixed_count = fixed.iter().filter(|&&f| f).count();
        count.add_cube(fixed_count);
        cubes += 1;

        // Block the cube in the primary; an all-free cube covers the whole
        // space, and the resulting empty clause ends the enumeration.
        let blocking: Vec<Lit> = (0..n)
            .filter(|&j| fixed[j])
            .map(|j| Lit::with_sign(p_pis[j], !phases[j]))
            .collect();
        primary.add_clause(&blocking);
        // Register the cube behind a fresh selector in the secondary.
        let sel = Lit::pos(secondary.new_var());
        for j in (0..n).filter(|&j| fixed[j]) {
            secondary.add_clause(&[!sel, Lit::with_sign(s_pis[j], phases[j])]);
        }
        selectors.push(sel);

        if let Some(claim) = claimed {
            if count.rate() > claim + CUTOFF_TOL {
                return Ok(SatErrorRate {
                    rate: count.rate(),
                    cubes,
                    truncated: true,
                    sat_queries: queries,
                });
            }
        }
    }
    Ok(SatErrorRate {
        rate: count.rate(),
        cubes,
        truncated: false,
        sat_queries: queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};
    use als_network::NodeId;

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// y = a·b golden vs y = a approx: they differ exactly on a=1, b=0 —
    /// rate 1/4, one cube.
    fn and_vs_wire() -> (Network, Network) {
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
        approx.add_po("y", a2);
        (golden, approx)
    }

    #[test]
    fn identical_networks_have_rate_zero() {
        let (golden, _) = and_vs_wire();
        let r = exact_error_rate_sat(&golden, &golden.clone(), 16, None).unwrap();
        assert_eq!(r.rate, 0.0);
        assert_eq!(r.cubes, 0);
        assert!(!r.truncated);
        assert_eq!(
            r.sat_queries, 0,
            "structural hashing proves a clone equivalent without search"
        );
    }

    #[test]
    fn single_cube_difference_is_counted_exactly() {
        let (golden, approx) = and_vs_wire();
        let r = exact_error_rate_sat(&golden, &approx, 16, None).unwrap();
        assert!((r.rate - 0.25).abs() < 1e-15, "rate {}", r.rate);
        assert_eq!(r.cubes, 1, "a=1,b=0 is a single cube");
        assert!(!r.truncated);
    }

    #[test]
    fn complemented_output_covers_the_whole_space_in_one_cube() {
        let mut golden = Network::new("g");
        let a = golden.add_pi("a");
        let b = golden.add_pi("b");
        let y = golden.add_node(
            "y",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(0, false)])]),
        );
        golden.add_po("y", y);
        // Approx: constant 0 where golden is constant 1 → differ everywhere.
        let mut approx = Network::new("a");
        let a2 = approx.add_pi("a");
        let b2 = approx.add_pi("b");
        let z = approx.add_node("z", vec![a2, b2], Cover::constant_zero(2));
        approx.add_po("y", z);
        let r = exact_error_rate_sat(&golden, &approx, 16, None).unwrap();
        assert_eq!(r.rate, 1.0);
        assert_eq!(r.cubes, 1, "enlargement frees every PI");
    }

    #[test]
    fn interface_mismatch_is_reported() {
        let (golden, _) = and_vs_wire();
        let mut other = Network::new("o");
        let a = other.add_pi("a");
        other.add_po("y", a);
        assert_eq!(
            exact_error_rate_sat(&golden, &other, 16, None),
            Err(SatCountError::InterfaceMismatch)
        );
    }

    #[test]
    fn cube_limit_is_reported() {
        // Golden XOR vs constant 0: the error set {a≠b} needs two disjoint
        // cubes; a limit of 1 must trip.
        let mut golden = Network::new("g");
        let a = golden.add_pi("a");
        let b = golden.add_pi("b");
        let y = golden.add_node(
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
        golden.add_po("y", y);
        let mut approx = Network::new("a");
        let a2 = approx.add_pi("a");
        let b2 = approx.add_pi("b");
        let z = approx.add_node("z", vec![a2, b2], Cover::constant_zero(2));
        approx.add_po("y", z);
        assert_eq!(
            exact_error_rate_sat(&golden, &approx, 1, None),
            Err(SatCountError::CubeLimit { limit: 1 })
        );
        let r = exact_error_rate_sat(&golden, &approx, 4, None).unwrap();
        assert!((r.rate - 0.5).abs() < 1e-15);
        assert_eq!(r.cubes, 2);
    }

    #[test]
    fn early_cutoff_returns_a_truncated_lower_bound() {
        // XOR vs constant 0 has rate 0.5; claiming 0.1 lets the
        // enumeration stop after the first quarter-space cube.
        let mut golden = Network::new("g");
        let a = golden.add_pi("a");
        let b = golden.add_pi("b");
        let y = golden.add_node(
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
        golden.add_po("y", y);
        let mut approx = Network::new("a");
        let a2 = approx.add_pi("a");
        let b2 = approx.add_pi("b");
        let z = approx.add_node("z", vec![a2, b2], Cover::constant_zero(2));
        approx.add_po("y", z);
        let r = exact_error_rate_sat(&golden, &approx, 16, Some(0.1)).unwrap();
        assert!(r.truncated);
        assert_eq!(r.cubes, 1);
        assert!((r.rate - 0.25).abs() < 1e-15, "one quarter-space cube");
        assert!(r.rate > 0.1, "the lower bound already refutes the claim");
    }

    #[test]
    fn agrees_with_exhaustive_simulation_on_random_pairs() {
        use als_sim::PatternSet;
        // Cross-check against brute-force evaluation on a 4-PI pair.
        let mut golden = Network::new("g");
        let pis: Vec<NodeId> = (0..4).map(|i| golden.add_pi(format!("x{i}"))).collect();
        let u = golden.add_node(
            "u",
            vec![pis[0], pis[1]],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let v = golden.add_node(
            "v",
            vec![pis[2], pis[3]],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, false)])]),
        );
        let w = golden.add_node(
            "w",
            vec![u, v],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        golden.add_po("w", w);

        let mut approx = golden.clone();
        let ids: Vec<NodeId> = approx.internal_ids().collect();
        approx.replace_expr(
            ids[0],
            als_logic::Expr::Lit {
                var: 0,
                phase: true,
            },
        );

        let mut expect = 0usize;
        for m in 0..16u32 {
            let bits: Vec<bool> = (0..4).map(|i| m >> i & 1 == 1).collect();
            if golden.eval(&bits) != approx.eval(&bits) {
                expect += 1;
            }
        }
        let r = exact_error_rate_sat(&golden, &approx, 64, None).unwrap();
        assert!(
            (r.rate - expect as f64 / 16.0).abs() < 1e-15, // lint:allow(as-cast): count <= 16
            "sat {} vs exhaustive {expect}/16",
            r.rate
        );
        // And against the sampled estimator on the full pattern space.
        let patterns = PatternSet::exhaustive(4).unwrap();
        let sampled = als_sim::error_rate(&golden, &approx, &patterns);
        assert!((r.rate - sampled).abs() < 1e-15);
    }
}
