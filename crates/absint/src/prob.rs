//! Signal-probability analysis: a sound interval `[lo, hi]` on
//! `P(signal = 1)` for every node of a network.
//!
//! The analysis is a single forward pass in topological order. Each
//! internal node's interval is computed from its fanin intervals by a
//! *transfer function* over the node's local Boolean function:
//!
//! * for small fanin windows (≤ [`MAX_MINTERM_VARS`]) the local function is
//!   expanded into its minterms and the on-set mass is bounded with
//!   [`MintermBounds`] — per-minterm joint bounds from the fanin marginals;
//! * for wider windows the factored form is evaluated as an expression tree
//!   over the interval lattice, which is coarser but works for any width.
//!
//! The joint-bound rule is chosen by the [`Policy`]: the independence
//! product rule is only sound between signals whose primary-input support
//! sets are disjoint — signals below a reconvergent fanout share support
//! and are correlated even under independent inputs (see
//! [`als_network::structure::reconvergent_sources`]), and *any* two signals
//! are correlated under the empirical measure of a fixed simulation pattern
//! set. Where independence cannot be justified, the worst-case Fréchet
//! bounds are used; they are sound for every joint distribution.

use crate::local::MAX_MINTERM_VARS;
use crate::{Interval, MintermBounds};
use als_logic::Expr;
use als_network::{Network, NodeId};

/// How the analysis combines fanin probabilities into joint bounds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Policy {
    /// Sound for *independent, exactly-distributed* primary inputs (the
    /// `P(xᵢ = 1) = ½` product-distribution model): the independence
    /// product rule is applied only where the fanins' primary-input
    /// supports are pairwise disjoint; everywhere else — i.e. below
    /// reconvergent fanout — the Fréchet bounds take over. The resulting
    /// intervals contain the exact (BDD-computable) signal probabilities.
    Exact,
    /// Sound for the *empirical* distribution of a fixed simulation
    /// pattern set: no independence anywhere (two signals are always
    /// correlated under a finite sample), Fréchet bounds throughout. Seed
    /// the primary inputs with their empirical frequencies and the
    /// resulting intervals contain every node's simulated frequency.
    SampleSound,
    /// Deliberately **unsound**: the product rule everywhere, ignoring
    /// reconvergence. Exists so the test suite can demonstrate that the
    /// soundness property detects a broken transfer function — on a
    /// reconvergent network this policy produces intervals that exclude
    /// the true probability.
    IndependenceEverywhere,
}

/// The result of a signal-probability analysis.
#[derive(Clone, Debug)]
pub struct SignalProbabilities {
    /// Arena-indexed interval per node (`UNIT` for tombstoned slots).
    intervals: Vec<Interval>,
    /// Arena-indexed: `true` where the transfer had to fall back to the
    /// worst-case rule although the policy would have allowed independence
    /// (shared fanin support — the reconvergence witness).
    frechet_forced: Vec<bool>,
}

impl SignalProbabilities {
    /// The interval of one node.
    pub fn interval(&self, id: NodeId) -> Interval {
        self.intervals[id.index()]
    }

    /// Nodes where shared fanin support forced the worst-case rule under
    /// [`Policy::Exact`] — the nodes below reconvergent fanout.
    pub fn frechet_forced(&self, id: NodeId) -> bool {
        self.frechet_forced[id.index()]
    }

    /// How many nodes fell back to the worst-case rule.
    pub fn frechet_count(&self) -> usize {
        self.frechet_forced.iter().filter(|&&b| b).count()
    }
}

/// Evaluates `expr` over the interval lattice with the given gate rule —
/// the any-width fallback transfer. `independent` selects the product rule
/// (caller guarantees soundness); otherwise Fréchet. Repeated variables in
/// the tree are handled soundly by Fréchet (it assumes nothing); under the
/// product rule they are treated as fresh occurrences, which is exactly the
/// unsoundness [`Policy::IndependenceEverywhere`] exists to demonstrate.
fn eval_expr(expr: &Expr, fanin: &[Interval], independent: bool) -> Interval {
    match expr {
        Expr::Const(b) => {
            if *b {
                Interval::ONE
            } else {
                Interval::ZERO
            }
        }
        Expr::Lit { var, phase } => {
            let i = fanin[*var];
            if *phase {
                i
            } else {
                i.complement()
            }
        }
        Expr::And(children) => children
            .iter()
            .map(|c| eval_expr(c, fanin, independent))
            .fold(Interval::ONE, |acc, x| {
                if independent {
                    acc.and_independent(&x)
                } else {
                    acc.and_frechet(&x)
                }
            }),
        Expr::Or(children) => children
            .iter()
            .map(|c| eval_expr(c, fanin, independent))
            .fold(Interval::ZERO, |acc, x| {
                if independent {
                    acc.or_independent(&x)
                } else {
                    acc.or_frechet(&x)
                }
            }),
    }
}

/// One node's transfer: fanin intervals → the node's interval.
fn transfer(expr: &Expr, k: usize, fanin: &[Interval], independent: bool) -> Interval {
    if let Some(c) = expr.as_constant() {
        return if c { Interval::ONE } else { Interval::ZERO };
    }
    if k <= MAX_MINTERM_VARS {
        let tt = expr.to_truth_table(k);
        let bounds = if independent {
            MintermBounds::from_marginals_independent(fanin)
        } else {
            MintermBounds::from_marginals_frechet(fanin)
        };
        bounds.set_probability(&tt)
    } else if independent && expr_repeats_a_variable(expr) {
        // The tree fallback would multiply a variable with itself; only
        // Fréchet stays sound there.
        eval_expr(expr, fanin, false)
    } else {
        eval_expr(expr, fanin, independent)
    }
}

/// Whether any local variable occurs more than once in the factored form
/// (e.g. `x₀x₁ + ¬x₀x₂`) — tree evaluation under the product rule would
/// treat the occurrences as independent, which is wrong even for
/// independent fanins.
fn expr_repeats_a_variable(expr: &Expr) -> bool {
    fn count(expr: &Expr, seen: &mut Vec<u32>) -> bool {
        match expr {
            Expr::Const(_) => false,
            Expr::Lit { var, .. } => {
                if seen.len() <= *var {
                    seen.resize(*var + 1, 0);
                }
                seen[*var] += 1;
                seen[*var] > 1
            }
            Expr::And(cs) | Expr::Or(cs) => cs.iter().any(|c| count(c, seen)),
        }
    }
    count(expr, &mut Vec::new())
}

/// Runs the analysis with every primary input at the exact unbiased point
/// `[½, ½]` — the distribution model of the paper's error-rate measure.
pub fn signal_probabilities(net: &Network, policy: Policy) -> SignalProbabilities {
    let half = vec![Interval::point(0.5); net.pis().len()];
    signal_probabilities_seeded(net, policy, &half)
}

/// Runs the analysis with caller-provided primary-input intervals (e.g.
/// empirical frequencies for [`Policy::SampleSound`]).
///
/// # Panics
///
/// Panics if `pi_probs` does not match the network's primary-input count.
pub fn signal_probabilities_seeded(
    net: &Network,
    policy: Policy,
    pi_probs: &[Interval],
) -> SignalProbabilities {
    assert_eq!(
        pi_probs.len(),
        net.pis().len(),
        "one seed interval per primary input"
    );
    let arena = net.arena_len();
    let mut intervals = vec![Interval::UNIT; arena];
    let mut frechet_forced = vec![false; arena];

    for (pi, seed) in net.pis().iter().zip(pi_probs) {
        intervals[pi.index()] = *seed;
    }

    // Incrementally built PI-support bitmaps (only needed to justify
    // independence under the Exact policy).
    let num_pis = net.pis().len();
    let support_words = num_pis.div_ceil(64).max(1);
    let mut support = vec![vec![0u64; support_words]; arena];
    if policy == Policy::Exact {
        for (i, pi) in net.pis().iter().enumerate() {
            support[pi.index()][i / 64] |= 1u64 << (i % 64);
        }
    }

    for id in net.topo_order() {
        let node = net.node(id);
        if node.is_pi() {
            continue;
        }
        let fanins = node.fanins();
        let k = fanins.len();
        let fanin_intervals: Vec<Interval> = fanins.iter().map(|f| intervals[f.index()]).collect();

        let (independent, forced) = match policy {
            Policy::IndependenceEverywhere => (true, false),
            Policy::SampleSound => (false, false),
            Policy::Exact => {
                // Independence holds iff the fanins' PI supports are
                // pairwise disjoint; overlap means a reconvergent source
                // (often a primary input itself) feeds two fanin cones.
                let mut union = vec![0u64; support_words];
                let mut disjoint = true;
                'fanins: for f in fanins {
                    for (u, s) in union.iter_mut().zip(&support[f.index()]) {
                        if *u & *s != 0 {
                            disjoint = false;
                            break 'fanins;
                        }
                        *u |= *s;
                    }
                }
                (disjoint, !disjoint && k > 1)
            }
        };

        intervals[id.index()] = transfer(node.expr(), k, &fanin_intervals, independent);
        frechet_forced[id.index()] = forced;

        if policy == Policy::Exact {
            let mut acc = vec![0u64; support_words];
            for f in fanins {
                for (a, s) in acc.iter_mut().zip(&support[f.index()]) {
                    *a |= *s;
                }
            }
            support[id.index()] = acc;
        }
    }

    SignalProbabilities {
        intervals,
        frechet_forced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// u = a·b over two independent PIs.
    #[test]
    fn independent_and_is_a_point() {
        let mut net = Network::new("and2");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let u = net.add_node(
            "u",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        net.add_po("u", u);
        let probs = signal_probabilities(&net, Policy::Exact);
        let i = probs.interval(u);
        assert!((i.lo - 0.25).abs() < 1e-12 && (i.hi - 0.25).abs() < 1e-12);
        assert!(!probs.frechet_forced(u));
    }

    /// s = a, t = ¬a, u = s·t: exactly zero, and only the Fréchet rule
    /// (triggered by the shared support) keeps the interval sound.
    #[test]
    fn reconvergence_forces_frechet_and_stays_sound() {
        let mut net = Network::new("reconv");
        let a = net.add_pi("a");
        let s = net.add_node("s", vec![a], Cover::from_cubes(1, [cube(&[(0, true)])]));
        let t = net.add_node("t", vec![a], Cover::from_cubes(1, [cube(&[(0, false)])]));
        let u = net.add_node(
            "u",
            vec![s, t],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        net.add_po("u", u);

        let exact = signal_probabilities(&net, Policy::Exact);
        assert!(exact.frechet_forced(u));
        assert_eq!(exact.frechet_count(), 1);
        // True probability is 0: the sound interval must contain it.
        assert!(exact.interval(u).contains(0.0));

        // The deliberately unsound policy multiplies 0.5 · 0.5 = 0.25 and
        // *excludes* the truth — the mutation the soundness suite catches.
        let unsound = signal_probabilities(&net, Policy::IndependenceEverywhere);
        assert!(!unsound.interval(u).contains(0.0));
    }

    #[test]
    fn sample_sound_uses_frechet_even_with_disjoint_support() {
        let mut net = Network::new("and2");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let u = net.add_node(
            "u",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        net.add_po("u", u);
        let probs = signal_probabilities_seeded(
            &net,
            Policy::SampleSound,
            &[Interval::point(0.5), Interval::point(0.5)],
        );
        let i = probs.interval(u);
        // Under a finite sample the AND frequency can be anything in
        // [0, 0.5] — e.g. patterns where a and b never overlap.
        assert!(i.contains(0.0) && i.contains(0.5));
    }

    #[test]
    fn constants_are_points() {
        let mut net = Network::new("consts");
        let a = net.add_pi("a");
        let zero = net.add_node("zero", vec![], Cover::constant_zero(0));
        let one = net.add_node("one", vec![], Cover::constant_one(0));
        let buf = net.add_node("buf", vec![a], Cover::from_cubes(1, [cube(&[(0, true)])]));
        net.add_po("zero", zero);
        net.add_po("one", one);
        net.add_po("buf", buf);
        let probs = signal_probabilities(&net, Policy::Exact);
        assert_eq!(probs.interval(zero), Interval::ZERO);
        assert_eq!(probs.interval(one), Interval::ONE);
        assert_eq!(probs.interval(buf), Interval::point(0.5));
    }

    #[test]
    fn repeated_variable_detection() {
        use als_logic::Expr;
        let repeat = Expr::or(vec![
            Expr::and(vec![Expr::lit(0, true), Expr::lit(1, true)]),
            Expr::and(vec![Expr::lit(0, false), Expr::lit(2, true)]),
        ]);
        assert!(expr_repeats_a_variable(&repeat));
        let linear = Expr::and(vec![Expr::lit(0, true), Expr::lit(1, false)]);
        assert!(!expr_repeats_a_variable(&linear));
    }
}
