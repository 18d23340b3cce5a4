//! Error-interval analysis: sound bounds on the probability that an
//! approximate network's signals and outputs *differ* from a golden
//! reference.
//!
//! The abstract domain assigns every approximate node `v` an interval on
//! its **error probability** `e_v = P(approx_v ≠ golden_v)`. Primary
//! inputs carry `e = 0` (the interfaces are matched by name); an internal
//! node combines
//!
//! * the *local-diff* probability `d_v` — the chance its own local function
//!   disagrees with the golden node of the same name on identical inputs,
//!   priced over the golden signal distribution with [`MintermBounds`] —
//!   with
//! * the propagated fanin errors, via the sound transfer
//!   `e_v ∈ [max(0, lo(d_v) − Σᵢ hi(e_i)), min(1, hi(d_v) + Σᵢ hi(e_i))]`
//!
//! (an error appears at `v` only through a local diff or a fanin error;
//! fanin errors can also *mask* a local diff, hence the subtraction in the
//! lower bound). Nodes without a golden counterpart fall back to the top
//! interval, which is always sound.
//!
//! For the common single-rewrite question — "this one node's function
//! changed; how wrong can the outputs get?" — [`single_change_bounds`]
//! restricts propagation to the node's transitive-fanout cone (everything
//! outside is exactly `e = 0`) and sharpens every output's upper bound
//! through the fanout dominator tree: each dominator of the changed node is
//! a mandatory waypoint for the error, so its bound caps every output.

use crate::local::MAX_MINTERM_VARS;
use crate::prob::signal_probabilities_seeded;
use crate::{Interval, MintermBounds, Policy, SignalProbabilities};
use als_logic::Expr;
use als_network::structure::{tfo_cone, OutputDominators};
use als_network::{Network, NodeId};
use std::collections::HashMap;
use std::fmt;

/// Why an error analysis could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbsintError {
    /// Human-readable cause.
    pub message: String,
}

impl fmt::Display for AbsintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "absint: {}", self.message)
    }
}

impl std::error::Error for AbsintError {}

fn err(message: impl Into<String>) -> AbsintError {
    AbsintError {
        message: message.into(),
    }
}

/// One primary output's error interval.
#[derive(Clone, Debug, PartialEq)]
pub struct OutputBound {
    /// The output's name.
    pub name: String,
    /// Sound bounds on `P(approx output ≠ golden output)`.
    pub interval: Interval,
}

/// The result of an error-interval analysis.
#[derive(Clone, Debug)]
pub struct ErrorBounds {
    /// Per-output error intervals, in primary-output order.
    pub per_output: Vec<OutputBound>,
    /// Sound bounds on the paper's error rate — the probability that *any*
    /// output differs on a pattern.
    pub combined: Interval,
    /// Arena-indexed per-signal error intervals (approximate network ids).
    signal: Vec<Interval>,
}

impl ErrorBounds {
    /// The error interval of one signal of the approximate network.
    pub fn signal_error(&self, id: NodeId) -> Interval {
        self.signal[id.index()]
    }
}

/// Combines per-output intervals into the any-output-differs rate: every
/// output differing is one way for the pattern to err (`max` of lower
/// bounds) and the union bound caps the top.
fn combine_outputs(per_output: &[OutputBound]) -> Interval {
    let lo = per_output
        .iter()
        .fold(0.0f64, |acc, o| acc.max(o.interval.lo));
    let hi = per_output.iter().map(|o| o.interval.hi).sum::<f64>();
    Interval::new(lo, hi.min(1.0))
}

/// The golden side of a name match: a local function plus the names of the
/// signals it reads (a primary input reads itself).
fn golden_local(golden: &Network, id: NodeId) -> (Expr, Vec<String>) {
    let node = golden.node(id);
    if node.is_pi() {
        (Expr::lit(0, true), vec![node.name().to_string()])
    } else {
        (
            node.expr().clone(),
            node.fanins()
                .iter()
                .map(|f| golden.node(*f).name().to_string())
                .collect(),
        )
    }
}

/// Bounds the probability that the two local functions disagree when both
/// are evaluated on the golden values of their (union) input signals.
fn local_diff(
    golden: &Network,
    golden_ids: &HashMap<String, NodeId>,
    probs: &SignalProbabilities,
    approx_expr: &Expr,
    approx_fanin_names: &[String],
    golden_id: NodeId,
) -> Interval {
    let (g_expr, g_names) = golden_local(golden, golden_id);
    if *approx_expr == g_expr && approx_fanin_names == g_names.as_slice() {
        return Interval::ZERO;
    }
    // Union variable space: approximate fanins first, then the golden-only
    // ones. Every union signal must exist in the golden network so its
    // marginal (and its "golden value") is defined.
    let mut union: Vec<String> = approx_fanin_names.to_vec();
    for name in &g_names {
        if !union.contains(name) {
            union.push(name.clone());
        }
    }
    if union.len() > MAX_MINTERM_VARS
        || approx_fanin_names
            .iter()
            .any(|n| !golden_ids.contains_key(n))
    {
        return Interval::UNIT;
    }
    let g_map: Vec<usize> = g_names
        .iter()
        .map(|n| union.iter().position(|u| u == n).unwrap_or(0))
        .collect();
    let (Ok(tt_a), Ok(tt_g)) = (
        approx_expr.try_to_truth_table(union.len()),
        g_expr.remap(&g_map).try_to_truth_table(union.len()),
    ) else {
        return Interval::UNIT;
    };
    let diff = &tt_a ^ &tt_g;
    if diff.is_zero() {
        return Interval::ZERO;
    }
    let marginals: Vec<Interval> = union
        .iter()
        .map(|n| {
            golden_ids
                .get(n)
                .map_or(Interval::UNIT, |id| probs.interval(*id))
        })
        .collect();
    // Signals in a local neighbourhood are rarely support-disjoint, so the
    // diff set is always priced with the worst-case joint bounds.
    MintermBounds::from_marginals_frechet(&marginals).set_probability(&diff)
}

/// Computes sound per-output and combined error intervals for `approx`
/// against `golden`.
///
/// `policy` selects the signal-probability model used to price local
/// diffs: [`Policy::Exact`] bounds the true (BDD) error rate under uniform
/// independent inputs; [`Policy::SampleSound`] (seed the PIs with
/// empirical frequencies via [`error_bounds_seeded`]) bounds the simulated
/// rate on that pattern set.
///
/// # Errors
///
/// Returns an error when the two networks' primary interfaces differ.
pub fn error_bounds(
    golden: &Network,
    approx: &Network,
    policy: Policy,
) -> Result<ErrorBounds, AbsintError> {
    let half = vec![Interval::point(0.5); golden.pis().len()];
    error_bounds_seeded(golden, approx, policy, &half)
}

/// [`error_bounds`] with caller-provided primary-input probability
/// intervals (shared by both networks — the interfaces are matched).
///
/// # Errors
///
/// Returns an error when the two networks' primary interfaces differ or
/// the seed count does not match the primary-input count.
pub fn error_bounds_seeded(
    golden: &Network,
    approx: &Network,
    policy: Policy,
    pi_probs: &[Interval],
) -> Result<ErrorBounds, AbsintError> {
    let pi_names = |net: &Network| -> Vec<String> {
        net.pis()
            .iter()
            .map(|p| net.node(*p).name().to_string())
            .collect()
    };
    if pi_names(golden) != pi_names(approx) {
        return Err(err("primary-input interfaces differ"));
    }
    let po_names =
        |net: &Network| -> Vec<String> { net.pos().iter().map(|(n, _)| n.clone()).collect() };
    if po_names(golden) != po_names(approx) {
        return Err(err("primary-output interfaces differ"));
    }
    if pi_probs.len() != golden.pis().len() {
        return Err(err("one seed interval per primary input"));
    }

    let probs = signal_probabilities_seeded(golden, policy, pi_probs);
    let golden_ids: HashMap<String, NodeId> = golden
        .node_ids()
        .map(|id| (golden.node(id).name().to_string(), id))
        .collect();

    let arena = approx.arena_len();
    let mut signal = vec![Interval::UNIT; arena];
    for pi in approx.pis() {
        signal[pi.index()] = Interval::ZERO;
    }
    for id in approx.topo_order() {
        let node = approx.node(id);
        if node.is_pi() {
            continue;
        }
        let fanin_names: Vec<String> = node
            .fanins()
            .iter()
            .map(|f| approx.node(*f).name().to_string())
            .collect();
        let d = match golden_ids.get(node.name()) {
            Some(&gid) => local_diff(golden, &golden_ids, &probs, node.expr(), &fanin_names, gid),
            // No golden counterpart: nothing is known about this signal.
            None => Interval::UNIT,
        };
        let propagated: f64 = node.fanins().iter().map(|f| signal[f.index()].hi).sum();
        signal[id.index()] = Interval::new(d.lo - propagated, d.hi + propagated);
    }

    let per_output: Vec<OutputBound> = approx
        .pos()
        .iter()
        .map(|(name, driver)| OutputBound {
            name: name.clone(),
            interval: signal[driver.index()],
        })
        .collect();
    let combined = combine_outputs(&per_output);
    Ok(ErrorBounds {
        per_output,
        combined,
        signal,
    })
}

/// Error intervals for a *single local rewrite*: the node `node` of `net`
/// is about to have its local function changed such that the new and old
/// functions disagree with probability inside `local_diff` (e.g. an ASE's
/// ELIP-mass interval from [`MintermBounds::set_probability`]).
///
/// Everything outside the node's transitive-fanout cone is exactly
/// unaffected (`e = 0`); inside the cone, errors propagate with the sum
/// transfer, capped by `hi(local_diff)` — any downstream error requires
/// the rewritten node itself to differ. Every fanout dominator of `node`
/// is a mandatory waypoint for the error, so its interval additionally
/// caps every output bound.
pub fn single_change_bounds(net: &Network, node: NodeId, local_diff: Interval) -> ErrorBounds {
    let arena = net.arena_len();
    let mut signal = vec![Interval::ZERO; arena];
    signal[node.index()] = local_diff;
    let cone = tfo_cone(net, node);
    let mut in_cone = vec![false; arena];
    for id in &cone {
        in_cone[id.index()] = true;
    }
    for &v in &cone {
        if v == node {
            continue;
        }
        let propagated: f64 = net
            .node(v)
            .fanins()
            .iter()
            .filter(|f| in_cone[f.index()])
            .map(|f| signal[f.index()].hi)
            .sum();
        signal[v.index()] = Interval::new(0.0, propagated.min(local_diff.hi));
    }

    let dom = OutputDominators::compute(net);
    let waypoint_cap = dom
        .chain(node)
        .iter()
        .map(|d| signal[d.index()].hi)
        .fold(local_diff.hi, f64::min);

    let per_output: Vec<OutputBound> = net
        .pos()
        .iter()
        .map(|(name, driver)| {
            let e = signal[driver.index()];
            let interval = if in_cone[driver.index()] {
                Interval::new(e.lo, e.hi.min(waypoint_cap))
            } else {
                Interval::ZERO
            };
            OutputBound {
                name: name.clone(),
                interval,
            }
        })
        .collect();
    let combined = combine_outputs(&per_output).intersect(&Interval::new(0.0, local_diff.hi));
    ErrorBounds {
        per_output,
        combined,
        signal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// y = a·b; the approximation rewrites y to constant 0.
    fn and_pair() -> (Network, Network) {
        let build = |expr_zero: bool| {
            let mut net = Network::new("t");
            let a = net.add_pi("a");
            let b = net.add_pi("b");
            let y = if expr_zero {
                net.add_node("y", vec![], Cover::constant_zero(0))
            } else {
                net.add_node(
                    "y",
                    vec![a, b],
                    Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
                )
            };
            net.add_po("y", y);
            net
        };
        (build(false), build(true))
    }

    #[test]
    fn identical_networks_have_zero_error() {
        let (golden, _) = and_pair();
        let bounds = error_bounds(&golden, &golden, Policy::Exact).unwrap();
        assert_eq!(bounds.combined, Interval::ZERO);
        assert_eq!(bounds.per_output[0].interval, Interval::ZERO);
    }

    #[test]
    fn constant_zero_rewrite_is_priced_exactly() {
        let (golden, approx) = and_pair();
        let bounds = error_bounds(&golden, &approx, Policy::Exact).unwrap();
        // y differs exactly when a·b = 1: probability 1/4 under uniform
        // inputs, and the two local functions share no fanin vars — the
        // diff set {11} is priced from the PI marginals.
        let i = bounds.per_output[0].interval;
        assert!(i.contains(0.25), "interval {i} must contain 1/4");
        assert!(i.lo <= 0.25 && i.hi >= 0.25);
        assert_eq!(bounds.combined, i);
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let (golden, _) = and_pair();
        let mut other = Network::new("other");
        other.add_pi("a");
        let e = error_bounds(&golden, &other, Policy::Exact).unwrap_err();
        assert!(e.message.contains("interface"), "{e}");
    }

    #[test]
    fn single_change_is_cone_restricted() {
        // x → a → p (PO), and an untouched sibling q (PO) off x.
        let mut net = Network::new("cone");
        let x = net.add_pi("x");
        let a = net.add_node("a", vec![x], Cover::from_cubes(1, [cube(&[(0, true)])]));
        let p = net.add_node("p", vec![a], Cover::from_cubes(1, [cube(&[(0, true)])]));
        let q = net.add_node("q", vec![x], Cover::from_cubes(1, [cube(&[(0, false)])]));
        net.add_po("p", p);
        net.add_po("q", q);
        let bounds = single_change_bounds(&net, a, Interval::point(0.125));
        assert_eq!(bounds.per_output[1].interval, Interval::ZERO, "q untouched");
        let p_bound = bounds.per_output[0].interval;
        assert!(p_bound.hi <= 0.125 + 1e-12, "capped by the local diff");
        assert!(bounds.combined.hi <= 0.125 + 1e-12);
        assert_eq!(bounds.signal_error(q), Interval::ZERO);
    }

    #[test]
    fn dominator_cap_applies_to_deep_outputs() {
        // c → m → … → o: m dominates c, so o's bound never exceeds m's
        // even though the naive sum through a diamond would double it.
        let mut net = Network::new("dom");
        let x = net.add_pi("x");
        let c = net.add_node("c", vec![x], Cover::from_cubes(1, [cube(&[(0, true)])]));
        let s = net.add_node("s", vec![c], Cover::from_cubes(1, [cube(&[(0, true)])]));
        let t = net.add_node("t", vec![c], Cover::from_cubes(1, [cube(&[(0, false)])]));
        let m = net.add_node(
            "m",
            vec![s, t],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        let o = net.add_node("o", vec![m], Cover::from_cubes(1, [cube(&[(0, true)])]));
        net.add_po("o", o);
        let d = Interval::point(0.1);
        let bounds = single_change_bounds(&net, c, d);
        // Through the diamond the plain sum at m would be 0.2; the cap by
        // the local diff (and the dominator chain through m) holds it at
        // 0.1.
        assert!(bounds.per_output[0].interval.hi <= 0.1 + 1e-12);
    }
}
