//! The structural/functional network analyzer.
//!
//! Unlike [`Network::check`](als_network::Network::check) (a fast internal
//! consistency assert used by the synthesis loops) the analyzer is built
//! for *hostile* inputs: it never panics, it keeps going after the first
//! finding, and it reports everything it sees as [`Diagnostic`]s. Passes
//! that need a structurally sound network (simulation, BDD construction)
//! are automatically skipped when an earlier structural pass found errors,
//! with an info line saying so.

use crate::diagnostic::{AnalysisReport, Diagnostic};
use crate::miter::{encode_network, StructTable};
use als_absint::{signal_probabilities_seeded, Interval, Policy};
use als_bdd::{Bdd, BddError, BddManager};
use als_dontcare::{compute_dont_cares, DontCareConfig};
use als_logic::Expr;
use als_network::{Network, NodeId};
use als_sat::{Lit, SatResult, Solver, Var};
use als_sim::{local_pattern_counts, simulate, PatternSet, MAX_LOCAL_FANINS};
use std::collections::HashMap;

/// One analyzer pass. Order in [`AnalyzerConfig::passes`] is respected,
/// but functional passes silently degrade to a skip note when structural
/// passes (run or not) would have failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Every fanin is live and distinct; cover/expr arity matches the
    /// fanin count; PO drivers and PIs are live.
    References,
    /// The fanin relation is acyclic (independent Kahn traversal — does
    /// not trust [`Network::topo_order`], which panics on cycles).
    Acyclicity,
    /// [`Network::topo_order`] visits every live node exactly once with
    /// fanins before fanouts (validates the production traversal against
    /// the analyzer's independent one).
    TopoOrder,
    /// The SOP cover and the factored-form expression of every internal
    /// node compute the same local function (truth tables up to
    /// [`AnalyzerConfig::tt_var_limit`] inputs, BDDs above).
    SopEquivalence,
    /// Sampled don't-care soundness: a local input pattern observed under
    /// simulation must never be classified as a satisfiability don't-care.
    DontCareSoundness,
    /// Abstract-interpretation containment: propagate sample-sound signal
    /// probability intervals (see [`als_absint`]) from the empirical
    /// primary-input frequencies of a random pattern set; every node's
    /// simulated frequency must then fall inside its static interval. A
    /// violation proves an unsound transfer function.
    ErrorBound,
    /// SAT sweeping: candidate equivalent (or complementary) internal-node
    /// pairs from random-simulation signatures, each confirmed by an
    /// incremental miter query against one shared solver. Proven pairs are
    /// reported as info diagnostics — redundancy is a missed optimization,
    /// not an error.
    SatSweep,
}

impl Pass {
    /// The stable pass name used in [`Diagnostic::pass`].
    pub fn name(self) -> &'static str {
        match self {
            Pass::References => "references",
            Pass::Acyclicity => "acyclicity",
            Pass::TopoOrder => "topo_order",
            Pass::SopEquivalence => "sop_equivalence",
            Pass::DontCareSoundness => "dont_care_soundness",
            Pass::ErrorBound => "error_bound",
            Pass::SatSweep => "sat_sweep",
        }
    }
}

/// Analyzer knobs.
#[derive(Clone, Debug)]
pub struct AnalyzerConfig {
    /// Which passes to run, in order.
    pub passes: Vec<Pass>,
    /// SOP ↔ expr equivalence uses truth tables up to this many node
    /// fanins and BDDs beyond it.
    pub tt_var_limit: usize,
    /// Node budget for each per-node equivalence BDD; exceeding it
    /// degrades the finding to a [`Severity::Warning`](crate::Severity::Warning).
    pub bdd_node_limit: usize,
    /// How many internal nodes the don't-care soundness pass samples
    /// (spread evenly over the arena in id order).
    pub dc_sample_nodes: usize,
    /// How many random patterns the don't-care soundness pass simulates.
    pub dc_patterns: usize,
    /// Seed for the soundness pass's pattern set.
    pub dc_seed: u64,
    /// How many random patterns the error-bound containment pass
    /// simulates.
    pub eb_patterns: usize,
    /// Seed for the error-bound pass's pattern set.
    pub eb_seed: u64,
    /// How many random patterns the SAT-sweeping pass uses to bucket
    /// candidate-equivalent signals.
    pub sweep_patterns: usize,
    /// Seed for the SAT-sweeping pass's pattern set.
    pub sweep_seed: u64,
    /// Budget of SAT-confirmed candidate pairs for one sweep; buckets
    /// beyond it are skipped with an info note.
    pub sweep_max_pairs: usize,
}

impl AnalyzerConfig {
    /// Structural passes only — cheap enough to run after every BLIF
    /// parse (`als approximate` does exactly that).
    pub fn fast() -> Self {
        Self {
            passes: vec![Pass::References, Pass::Acyclicity, Pass::TopoOrder],
            ..Self::full()
        }
    }

    /// Every pass, including the functional and don't-care ones.
    pub fn full() -> Self {
        Self {
            passes: vec![
                Pass::References,
                Pass::Acyclicity,
                Pass::TopoOrder,
                Pass::SopEquivalence,
                Pass::DontCareSoundness,
                Pass::ErrorBound,
                Pass::SatSweep,
            ],
            tt_var_limit: 12,
            bdd_node_limit: 1 << 20,
            dc_sample_nodes: 64,
            dc_patterns: 2048,
            dc_seed: 0xA15C_4EC4,
            eb_patterns: 2048,
            eb_seed: 0xAB5_1407,
            sweep_patterns: 1024,
            sweep_seed: 0x5A75_33EE,
            sweep_max_pairs: 64,
        }
    }
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Runs a configurable pass list over a network and collects diagnostics.
#[derive(Clone, Debug)]
pub struct NetworkAnalyzer {
    config: AnalyzerConfig,
}

impl NetworkAnalyzer {
    /// A new analyzer with the given configuration.
    pub fn new(config: AnalyzerConfig) -> Self {
        Self { config }
    }

    /// Runs every configured pass. Never panics; findings (including
    /// "pass skipped" notes) land in the returned report.
    pub fn analyze(&self, net: &Network) -> AnalysisReport {
        let mut report = AnalysisReport::new();
        // Functional passes walk fanins and simulate, which is only safe
        // on a structurally sound network. Pre-compute soundness once,
        // whether or not the structural passes were requested.
        let structural_errors = {
            let mut probe = AnalysisReport::new();
            check_references(net, &mut probe);
            check_acyclicity(net, &mut probe);
            !probe.is_clean()
        };
        for &pass in &self.config.passes {
            match pass {
                Pass::References => check_references(net, &mut report),
                Pass::Acyclicity => check_acyclicity(net, &mut report),
                Pass::TopoOrder => {
                    if structural_errors {
                        report.push(skip_note(pass));
                    } else {
                        check_topo_order(net, &mut report);
                    }
                }
                Pass::SopEquivalence => {
                    if structural_errors {
                        report.push(skip_note(pass));
                    } else {
                        check_sop_equivalence(net, &self.config, &mut report);
                    }
                }
                Pass::DontCareSoundness => {
                    if structural_errors {
                        report.push(skip_note(pass));
                    } else {
                        check_dont_care_soundness(net, &self.config, &mut report);
                    }
                }
                Pass::ErrorBound => {
                    if structural_errors {
                        report.push(skip_note(pass));
                    } else {
                        check_error_bound(net, &self.config, &mut report);
                    }
                }
                Pass::SatSweep => {
                    if structural_errors {
                        report.push(skip_note(pass));
                    } else {
                        check_sat_sweep(net, &self.config, &mut report);
                    }
                }
            }
        }
        report.dedupe();
        report
    }
}

fn skip_note(pass: Pass) -> Diagnostic {
    Diagnostic::info(
        pass.name(),
        "skipped: structural errors make this pass unsafe to run",
    )
}

fn named(net: &Network, id: NodeId) -> Option<String> {
    net.try_node(id).ok().map(|n| n.name().to_string())
}

/// References pass: liveness, duplicates, arity agreement.
fn check_references(net: &Network, report: &mut AnalysisReport) {
    const PASS: &str = "references";
    for id in net.internal_ids() {
        let Ok(node) = net.try_node(id) else { continue };
        let fanins = node.fanins();
        let k = fanins.len();
        for (pos, &f) in fanins.iter().enumerate() {
            if !net.is_live(f) {
                report.push(
                    Diagnostic::error(PASS, format!("fanin {pos} ({f}) is dead or out of range"))
                        .with_node(id, named(net, id))
                        .with_hint(
                            "rebuild the fanin list; a swept or never-created node is referenced",
                        ),
                );
            } else if fanins[..pos].contains(&f) {
                report.push(
                    Diagnostic::error(PASS, format!("fanin {f} appears more than once"))
                        .with_node(id, named(net, id))
                        .with_hint("merge the repeated fanin into one cover variable"),
                );
            }
        }
        if node.cover().num_vars() != k {
            report.push(
                Diagnostic::error(
                    PASS,
                    format!(
                        "cover is over {} variable(s) but the node has {k} fanin(s)",
                        node.cover().num_vars()
                    ),
                )
                .with_node(id, named(net, id))
                .with_hint("re-derive the cover or fanin list; use Network::replace_expr"),
            );
        }
        // support_mask is a u64 bitset; k ≥ 64 can't be validated this way.
        if k < 64 && node.expr().support_mask() >> k != 0 {
            report.push(
                Diagnostic::error(
                    PASS,
                    format!("factored form references a variable ≥ the fanin count {k}"),
                )
                .with_node(id, named(net, id)),
            );
        }
    }
    for (name, driver) in net.pos() {
        if !net.is_live(*driver) {
            report.push(Diagnostic::error(
                PASS,
                format!("primary output `{name}` is driven by dead node {driver}"),
            ));
        }
    }
    for &pi in net.pis() {
        if !net.is_live(pi) {
            report.push(Diagnostic::error(
                PASS,
                format!("primary input {pi} is not live"),
            ));
        }
    }
}

/// Acyclicity pass: independent Kahn traversal over live nodes. Dead
/// fanins are skipped here (the references pass reports them) so a single
/// dangling edge doesn't masquerade as a cycle.
fn check_acyclicity(net: &Network, report: &mut AnalysisReport) {
    const PASS: &str = "acyclicity";
    let live: Vec<NodeId> = net.node_ids().collect();
    let mut indegree: HashMap<NodeId, usize> = live.iter().map(|&id| (id, 0)).collect();
    let mut fanouts: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &id in &live {
        let Ok(node) = net.try_node(id) else { continue };
        for &f in node.fanins() {
            if net.is_live(f) {
                *indegree.entry(id).or_insert(0) += 1;
                fanouts.entry(f).or_default().push(id);
            }
        }
    }
    let mut queue: Vec<NodeId> = live
        .iter()
        .copied()
        .filter(|id| indegree.get(id).copied().unwrap_or(0) == 0)
        .collect();
    let mut visited = 0usize;
    while let Some(id) = queue.pop() {
        visited += 1;
        if let Some(outs) = fanouts.get(&id) {
            for &o in &outs.clone() {
                if let Some(d) = indegree.get_mut(&o) {
                    *d -= 1;
                    if *d == 0 {
                        queue.push(o);
                    }
                }
            }
        }
    }
    if visited < live.len() {
        // lint:allow(map-iter): collected then sorted, so map order never leaks out
        let mut stuck: Vec<NodeId> = indegree
            .iter()
            .filter(|&(_, &d)| d > 0)
            .map(|(&id, _)| id)
            .collect();
        stuck.sort();
        let names: Vec<String> = stuck
            .iter()
            .take(8)
            .map(|&id| named(net, id).unwrap_or_else(|| id.to_string()))
            .collect();
        report.push(
            Diagnostic::error(
                PASS,
                format!(
                    "combinational cycle through {} node(s): {}{}",
                    stuck.len(),
                    names.join(", "),
                    if stuck.len() > 8 { ", …" } else { "" }
                ),
            )
            .with_hint("every fanin edge must point strictly backwards in some topological order"),
        );
    }
}

/// Topological-order pass: validates the production traversal against the
/// structural facts. Only called once the network is known acyclic with
/// live references, so `topo_order()` cannot panic.
fn check_topo_order(net: &Network, report: &mut AnalysisReport) {
    const PASS: &str = "topo_order";
    let order = net.topo_order();
    let mut position: HashMap<NodeId, usize> = HashMap::new();
    for (i, &id) in order.iter().enumerate() {
        if position.insert(id, i).is_some() {
            report.push(
                Diagnostic::error(PASS, "node appears more than once in topo_order()")
                    .with_node(id, named(net, id)),
            );
        }
    }
    for id in net.node_ids() {
        if !position.contains_key(&id) {
            report.push(
                Diagnostic::error(PASS, "live node missing from topo_order()")
                    .with_node(id, named(net, id)),
            );
        }
    }
    for &id in &order {
        let Ok(node) = net.try_node(id) else { continue };
        let Some(&here) = position.get(&id) else {
            continue;
        };
        for &f in node.fanins() {
            if position.get(&f).is_some_and(|&fp| fp >= here) {
                report.push(
                    Diagnostic::error(
                        PASS,
                        format!("fanin {f} does not precede its fanout in topo_order()"),
                    )
                    .with_node(id, named(net, id)),
                );
            }
        }
    }
}

/// SOP ↔ factored-form equivalence, truth-table based for small nodes and
/// BDD based above `tt_var_limit`.
fn check_sop_equivalence(net: &Network, config: &AnalyzerConfig, report: &mut AnalysisReport) {
    const PASS: &str = "sop_equivalence";
    for id in net.internal_ids() {
        let Ok(node) = net.try_node(id) else { continue };
        let k = node.fanins().len();
        if node.cover().num_vars() != k {
            continue; // references pass owns this finding
        }
        if k <= config.tt_var_limit {
            if node.expr().to_truth_table(k) != node.cover().to_truth_table() {
                report.push(
                    Diagnostic::error(
                        PASS,
                        "SOP cover and factored form compute different local functions",
                    )
                    .with_node(id, named(net, id))
                    .with_hint("re-factor the cover with Network::replace_expr"),
                );
            }
            continue;
        }
        match bdd_equiv(node.cover(), node.expr(), k, config.bdd_node_limit) {
            Ok(true) => {}
            Ok(false) => {
                report.push(
                    Diagnostic::error(
                        PASS,
                        "SOP cover and factored form compute different local functions (BDD)",
                    )
                    .with_node(id, named(net, id)),
                );
            }
            Err(e) => {
                report.push(
                    Diagnostic::warning(
                        PASS,
                        format!("could not verify SOP/expr equivalence ({k} fanins): {e:?}"),
                    )
                    .with_node(id, named(net, id)),
                );
            }
        }
    }
}

fn bdd_equiv(
    cover: &als_logic::Cover,
    expr: &Expr,
    num_vars: usize,
    node_limit: usize,
) -> Result<bool, BddError> {
    let mut mgr = BddManager::new(num_vars, node_limit);
    let vars: Vec<Bdd> = (0..num_vars)
        .map(|i| mgr.var(i))
        .collect::<Result<_, _>>()?;
    let mut cover_bdd = mgr.zero();
    for cube in cover.cubes() {
        let mut term = mgr.one();
        for (var, phase) in cube.literals() {
            let lit = if phase {
                vars[var]
            } else {
                mgr.not(vars[var])?
            };
            term = mgr.and(term, lit)?;
        }
        cover_bdd = mgr.or(cover_bdd, term)?;
    }
    let expr_bdd = expr_to_bdd(expr, &vars, &mut mgr)?;
    Ok(cover_bdd == expr_bdd)
}

fn expr_to_bdd(expr: &Expr, vars: &[Bdd], mgr: &mut BddManager) -> Result<Bdd, BddError> {
    match expr {
        Expr::Const(false) => Ok(mgr.zero()),
        Expr::Const(true) => Ok(mgr.one()),
        Expr::Lit { var, phase } => {
            let v = vars[*var];
            if *phase {
                Ok(v)
            } else {
                mgr.not(v)
            }
        }
        Expr::And(parts) => {
            let mut acc = mgr.one();
            for p in parts {
                let b = expr_to_bdd(p, vars, mgr)?;
                acc = mgr.and(acc, b)?;
            }
            Ok(acc)
        }
        Expr::Or(parts) => {
            let mut acc = mgr.zero();
            for p in parts {
                let b = expr_to_bdd(p, vars, mgr)?;
                acc = mgr.or(acc, b)?;
            }
            Ok(acc)
        }
    }
}

/// Don't-care soundness: simulate random patterns; any *observed* local
/// input pattern the classifier marks as an SDC is a contradiction — a
/// satisfiability don't-care can never occur, that is its definition
/// (§3.3). ODCs are not audited here (refuting one needs an output-cone
/// argument per pattern, which is a simulation per node — too costly for
/// a lint pass).
fn check_dont_care_soundness(net: &Network, config: &AnalyzerConfig, report: &mut AnalysisReport) {
    const PASS: &str = "dont_care_soundness";
    if net.num_pis() == 0 || net.num_internal() == 0 || config.dc_sample_nodes == 0 {
        return;
    }
    let patterns = PatternSet::random(net.num_pis(), config.dc_patterns.max(1), config.dc_seed);
    let sim = simulate(net, &patterns);
    let candidates: Vec<NodeId> = net
        .internal_ids()
        .filter(|&id| {
            let k = net.node(id).fanins().len();
            (1..=MAX_LOCAL_FANINS).contains(&k)
        })
        .collect();
    if candidates.is_empty() {
        return;
    }
    // Deterministic spread over the arena: a fixed stride instead of the
    // first N ids, so late (output-side) nodes are sampled too.
    let stride = (candidates.len() / config.dc_sample_nodes).max(1);
    let dc_config = DontCareConfig::default();
    for &id in candidates
        .iter()
        .step_by(stride)
        .take(config.dc_sample_nodes)
    {
        let counts = local_pattern_counts(net, &sim, id);
        let dc = compute_dont_cares(net, id, &dc_config);
        for (v, &count) in counts.iter().enumerate() {
            if count > 0 && dc.is_sdc(v) {
                report.push(
                    Diagnostic::error(
                        PASS,
                        format!(
                            "local pattern {v:#x} observed {count} time(s) but classified as a satisfiability don't-care"
                        ),
                    )
                    .with_node(id, named(net, id))
                    .with_hint("the don't-care window computation is unsound for this node"),
                );
            }
        }
    }
}

/// Error-bound containment: seed the abstract interpreter's primary-input
/// intervals with the *empirical* 1-frequencies of a random pattern set,
/// propagate under [`Policy::SampleSound`] (Fréchet everywhere — the only
/// rule sound for the empirical measure), and demand every node's simulated
/// frequency lie inside its static interval. The tolerance only absorbs the
/// count→ratio division; a genuinely unsound transfer overshoots it by
/// orders of magnitude.
fn check_error_bound(net: &Network, config: &AnalyzerConfig, report: &mut AnalysisReport) {
    const PASS: &str = "error_bound";
    const TOL: f64 = 1e-9;
    if net.num_pis() == 0 || net.num_internal() == 0 || config.eb_patterns == 0 {
        return;
    }
    let patterns = PatternSet::random(net.num_pis(), config.eb_patterns.max(1), config.eb_seed);
    let sim = simulate(net, &patterns);
    let seeds: Vec<Interval> = net
        .pis()
        .iter()
        .map(|&pi| Interval::point(sim.probability(pi)))
        .collect();
    let probs = signal_probabilities_seeded(net, Policy::SampleSound, &seeds);
    for id in net.internal_ids() {
        let freq = sim.probability(id);
        let interval = probs.interval(id);
        if !interval.contains_with_tol(freq, TOL) {
            report.push(
                Diagnostic::error(
                    PASS,
                    format!("simulated 1-frequency {freq} escapes the static interval {interval}"),
                )
                .with_node(id, named(net, id))
                .with_hint("a probability transfer function is unsound for this node"),
            );
        }
    }
}

/// SAT sweeping: bucket internal nodes by complement-normalized simulation
/// signature, then confirm each candidate pair with incremental queries.
/// One solver serves every query of the sweep: the whole network is encoded
/// once, and a pair costs two assumption queries, one per way the pair can
/// disagree with its candidate relation.
fn check_sat_sweep(net: &Network, config: &AnalyzerConfig, report: &mut AnalysisReport) {
    const PASS: &str = "sat_sweep";
    if net.num_pis() == 0 || net.num_internal() < 2 || config.sweep_max_pairs == 0 {
        return;
    }
    let patterns = PatternSet::random(
        net.num_pis(),
        config.sweep_patterns.max(1),
        config.sweep_seed,
    );
    let sim = simulate(net, &patterns);

    // Normalize signatures so a node and its complement share a bucket:
    // complement the words when the first pattern's value is 1 (masking
    // the invalid tail bits of the last word back to zero).
    let tail = patterns.tail_mask();
    let mut buckets: HashMap<Vec<u64>, Vec<(NodeId, bool)>> = HashMap::new();
    // First-appearance order of the bucket keys — internal ids ascend, so
    // both the bucket order and each bucket's members are deterministic.
    let mut key_order: Vec<Vec<u64>> = Vec::new();
    for id in net.internal_ids() {
        let words = sim.node_words(id);
        let flip = sim.node_value(id, 0);
        let key: Vec<u64> = if flip {
            let mut k: Vec<u64> = words.iter().map(|w| !w).collect();
            if let Some(last) = k.last_mut() {
                *last &= tail;
            }
            k
        } else {
            words.to_vec()
        };
        let members = buckets.entry(key.clone()).or_default();
        if members.is_empty() {
            key_order.push(key);
        }
        members.push((id, flip));
    }

    // One persistent solver holds the whole network's CNF; each pair is
    // two assumption queries, so no pair adds a clause or a variable.
    let mut solver = Solver::new();
    let pis: Vec<Var> = net.pis().iter().map(|_| solver.new_var()).collect();
    let vars = encode_network(&mut solver, net, &pis, &mut StructTable::new());

    let mut budget = config.sweep_max_pairs;
    for key in &key_order {
        let members = &buckets[key];
        if members.len() < 2 {
            continue;
        }
        // Classic sweeping: prove each member against the bucket leader
        // (the lowest-id node), not all-pairs — equivalence is transitive.
        let (leader, leader_flip) = members[0];
        let a = Lit::pos(vars[&leader]);
        for &(node, flip) in &members[1..] {
            if budget == 0 {
                report.push(Diagnostic::info(
                    PASS,
                    format!(
                        "pair budget ({}) exhausted; remaining candidate pairs unchecked",
                        config.sweep_max_pairs
                    ),
                ));
                return;
            }
            budget -= 1;
            let b = Lit::pos(vars[&node]);
            let complemented = flip != leader_flip;
            // Each query assumes one counterexample to the candidate
            // relation — a ≠ b for equivalence, a = b for complement; the
            // pair is proven when neither exists.
            let counterexamples = if complemented {
                [[a, b], [!a, !b]]
            } else {
                [[a, !b], [!a, b]]
            };
            let proven = counterexamples
                .iter()
                .all(|lits| solver.solve_with_assumptions(lits) == SatResult::Unsat);
            if proven {
                report.push(
                    Diagnostic::info(
                        PASS,
                        format!(
                            "functionally {} `{}` (SAT-proven over all inputs)",
                            if complemented {
                                "complementary to"
                            } else {
                                "equivalent to"
                            },
                            named(net, leader).unwrap_or_else(|| leader.to_string()),
                        ),
                    )
                    .with_node(node, named(net, node))
                    .with_hint("redundant logic: fanouts could be moved onto one signal"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};

    fn and_gate() -> (Network, NodeId) {
        let mut net = Network::new("t");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let g = net.add_node(
            "g",
            vec![a, b],
            Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)]).unwrap()]),
        );
        net.add_po("y", g);
        (net, g)
    }

    #[test]
    fn clean_network_analyzes_clean() {
        let (net, _) = and_gate();
        let report = NetworkAnalyzer::new(AnalyzerConfig::full()).analyze(&net);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn functional_passes_are_skipped_on_structural_breakage() {
        let (mut net, g) = and_gate();
        als_network::testing::raw_drop_fanin(&mut net, g, 1);
        let report = NetworkAnalyzer::new(AnalyzerConfig::full()).analyze(&net);
        assert!(!report.is_clean());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.pass == "sop_equivalence" && d.message.contains("skipped")));
    }

    #[test]
    fn error_bound_contains_simulated_frequencies_under_reconvergence() {
        // s = a, t = ¬a, u = s·t — the reconvergent shape where a naive
        // independence rule would produce an interval excluding the truth.
        let mut net = Network::new("reconv");
        let a = net.add_pi("a");
        let s = net.add_node(
            "s",
            vec![a],
            Cover::from_cubes(1, [Cube::from_literals(&[(0, true)]).unwrap()]),
        );
        let t = net.add_node(
            "t",
            vec![a],
            Cover::from_cubes(1, [Cube::from_literals(&[(0, false)]).unwrap()]),
        );
        let u = net.add_node(
            "u",
            vec![s, t],
            Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)]).unwrap()]),
        );
        net.add_po("u", u);
        let config = AnalyzerConfig {
            passes: vec![Pass::ErrorBound],
            ..AnalyzerConfig::full()
        };
        let report = NetworkAnalyzer::new(config).analyze(&net);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn error_bound_is_skipped_on_structural_breakage() {
        let (mut net, g) = and_gate();
        als_network::testing::raw_drop_fanin(&mut net, g, 1);
        let config = AnalyzerConfig {
            passes: vec![Pass::ErrorBound],
            ..AnalyzerConfig::full()
        };
        let report = NetworkAnalyzer::new(config).analyze(&net);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.pass == "error_bound" && d.message.contains("skipped")));
    }

    #[test]
    fn sat_sweep_proves_equivalent_and_complementary_pairs() {
        // g1 = a·b, g2 = b·a (same function), g3 = ¬(a·b).
        let mut net = Network::new("dup");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let g1 = net.add_node(
            "g1",
            vec![a, b],
            Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)]).unwrap()]),
        );
        let g2 = net.add_node(
            "g2",
            vec![b, a],
            Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)]).unwrap()]),
        );
        let g3 = net.add_node(
            "g3",
            vec![a, b],
            Cover::from_cubes(
                2,
                [
                    Cube::from_literals(&[(0, false)]).unwrap(),
                    Cube::from_literals(&[(1, false)]).unwrap(),
                ],
            ),
        );
        net.add_po("y1", g1);
        net.add_po("y2", g2);
        net.add_po("y3", g3);
        let config = AnalyzerConfig {
            passes: vec![Pass::SatSweep],
            ..AnalyzerConfig::full()
        };
        let report = NetworkAnalyzer::new(config).analyze(&net);
        assert!(report.is_clean(), "{report}");
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("equivalent to `g1`")),
            "{report}"
        );
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("complementary to `g1`")),
            "{report}"
        );
    }

    #[test]
    fn sat_sweep_is_silent_on_distinct_functions() {
        // g1 = a·b and g2 = a+b share no signature bucket.
        let mut net = Network::new("distinct");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let g1 = net.add_node(
            "g1",
            vec![a, b],
            Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)]).unwrap()]),
        );
        let g2 = net.add_node(
            "g2",
            vec![a, b],
            Cover::from_cubes(
                2,
                [
                    Cube::from_literals(&[(0, true)]).unwrap(),
                    Cube::from_literals(&[(1, true)]).unwrap(),
                ],
            ),
        );
        net.add_po("y1", g1);
        net.add_po("y2", g2);
        let config = AnalyzerConfig {
            passes: vec![Pass::SatSweep],
            ..AnalyzerConfig::full()
        };
        let report = NetworkAnalyzer::new(config).analyze(&net);
        assert!(report.is_clean(), "{report}");
        assert!(
            report.diagnostics.is_empty(),
            "distinct functions must produce no findings:\n{report}"
        );
    }

    #[test]
    fn sat_sweep_respects_the_pair_budget() {
        // Three copies of a·b give two candidate pairs; a budget of one
        // checks the first and reports the exhaustion.
        let mut net = Network::new("budget");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        for i in 0..3 {
            let g = net.add_node(
                format!("g{i}"),
                vec![a, b],
                Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)]).unwrap()]),
            );
            net.add_po(format!("y{i}"), g);
        }
        let config = AnalyzerConfig {
            passes: vec![Pass::SatSweep],
            sweep_max_pairs: 1,
            ..AnalyzerConfig::full()
        };
        let report = NetworkAnalyzer::new(config).analyze(&net);
        assert_eq!(
            report
                .diagnostics
                .iter()
                .filter(|d| d.message.contains("equivalent to"))
                .count(),
            1
        );
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("pair budget")),
            "{report}"
        );
    }

    #[test]
    fn sat_sweep_is_skipped_on_structural_breakage() {
        let (mut net, g) = and_gate();
        als_network::testing::raw_drop_fanin(&mut net, g, 1);
        let config = AnalyzerConfig {
            passes: vec![Pass::SatSweep],
            ..AnalyzerConfig::full()
        };
        let report = NetworkAnalyzer::new(config).analyze(&net);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.pass == "sat_sweep" && d.message.contains("skipped")));
    }

    #[test]
    fn expr_bdd_translation_matches_truth_tables() {
        // x0·x1 + x2' over 3 vars.
        let expr = Expr::Or(vec![
            Expr::And(vec![
                Expr::Lit {
                    var: 0,
                    phase: true,
                },
                Expr::Lit {
                    var: 1,
                    phase: true,
                },
            ]),
            Expr::Lit {
                var: 2,
                phase: false,
            },
        ]);
        let mut mgr = BddManager::new(3, 10_000);
        let vars: Vec<Bdd> = (0..3).map(|i| mgr.var(i).unwrap()).collect();
        let bdd = expr_to_bdd(&expr, &vars, &mut mgr).unwrap();
        for v in 0..8u64 {
            assert_eq!(mgr.eval(bdd, v), expr.eval(v), "vector {v:03b}");
        }
    }
}
