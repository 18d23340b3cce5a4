use crate::encode::encode_node_cnf;
use crate::window::Window;
use als_network::{Network, NodeId};
use als_sat::{Lit, SatResult, Solver, Var};
use std::collections::{HashMap, HashSet};

/// Which engine classifies the pivot's local input patterns.
///
/// Both engines give the same answer on every window they accept: the
/// classification is a semantic property of the window, so the choice only
/// moves the cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DontCareMethod {
    /// [`Enumerate`](DontCareMethod::Enumerate) on windows with at most
    /// `max_enumerated_leaves` leaves, [`Sat`](DontCareMethod::Sat) above
    /// that. The window decides the engine, so no window gives up.
    #[default]
    Auto,
    /// Exhaustively enumerate window-leaf assignments (exact within the
    /// window; requires few leaves).
    Enumerate,
    /// Per-pattern SAT queries on a duplicated-window miter — the paper's
    /// configuration ("SAT-based computation method", §3.3).
    Sat,
}

/// Solver policy of the SAT engine. Every window gets a solver of its own;
/// the one value stays so that callers which build a classifier from
/// [`DontCareConfig::reuse`] (the `benchmark/` replays do) keep compiling.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolverReuse {
    /// A fresh solver per window.
    #[default]
    Fresh,
}

/// Configuration for [`compute_dont_cares`].
#[derive(Clone, Copy, Debug)]
pub struct DontCareConfig {
    /// Levels of transitive fanin in the window (paper: 2).
    pub levels_in: usize,
    /// Levels of transitive fanout in the window (paper: 2).
    pub levels_out: usize,
    /// The engine to use.
    pub method: DontCareMethod,
    /// Solver policy of the SAT engine (one value: a solver per window).
    pub reuse: SolverReuse,
    /// [`DontCareMethod::Auto`] enumerates windows with at most this many
    /// leaves; [`DontCareMethod::Enumerate`] gives up (returning empty
    /// don't-care sets, which is sound) above it.
    pub max_enumerated_leaves: usize,
    /// Pattern classification is skipped for nodes with more fanins than
    /// this (returning empty sets).
    pub max_fanins: usize,
}

impl Default for DontCareConfig {
    fn default() -> Self {
        DontCareConfig {
            levels_in: 2,
            levels_out: 2,
            method: DontCareMethod::default(),
            reuse: SolverReuse::default(),
            max_enumerated_leaves: 14,
            max_fanins: 10,
        }
    }
}

/// Counters describing the SAT work done by don't-care classification.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolverStats {
    /// Individual `solve_with_assumptions` calls issued.
    pub sat_queries: u64,
    /// Solver instances built: one per window the SAT engine classified.
    pub solver_instances: u64,
}

impl SolverStats {
    /// Accumulates `other` into `self` (all counters are sums).
    pub fn merge(&mut self, other: &SolverStats) {
        self.sat_queries += other.sat_queries;
        self.solver_instances += other.solver_instances;
    }

    /// Whether no SAT work was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.sat_queries == 0 && self.solver_instances == 0
    }
}

/// The classification of every local input pattern of a node.
///
/// Both sets are *sound subsets* of the true don't-cares: a pattern marked
/// SDC genuinely never occurs, and a pattern marked ODC genuinely never
/// propagates to an output — but some true don't-cares may stay unmarked
/// (window effects), exactly as in the paper's `mfs`-based estimate.
#[derive(Clone, Debug)]
pub struct DontCares {
    num_fanins: usize,
    sdc: Vec<bool>,
    odc: Vec<bool>,
}

impl DontCares {
    /// Builds a classification from explicit SDC/ODC bitmaps (used by the
    /// exact BDD engine; both vectors must have `2^num_fanins` entries).
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths disagree with `num_fanins`.
    pub fn from_classification(num_fanins: usize, sdc: Vec<bool>, odc: Vec<bool>) -> Self {
        assert_eq!(sdc.len(), 1 << num_fanins, "sdc length mismatch");
        assert_eq!(odc.len(), 1 << num_fanins, "odc length mismatch");
        DontCares {
            num_fanins,
            sdc,
            odc,
        }
    }

    /// A trivial result marking nothing as don't-care (always sound).
    pub fn none(num_fanins: usize) -> Self {
        DontCares {
            num_fanins,
            sdc: vec![false; 1 << num_fanins],
            odc: vec![false; 1 << num_fanins],
        }
    }

    /// Number of fanins of the node this classification belongs to.
    pub fn num_fanins(&self) -> usize {
        self.num_fanins
    }

    /// Whether local pattern `v` is a satisfiability don't-care (cannot
    /// occur).
    ///
    /// # Panics
    ///
    /// Panics if `v >= 2^num_fanins`.
    pub fn is_sdc(&self, v: usize) -> bool {
        self.sdc[v]
    }

    /// Whether local pattern `v` is an observability don't-care (occurs but
    /// never propagates a flipped node value to any observed output).
    ///
    /// # Panics
    ///
    /// Panics if `v >= 2^num_fanins`.
    pub fn is_odc(&self, v: usize) -> bool {
        self.odc[v]
    }

    /// Whether pattern `v` is don't-care of either kind — the patterns the
    /// paper drops from the real-error-rate estimate.
    pub fn is_dont_care(&self, v: usize) -> bool {
        self.sdc[v] || self.odc[v]
    }

    /// Count of patterns marked SDC.
    pub fn sdc_count(&self) -> usize {
        self.sdc.iter().filter(|&&b| b).count()
    }

    /// Count of patterns marked ODC.
    pub fn odc_count(&self) -> usize {
        self.odc.iter().filter(|&&b| b).count()
    }
}

/// Classifies every local input pattern of `pivot` as SDC / ODC / care,
/// using the windowing scheme and engine from `config`.
///
/// Oversized windows or nodes degrade gracefully to "no don't-cares found"
/// (which keeps the downstream error-rate estimate a valid upper bound).
///
/// # Panics
///
/// Panics if `pivot` is not a live internal node.
pub fn compute_dont_cares(net: &Network, pivot: NodeId, config: &DontCareConfig) -> DontCares {
    classify(net, pivot, config, &mut SolverStats::default())
}

/// The one classification path behind [`compute_dont_cares`] and
/// [`IncrementalClassifier::compute`]; SAT work is counted into `stats`.
fn classify(
    net: &Network,
    pivot: NodeId,
    config: &DontCareConfig,
    stats: &mut SolverStats,
) -> DontCares {
    let k = net.node(pivot).fanins().len();
    if k > config.max_fanins {
        return DontCares::none(k);
    }
    let window = Window::build(net, pivot, config.levels_in, config.levels_out);
    let small = window.leaves().len() <= config.max_enumerated_leaves;
    match config.method {
        DontCareMethod::Auto | DontCareMethod::Enumerate if small => enumerate(net, &window, k),
        DontCareMethod::Enumerate => DontCares::none(k),
        DontCareMethod::Auto | DontCareMethod::Sat => sat_classify(net, &window, k, stats),
    }
}

/// Exhaustive in-window classification, evaluated bit-parallel: 64 leaf
/// assignments per machine word, exactly like the main simulator.
fn enumerate(net: &Network, window: &Window, k: usize) -> DontCares {
    let n_leaves = window.leaves().len();
    let num_assignments = 1usize << n_leaves;
    let words = num_assignments.div_ceil(64);
    let tail = if n_leaves >= 6 {
        u64::MAX
    } else {
        (1u64 << num_assignments) - 1
    };

    // Slot layout: leaves first, then internals in window topo order.
    let mut slot: HashMap<NodeId, usize> = HashMap::new();
    for (i, &l) in window.leaves().iter().enumerate() {
        slot.insert(l, i);
    }
    for (i, &n) in window.internals().iter().enumerate() {
        slot.insert(n, n_leaves + i);
    }
    let total = n_leaves + window.internals().len();

    // Exhaustive leaf stimulus (same scheme as TruthTable variables).
    let mut values: Vec<Vec<u64>> = vec![vec![0u64; words]; total];
    for (i, v) in values.iter_mut().enumerate().take(n_leaves) {
        if i < 6 {
            const VAR_WORDS: [u64; 6] = [
                0xAAAA_AAAA_AAAA_AAAA,
                0xCCCC_CCCC_CCCC_CCCC,
                0xF0F0_F0F0_F0F0_F0F0,
                0xFF00_FF00_FF00_FF00,
                0xFFFF_0000_FFFF_0000,
                0xFFFF_FFFF_0000_0000,
            ];
            for w in v.iter_mut() {
                *w = VAR_WORDS[i];
            }
        } else {
            let block = 1usize << (i - 6);
            for (wi, w) in v.iter_mut().enumerate() {
                if (wi / block) % 2 == 1 {
                    *w = u64::MAX;
                }
            }
        }
    }

    let eval_node = |node: &als_network::Node,
                     values: &[Vec<u64>],
                     input_slot: &dyn Fn(NodeId) -> usize|
     -> Vec<u64> {
        let mut acc = vec![0u64; words];
        for cube in node.cover().cubes() {
            let mut term = vec![u64::MAX; words];
            for (var, phase) in cube.literals() {
                let fw = &values[input_slot(node.fanins()[var])];
                for (t, f) in term.iter_mut().zip(fw) {
                    *t &= if phase { *f } else { !*f };
                }
            }
            for (a, t) in acc.iter_mut().zip(&term) {
                *a |= t;
            }
        }
        acc
    };

    // Normal evaluation.
    for &n in window.internals() {
        let node = net.node(n);
        let out = eval_node(node, &values, &|f| slot[&f]);
        values[slot[&n]] = out;
    }

    // Flipped copy: pivot inverted, downstream window nodes re-evaluated.
    let pivot_slot = slot[&window.pivot()];
    let mut fslot: HashMap<NodeId, usize> = slot.clone();
    let mut fvalues = values.clone();
    fvalues.push(values[pivot_slot].iter().map(|w| !w).collect());
    fslot.insert(window.pivot(), fvalues.len() - 1);
    for &n in window.internals() {
        if n == window.pivot() {
            continue;
        }
        let node = net.node(n);
        let depends = node.fanins().iter().any(|f| fslot[f] != slot[f]);
        if depends {
            let out = eval_node(node, &fvalues, &|f| fslot[&f]);
            fvalues.push(out);
            fslot.insert(n, fvalues.len() - 1);
        }
    }

    // Per-assignment observability: any root differs between the copies.
    let mut obs_mask = vec![0u64; words];
    for &r in window.roots() {
        if fslot[&r] == slot[&r] {
            continue;
        }
        let a = &values[slot[&r]];
        let b = &fvalues[fslot[&r]];
        for ((o, x), y) in obs_mask.iter_mut().zip(a).zip(b) {
            *o |= x ^ y;
        }
    }

    // Gather per-pattern seen/observable flags.
    let fanin_slots: Vec<usize> = net
        .node(window.pivot())
        .fanins()
        .iter()
        .map(|f| slot[f])
        .collect();
    let mut seen = vec![false; 1 << k];
    let mut observable = vec![false; 1 << k];
    for wi in 0..words {
        let valid = if wi + 1 == words { tail } else { u64::MAX };
        let cols: Vec<u64> = fanin_slots.iter().map(|&s| values[s][wi]).collect();
        let obs = obs_mask[wi];
        let mut bits = valid;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize; // lint:allow(as-cast): u32 bit index fits usize
            bits &= bits - 1;
            let mut v = 0usize;
            for (i, c) in cols.iter().enumerate() {
                if c >> b & 1 == 1 {
                    v |= 1 << i;
                }
            }
            seen[v] = true;
            if obs >> b & 1 == 1 {
                observable[v] = true;
            }
        }
    }

    let sdc: Vec<bool> = seen.iter().map(|&s| !s).collect();
    let odc: Vec<bool> = seen
        .iter()
        .zip(&observable)
        .map(|(&s, &o)| s && !o)
        .collect();
    DontCares {
        num_fanins: k,
        sdc,
        odc,
    }
}

/// SAT variables anchoring queries against an encoded window miter: the
/// pivot's fanin variables (assumed to select a local pattern) and the
/// `any_diff` selector (assumed to require an observable difference).
struct WindowMiter {
    pivot_fanins: Vec<Var>,
    any_diff: Var,
}

/// Encodes the duplicated-window miter for `window` into `solver`.
fn encode_window_miter(solver: &mut Solver, net: &Network, window: &Window) -> WindowMiter {
    // Original copy.
    let mut vars: HashMap<NodeId, Var> = HashMap::new();
    for &l in window.leaves() {
        vars.insert(l, solver.new_var());
    }
    for &n in window.internals() {
        let v = solver.new_var();
        encode_node_cnf(solver, net, n, &vars, v);
        vars.insert(n, v);
    }

    // Flipped copy: shares the leaves and the pivot's fanin side, but the
    // pivot output is the negation of the original pivot; TFO-side nodes are
    // re-encoded against the flipped values.
    let mut fvars: HashMap<NodeId, Var> = vars.clone();
    let pivot_flip = solver.new_var();
    solver.add_clause(&[Lit::pos(vars[&window.pivot()]), Lit::pos(pivot_flip)]);
    solver.add_clause(&[Lit::neg(vars[&window.pivot()]), Lit::neg(pivot_flip)]);
    fvars.insert(window.pivot(), pivot_flip);
    // Re-encode every internal node downstream of the pivot (in window topo
    // order, anything whose fanin cone inside the window reaches the pivot).
    let mut touched: HashSet<NodeId> = HashSet::new();
    touched.insert(window.pivot());
    for &n in window.internals() {
        if n == window.pivot() {
            continue;
        }
        if net.node(n).fanins().iter().any(|f| touched.contains(f)) {
            touched.insert(n);
            let v = solver.new_var();
            encode_node_cnf(solver, net, n, &fvars, v);
            fvars.insert(n, v);
        }
    }

    // Miter: some root differs between the copies.
    let mut diff_lits: Vec<Lit> = Vec::new();
    for &r in window.roots() {
        if fvars[&r] == vars[&r] {
            continue; // root unaffected by the flip
        }
        let d = solver.new_var();
        // d → (r ⊕ r')
        solver.add_clause(&[Lit::neg(d), Lit::pos(vars[&r]), Lit::pos(fvars[&r])]);
        solver.add_clause(&[Lit::neg(d), Lit::neg(vars[&r]), Lit::neg(fvars[&r])]);
        diff_lits.push(Lit::pos(d));
    }
    let any_diff = solver.new_var();
    // any_diff → OR(diff)
    diff_lits.push(Lit::neg(any_diff));
    solver.add_clause(&diff_lits);

    let pivot_fanins: Vec<Var> = net
        .node(window.pivot())
        .fanins()
        .iter()
        .map(|f| vars[f])
        .collect();
    WindowMiter {
        pivot_fanins,
        any_diff,
    }
}

/// Classifies every local pattern of the pivot against an encoded miter,
/// observability first: a pattern that can reach the pivot *and* flip a root
/// is a care pattern after one query, and only the patterns that cannot
/// (usually the few don't-cares) pay for the reachability query that tells
/// an SDC from an ODC.
fn classify_with_miter(
    solver: &mut Solver,
    miter: &WindowMiter,
    k: usize,
    stats: &mut SolverStats,
) -> DontCares {
    let mut sdc = vec![false; 1 << k];
    let mut odc = vec![false; 1 << k];
    // One assumption buffer reused across all 2^k patterns (and both query
    // kinds), instead of fresh allocations per query.
    let mut assumptions: Vec<Lit> = Vec::with_capacity(k + 1);
    for v in 0..(1usize << k) {
        assumptions.clear();
        for (i, &fv) in miter.pivot_fanins.iter().enumerate() {
            assumptions.push(Lit::with_sign(fv, v >> i & 1 == 1));
        }
        // Observable? Some leaf assignment produces v with a differing root.
        assumptions.push(Lit::pos(miter.any_diff));
        stats.sat_queries += 1;
        if solver.solve_with_assumptions(&assumptions) == SatResult::Sat {
            continue;
        }
        // Unobservable: reachable in the window (ODC) or not at all (SDC)?
        assumptions.pop();
        stats.sat_queries += 1;
        if solver.solve_with_assumptions(&assumptions) == SatResult::Unsat {
            sdc[v] = true;
        } else {
            odc[v] = true;
        }
    }
    DontCares {
        num_fanins: k,
        sdc,
        odc,
    }
}

/// SAT-based classification on a duplicated-window miter, in a solver of the
/// window's own. Sharing one across windows would not pay: retraction frees
/// clauses but not variables, and the decision scan and every satisfying
/// assignment cost time linear in the variable count, so each window would
/// pay for all the earlier ones.
fn sat_classify(net: &Network, window: &Window, k: usize, stats: &mut SolverStats) -> DontCares {
    let mut solver = Solver::new();
    let miter = encode_window_miter(&mut solver, net, window);
    stats.solver_instances += 1;
    classify_with_miter(&mut solver, &miter, k, stats)
}

/// Classifies a sweep of windows and counts the SAT work it issued.
///
/// [`compute`](IncrementalClassifier::compute) answers exactly like
/// [`compute_dont_cares`] (both run one classification path); the classifier
/// only sums the [`SolverStats`] across the calls, so callers can report the
/// SAT work of a whole sweep.
#[derive(Debug, Default)]
pub struct IncrementalClassifier {
    stats: SolverStats,
}

impl IncrementalClassifier {
    /// Creates a classifier with zeroed counters. There is one
    /// [`SolverReuse`] policy, a solver per window.
    pub fn new(_reuse: SolverReuse) -> Self {
        IncrementalClassifier::default()
    }

    /// Classifies every local input pattern of `pivot`, exactly like
    /// [`compute_dont_cares`], and adds the SAT work to this classifier's
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if `pivot` is not a live internal node.
    pub fn compute(&mut self, net: &Network, pivot: NodeId, config: &DontCareConfig) -> DontCares {
        classify(net, pivot, config, &mut self.stats)
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};

    const METHODS: [DontCareMethod; 3] = [
        DontCareMethod::Enumerate,
        DontCareMethod::Sat,
        DontCareMethod::Auto,
    ];

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// Fig. 1 of the paper: n1 = i1·i2, n2 = n1·i3, f = i0·n2 + i0'·n1.
    /// The local pattern (n1=0, i3=1) combined with ... more importantly
    /// errors at n2 only propagate when i0 = 1.
    fn fig1() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("fig1");
        let i0 = net.add_pi("i0");
        let i1 = net.add_pi("i1");
        let i2 = net.add_pi("i2");
        let i3 = net.add_pi("i3");
        let n1 = net.add_node(
            "n1",
            vec![i1, i2],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let n2 = net.add_node(
            "n2",
            vec![n1, i3],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let f = net.add_node(
            "f",
            vec![i0, n2, n1],
            Cover::from_cubes(
                3,
                [
                    cube(&[(0, true), (1, true)]),
                    cube(&[(0, false), (2, true)]),
                ],
            ),
        );
        net.add_po("f", f);
        (net, n1, n2)
    }

    #[test]
    fn sdc_detected_by_both_methods() {
        // y = g OR a with g = a AND b: pattern (g=1, a=0) is an SDC.
        let mut net = Network::new("sdc");
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
        for method in METHODS {
            let cfg = DontCareConfig {
                method,
                ..DontCareConfig::default()
            };
            let dc = compute_dont_cares(&net, y, &cfg);
            assert!(dc.is_sdc(0b01), "{method:?} must find the SDC");
            assert!(!dc.is_sdc(0b00));
            assert!(!dc.is_sdc(0b11));
        }
    }

    #[test]
    fn odc_on_blocked_path() {
        // f = i0·n2 + i0'·n1. With a window around n2 covering f, flipping
        // n2 is unobservable whenever i0 = 0 — but per *pattern* of n2's
        // fanins (n1, i3) observability is: flipping n2 matters iff i0=1.
        // Every fanin pattern of n2 can occur with i0=1, so no full-pattern
        // ODC exists; this pins the conservative behaviour.
        let (net, _n1, n2) = fig1();
        for method in METHODS {
            let cfg = DontCareConfig {
                method,
                ..DontCareConfig::default()
            };
            let dc = compute_dont_cares(&net, n2, &cfg);
            for v in 0..4 {
                assert!(!dc.is_dont_care(v), "{method:?} pattern {v:b}");
            }
        }
    }

    #[test]
    fn odc_detected_when_output_masks_node() {
        // y = n OR a, n = a AND b. When a=1, n is unobservable.
        // n's fanin patterns with a=1: (a=1,b=0) → pattern 0b01, (a=1,b=1) →
        // 0b11. Patterns with a=0 make n=0 and y=a=0; flipping n to 1 gives
        // y=1 — observable. So ODC = patterns {01, 11}... wait n's fanins
        // are (a, b): v=0b01 means a=1,b=0 → ODC; v=0b11 → a=1,b=1 → ODC.
        let mut net = Network::new("odc");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let n = net.add_node(
            "n",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let y = net.add_node(
            "y",
            vec![n, a],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        net.add_po("y", y);
        for method in METHODS {
            let cfg = DontCareConfig {
                method,
                ..DontCareConfig::default()
            };
            let dc = compute_dont_cares(&net, n, &cfg);
            assert!(dc.is_odc(0b01), "{method:?}: a=1,b=0 must be ODC");
            assert!(dc.is_odc(0b11), "{method:?}: a=1,b=1 must be ODC");
            assert!(!dc.is_dont_care(0b00), "{method:?}");
            assert!(!dc.is_dont_care(0b10), "{method:?}");
        }
    }

    #[test]
    fn methods_agree_on_fig1() {
        let (net, n1, n2) = fig1();
        // `max_enumerated_leaves: 0` sends `Auto` down its SAT branch.
        let configs = METHODS.map(|method| DontCareConfig {
            method,
            ..DontCareConfig::default()
        });
        let auto_sat = DontCareConfig {
            method: DontCareMethod::Auto,
            max_enumerated_leaves: 0,
            ..DontCareConfig::default()
        };
        for node in [n1, n2] {
            let e = compute_dont_cares(&net, node, &configs[0]);
            for cfg in configs.iter().skip(1).chain([&auto_sat]) {
                let other = compute_dont_cares(&net, node, cfg);
                let k = e.num_fanins();
                for v in 0..(1 << k) {
                    assert_eq!(e.is_sdc(v), other.is_sdc(v), "sdc {cfg:?} {node:?} {v:b}");
                    assert_eq!(e.is_odc(v), other.is_odc(v), "odc {cfg:?} {node:?} {v:b}");
                }
            }
        }
    }

    #[test]
    fn oversized_nodes_degrade_gracefully() {
        let (net, _, n2) = fig1();
        let cfg = DontCareConfig {
            max_fanins: 1,
            ..DontCareConfig::default()
        };
        let dc = compute_dont_cares(&net, n2, &cfg);
        assert_eq!(dc.sdc_count(), 0);
        assert_eq!(dc.odc_count(), 0);
    }

    #[test]
    fn classifier_matches_stateless_oracle() {
        let (net, n1, n2) = fig1();
        for method in METHODS {
            let cfg = DontCareConfig {
                method,
                ..DontCareConfig::default()
            };
            let mut classifier = IncrementalClassifier::new(SolverReuse::Fresh);
            for node in [n1, n2, n1, n2] {
                let oracle = compute_dont_cares(&net, node, &cfg);
                let dc = classifier.compute(&net, node, &cfg);
                let k = oracle.num_fanins();
                assert_eq!(dc.num_fanins(), k);
                for v in 0..(1 << k) {
                    assert_eq!(dc.is_sdc(v), oracle.is_sdc(v), "sdc {method:?} {v:b}");
                    assert_eq!(dc.is_odc(v), oracle.is_odc(v), "odc {method:?} {v:b}");
                }
            }
            // SAT builds one solver per window; fig1's windows are small, so
            // `Auto` enumerates them all and never asks the solver.
            let stats = classifier.stats();
            match method {
                DontCareMethod::Sat => {
                    assert_eq!(stats.solver_instances, 4);
                    assert!(stats.sat_queries > 0);
                }
                DontCareMethod::Auto | DontCareMethod::Enumerate => assert!(stats.is_empty()),
            }
        }
    }

    #[test]
    fn observability_first_settles_a_care_pattern_in_one_query() {
        // Every fanin pattern of n2 is a care pattern (see
        // `odc_on_blocked_path`): one observability query each.
        let (net, _, n2) = fig1();
        let cfg = DontCareConfig {
            method: DontCareMethod::Sat,
            ..DontCareConfig::default()
        };
        let mut classifier = IncrementalClassifier::new(SolverReuse::Fresh);
        classifier.compute(&net, n2, &cfg);
        assert_eq!(classifier.stats().sat_queries, 4);
    }

    #[test]
    fn none_is_all_care() {
        let dc = DontCares::none(3);
        for v in 0..8 {
            assert!(!dc.is_dont_care(v));
        }
        assert_eq!(dc.num_fanins(), 3);
    }
}
