//! The parallel, cache-aware candidate-evaluation engine.
//!
//! Both selection algorithms spend the bulk of their runtime on the same
//! per-node work: enumerate the node's ASEs, gather its local-pattern
//! probabilities from the shared simulation run (§3.2), optionally classify
//! its don't-cares (§3.3) and price every ASE. That work is pure over the
//! current network and one [`SimResult`](als_sim::SimResult), so the engine
//!
//! * **memoizes** it per node in a [`CandidateCache`], keyed by the node id
//!   and a *local-function signature* (expression + fanin list), so a rewrite
//!   that slips past the cone invalidation is still caught;
//! * **fans it out** across scoped worker threads over a chunked work queue
//!   of node ids, merging results in node-id order so every thread count
//!   produces byte-identical outcomes;
//! * **invalidates incrementally** after each committed change: a change at
//!   `c` alters the signatures (hence local-pattern probabilities) of exactly
//!   `TFO(c)`, and alters windowed don't-care classifications only inside the
//!   window-influence cone of `c` (see
//!   [`window_influence`](als_dontcare::window_influence)) — everything else
//!   stays cached instead of being flushed wholesale.

use crate::ase::{generate_ases, Ase};
use crate::error_model::{apparent_error_rate, estimated_real_error_rate};
use crate::{AlsConfig, AlsContext};
use als_absint::{Interval, MintermBounds};
use als_dontcare::{window_influence, DontCares, IncrementalClassifier, SolverStats};
use als_logic::Expr;
use als_network::{Network, NodeId};
use als_sim::{local_pattern_probabilities, SimResult};
use als_telemetry::{Event, Telemetry};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One priced candidate change at a node.
#[derive(Clone, Debug)]
pub struct CandidateEval {
    /// The approximate simplified expression.
    pub ase: Ase,
    /// Its apparent error rate (§3.2) — the multi-selection knapsack weight.
    pub apparent: f64,
    /// Its estimated real error rate with don't-care ELIPs discarded (§3.3)
    /// — the single-selection score denominator. Equals `apparent` when the
    /// engine runs without don't-cares.
    pub estimate: f64,
    /// Sound static lower bound on `apparent`, computed from fanin
    /// popcounts alone (see [`als_absint::MintermBounds`]) before the
    /// local-pattern gather ran.
    pub static_lo: f64,
    /// Sound static upper bound on `apparent`.
    pub static_hi: f64,
}

/// Cached evaluation of one node, valid while its local function (and the
/// invalidation cone around it) stays untouched.
#[derive(Clone, Debug)]
struct NodeEntry {
    /// Hash of the node's expression and fanin list at evaluation time.
    signature: u64,
    /// The prune budget in force when the entry was computed (`+∞` when
    /// pruning was off): candidates whose static lower bound exceeded it
    /// are absent, so the entry only serves refreshes with a budget no
    /// larger. Budgets usually shrink monotonically, but a re-measure can
    /// enlarge the margin — the cache check handles both directions.
    prune_budget: f64,
    candidates: Vec<CandidateEval>,
}

/// The per-run memo of node evaluations: node id → priced candidates, keyed
/// by the local-function signature.
#[derive(Debug, Default)]
pub struct CandidateCache {
    entries: HashMap<NodeId, NodeEntry>,
}

/// Slack added to the pruning comparison: a candidate is discarded only
/// when `static_lo > budget + PRUNE_EPS`. The `k ≤ 2` bounds reproduce the
/// dynamic apparent rate bit for bit; the `k ≥ 3` Fréchet sums and the
/// complement tightening can drift by float accumulation on the order of
/// 1e-11, which this margin absorbs — so a pruned candidate is *always* one
/// the dynamic path would have rejected, and outcomes with pruning on and
/// off are identical.
const PRUNE_EPS: f64 = 1e-9;

/// Below this many pending nodes a refresh stays single-threaded: spawning
/// scoped workers costs more than evaluating a handful of nodes.
const MIN_NODES_PER_WORKER: usize = 8;

/// Work-queue chunk size: big enough to keep the atomic counter off the hot
/// path, small enough to balance uneven per-node costs (don't-care
/// classification of wide windows varies widely).
const QUEUE_CHUNK: usize = 8;

/// The candidate-evaluation engine. One instance lives for one synthesis
/// run; the selection loops call [`refresh`](CandidateEngine::refresh) at
/// the top of every iteration and
/// [`invalidate_committed`](CandidateEngine::invalidate_committed) after
/// every accepted change.
#[derive(Debug)]
pub struct CandidateEngine {
    config: AlsConfig,
    /// Whether estimates discard don't-care ELIPs (single-selection). The
    /// multi-selection engine runs without: its knapsack weights are
    /// *apparent* rates (Theorem 1), so don't-care windows are never built.
    needs_dont_cares: bool,
    threads: usize,
    cache_enabled: bool,
    /// Sink handle from the config; one `EngineRefresh` event per refresh
    /// (its pruning counts summed from the worker results) and one
    /// `ConeInvalidated` per commit, both emitted from the coordinating
    /// thread, so the workers stay telemetry-free.
    telemetry: Telemetry,
    cache: CandidateCache,
    /// Candidates rejected for cause (e.g. a magnitude violation), keyed by
    /// (node, local-function signature): they stay suppressed through cache
    /// flushes and re-evaluations, which keeps cache-off runs identical to
    /// cache-on runs.
    banned: HashMap<(NodeId, u64), HashSet<Expr>>,
    /// Remaining error budget for static pruning, set by the selection loop
    /// before each refresh (`+∞` until then, and whenever pruning cannot be
    /// proven semantics-preserving — see
    /// [`set_prune_budget`](CandidateEngine::set_prune_budget)).
    prune_budget: f64,
    /// Node ids computed by the most recent refresh (diagnostics/tests).
    last_evaluated: Vec<NodeId>,
}

impl CandidateEngine {
    /// Creates an engine for one run. `needs_dont_cares` selects whether
    /// estimates price don't-cares (single-selection) or collapse to the
    /// apparent rate (multi-selection).
    pub fn new(config: &AlsConfig, needs_dont_cares: bool) -> Self {
        CandidateEngine {
            config: config.clone(),
            needs_dont_cares,
            threads: resolve_threads(config.threads),
            cache_enabled: config.cache,
            telemetry: config.telemetry.clone(),
            cache: CandidateCache::default(),
            banned: HashMap::new(),
            prune_budget: f64::INFINITY,
            last_evaluated: Vec::new(),
        }
    }

    /// Sets the remaining error budget used for static candidate pruning:
    /// a candidate whose static lower bound on the apparent error rate
    /// exceeds it (plus a 1e-9 guard epsilon) is discarded before its local
    /// pattern distribution is gathered. The callers pass the quantity
    /// their own dynamic filter compares the apparent rate against
    /// (single-selection: the margin; multi-selection: the knapsack
    /// capacity converted back to a rate), so pruning never changes an
    /// outcome.
    pub fn set_prune_budget(&mut self, budget: f64) {
        self.prune_budget = budget;
    }

    /// The budget actually applied this refresh: pruning must be enabled
    /// and provably transparent. With don't-care pricing on, the
    /// single-selection filter compares the *estimate* (which discards
    /// don't-care ELIPs and can be below any sound bound on the apparent
    /// rate), so pruning on apparent-rate bounds is disabled there.
    fn effective_budget(&self) -> f64 {
        if self.config.pruning.is_enabled()
            && !(self.needs_dont_cares && self.config.use_dont_cares)
        {
            self.prune_budget
        } else {
            f64::INFINITY
        }
    }

    /// The resolved worker-thread count (`config.threads`, with `0` mapped
    /// to the machine's available parallelism).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Brings the cache up to date with `net`: drops entries for dead or
    /// rewritten nodes, then evaluates every uncached eligible node — in
    /// parallel when the pending set is large enough.
    ///
    /// Simulates `net` freshly (and lazily — only when the pending set is
    /// non-empty). When current signatures are already at hand, use
    /// [`refresh_from_sim`](CandidateEngine::refresh_from_sim) instead.
    pub fn refresh(&mut self, net: &Network, ctx: &AlsContext) {
        self.refresh_impl(net, None, ctx);
    }

    /// Like [`refresh`](CandidateEngine::refresh), but evaluates against the
    /// caller's signatures (a run's up-to-date [`SimResult`]) instead of
    /// simulating freshly. `sim` must reflect `net` exactly.
    pub fn refresh_from_sim(&mut self, net: &Network, sim: &SimResult, ctx: &AlsContext) {
        self.refresh_impl(net, Some(sim), ctx);
    }

    fn refresh_impl(&mut self, net: &Network, sim: Option<&SimResult>, ctx: &AlsContext) {
        // Debug-build invariant: the engine must never price candidates on a
        // structurally broken network (compiled out of release builds, so
        // release perf and the determinism property tests are untouched).
        #[cfg(debug_assertions)]
        debug_assert!(
            net.check().is_ok(),
            "engine refreshed on an inconsistent network: {:?}",
            net.check()
        );
        let mark = self.telemetry.start();
        if !self.cache_enabled {
            self.cache.entries.clear();
        }
        // lint:allow(map-iter): order-independent removal; no iteration order escapes
        self.cache.entries.retain(|id, _| net.is_live(*id));

        let budget = self.effective_budget();
        let mut hits = 0usize;
        let mut pending: Vec<(NodeId, u64)> = Vec::new();
        for id in net.internal_ids() {
            let signature = local_signature(net, id);
            match self.cache.entries.get(&id) {
                // A cached entry may have dropped candidates whose static
                // lower bound exceeded *its* budget; it stays valid only for
                // budgets at most that large (anything it pruned is still
                // prunable). A grown budget forces re-evaluation.
                Some(entry) if entry.signature == signature && budget <= entry.prune_budget => {
                    hits += 1;
                }
                _ => pending.push((id, signature)),
            }
        }
        self.last_evaluated = pending.iter().map(|&(id, _)| id).collect();
        let evaluated = pending.len();
        let mut candidates_pruned = 0usize;
        let mut nodes_skipped = 0usize;
        if !pending.is_empty() {
            let owned: SimResult;
            let sim = if let Some(sim) = sim {
                sim
            } else {
                owned = ctx.simulate(net);
                &owned
            };
            let (computed, sat_stats) = evaluate_all(
                net,
                sim,
                &self.config,
                self.needs_dont_cares,
                budget,
                &pending,
                self.threads,
            );
            for (id, outcome) in computed {
                candidates_pruned += outcome.pruned_count;
                nodes_skipped += usize::from(outcome.gather_skipped);
                self.cache.entries.insert(id, outcome.entry);
            }
            // Worker-side SAT counters are plain sums over per-window
            // solvers, so the aggregate (emitted here, post-merge) is
            // identical for every thread count. No solver outlives its
            // window, so no clause is ever retracted.
            if !sat_stats.is_empty() {
                self.telemetry.emit(|| Event::SatActivity {
                    sat_queries: sat_stats.sat_queries,
                    solver_instances: sat_stats.solver_instances,
                    clauses_retracted: 0,
                });
            }
        }
        self.telemetry.emit(|| Event::EngineRefresh {
            evaluated: evaluated as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            cache_hits: hits as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            candidates_pruned: candidates_pruned as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            nodes_skipped: nodes_skipped as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            nanos: Telemetry::nanos_since(mark),
        });
    }

    /// The priced candidates of node `id` (empty when the node is ineligible
    /// or not yet refreshed), with banned candidates filtered out.
    pub fn candidates(&self, id: NodeId) -> impl Iterator<Item = &CandidateEval> {
        let entry = self.cache.entries.get(&id);
        let bans = entry.and_then(|e| self.banned.get(&(id, e.signature)));
        entry
            .map(|e| e.candidates.as_slice())
            .unwrap_or_default()
            .iter()
            .filter(move |c| bans.is_none_or(|set| !set.contains(&c.ase.expr)))
    }

    /// The cached node ids in ascending order — the deterministic iteration
    /// order for candidate selection.
    pub fn node_ids(&self) -> Vec<NodeId> {
        // lint:allow(map-iter): collected set is sorted on the next line
        let mut ids: Vec<NodeId> = self.cache.entries.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Permanently suppresses one candidate of `id` (e.g. after a measured
    /// magnitude violation, which the local estimate cannot predict). The
    /// ban is keyed on the node's *current* local function, so it expires
    /// naturally if the node is later rewritten.
    pub fn ban(&mut self, net: &Network, id: NodeId, expr: &Expr) {
        let signature = local_signature(net, id);
        self.banned
            .entry((id, signature))
            .or_default()
            .insert(expr.clone());
    }

    /// Invalidates everything a committed change set may have affected.
    ///
    /// Call it with a network in which every id of `changed` is live. The
    /// cone per changed node `c` is `TFO(c)` (signature / probability
    /// changes) plus, when the engine prices don't-cares, the
    /// window-influence ball of `c` (structural window changes).
    ///
    /// `TFO(c)` is identical before and after applying an ASE at `c` (only
    /// fanin edges of `c` change), so a don't-care-free engine needs one call
    /// on either network. The ball is *not*: replacing `c` by a constant
    /// drops its fanin edges, and windows that contained those edges change
    /// shape. Callers pricing don't-cares therefore invalidate twice — once
    /// with the pre-change network and once with the post-change one — which
    /// unions the two cones. Constant-propagation cascades stay inside
    /// `TFO(changed)` and are additionally caught by the signature key.
    pub fn invalidate_committed(&mut self, net: &Network, changed: &[NodeId]) {
        if self.cache.entries.is_empty() {
            return;
        }
        let mut cone: Vec<bool> = Vec::new();
        for &c in changed {
            let tfo = net.tfo_mask(c);
            if cone.is_empty() {
                cone = vec![false; tfo.len()];
            }
            for (slot, hit) in cone.iter_mut().zip(&tfo) {
                *slot |= hit;
            }
            if self.needs_dont_cares && self.config.use_dont_cares {
                let near = window_influence(
                    net,
                    c,
                    self.config.dont_care.levels_in,
                    self.config.dont_care.levels_out,
                );
                for (slot, hit) in cone.iter_mut().zip(&near) {
                    *slot |= hit;
                }
            }
        }
        let before = self.cache.entries.len();
        let keep = |id: &NodeId| !cone.get(id.index()).copied().unwrap_or(false);
        // lint:allow(map-iter): retain's predicate is per-entry, so visit order cannot matter
        self.cache.entries.retain(|id, _| keep(id));
        let dropped = before - self.cache.entries.len();
        // Debug-build invariant: a committed node sits inside its own TFO
        // cone, so its stale pricing must never survive the invalidation.
        #[cfg(debug_assertions)]
        for &c in changed {
            debug_assert!(
                !self.cache.entries.contains_key(&c),
                "committed node {c} survived its own invalidation cone"
            );
        }
        self.telemetry.emit(|| Event::ConeInvalidated {
            changed: changed.len() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            dropped: dropped as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
        });
    }

    /// Node ids the most recent [`refresh`](CandidateEngine::refresh)
    /// actually evaluated (i.e. cache misses), in ascending order.
    pub fn last_evaluated(&self) -> &[NodeId] {
        &self.last_evaluated
    }
}

/// Resolves a configured thread count: `0` means "ask the OS".
pub(crate) fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        configured
    }
}

/// Hash of the node's local function: expression plus fanin ids. Two
/// evaluations agree whenever this signature does (probabilities also depend
/// on fanin *signatures*, which cone invalidation tracks).
fn local_signature(net: &Network, id: NodeId) -> u64 {
    let node = net.node(id);
    let mut h = DefaultHasher::new();
    node.expr().hash(&mut h);
    node.fanins().hash(&mut h);
    h.finish()
}

/// One node's evaluation result plus its pruning counts.
#[derive(Debug)]
struct NodeOutcome {
    entry: NodeEntry,
    /// Candidates discarded by static bounds.
    pruned_count: usize,
    /// Whether the local-pattern gather was skipped because every candidate
    /// was pruned.
    gather_skipped: bool,
}

impl NodeOutcome {
    fn empty(signature: u64, prune_budget: f64) -> NodeOutcome {
        NodeOutcome {
            entry: NodeEntry {
                signature,
                prune_budget,
                candidates: Vec::new(),
            },
            pruned_count: 0,
            gather_skipped: false,
        }
    }
}

/// Evaluates `pending` nodes, fanning out across scoped threads when
/// worthwhile; results come back sorted by node id so insertion order (and
/// thus every downstream float reduction) is independent of thread count.
///
/// Each worker classifies don't-cares through an [`IncrementalClassifier`]
/// of its own. The classifier builds one solver per window and only sums
/// the SAT work, so the returned [`SolverStats`] count each node's windows
/// once whichever worker took it, and are the same for every thread count.
fn evaluate_all(
    net: &Network,
    sim: &SimResult,
    config: &AlsConfig,
    needs_dont_cares: bool,
    budget: f64,
    pending: &[(NodeId, u64)],
    threads: usize,
) -> (Vec<(NodeId, NodeOutcome)>, SolverStats) {
    let workers = threads
        .min(pending.len().div_ceil(MIN_NODES_PER_WORKER))
        .max(1);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut classifier = IncrementalClassifier::new(config.dont_care.reuse);
        let mut part = Vec::new();
        loop {
            let start = next.fetch_add(QUEUE_CHUNK, Ordering::Relaxed);
            if start >= pending.len() {
                break;
            }
            let end = (start + QUEUE_CHUNK).min(pending.len());
            for &(id, sig) in &pending[start..end] {
                let outcome = evaluate_node(
                    net,
                    sim,
                    config,
                    needs_dont_cares,
                    budget,
                    &mut classifier,
                    id,
                    sig,
                );
                part.push((id, outcome));
            }
        }
        (part, classifier.stats())
    };
    let (mut out, sat_stats) = if workers <= 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            let mut out = Vec::new();
            let mut stats = SolverStats::default();
            for h in handles {
                let (part, s) = h.join().expect("candidate-evaluation worker panicked"); // lint:allow(panic): propagates a worker panic, which is already fatal
                out.extend(part);
                stats.merge(&s);
            }
            (out, stats)
        })
    };
    out.sort_by_key(|&(id, _)| id);
    (out, sat_stats)
}

/// Sound per-minterm bounds on the node's local pattern distribution from
/// popcounts alone: exact for `k ≤ 2` (marginals determine one variable;
/// marginals + one pairwise joint determine two — computed in integer
/// counts so the division matches the simulator's gather bit for bit),
/// Fréchet from the marginals beyond that.
fn static_minterm_bounds(net: &Network, sim: &SimResult, id: NodeId) -> MintermBounds {
    let node = net.node(id);
    let fanins = node.fanins();
    let total = sim.num_patterns() as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
    let counts: Vec<u64> = fanins.iter().map(|&f| sim.count_ones(f)).collect();
    if counts.len() <= 2 {
        let joint = if let [a, b] = fanins {
            Some(joint_count_ones(sim, *a, *b))
        } else {
            None
        };
        if let Some(bounds) = MintermBounds::from_counts(total, &counts, joint) {
            return bounds;
        }
    }
    let marginals: Vec<Interval> = counts
        .iter()
        .map(|&c| Interval::point(c as f64 / total as f64)) // lint:allow(as-cast): counts << 2^52, exact in f64
        .collect();
    MintermBounds::from_marginals_frechet(&marginals)
}

/// How many patterns set both signals to 1 (one AND-popcount sweep).
fn joint_count_ones(sim: &SimResult, a: NodeId, b: NodeId) -> u64 {
    let wa = sim.node_words(a);
    let wb = sim.node_words(b);
    let mut total = 0u64;
    for (i, (x, y)) in wa.iter().zip(wb).enumerate() {
        let mut w = x & y;
        if i + 1 == wa.len() {
            w &= sim.tail_mask();
        }
        total += u64::from(w.count_ones());
    }
    total
}
/// Node budget of the exact BDD don't-care engine
/// ([`AlsConfig::exact_dont_cares`]); a node whose BDDs outgrow it falls
/// back to the windowed engine.
const EXACT_DC_NODE_LIMIT: usize = 1 << 18;

/// The per-node work item: ASE enumeration, static bounding (and pruning)
/// of every candidate, then — only if a candidate survives — local-pattern
/// statistics, optional don't-care classification and exact pricing.
#[allow(clippy::too_many_arguments)]
fn evaluate_node(
    net: &Network,
    sim: &SimResult,
    config: &AlsConfig,
    needs_dont_cares: bool,
    budget: f64,
    classifier: &mut IncrementalClassifier,
    id: NodeId,
    signature: u64,
) -> NodeOutcome {
    let node = net.node(id);
    let k = node.fanins().len();
    if k > config.max_fanins || node.is_constant() {
        return NodeOutcome::empty(signature, budget);
    }
    let ases = generate_ases(node.expr(), k, config.max_enum_literals);
    if ases.is_empty() {
        return NodeOutcome::empty(signature, budget);
    }

    // Static bounds first: popcounts only, no per-pattern gather. An exact
    // ASE has an empty ELIP set and a `[0, 0]`-ish interval, so it can
    // never be pruned.
    let bounds = static_minterm_bounds(net, sim, id);
    let mut pruned_count = 0usize;
    let mut survivors: Vec<(Ase, Interval)> = Vec::new();
    for ase in ases {
        let interval = bounds.set_probability(&ase.elips);
        if interval.lo > budget + PRUNE_EPS {
            pruned_count += 1;
        } else {
            survivors.push((ase, interval));
        }
    }
    if survivors.is_empty() {
        // Every candidate statically infeasible: the gather (the expensive
        // per-pattern pass) never runs for this node.
        return NodeOutcome {
            entry: NodeEntry {
                signature,
                prune_budget: budget,
                candidates: Vec::new(),
            },
            pruned_count,
            gather_skipped: true,
        };
    }

    let probs = local_pattern_probabilities(net, sim, id);
    let dc = if !(needs_dont_cares && config.use_dont_cares) {
        DontCares::none(k)
    } else if config.exact_dont_cares {
        match als_dontcare::compute_exact_dont_cares(net, id, EXACT_DC_NODE_LIMIT) {
            Ok(dc) => dc,
            Err(_) => classifier.compute(net, id, &config.dont_care),
        }
    } else {
        classifier.compute(net, id, &config.dont_care)
    };
    let candidates = survivors
        .into_iter()
        .map(|(ase, interval)| {
            let apparent = apparent_error_rate(&ase, &probs);
            let estimate = estimated_real_error_rate(&ase, &probs, &dc);
            // Suite-wide soundness invariant, compiled out of release
            // builds: the dynamic apparent rate must sit inside its static
            // interval (up to pruning slack).
            debug_assert!(
                interval.contains_with_tol(apparent, PRUNE_EPS),
                "apparent rate {apparent} of {} escapes its static interval {interval}",
                node.name()
            );
            CandidateEval {
                ase,
                apparent,
                estimate,
                static_lo: interval.lo,
                static_hi: interval.hi,
            }
        })
        .collect();
    NodeOutcome {
        entry: NodeEntry {
            signature,
            prune_budget: budget,
            candidates,
        },
        pruned_count,
        gather_skipped: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// Two independent 4-input AND cones feeding separate POs, far enough
    /// apart that a change in one cone cannot influence the other.
    fn two_cones() -> (Network, Vec<NodeId>) {
        let mut net = Network::new("cones");
        let pis: Vec<NodeId> = (0..8).map(|i| net.add_pi(format!("x{i}"))).collect();
        let mut mids = Vec::new();
        for c in 0..2 {
            let base = c * 4;
            let g = net.add_node(
                format!("g{c}"),
                vec![pis[base], pis[base + 1]],
                Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
            );
            let h = net.add_node(
                format!("h{c}"),
                vec![g, pis[base + 2]],
                Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
            );
            let y = net.add_node(
                format!("y{c}"),
                vec![h, pis[base + 3]],
                Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
            );
            net.add_po(format!("o{c}"), y);
            mids.extend([g, h, y]);
        }
        (net, mids)
    }

    fn test_config() -> AlsConfig {
        let mut config = AlsConfig::with_threshold(0.10);
        config.patterns = 256;
        config
    }

    #[test]
    fn refresh_evaluates_every_internal_node_once() {
        let (net, mids) = two_cones();
        let config = test_config();
        let ctx = AlsContext::new(&net, &config);
        let mut engine = CandidateEngine::new(&config, true);
        engine.refresh(&net, &ctx);
        assert_eq!(engine.last_evaluated().len(), mids.len());
        // A second refresh with no changes touches nothing.
        engine.refresh(&net, &ctx);
        assert!(engine.last_evaluated().is_empty());
    }

    #[test]
    fn invalidation_reevaluates_exactly_the_cone() {
        let (net, mids) = two_cones();
        let config = test_config();
        let ctx = AlsContext::new(&net, &config);
        let mut engine = CandidateEngine::new(&config, true);
        let mut current = net.clone();
        engine.refresh(&current, &ctx);

        // Commit a change at the first cone's middle node, following the
        // two-call invalidation protocol (pre- and post-change cones).
        let pivot = mids[1]; // h0
        let cone = |net: &Network| -> Vec<bool> {
            let tfo = net.tfo_mask(pivot);
            let near = window_influence(
                net,
                pivot,
                config.dont_care.levels_in,
                config.dont_care.levels_out,
            );
            tfo.iter().zip(&near).map(|(a, b)| a | b).collect()
        };
        let pre = cone(&current);
        engine.invalidate_committed(&current, &[pivot]);
        current.replace_expr(pivot, Expr::lit(0, true));
        let post = cone(&current);
        engine.invalidate_committed(&current, &[pivot]);
        let expected: Vec<NodeId> = current
            .internal_ids()
            .filter(|id| pre[id.index()] || post[id.index()])
            .collect();
        engine.refresh(&current, &ctx);
        assert_eq!(engine.last_evaluated(), expected.as_slice());
        // The untouched cone must not appear.
        for &id in &mids[3..] {
            assert!(!engine.last_evaluated().contains(&id));
        }
    }

    #[test]
    fn signature_check_catches_out_of_band_rewrites() {
        let (net, mids) = two_cones();
        let config = test_config();
        let ctx = AlsContext::new(&net, &config);
        let mut engine = CandidateEngine::new(&config, true);
        let mut current = net.clone();
        engine.refresh(&current, &ctx);
        // Rewrite a node *without* telling the engine: the stale entry must
        // still be replaced on the next refresh thanks to the signature key.
        current.replace_expr(mids[0], Expr::lit(1, true));
        engine.refresh(&current, &ctx);
        assert!(engine.last_evaluated().contains(&mids[0]));
    }

    /// A wide network (many independent AND chains) so a 4-thread refresh
    /// really engages several workers (see [`MIN_NODES_PER_WORKER`]).
    fn wide_net() -> Network {
        let mut net = Network::new("wide");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        for i in 0..48 {
            let g = net.add_node(
                format!("g{i}"),
                vec![a, b],
                Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
            );
            let h = net.add_node(
                format!("h{i}"),
                vec![g, c],
                Cover::from_cubes(2, [cube(&[(0, true), (1, i % 2 == 0)])]),
            );
            net.add_po(format!("o{i}"), h);
        }
        net
    }

    #[test]
    fn thread_counts_agree() {
        let net = wide_net();
        let mut config = test_config();
        let ctx = AlsContext::new(&net, &config);
        let collect = |engine: &CandidateEngine| -> Vec<(NodeId, String, f64, f64)> {
            engine
                .node_ids()
                .into_iter()
                .flat_map(|id| {
                    engine
                        .candidates(id)
                        .map(|c| (id, c.ase.expr.to_string(), c.apparent, c.estimate))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        config.threads = 1;
        let mut one = CandidateEngine::new(&config, true);
        one.refresh(&net, &ctx);
        config.threads = 4;
        let mut four = CandidateEngine::new(&config, true);
        four.refresh(&net, &ctx);
        assert_eq!(collect(&one), collect(&four));
    }

    #[test]
    fn cache_disabled_recomputes_everything() {
        let (net, mids) = two_cones();
        let mut config = test_config();
        config.cache = false;
        let ctx = AlsContext::new(&net, &config);
        let mut engine = CandidateEngine::new(&config, true);
        engine.refresh(&net, &ctx);
        engine.refresh(&net, &ctx);
        assert_eq!(engine.last_evaluated().len(), mids.len());
    }

    #[test]
    fn refresh_from_sim_prices_identically_to_refresh() {
        let (net, mids) = two_cones();
        let config = test_config();
        let ctx = AlsContext::new(&net, &config);

        let mut fresh = CandidateEngine::new(&config, true);
        fresh.refresh(&net, &ctx);

        let mut given = CandidateEngine::new(&config, true);
        given.refresh_from_sim(&net, &ctx.simulate(&net), &ctx);

        for &id in &mids {
            let a: Vec<_> = fresh
                .candidates(id)
                .map(|c| (format!("{:?}", c.ase.expr), c.apparent, c.estimate))
                .collect();
            let b: Vec<_> = given
                .candidates(id)
                .map(|c| (format!("{:?}", c.ase.expr), c.apparent, c.estimate))
                .collect();
            assert_eq!(a, b, "candidate pricing diverged at node {id}");
        }
    }

    #[test]
    fn bans_survive_cache_flushes() {
        let (net, mids) = two_cones();
        let mut config = test_config();
        config.cache = false;
        let ctx = AlsContext::new(&net, &config);
        let mut engine = CandidateEngine::new(&config, true);
        engine.refresh(&net, &ctx);
        let banned_expr = engine
            .candidates(mids[0])
            .next()
            .expect("g0 has candidates")
            .ase
            .expr
            .clone();
        engine.ban(&net, mids[0], &banned_expr);
        engine.refresh(&net, &ctx);
        assert!(engine
            .candidates(mids[0])
            .all(|c| c.ase.expr != banned_expr));
    }
}
