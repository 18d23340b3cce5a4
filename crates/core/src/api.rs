//! The one documented entry point, [`approximate`], and the run frame all
//! three strategies share.

use crate::engine::resolve_threads;
use crate::report::{IterationRecord, SelectedChange};
use crate::{preprocess, AlsConfig, AlsContext, AlsError, AlsOutcome};
use als_network::Network;
use als_sim::{PatternSet, SimResult, MAX_MAGNITUDE_OUTPUTS};
use als_telemetry::{Event, MetricsCollector, PhaseKind, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// Which synthesis algorithm [`approximate`] runs. All three share one outer
/// loop: find candidates, select, apply, re-measure the error rate against
/// the original network, and stop at the threshold. The returned network
/// always satisfies the threshold, measured on the run's stimulus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Strategy {
    /// Paper Algorithm 1: per iteration, every node's feasible ASEs are
    /// scored by `saved literals / estimated real error rate` (don't cares
    /// discarded per §3.3) and the single best change is applied; the loop
    /// stops when no feasible change remains or the measured error rate
    /// would exceed the threshold.
    ///
    /// Candidate pricing is served by the
    /// [`CandidateEngine`](crate::CandidateEngine): node analyses
    /// (local-pattern probabilities, don't-cares, ASE estimates) are cached
    /// between iterations and re-computed — in parallel when
    /// [`AlsConfig::threads`] allows — only for nodes inside the
    /// invalidation cone of each committed change. That locality is what
    /// distinguishes this method from SASIMI's global pairwise search.
    Single,
    /// Paper Algorithm 2: per iteration, every node's ASEs become the states
    /// of a knapsack item (weight = scaled **apparent** error rate, value =
    /// saved literals, capacity = scaled error-rate margin); the multi-state
    /// knapsack DP of [`knapsack::solve`](crate::knapsack::solve) picks an
    /// optimal set of simultaneous changes, justified by the paper's
    /// Theorem 1 (the sum of apparent error rates bounds the combined
    /// error-rate increase).
    ///
    /// Candidate pricing comes from the
    /// [`CandidateEngine`](crate::CandidateEngine) (apparent rates only —
    /// don't-care windows are never built here), cached between iterations
    /// and re-evaluated only inside the transitive fanout of each committed
    /// batch. The measured error rate is re-checked after every batch; an
    /// overshooting batch is rolled back and ends the run, except under a
    /// [`MagnitudeConstraint`](crate::MagnitudeConstraint), where it is
    /// retried with half the knapsack capacity.
    Multi,
    /// The SASIMI *substitute-and-simplify* baseline (Venkataramani et al.,
    /// DATE'13), as configured in the paper's comparison: timing handling
    /// and gate downsizing off, area only. It finds signal pairs that agree
    /// on almost every input vector and substitutes one for the other
    /// (possibly inverted). Candidate generation compares all signal pairs
    /// — quadratic in the signal count, which is why the paper's node-local
    /// algorithms are faster. Shared knobs (`patterns`, `seed`, `threshold`,
    /// `max_iterations`) are honoured; the ASE- and don't-care-related
    /// options and the §6 pre-process do not apply.
    Sasimi,
}

/// Approximates `net` under the error-rate constraint in `config`, using the
/// given strategy. This is the library's documented entry point.
///
/// The returned network always satisfies the threshold, measured on the
/// run's stimulus against the unmodified input.
///
/// # Errors
///
/// * [`AlsError::InvalidConfig`] when a configuration field violates its
///   documented constraint, or a [`MagnitudeConstraint`](crate::MagnitudeConstraint)
///   is set on a network with more POs than a magnitude can weigh
///   ([`MAX_MAGNITUDE_OUTPUTS`]);
/// * [`AlsError::InvalidNetwork`] when `net` fails its consistency check.
///
/// # Example
///
/// ```
/// use als_core::{approximate, AlsConfig, Strategy};
/// use als_network::blif;
///
/// let net = blif::parse("\
/// .model toy
/// .inputs a b c
/// .outputs y
/// .names a b t
/// 11 1
/// .names t c y
/// 1- 1
/// -1 1
/// .end
/// ")?;
/// let config = AlsConfig::builder().threshold(0.10).build()?;
/// let outcome = approximate(&net, Strategy::Single, &config)?;
/// assert!(outcome.measured_error_rate <= 0.10);
/// assert!(outcome.network.literal_count() <= net.literal_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn approximate(
    net: &Network,
    strategy: Strategy,
    config: &AlsConfig,
) -> Result<AlsOutcome, AlsError> {
    validate(net, config)?;
    let ctx = AlsContext::new(net, config);
    Ok(run(net, strategy, config, ctx))
}

/// Workload-aware variant of [`approximate`]: every error rate (hence the
/// whole synthesis budget) is measured under the supplied stimulus (see
/// [`PatternSet::from_vectors`]) instead of uniform random vectors.
///
/// # Errors
///
/// Same as [`approximate`], plus [`AlsError::InvalidConfig`] when the
/// pattern set drives a different PI count than `net` has.
pub fn approximate_under(
    net: &Network,
    strategy: Strategy,
    config: &AlsConfig,
    patterns: PatternSet,
) -> Result<AlsOutcome, AlsError> {
    validate(net, config)?;
    check_pis(net, "pattern set", patterns.num_pis())?;
    let ctx = AlsContext::with_patterns(net, patterns);
    Ok(run(net, strategy, config, ctx))
}

/// [`approximate`] with a caller-supplied [`AlsContext`] — the
/// artifact-sharing entry point. [`CircuitArtifacts::context`](crate::CircuitArtifacts::context)
/// builds one context per (pattern count, seed) and hands every run a
/// clone, amortizing the golden simulation.
///
/// **Byte-identity contract:** when `ctx` carries the stimulus
/// [`approximate`] would draw itself —
/// `PatternSet::random(net.num_pis(), config.patterns, config.seed)` — the
/// outcome is byte-identical to a cold [`approximate`] call. The caller
/// owns that contract; a mismatched context simply measures under its own
/// stimulus, like [`approximate_under`].
///
/// # Errors
///
/// Same as [`approximate`], plus [`AlsError::InvalidConfig`] when `ctx` was
/// built for a circuit with a different PI or PO count than `net`.
pub fn approximate_with_context(
    net: &Network,
    strategy: Strategy,
    config: &AlsConfig,
    ctx: AlsContext,
) -> Result<AlsOutcome, AlsError> {
    validate(net, config)?;
    check_pis(net, "context", ctx.patterns().num_pis())?;
    if ctx.num_pos() != net.num_pos() {
        return Err(AlsError::InvalidConfig(format!(
            "context holds golden signatures for {} POs but the network has {}",
            ctx.num_pos(),
            net.num_pos()
        )));
    }
    Ok(run(net, strategy, config, ctx))
}

fn validate(net: &Network, config: &AlsConfig) -> Result<(), AlsError> {
    config.validate()?;
    net.check()
        .map_err(|e| AlsError::InvalidNetwork(e.to_string()))?;
    check_magnitude_outputs(net, config)
}

/// Rejects a magnitude constraint on a network with more POs than one
/// magnitude value holds: measuring it would panic.
pub(crate) fn check_magnitude_outputs(net: &Network, config: &AlsConfig) -> Result<(), AlsError> {
    if config.magnitude.is_none() || net.num_pos() <= MAX_MAGNITUDE_OUTPUTS {
        return Ok(());
    }
    Err(AlsError::InvalidConfig(format!(
        "a magnitude constraint weighs at most {MAX_MAGNITUDE_OUTPUTS} POs but the network \
         has {}",
        net.num_pos()
    )))
}

/// Rejects stimulus for another circuit: simulating `net` under it would
/// panic.
fn check_pis(net: &Network, source: &str, pis: usize) -> Result<(), AlsError> {
    if pis == net.num_pis() {
        return Ok(());
    }
    Err(AlsError::InvalidConfig(format!(
        "{source} drives {pis} PIs but the network has {}",
        net.num_pis()
    )))
}

/// Dispatches a pre-validated run with an already-built context. The sweep
/// orchestrator calls this directly so grid jobs can inject clones of a
/// shared context instead of re-simulating the golden network per point.
pub(crate) fn run(
    net: &Network,
    strategy: Strategy,
    config: &AlsConfig,
    ctx: AlsContext,
) -> AlsOutcome {
    let mut run = Run::new(net, strategy, config, ctx);
    match strategy {
        Strategy::Single => crate::single::select(&mut run),
        Strategy::Multi => crate::multi::select(&mut run),
        Strategy::Sasimi => crate::sasimi::select(&mut run),
    }
    run.finish()
}

/// The run frame: everything one synthesis run does around its strategy's
/// candidate search. A strategy loops on [`next_iteration`](Run::next_iteration),
/// applies and measures its candidates on `current` through `sim`, and
/// reports each accepted iteration to [`commit`](Run::commit).
pub(crate) struct Run {
    /// The caller's config with the run's metrics collector attached.
    pub(crate) config: AlsConfig,
    /// The golden reference and stimulus, reporting to the run's sinks.
    pub(crate) ctx: AlsContext,
    /// The network under approximation. Between iterations it is the last
    /// committed state; a strategy applies trial changes to it (or to a
    /// clone) and restores it when the trial is rejected.
    pub(crate) current: Network,
    /// The signatures of `current`: one full simulation at construction,
    /// dirty-set updates afterwards (`--resim full` degrades every update
    /// to a full pass; results are byte-identical).
    pub(crate) sim: SimResult,
    /// The measured error rate of `current` against the original network.
    error_rate: f64,
    /// The number of the iteration in progress (0 before the first).
    iteration: usize,
    iter_mark: Option<Instant>,
    iterations: Vec<IterationRecord>,
    initial_literals: usize,
    collector: Arc<MetricsCollector>,
    start: Instant,
}

impl Run {
    /// Starts a run: attaches the metrics collector, emits `run_start`,
    /// runs the §6 pre-process for the paper's two algorithms, and measures
    /// the start rate.
    fn new(original: &Network, strategy: Strategy, config: &AlsConfig, ctx: AlsContext) -> Self {
        // lint:allow(nondeterminism): feeds telemetry wall-clock only, never the synthesis outcome
        let start = Instant::now();
        // Metrics for `AlsOutcome::metrics` are gathered through the same
        // sink machinery as user telemetry: an internal collector rides
        // alongside any configured sinks. Events are coarse (per refresh /
        // iteration), so the collector's cost is negligible and results are
        // unaffected.
        let collector = Arc::new(MetricsCollector::new());
        let mut config = config.clone();
        config.telemetry = config.telemetry.with(collector.clone());
        let ctx = ctx.with_telemetry(config.telemetry.clone());
        // SASIMI's pairwise search is sequential and runs no pre-process.
        let (algorithm, threads, preprocesses) = match strategy {
            Strategy::Single => ("single-selection", resolve_threads(config.threads), true),
            Strategy::Multi => ("multi-selection", resolve_threads(config.threads), true),
            Strategy::Sasimi => ("sasimi", 1, false),
        };
        config.telemetry.emit(|| Event::RunStart {
            algorithm,
            threads,
            num_patterns: ctx.patterns().num_patterns(),
            nodes: original.num_internal(),
            threshold: config.threshold,
            seed: config.seed,
        });

        let mut current = original.clone();
        if preprocesses {
            let mark = config.telemetry.start();
            if config.preprocess {
                preprocess::remove_redundancies(&mut current, ctx.patterns());
            }
            config.telemetry.emit(|| Event::PhaseEnd {
                phase: PhaseKind::Preprocess,
                nanos: Telemetry::nanos_since(mark),
            });
        }
        let mut sim = ctx.simulate(&current);
        sim.set_full_resim(config.resim.is_full());
        let error_rate = ctx.measure(&current, &sim);
        Run {
            config,
            ctx,
            current,
            sim,
            error_rate,
            iteration: 0,
            iter_mark: None,
            iterations: Vec::new(),
            initial_literals: original.literal_count(),
            collector,
            start,
        }
    }

    /// The error budget left: threshold minus the measured rate.
    pub(crate) fn margin(&self) -> f64 {
        self.config.threshold - self.error_rate
    }

    /// Starts the next iteration, or returns `false` when the run stops: the
    /// rate is over the threshold, the config's
    /// [`CancelToken`](crate::CancelToken) is tripped, or `max_iterations`
    /// have run. The network satisfies the threshold at every iteration
    /// boundary, so stopping there is sound.
    pub(crate) fn next_iteration(&mut self) -> bool {
        if self.iteration >= self.config.max_iterations
            || self.margin() < 0.0
            || self.config.cancel.is_cancelled()
        {
            return false;
        }
        self.iteration += 1;
        self.iter_mark = self.config.telemetry.start();
        true
    }

    /// Records the accepted iteration: `current` is the committed network
    /// and `error_rate` its measured rate. Each change carries its static
    /// `(lo, hi)` apparent-rate bounds, `None` when the strategy runs no
    /// static analysis.
    pub(crate) fn commit(
        &mut self,
        changes: Vec<(SelectedChange, Option<(f64, f64)>)>,
        error_rate: f64,
    ) {
        self.error_rate = error_rate;
        let literals_after = self.current.literal_count();
        let iteration = self.iteration as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
        let mut record = Vec::with_capacity(changes.len());
        for (change, bounds) in changes {
            self.config.telemetry.emit(|| Event::ChangeCommitted {
                iteration,
                node: change.node_name.clone(),
                ase: change.ase.clone(),
                literals_saved: change.literals_saved as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                apparent: change.apparent,
                static_lo: bounds.map(|(lo, _)| lo),
                static_hi: bounds.map(|(_, hi)| hi),
            });
            record.push(change);
        }
        let num_changes = record.len() as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
        self.iterations.push(IterationRecord {
            iteration: self.iteration,
            changes: record,
            literals_after,
            error_rate_after: error_rate,
        });
        self.config.telemetry.emit(|| Event::IterationEnd {
            iteration,
            changes: num_changes,
            literals: literals_after as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            error_rate,
            nanos: Telemetry::nanos_since(self.iter_mark),
        });
    }

    /// Ends the run: emits `run_end` and returns the outcome.
    fn finish(self) -> AlsOutcome {
        debug_assert!(self.current.check().is_ok());
        let final_literals = self.current.literal_count();
        self.config.telemetry.emit(|| Event::RunEnd {
            iterations: self.iterations.len() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            literals: final_literals as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            error_rate: self.error_rate,
            nanos: self.start.elapsed().as_nanos() as u64, // lint:allow(as-cast): run duration << 584 years
        });
        AlsOutcome {
            final_literals,
            measured_error_rate: self.error_rate,
            network: self.current,
            iterations: self.iterations,
            initial_literals: self.initial_literals,
            runtime: self.start.elapsed(),
            metrics: self.collector.report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};

    fn toy() -> Network {
        let mut net = Network::new("toy");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let y = net.add_node(
            "y",
            vec![a, b],
            Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)]).unwrap()]),
        );
        net.add_po("y", y);
        net
    }

    #[test]
    fn rejects_invalid_config() {
        let net = toy();
        let config = AlsConfig {
            threshold: 2.0,
            ..AlsConfig::default()
        };
        for strategy in [Strategy::Single, Strategy::Multi, Strategy::Sasimi] {
            let err = approximate(&net, strategy, &config).unwrap_err();
            assert!(matches!(err, AlsError::InvalidConfig(_)));
        }
    }

    #[test]
    fn all_strategies_produce_sound_outcomes() {
        let net = toy();
        let config = AlsConfig::builder()
            .threshold(0.30)
            .patterns(256)
            .build()
            .unwrap();
        for strategy in [Strategy::Single, Strategy::Multi, Strategy::Sasimi] {
            let out = approximate(&net, strategy, &config).unwrap();
            assert!(out.measured_error_rate <= 0.30 + 1e-12, "{strategy:?}");
            assert!(out.final_literals <= out.initial_literals, "{strategy:?}");
        }
    }

    #[test]
    fn workload_variant_checks_pi_count() {
        let net = toy();
        let config = AlsConfig::default();
        let wrong = PatternSet::exhaustive(3).unwrap();
        let err = approximate_under(&net, Strategy::Single, &config, wrong).unwrap_err();
        assert!(matches!(err, AlsError::InvalidConfig(ref m) if m.contains("PI")));
        // A context built for another circuit: one with more PIs, or one
        // with the same PIs and a PO fewer.
        let rca4 = als_circuits::ripple_carry_adder(4);
        let rca6 = als_circuits::ripple_carry_adder(6);
        let mut two_pos = toy();
        let y = two_pos.pos()[0].1;
        two_pos.add_po("z", y);
        for strategy in [Strategy::Single, Strategy::Multi, Strategy::Sasimi] {
            for (net, other, count) in [(&rca4, &rca6, "PIs"), (&two_pos, &net, "POs")] {
                let ctx = AlsContext::new(other, &config);
                let err = approximate_with_context(net, strategy, &config, ctx).unwrap_err();
                assert!(
                    matches!(err, AlsError::InvalidConfig(ref m) if m.contains(count)),
                    "{strategy:?}: {err}"
                );
            }
        }
    }

    /// 130 POs, each a 4-input AND over 8 PIs: wider than a magnitude can
    /// weigh.
    fn wide_and_net() -> Network {
        let mut net = Network::new("wide_and");
        let pis: Vec<_> = (0..8).map(|i| net.add_pi(format!("x{i}"))).collect();
        let and4 = Cube::from_literals(&[(0, true), (1, true), (2, true), (3, true)]).unwrap();
        for i in 0..130 {
            let fanins = (0..4).map(|k| pis[(i + k) % 8]).collect();
            let g = net.add_node(format!("g{i}"), fanins, Cover::from_cubes(4, [and4]));
            net.add_po(format!("y{i}"), g);
        }
        net
    }

    #[test]
    fn magnitude_constraint_on_too_many_outputs_is_an_error() {
        let net = wide_and_net();
        let config = AlsConfig::builder()
            .threshold(0.2)
            .patterns(256)
            .magnitude(Some(crate::MagnitudeConstraint { max_abs: 1 }))
            .build()
            .unwrap();
        for strategy in [Strategy::Single, Strategy::Multi, Strategy::Sasimi] {
            let patterns = PatternSet::random(net.num_pis(), config.patterns, config.seed);
            let ctx = AlsContext::new(&net, &config);
            let grid = crate::sweep::SweepGrid {
                thresholds: vec![0.2],
                strategies: vec![strategy],
                patterns: vec![256],
                ..crate::sweep::SweepGrid::quick()
            };
            for err in [
                approximate(&net, strategy, &config).unwrap_err(),
                approximate_under(&net, strategy, &config, patterns).unwrap_err(),
                approximate_with_context(&net, strategy, &config, ctx).unwrap_err(),
                crate::sweep::run_sweep("wide_and", &net, &grid, &config).unwrap_err(),
            ] {
                assert!(
                    matches!(err, AlsError::InvalidConfig(ref m) if m.contains("has 130")),
                    "{strategy:?}: {err}"
                );
            }
        }
    }
}
