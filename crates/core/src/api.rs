//! The one documented entry point: [`approximate`].

use crate::{AlsConfig, AlsContext, AlsError, AlsOutcome};
use als_network::Network;
use als_sim::PatternSet;

/// Which synthesis algorithm [`approximate`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Strategy {
    /// Paper Algorithm 1: one best-scored change per iteration, priced with
    /// don't-care-aware real-error estimates (§3.3).
    Single,
    /// Paper Algorithm 2: a batch of changes per iteration, chosen by the
    /// multi-state knapsack over apparent error rates (Theorem 1).
    Multi,
    /// The SASIMI signal-substitution baseline (DATE'13), as configured in
    /// the paper's comparison.
    Sasimi,
}

/// Approximates `net` under the error-rate constraint in `config`, using the
/// given strategy. This is the library's documented session entry point; the
/// per-algorithm functions ([`single_selection`](crate::single_selection),
/// [`multi_selection`](crate::multi_selection),
/// [`sasimi`](crate::sasimi::sasimi)) are thin wrappers around it.
///
/// The returned network always satisfies the threshold, measured on the
/// run's stimulus against the unmodified input.
///
/// # Errors
///
/// * [`AlsError::InvalidConfig`] when a configuration field violates its
///   documented constraint;
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
    config.validate()?;
    net.check()
        .map_err(|e| AlsError::InvalidNetwork(e.to_string()))?;
    let ctx = AlsContext::new(net, config);
    Ok(run(net, strategy, config, ctx))
}

/// Workload-aware variant of [`approximate`]: every error rate (hence the
/// whole synthesis budget) is measured under the supplied stimulus instead
/// of uniform random vectors.
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
    config.validate()?;
    net.check()
        .map_err(|e| AlsError::InvalidNetwork(e.to_string()))?;
    if patterns.num_pis() != net.num_pis() {
        return Err(AlsError::InvalidConfig(format!(
            "pattern set drives {} PIs but the network has {}",
            patterns.num_pis(),
            net.num_pis()
        )));
    }
    let ctx = AlsContext::with_patterns(net, patterns);
    Ok(run(net, strategy, config, ctx))
}

/// [`approximate`] with a caller-supplied [`AlsContext`] — the
/// artifact-sharing entry point. [`CircuitArtifacts::context`](crate::CircuitArtifacts::context)
/// builds one context per (pattern budget, seed) and hands every run a
/// clone, amortizing the golden simulation.
///
/// **Byte-identity contract:** when `ctx` carries the stimulus
/// [`approximate`] would draw itself —
/// `PatternSet::random(net.num_pis(), config.pattern_budget(), config.seed)`
/// — and the config's sampling policy (see [`AlsContext::with_sampling`]),
/// the outcome is byte-identical to a cold [`approximate`] call. The caller
/// owns that contract; a mismatched context simply measures under its own
/// stimulus, like [`approximate_under`].
///
/// # Errors
///
/// Same as [`approximate`].
pub fn approximate_with_context(
    net: &Network,
    strategy: Strategy,
    config: &AlsConfig,
    ctx: AlsContext,
) -> Result<AlsOutcome, AlsError> {
    config.validate()?;
    net.check()
        .map_err(|e| AlsError::InvalidNetwork(e.to_string()))?;
    Ok(run(net, strategy, config, ctx))
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
    match strategy {
        Strategy::Single => crate::single::single_selection_with_context(net, config, ctx),
        Strategy::Multi => crate::multi::multi_selection_with_context(net, config, ctx),
        Strategy::Sasimi => crate::sasimi::sasimi_with_context(net, config, ctx),
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
            .patterns(crate::PatternPolicy::Fixed(256))
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
    }
}
