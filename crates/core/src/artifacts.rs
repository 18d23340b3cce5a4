//! The golden-artifact bundle: everything derived once from the unmodified
//! circuit and shared by every synthesis run against it.
//!
//! Every run needs the same prologue: check the circuit, technology-map it
//! for the golden area/delay headline, run the abstract interpreter's
//! signal-probability pass, and simulate the golden network once per
//! (pattern budget, seed) to freeze the reference signatures.
//! [`CircuitArtifacts`] is that prologue, computed once: the sweep
//! orchestrator shares it across grid points, the `als serve` daemon across
//! requests, and the bench harness across thresholds and algorithms.
//!
//! Byte-identity is preserved by construction: a cached [`AlsContext`] is
//! exactly the `AlsContext::with_patterns` result [`AlsContext::new`] would
//! build for the same `(PI count, pattern budget, seed)` triple, and every
//! run gets a clone with its own telemetry handle and sampling policy
//! attached, so results on [`CircuitArtifacts::context`] are bit-for-bit
//! the results a cold [`approximate`](crate::approximate) call returns.

use crate::{AlsConfig, AlsContext, AlsError};
use als_mapper::{map_network, DelayMap, Library};
use als_network::Network;
use als_sim::PatternSet;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Everything derived from one golden circuit, shared across runs.
#[derive(Debug)]
pub struct CircuitArtifacts {
    /// The consistency-checked golden network.
    pub network: Arc<Network>,
    /// Golden literal count.
    pub golden_literals: u64,
    /// Golden mapped area (MCNC-like library).
    pub golden_area: f64,
    /// Golden mapped critical-path delay.
    pub golden_delay: f64,
    /// The golden network's topological delay map (arrival times and
    /// criticalities), kept for delay-aware scoring and diagnostics.
    pub delay_map: DelayMap,
    /// Nodes the abstract interpreter forced to worst-case Fréchet bounds
    /// (reconvergent fanout).
    pub absint_frechet_nodes: u64,
    /// Widest golden PO signal-probability interval.
    pub absint_max_po_width: f64,
    /// Golden-simulation contexts, one per (pattern budget, seed). Built
    /// under the lock so concurrent first requests for the same stimulus
    /// simulate the golden network once, not twice.
    contexts: Mutex<BTreeMap<(usize, u64), AlsContext>>,
}

impl CircuitArtifacts {
    /// Checks `network` and builds the circuit-level artifacts: mapping,
    /// delay map, absint summary. The golden-simulation contexts are filled
    /// lazily by [`CircuitArtifacts::context`].
    ///
    /// # Errors
    ///
    /// [`AlsError::InvalidNetwork`] when `network` fails its consistency
    /// check.
    pub fn build(network: Network) -> Result<CircuitArtifacts, AlsError> {
        network
            .check()
            .map_err(|e| AlsError::InvalidNetwork(e.to_string()))?;
        let lib = Library::mcnc_like();
        let mapped = map_network(&network, &lib);
        let delay_map = DelayMap::build(&network, &lib);
        let probs = als_absint::signal_probabilities(&network, als_absint::Policy::Exact);
        let absint_max_po_width = network
            .pos()
            .iter()
            .map(|(_, driver)| {
                let i = probs.interval(*driver);
                i.hi - i.lo
            })
            .fold(0.0, f64::max);
        Ok(CircuitArtifacts {
            golden_literals: network.literal_count() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            golden_area: mapped.area(),
            golden_delay: mapped.delay(),
            delay_map,
            absint_frechet_nodes: probs.frechet_count() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            absint_max_po_width,
            network: Arc::new(network),
            contexts: Mutex::new(BTreeMap::new()),
        })
    }

    /// A golden-simulation context for the config's (pattern budget, seed),
    /// with the config's telemetry and sampling policy attached — ready to
    /// hand to [`approximate_with_context`](crate::approximate_with_context).
    /// Returns whether the context was served from the cache (`true`) or
    /// simulated fresh (`false`).
    pub fn context(&self, config: &AlsConfig) -> (AlsContext, bool) {
        let key = (config.pattern_budget(), config.seed);
        let mut contexts = self.contexts.lock().unwrap_or_else(PoisonError::into_inner);
        let (ctx, hit) = if let Some(ctx) = contexts.get(&key) {
            (ctx.clone(), true)
        } else {
            let patterns = PatternSet::random(self.network.num_pis(), key.0, key.1);
            let ctx = AlsContext::with_patterns(&self.network, patterns);
            contexts.insert(key, ctx.clone());
            (ctx, false)
        };
        drop(contexts);
        (
            ctx.with_telemetry(config.telemetry.clone())
                .with_sampling(config),
            hit,
        )
    }

    /// Golden-simulation contexts currently cached for this circuit.
    pub fn num_contexts(&self) -> usize {
        self.contexts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approximate, approximate_with_context, PatternPolicy, Strategy};
    use als_network::blif;

    fn rca(width: usize) -> CircuitArtifacts {
        CircuitArtifacts::build(als_circuits::adders::ripple_carry_adder(width)).unwrap()
    }

    fn config(threshold: f64, seed: u64) -> AlsConfig {
        AlsConfig::builder()
            .threshold(threshold)
            .patterns(PatternPolicy::Fixed(256))
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn artifacts_carry_the_golden_summary() {
        let arts = rca(32);
        assert!(arts.golden_literals > 0);
        assert!(arts.golden_area > 0.0);
        assert!(arts.golden_delay > 0.0);
        assert!(arts.delay_map.critical() > 0.0);
        assert!(arts.absint_max_po_width >= 0.0);
    }

    #[test]
    fn context_cache_is_keyed_by_budget_and_seed() {
        let arts = rca(32);
        let (_, hit1) = arts.context(&config(0.05, 1));
        let (_, hit2) = arts.context(&config(0.05, 1));
        assert!(!hit1);
        assert!(hit2);
        // A new threshold reuses the same stimulus entry.
        let (_, hit3) = arts.context(&config(0.20, 1));
        assert!(hit3);
        let (_, hit4) = arts.context(&config(0.05, 2));
        assert!(!hit4);
        assert_eq!(arts.num_contexts(), 2);
    }

    /// A run on a shared context writes the same BLIF as a cold
    /// `approximate` for every strategy — the byte-identity contract the
    /// sweep, the daemon and the bench harness rely on.
    #[test]
    fn runs_on_shared_contexts_match_cold_runs() {
        let arts = rca(6);
        let mut changed = false;
        for strategy in [Strategy::Single, Strategy::Multi, Strategy::Sasimi] {
            for threshold in [0.05, 0.2] {
                let config = config(threshold, 3);
                let cold = approximate(&arts.network, strategy, &config).unwrap();
                let (ctx, _) = arts.context(&config);
                let warm = approximate_with_context(&arts.network, strategy, &config, ctx).unwrap();
                assert_eq!(
                    blif::write(&warm.network),
                    blif::write(&cold.network),
                    "{strategy:?} @ {threshold}"
                );
                assert_eq!(warm.measured_error_rate, cold.measured_error_rate);
                changed |= cold.final_literals < cold.initial_literals;
            }
        }
        assert!(
            changed,
            "no run committed a change; the comparison is vacuous"
        );
    }
}
