use crate::AlsConfig;
use als_network::{Network, NodeId};
use als_sim::{
    error_rate_from_sim, magnitude_stats_from_sim, po_words, simulate, PatternSet, SimResult,
};
use als_telemetry::{Event, Telemetry};

/// Shared plumbing for both algorithms: the frozen reference (golden PO
/// signatures of the *original* network) and the stimulus, so every
/// iteration measures the error rate against the unmodified input circuit.
// Clone shares nothing mutable: a sweep builds one context per pattern
// count (paying the golden simulation once) and hands each grid job its
// own copy.
#[derive(Clone, Debug)]
pub struct AlsContext {
    patterns: PatternSet,
    reference_po_words: Vec<Vec<u64>>,
    telemetry: Telemetry,
}

impl AlsContext {
    /// Simulates the original network once and freezes its PO signatures as
    /// the golden reference, drawing uniform random stimulus from the config
    /// (the paper's setting).
    pub fn new(original: &Network, config: &AlsConfig) -> Self {
        let patterns = PatternSet::random(original.num_pis(), config.patterns, config.seed);
        Self::with_patterns(original, patterns).with_telemetry(config.telemetry.clone())
    }

    /// Like [`AlsContext::new`] but with caller-supplied stimulus — the
    /// workload-aware mode: all error rates (hence the whole synthesis
    /// budget) are then measured under the application's input
    /// distribution.
    pub fn with_patterns(original: &Network, patterns: PatternSet) -> Self {
        let sim = simulate(original, &patterns);
        let reference_po_words = po_words(original, &sim);
        AlsContext {
            patterns,
            reference_po_words,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; every simulation and measurement then
    /// emits one coarse event. Events carry only timings and sizes, so the
    /// measured results are identical with any sink.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The stimulus all measurements share.
    pub fn patterns(&self) -> &PatternSet {
        &self.patterns
    }

    /// The number of POs the golden reference holds signatures for.
    pub(crate) fn num_pos(&self) -> usize {
        self.reference_po_words.len()
    }

    /// Emits one aggregated `similarity_scanned` event for a SASIMI
    /// pairwise candidate sweep.
    pub(crate) fn record_similarity_scan(
        &self,
        pairs: u64,
        early_rejects: u64,
        words: u64,
        words_full: u64,
    ) {
        self.telemetry.emit(|| Event::SimilarityScanned {
            pairs,
            early_rejects,
            words,
            words_full,
        });
    }

    /// Simulates `candidate` (fresh signatures for its current structure).
    /// A run simulates once and keeps the result up to date with
    /// [`update_and_accept`](Self::update_and_accept).
    pub fn simulate(&self, candidate: &Network) -> SimResult {
        let mark = self.telemetry.start();
        let sim = simulate(candidate, &self.patterns);
        self.telemetry.emit(|| Event::Simulated {
            patterns: self.patterns.num_patterns() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            nodes: candidate.num_internal() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            nanos: Telemetry::nanos_since(mark),
        });
        sim
    }

    /// Runs one dirty-set update of `sim` against the current structure of
    /// `candidate`, emitting a `Resimulated` event with the work counters.
    fn update_resim(&self, sim: &mut SimResult, candidate: &Network, dirty: &[NodeId]) {
        let mark = self.telemetry.start();
        let delta = sim.update(candidate, dirty);
        self.telemetry.emit(|| Event::Resimulated {
            dirty: delta.dirty,
            resim_nodes: delta.resim_nodes,
            skipped_early_exit: delta.skipped_early_exit,
            full_equivalent: delta.full_equivalent,
            words: delta.words_simulated,
            nanos: Telemetry::nanos_since(mark),
        });
    }

    /// Measures the error rate of `candidate` from its up-to-date
    /// signatures `sim`.
    pub fn measure(&self, candidate: &Network, sim: &SimResult) -> f64 {
        let mark = self.telemetry.start();
        let rate = error_rate_from_sim(&self.reference_po_words, candidate, sim);
        self.telemetry.emit(|| Event::Measured {
            error_rate: rate,
            nanos: Telemetry::nanos_since(mark),
        });
        rate
    }

    /// Whether `candidate` satisfies both the error-rate threshold and (if
    /// configured) the magnitude constraint, measured from its up-to-date
    /// signatures `sim`; returns the measured rate on success.
    fn accepts(&self, candidate: &Network, sim: &SimResult, config: &AlsConfig) -> Option<f64> {
        let rate = self.measure(candidate, sim);
        if rate > config.threshold {
            return None;
        }
        if let Some(mc) = config.magnitude {
            let stats = magnitude_stats_from_sim(&self.reference_po_words, candidate, sim);
            if stats.max_abs > mc.max_abs {
                return None;
            }
        }
        Some(rate)
    }

    /// Resimulates one trial change (dirty set `dirty` applied to `trial`)
    /// over the full pattern set and decides acceptance.
    ///
    /// When `propagate` is set, `trial.propagate_constants()` runs after the
    /// dirty set is resimulated, followed by an empty-dirty reconciliation
    /// update: the two-phase protocol of multi-selection and SASIMI, whose
    /// constant sweeps rewrite users that were never dirty. All updates
    /// share one undo span: callers pair this with `sim.commit()` /
    /// `sim.rollback()`.
    pub fn update_and_accept(
        &self,
        sim: &mut SimResult,
        trial: &mut Network,
        dirty: &[NodeId],
        propagate: bool,
        config: &AlsConfig,
    ) -> Option<f64> {
        self.update_resim(sim, trial, dirty);
        if propagate {
            trial.propagate_constants();
            self.update_resim(sim, trial, &[]);
        }
        self.accepts(trial, sim, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};

    #[test]
    fn measure_is_zero_for_unchanged_network() {
        let mut net = Network::new("t");
        let a = net.add_pi("a");
        let y = net.add_node(
            "y",
            vec![a],
            Cover::from_cubes(1, [Cube::from_literals(&[(0, false)]).unwrap()]),
        );
        net.add_po("y", y);
        let ctx = AlsContext::new(&net, &AlsConfig::default());
        assert_eq!(ctx.measure(&net, &ctx.simulate(&net)), 0.0);
        // Breaking the network is detected.
        let mut broken = net.clone();
        let d = broken.pos()[0].1;
        broken.replace_with_constant(d, true);
        assert!(ctx.measure(&broken, &ctx.simulate(&broken)) > 0.4); // y = a' is wrong half the time
    }
}
