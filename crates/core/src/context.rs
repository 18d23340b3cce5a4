use crate::AlsConfig;
use als_absint::Interval;
use als_network::{Network, NodeId};
use als_sim::{
    error_count_range_from_view, error_rate_from_view, magnitude_stats_from_view, po_words,
    simulate, IncrementalSim, PatternSet, SimResult, SimView, UpdateDelta,
};
use als_telemetry::{Event, Telemetry};

/// Shared plumbing for both algorithms: the frozen reference (golden PO
/// signatures of the *original* network) and the stimulus, so every
/// iteration measures the error rate against the unmodified input circuit.
// Clone shares nothing mutable: a sweep builds one context per pattern
// budget (paying the golden simulation once) and hands each grid job its
// own copy.
#[derive(Clone, Debug)]
pub struct AlsContext {
    patterns: PatternSet,
    reference_po_words: Vec<Vec<u64>>,
    telemetry: Telemetry,
    /// Starting word prefix for adaptive pattern sampling (`None` = fixed
    /// sampling: every trial simulates the full pattern budget at once).
    adaptive_min_words: Option<usize>,
}

impl AlsContext {
    /// Simulates the original network once and freezes its PO signatures as
    /// the golden reference, drawing uniform random stimulus from the config
    /// (the paper's setting).
    pub fn new(original: &Network, config: &AlsConfig) -> Self {
        let patterns = PatternSet::random(original.num_pis(), config.pattern_budget(), config.seed);
        Self::with_patterns(original, patterns)
            .with_telemetry(config.telemetry.clone())
            .with_sampling(config)
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
            adaptive_min_words: None,
        }
    }

    /// Attaches a telemetry handle; every simulation and measurement then
    /// emits one coarse event. Events carry only timings and sizes, so the
    /// measured results are identical with any sink.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Adopts the config's [`PatternPolicy`](crate::PatternPolicy): under
    /// `Adaptive { min, .. }` trial measurements in
    /// [`update_and_accept`](AlsContext::update_and_accept) start from a
    /// `⌈min/64⌉`-word prefix of the stimulus and escalate; under `Fixed`
    /// every trial simulates the full budget at once, as before.
    pub fn with_sampling(mut self, config: &AlsConfig) -> Self {
        self.adaptive_min_words = config
            .patterns
            .adaptive_min()
            .map(|min| min.div_ceil(64).max(1));
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

    /// The starting word prefix for adaptive probes (`None` under fixed
    /// sampling).
    pub(crate) fn adaptive_min_words(&self) -> Option<usize> {
        self.adaptive_min_words
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

    /// Builds a persistent incremental resimulation engine seeded with a
    /// full simulation of `candidate` (counted as one `Simulated` event —
    /// construction *is* a full simulation).
    pub fn incremental(&self, candidate: &Network) -> IncrementalSim {
        let mark = self.telemetry.start();
        let inc = IncrementalSim::new(candidate, &self.patterns);
        self.telemetry.emit(|| Event::Simulated {
            patterns: self.patterns.num_patterns() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            nodes: candidate.num_internal() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            nanos: Telemetry::nanos_since(mark),
        });
        inc
    }

    /// Runs one incremental dirty-set update of `inc` against the current
    /// structure of `candidate`, emitting a `Resimulated` event with the
    /// work counters.
    fn update_resim(
        &self,
        inc: &mut IncrementalSim,
        candidate: &Network,
        dirty: &[NodeId],
    ) -> UpdateDelta {
        let wps = inc.words_per_signal();
        self.update_resim_range(inc, candidate, dirty, 0, wps)
    }

    /// [`update_resim`](AlsContext::update_resim) restricted to the word
    /// range `[start_word, end_word)` of every recomputed signature — the
    /// adaptive-sampling probe primitive. Same structural contract as
    /// [`IncrementalSim::update_range`]: no structural edits between the
    /// ranged rounds of one span.
    fn update_resim_range(
        &self,
        inc: &mut IncrementalSim,
        candidate: &Network,
        dirty: &[NodeId],
        start_word: usize,
        end_word: usize,
    ) -> UpdateDelta {
        let mark = self.telemetry.start();
        let delta = inc.update_range(candidate, dirty, start_word, end_word);
        self.telemetry.emit(|| Event::Resimulated {
            dirty: delta.dirty,
            resim_nodes: delta.resim_nodes,
            skipped_early_exit: delta.skipped_early_exit,
            full_equivalent: delta.full_equivalent,
            words: delta.words_simulated,
            nanos: Telemetry::nanos_since(mark),
        });
        delta
    }

    /// Measures the error rate of `candidate` from already-up-to-date
    /// incremental signatures.
    pub fn measure_view(&self, candidate: &Network, sim: SimView<'_>) -> f64 {
        let mark = self.telemetry.start();
        let rate = error_rate_from_view(&self.reference_po_words, candidate, sim);
        self.telemetry.emit(|| Event::Measured {
            error_rate: rate,
            nanos: Telemetry::nanos_since(mark),
        });
        rate
    }

    /// Whether `candidate` satisfies both the error-rate threshold and (if
    /// configured) the magnitude constraint, measured from already-up-to-date
    /// incremental signatures; returns the measured rate on success.
    fn accepts_view(
        &self,
        candidate: &Network,
        sim: SimView<'_>,
        config: &AlsConfig,
    ) -> Option<f64> {
        let rate = self.measure_view(candidate, sim);
        if rate > config.threshold {
            return None;
        }
        if let Some(mc) = config.magnitude {
            let stats = magnitude_stats_from_view(&self.reference_po_words, candidate, sim);
            if stats.max_abs > mc.max_abs {
                return None;
            }
        }
        Some(rate)
    }

    /// Resimulates one trial change (dirty set `dirty` applied to `trial`)
    /// and decides acceptance, escalating the simulated pattern prefix
    /// adaptively when the context was built with
    /// [`PatternPolicy::Adaptive`](crate::PatternPolicy::Adaptive).
    ///
    /// Each probe round extends signature coverage to a word prefix and
    /// counts erroneous patterns over the new words only. With `e` errors
    /// over `c` covered patterns out of `N`, the final full-budget rate is
    /// provably inside the sample-sound interval `[e/N, (e + N − c)/N]`
    /// (the uncovered patterns can contribute between 0 and `N − c` further
    /// errors). The escalation rule:
    ///
    /// - interval entirely above the threshold (`e/N > t`): the full
    ///   measurement could only be larger, so the trial is rejected now,
    ///   skipping the remaining words (`sampling_escalated` event with
    ///   `early_reject: true`);
    /// - interval entirely at or below the threshold: the rate test cannot
    ///   fail, so coverage jumps straight to the full budget;
    /// - interval straddles the threshold: coverage doubles and the probe
    ///   repeats.
    ///
    /// **Measurement identity:** every *accepted* trial (and every rejection
    /// that reaches full coverage) is measured over the complete pattern
    /// budget — word-identical arithmetic to fixed sampling — and an early
    /// reject fires only when fixed sampling would also have rejected on the
    /// rate. Outcomes are therefore byte-identical to
    /// [`PatternPolicy::Fixed`](crate::PatternPolicy::Fixed) at the same
    /// budget; only the amount of simulation work differs.
    ///
    /// When `propagate` is set, `trial.propagate_constants()` runs after
    /// full coverage (never between probe rounds — propagation rewrites
    /// nodes outside the dirty set, which would violate
    /// [`IncrementalSim::update_range`]'s structural contract), followed by
    /// an empty-dirty reconciliation update, matching the two-phase protocol
    /// of multi-selection and SASIMI. All updates share one undo span:
    /// callers still pair this with `inc.commit()` / `inc.rollback()`.
    pub fn update_and_accept(
        &self,
        inc: &mut IncrementalSim,
        trial: &mut Network,
        dirty: &[NodeId],
        propagate: bool,
        config: &AlsConfig,
    ) -> Option<f64> {
        let wps = inc.words_per_signal();
        let num_patterns = self.patterns.num_patterns();
        let start_words = self.adaptive_min_words.unwrap_or(wps).min(wps);
        if start_words >= wps {
            // Fixed sampling (or an adaptive floor at/above the budget):
            // one full-width update, exactly the pre-adaptive sequence.
            self.update_resim(inc, trial, dirty);
        } else {
            let mut covered = 0usize;
            let mut end = start_words;
            let mut errors = 0u64;
            while end < wps {
                self.update_resim_range(inc, trial, dirty, covered, end);
                errors += error_count_range_from_view(
                    &self.reference_po_words,
                    trial,
                    inc.view(),
                    covered,
                    end,
                );
                let from = covered;
                covered = end;
                // `covered < wps`, so every covered word is a full 64
                // patterns and the uncovered remainder is positive.
                let seen = covered * 64;
                let n = num_patterns as f64; // lint:allow(as-cast): counts << 2^52, exact in f64
                let bound = Interval::new(
                    errors as f64 / n, // lint:allow(as-cast): counts << 2^52, exact in f64
                    (errors + (num_patterns - seen) as u64) as f64 / n, // lint:allow(as-cast): counts << 2^52, exact in f64
                );
                if bound.lo > config.threshold {
                    self.telemetry.emit(|| Event::SamplingEscalated {
                        from_words: from as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                        to_words: covered as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                        errors,
                        early_reject: true,
                    });
                    return None;
                }
                if bound.hi <= config.threshold {
                    break;
                }
                self.telemetry.emit(|| Event::SamplingEscalated {
                    from_words: from as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                    to_words: covered as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                    errors,
                    early_reject: false,
                });
                end = (end * 2).min(wps);
            }
            if covered < wps {
                self.update_resim_range(inc, trial, dirty, covered, wps);
            }
        }
        if propagate {
            trial.propagate_constants();
            self.update_resim(inc, trial, &[]);
        }
        self.accepts_view(trial, inc.view(), config)
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
        assert_eq!(ctx.measure_view(&net, ctx.incremental(&net).view()), 0.0);
        // Breaking the network is detected.
        let mut broken = net.clone();
        let d = broken.pos()[0].1;
        broken.replace_with_constant(d, true);
        let inc = ctx.incremental(&broken);
        assert!(ctx.measure_view(&broken, inc.view()) > 0.4); // y = a' is wrong half the time
    }
}
