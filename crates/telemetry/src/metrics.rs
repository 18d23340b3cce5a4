//! The in-memory metrics sink: aggregates the event stream into a
//! [`MetricsReport`] that rides on `AlsOutcome`.

use crate::json::Json;
use crate::{Event, PhaseKind, TelemetrySink};
use std::sync::Mutex;
use std::time::Duration;

/// Wall time per instrumented phase, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// §6 redundancy-removal pre-process.
    pub preprocess: u64,
    /// Full-network simulations.
    pub simulate: u64,
    /// Candidate-engine refreshes (their simulations counted under
    /// `simulate` as well — a refresh *contains* a simulation).
    pub refresh: u64,
    /// Error-rate measurements against the golden reference.
    pub measure: u64,
    /// Multi-state knapsack solves.
    pub knapsack: u64,
}

impl PhaseNanos {
    fn slot(&mut self, phase: PhaseKind) -> &mut u64 {
        match phase {
            PhaseKind::Preprocess => &mut self.preprocess,
            PhaseKind::Simulate => &mut self.simulate,
            PhaseKind::Refresh => &mut self.refresh,
            PhaseKind::Measure => &mut self.measure,
            PhaseKind::Knapsack => &mut self.knapsack,
        }
    }

    /// The accumulated wall time of one phase.
    pub fn get(&self, phase: PhaseKind) -> Duration {
        let mut copy = *self;
        Duration::from_nanos(*copy.slot(phase))
    }

    /// `(phase name, seconds)` pairs in reporting order — the `phase_s`
    /// object of [`MetricsReport::to_json`].
    pub fn as_seconds(&self) -> [(&'static str, f64); 5] {
        PhaseKind::ALL.map(|p| (p.name(), self.get(p).as_secs_f64()))
    }
}

/// One committed iteration, as observed through the event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterationMetrics {
    /// 1-based iteration number.
    pub iteration: u64,
    /// Changes applied.
    pub changes: u64,
    /// Literal count after the iteration.
    pub literals: u64,
    /// Measured error rate after the iteration.
    pub error_rate: f64,
    /// Wall time of the iteration, nanoseconds.
    pub nanos: u64,
}

/// Aggregated counters and timers of one synthesis run.
///
/// Attached to every `AlsOutcome` as its `metrics` field; also obtainable
/// from any [`MetricsCollector`] the caller registered through
/// `AlsConfig::builder().telemetry(...)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// Algorithm name from the run header (empty if no run was observed).
    pub algorithm: String,
    /// Resolved engine worker count.
    pub threads: u64,
    /// Full-network simulations performed.
    pub simulations: u64,
    /// Total patterns driven across those simulations.
    pub patterns_simulated: u64,
    /// Signature words written or read across all simulation work — full
    /// simulations contribute `nodes × ⌈patterns/64⌉`, incremental updates
    /// their exact `words` counter, and SASIMI pair scans the words they
    /// read (fewer than full width when a pair is decided from a prefix).
    pub patterns_simulated_words: u64,
    /// SASIMI candidate pairs proven infeasible from a prefix of their
    /// signatures (`SimilarityScanned::early_rejects`). Zero for the
    /// paper's two algorithms, whose trials are always measured on every
    /// pattern.
    pub adaptive_early_decisions: u64,
    /// Error-rate measurements against the golden reference.
    pub measurements: u64,
    /// Candidate-engine refresh calls.
    pub refreshes: u64,
    /// Node evaluations actually computed (memo-cache misses).
    pub evaluations: u64,
    /// Node evaluations served from the memo cache.
    pub cache_hits: u64,
    /// `invalidate_committed` calls.
    pub invalidations: u64,
    /// Total memo entries dropped by invalidation (sum of cone sizes).
    pub invalidated_entries: u64,
    /// Knapsack instances solved (multi-selection only).
    pub knapsack_solves: u64,
    /// Total DP cells filled across those solves.
    pub knapsack_dp_cells: u64,
    /// Candidate ASEs discarded by static error bounds before their local
    /// pattern distribution was gathered.
    pub candidates_pruned: u64,
    /// Node evaluations whose local-distribution gather was skipped
    /// entirely because every candidate was pruned — the
    /// simulations-avoided measure.
    pub nodes_skipped: u64,
    /// Incremental dirty-set resimulation updates performed.
    pub resim_updates: u64,
    /// Nodes actually re-evaluated across those updates.
    pub resim_nodes: u64,
    /// TFO nodes skipped by the equal-signature early exit.
    pub resim_skipped_early_exit: u64,
    /// Nodes a full resimulation would have evaluated across those updates
    /// — `resim_nodes` strictly below this is the incremental saving.
    pub resim_full_equivalent: u64,
    /// SAT queries issued by don't-care classification
    /// (`solve_with_assumptions` calls).
    pub sat_queries: u64,
    /// SAT solver instances built by don't-care classification: one per
    /// window it sent to SAT.
    pub solver_instances: u64,
    /// Clauses reclaimed by clause-group retraction. Reads 0: every
    /// don't-care window has a solver of its own, so nothing is retracted.
    pub clauses_retracted: u64,
    /// `als serve` cross-job artifact-cache lookups served from the cache
    /// (one per [`Event::ArtifactCache`] with `hit: true`). The serve daemon
    /// may also set this externally when a job's collector was attached
    /// after admission. Zero outside the daemon.
    pub artifact_cache_hits: u64,
    /// `als serve` cross-job artifact-cache lookups that had to rebuild the
    /// artifact (`hit: false`). Zero outside the daemon.
    pub artifact_cache_misses: u64,
    /// Per-phase wall time.
    pub phase_nanos: PhaseNanos,
    /// Per-iteration records, in commit order.
    pub iterations: Vec<IterationMetrics>,
    /// Wall time of the whole run, nanoseconds (from the `RunEnd` event).
    pub total_nanos: u64,
}

impl MetricsReport {
    /// Memo misses — an alias for [`evaluations`](MetricsReport::evaluations)
    /// (every evaluation *is* a miss), provided so call sites can state
    /// which aspect they mean.
    pub fn cache_misses(&self) -> u64 {
        self.evaluations
    }

    /// Cache hit rate in `[0, 1]` (`0` before any refresh).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.evaluations;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64 // lint:allow(as-cast): counts << 2^52, exact in f64
        }
    }

    /// Total run wall time.
    pub fn total_time(&self) -> Duration {
        Duration::from_nanos(self.total_nanos)
    }

    /// Folds one event into the aggregates. [`MetricsCollector`] calls this
    /// under its lock; it is public so replaying a parsed JSONL log (or a
    /// recorded `Vec<Event>`) can rebuild the same report offline.
    pub fn absorb(&mut self, event: &Event) {
        match *event {
            Event::RunStart {
                algorithm, threads, ..
            } => {
                self.algorithm = algorithm.to_string();
                self.threads = threads as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
            }
            Event::PhaseEnd { phase, nanos } => {
                *self.phase_nanos.slot(phase) += nanos;
            }
            Event::Simulated {
                patterns,
                nodes,
                nanos,
            } => {
                self.simulations += 1;
                self.patterns_simulated += patterns;
                self.patterns_simulated_words += nodes * patterns.div_ceil(64);
                self.phase_nanos.simulate += nanos;
            }
            Event::Resimulated {
                resim_nodes,
                skipped_early_exit,
                full_equivalent,
                words,
                nanos,
                ..
            } => {
                self.resim_updates += 1;
                self.resim_nodes += resim_nodes;
                self.resim_skipped_early_exit += skipped_early_exit;
                self.resim_full_equivalent += full_equivalent;
                self.patterns_simulated_words += words;
                self.phase_nanos.simulate += nanos;
            }
            Event::SimilarityScanned {
                early_rejects,
                words,
                ..
            } => {
                self.patterns_simulated_words += words;
                self.adaptive_early_decisions += early_rejects;
            }
            Event::Measured { nanos, .. } => {
                self.measurements += 1;
                self.phase_nanos.measure += nanos;
            }
            Event::EngineRefresh {
                evaluated,
                cache_hits,
                candidates_pruned,
                nodes_skipped,
                nanos,
            } => {
                self.refreshes += 1;
                self.evaluations += evaluated;
                self.cache_hits += cache_hits;
                self.candidates_pruned += candidates_pruned;
                self.nodes_skipped += nodes_skipped;
                self.phase_nanos.refresh += nanos;
            }
            Event::SatActivity {
                sat_queries,
                solver_instances,
                clauses_retracted,
            } => {
                self.sat_queries += sat_queries;
                self.solver_instances += solver_instances;
                self.clauses_retracted += clauses_retracted;
            }
            Event::ConeInvalidated { dropped, .. } => {
                self.invalidations += 1;
                self.invalidated_entries += dropped;
            }
            Event::KnapsackSolved {
                dp_cells, nanos, ..
            } => {
                self.knapsack_solves += 1;
                self.knapsack_dp_cells += dp_cells;
                self.phase_nanos.knapsack += nanos;
            }
            Event::ArtifactCache { hit, .. } => {
                if hit {
                    self.artifact_cache_hits += 1;
                } else {
                    self.artifact_cache_misses += 1;
                }
            }
            // Per-change certificates are audit data, not aggregates (the
            // per-iteration change count arrives with `IterationEnd`), and
            // sweep orchestration events aggregate nothing here either: a
            // sweep's per-point metrics live in its own SweepRecord, and
            // per-run collectors never see sweep-level events (grid jobs run
            // with telemetry disabled). Job admission is likewise a
            // daemon-level line: queue depth is a service property, not a
            // per-run aggregate.
            Event::ChangeCommitted { .. }
            | Event::SweepStart { .. }
            | Event::SweepPointDone { .. }
            | Event::JobAdmitted { .. } => {}
            Event::IterationEnd {
                iteration,
                changes,
                literals,
                error_rate,
                nanos,
            } => {
                self.iterations.push(IterationMetrics {
                    iteration,
                    changes,
                    literals,
                    error_rate,
                    nanos,
                });
            }
            Event::RunEnd { nanos, .. } => {
                self.total_nanos = nanos;
            }
        }
    }

    /// The report as a JSON object — the `"metrics"` block of an
    /// `als serve` result frame.
    pub fn to_json(&self) -> Json {
        let mut phases = Json::object();
        for (name, secs) in self.phase_nanos.as_seconds() {
            phases.set(name, secs);
        }
        let mut obj = Json::object();
        obj.set("algorithm", self.algorithm.as_str())
            .set("threads", self.threads)
            .set("simulations", self.simulations)
            .set("patterns_simulated", self.patterns_simulated)
            .set("patterns_simulated_words", self.patterns_simulated_words)
            .set("adaptive_early_decisions", self.adaptive_early_decisions)
            .set("measurements", self.measurements)
            .set("refreshes", self.refreshes)
            .set("evaluations", self.evaluations)
            .set("cache_hits", self.cache_hits)
            .set("invalidations", self.invalidations)
            .set("invalidated_entries", self.invalidated_entries)
            .set("knapsack_solves", self.knapsack_solves)
            .set("knapsack_dp_cells", self.knapsack_dp_cells)
            .set("candidates_pruned", self.candidates_pruned)
            .set("nodes_skipped", self.nodes_skipped)
            .set("resim_updates", self.resim_updates)
            .set("resim_nodes", self.resim_nodes)
            .set("resim_skipped_early_exit", self.resim_skipped_early_exit)
            .set("resim_full_equivalent", self.resim_full_equivalent)
            .set("sat_queries", self.sat_queries)
            .set("solver_instances", self.solver_instances)
            .set("clauses_retracted", self.clauses_retracted)
            .set("artifact_cache_hits", self.artifact_cache_hits)
            .set("artifact_cache_misses", self.artifact_cache_misses)
            .set("iterations", self.iterations.len())
            .set("total_s", self.total_time().as_secs_f64())
            .set("phase_s", phases);
        obj
    }
}

/// A [`TelemetrySink`] that aggregates events into a [`MetricsReport`].
///
/// Register one through `AlsConfig::builder().telemetry(collector.clone())`
/// and read [`MetricsCollector::report`] after the run — or just use the
/// `metrics` field of the returned outcome, which the algorithms populate
/// from an internal collector.
#[derive(Debug, Default)]
pub struct MetricsCollector {
    report: Mutex<MetricsReport>,
}

impl MetricsCollector {
    /// A fresh, empty collector.
    pub fn new() -> MetricsCollector {
        MetricsCollector::default()
    }

    /// A snapshot of the aggregates so far.
    pub fn report(&self) -> MetricsReport {
        self.report
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

impl TelemetrySink for MetricsCollector {
    fn record(&self, event: &Event) {
        self.report
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .absorb(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_aggregates_the_stream() {
        let collector = MetricsCollector::new();
        for event in [
            Event::RunStart {
                algorithm: "multi-selection",
                threads: 2,
                num_patterns: 64,
                nodes: 8,
                threshold: 0.05,
                seed: 1,
            },
            Event::Simulated {
                patterns: 64,
                nodes: 8,
                nanos: 100,
            },
            Event::Measured {
                error_rate: 0.0,
                nanos: 40,
            },
            Event::Resimulated {
                dirty: 1,
                resim_nodes: 3,
                skipped_early_exit: 2,
                full_equivalent: 8,
                words: 3,
                nanos: 60,
            },
            Event::SimilarityScanned {
                pairs: 40,
                early_rejects: 30,
                words: 70,
                words_full: 160,
            },
            Event::EngineRefresh {
                evaluated: 8,
                cache_hits: 0,
                candidates_pruned: 1,
                nodes_skipped: 1,
                nanos: 500,
            },
            Event::KnapsackSolved {
                items: 3,
                capacity: 50,
                dp_cells: 153,
                nanos: 20,
            },
            Event::ConeInvalidated {
                changed: 2,
                dropped: 5,
            },
            Event::SatActivity {
                sat_queries: 32,
                solver_instances: 2,
                clauses_retracted: 120,
            },
            Event::EngineRefresh {
                evaluated: 5,
                cache_hits: 3,
                candidates_pruned: 0,
                nodes_skipped: 0,
                nanos: 300,
            },
            Event::SatActivity {
                sat_queries: 8,
                solver_instances: 1,
                clauses_retracted: 30,
            },
            Event::ArtifactCache {
                artifact: "network",
                hit: true,
            },
            Event::ArtifactCache {
                artifact: "signatures",
                hit: false,
            },
            Event::ArtifactCache {
                artifact: "absint",
                hit: true,
            },
            Event::JobAdmitted {
                job: 1,
                queue_depth: 1,
            },
            Event::IterationEnd {
                iteration: 1,
                changes: 2,
                literals: 30,
                error_rate: 0.01,
                nanos: 900,
            },
            Event::RunEnd {
                iterations: 1,
                literals: 30,
                error_rate: 0.01,
                nanos: 1_500,
            },
        ] {
            collector.record(&event);
        }
        let r = collector.report();
        assert_eq!(r.algorithm, "multi-selection");
        assert_eq!(r.threads, 2);
        assert_eq!(r.simulations, 1);
        assert_eq!(r.patterns_simulated, 64);
        assert_eq!(r.patterns_simulated_words, 8 + 3 + 70);
        assert_eq!(r.adaptive_early_decisions, 30);
        assert_eq!(r.measurements, 1);
        assert_eq!(r.refreshes, 2);
        assert_eq!(r.evaluations, 13);
        assert_eq!(r.cache_misses(), 13);
        assert_eq!(r.cache_hits, 3);
        assert!((r.cache_hit_rate() - 3.0 / 16.0).abs() < 1e-12);
        assert_eq!(r.invalidations, 1);
        assert_eq!(r.invalidated_entries, 5);
        assert_eq!(r.knapsack_solves, 1);
        assert_eq!(r.knapsack_dp_cells, 153);
        assert_eq!(r.candidates_pruned, 1);
        assert_eq!(r.nodes_skipped, 1);
        assert_eq!(r.resim_updates, 1);
        assert_eq!(r.resim_nodes, 3);
        assert_eq!(r.resim_skipped_early_exit, 2);
        assert_eq!(r.resim_full_equivalent, 8);
        assert_eq!(r.sat_queries, 40);
        assert_eq!(r.solver_instances, 3);
        assert_eq!(r.clauses_retracted, 150);
        assert_eq!(r.artifact_cache_hits, 2);
        assert_eq!(r.artifact_cache_misses, 1);
        assert_eq!(r.phase_nanos.refresh, 800);
        assert_eq!(r.phase_nanos.simulate, 160);
        assert_eq!(r.phase_nanos.measure, 40);
        assert_eq!(r.phase_nanos.knapsack, 20);
        assert_eq!(r.iterations.len(), 1);
        assert_eq!(r.iterations[0].changes, 2);
        assert_eq!(r.total_nanos, 1_500);
        assert_eq!(r.total_time(), Duration::from_nanos(1_500));
    }

    #[test]
    fn report_serializes_every_counter() {
        let mut report = MetricsReport::default();
        report.absorb(&Event::EngineRefresh {
            evaluated: 7,
            cache_hits: 2,
            candidates_pruned: 6,
            nodes_skipped: 3,
            nanos: 10,
        });
        report.absorb(&Event::Resimulated {
            dirty: 2,
            resim_nodes: 5,
            skipped_early_exit: 4,
            full_equivalent: 9,
            words: 15,
            nanos: 11,
        });
        report.absorb(&Event::SimilarityScanned {
            pairs: 8,
            early_rejects: 6,
            words: 5,
            words_full: 16,
        });
        report.absorb(&Event::SatActivity {
            sat_queries: 16,
            solver_instances: 1,
            clauses_retracted: 44,
        });
        report.absorb(&Event::ArtifactCache {
            artifact: "absint",
            hit: false,
        });
        let json = report.to_json();
        assert_eq!(json.get("evaluations").and_then(Json::as_u64), Some(7));
        assert_eq!(json.get("cache_hits").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("nodes_skipped").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("resim_updates").and_then(Json::as_u64), Some(1));
        assert_eq!(
            json.get("patterns_simulated_words").and_then(Json::as_u64),
            Some(15 + 5)
        );
        assert_eq!(
            json.get("adaptive_early_decisions").and_then(Json::as_u64),
            Some(6)
        );
        assert_eq!(json.get("resim_nodes").and_then(Json::as_u64), Some(5));
        assert_eq!(
            json.get("resim_skipped_early_exit").and_then(Json::as_u64),
            Some(4)
        );
        assert_eq!(
            json.get("resim_full_equivalent").and_then(Json::as_u64),
            Some(9)
        );
        assert_eq!(
            json.get("candidates_pruned").and_then(Json::as_u64),
            Some(6)
        );
        assert_eq!(json.get("sat_queries").and_then(Json::as_u64), Some(16));
        assert_eq!(json.get("solver_instances").and_then(Json::as_u64), Some(1));
        assert_eq!(
            json.get("clauses_retracted").and_then(Json::as_u64),
            Some(44)
        );
        assert_eq!(
            json.get("artifact_cache_hits").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            json.get("artifact_cache_misses").and_then(Json::as_u64),
            Some(1)
        );
        assert!(json.get("phase_s").and_then(|p| p.get("refresh")).is_some());
    }

    #[test]
    fn hit_rate_handles_empty_report() {
        assert_eq!(MetricsReport::default().cache_hit_rate(), 0.0);
    }
}
