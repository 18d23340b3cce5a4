//! The telemetry event vocabulary.
//!
//! Events are plain `Copy` data except for the run header — no allocations
//! happen on the hot path, and an event is only *constructed* when at least
//! one sink is attached (see [`Telemetry::emit`](crate::Telemetry::emit)).
//! Granularity is deliberately coarse: one event per engine refresh,
//! simulation, measurement, knapsack solve, SASIMI pair scan or committed
//! iteration — never per candidate or per pattern — so enabling telemetry
//! cannot perturb the synthesis loop it observes.

use crate::json::Json;

/// The instrumented phases of a synthesis run, used for per-phase wall-time
/// aggregation (see [`PhaseNanos`](crate::PhaseNanos)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// The §6 redundancy-removal pre-process.
    Preprocess,
    /// Bit-parallel simulation of the full network.
    Simulate,
    /// Candidate-engine refresh (ASE enumeration + pricing; includes the
    /// simulation it triggers).
    Refresh,
    /// Error-rate / magnitude measurement against the golden reference.
    Measure,
    /// The multi-state knapsack DP (multi-selection only).
    Knapsack,
}

impl PhaseKind {
    /// All phases, in reporting order.
    pub const ALL: [PhaseKind; 5] = [
        PhaseKind::Preprocess,
        PhaseKind::Simulate,
        PhaseKind::Refresh,
        PhaseKind::Measure,
        PhaseKind::Knapsack,
    ];

    /// The stable snake_case name used in JSON records.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Preprocess => "preprocess",
            PhaseKind::Simulate => "simulate",
            PhaseKind::Refresh => "refresh",
            PhaseKind::Measure => "measure",
            PhaseKind::Knapsack => "knapsack",
        }
    }
}

/// One telemetry event. The variants mirror the engine's phases; every
/// quantity a sink could want is carried in the event itself, so sinks never
/// reach back into the engine.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// A synthesis run started.
    RunStart {
        /// `"single-selection"`, `"multi-selection"` or `"sasimi"`.
        algorithm: &'static str,
        /// Resolved engine worker count.
        threads: usize,
        /// Simulation vectors per measurement.
        num_patterns: usize,
        /// Internal nodes of the input network.
        nodes: usize,
        /// The error-rate threshold.
        threshold: f64,
        /// Stimulus seed: together with `num_patterns` and the golden
        /// network's PI count this reconstructs the exact pattern set, so an
        /// offline auditor can re-derive every claimed error rate.
        seed: u64,
    },
    /// A timed phase completed (emitted for phases without a dedicated
    /// event, currently the pre-process).
    PhaseEnd {
        /// Which phase.
        phase: PhaseKind,
        /// Its wall time.
        nanos: u64,
    },
    /// One full-network simulation completed.
    Simulated {
        /// Patterns driven.
        patterns: u64,
        /// Network nodes evaluated per pattern block.
        nodes: u64,
        /// Wall time of the simulation.
        nanos: u64,
    },
    /// One incremental dirty-set resimulation completed (see
    /// `als_sim::SimResult::update`): only the transitive fanout of the dirty
    /// nodes was re-evaluated, with equal-signature branches early-exited.
    Resimulated {
        /// Distinct live internal nodes the caller marked dirty.
        dirty: u64,
        /// Nodes actually re-evaluated.
        resim_nodes: u64,
        /// TFO nodes skipped because every fanin signature was unchanged.
        skipped_early_exit: u64,
        /// Nodes a full resimulation would have evaluated (every live
        /// non-PI node) — `resim_nodes < full_equivalent` is the saving.
        full_equivalent: u64,
        /// Signature words actually written (`resim_nodes × words per
        /// signal`).
        words: u64,
        /// Wall time of the update.
        nanos: u64,
    },
    /// One pairwise similarity sweep of SASIMI candidate generation
    /// completed, aggregated over all ordered signal pairs (per-pair events
    /// would flood the log). Each pair's signature scan starts at a one-word
    /// prefix and doubles only while the pair could still substitute in some
    /// phase; `early_rejects` counts pairs proven infeasible from a prefix.
    SimilarityScanned {
        /// Ordered signal pairs scanned.
        pairs: u64,
        /// Pairs rejected from a word prefix (both phases infeasible).
        early_rejects: u64,
        /// Signature words actually read.
        words: u64,
        /// Words a full-width scan of every pair would have read.
        words_full: u64,
    },
    /// One error-rate measurement against the golden reference completed.
    Measured {
        /// The measured error rate.
        error_rate: f64,
        /// Wall time of the measurement.
        nanos: u64,
    },
    /// The candidate engine brought its memo up to date.
    EngineRefresh {
        /// Nodes whose cached pricing was stale (evaluated this refresh).
        evaluated: u64,
        /// Nodes served from the memo.
        cache_hits: u64,
        /// Candidate ASEs of the evaluated nodes discarded *without*
        /// gathering their local pattern distribution: their static lower
        /// error bound already exceeded the remaining error budget, so the
        /// dynamic path could never accept them.
        candidates_pruned: u64,
        /// Nodes whose local-distribution gather was skipped entirely
        /// because static bounds pruned every candidate — the
        /// simulations-avoided measure.
        nodes_skipped: u64,
        /// Wall time of the refresh (simulation included).
        nanos: u64,
    },
    /// Aggregated SAT activity from don't-care classification over one
    /// engine refresh: how many solver queries ran and how many solver
    /// instances (one per window sent to SAT) served them.
    SatActivity {
        /// Individual `solve_with_assumptions` calls issued.
        sat_queries: u64,
        /// Solver instances built, one per window sent to SAT.
        solver_instances: u64,
        /// Clauses swept by clause-group retraction; the engine emits 0,
        /// since no don't-care solver outlives its window.
        clauses_retracted: u64,
    },
    /// A committed change set invalidated part of the engine memo.
    ConeInvalidated {
        /// Nodes in the committed change set.
        changed: u64,
        /// Memo entries dropped (the invalidation-cone size).
        dropped: u64,
    },
    /// A multi-state knapsack instance was solved.
    KnapsackSolved {
        /// Candidate items (eligible nodes).
        items: u64,
        /// Scaled error-rate capacity.
        capacity: u64,
        /// DP cells filled — the `O(states × capacity)` work measure.
        dp_cells: u64,
        /// Wall time of the solve.
        nanos: u64,
    },
    /// One accepted change — the approximation certificate for a single
    /// node rewrite. The claimed apparent error rate is what Theorem 1 sums:
    /// an auditor can replay the log and check the whole inequality chain.
    ChangeCommitted {
        /// 1-based iteration the change was committed in.
        iteration: u64,
        /// Name of the rewritten node.
        node: String,
        /// Display form of the new local function (or substitution).
        ase: String,
        /// Literals the change saved at commit time.
        literals_saved: u64,
        /// Claimed apparent error rate of the change (§3.2) — the
        /// Theorem-1 summand.
        apparent: f64,
        /// Static lower bound on the apparent rate, when the engine
        /// computed one (`None` for flows without static analysis, e.g.
        /// SASIMI).
        static_lo: Option<f64>,
        /// Static upper bound on the apparent rate, when available.
        static_hi: Option<f64>,
    },
    /// One iteration of the selection loop committed.
    IterationEnd {
        /// 1-based iteration number.
        iteration: u64,
        /// Changes applied this iteration.
        changes: u64,
        /// Literal count after the iteration.
        literals: u64,
        /// Measured error rate after the iteration.
        error_rate: f64,
        /// Wall time of the iteration.
        nanos: u64,
    },
    /// A design-space sweep started: the grid is about to dispatch.
    SweepStart {
        /// Grid points (threshold × algorithm × pattern-count products).
        grid_points: u64,
        /// Resolved sweep worker count (grid-point parallelism, distinct
        /// from the per-run engine threads).
        workers: u64,
    },
    /// One sweep grid point finished: its synthesis ran to completion and
    /// the result was technology-mapped. Emitted in deterministic grid
    /// order after all points join, so sweep logs are byte-stable across
    /// worker counts.
    SweepPointDone {
        /// `"single-selection"`, `"multi-selection"` or `"sasimi"`.
        algorithm: &'static str,
        /// The error-rate threshold the point ran under.
        threshold: f64,
        /// Final literal count of the approximated network.
        literals: u64,
        /// Mapped critical-path delay of the approximated network.
        mapped_delay: f64,
        /// Measured error rate against the golden network.
        error_rate: f64,
        /// Wall time of the point (synthesis + mapping).
        nanos: u64,
    },
    /// The `als serve` daemon admitted a job into its bounded queue.
    JobAdmitted {
        /// Daemon-assigned job sequence number.
        job: u64,
        /// Queue depth (admitted, not yet claimed) right after admission.
        queue_depth: u64,
    },
    /// The `als serve` cross-job artifact cache was consulted for one
    /// artifact kind (`"network"`, `"signatures"`, `"absint"`). A hit means
    /// the job skipped rebuilding that artifact.
    ArtifactCache {
        /// Which artifact was looked up.
        artifact: &'static str,
        /// Whether the lookup was served from the cache.
        hit: bool,
    },
    /// The run finished.
    RunEnd {
        /// Committed iterations.
        iterations: u64,
        /// Final literal count.
        literals: u64,
        /// Final measured error rate.
        error_rate: f64,
        /// Wall time of the whole run.
        nanos: u64,
    },
}

impl Event {
    /// The stable snake_case tag used as `"event"` in the JSONL log.
    pub fn name(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::PhaseEnd { .. } => "phase_end",
            Event::Simulated { .. } => "simulated",
            Event::Resimulated { .. } => "resimulated",
            Event::SimilarityScanned { .. } => "similarity_scanned",
            Event::Measured { .. } => "measured",
            Event::EngineRefresh { .. } => "engine_refresh",
            Event::SatActivity { .. } => "sat_activity",
            Event::ConeInvalidated { .. } => "cone_invalidated",
            Event::KnapsackSolved { .. } => "knapsack_solved",
            Event::ChangeCommitted { .. } => "change_committed",
            Event::IterationEnd { .. } => "iteration_end",
            Event::SweepStart { .. } => "sweep_start",
            Event::SweepPointDone { .. } => "sweep_point_done",
            Event::JobAdmitted { .. } => "job_admitted",
            Event::ArtifactCache { .. } => "artifact_cache",
            Event::RunEnd { .. } => "run_end",
        }
    }

    /// The event as a JSON object (without the log envelope; see
    /// [`JsonlSink`](crate::JsonlSink) for the line format).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("event", self.name());
        match *self {
            Event::RunStart {
                algorithm,
                threads,
                num_patterns,
                nodes,
                threshold,
                seed,
            } => {
                obj.set("algorithm", algorithm)
                    .set("threads", threads)
                    .set("num_patterns", num_patterns)
                    .set("nodes", nodes)
                    .set("threshold", threshold)
                    .set("seed", seed);
            }
            Event::PhaseEnd { phase, nanos } => {
                obj.set("phase", phase.name()).set("nanos", nanos);
            }
            Event::Simulated {
                patterns,
                nodes,
                nanos,
            } => {
                obj.set("patterns", patterns)
                    .set("nodes", nodes)
                    .set("nanos", nanos);
            }
            Event::Resimulated {
                dirty,
                resim_nodes,
                skipped_early_exit,
                full_equivalent,
                words,
                nanos,
            } => {
                obj.set("dirty", dirty)
                    .set("resim_nodes", resim_nodes)
                    .set("skipped_early_exit", skipped_early_exit)
                    .set("full_equivalent", full_equivalent)
                    .set("words", words)
                    .set("nanos", nanos);
            }
            Event::SimilarityScanned {
                pairs,
                early_rejects,
                words,
                words_full,
            } => {
                obj.set("pairs", pairs)
                    .set("early_rejects", early_rejects)
                    .set("words", words)
                    .set("words_full", words_full);
            }
            Event::Measured { error_rate, nanos } => {
                obj.set("error_rate", error_rate).set("nanos", nanos);
            }
            Event::EngineRefresh {
                evaluated,
                cache_hits,
                candidates_pruned,
                nodes_skipped,
                nanos,
            } => {
                obj.set("evaluated", evaluated)
                    .set("cache_hits", cache_hits)
                    .set("candidates_pruned", candidates_pruned)
                    .set("nodes_skipped", nodes_skipped)
                    .set("nanos", nanos);
            }
            Event::SatActivity {
                sat_queries,
                solver_instances,
                clauses_retracted,
            } => {
                obj.set("sat_queries", sat_queries)
                    .set("solver_instances", solver_instances)
                    .set("clauses_retracted", clauses_retracted);
            }
            Event::ConeInvalidated { changed, dropped } => {
                obj.set("changed", changed).set("dropped", dropped);
            }
            Event::KnapsackSolved {
                items,
                capacity,
                dp_cells,
                nanos,
            } => {
                obj.set("items", items)
                    .set("capacity", capacity)
                    .set("dp_cells", dp_cells)
                    .set("nanos", nanos);
            }
            Event::ChangeCommitted {
                iteration,
                ref node,
                ref ase,
                literals_saved,
                apparent,
                static_lo,
                static_hi,
            } => {
                obj.set("iteration", iteration)
                    .set("node", node.as_str())
                    .set("ase", ase.as_str())
                    .set("literals_saved", literals_saved)
                    .set("apparent", apparent);
                if let Some(lo) = static_lo {
                    obj.set("static_lo", lo);
                }
                if let Some(hi) = static_hi {
                    obj.set("static_hi", hi);
                }
            }
            Event::IterationEnd {
                iteration,
                changes,
                literals,
                error_rate,
                nanos,
            } => {
                obj.set("iteration", iteration)
                    .set("changes", changes)
                    .set("literals", literals)
                    .set("error_rate", error_rate)
                    .set("nanos", nanos);
            }
            Event::SweepStart {
                grid_points,
                workers,
            } => {
                obj.set("grid_points", grid_points).set("workers", workers);
            }
            Event::SweepPointDone {
                algorithm,
                threshold,
                literals,
                mapped_delay,
                error_rate,
                nanos,
            } => {
                obj.set("algorithm", algorithm)
                    .set("threshold", threshold)
                    .set("literals", literals)
                    .set("mapped_delay", mapped_delay)
                    .set("error_rate", error_rate)
                    .set("nanos", nanos);
            }
            Event::JobAdmitted { job, queue_depth } => {
                obj.set("job", job).set("queue_depth", queue_depth);
            }
            Event::ArtifactCache { artifact, hit } => {
                obj.set("artifact", artifact).set("hit", hit);
            }
            Event::RunEnd {
                iterations,
                literals,
                error_rate,
                nanos,
            } => {
                obj.set("iterations", iterations)
                    .set("literals", literals)
                    .set("error_rate", error_rate)
                    .set("nanos", nanos);
            }
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_serializes_with_its_tag() {
        let events = [
            Event::RunStart {
                algorithm: "single-selection",
                threads: 1,
                num_patterns: 64,
                nodes: 10,
                threshold: 0.05,
                seed: 7,
            },
            Event::PhaseEnd {
                phase: PhaseKind::Preprocess,
                nanos: 5,
            },
            Event::Simulated {
                patterns: 64,
                nodes: 10,
                nanos: 7,
            },
            Event::Resimulated {
                dirty: 1,
                resim_nodes: 3,
                skipped_early_exit: 2,
                full_equivalent: 10,
                words: 12,
                nanos: 4,
            },
            Event::SimilarityScanned {
                pairs: 90,
                early_rejects: 71,
                words: 310,
                words_full: 2880,
            },
            Event::Measured {
                error_rate: 0.01,
                nanos: 3,
            },
            Event::EngineRefresh {
                evaluated: 4,
                cache_hits: 6,
                candidates_pruned: 11,
                nodes_skipped: 2,
                nanos: 9,
            },
            Event::SatActivity {
                sat_queries: 512,
                solver_instances: 4,
                clauses_retracted: 2048,
            },
            Event::ConeInvalidated {
                changed: 1,
                dropped: 3,
            },
            Event::KnapsackSolved {
                items: 5,
                capacity: 50,
                dp_cells: 300,
                nanos: 2,
            },
            Event::ChangeCommitted {
                iteration: 1,
                node: "g3".to_string(),
                ase: "a + b".to_string(),
                literals_saved: 2,
                apparent: 0.015,
                static_lo: Some(0.01),
                static_hi: Some(0.02),
            },
            Event::IterationEnd {
                iteration: 1,
                changes: 2,
                literals: 30,
                error_rate: 0.02,
                nanos: 11,
            },
            Event::SweepStart {
                grid_points: 12,
                workers: 4,
            },
            Event::SweepPointDone {
                algorithm: "multi-selection",
                threshold: 0.01,
                literals: 28,
                mapped_delay: 9.5,
                error_rate: 0.008,
                nanos: 31,
            },
            Event::JobAdmitted {
                job: 3,
                queue_depth: 2,
            },
            Event::ArtifactCache {
                artifact: "network",
                hit: true,
            },
            Event::RunEnd {
                iterations: 1,
                literals: 30,
                error_rate: 0.02,
                nanos: 20,
            },
        ];
        for e in &events {
            let json = e.to_json();
            assert_eq!(json.get("event").and_then(Json::as_str), Some(e.name()));
            // Every rendered event parses back.
            assert_eq!(Json::parse(&json.render()).unwrap(), json);
        }
    }

    #[test]
    fn phase_names_are_unique() {
        let mut names: Vec<_> = PhaseKind::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PhaseKind::ALL.len());
    }
}
