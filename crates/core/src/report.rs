use als_network::Network;
use als_telemetry::MetricsReport;
use std::fmt;
use std::time::Duration;

/// One change applied to the network (a node and the ASE chosen for it).
#[derive(Clone, Debug)]
pub struct SelectedChange {
    /// The rewritten node's name.
    pub node_name: String,
    /// Display form of the chosen ASE.
    pub ase: String,
    /// Literals saved by the change.
    pub literals_saved: usize,
    /// The error estimate that justified the selection (estimated real rate
    /// for single-selection, apparent rate for multi-selection).
    pub error_estimate: f64,
    /// The claimed apparent error rate (§3.2) of the change — the Theorem-1
    /// summand an auditor checks (equals `error_estimate` for
    /// multi-selection and sasimi; ≥ `error_estimate` for single-selection,
    /// whose estimate discards don't-care ELIPs).
    pub apparent: f64,
}

/// A committed iteration of either algorithm.
#[derive(Clone, Debug)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Changes applied this iteration (one for single-selection, many for
    /// multi-selection).
    pub changes: Vec<SelectedChange>,
    /// Factored-form literal count after the iteration.
    pub literals_after: usize,
    /// Measured error rate (against the original network) after the
    /// iteration.
    pub error_rate_after: f64,
}

/// The result of an approximation run.
#[derive(Clone, Debug)]
pub struct AlsOutcome {
    /// The approximate network (error rate within the threshold).
    pub network: Network,
    /// Committed iterations, in order.
    pub iterations: Vec<IterationRecord>,
    /// Literal count of the input network (before the pre-process and any
    /// approximation).
    pub initial_literals: usize,
    /// Literal count of the result.
    pub final_literals: usize,
    /// Measured error rate of the result against the original network.
    pub measured_error_rate: f64,
    /// Wall-clock time of the whole run (pre-process included).
    pub runtime: Duration,
    /// Engine metrics gathered during the run (simulation, cache, knapsack
    /// and per-phase counters); always populated, independent of any user
    /// sinks configured through [`AlsConfig`](crate::AlsConfig).
    pub metrics: MetricsReport,
}

impl AlsOutcome {
    /// `final literals / initial literals` — the paper's "area ratio" at the
    /// technology-independent level (1.0 when nothing was saved).
    pub fn literal_ratio(&self) -> f64 {
        if self.initial_literals == 0 {
            1.0
        } else {
            self.final_literals as f64 / self.initial_literals as f64 // lint:allow(as-cast): counts << 2^52, exact in f64
        }
    }

    /// Total number of node rewrites committed.
    pub fn num_changes(&self) -> usize {
        self.iterations.iter().map(|it| it.changes.len()).sum()
    }
}

impl fmt::Display for AlsOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → {} literals (ratio {:.3}), error rate {:.4}, {} changes in {} iterations, {:.2?}",
            self.initial_literals,
            self.final_literals,
            self.literal_ratio(),
            self.measured_error_rate,
            self.num_changes(),
            self.iterations.len(),
            self.runtime,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_empty_network() {
        let outcome = AlsOutcome {
            network: Network::new("empty"),
            iterations: Vec::new(),
            initial_literals: 0,
            final_literals: 0,
            measured_error_rate: 0.0,
            runtime: Duration::ZERO,
            metrics: MetricsReport::default(),
        };
        assert_eq!(outcome.literal_ratio(), 1.0);
        assert_eq!(outcome.num_changes(), 0);
        assert!(outcome.to_string().contains("ratio 1.000"));
    }
}
