//! The sweep-frontier comparator behind `als-bench --compare`.
//!
//! [`compare_sweep`] diffs a fresh `SWEEP_<circuit>.json` record (written
//! by `als sweep`) against its checked-in baseline under `benchmarks/` and
//! reports every grid point that slid behind the baseline's Pareto frontier
//! or grew its literal count past the tolerance.

/// Tolerances for [`compare_sweep`].
#[derive(Clone, Copy, Debug)]
pub struct CompareOptions {
    /// Maximum tolerated literal-count growth in percent (default 2).
    pub max_quality_pct: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            max_quality_pct: 2.0,
        }
    }
}

/// Compares a new sweep record against its checked-in baseline, returning
/// one human-readable line per regression (empty = pass).
///
/// Points are matched by their grid identity (algorithm, threshold,
/// pattern count, delay weight); points present on only one side are
/// ignored (grid-coverage changes, not regressions). Two gates:
///
/// * **Frontier regression** — a point whose baseline twin was
///   *non-dominated* is now strictly dominated by some point of the
///   *baseline* frontier. Judging against the baseline frontier (not the
///   new record's own) makes the gate monotone: a uniformly improved sweep
///   can never fail it, while any point sliding behind the old frontier
///   always does.
/// * **Quality** — a point's literal count grew beyond
///   [`CompareOptions::max_quality_pct`].
pub fn compare_sweep(
    old: &als_core::sweep::SweepRecord,
    new: &als_core::sweep::SweepRecord,
    opts: &CompareOptions,
) -> Vec<String> {
    use als_core::sweep::dominates;
    let mut regressions = Vec::new();
    if old.circuit != new.circuit {
        regressions.push(format!(
            "circuit mismatch: baseline is {}, new record is {}",
            old.circuit, new.circuit
        ));
        return regressions;
    }
    let baseline_frontier: Vec<_> = old.frontier().collect();
    for op in &old.points {
        let Some(np) = new.points.iter().find(|np| np.key() == op.key()) else {
            continue;
        };
        if !op.dominated {
            if let Some(beater) = baseline_frontier
                .iter()
                .find(|bf| dominates(bf.objectives(), np.objectives()))
            {
                regressions.push(format!(
                    "{} {} @{} [{}]: frontier regression — point (lits {}, delay {:.3}, er {:.5}) \
                     is newly dominated by baseline frontier point {} @{} \
                     (lits {}, delay {:.3}, er {:.5})",
                    new.circuit,
                    np.algorithm,
                    np.threshold,
                    np.patterns,
                    np.literals,
                    np.delay,
                    np.error_rate,
                    beater.algorithm,
                    beater.threshold,
                    beater.literals,
                    beater.delay,
                    beater.error_rate,
                ));
            }
        }
        let quality_limit = op.literals as f64 * (1.0 + opts.max_quality_pct / 100.0); // lint:allow(as-cast): counts << 2^52, exact in f64
        if np.literals as f64 > quality_limit {
            // lint:allow(as-cast): counts << 2^52, exact in f64
            regressions.push(format!(
                "{} {} @{} [{}]: literals {} vs baseline {} (+{:.1}%, limit +{:.0}%)",
                new.circuit,
                np.algorithm,
                np.threshold,
                np.patterns,
                np.literals,
                op.literals,
                (np.literals as f64 / op.literals as f64 - 1.0) * 100.0, // lint:allow(as-cast): counts << 2^52, exact in f64
                opts.max_quality_pct,
            ));
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_point(lits: u64, delay: f64, er: f64, threshold: f64) -> als_core::sweep::SweepPoint {
        als_core::sweep::SweepPoint {
            algorithm: "single-selection".into(),
            threshold,
            patterns: 512,
            delay_weight: "off".into(),
            literals: lits,
            literal_ratio: 1.0,
            area: lits as f64, // lint:allow(as-cast): test helper
            area_ratio: 1.0,
            delay,
            delay_ratio: 1.0,
            error_rate: er,
            runtime_s: 0.0,
            dominated: false,
        }
    }

    fn sweep_record(points: Vec<als_core::sweep::SweepPoint>) -> als_core::sweep::SweepRecord {
        let mut points = points;
        als_core::sweep::mark_frontier(&mut points);
        als_core::sweep::SweepRecord {
            schema_version: als_core::sweep::SWEEP_SCHEMA_VERSION,
            circuit: "RCA32".into(),
            git_sha: "abc".into(),
            seed: 1,
            quick: true,
            sweep_workers: 1,
            notes: String::new(),
            golden_literals: 100,
            golden_area: 300.0,
            golden_delay: 20.0,
            absint_frechet_nodes: 0,
            absint_max_po_width: 0.0,
            points,
        }
    }

    #[test]
    fn sweep_identical_records_pass() {
        let rec = sweep_record(vec![
            sweep_point(10, 5.0, 0.01, 0.01),
            sweep_point(8, 6.0, 0.05, 0.05),
        ]);
        assert!(compare_sweep(&rec, &rec, &CompareOptions::default()).is_empty());
    }

    #[test]
    fn sweep_point_sliding_behind_baseline_frontier_trips_gate() {
        let old = sweep_record(vec![
            sweep_point(10, 5.0, 0.01, 0.01),
            sweep_point(8, 6.0, 0.05, 0.05),
        ]);
        // The 0.05 point degrades so badly the baseline 0.01-threshold
        // frontier point now dominates its twin outright.
        let new = sweep_record(vec![
            sweep_point(10, 5.0, 0.01, 0.01),
            sweep_point(12, 5.5, 0.05, 0.05),
        ]);
        let regs = compare_sweep(&old, &new, &CompareOptions::default());
        assert!(
            regs.iter().any(|r| r.contains("frontier regression")),
            "{regs:?}"
        );
    }

    #[test]
    fn sweep_uniform_improvement_never_trips_gate() {
        let old = sweep_record(vec![
            sweep_point(10, 5.0, 0.01, 0.01),
            sweep_point(8, 6.0, 0.05, 0.05),
        ]);
        let new = sweep_record(vec![
            sweep_point(9, 4.5, 0.01, 0.01),
            sweep_point(7, 5.5, 0.04, 0.05),
        ]);
        assert!(compare_sweep(&old, &new, &CompareOptions::default()).is_empty());
    }

    #[test]
    fn sweep_literal_growth_trips_quality_gate() {
        let old = sweep_record(vec![sweep_point(100, 5.0, 0.01, 0.01)]);
        let mut worse = sweep_point(103, 5.0, 0.01, 0.01);
        worse.dominated = false;
        let new = sweep_record(vec![worse]);
        let regs = compare_sweep(&old, &new, &CompareOptions::default());
        assert!(regs.iter().any(|r| r.contains("literals 103")), "{regs:?}");
    }

    #[test]
    fn sweep_circuit_mismatch_is_an_error() {
        let old = sweep_record(vec![sweep_point(10, 5.0, 0.01, 0.01)]);
        let mut new = sweep_record(vec![sweep_point(10, 5.0, 0.01, 0.01)]);
        new.circuit = "KSA32".into();
        assert_eq!(
            compare_sweep(&old, &new, &CompareOptions::default()).len(),
            1
        );
    }
}
