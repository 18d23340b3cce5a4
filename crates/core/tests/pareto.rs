//! Properties of the sweep module's Pareto machinery: dominance is a strict
//! partial order, frontier extraction is idempotent, and perturbing a point
//! strictly worse always tags it dominated.

use als_core::sweep::{dominates, mark_frontier, SweepPoint};
use proptest::prelude::*;

fn point(lits: u64, delay: f64, er: f64) -> SweepPoint {
    SweepPoint {
        algorithm: "single-selection".into(),
        threshold: 0.05,
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

/// A small objective-space generator: coarse grids keep ties and
/// dominated/non-dominated mixtures common instead of vanishingly rare.
fn objectives() -> impl Strategy<Value = [f64; 3]> {
    (0u64..6, 0u64..6, 0u64..6).prop_map(|(a, b, c)| {
        [a as f64, b as f64 / 2.0, c as f64 / 10.0] // lint:allow(as-cast): small grid coords, exact in f64
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Irreflexivity and antisymmetry: nothing dominates itself, and
    /// domination never holds in both directions.
    #[test]
    fn dominance_is_irreflexive_and_antisymmetric(a in objectives(), b in objectives()) {
        prop_assert!(!dominates(a, a));
        prop_assert!(!(dominates(a, b) && dominates(b, a)));
    }

    /// Transitivity: a ≻ b and b ≻ c imply a ≻ c.
    #[test]
    fn dominance_is_transitive(a in objectives(), b in objectives(), c in objectives()) {
        if dominates(a, b) && dominates(b, c) {
            prop_assert!(dominates(a, c));
        }
    }

    /// The frontier of a frontier is itself: re-marking only the
    /// non-dominated points never tags anything new.
    #[test]
    fn frontier_of_a_frontier_is_itself(
        objs in proptest::collection::vec(objectives(), 1..12)
    ) {
        let mut points: Vec<SweepPoint> = objs
            .iter()
            .map(|o| {
                point(o[0] as u64, o[1], o[2]) // lint:allow(as-cast): grid coords are small non-negative integers
            })
            .collect();
        mark_frontier(&mut points);
        let mut frontier: Vec<SweepPoint> =
            points.iter().filter(|p| !p.dominated).cloned().collect();
        prop_assert!(!frontier.is_empty(), "a finite set always has a frontier");
        mark_frontier(&mut frontier);
        prop_assert!(
            frontier.iter().all(|p| !p.dominated),
            "re-marking the frontier tagged a point dominated"
        );
    }

    /// A point strictly worsened in one objective (and no better anywhere)
    /// is tagged dominated when its original stays in the set.
    #[test]
    fn perturbed_duplicate_is_tagged_dominated(
        objs in proptest::collection::vec(objectives(), 1..10),
        victim in 0usize..10,
        axis in 0usize..3,
    ) {
        let victim = victim % objs.len();
        let mut points: Vec<SweepPoint> = objs
            .iter()
            .map(|o| {
                point(o[0] as u64, o[1], o[2]) // lint:allow(as-cast): grid coords are small non-negative integers
            })
            .collect();
        let mut worse = points[victim].clone();
        match axis {
            0 => worse.literals += 1,
            1 => worse.delay += 0.25,
            _ => worse.error_rate += 0.05,
        }
        points.push(worse);
        mark_frontier(&mut points);
        prop_assert!(
            points.last().unwrap().dominated,
            "a strictly worse copy of a surviving point must be dominated"
        );
    }
}

/// Equal points never dominate each other, so duplicates all stay on the
/// frontier together (dominance is strict).
#[test]
fn equal_points_are_mutually_non_dominating() {
    let mut points = vec![point(5, 2.0, 0.01), point(5, 2.0, 0.01)];
    mark_frontier(&mut points);
    assert!(!points[0].dominated);
    assert!(!points[1].dominated);
}
