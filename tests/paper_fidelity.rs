//! Tests pinning the reproduction to specific claims and examples of the
//! DAC'16 paper.

use als::core::knapsack::{solve, KnapsackItem, KnapsackState};
use als::core::{
    apparent_error_rate, approximate, estimated_real_error_rate, generate_ases, AlsConfig, Strategy,
};
use als::dontcare::{compute_dont_cares, DontCareConfig};
use als::logic::{Cover, Cube, Expr};
use als::network::Network;
use als::sim::{error_rate, local_pattern_probabilities, simulate, PatternSet};

fn cube(lits: &[(usize, bool)]) -> Cube {
    Cube::from_literals(lits).unwrap()
}

/// The paper's Fig. 1 network: n1 = i1·i2, n2 = n1·i3, f = i0·n2 + i0'·n1.
fn fig1() -> (Network, als::network::NodeId) {
    let mut net = Network::new("fig1");
    let i0 = net.add_pi("i0");
    let i1 = net.add_pi("i1");
    let i2 = net.add_pi("i2");
    let i3 = net.add_pi("i3");
    let n1 = net.add_node(
        "n1",
        vec![i1, i2],
        Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
    );
    let n2 = net.add_node(
        "n2",
        vec![n1, i3],
        Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
    );
    let f = net.add_node(
        "f",
        vec![i0, n2, n1],
        Cover::from_cubes(
            3,
            [
                cube(&[(0, true), (1, true)]),
                cube(&[(0, false), (2, true)]),
            ],
        ),
    );
    net.add_po("f", f);
    (net, n2)
}

/// §3 / Fig. 1: replacing n2 by constant 0 has AEPIPs {0111, 1111} but only
/// REPIP {1111} — apparent rate 2/16, real rate 1/16.
#[test]
fn fig1_apparent_vs_real_error_rate() {
    let (net, n2) = fig1();
    let patterns = PatternSet::exhaustive(4).unwrap();
    let sim = simulate(&net, &patterns);
    let probs = local_pattern_probabilities(&net, &sim, n2);

    let node = net.node(n2);
    let ases = generate_ases(node.expr(), node.fanins().len(), 5);
    let const0 = ases
        .iter()
        .find(|a| a.expr == Expr::FALSE)
        .expect("const-0 ASE exists");

    // Apparent: n2 errs whenever n1·i3 = 1, i.e. i1=i2=i3=1 → 2 of 16 PI
    // patterns (i0 free).
    let apparent = apparent_error_rate(const0, &probs);
    assert!((apparent - 2.0 / 16.0).abs() < 1e-12, "apparent {apparent}");

    // True real rate: only 1111 propagates (i0 must be 1) → 1/16.
    let mut approx = net.clone();
    approx.replace_with_constant(n2, false);
    let real = error_rate(&net, &approx, &patterns);
    assert!((real - 1.0 / 16.0).abs() < 1e-12, "real {real}");

    // §3.3: the estimate is an upper bound on the real rate and at most the
    // apparent rate.
    let dc = compute_dont_cares(&net, n2, &DontCareConfig::default());
    let estimate = estimated_real_error_rate(const0, &probs, &dc);
    assert!(estimate >= real - 1e-12);
    assert!(estimate <= apparent + 1e-12);
}

/// §3.3: the real-error-rate estimate upper-bounds the true real error rate
/// for EVERY ASE of EVERY node (exhaustive patterns make both sides exact).
#[test]
fn estimate_is_a_sound_upper_bound_everywhere() {
    let (net, _) = fig1();
    let patterns = PatternSet::exhaustive(4).unwrap();
    let sim = simulate(&net, &patterns);
    for id in net.internal_ids().collect::<Vec<_>>() {
        let node = net.node(id);
        let probs = local_pattern_probabilities(&net, &sim, id);
        let dc = compute_dont_cares(&net, id, &DontCareConfig::default());
        for ase in generate_ases(node.expr(), node.fanins().len(), 5) {
            let estimate = estimated_real_error_rate(&ase, &probs, &dc);
            let mut approx = net.clone();
            match ase.expr.as_constant() {
                Some(v) => approx.replace_with_constant(id, v),
                None => approx.replace_expr(id, ase.expr.clone()),
            }
            let real = error_rate(&net, &approx, &patterns);
            assert!(
                estimate >= real - 1e-12,
                "node {id:?} ASE `{}`: estimate {estimate} < real {real}",
                ase.expr
            );
        }
    }
}

/// Theorem 1: the error rate after simultaneously applying several ASEs is
/// bounded by the sum of their apparent error rates.
#[test]
fn theorem_1_bound_holds_for_batches() {
    let (net, _) = fig1();
    let patterns = PatternSet::exhaustive(4).unwrap();
    let sim = simulate(&net, &patterns);
    let ids: Vec<_> = net.internal_ids().collect();

    // Every combination of one ASE per node (cartesian over 2 nodes to keep
    // the test fast but non-trivial: n1 and n2).
    let per_node: Vec<Vec<als::core::Ase>> = ids
        .iter()
        .map(|&id| {
            let node = net.node(id);
            generate_ases(node.expr(), node.fanins().len(), 5)
        })
        .collect();
    for (i, ase_i) in per_node[0].iter().enumerate() {
        for (j, ase_j) in per_node[1].iter().enumerate() {
            let probs_i = local_pattern_probabilities(&net, &simulate(&net, &patterns), ids[0]);
            let probs_j = local_pattern_probabilities(&net, &sim, ids[1]);
            let bound = apparent_error_rate(ase_i, &probs_i) + apparent_error_rate(ase_j, &probs_j);
            let mut approx = net.clone();
            for (id, ase) in [(ids[0], ase_i), (ids[1], ase_j)] {
                match ase.expr.as_constant() {
                    Some(v) => approx.replace_with_constant(id, v),
                    None => approx.replace_expr(id, ase.expr.clone()),
                }
            }
            let real = error_rate(&net, &approx, &patterns);
            assert!(
                real <= bound + 1e-12,
                "ASEs ({i},{j}): real {real} > bound {bound}"
            );
        }
    }
}

/// Tables 1–2: the worked knapsack example, end to end.
#[test]
fn paper_knapsack_example() {
    let items = vec![
        KnapsackItem {
            states: vec![
                KnapsackState {
                    weight: 2,
                    value: 1,
                },
                KnapsackState {
                    weight: 3,
                    value: 2,
                },
            ],
        },
        KnapsackItem {
            states: vec![
                KnapsackState {
                    weight: 4,
                    value: 2,
                },
                KnapsackState {
                    weight: 6,
                    value: 4,
                },
            ],
        },
        KnapsackItem {
            states: vec![KnapsackState {
                weight: 2,
                value: 1,
            }],
        },
    ];
    let solution = solve(&items, 9, true);
    assert_eq!(solution.total_value, 6);
    assert_eq!(solution.choices, vec![Some(1), Some(1), None]);
}

/// §3.1: the ASE census of `n = (a+b)(c+d)` — four single-literal removals,
/// and exactly the const-0/const-1 pair at full removal.
#[test]
fn paper_ase_example() {
    let expr = Expr::and(vec![
        Expr::or(vec![Expr::lit(0, true), Expr::lit(1, true)]),
        Expr::or(vec![Expr::lit(2, true), Expr::lit(3, true)]),
    ]);
    let ases = generate_ases(&expr, 4, 5);
    assert_eq!(
        ases.iter().filter(|a| a.literals_saved == 1).count(),
        4,
        "four ways to remove one literal"
    );
    let full: Vec<_> = ases.iter().filter(|a| a.literals_saved == 4).collect();
    assert_eq!(full.len(), 2, "const-0 and const-1");
}

/// §4: the algorithm's loop structure — the error budget is consumed
/// monotonically and the margin never goes negative.
#[test]
fn error_budget_consumed_monotonically() {
    let golden = als::circuits::wallace_tree_multiplier(3);
    let mut config = AlsConfig::with_threshold(0.10);
    config.patterns = 4096;
    let outcome = approximate(&golden, Strategy::Single, &config).unwrap();
    let mut last = 0.0;
    for it in &outcome.iterations {
        assert!(it.error_rate_after + 1e-12 >= last, "error rate decreased");
        assert!(it.error_rate_after <= 0.10 + 1e-12);
        last = it.error_rate_after;
    }
}
