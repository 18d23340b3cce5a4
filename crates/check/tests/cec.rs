//! Property test: the SAT equivalence check must agree with exhaustive
//! comparison on random network pairs, and every witness it returns must
//! distinguish the pair.

use als_check::{cec, CecResult};
use als_logic::{Cover, Cube};
use als_network::{Network, NodeId};
use proptest::prelude::*;

const NUM_PIS: usize = 4;

fn build_network(recipe: &[(u8, u8, u8)]) -> Network {
    let mut net = Network::new("random");
    let mut signals: Vec<NodeId> = (0..NUM_PIS).map(|i| net.add_pi(format!("x{i}"))).collect();
    for (idx, &(sel_a, sel_b, kind)) in recipe.iter().enumerate() {
        let a = signals[usize::from(sel_a) % signals.len()];
        let mut b = signals[usize::from(sel_b) % signals.len()];
        if a == b {
            b = signals[(usize::from(sel_b) + 1) % signals.len()];
        }
        if a == b {
            continue;
        }
        let cover = match kind % 4 {
            0 => Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)]).unwrap()]),
            1 => Cover::from_cubes(
                2,
                [
                    Cube::from_literals(&[(0, true)]).unwrap(),
                    Cube::from_literals(&[(1, true)]).unwrap(),
                ],
            ),
            2 => Cover::from_cubes(
                2,
                [
                    Cube::from_literals(&[(0, true), (1, false)]).unwrap(),
                    Cube::from_literals(&[(0, false), (1, true)]).unwrap(),
                ],
            ),
            _ => Cover::from_cubes(2, [Cube::from_literals(&[(0, false), (1, false)]).unwrap()]),
        };
        let id = net.add_node(format!("g{idx}"), vec![a, b], cover);
        signals.push(id);
    }
    let driver = *signals.last().expect("at least the PIs exist");
    net.add_po("y", driver);
    net
}

fn arb_recipe() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cec_agrees_with_exhaustive_comparison(ra in arb_recipe(), rb in arb_recipe()) {
        let a = build_network(&ra);
        let b = build_network(&rb);
        let exhaustively_equal = (0..(1u64 << NUM_PIS)).all(|m| {
            let pis: Vec<bool> = (0..NUM_PIS).map(|i| m >> i & 1 == 1).collect();
            a.eval(&pis) == b.eval(&pis)
        });
        match cec(&a, &b) {
            CecResult::Equivalent => prop_assert!(exhaustively_equal),
            CecResult::Counterexample(pis) => {
                prop_assert!(!exhaustively_equal);
                prop_assert_ne!(a.eval(&pis), b.eval(&pis), "witness must distinguish");
            }
            CecResult::InterfaceMismatch => prop_assert!(false, "same interface"),
        }
    }
}
