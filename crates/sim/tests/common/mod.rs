//! Random-network generators shared by the simulation suites. Generation
//! runs on the deterministic proptest RNG, so failures reproduce.

use als_logic::{Cover, Cube};
use als_network::{Network, NodeId};
use proptest::TestRng;

/// A random 1–2-cube cover over `k` variables.
fn random_cover(rng: &mut TestRng, k: usize) -> Cover {
    let num_cubes = 1 + rng.below(2) as usize;
    let cubes: Vec<Cube> = (0..num_cubes)
        .map(|_| {
            let mut lits: Vec<(usize, bool)> = Vec::new();
            for v in 0..k {
                if rng.below(2) == 0 {
                    lits.push((v, rng.below(2) == 0));
                }
            }
            if lits.is_empty() {
                lits.push((rng.below(k as u64) as usize, rng.below(2) == 0));
            }
            Cube::from_literals(&lits).expect("distinct vars by construction")
        })
        .collect();
    Cover::from_cubes(k, cubes)
}

/// A random 2–4-PI, 3–12-node network with two POs.
pub fn random_network(rng: &mut TestRng, case: u64) -> Network {
    let num_pis = 2 + rng.below(3) as usize;
    let num_nodes = 3 + rng.below(10) as usize;
    let mut net = Network::new(format!("rand{case}"));
    let mut signals: Vec<NodeId> = (0..num_pis).map(|i| net.add_pi(format!("i{i}"))).collect();
    for n in 0..num_nodes {
        let k = 1 + rng.below(3.min(signals.len() as u64)) as usize;
        let mut fanins: Vec<NodeId> = Vec::new();
        while fanins.len() < k {
            let s = signals[rng.below(signals.len() as u64) as usize];
            if !fanins.contains(&s) {
                fanins.push(s);
            }
        }
        let cover = random_cover(rng, k);
        let id = net.add_node(format!("n{n}"), fanins, cover);
        signals.push(id);
    }
    let last = *signals.last().expect("nodes were added");
    net.add_po("f0", last);
    net.add_po("f1", signals[signals.len() - 2]);
    net
}
