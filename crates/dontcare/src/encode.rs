//! Tseitin CNF encoding of network nodes for the SAT-based don't-care method.

use als_network::{Network, NodeId};
use als_sat::{Lit, Solver, Var};
use std::collections::HashMap;

/// Encodes the local function of `node` into `solver`, constraining
/// `out_var ↔ f(fanin vars)`. `vars` maps each network signal to its SAT
/// variable; all fanins must already be present.
///
/// The encoding is the standard cube-level Tseitin construction: one
/// auxiliary variable per cube, `aux ↔ AND(literals)`, and
/// `out ↔ OR(aux)`.
///
/// # Panics
///
/// Panics if a fanin of `node` has no entry in `vars`.
// Internal call graph only ever passes the std hasher; generalizing the
// signature buys nothing.
#[allow(clippy::implicit_hasher)]
pub fn encode_node_cnf(
    solver: &mut Solver,
    net: &Network,
    node: NodeId,
    vars: &HashMap<NodeId, Var>,
    out_var: Var,
) {
    let n = net.node(node);
    let cover = n.cover();
    let out = Lit::pos(out_var);

    if cover.is_empty() {
        // Constant 0.
        solver.add_clause(&[!out]);
        return;
    }
    if cover.has_universe_cube() {
        solver.add_clause(&[out]);
        return;
    }

    let mut cube_lits: Vec<Lit> = Vec::with_capacity(cover.len());
    for cube in cover.cubes() {
        let lits: Vec<Lit> = cube
            .literals()
            .map(|(v, phase)| {
                let fanin = n.fanins()[v];
                let var = *vars.get(&fanin).expect("fanin encoded before node"); // lint:allow(panic): internal invariant; the message states it
                Lit::with_sign(var, phase)
            })
            .collect();
        let aux = if lits.len() == 1 {
            lits[0]
        } else {
            let a = Lit::pos(solver.new_var());
            // a → every literal
            for &l in &lits {
                solver.add_clause(&[!a, l]);
            }
            // all literals → a
            let mut clause: Vec<Lit> = lits.iter().map(|&l| !l).collect();
            clause.push(a);
            solver.add_clause(&clause);
            a
        };
        cube_lits.push(aux);
    }

    // out ↔ OR(cube_lits)
    for &c in &cube_lits {
        solver.add_clause(&[!c, out]);
    }
    let mut clause = cube_lits;
    clause.push(!out);
    solver.add_clause(&clause);
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};
    use als_network::Network;
    use als_sat::SatResult;

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// Encodes a single node and exhaustively checks the CNF against the
    /// cover semantics using assumptions.
    fn check_encoding(cover: &Cover) {
        let mut net = Network::new("enc");
        let nv = cover.num_vars();
        let pis: Vec<NodeId> = (0..nv).map(|i| net.add_pi(format!("x{i}"))).collect();
        let y = net.add_node("y", pis.clone(), cover.clone());
        net.add_po("y", y);

        let mut solver = Solver::new();
        let mut vars = HashMap::new();
        for &pi in &pis {
            vars.insert(pi, solver.new_var());
        }
        let out = solver.new_var();
        encode_node_cnf(&mut solver, &net, y, &vars, out);

        for m in 0..(1u64 << nv) {
            let expect = cover.eval(m);
            let mut assumptions: Vec<Lit> = (0..nv)
                .map(|i| Lit::with_sign(vars[&pis[i]], m >> i & 1 == 1))
                .collect();
            assumptions.push(Lit::with_sign(out, expect));
            assert_eq!(
                solver.solve_with_assumptions(&assumptions),
                SatResult::Sat,
                "cover {cover} must allow out={expect} at {m:b}"
            );
            assumptions.pop();
            assumptions.push(Lit::with_sign(out, !expect));
            assert_eq!(
                solver.solve_with_assumptions(&assumptions),
                SatResult::Unsat,
                "cover {cover} must forbid out={} at {m:b}",
                !expect
            );
        }
    }

    #[test]
    fn encodes_and() {
        check_encoding(&Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]));
    }

    #[test]
    fn encodes_xor() {
        check_encoding(&Cover::from_cubes(
            2,
            [
                cube(&[(0, true), (1, false)]),
                cube(&[(0, false), (1, true)]),
            ],
        ));
    }

    #[test]
    fn encodes_constants() {
        check_encoding(&Cover::constant_zero(2));
        check_encoding(&Cover::constant_one(2));
    }

    #[test]
    fn encodes_single_literal_cubes() {
        check_encoding(&Cover::from_cubes(
            3,
            [cube(&[(0, false)]), cube(&[(1, true), (2, true)])],
        ));
    }
}
