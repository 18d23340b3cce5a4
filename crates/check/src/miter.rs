//! The one network encoder and two-network miter of the SAT engines, and
//! the combinational equivalence check built on it.
//!
//! [`encode_network`] Tseitin-encodes a network over caller-supplied
//! primary-input variables with **structural hashing**: a node whose
//! `(fanin variables, cover)` key is already in the table reuses the
//! existing variable. Encoding a second network against the same table
//! therefore shares every cone the two have in common, and output pairs
//! that hash to the same variable are provably equal. [`Miter`] is that
//! pair encoding over shared inputs; the #SAT error-rate engine
//! ([`exact_error_rate_sat`](crate::exact_error_rate_sat)), the `SatSweep`
//! analyzer pass and [`cec`] all build on it.

use als_dontcare::encode_node_cnf;
use als_logic::Cover;
use als_network::{Network, NodeId, NodeKind};
use als_sat::{Lit, SatResult, Solver, Var};
use std::collections::HashMap;
use std::fmt;

/// Structural-hashing table shared across network encodings in one solver:
/// `(fanin variables in order, cover)` → the variable already encoding that
/// function. Two nodes with equal keys compute the same function of the
/// same solver variables, so reusing the variable is sound.
pub(crate) type StructTable = HashMap<(Vec<Var>, Cover), Var>;

/// Tseitin-encodes every internal node of `net` over the primary-input
/// variables `pis` (in PI order), reusing the variable of any node whose
/// key is already in `table`. Returns the variable of every PI and live
/// internal node.
///
/// # Panics
///
/// Panics if `net` fails its structural invariants (unencoded fanin);
/// callers encode structurally checked networks.
pub(crate) fn encode_network(
    solver: &mut Solver,
    net: &Network,
    pis: &[Var],
    table: &mut StructTable,
) -> HashMap<NodeId, Var> {
    let mut vars: HashMap<NodeId, Var> =
        net.pis().iter().copied().zip(pis.iter().copied()).collect();
    for id in net.topo_order() {
        let node = net.node(id);
        if node.kind() != NodeKind::Internal {
            continue;
        }
        let fanin_vars: Vec<Var> = node
            .fanins()
            .iter()
            .map(|f| {
                *vars.get(f).expect("fanin encoded before its consumer") // lint:allow(panic): topo-order invariant
            })
            .collect();
        let key = (fanin_vars, node.cover().clone());
        let v = if let Some(&shared) = table.get(&key) {
            shared
        } else {
            let v = solver.new_var();
            encode_node_cnf(solver, net, id, &vars, v);
            table.insert(key, v);
            v
        };
        vars.insert(id, v);
    }
    vars
}

/// Two networks encoded in one solver over shared primary-input
/// variables, with structural hashing across the copies.
#[derive(Debug)]
pub(crate) struct Miter {
    /// The shared primary-input variables, in PI order.
    pub pis: Vec<Var>,
    /// The `(golden, approx)` output variable pairs that structural hashing
    /// did not merge, in PO order. Merged pairs are provably equal and
    /// left out; an empty list proves the networks equivalent.
    pub pairs: Vec<(Var, Var)>,
}

impl Miter {
    /// Encodes `golden` then `approx` into `solver`. The caller has checked
    /// that the PI and PO counts agree.
    pub fn build(solver: &mut Solver, golden: &Network, approx: &Network) -> Miter {
        let pis: Vec<Var> = (0..golden.num_pis()).map(|_| solver.new_var()).collect();
        let mut table = StructTable::new();
        let g = encode_network(solver, golden, &pis, &mut table);
        let a = encode_network(solver, approx, &pis, &mut table);
        let po_var = |net: &Network, vars: &HashMap<NodeId, Var>, i: usize| {
            *vars
                .get(&net.pos()[i].1)
                .expect("PO driven by a live encoded node") // lint:allow(panic): structural invariant; message states it
        };
        let pairs = (0..golden.num_pos())
            .map(|i| (po_var(golden, &g, i), po_var(approx, &a, i)))
            .filter(|(g, a)| g != a)
            .collect();
        Miter { pis, pairs }
    }

    /// One fresh difference literal per unmerged output pair, constrained
    /// `d → (g ⊕ a)`. The reverse direction is unnecessary under a positive
    /// disjunction over the `d`s, which is how every caller uses them.
    pub fn difference_lits(&self, solver: &mut Solver) -> Vec<Lit> {
        self.pairs
            .iter()
            .map(|&(g, a)| {
                let d = Lit::pos(solver.new_var());
                solver.add_clause(&[!d, Lit::pos(g), Lit::pos(a)]);
                solver.add_clause(&[!d, Lit::neg(g), Lit::neg(a)]);
                d
            })
            .collect()
    }
}

/// The outcome of a combinational equivalence check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CecResult {
    /// The networks are functionally identical.
    Equivalent,
    /// A distinguishing PI assignment (in PI declaration order).
    Counterexample(Vec<bool>),
    /// The interfaces differ (PI/PO counts).
    InterfaceMismatch,
}

impl fmt::Display for CecResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CecResult::Equivalent => write!(f, "equivalent"),
            CecResult::Counterexample(v) => {
                write!(f, "not equivalent; witness ")?;
                for &b in v.iter().rev() {
                    write!(f, "{}", u8::from(b))?;
                }
                Ok(())
            }
            CecResult::InterfaceMismatch => write!(f, "interface mismatch"),
        }
    }
}

/// SAT-based combinational equivalence check on the structurally hashed
/// miter: [`CecResult::Equivalent`] without a query when hashing merges
/// every output pair, otherwise the miter's first model (if any) is the
/// counterexample.
pub fn cec(golden: &Network, candidate: &Network) -> CecResult {
    if golden.num_pis() != candidate.num_pis() || golden.num_pos() != candidate.num_pos() {
        return CecResult::InterfaceMismatch;
    }
    let mut solver = Solver::new();
    let miter = Miter::build(&mut solver, golden, candidate);
    let any = miter.difference_lits(&mut solver);
    if any.is_empty() {
        return CecResult::Equivalent;
    }
    solver.add_clause(&any);
    match solver.solve() {
        SatResult::Unsat => CecResult::Equivalent,
        SatResult::Sat => CecResult::Counterexample(
            miter
                .pis
                .iter()
                .map(|&v| solver.value(v).unwrap_or(false))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_circuits::adders::{carry_lookahead_adder, kogge_stone_adder, ripple_carry_adder};

    #[test]
    fn cec_proves_adder_equivalence() {
        let rca = ripple_carry_adder(8);
        let cla = carry_lookahead_adder(8);
        let ksa = kogge_stone_adder(8);
        assert_eq!(cec(&rca, &cla), CecResult::Equivalent);
        assert_eq!(cec(&rca, &ksa), CecResult::Equivalent);
    }

    #[test]
    fn cec_finds_counterexamples() {
        let golden = ripple_carry_adder(6);
        let mut broken = golden.clone();
        let victim = broken.internal_ids().nth(5).unwrap();
        broken.replace_with_constant(victim, false);
        match cec(&golden, &broken) {
            CecResult::Counterexample(pis) => {
                // The witness must actually distinguish the networks.
                assert_ne!(golden.eval(&pis), broken.eval(&pis));
            }
            other => panic!("expected a counterexample, got {other}"),
        }
    }

    #[test]
    fn cec_detects_interface_mismatch() {
        let a = ripple_carry_adder(4);
        let b = ripple_carry_adder(5);
        assert_eq!(cec(&a, &b), CecResult::InterfaceMismatch);
    }

    #[test]
    fn structural_hashing_proves_identical_copies_without_sat() {
        // A clone shares every node: every output pair merges, so `cec`
        // answers before issuing a single query.
        let net = ripple_carry_adder(16);
        let mut solver = Solver::new();
        assert!(Miter::build(&mut solver, &net, &net.clone())
            .pairs
            .is_empty());
        assert_eq!(cec(&net, &net.clone()), CecResult::Equivalent);
    }

    #[test]
    fn witness_prints_most_significant_pi_first() {
        let result = CecResult::Counterexample(vec![true, false, false]);
        assert_eq!(result.to_string(), "not equivalent; witness 001");
    }
}
