//! A from-scratch CDCL SAT solver.
//!
//! The DAC'16 flow computes satisfiability and observability don't-cares with
//! MVSIS `mfs` configured for "SAT-based computation" (§3.3). This crate is
//! the stand-in for that engine: a conflict-driven clause-learning solver
//! with two-watched-literal propagation, first-UIP conflict analysis,
//! VSIDS-style activities, phase saving and Luby restarts. It is sized for
//! the window-miter queries issued by `als-dontcare` (hundreds of variables)
//! but is a complete general-purpose solver.
//!
//! The solver is built for *incremental* sessions: watch lists live in a
//! flat arena, learnt clauses carry activities and are periodically reduced,
//! and scoped clause sets can be added to retractable [`Group`]s guarded by
//! activation literals (assume [`Group::lit`] to enable a group, call
//! [`Solver::retract`] to dispose of it). This lets one solver instance
//! serve a long sequence of related queries — e.g. every round of #SAT
//! error counting, whose validity oracle keeps one solver and scopes each
//! round's clauses in a group — instead of re-encoding from scratch per
//! query.
//!
//! # Example
//!
//! ```
//! use als_sat::{Lit, Solver, SatResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b)
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::pos(a), Lit::neg(b)]);
//! assert_eq!(s.solve(), SatResult::Sat);
//! assert_eq!(s.value(a), Some(true));
//! assert_eq!(s.value(b), Some(true));
//! // Adding (¬a ∨ ¬b) makes it unsatisfiable.
//! s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
//! assert_eq!(s.solve(), SatResult::Unsat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

mod solver;

pub use solver::{Group, Lit, SatResult, Solver, Var};

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force satisfiability check for cross-validation.
    fn brute_force(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
        'outer: for m in 0..(1u64 << num_vars) {
            for clause in clauses {
                let sat = clause.iter().any(|l| {
                    let v = m >> l.var().index() & 1 == 1;
                    v == l.is_positive()
                });
                if !sat {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    #[test]
    fn random_cnf_cross_check() {
        let mut state = 0x1357_9bdfu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        for round in 0..200 {
            let num_vars = 4 + (next() % 5) as usize; // 4..8
            let num_clauses = 3 + (next() % 20) as usize;
            let mut solver = Solver::new();
            let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
            let mut clauses = Vec::new();
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let mut clause = Vec::new();
                for _ in 0..len {
                    let v = vars[(next() % num_vars as u64) as usize];
                    let lit = if next() & 1 == 0 {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    };
                    if !clause.contains(&lit) {
                        clause.push(lit);
                    }
                }
                clauses.push(clause);
            }
            for c in &clauses {
                solver.add_clause(c);
            }
            let expect = brute_force(num_vars, &clauses);
            let got = solver.solve() == SatResult::Sat;
            assert_eq!(got, expect, "round {round}: clauses {clauses:?}");
            if got {
                // The model must satisfy every clause.
                for clause in &clauses {
                    assert!(
                        clause
                            .iter()
                            .any(|l| solver.value(l.var()) == Some(l.is_positive())),
                        "model violates {clause:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        // Every pigeon in some hole.
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        // No two pigeons share a hole.
        #[allow(clippy::needless_range_loop)] // h indexes the inner dimension of every row
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i][h]), Lit::neg(p[j][h])]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn assumptions_restrict_and_release() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve_with_assumptions(&[Lit::neg(a)]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(
            s.solve_with_assumptions(&[Lit::neg(a), Lit::neg(b)]),
            SatResult::Unsat
        );
        // Without assumptions the instance is still satisfiable.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
        // Chain of implications v0 → v1 → ... → v7.
        for w in vars.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        s.add_clause(&[Lit::pos(vars[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        for &v in &vars {
            assert_eq!(s.value(v), Some(true));
        }
        // Now force the last one false: unsat.
        s.add_clause(&[Lit::neg(vars[7])]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }
}
