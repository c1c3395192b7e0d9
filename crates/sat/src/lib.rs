//! A compact CDCL SAT solver with SAT-decoding support.
//!
//! Implements the feasibility core of the paper's design space exploration
//! (Section III-C): all constraint families of Eqs. (2a)–(2h) and
//! (3a)–(3b) reduce to clauses plus at-most-one constraints, which this
//! solver handles natively. The distinguishing feature over an ordinary SAT
//! solver is **priority-directed branching** ([`Solver::set_priority`] /
//! [`Solver::set_polarity`]): the multi-objective evolutionary algorithm's
//! genotype is a vector of branching priorities and preferred polarities,
//! and the solver "decodes" it into a feasible implementation — the
//! SAT-decoding technique of Lukasiewycz et al. that the paper builds on.
//!
//! # Example
//!
//! ```
//! use eea_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let vars: Vec<_> = (0..4).map(|_| s.new_var()).collect();
//! let lits: Vec<_> = vars.iter().map(|v| v.positive()).collect();
//! s.add_exactly_one(&lits);
//! // Prefer variable 2: the decoded solution selects it.
//! s.set_priority(vars[2], 1.0);
//! s.set_polarity(vars[2], true);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert!(s.value(vars[2]));
//! ```

// Library targets are panic-free by policy (see DESIGN.md, "Error
// taxonomy"): unwrap/expect/panic! are denied outside test code, and a
// public function that can still panic documents it under `# Panics`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::missing_panics_doc
    )
)]

mod heap;
mod lit;
mod solver;

pub use lit::{Lit, Value, Var};
pub use solver::{SolveResult, Solver};
