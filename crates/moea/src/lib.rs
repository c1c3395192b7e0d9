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

//! Multi-objective evolutionary optimisation: NSGA-II, Pareto archive and
//! quality indicators.
//!
//! Together with the `eea-sat` feasibility solver this forms the
//! SAT-decoding optimisation loop of the paper (Section III-C): NSGA-II
//! evolves real-vector genotypes that the problem decodes — via
//! priority-directed SAT solving — into feasible E/E-architecture
//! implementations, evaluated on the three design objectives (cost, test
//! quality, shut-off time).
//!
//! # Example
//!
//! ```
//! use eea_moea::{run, Nsga2Config, Problem};
//!
//! struct Sphere;
//! impl Problem for Sphere {
//!     fn genotype_len(&self) -> usize { 4 }
//!     fn num_objectives(&self) -> usize { 2 }
//!     fn evaluate(&mut self, x: &[f64]) -> Option<Vec<f64>> {
//!         let near0: f64 = x.iter().map(|v| v * v).sum();
//!         let near1: f64 = x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum();
//!         Some(vec![near0, near1])
//!     }
//! }
//! let res = run(&mut Sphere, &Nsga2Config { population: 16, evaluations: 400, ..Default::default() }, |_, _| {});
//! assert!(!res.archive.is_empty());
//! ```

mod archive;
mod dominance;
mod indicators;
mod nsga2;
mod rng;
mod spea2;

pub use archive::{ArchiveEntry, ParetoArchive};
pub use dominance::{dominates, relation, Relation};
pub use indicators::{additive_epsilon, hypervolume};
pub use nsga2::{
    crowding_distances, non_dominated_ranks, run, Individual, Nsga2Config, Nsga2Result, Problem,
};
pub use rng::Rng;
pub use spea2::{run_spea2, Spea2Result};
