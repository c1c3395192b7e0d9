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

//! Deterministic test-pattern generation (PODEM) and test-set compaction.
//!
//! Mixed-mode BIST (Section II of the paper) applies pseudo-random patterns
//! first and then *encoded deterministic patterns* for the remaining
//! random-resistant faults. This crate generates those deterministic
//! patterns:
//!
//! * [`Podem`] — the classic PODEM branch-and-bound algorithm over a
//!   five-valued composite algebra (implemented as separate good/faulty
//!   three-valued planes, so implication is exact),
//! * [`TestCube`] — a partially specified pattern; the number of *care bits*
//!   feeds the encoded-data size model of `eea-bist`,
//! * [`generate_tests`] — ATPG driver with fault dropping via the
//!   bit-parallel fault simulator and reverse-order compaction.
//!
//! PODEM with an exhausted search space proves *untestability*: faults it
//! rules out are redundant and excluded from the coverable set, exactly as
//! a commercial flow reports fault efficiency.
//!
//! # Example
//!
//! ```
//! use eea_netlist::bench_format;
//! use eea_atpg::{generate_tests, AtpgConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c = bench_format::parse(bench_format::C17)?;
//! let run = generate_tests(&c, &AtpgConfig::default());
//! assert_eq!(run.untestable, 0);           // c17 is fully testable
//! assert!(run.coverage() > 0.999);
//! # Ok(())
//! # }
//! ```

mod compact;
mod cube;
mod engine;
mod podem;

pub use compact::compact_reverse_order;
pub use cube::TestCube;
pub use engine::{generate_tests, generate_tests_for, AtpgConfig, AtpgRun};
pub use podem::{AtpgOutcome, Podem};
