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

//! Logic Built-In Self-Test: STUMPS architecture, mixed-mode sessions and
//! BIST profile generation.
//!
//! This crate models the diagnostic architecture of Fig. 1 of the paper:
//!
//! * [`Lfsr`] — the pseudo-random *test pattern generator* (TPG),
//! * [`Misr`] — the *test response evaluator* (TRE) compacting scan-out
//!   streams into signatures,
//! * [`StumpsSession`] — a full session: LFSR-fed scan chains, intermediate
//!   signature windows, and [`FailData`] collection when signatures mismatch
//!   (the architectural extension of \[9\]/\[10\] for diagnosis),
//! * [`ResumableRun`] — the same session paused and resumed across a
//!   vehicle's shut-off windows (the fleet campaign engine's hook),
//! * [`Diagnoser`] and [`MarchTest`] — fail-data diagnosis of the logic
//!   and the SRAM family, ranking candidate faults through one shared
//!   Jaccard engine that treats an observation as a set of keys,
//! * [`generate_profiles`] — the **Table I generator**: mixed-mode profiles
//!   combining `N` pseudo-random patterns with deterministic top-off
//!   patterns to reach a coverage target, characterised by fault coverage
//!   `c(b)`, runtime `l(b)` and encoded data size `s(b)`,
//! * [`paper_table1`] — the exact 36 profiles published in the paper,
//!   embedded as a dataset so the case study reproduces the published
//!   numbers bit-exact (our own substrate regenerates the *shape* on open
//!   circuits; see DESIGN.md).
//!
//! # Example
//!
//! ```
//! use eea_bist::paper_table1;
//!
//! let profiles = paper_table1();
//! assert_eq!(profiles.len(), 36);
//! // Profile 1: 500 pseudo-random patterns, 99.83 % coverage, 4.87 ms.
//! assert_eq!(profiles[0].random_patterns, 500);
//! assert!((profiles[0].coverage - 0.9983).abs() < 1e-9);
//! ```

mod diagnosis;
mod fail;
mod lfsr;
mod march;
mod misr;
mod paper_data;
mod profile;
mod session_table;
mod stumps;

pub use diagnosis::{Candidate, Diagnoser, DiagnosisSummary};
pub use fail::{FailData, FailEntry, FAIL_DATA_BYTES, FAIL_ENTRY_BYTES};
pub use lfsr::{Lfsr, UnsupportedLfsrWidthError};
pub use march::{
    march_fail_data, CutFamily, MarchCandidate, MarchError, MarchFault, MarchFaultKind, MarchTest,
    SramConfig,
};
pub use misr::Misr;
pub use paper_data::{paper_table1, PAPER_CUT};
pub use profile::{
    generate_profiles, BistProfile, CoverageTarget, PaperCutSpec, ProfileConfig, ProfileError,
};
pub use session_table::SessionTable;
pub use stumps::{lfsr_pattern_block, ResumableRun, SessionResult, StumpsSession};
