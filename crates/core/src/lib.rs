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

//! # eea-dse — diagnosis-aware design space exploration
//!
//! Reproduction of *"Non-Intrusive Integration of Advanced Diagnosis
//! Features in Automotive E/E-Architectures"* (DATE 2014): a design space
//! exploration that integrates Built-In Self-Test (BIST) capabilities into
//! an automotive E/E-architecture **non-intrusively** — test-pattern
//! transfers mirror the inactive ECU's certified CAN schedule — while
//! optimising three objectives simultaneously: monetary cost, test quality
//! and shut-off time.
//!
//! The pipeline:
//!
//! 1. [`augment`](augment::augment) a functional [`eea_model`]
//!    specification with BIST test/data/collect tasks per ECU and profile
//!    (Fig. 3 of the paper),
//! 2. [`encode`](encode::encode) the feasibility constraints — Eqs.
//!    (2a)–(2h) and (3a)–(3b) plus the functional binding/routing
//!    constraints — into a SAT formula,
//! 3. [`explore`](explore::explore): NSGA-II evolves branching
//!    priorities/polarities which the [`eea_sat`] solver decodes into
//!    feasible implementations (SAT-decoding); objectives per
//!    [`objectives`],
//! 4. [`report`] extracts the Fig. 5 / Fig. 6 / headline quantities.
//!
//! # Quickstart
//!
//! ```
//! use eea_bist::paper_table1;
//! use eea_dse::augment::augment;
//! use eea_dse::explore::{explore, DseConfig};
//! use eea_model::paper_case_study;
//!
//! let case = paper_case_study();
//! // A reduced profile set and budget keep this example fast.
//! let diag = augment(&case, &paper_table1()[..4]).expect("gateway present");
//! let mut cfg = DseConfig::default();
//! cfg.nsga2.population = 16;
//! cfg.nsga2.evaluations = 160;
//! let result = explore(&diag, &cfg, |_, _| {});
//! assert!(!result.front.is_empty());
//! ```

pub mod augment;
pub mod encode;
pub mod error;
pub mod explore;
pub mod objectives;
pub mod report;
pub mod schedule;

pub use augment::{augment, AugmentError, BistOption, DiagSpec};
pub use encode::{encode, Encoding};
pub use error::EeaError;
pub use explore::{
    baseline_cost, explore, resolve_threads, DseConfig, DseProblem, DseResult,
    ExploredImplementation, EVAL_LANES,
};
pub use objectives::{evaluate, evaluate_with_transport, MemorySummary, Objectives, MAX_SHUTOFF_S};
// The transport axis is part of this crate's public configuration surface
// (`DseConfig::transport`); re-exported so binaries need not name `eea_can`.
pub use eea_can::{Transport, TransportConfig, TransportError, TransportKind};
pub use report::{
    fig5_ascii, fig5_csv, fig5_points, fig6_csv, fig6_rows, headline, headline_with_budget,
    partial_networking_candidates, Fig5Point, Fig6Row, Headline, SHUTOFF_MARKER_SPLIT_S,
};
pub use schedule::{check_schedulability, derive_bus_schedules, BusSchedule, ScheduleError};
