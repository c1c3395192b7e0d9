//! Holistic E/E-architecture system model.
//!
//! Implements the graph-based specification `g_S(g_T, g_A, M)` of the paper
//! (Section III-A, following Lukasiewycz et al. DATE'09):
//!
//! * [`Application`] — the bipartite application graph `g_T = (T ∪ C, E_T)`
//!   of task and message vertices, with functional (`F`) and diagnostic
//!   (`D`) task kinds,
//! * [`Architecture`] — the architecture graph `g_A = (R, E_A)` of ECUs,
//!   sensors, actuators, CAN buses and the central gateway,
//! * [`Specification`] — both graphs plus the mapping edges `M ⊆ T × R`,
//! * [`Implementation`] — a solution `x = (A, B, W)` with allocation,
//!   binding and routing, and structural validation,
//! * [`paper_case_study`] — the paper's industrial case study (45 tasks,
//!   41 messages, 4 applications, 15 ECUs, 9 sensors, 5 actuators, 3 CAN
//!   buses), rebuilt deterministically.
//!
//! # Example
//!
//! ```
//! use eea_model::paper_case_study;
//!
//! let cs = paper_case_study();
//! assert_eq!(cs.spec.application.num_tasks(), 45);
//! assert_eq!(cs.spec.application.num_messages(), 41);
//! assert_eq!(cs.ecus().len(), 15);
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

mod app;
mod arch;
mod case_study;
pub mod dot;
mod ids;
mod spec;

pub use app::{Application, DiagRole, Message, Task, TaskKind};
pub use arch::{resource, Architecture, Resource, ResourceKind};
pub use case_study::{build_case_study, paper_case_study, CaseStudy, CaseStudyConfig};
pub use ids::{MessageId, ResourceId, TaskId};
pub use spec::{Implementation, Specification, ValidateError};
