//! Deterministic in-ECU cyclic-task executive (DESIGN.md §13).
//!
//! The paper's non-intrusive premise is that BIST runs only in the
//! shut-off windows the ECU's *real* workload leaves open. This crate
//! models that workload as an IEC 61131-3-style task set — cyclic tasks
//! with period/offset/WCET/priority plus sporadic event-triggered tasks
//! with a minimum inter-arrival — and derives window availability from
//! the schedule instead of a flat per-vehicle budget:
//!
//! - [`TaskSet`] validates a [`TaskSetConfig`] (typed [`SchedError`]s for
//!   degenerate periods, overutilization, hyperperiod overflow) and
//!   simulates the fixed-priority preemptive executive into a
//!   [`ScheduleTimeline`] over an integer-microsecond clock — exact
//!   arithmetic, so the timeline is a pure function of the config.
//!   Deadline misses (implicit deadlines: a job must finish before its
//!   task's next release) surface as [`SchedError::DeadlineMiss`].
//! - [`IdleTable`] folds the timeline's steady-state hyperperiod into a
//!   cyclic busy/idle segment table that per-vehicle simulation can walk
//!   allocation-free.
//! - [`WindowSource`] abstracts where `(gap, window)` pairs come from:
//!   [`FlatBudget`] reproduces the historical `ShutoffModel` draw stream
//!   bit-for-bit (the frozen fleet digests pin this), and
//!   [`TaskSchedule`] carves each flat macro window into the idle
//!   intervals the task set leaves open, stealing time for sporadic
//!   arrivals drawn from the same per-vehicle SplitMix64 stream.

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

mod task;
mod timeline;
mod window;

pub use task::{PeriodicTask, SchedError, SporadicTask, TaskSet, TaskSetConfig};
pub use timeline::{IdleTable, ScheduleTimeline, TimelineSlice};
pub use window::{FlatBudget, SchedPlan, TaskSchedule, WindowSource};
