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

//! # eea-fleet — deterministic fleet-scale diagnosis campaign engine
//!
//! End-to-end simulation of the diagnosis lifecycle the paper motivates
//! but never scales: a vehicle **fleet** whose E/E-architectures carry the
//! BIST infrastructure selected by the design-space exploration, running
//! sessions in shut-off windows, streaming fail data over mirrored CAN
//! schedules, and converging on fault candidates at a central gateway.
//!
//! The pipeline (DESIGN.md §8):
//!
//! 1. [`CutModel`] — the shared circuit-under-test: golden session, per-
//!    collapsed-fault fail data and the diagnosis dictionary, all
//!    precomputed once from one [`eea_bist::SessionTable`] sweep,
//! 2. [`blueprints_from_front`] — Pareto-front implementations flattened
//!    into per-vehicle session plans with *constructed* mirror schedules
//!    (Eq. (1) transfer and upload bandwidth from
//!    [`eea_can::mirror_messages_auto`], not assumed);
//!    [`blueprints_from_front_with`] re-prices the same plans over any
//!    [`TransportConfig`] (classic mirrored CAN, CAN FD, FlexRay static
//!    slots — DESIGN.md §9),
//! 3. [`ShutoffModel`] — per-vehicle driving/parked alternation,
//! 4. [`Campaign`] — seeded fleet generation: worker threads simulate
//!    contiguous vehicle-index ranges and [`feed`](Campaign::feed) their
//!    arrivals into a gateway (DESIGN.md §10), never materializing a
//!    per-vehicle vector (peak memory O(detections + blocks)),
//! 5. [`GatewayService`] — the one aggregation path (DESIGN.md §12):
//!    vehicles upload [`VehicleArrival`]s over simulated wall-clock time
//!    through a bounded queue (typed [`FleetError::Overloaded`] shed
//!    policy), arrivals fold incrementally into an order-free block
//!    ledger, and [`GatewayService::snapshot_at`] yields a point-in-time
//!    [`GatewaySnapshot`] mid-campaign — bit-identical regardless of
//!    arrival interleaving. [`Campaign::run`] is feed-everything, then
//!    snapshot at the horizon,
//! 6. [`FleetReport`] — detection-latency distribution, per-ECU candidate
//!    rankings, campaign coverage over time; bit-identical at any thread
//!    count.
//!
//! # Example
//!
//! ```
//! use eea_fleet::{
//!     blueprints_from_front, Campaign, CampaignConfig, CutConfig, CutModel,
//! };
//!
//! # fn main() -> Result<(), eea_dse::EeaError> {
//! let cut = CutModel::build(CutConfig::default())?;
//! let case = eea_model::paper_case_study();
//! let diag = eea_dse::augment::augment(&case, &eea_bist::paper_table1()[..4])?;
//! let mut dse = eea_dse::explore::DseConfig::default();
//! dse.nsga2.population = 16;
//! dse.nsga2.evaluations = 160;
//! let front = eea_dse::explore::explore(&diag, &dse, |_, _| {}).front;
//! let blueprints = blueprints_from_front(&diag, &front)?;
//!
//! let mut cfg = CampaignConfig::default();
//! cfg.vehicles = 100;
//! cfg.threads = 1;
//! let report = Campaign::new(&cut, &blueprints, cfg)?.run();
//! assert_eq!(report.vehicles, 100);
//! # Ok(())
//! # }
//! ```

mod blueprint;
mod campaign;
mod cut;
mod error;
mod gateway;
mod report;
mod shutoff;
mod snapshot;
mod vehicle;

pub use blueprint::{
    blueprints_from_front, blueprints_from_front_with, EcuSessionPlan, VehicleBlueprint,
};
// The CUT-family axis (logic vs SRAM March test) and the in-ECU schedule
// axis are part of the campaign surface; re-exported so drivers need not
// name `eea_bist`/`eea_sched`.
pub use eea_bist::{CutFamily, MarchTest, SramConfig};
pub use eea_sched::{
    FlatBudget, PeriodicTask, SchedError, SchedPlan, SporadicTask, TaskSchedule, TaskSetConfig,
    WindowSource,
};
// The transport and channel-impairment axes are part of the blueprint
// surface; re-exported so campaign drivers need not name `eea_can`.
pub use campaign::{Arrivals, Campaign, CampaignConfig, StageTimings};
pub use cut::{CutConfig, CutModel};
pub use eea_can::{
    ChannelConfig, ChannelError, Impairment, ImpairmentKind, NoisyChannel, TransportConfig,
    TransportError, TransportKind,
};
pub use error::{FleetError, MalformedKind};
pub use gateway::{
    GatewayConfig, GatewayService, GatewaySnapshot, VehicleArrival, DEFAULT_QUEUE_CAPACITY,
};
pub use report::{
    DefectFinding, EcuReport, FamilyReport, FleetReport, LatencyStats, RankCdfPoint,
    RobustnessReport,
};
pub use shutoff::ShutoffModel;
pub use vehicle::Upload;
