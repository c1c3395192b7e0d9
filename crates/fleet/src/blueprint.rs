//! Vehicle blueprints: one per Pareto-front implementation.
//!
//! A campaign binds every vehicle to one implementation decoded from the
//! case-study exploration front. This module flattens an
//! [`ExploredImplementation`] into the quantities the shut-off scheduler
//! needs per BIST session: runtime `l(b)`, the transfer time of the
//! encoded patterns over the blueprint's **transport backend**, and the
//! upload bandwidth available for fail data on the same path.
//!
//! For the CAN-based transports the backend is built over the ECU's
//! **actually mirrored** schedule (not just the bandwidth formula — the
//! mirror identifiers are assigned via [`eea_can::mirror_messages_auto`],
//! so a blueprint only claims an upload path the certified schedule really
//! admits); CAN FD additionally upgrades the mirrored payloads. FlexRay
//! skips mirroring entirely — its static slots are non-intrusive by
//! construction — and rides an even slot assignment over the sending ECUs.

use std::collections::BTreeMap;

use eea_bist::CutFamily;
use eea_can::{
    mirror_messages_auto, CanId, ChannelConfig, Message, TransportConfig, TransportKind,
};
use eea_dse::augment::DiagSpec;
use eea_dse::explore::ExploredImplementation;
use eea_model::{ResourceId, ResourceKind};
use eea_sched::TaskSetConfig;

use crate::error::FleetError;

/// One selected BIST session of a blueprint, reduced to timeline
/// quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct EcuSessionPlan {
    /// The ECU under test.
    pub ecu: ResourceId,
    /// Selected BIST profile (Table I id).
    pub profile_id: u32,
    /// Stuck-at coverage `c(b)` of the profile.
    pub coverage: f64,
    /// Session runtime `l(b)` in seconds.
    pub session_s: f64,
    /// Transfer time of the encoded patterns over the blueprint's
    /// transport (Eq. (1) for mirrored CAN, its analogues for FD/FlexRay);
    /// `0` for ECU-local storage, `+inf` when the transport grants the ECU
    /// no bandwidth (no mirrorable message, no static slot).
    pub transfer_s: f64,
    /// Whether the encoded patterns live in ECU-local memory.
    pub local_storage: bool,
    /// Aggregate payload bandwidth (bytes/s) the transport grants the ECU
    /// — the fail-data upload path; `0` when no path exists.
    pub upload_bandwidth_bytes_per_s: f64,
    /// The CUT family this session tests: the scan-based logic BIST or
    /// the March-test memory BIST. Defect seeding draws the fault from
    /// the matching family's model.
    pub family: CutFamily,
}

impl EcuSessionPlan {
    /// Whether the session can run at all: its pattern source is
    /// reachable in finite time.
    pub fn is_runnable(&self) -> bool {
        self.transfer_s.is_finite() && self.session_s.is_finite()
    }

    /// Whether a defect seeded on this ECU could ever reach the gateway:
    /// the session runs *and* fail data has an upload path.
    pub fn is_diagnosable(&self) -> bool {
        self.is_runnable() && self.upload_bandwidth_bytes_per_s > 0.0
    }

    /// Seconds to upload `bytes` of fail data over the mirrored schedule;
    /// `+inf` without an upload path.
    pub fn upload_s(&self, bytes: u64) -> f64 {
        if self.upload_bandwidth_bytes_per_s > 0.0 {
            bytes as f64 / self.upload_bandwidth_bytes_per_s
        } else {
            f64::INFINITY
        }
    }
}

/// Everything a vehicle inherits from its Pareto-front implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleBlueprint {
    /// Index into the exploration front this blueprint was decoded from.
    pub implementation_index: usize,
    /// Selected BIST sessions, in deterministic option order.
    pub sessions: Vec<EcuSessionPlan>,
    /// The implementation's Eq. (5) shut-off time objective: the awake
    /// budget a single shut-off event may spend on BIST.
    pub shutoff_budget_s: f64,
    /// The transport backend the session transfers and fail-data uploads
    /// of this blueprint ride.
    pub transport: TransportKind,
    /// The in-ECU cyclic task set of this blueprint's ECUs, when the
    /// campaign derives shut-off windows from the schedule's idle
    /// intervals instead of the flat budget. `None` keeps the flat-budget
    /// window source (bit-for-bit the historical path).
    pub task_set: Option<TaskSetConfig>,
    /// The channel-impairment model the blueprint's transfers and
    /// fail-data uploads ride: [`ChannelConfig::Clean`] is the
    /// pass-through identity (bit-for-bit the historical path), a noisy
    /// channel injects deterministic retransmissions and payload
    /// impairment (DESIGN.md §14).
    pub channel: ChannelConfig,
}

impl VehicleBlueprint {
    /// Whether any session could deliver fail data to the gateway — the
    /// precondition for seeding a defect on a vehicle of this blueprint.
    pub fn is_campaign_capable(&self) -> bool {
        self.sessions.iter().any(EcuSessionPlan::is_diagnosable)
    }

    /// Indices (into `sessions`) of the diagnosable plans.
    pub fn diagnosable_plans(&self) -> Vec<usize> {
        self.sessions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_diagnosable())
            .map(|(i, _)| i)
            .collect()
    }

    /// Total sequential work (seconds) of all runnable sessions, without
    /// fail-data uploads.
    pub fn total_work_s(&self) -> f64 {
        self.sessions
            .iter()
            .filter(|p| p.is_runnable())
            .map(|p| p.transfer_s + p.session_s)
            .sum()
    }
}

/// Flattens an exploration front into vehicle blueprints over the paper's
/// baseline transport, classic-CAN mirroring — equivalent to
/// [`blueprints_from_front_with`] with [`TransportConfig::MirroredCan`]
/// (bit for bit: the trait's bandwidth sums run in the same order as the
/// historical free-function path).
///
/// # Errors
///
/// The same errors as [`blueprints_from_front_with`].
pub fn blueprints_from_front(
    diag: &DiagSpec,
    front: &[ExploredImplementation],
) -> Result<Vec<VehicleBlueprint>, FleetError> {
    blueprints_from_front_with(diag, front, &TransportConfig::MirroredCan)
}

/// Flattens an exploration front into vehicle blueprints whose transfers
/// and fail-data uploads ride `transport`.
///
/// Functional CAN identifiers are assigned deterministically with a
/// spacing of 8, leaving each message a priority gap its mirror identifier
/// is drawn from — the same discipline as Fig. 4 of the paper, but here
/// the mirror set is *constructed*, not assumed, so blueprints only claim
/// upload bandwidth a real mirrored schedule provides. CAN FD blueprints
/// reuse the constructed mirror identifiers and upgrade the mirrored
/// payloads; FlexRay blueprints skip mirroring (TDMA slots are exclusive —
/// non-intrusive by construction) and ride an even static-slot assignment
/// over the sending ECUs. Every session tests the logic CUT family, and
/// every blueprint keeps the flat shut-off budget and a clean channel;
/// campaigns over other settings overwrite those fields.
///
/// # Errors
///
/// * [`FleetError::NoDiagnosableBlueprint`] when `front` is empty,
/// * [`FleetError::Transport`] when the transport configuration is
///   degenerate ([`TransportConfig::validate`]) or a backend cannot be
///   built over a blueprint's message sets,
/// * [`FleetError::Mirror`] when identifier assignment overflows the
///   11-bit space (a specification with more than ~250 bound functional
///   messages).
pub fn blueprints_from_front_with(
    diag: &DiagSpec,
    front: &[ExploredImplementation],
    transport: &TransportConfig,
) -> Result<Vec<VehicleBlueprint>, FleetError> {
    if front.is_empty() {
        return Err(FleetError::NoDiagnosableBlueprint);
    }
    transport.validate()?;
    let spec = &diag.spec;
    let arch = &spec.architecture;
    let app = &spec.application;

    let mut blueprints = Vec::with_capacity(front.len());
    for (idx, ei) in front.iter().enumerate() {
        let x = &ei.implementation;

        // Functional messages per sending ECU, ids spaced by 8 in global
        // binding order (deterministic for a given implementation).
        let mut sent_by: BTreeMap<ResourceId, Vec<Message>> = BTreeMap::new();
        let mut next_id: u16 = 8;
        for m in app.message_ids() {
            let msg = app.message(m);
            if app.task(msg.sender).kind.is_diagnostic() {
                continue;
            }
            let Some(src) = x.binding_of(msg.sender) else {
                continue;
            };
            if arch.resource(src).kind != ResourceKind::Ecu {
                continue;
            }
            let payload = msg.size_bytes.min(8) as u8;
            let id = CanId::new(next_id)
                .map_err(|e| FleetError::Mirror(eea_can::MirrorError::IdOverflow(e)))?;
            let Ok(message) = Message::new(id, payload, msg.period_us) else {
                continue;
            };
            next_id += 8;
            sent_by.entry(src).or_default().push(message);
        }
        // The transport backend's node map. For the CAN transports every
        // node carries its *constructed mirrored* schedule (identifiers
        // really assigned, priority gaps respected); FlexRay needs only
        // the node keys — slots are assigned evenly in ascending node
        // order, and no mirror is required because TDMA slots are
        // exclusive by construction.
        let nodes: BTreeMap<u32, Vec<Message>> = match transport.kind() {
            TransportKind::MirroredCan | TransportKind::CanFd => {
                let all: Vec<Message> = sent_by.values().flatten().cloned().collect();
                let mut mirrored_of: BTreeMap<u32, Vec<Message>> = BTreeMap::new();
                for (&ecu, msgs) in &sent_by {
                    let other: Vec<Message> = all
                        .iter()
                        .filter(|m| !msgs.iter().any(|own| own.id() == m.id()))
                        .cloned()
                        .collect();
                    match mirror_messages_auto(msgs, &other) {
                        Ok(mirror) => {
                            mirrored_of.insert(ecu.index() as u32, mirror);
                        }
                        Err(eea_can::MirrorError::NoMessages) => {}
                        Err(e) => return Err(FleetError::Mirror(e)),
                    }
                }
                mirrored_of
            }
            TransportKind::FlexRay => sent_by
                .iter()
                .map(|(&ecu, msgs)| (ecu.index() as u32, msgs.clone()))
                .collect(),
        };
        let backend = transport.build(nodes)?;

        let mut sessions = Vec::new();
        for o in &diag.options {
            if x.binding_of(o.test).is_none() {
                continue;
            }
            let Some(data_at) = x.binding_of(o.data) else {
                continue;
            };
            let local = data_at == o.ecu;
            let node = o.ecu.index() as u32;
            let bandwidth = backend.bandwidth_bytes_per_s(node);
            let transfer = if local {
                0.0
            } else {
                backend
                    .transfer_time_s(node, o.profile.data_bytes)
                    .unwrap_or(f64::INFINITY)
            };
            sessions.push(EcuSessionPlan {
                ecu: o.ecu,
                profile_id: o.profile.id,
                coverage: o.profile.coverage,
                session_s: o.profile.runtime_ms / 1e3,
                transfer_s: transfer,
                local_storage: local,
                upload_bandwidth_bytes_per_s: bandwidth,
                family: CutFamily::Logic,
            });
        }

        blueprints.push(VehicleBlueprint {
            implementation_index: idx,
            sessions,
            shutoff_budget_s: ei.objectives.shutoff_s,
            transport: transport.kind(),
            task_set: None,
            channel: ChannelConfig::Clean,
        });
    }
    Ok(blueprints)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_front_is_rejected() {
        let case = eea_model::paper_case_study();
        let diag = eea_dse::augment::augment(&case, &eea_bist::paper_table1()[..2])
            .expect("case study has a gateway");
        assert_eq!(
            blueprints_from_front(&diag, &[]),
            Err(FleetError::NoDiagnosableBlueprint)
        );
    }

    #[test]
    fn front_blueprints_carry_upload_paths() {
        let case = eea_model::paper_case_study();
        let diag = eea_dse::augment::augment(&case, &eea_bist::paper_table1()[..4])
            .expect("case study has a gateway");
        let mut cfg = eea_dse::explore::DseConfig::default();
        cfg.nsga2.population = 16;
        cfg.nsga2.evaluations = 160;
        let result = eea_dse::explore::explore(&diag, &cfg, |_, _| {});
        let blueprints = blueprints_from_front(&diag, &result.front).expect("front flattens");
        assert_eq!(blueprints.len(), result.front.len());
        assert!(blueprints.iter().all(|b| b.channel.is_clean()));
        // At least one implementation of any non-trivial front selects a
        // session whose fail data can reach the gateway.
        assert!(blueprints.iter().any(VehicleBlueprint::is_campaign_capable));
        for b in &blueprints {
            for p in &b.sessions {
                assert!(p.session_s > 0.0);
                if p.local_storage {
                    assert_eq!(p.transfer_s, 0.0);
                }
                if p.is_diagnosable() {
                    assert!(p.upload_s(128).is_finite());
                }
            }
        }
    }
}
