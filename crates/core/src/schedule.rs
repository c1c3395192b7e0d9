//! Derivation and verification of the per-bus CAN schedules implied by an
//! implementation.
//!
//! The paper assumes that a *certified* bus schedule exists for the
//! functional messages and shows how to add test traffic without touching
//! it. This module closes the loop inside the reproduction: from a decoded
//! implementation it derives the concrete CAN message set of every bus
//! (rate-monotonic identifier assignment) and verifies schedulability with
//! the worst-case response-time analysis of [`eea_can`]. An implementation
//! whose functional schedule would not certify is not a valid baseline for
//! the non-intrusive argument.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use eea_can::{analyze, CanId, Message as CanMessage};
use eea_model::{Implementation, MessageId, ResourceId, ResourceKind};

use crate::augment::DiagSpec;

/// The derived schedule of one CAN bus.
#[derive(Debug, Clone)]
pub struct BusSchedule {
    /// The bus resource.
    pub bus: ResourceId,
    /// Application message → assigned CAN message (rate-monotonic IDs).
    pub messages: Vec<(MessageId, CanMessage)>,
}

impl BusSchedule {
    /// Total bus utilisation of the schedule at `bitrate_bps`.
    pub fn utilization(&self, bitrate_bps: u64) -> f64 {
        self.messages
            .iter()
            .map(|(_, m)| m.utilization(bitrate_bps))
            .sum()
    }
}

/// Error from [`check_schedulability`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A message on the given bus misses its implicit deadline (= period).
    Unschedulable {
        /// The bus.
        bus: ResourceId,
        /// The offending application message.
        message: MessageId,
    },
    /// More messages on one bus than 11-bit identifiers.
    IdSpaceExhausted(ResourceId),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Unschedulable { bus, message } => {
                write!(f, "message {message} is unschedulable on bus {bus}")
            }
            ScheduleError::IdSpaceExhausted(bus) => {
                write!(f, "bus {bus} needs more than 2048 identifiers")
            }
        }
    }
}

impl Error for ScheduleError {}

/// Derives the functional CAN schedule of every bus used by `x`.
///
/// Each *functional* message whose route crosses a bus contributes one
/// periodic CAN message to that bus (the first bus on its route; in the
/// tree-shaped case-study topology a route crosses each bus at most once
/// per segment). Identifiers are assigned rate-monotonically: shorter
/// periods get higher priority (smaller IDs), ties broken by message
/// index — a deterministic stand-in for the OEM's ID assignment.
pub fn derive_bus_schedules(diag: &DiagSpec, x: &Implementation) -> Vec<BusSchedule> {
    let spec = &diag.spec;
    let app = &spec.application;
    let arch = &spec.architecture;
    let mut per_bus: BTreeMap<ResourceId, Vec<MessageId>> = BTreeMap::new();
    for m in app.message_ids() {
        if app.task(app.message(m).sender).kind.is_diagnostic() {
            continue;
        }
        let Some(route) = x.routing.get(&m) else {
            continue;
        };
        for &r in route {
            if arch.resource(r).kind == ResourceKind::CanBus {
                per_bus.entry(r).or_default().push(m);
            }
        }
    }
    per_bus
        .into_iter()
        .map(|(bus, mut ids)| {
            // Rate-monotonic priority order.
            ids.sort_by_key(|&m| (app.message(m).period_us, m));
            let messages = ids
                .into_iter()
                .enumerate()
                .filter_map(|(i, m)| {
                    let msg = app.message(m);
                    // The clamp keeps the identifier in range (an
                    // overfull bus is reported by check_schedulability as
                    // IdSpaceExhausted); a zero-period message — an
                    // invalid specification — is dropped, not panicked on.
                    let raw = (0x100usize + i).min(usize::from(CanId::MAX)) as u16;
                    let id = CanId::new(raw).ok()?;
                    let can =
                        CanMessage::new(id, msg.size_bytes.min(8) as u8, msg.period_us).ok()?;
                    Some((m, can))
                })
                .collect();
            BusSchedule { bus, messages }
        })
        .collect()
}

/// Derives and verifies the functional schedules of all buses.
///
/// # Errors
///
/// Returns the first [`ScheduleError`] found: an unschedulable message or
/// an exhausted identifier space.
pub fn check_schedulability(
    diag: &DiagSpec,
    x: &Implementation,
    bitrate_bps: u64,
) -> Result<Vec<BusSchedule>, ScheduleError> {
    let schedules = derive_bus_schedules(diag, x);
    for sched in &schedules {
        if sched.messages.len() > usize::from(CanId::MAX) {
            return Err(ScheduleError::IdSpaceExhausted(sched.bus));
        }
        let msgs: Vec<CanMessage> = sched.messages.iter().map(|(_, m)| *m).collect();
        let results = analyze(&msgs, bitrate_bps);
        for ((mid, _), r) in sched.messages.iter().zip(&results) {
            if r.response_us.is_err() {
                return Err(ScheduleError::Unschedulable {
                    bus: sched.bus,
                    message: *mid,
                });
            }
        }
    }
    Ok(schedules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::augment;
    use crate::explore::DseProblem;
    use eea_can::BUS_BITRATE_BPS;
    use eea_model::paper_case_study;
    use eea_moea::Problem;

    fn decoded() -> (DiagSpec, Implementation) {
        let case = paper_case_study();
        let diag = augment(&case, &eea_bist::paper_table1()[..2]).expect("gateway present");
        let mut problem = DseProblem::new(&diag);
        let n = problem.genotype_len();
        let x = problem.decode(&vec![0.5; n]).expect("feasible");
        (diag, x)
    }

    #[test]
    fn case_study_schedules_certify() {
        let (diag, x) = decoded();
        let schedules = check_schedulability(&diag, &x, BUS_BITRATE_BPS).expect("schedulable");
        assert!(!schedules.is_empty());
        // Low utilisation: a handful of small periodic messages per bus.
        for s in &schedules {
            assert!(
                s.utilization(BUS_BITRATE_BPS) < 0.5,
                "bus {} at {:.0} % load",
                s.bus,
                s.utilization(BUS_BITRATE_BPS) * 100.0
            );
        }
    }

    #[test]
    fn rate_monotonic_id_order() {
        let (diag, x) = decoded();
        let schedules = derive_bus_schedules(&diag, &x);
        for s in &schedules {
            for w in s.messages.windows(2) {
                let (m0, c0) = &w[0];
                let (m1, c1) = &w[1];
                assert!(c0.id().beats(c1.id()));
                let p0 = diag.spec.application.message(*m0).period_us;
                let p1 = diag.spec.application.message(*m1).period_us;
                assert!(p0 <= p1, "rate-monotonic order violated");
            }
        }
    }

    #[test]
    fn diagnostic_messages_excluded() {
        let (diag, x) = decoded();
        let schedules = derive_bus_schedules(&diag, &x);
        for s in &schedules {
            for (mid, _) in &s.messages {
                let sender = diag.spec.application.message(*mid).sender;
                assert!(
                    !diag.spec.application.task(sender).kind.is_diagnostic(),
                    "diagnostic traffic in the certified schedule"
                );
            }
        }
    }

    #[test]
    fn local_messages_do_not_touch_buses() {
        // Messages whose sender and receiver share a resource never appear
        // in any bus schedule.
        let (diag, x) = decoded();
        let schedules = derive_bus_schedules(&diag, &x);
        let on_buses: std::collections::BTreeSet<MessageId> = schedules
            .iter()
            .flat_map(|s| s.messages.iter().map(|(m, _)| *m))
            .collect();
        for m in diag.spec.application.message_ids() {
            let msg = diag.spec.application.message(m);
            if diag.spec.application.task(msg.sender).kind.is_diagnostic() {
                continue;
            }
            let (Some(src), Some(route)) = (x.binding_of(msg.sender), x.routing.get(&m)) else {
                continue;
            };
            let all_local = msg.receivers.iter().all(|t| x.binding_of(*t) == Some(src));
            if all_local && route.len() == 1 {
                assert!(!on_buses.contains(&m), "local message {m} on a bus");
            }
        }
    }
}
