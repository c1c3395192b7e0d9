//! The three design objectives of Section III-D.
//!
//! * **Monetary cost** — allocated hardware plus permanent memory for the
//!   encoded test data. Gateway-stored pattern sets are shared: since every
//!   ECU of the case study carries the same CUT, two ECUs selecting the
//!   same profile reuse one gateway copy (the paper: "the same encoded
//!   patterns can be used for different ECUs").
//! * **Test quality** (Eq. 4) — average stuck-at coverage of the selected
//!   BIST sessions over all allocated ECUs; ECUs without a session
//!   contribute zero coverage.
//! * **Shut-off time** (Eq. 5) — the maximum extra awake time any ECU needs
//!   to finish its session: the session runtime `l(b)`, plus the Eq. (1)
//!   transfer time `q(b^D)` when the patterns are stored remotely and must
//!   be streamed over the mirrored CAN schedule first.

use std::collections::BTreeMap;

use eea_can::{CanId, Message, TransportConfig};
use eea_model::{DiagRole, Implementation, ResourceId, ResourceKind, TaskKind};

use crate::augment::DiagSpec;

/// Shut-off times are clamped here (seconds) when an ECU has no payload
/// bandwidth on the selected transport (no functional message whose
/// schedule could be mirrored, no FlexRay slot) — the transport layer then
/// reports [`eea_can::TransportError::NoBandwidth`], which this layer maps
/// to an unbounded transfer time; the clamp keeps the objective finite so
/// it cannot poison crowding-distance computations downstream.
pub const MAX_SHUTOFF_S: f64 = 86_400.0;

/// The paper's three objectives, in natural units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Monetary cost (virtual cost units; hardware + test-data memory).
    pub cost: f64,
    /// Test quality in `[0, 1]` (Eq. 4); higher is better.
    pub test_quality: f64,
    /// Shut-off time in seconds (Eq. 5); lower is better.
    pub shutoff_s: f64,
}

impl Objectives {
    /// The minimisation vector handed to the MOEA:
    /// `[cost, -quality, shutoff]`.
    pub fn to_minimized(self) -> Vec<f64> {
        vec![self.cost, -self.test_quality, self.shutoff_s]
    }

    /// Reconstructs natural-unit objectives from a minimisation vector.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not have exactly three entries.
    pub fn from_minimized(v: &[f64]) -> Self {
        assert_eq!(v.len(), 3, "objective vector has three entries");
        Objectives {
            cost: v[0],
            test_quality: -v[1],
            shutoff_s: v[2],
        }
    }
}

/// Memory-placement summary of an implementation (the Fig. 6 quantities).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemorySummary {
    /// Bytes of encoded test data stored centrally at the gateway
    /// (distinct profiles counted once).
    pub gateway_bytes: u64,
    /// Bytes stored distributed in ECU-local memory.
    pub distributed_bytes: u64,
    /// Selected sessions: `(ecu, profile id, stored locally?)`.
    pub selected: Vec<(ResourceId, u32, bool)>,
}

/// Evaluates all three objectives (plus the memory summary) of a decoded
/// implementation over the paper's baseline transport, classic-CAN
/// mirroring — equivalent to
/// [`evaluate_with_transport`] with [`TransportConfig::MirroredCan`]
/// (bit for bit: the transport's Eq. (1) arithmetic is the historical
/// free function's).
pub fn evaluate(diag: &DiagSpec, x: &Implementation) -> (Objectives, MemorySummary) {
    evaluate_with_transport(diag, x, &TransportConfig::MirroredCan)
}

/// Evaluates all three objectives of a decoded implementation with the
/// test-data transfers of Eq. (5) riding `transport` — classic-CAN
/// mirroring, CAN FD, or FlexRay static slots (see
/// [`eea_can::TransportConfig`]). Transport nodes are keyed by
/// [`ResourceId::index`].
///
/// A transport configuration that cannot be built (degenerate parameters —
/// zero bit rates, a non-finite payload multiplier; see
/// [`TransportConfig::validate`]) grants no bandwidth to any node: every
/// remote transfer is then unbounded and the shut-off objective saturates
/// at [`MAX_SHUTOFF_S`], keeping this function total for the MOEA.
/// Callers wanting a hard failure validate the configuration up front.
pub fn evaluate_with_transport(
    diag: &DiagSpec,
    x: &Implementation,
    transport: &TransportConfig,
) -> (Objectives, MemorySummary) {
    let spec = &diag.spec;
    let arch = &spec.architecture;
    let app = &spec.application;

    // ---- Monetary cost: allocated hardware.
    let mut cost: f64 = x
        .allocation
        .iter()
        .map(|&r| arch.resource(r).cost)
        .sum();

    // Functional messages sent per ECU (for Eq. (1) mirrored bandwidth).
    let mut sent_by: BTreeMap<ResourceId, Vec<Message>> = BTreeMap::new();
    let mut next_id = 0u16;
    for m in app.message_ids() {
        let msg = app.message(m);
        if app.task(msg.sender).kind.is_diagnostic() {
            continue;
        }
        // Diagnosis-infrastructure messages (c^R from the collect task
        // side) do not exist; the collect task only receives.
        let Some(src) = x.binding_of(msg.sender) else {
            continue;
        };
        if arch.resource(src).kind != ResourceKind::Ecu {
            continue;
        }
        let payload = msg.size_bytes.min(8) as u8;
        // next_id wraps below 0x7FF and the payload is clamped to 8, so
        // both constructors succeed; a zero-period functional message (an
        // invalid specification) is skipped rather than panicking.
        let Ok(id) = CanId::new(next_id) else {
            continue;
        };
        let Ok(message) = Message::new(id, payload, msg.period_us) else {
            continue;
        };
        next_id = (next_id + 1) % 0x7FF;
        sent_by.entry(src).or_default().push(message);
    }

    // The transport's bandwidth table for this implementation: nodes keyed
    // by resource index, message sets in the construction order above (the
    // classic-CAN bandwidth sums are then bit-identical to the historical
    // free-function path).
    let backend = transport
        .build(
            sent_by
                .into_iter()
                .map(|(r, msgs)| (r.index() as u32, msgs))
                .collect(),
        )
        .ok();

    // ---- Selected BIST sessions.
    let mut memory = MemorySummary::default();
    let mut quality_sum = 0.0;
    let mut shutoff: f64 = 0.0;
    let mut gateway_profiles: BTreeMap<u32, u64> = BTreeMap::new();
    for o in &diag.options {
        if x.binding_of(o.test).is_none() {
            continue;
        }
        // Eq. (3b) couples the data task's binding to the test task's, so
        // a decoded implementation always binds both; a hand-built one
        // that does not is treated as "no session" rather than a panic.
        let Some(data_at) = x.binding_of(o.data) else {
            continue;
        };
        let local = data_at == o.ecu;
        memory
            .selected
            .push((o.ecu, o.profile.id, local));
        quality_sum += o.profile.coverage;

        let l_s = o.profile.runtime_ms / 1e3;
        let session_time = if local {
            memory.distributed_bytes += o.profile.data_bytes;
            cost += o.profile.data_bytes as f64 * arch.resource(o.ecu).memory_cost_per_byte;
            l_s
        } else {
            gateway_profiles
                .entry(o.profile.id)
                .or_insert(o.profile.data_bytes);
            // The transport returns a typed error when the ECU has no
            // payload bandwidth (no mirrored message, no static slot);
            // such an ECU can never finish the transfer, so its shut-off
            // time is unbounded (clamped to MAX_SHUTOFF_S below).
            let q = backend
                .as_ref()
                .and_then(|t| {
                    t.transfer_time_s(o.ecu.index() as u32, o.profile.data_bytes)
                        .ok()
                })
                .unwrap_or(f64::INFINITY);
            l_s + q
        };
        shutoff = shutoff.max(session_time.min(MAX_SHUTOFF_S));
    }
    for (&_profile, &bytes) in &gateway_profiles {
        memory.gateway_bytes += bytes;
        cost += bytes as f64 * arch.resource(diag.gateway).memory_cost_per_byte;
    }

    // ---- Test quality (Eq. 4): average over allocated ECUs.
    let allocated_ecus = arch
        .of_kind(ResourceKind::Ecu)
        .filter(|&r| x.tasks_on(r).next().is_some())
        .count();
    let test_quality = if allocated_ecus == 0 {
        0.0
    } else {
        quality_sum / allocated_ecus as f64
    };

    (
        Objectives {
            cost,
            test_quality,
            shutoff_s: shutoff,
        },
        memory,
    )
}

/// Convenience check used by tests and reports: whether an implementation
/// selects any BIST session at all.
pub fn has_diagnosis(diag: &DiagSpec, x: &Implementation) -> bool {
    diag.options
        .iter()
        .any(|o| x.binding_of(o.test).is_some())
}

/// The functional-only baseline cost: allocated hardware of an
/// implementation, ignoring every diagnostic binding and memory cost.
/// Used to compute the paper's "+3.7 % of a design without structural
/// tests" headline.
pub fn functional_hardware_cost(diag: &DiagSpec, x: &Implementation) -> f64 {
    let spec = &diag.spec;
    let mut resources: std::collections::BTreeSet<ResourceId> = std::collections::BTreeSet::new();
    for (t, &r) in &x.binding {
        if !spec.application.task(*t).kind.is_diagnostic() {
            resources.insert(r);
        }
    }
    for m in spec.application.message_ids() {
        let msg = spec.application.message(m);
        if spec.application.task(msg.sender).kind.is_diagnostic()
            || matches!(
                spec.application.task(msg.sender).kind,
                TaskKind::Diagnostic(DiagRole::Test { .. })
            )
        {
            continue;
        }
        if let Some(route) = x.routing.get(&m) {
            resources.extend(route.iter().copied());
        }
    }
    resources
        .iter()
        .map(|&r| spec.architecture.resource(r).cost)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::augment;
    use crate::encode::encode;
    use eea_bist::paper_table1;
    use eea_model::paper_case_study;
    use eea_sat::SolveResult;

    fn decoded(n_profiles: usize, select_bist: bool) -> (DiagSpec, Implementation) {
        let case = paper_case_study();
        let diag = augment(&case, &paper_table1()[..n_profiles]).expect("gateway present");
        let mut enc = encode(&diag);
        for o in &diag.options {
            let (_, v) = enc.m_vars[o.test.index()][0];
            enc.solver.set_polarity(v, select_bist);
            enc.solver.set_priority(v, if select_bist { 1.0 } else { 0.0 });
        }
        assert_eq!(enc.solver.solve(), SolveResult::Sat);
        let x = enc.extract(&diag.spec);
        (diag, x)
    }

    #[test]
    fn no_diagnosis_zero_quality() {
        let (diag, x) = decoded(2, false);
        let (obj, mem) = evaluate(&diag, &x);
        // Nothing forces BIST selection with negative polarity.
        if !has_diagnosis(&diag, &x) {
            assert_eq!(obj.test_quality, 0.0);
            assert_eq!(obj.shutoff_s, 0.0);
            assert_eq!(mem.gateway_bytes + mem.distributed_bytes, 0);
        }
        assert!(obj.cost > 0.0);
    }

    #[test]
    fn diagnosis_improves_quality_and_costs_memory() {
        let (diag, x0) = decoded(2, false);
        let (o0, _) = evaluate(&diag, &x0);
        let (diag1, x1) = decoded(2, true);
        let (o1, m1) = evaluate(&diag1, &x1);
        assert!(has_diagnosis(&diag1, &x1));
        assert!(o1.test_quality > o0.test_quality);
        assert!(o1.shutoff_s > 0.0);
        assert!(m1.gateway_bytes + m1.distributed_bytes > 0);
    }

    #[test]
    fn quality_bounded_by_max_coverage() {
        let (diag, x) = decoded(4, true);
        let (obj, _) = evaluate(&diag, &x);
        let max_cov = diag
            .options
            .iter()
            .map(|o| o.profile.coverage)
            .fold(0.0, f64::max);
        assert!(obj.test_quality <= max_cov + 1e-12);
    }

    #[test]
    fn gateway_storage_is_shared() {
        // If several ECUs select the same profile with gateway storage, the
        // gateway stores one copy.
        let (diag, x) = decoded(1, true);
        let (_, mem) = evaluate(&diag, &x);
        let remote: Vec<_> = mem.selected.iter().filter(|&&(_, _, local)| !local).collect();
        if remote.len() >= 2 {
            // One distinct profile -> one gateway copy.
            assert_eq!(mem.gateway_bytes, diag.options[0].profile.data_bytes);
        }
    }

    #[test]
    fn minimized_roundtrip() {
        let o = Objectives {
            cost: 123.0,
            test_quality: 0.8,
            shutoff_s: 4.2,
        };
        let v = o.to_minimized();
        assert_eq!(v, vec![123.0, -0.8, 4.2]);
        assert_eq!(Objectives::from_minimized(&v), o);
    }

    #[test]
    fn shutoff_uses_eq1_for_remote_storage() {
        let (diag, x) = decoded(1, true);
        let (obj, mem) = evaluate(&diag, &x);
        // With profile 1 (2.4 MB) stored at the gateway for some ECU,
        // shut-off must be dominated by the transfer, i.e. much larger than
        // the 4.87 ms session runtime.
        if mem.selected.iter().any(|&(_, _, local)| !local) {
            assert!(obj.shutoff_s > 1.0, "shutoff = {}", obj.shutoff_s);
        }
    }
}
