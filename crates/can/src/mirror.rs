//! Non-intrusive schedule mirroring and Eq. (1) of the paper.
//!
//! When an ECU is shut off for BIST, its functional messages stop. The
//! paper reuses exactly that freed bandwidth: each test-data message `c'`
//! *mirrors* an inactive functional message `c` — same payload size, same
//! period, same relative priority — under a fresh CAN identifier so other
//! subscribers can tell them apart. Because all timing-relevant properties
//! are identical, the certified schedule (and every other message's
//! worst-case response time) is untouched.
//!
//! The time to stream `s` bytes of test data through the mirrored set is
//! Eq. (1):
//!
//! ```text
//! q(b^T) = s(b^D) / Σ_{c ∈ I} s(c)/p(c)
//! ```
//!
//! Every size in this module is a **payload size in bytes** — `s(b^D)` is
//! test-data bytes, `s(c)` is a message's data-field bytes (`0..=8`).
//! Frame-level *bit* counts (stuffing, CRC, inter-frame space) only enter
//! through [`crate::frame_bits`], which the response-time analysis uses;
//! Eq. (1) deliberately counts payload bytes because mirrored frames incur
//! the same per-frame overhead the functional frames already paid for.

use std::error::Error;
use std::fmt;

use crate::frame::{CanId, InvalidCanIdError};
use crate::message::Message;

/// Error from [`mirror_messages`] / [`mirror_messages_auto`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MirrorError {
    /// The mirrored identifier fell outside the 11-bit range.
    IdOverflow(InvalidCanIdError),
    /// A mirrored identifier collides with an existing message on the bus.
    IdCollision(CanId),
    /// The mirrored identifier crosses another message's identifier, which
    /// would change the relative arbitration priority and void the
    /// non-intrusiveness guarantee.
    PriorityOrderChanged(CanId),
    /// No free identifier exists in the priority gap of the given original
    /// identifier.
    GapExhausted(CanId),
    /// The ECU has no functional messages to mirror — no bandwidth exists
    /// for test-data transfer.
    NoMessages,
}

impl fmt::Display for MirrorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MirrorError::IdOverflow(e) => write!(f, "mirrored {e}"),
            MirrorError::IdCollision(id) => {
                write!(f, "mirrored identifier {id} collides with existing traffic")
            }
            MirrorError::PriorityOrderChanged(id) => {
                write!(
                    f,
                    "mirrored identifier {id} crosses other traffic and changes relative priority"
                )
            }
            MirrorError::GapExhausted(id) => {
                write!(f, "no free identifier in the priority gap of {id}")
            }
            MirrorError::NoMessages => {
                write!(
                    f,
                    "ECU has no functional messages whose schedule could be mirrored"
                )
            }
        }
    }
}

impl Error for MirrorError {}

impl From<InvalidCanIdError> for MirrorError {
    fn from(e: InvalidCanIdError) -> Self {
        MirrorError::IdOverflow(e)
    }
}

/// Builds the mirrored test-data messages for an ECU.
///
/// `functional` is the set `I` of the ECU's own messages (inactive during
/// the BIST session); `id_offset` is added to each identifier to produce
/// the fresh `c'` IDs — it must be chosen so that the relative priority
/// among the mirrored set and against all other bus traffic is preserved
/// (a constant offset keeps the relative order of the mirrored messages).
/// `other_traffic` is the remaining bus traffic used for collision checks.
///
/// # Errors
///
/// * [`MirrorError::NoMessages`] when `functional` is empty,
/// * [`MirrorError::IdOverflow`] when an offset ID exceeds 11 bits,
/// * [`MirrorError::IdCollision`] when an offset ID is already in use,
/// * [`MirrorError::PriorityOrderChanged`] when an offset ID crosses a
///   third-party identifier (the non-intrusiveness guarantee would break:
///   that message's interference set changes).
pub fn mirror_messages(
    functional: &[Message],
    id_offset: u16,
    other_traffic: &[Message],
) -> Result<Vec<Message>, MirrorError> {
    if functional.is_empty() {
        return Err(MirrorError::NoMessages);
    }
    let mut mirrored = Vec::with_capacity(functional.len());
    for m in functional {
        let new_id = CanId::new(m.id().value() + id_offset)?;
        if other_traffic.iter().any(|o| o.id() == new_id)
            || functional.iter().any(|o| o.id() == new_id)
        {
            return Err(MirrorError::IdCollision(new_id));
        }
        // Relative priority against every third-party message must be
        // preserved: no other identifier may lie between the original and
        // the mirror.
        for o in other_traffic {
            if (o.id() < m.id()) != (o.id() < new_id) {
                return Err(MirrorError::PriorityOrderChanged(new_id));
            }
        }
        mirrored.push(m.with_id(new_id));
    }
    Ok(mirrored)
}

/// Like [`mirror_messages`] but chooses the mirrored identifiers
/// automatically: each mirror gets the smallest free identifier above its
/// original that stays inside the original's *priority gap* (no
/// third-party identifier between original and mirror), so relative
/// priority is preserved by construction.
///
/// # Errors
///
/// * [`MirrorError::NoMessages`] when `functional` is empty,
/// * [`MirrorError::GapExhausted`] when a priority gap holds no free
///   identifier.
pub fn mirror_messages_auto(
    functional: &[Message],
    other_traffic: &[Message],
) -> Result<Vec<Message>, MirrorError> {
    if functional.is_empty() {
        return Err(MirrorError::NoMessages);
    }
    let mut used: std::collections::BTreeSet<u16> = other_traffic
        .iter()
        .chain(functional)
        .map(|m| m.id().value())
        .collect();
    // Assign in increasing original-id order so the mirrored set keeps its
    // internal order too.
    let mut order: Vec<usize> = (0..functional.len()).collect();
    order.sort_by_key(|&i| functional[i].id());
    let mut mirrored: Vec<Option<Message>> = vec![None; functional.len()];
    for idx in order {
        let m = &functional[idx];
        let orig = m.id().value();
        // Upper bound: the next third-party identifier above the original.
        let upper = other_traffic
            .iter()
            .map(|o| o.id().value())
            .filter(|&v| v > orig)
            .min()
            .unwrap_or(CanId::MAX + 1);
        let candidate = (orig + 1..upper).find(|v| !used.contains(v));
        match candidate {
            Some(v) => {
                used.insert(v);
                // `v < upper <= CanId::MAX + 1`, so the id is always legal;
                // `?` keeps the path typed instead of unwrapping.
                mirrored[idx] = Some(m.with_id(CanId::new(v)?));
            }
            None => return Err(MirrorError::GapExhausted(m.id())),
        }
    }
    // Every index of `order` was assigned above, so flattening drops
    // nothing.
    let assigned: Vec<Message> = mirrored.into_iter().flatten().collect();
    debug_assert_eq!(assigned.len(), functional.len());
    Ok(assigned)
}

/// Eq. (1): transfer time (seconds) of `data_bytes` **bytes** of test data
/// over the mirrored messages `functional` of the ECU under test. The
/// denominator sums each message's payload bandwidth in bytes/s (payload
/// bytes per period) — not frame bits; see the module docs and
/// [`crate::frame_bits`] for the bit-level view.
///
/// # Errors
///
/// Returns [`MirrorError::NoMessages`] when the set is empty or carries no
/// payload bandwidth (all payloads zero) — previously this silently
/// produced `inf`/`NaN`, which poisoned every downstream objective that
/// consumed it.
pub fn transfer_time_s(data_bytes: u64, functional: &[Message]) -> Result<f64, MirrorError> {
    let bandwidth: f64 = functional
        .iter()
        .map(Message::payload_bandwidth_bytes_per_s)
        .sum();
    if bandwidth <= 0.0 {
        Err(MirrorError::NoMessages)
    } else {
        Ok(data_bytes as f64 / bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusSim;
    use crate::frame::BUS_BITRATE_BPS;

    fn id(v: u16) -> CanId {
        CanId::new(v).expect("valid id")
    }

    fn msg(idv: u16, payload: u8, period: u64) -> Message {
        Message::new(id(idv), payload, period).unwrap()
    }

    #[test]
    fn eq1_example() {
        // 2 MiB over (4B @ 10ms + 8B @ 20ms) = 400 + 400 = 800 B/s.
        let funcs = [msg(0x100, 4, 10_000), msg(0x101, 8, 20_000)];
        let q = transfer_time_s(1600, &funcs).unwrap();
        assert!((q - 2.0).abs() < 1e-9);
    }

    #[test]
    fn eq1_monotone_in_size() {
        let funcs = [msg(0x100, 8, 10_000)];
        assert!(transfer_time_s(2000, &funcs).unwrap() > transfer_time_s(1000, &funcs).unwrap());
    }

    #[test]
    fn eq1_no_bandwidth_is_typed_error() {
        // Regression: an empty or all-zero-payload set used to yield `inf`
        // — both now surface as a typed error.
        assert_eq!(transfer_time_s(100, &[]), Err(MirrorError::NoMessages));
        let zero_payload = [msg(0x100, 0, 10_000), msg(0x101, 0, 5_000)];
        assert_eq!(
            transfer_time_s(100, &zero_payload),
            Err(MirrorError::NoMessages)
        );
        // Zero data over real bandwidth is a legitimate zero-time transfer.
        let funcs = [msg(0x100, 4, 10_000)];
        assert_eq!(transfer_time_s(0, &funcs), Ok(0.0));
    }

    #[test]
    fn mirror_preserves_timing_and_renames() {
        let funcs = [msg(0x100, 4, 10_000), msg(0x108, 8, 20_000)];
        let other = [msg(0x050, 8, 5_000)];
        let mirrored = mirror_messages(&funcs, 0x400, &other).unwrap();
        assert_eq!(mirrored.len(), 2);
        for (m, m2) in funcs.iter().zip(&mirrored) {
            assert_eq!(m2.payload(), m.payload());
            assert_eq!(m2.period_us(), m.period_us());
            assert_eq!(m2.id().value(), m.id().value() + 0x400);
        }
        // Relative order within the mirrored set is preserved.
        assert!(mirrored[0].id().beats(mirrored[1].id()));
    }

    #[test]
    fn mirror_detects_collision() {
        let funcs = [msg(0x100, 4, 10_000)];
        let other = [msg(0x500, 8, 5_000)];
        assert_eq!(
            mirror_messages(&funcs, 0x400, &other),
            Err(MirrorError::IdCollision(id(0x500)))
        );
    }

    #[test]
    fn mirror_rejects_priority_crossing() {
        // Offsetting 0x100 by 0x100 crosses the third-party id 0x150.
        let funcs = [msg(0x100, 4, 10_000)];
        let other = [msg(0x150, 8, 5_000)];
        assert_eq!(
            mirror_messages(&funcs, 0x100, &other),
            Err(MirrorError::PriorityOrderChanged(id(0x200)))
        );
    }

    #[test]
    fn auto_mirror_stays_in_gap() {
        let funcs = [msg(0x100, 4, 10_000), msg(0x108, 8, 20_000)];
        let other = [msg(0x050, 8, 5_000), msg(0x150, 6, 10_000)];
        let mirrored = mirror_messages_auto(&funcs, &other).unwrap();
        for (m, m2) in funcs.iter().zip(&mirrored) {
            assert_eq!(m2.payload(), m.payload());
            assert_eq!(m2.period_us(), m.period_us());
            // Every third-party message keeps its relative order.
            for o in &other {
                assert_eq!(o.id() < m.id(), o.id() < m2.id());
            }
        }
        // Internal order preserved.
        assert!(mirrored[0].id().beats(mirrored[1].id()));
    }

    #[test]
    fn auto_mirror_gap_exhausted() {
        // 0x000's gap towards 0x001 is empty.
        let funcs = [msg(0x000, 4, 10_000)];
        let other = [msg(0x001, 8, 5_000)];
        assert_eq!(
            mirror_messages_auto(&funcs, &other),
            Err(MirrorError::GapExhausted(id(0x000)))
        );
    }

    #[test]
    fn auto_mirror_dense_functional_block() {
        // Adjacent functional ids share the tail of the gap.
        let funcs = [
            msg(0x100, 1, 10_000),
            msg(0x101, 2, 10_000),
            msg(0x102, 3, 10_000),
        ];
        let mirrored = mirror_messages_auto(&funcs, &[]).unwrap();
        let ids: Vec<u16> = mirrored.iter().map(|m| m.id().value()).collect();
        assert_eq!(ids, vec![0x103, 0x104, 0x105]);
    }

    #[test]
    fn mirror_detects_overflow_and_empty() {
        let funcs = [msg(0x700, 4, 10_000)];
        assert!(matches!(
            mirror_messages(&funcs, 0x200, &[]),
            Err(MirrorError::IdOverflow(_))
        ));
        assert_eq!(mirror_messages(&[], 1, &[]), Err(MirrorError::NoMessages));
    }

    /// The paper's core claim, demonstrated end to end: replacing an ECU's
    /// functional messages with their mirrors leaves every *other*
    /// message's observed worst-case latency unchanged.
    #[test]
    fn mirroring_is_non_intrusive() {
        // ECU A (under test) sends 0x100/0x108; ECUs B/C send the rest.
        let ecu_a = [msg(0x100, 4, 10_000), msg(0x108, 8, 20_000)];
        let others = [
            msg(0x050, 8, 5_000),
            msg(0x150, 6, 10_000),
            msg(0x300, 8, 50_000),
        ];
        let sim = BusSim::new(BUS_BITRATE_BPS).expect("positive bitrate");
        let horizon = 2_000_000;

        // Baseline: functional schedule.
        let mut baseline: Vec<Message> = others.to_vec();
        baseline.extend_from_slice(&ecu_a);
        let base = sim.run(&baseline, horizon).expect("unique ids");

        // Test session: ECU A inactive, mirrored messages take its place.
        let mirrored = mirror_messages(&ecu_a, 0x20, &others).unwrap();
        let mut test_sched: Vec<Message> = others.to_vec();
        test_sched.extend_from_slice(&mirrored);
        let test = sim.run(&test_sched, horizon).expect("unique ids");

        for o in &others {
            let b = base.by_id(o.id()).unwrap();
            let t = test.by_id(o.id()).unwrap();
            assert_eq!(
                b.max_response_us,
                t.max_response_us,
                "latency of {} changed under mirroring",
                o.id()
            );
            assert_eq!(b.frames, t.frames);
        }
    }
}
