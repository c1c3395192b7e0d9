//! Fuzz harness for the CAN layer on *degenerate* message sets: empty
//! schedules, overloaded buses, exhausted priority gaps, and extreme data
//! volumes. `mirror_messages`, `response_time` and `transfer_time_s` must
//! return typed errors — never panic, overflow or diverge (see DESIGN.md,
//! "Error taxonomy").

use eea_can::{
    analyze, mirror_messages, mirror_messages_auto, response_time, transfer_time_s, CanId, Message,
    MirrorError, BUS_BITRATE_BPS,
};
use proptest::prelude::*;

fn msg(id: u16, payload: u8, period_us: u64) -> Message {
    Message::new(CanId::new(id).expect("valid id"), payload, period_us).expect("valid message")
}

/// Arbitrary (possibly empty, possibly overloaded) schedules: tiny periods
/// drive utilisation far past 1.0 and ids may sit directly adjacent so
/// mirroring gaps are exhausted.
fn degenerate_schedule() -> impl Strategy<Value = Vec<Message>> {
    proptest::collection::vec((0u16..0x7F8, 1u8..=8, 0usize..6), 0..10).prop_map(|raw| {
        // Includes sub-frame-time periods: a single 8-byte frame at 1 Mbit/s
        // lasts ~130 us, so a 100 us period is an overload on its own.
        let periods = [100u64, 500, 1_000, 10_000, 100_000, u64::MAX];
        let mut used = std::collections::BTreeSet::new();
        raw.into_iter()
            .filter_map(|(id, payload, pi)| {
                let mut id = id;
                while used.contains(&id) {
                    id = (id + 1) % 0x7F8;
                }
                used.insert(id);
                Message::new(CanId::new(id).ok()?, payload, periods[pi]).ok()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Eq. (1) on arbitrary data volumes and schedules: a typed error for
    /// the empty set, a finite positive time otherwise — even at
    /// `u64::MAX` bytes (which must saturate through `f64`, not wrap).
    #[test]
    fn transfer_time_total_on_degenerate_sets(
        sched in degenerate_schedule(),
        bytes in any::<u64>(),
    ) {
        match transfer_time_s(bytes, &sched) {
            Err(MirrorError::NoMessages) => prop_assert!(sched.is_empty()),
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
            Ok(t) => {
                prop_assert!(!sched.is_empty());
                prop_assert!(t >= 0.0 && !t.is_nan(), "Eq. (1) produced {t}");
            }
        }
        let _ = transfer_time_s(u64::MAX, &sched);
        let _ = transfer_time_s(0, &sched);
    }

    /// RTA terminates with `Ok` or a typed error on every schedule,
    /// including overloads (utilisation > 1) and `u64::MAX` periods; it
    /// must neither panic nor spin.
    #[test]
    fn rta_total_on_degenerate_sets(sched in degenerate_schedule()) {
        for m in &sched {
            let r = response_time(m, &sched, BUS_BITRATE_BPS);
            if let Ok(bound) = r {
                prop_assert!(
                    bound <= m.period_us(),
                    "{}: bound {bound} exceeds period {}",
                    m.id(),
                    m.period_us()
                );
            }
        }
        // The batch form agrees with the per-message form.
        for r in analyze(&sched, BUS_BITRATE_BPS) {
            let m = sched.iter().find(|m| m.id() == r.id).expect("analyzed message");
            prop_assert_eq!(r.response_us, response_time(m, &sched, BUS_BITRATE_BPS));
        }
    }

    /// Mirroring is total: every (schedule, offset) pair yields mirrors or
    /// a typed error, and successful mirrors preserve count, payloads and
    /// periods.
    #[test]
    fn mirroring_total_on_degenerate_sets(
        sched in degenerate_schedule(),
        split in 0usize..10,
        offset in 0u16..0x900,
    ) {
        let split = split.min(sched.len());
        let (under_test, others) = sched.split_at(split);
        for (f, o) in [(under_test, others), (others, under_test), (&sched[..], &[][..])] {
            match mirror_messages(f, offset, o) {
                Err(MirrorError::NoMessages) => prop_assert!(f.is_empty()),
                Err(_) => {}
                Ok(mirrored) => {
                    prop_assert_eq!(mirrored.len(), f.len());
                    for (m, orig) in mirrored.iter().zip(f) {
                        prop_assert_eq!(m.payload(), orig.payload());
                        prop_assert_eq!(m.period_us(), orig.period_us());
                    }
                }
            }
            let _ = mirror_messages_auto(f, o);
        }
    }
}

/// Hand-picked degenerate corners that random generation may miss.
#[test]
fn degenerate_corners_return_typed_errors() {
    // Empty everything.
    assert_eq!(transfer_time_s(1, &[]), Err(MirrorError::NoMessages));
    assert_eq!(mirror_messages(&[], 8, &[]), Err(MirrorError::NoMessages));
    assert!(mirror_messages_auto(&[], &[]).is_err());

    // Offset pushes the mirror past the 11-bit identifier space.
    let high = msg(0x7F0, 8, 10_000);
    assert!(matches!(
        mirror_messages(&[high], 0x100, &[]),
        Err(MirrorError::IdOverflow(_))
    ));

    // Zero offset: the mirror collides with its own original.
    assert!(matches!(
        mirror_messages(&[high], 0, &[]),
        Err(MirrorError::IdCollision(_))
    ));

    // Adjacent third-party id exhausts the priority gap for auto-mirroring.
    let gap_free = [msg(0x100, 8, 10_000)];
    let blocker = [msg(0x101, 8, 10_000)];
    assert!(matches!(
        mirror_messages_auto(&gap_free, &blocker),
        Err(MirrorError::GapExhausted(_))
    ));

    // A single message whose frame time exceeds its own period: overloaded
    // bus, typed error, no divergence.
    let overload = [msg(0x010, 8, 100)];
    assert!(response_time(&overload[0], &overload, BUS_BITRATE_BPS).is_err());

    // Maximum period: interference windows cannot overflow.
    let forever = [msg(0x020, 1, u64::MAX), msg(0x021, 8, u64::MAX)];
    for m in &forever {
        let _ = response_time(m, &forever, BUS_BITRATE_BPS);
    }
}
