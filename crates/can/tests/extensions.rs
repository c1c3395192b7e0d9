//! Integration coverage of the "other field bus" extension paths the
//! paper sketches in its outlook: CAN FD (mirrored-bandwidth multiplier
//! for Eq. (1)) and FlexRay (static-segment non-intrusiveness by
//! construction). The classic mirroring pipeline is the baseline both are
//! compared against.

use std::collections::BTreeMap;

use proptest::prelude::*;

use eea_can::fd::{fd_payload_round_up, FdConfig, FD_PAYLOADS};
use eea_can::flexray::{FlexRayConfig, FlexRayError, FlexRaySchedule};
use eea_can::{mirror_messages_auto, transfer_time_s, CanId, Message, TransportConfig};

/// A small ECU schedule: three functional messages with spaced ids.
fn functional() -> Vec<Message> {
    vec![
        Message::new(CanId::new(0x100).unwrap(), 8, 10_000).unwrap(),
        Message::new(CanId::new(0x180).unwrap(), 4, 20_000).unwrap(),
        Message::new(CanId::new(0x200).unwrap(), 2, 50_000).unwrap(),
    ]
}

#[test]
fn fd_upgrade_multiplies_mirrored_eq1_bandwidth() {
    let msgs = functional();
    let mirror = mirror_messages_auto(&msgs, &[]).expect("gaps are free");
    let classic_q = transfer_time_s(1 << 20, &mirror).expect("bandwidth positive");

    // Upgrading every mirrored frame to a 64-byte FD payload at the same
    // period multiplies each message's bandwidth by 64/payload; the
    // aggregate Eq. (1) bandwidth grows accordingly and the transfer time
    // shrinks by exactly that aggregate ratio.
    let fd = FdConfig::default();
    let classic_bw: f64 = mirror
        .iter()
        .map(Message::payload_bandwidth_bytes_per_s)
        .sum();
    let fd_bw: f64 = mirror
        .iter()
        .map(|m| fd.payload_bandwidth_bytes_per_s(64, m.period_us()))
        .sum();
    let fd_q = (1u64 << 20) as f64 / fd_bw;
    assert!(fd_bw > classic_bw);
    assert!(
        (classic_q / fd_q - fd_bw / classic_bw).abs() < 1e-9,
        "transfer speed-up equals the bandwidth multiplier"
    );

    // Per-message speed-up matches the Eq. (1) speed-up helper.
    for m in &mirror {
        let per_msg =
            fd.payload_bandwidth_bytes_per_s(64, m.period_us()) / m.payload_bandwidth_bytes_per_s();
        assert!((per_msg - fd.eq1_speedup(m.payload(), 64)).abs() < 1e-9);
    }
}

#[test]
fn fd_payload_rounding_covers_the_profile_fail_sizes() {
    // Fail-data records (12 bytes/entry) and classic 8-byte payloads all
    // round into valid DLC lengths; oversized payloads are typed errors.
    assert_eq!(fd_payload_round_up(12), Ok(12));
    assert_eq!(fd_payload_round_up(13), Ok(16));
    assert!(fd_payload_round_up(65).is_err());
    for &p in &FD_PAYLOADS {
        assert_eq!(fd_payload_round_up(p), Ok(p));
    }
}

#[test]
fn fd_frame_times_scale_with_data_rate_not_arbitration_rate() {
    let base = FdConfig::default();
    let faster_data = FdConfig {
        data_bps: 5_000_000,
        ..base
    };
    // More data-phase rate shortens big frames substantially...
    let t_base = base.frame_time_us(64).expect("valid payload");
    let t_fast = faster_data.frame_time_us(64).expect("valid payload");
    assert!(t_fast < t_base);
    // ...while the arbitration phase (classic-compatible, where the
    // mirroring argument lives) is untouched by the data-rate choice:
    // the delta between 0-byte frames at both configs only stems from the
    // data-phase CRC bits.
    let d0 = base.frame_time_us(0).expect("valid payload")
        - faster_data.frame_time_us(0).expect("valid payload");
    let d64 = t_base - t_fast;
    assert!(d64 > d0, "payload bits dominate the data-phase saving");
}

#[test]
fn flexray_static_segment_is_non_intrusive_by_construction() {
    let mut schedule = FlexRaySchedule::new(FlexRayConfig::default());
    // Functional layout: node 1 and node 2 own interleaved slots.
    for slot in [0u16, 2, 4] {
        schedule.assign(slot, 1).expect("slot free");
    }
    for slot in [1u16, 3] {
        schedule.assign(slot, 2).expect("slot free");
    }
    let node2_before = schedule.slots_of(2);
    let bw2_before = schedule.node_bandwidth_bytes_per_s(2);

    // BIST streaming for the shut-off node 1 reuses exactly node 1's
    // slots. TDMA exclusivity is the non-intrusiveness proof: claiming a
    // foreign or occupied slot is a typed error, so the data stream
    // cannot even express an intrusive schedule.
    assert_eq!(schedule.assign(1, 99), Err(FlexRayError::SlotTaken(1)));
    assert_eq!(
        schedule.assign(FlexRayConfig::default().static_slots, 99),
        Err(FlexRayError::SlotOutOfRange(
            FlexRayConfig::default().static_slots
        ))
    );
    assert_eq!(schedule.slots_of(2), node2_before);
    assert_eq!(schedule.node_bandwidth_bytes_per_s(2), bw2_before);

    // Eq. (1) analogue: transfer over the node's own slots only.
    let bytes = 2_399_185u64; // profile 1 encoded test data
    let t1 = schedule.transfer_time_s(1, bytes);
    assert!((t1 - bytes as f64 / schedule.node_bandwidth_bytes_per_s(1)).abs() < 1e-9);
    // A node with no slots can never stream test data.
    assert!(schedule.transfer_time_s(7, bytes).is_infinite());
}

#[test]
fn cross_bus_transfer_comparison_orders_as_expected() {
    // The same encoded pattern set over the three buses the paper's
    // concept covers: classic CAN mirror < CAN FD upgrade < FlexRay with
    // a generous slot allocation (bandwidths differ by construction).
    let bytes = 1u64 << 20;
    let msgs = functional();
    let mirror = mirror_messages_auto(&msgs, &[]).expect("gaps are free");
    let classic_q = transfer_time_s(bytes, &mirror).expect("bandwidth positive");

    let fd = FdConfig::default();
    let fd_bw: f64 = mirror
        .iter()
        .map(|m| fd.payload_bandwidth_bytes_per_s(64, m.period_us()))
        .sum();
    let fd_q = bytes as f64 / fd_bw;

    let mut schedule = FlexRaySchedule::new(FlexRayConfig::default());
    for slot in 0..8 {
        schedule.assign(slot, 1).expect("slot free");
    }
    let flexray_q = schedule.transfer_time_s(1, bytes);

    assert!(fd_q < classic_q, "FD multiplies the mirrored bandwidth");
    assert!(
        flexray_q < fd_q,
        "8 static slots of 32 B per 5 ms outpace the upgraded mirror here"
    );
}

/// ULP distance between two finite, same-sign floats.
fn ulp_distance(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

proptest! {
    /// The degenerate FD upgrade (`payload_multiplier == 1.0`) is classic
    /// CAN: for *any* message set, the CAN FD transfer time is within 1 ULP
    /// of the historical Eq. (1) free function (scaling an integer payload
    /// by exactly 1.0 is exact, which makes it bit-exact, but 1 ULP is the
    /// contract).
    #[test]
    fn fd_multiplier_one_matches_classic_within_one_ulp(
        first_payload in 1u8..=8,
        rest in proptest::collection::vec((0u8..=8, 1_000u64..=1_000_000), 0..5),
        first_period in 1_000u64..=1_000_000,
        data_bytes in 1u64..(1 << 30),
    ) {
        let mut msgs = vec![
            Message::new(CanId::new(0x100).unwrap(), first_payload, first_period).unwrap(),
        ];
        for (i, (payload, period)) in rest.into_iter().enumerate() {
            let id = CanId::new(0x108 + i as u16 * 8).unwrap();
            msgs.push(Message::new(id, payload, period).unwrap());
        }
        let classic_q = transfer_time_s(data_bytes, &msgs).unwrap();

        let nodes: BTreeMap<u32, Vec<Message>> = [(7u32, msgs)].into();
        let fd = TransportConfig::CanFd {
            config: FdConfig::default(),
            payload_multiplier: 1.0,
        }
        .build(nodes)
        .unwrap();
        let fd_q = fd.transfer_time_s(7, data_bytes).unwrap();

        prop_assert!(classic_q.is_finite() && fd_q.is_finite());
        prop_assert!(
            ulp_distance(classic_q, fd_q) <= 1,
            "multiplier-1.0 FD diverged from classic CAN: {classic_q} vs {fd_q}"
        );
    }
}
