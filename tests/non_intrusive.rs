//! Integration tests of the non-intrusiveness property (Fig. 4 and Eq. (1)
//! of the paper), spanning `eea-can` and `eea-dse`.

use eea_can::{
    analyze, mirror_messages, response_time, transfer_time_s, BusSim, CanId, Message,
    BUS_BITRATE_BPS,
};

fn msg(id: u16, payload: u8, period_us: u64) -> Message {
    Message::new(CanId::new(id).expect("valid id"), payload, period_us).expect("valid message")
}

/// Mirroring must keep every other message's *simulated* worst-case latency
/// exactly unchanged, for a variety of schedules.
#[test]
fn mirroring_preserves_latencies_across_schedules() {
    let sim = BusSim::new(BUS_BITRATE_BPS).expect("valid bitrate");
    let schedules: Vec<(Vec<Message>, Vec<Message>)> = vec![
        (
            vec![msg(0x100, 4, 10_000)],
            vec![msg(0x050, 8, 5_000), msg(0x300, 8, 50_000)],
        ),
        (
            vec![msg(0x100, 4, 10_000), msg(0x108, 8, 20_000)],
            vec![
                msg(0x050, 8, 5_000),
                msg(0x150, 6, 10_000),
                msg(0x300, 8, 50_000),
            ],
        ),
        (
            vec![
                msg(0x210, 1, 100_000),
                msg(0x218, 8, 10_000),
                msg(0x220, 3, 20_000),
            ],
            vec![msg(0x010, 8, 5_000), msg(0x400, 4, 25_000)],
        ),
    ];
    for (under_test, others) in schedules {
        let mut functional = others.clone();
        functional.extend_from_slice(&under_test);
        let base = sim.run(&functional, 3_000_000).expect("simulates");

        let mirrored = mirror_messages(&under_test, 0x30, &others).expect("mirrors");
        let mut test_sched = others.clone();
        test_sched.extend_from_slice(&mirrored);
        let test = sim.run(&test_sched, 3_000_000).expect("simulates");

        for o in &others {
            assert_eq!(
                base.by_id(o.id()).expect("present").max_response_us,
                test.by_id(o.id()).expect("present").max_response_us,
                "latency of {} changed",
                o.id()
            );
        }
    }
}

/// The analytical RTA bounds are equally unaffected: the interference and
/// blocking sets seen by third-party messages are identical under
/// mirroring.
#[test]
fn mirroring_preserves_rta_bounds() {
    let under_test = [msg(0x100, 4, 10_000), msg(0x108, 8, 20_000)];
    let others = [msg(0x050, 8, 5_000), msg(0x150, 6, 10_000)];
    let mut functional: Vec<Message> = others.to_vec();
    functional.extend_from_slice(&under_test);
    let mirrored = mirror_messages(&under_test, 0x10, &others).expect("mirrors");
    let mut test_sched: Vec<Message> = others.to_vec();
    test_sched.extend_from_slice(&mirrored);

    for o in &others {
        let before = response_time(o, &functional, BUS_BITRATE_BPS);
        let after = response_time(o, &test_sched, BUS_BITRATE_BPS);
        assert_eq!(before, after, "RTA bound of {} changed", o.id());
    }
}

/// Eq. (1) sanity: transfer time scales linearly with the data volume and
/// inversely with the mirrored bandwidth; cross-checked against a
/// first-principles bandwidth computation.
#[test]
fn eq1_matches_first_principles() {
    let set_a = [msg(0x100, 4, 10_000)]; // 400 B/s
    let set_b = [msg(0x100, 4, 10_000), msg(0x108, 8, 20_000)]; // 800 B/s
    let bytes = 2_399_185u64; // profile 1 of Table I

    let q_a = transfer_time_s(bytes, &set_a).expect("non-empty set");
    let q_b = transfer_time_s(bytes, &set_b).expect("non-empty set");
    assert!((q_a - bytes as f64 / 400.0).abs() < 1e-6);
    assert!((q_b - bytes as f64 / 800.0).abs() < 1e-6);
    // Twice the bandwidth, half the time.
    assert!((q_a / q_b - 2.0).abs() < 1e-9);
    // Linear in size.
    assert!((transfer_time_s(2 * bytes, &set_a).expect("non-empty set") / q_a - 2.0).abs() < 1e-9);
}

/// Eq. (1) against the event-driven simulator: streaming the pattern set
/// over the mirrored messages takes (within one period of slack) the time
/// the formula predicts.
#[test]
fn eq1_cross_checked_against_simulation() {
    let under_test = [msg(0x100, 8, 10_000), msg(0x108, 8, 20_000)];
    let payload_per_period: f64 = under_test
        .iter()
        .map(Message::payload_bandwidth_bytes_per_s)
        .sum(); // 1200 B/s
    let data_bytes = 12_000u64; // 10 s worth
    let predicted = transfer_time_s(data_bytes, &under_test).expect("non-empty set");
    assert!((predicted - data_bytes as f64 / payload_per_period).abs() < 1e-9);

    // Simulate the mirrored messages and count how long until the payload
    // bytes delivered reach data_bytes.
    let mirrored = mirror_messages(&under_test, 0x40, &[]).expect("mirrors");
    let sim = BusSim::new(BUS_BITRATE_BPS).expect("valid bitrate");
    let horizon = (predicted * 1.2 * 1e6) as u64;
    let run = sim.run(&mirrored, horizon).expect("simulates");
    let delivered: u64 = run
        .stats
        .iter()
        .zip(&mirrored)
        .map(|(s, m)| s.frames * u64::from(m.payload()))
        .sum();
    assert!(
        delivered >= data_bytes,
        "simulation delivered {delivered} bytes in {:.1} s, expected >= {data_bytes}",
        horizon as f64 / 1e6
    );
    // And the delivery rate matches the formula within 5 %.
    let rate = delivered as f64 / (horizon as f64 / 1e6);
    assert!(
        (rate - payload_per_period).abs() / payload_per_period < 0.05,
        "rate {rate} vs {payload_per_period}"
    );
}

/// The full schedule including mirrored messages stays schedulable: no
/// analysis divergence is introduced by the test traffic.
#[test]
fn mirrored_schedule_stays_schedulable() {
    let under_test = [msg(0x100, 4, 10_000), msg(0x108, 8, 20_000)];
    let others = [msg(0x050, 8, 5_000), msg(0x150, 6, 10_000)];
    let mirrored = mirror_messages(&under_test, 0x10, &others).expect("mirrors");
    let mut all: Vec<Message> = others.to_vec();
    all.extend_from_slice(&mirrored);
    let results = analyze(&all, BUS_BITRATE_BPS);
    assert!(
        results.iter().all(|r| r.response_us.is_ok()),
        "mirrored schedule must remain schedulable"
    );
}
