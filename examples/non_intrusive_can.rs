//! Demonstrates the paper's *non-intrusiveness* claim on a simulated CAN
//! bus (Fig. 4): replacing an inactive ECU's functional messages with
//! mirrored test-data messages leaves every other message's latency
//! untouched — while a naive bulk transfer would not.
//!
//! Run with:
//!
//! ```text
//! cargo run -p eea-dse --example non_intrusive_can --release
//! ```

use eea_can::{analyze, mirror_messages, transfer_time_s, BusSim, CanId, Message, BUS_BITRATE_BPS};

fn msg(id: u16, payload: u8, period_us: u64) -> Message {
    Message::new(CanId::new(id).expect("valid id"), payload, period_us).expect("valid message")
}

fn main() {
    // The ECU under test sends two functional messages; three other ECUs
    // share the bus.
    let ecu_under_test = [msg(0x100, 4, 10_000), msg(0x108, 8, 20_000)];
    let others = [
        msg(0x050, 8, 5_000),
        msg(0x150, 6, 10_000),
        msg(0x300, 8, 50_000),
        msg(0x420, 2, 100_000),
    ];
    let sim = BusSim::new(BUS_BITRATE_BPS).expect("valid bitrate");
    let horizon = 5_000_000; // 5 s

    // Baseline: the certified functional schedule.
    let mut functional: Vec<Message> = others.to_vec();
    functional.extend_from_slice(&ecu_under_test);
    let base = sim.run(&functional, horizon).expect("simulates");

    // BIST session: the ECU's messages go silent, mirrored test-data
    // messages (same size/period/relative priority, fresh IDs) take their
    // place.
    let mirrored = mirror_messages(&ecu_under_test, 0x20, &others).expect("mirroring succeeds");
    let mut test_schedule: Vec<Message> = others.to_vec();
    test_schedule.extend_from_slice(&mirrored);
    let test = sim.run(&test_schedule, horizon).expect("simulates");

    // A naive alternative: a greedy low-priority bulk message at 1 ms.
    let bulk = msg(0x7FF, 8, 1_000);
    let mut naive: Vec<Message> = functional.clone();
    naive.push(bulk);
    let naive_run = sim.run(&naive, horizon).expect("simulates");

    println!("worst-case observed latency of the OTHER ECUs' messages [us]:");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "id", "functional", "mirrored", "naive bulk", "RTA bound"
    );
    let rta = analyze(&functional, BUS_BITRATE_BPS);
    for o in &others {
        let b = base.by_id(o.id()).expect("simulated");
        let t = test.by_id(o.id()).expect("simulated");
        let n = naive_run.by_id(o.id()).expect("simulated");
        let bound = rta
            .iter()
            .find(|r| r.id == o.id())
            .and_then(|r| r.response_us.as_ref().ok())
            .map(|r| r.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>12}",
            o.id().to_string(),
            b.max_response_us,
            t.max_response_us,
            n.max_response_us,
            bound
        );
        assert_eq!(
            b.max_response_us, t.max_response_us,
            "mirroring must not change functional latencies"
        );
    }
    println!("\nmirrored schedule: bit-identical latencies (non-intrusive).");
    println!("naive bulk transfer: latencies shift — certification would be void.\n");

    // Eq. (1): how long does a BIST pattern set take over the mirror?
    for bytes in [455_061u64, 994_156, 2_399_185] {
        let q = transfer_time_s(bytes, &ecu_under_test).expect("non-empty schedule");
        println!(
            "Eq. (1): {:>9} bytes over the mirrored schedule ({:>4.0} B/s): {:>8.1} s",
            bytes,
            ecu_under_test
                .iter()
                .map(Message::payload_bandwidth_bytes_per_s)
                .sum::<f64>(),
            q
        );
    }
}
