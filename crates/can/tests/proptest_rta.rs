//! Property tests: the analytical worst-case response time always bounds
//! the simulated latency, and mirroring is latency-neutral for arbitrary
//! schedules.

use eea_can::{mirror_messages_auto, response_time, BusSim, CanId, Message, BUS_BITRATE_BPS};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Sched(Vec<Message>);

fn schedule_strategy(max_msgs: usize) -> impl Strategy<Value = Sched> {
    proptest::collection::vec((0u16..0x180, 1u8..=8, 0usize..4), 1..=max_msgs).prop_map(|raw| {
        let periods = [10_000u64, 20_000, 50_000, 100_000];
        let mut used = std::collections::BTreeSet::new();
        let msgs = raw
            .into_iter()
            .filter_map(|(id, payload, pi)| {
                // Spread ids to avoid duplicates.
                let mut id = id;
                while used.contains(&id) {
                    id = (id + 1) % 0x200;
                }
                used.insert(id);
                Message::new(CanId::new(id).ok()?, payload, periods[pi]).ok()
            })
            .collect();
        Sched(msgs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness of the analysis: simulation never exceeds the RTA bound.
    #[test]
    fn rta_bounds_simulation(sched in schedule_strategy(8)) {
        let msgs = sched.0;
        let sim = BusSim::new(BUS_BITRATE_BPS).expect("positive bitrate");
        let run = sim.run(&msgs, 2_000_000).expect("unique ids");
        for (m, stats) in msgs.iter().zip(&run.stats) {
            if let Ok(bound) = response_time(m, &msgs, BUS_BITRATE_BPS) {
                prop_assert!(
                    stats.max_response_us <= bound,
                    "{}: simulated {} > bound {}",
                    m.id(), stats.max_response_us, bound
                );
            }
        }
    }

    /// Non-intrusiveness for arbitrary schedules: mirroring the first
    /// message leaves everyone else's latency unchanged.
    #[test]
    fn mirroring_is_latency_neutral(sched in schedule_strategy(6)) {
        let msgs = sched.0;
        prop_assume!(msgs.len() >= 2);
        let under_test = vec![msgs[0]];
        let others: Vec<Message> = msgs[1..].to_vec();
        let Ok(mirrored) = mirror_messages_auto(&under_test, &others) else {
            // Priority gap exhausted: mirroring is impossible here.
            return Ok(());
        };

        let sim = BusSim::new(BUS_BITRATE_BPS).expect("positive bitrate");
        let mut functional = others.clone();
        functional.extend_from_slice(&under_test);
        let base = sim.run(&functional, 2_000_000).expect("unique ids");
        let mut test_sched = others.clone();
        test_sched.extend_from_slice(&mirrored);
        let test = sim.run(&test_sched, 2_000_000).expect("unique ids");
        for o in &others {
            prop_assert_eq!(
                base.by_id(o.id()).expect("present").max_response_us,
                test.by_id(o.id()).expect("present").max_response_us
            );
        }
    }

    /// Utilisation accounting: the simulated utilisation matches the sum of
    /// per-message utilisations (within rounding of partial frames at the
    /// horizon).
    #[test]
    fn utilisation_matches_sum(sched in schedule_strategy(5)) {
        let msgs = sched.0;
        let expected: f64 = msgs.iter().map(|m| m.utilization(BUS_BITRATE_BPS)).sum();
        prop_assume!(expected < 0.9);
        let sim = BusSim::new(BUS_BITRATE_BPS).expect("positive bitrate");
        let run = sim.run(&msgs, 10_000_000).expect("unique ids");
        prop_assert!(
            (run.utilization - expected).abs() < 0.05,
            "simulated {} vs expected {}",
            run.utilization,
            expected
        );
    }
}
