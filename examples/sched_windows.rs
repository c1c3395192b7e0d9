//! In-ECU cyclic-task schedule → shut-off windows, end to end.
//!
//! Builds the task set the `sched_campaign` section of the
//! `fleet_campaign` bench stamps on its blueprints, simulates the
//! fixed-priority executive over one hyperperiod, prints the busy/idle
//! timeline as an ASCII strip, and then shows the `(gap, window)` stream
//! a single vehicle would draw from it — next to the flat-budget stream
//! the same RNG seed produces, so the schedule's carving is visible side
//! by side.
//!
//! ```text
//! cargo run -p eea-fleet --example sched_windows
//! ```

use eea_fleet::{
    FlatBudget, PeriodicTask, SchedPlan, ShutoffModel, SporadicTask, TaskSchedule, TaskSetConfig,
    WindowSource,
};
use eea_moea::Rng;
use eea_sched::TaskSet;

fn main() -> Result<(), eea_sched::SchedError> {
    // Two periodic tasks (hyperperiod 60 s, utilization 0.39) plus one
    // sporadic task — the blueprint task set of the fleet_campaign
    // bench's sched_campaign section.
    let config = TaskSetConfig {
        periodic: vec![
            PeriodicTask {
                period_us: 20_000_000,
                offset_us: 0,
                wcet_us: 4_000_000,
                priority: 0,
            },
            PeriodicTask {
                period_us: 60_000_000,
                offset_us: 5_000_000,
                wcet_us: 9_000_000,
                priority: 1,
            },
        ],
        sporadic: vec![SporadicTask {
            min_interarrival_us: 45_000_000,
            wcet_us: 2_000_000,
            priority: 2,
        }],
        min_slice_s: 5.0,
    };

    let set = TaskSet::from_config(&config)?;
    let hyper_us = set.hyperperiod_us();
    println!(
        "task set: {} periodic, {} sporadic — hyperperiod {} s, worst-case utilization {:.2}",
        set.periodic().len(),
        set.sporadic().len(),
        hyper_us / 1_000_000,
        set.utilization()
    );

    // One steady-state hyperperiod of the executive, as maximal slices.
    let timeline = set.timeline(hyper_us)?;
    println!("\nexecutive timeline over one hyperperiod:");
    for slice in timeline.slices() {
        let occupant = match slice.task {
            Some(t) => format!("task {t} (prio {})", set.periodic()[t].priority),
            None => "idle".to_string(),
        };
        println!(
            "  {:6.1} s .. {:6.1} s  {}",
            slice.start_us as f64 * 1e-6,
            slice.end_us as f64 * 1e-6,
            occupant
        );
    }
    // ASCII strip, one character per second: '#' busy, '.' idle.
    let strip: String = (0..hyper_us / 1_000_000)
        .map(|sec| {
            let us = sec * 1_000_000;
            let busy = timeline
                .slices()
                .iter()
                .any(|s| s.task.is_some() && s.start_us <= us && us < s.end_us);
            if busy {
                '#'
            } else {
                '.'
            }
        })
        .collect();
    println!("  [{strip}]  (1 char = 1 s)");
    println!(
        "  idle {:.0} s of {:.0} s ({:.0} %)",
        timeline.idle_us() as f64 * 1e-6,
        hyper_us as f64 * 1e-6,
        100.0 * timeline.idle_us() as f64 / hyper_us as f64
    );

    // The same shut-off macro budget the fleet uses, carved two ways.
    let shutoff = ShutoffModel::default();
    let flat = FlatBudget::from_bounds(
        shutoff.min_gap_s,
        shutoff.max_gap_s,
        shutoff.min_window_s,
        shutoff.max_window_s,
    );
    let plan = SchedPlan::build(&config)?;
    let horizon_s = 86_400.0;

    println!("\nflat-budget stream (seed 2014, first 6 pairs):");
    let mut rng = Rng::new(2014);
    let mut src = flat;
    for i in 0..6 {
        let (gap, window) = src.next_window(&mut rng);
        println!("  {i}: drive {gap:7.1} s, then BIST window {window:7.1} s");
    }

    println!("schedule-derived stream (same seed, first 6 pairs):");
    let mut rng = Rng::new(2014);
    let mut src = TaskSchedule::new(flat, &plan, horizon_s);
    for i in 0..6 {
        let (gap, window) = src.next_window(&mut rng);
        println!("  {i}: gap {gap:7.1} s, then BIST slice {window:7.1} s");
    }
    println!(
        "\neach flat macro window lands at a random phase of the {:.0} s \
hyperperiod and is\ncarved into idle slices >= {:.0} s, minus sporadic \
steal — more, shorter windows,\nsame wall time.",
        plan.table().hyper_s(),
        config.min_slice_s
    );
    Ok(())
}
