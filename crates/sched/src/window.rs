//! Shut-off window sources: where per-vehicle `(gap, window)` pairs come
//! from.
//!
//! The fleet's window loop consumes a stream of `(gap_s, window_s)`
//! pairs: wall time advances by `gap`, then a window of `window` seconds
//! of BIST time opens. [`FlatBudget`] reproduces the historical
//! `ShutoffModel` stream bit-for-bit — two uniform draws per pair, in
//! gap-then-window order — and the frozen 100k campaign digests pin that
//! contract. [`TaskSchedule`] derives the stream from a task set
//! instead: each flat macro window is aligned at a random phase of the
//! steady-state hyperperiod and carved into the idle intervals the
//! schedule leaves open, with sporadic task arrivals (drawn from the
//! same per-vehicle SplitMix64 stream) stealing idle time before BIST
//! sees it.

use eea_moea::Rng;

use crate::task::{SchedError, TaskSet, TaskSetConfig};
use crate::timeline::IdleTable;

/// A deterministic source of `(gap_s, window_s)` pairs, driven by the
/// per-vehicle RNG.
pub trait WindowSource {
    /// Draws the next `(gap, window)` pair. The fleet's window loop adds
    /// `gap` to wall time, breaks when the window start crosses the
    /// campaign horizon, and otherwise opens a window of `window`
    /// seconds.
    fn next_window(&mut self, rng: &mut Rng) -> (f64, f64);
}

/// The historical flat-budget window source: gap and window drawn
/// uniformly from fixed ranges, two [`Rng::unit`] draws per pair. The
/// float expressions (`min + unit()·range`, gap first) are the historical
/// shut-off draw's — bit-for-bit the frozen fleet digests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatBudget {
    /// Minimum gap between windows, seconds.
    pub min_gap_s: f64,
    /// `max_gap_s - min_gap_s`, precomputed once per campaign.
    pub gap_range_s: f64,
    /// Minimum window length, seconds.
    pub min_window_s: f64,
    /// `max_window_s - min_window_s`, precomputed once per campaign.
    pub window_range_s: f64,
}

impl FlatBudget {
    /// Builds the source from `[min, max]` bounds, precomputing the
    /// ranges — the identical subtraction the per-window draw used to
    /// evaluate, hoisted.
    pub fn from_bounds(
        min_gap_s: f64,
        max_gap_s: f64,
        min_window_s: f64,
        max_window_s: f64,
    ) -> Self {
        FlatBudget {
            min_gap_s,
            gap_range_s: max_gap_s - min_gap_s,
            min_window_s,
            window_range_s: max_window_s - min_window_s,
        }
    }
}

impl WindowSource for FlatBudget {
    #[inline]
    fn next_window(&mut self, rng: &mut Rng) -> (f64, f64) {
        let gap = self.min_gap_s + rng.unit() * self.gap_range_s;
        let window = self.min_window_s + rng.unit() * self.window_range_s;
        (gap, window)
    }
}

/// Sporadic load in seconds, precomputed from the integer config.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SporadicLoad {
    min_interarrival_s: f64,
    wcet_s: f64,
}

/// A validated, campaign-shareable schedule plan: the steady-state
/// [`IdleTable`] plus the sporadic load and minimum-slice policy. Built
/// once per blueprint ([`SchedPlan::build`] validates the config and
/// surfaces [`SchedError::DeadlineMiss`] at campaign construction, not
/// mid-simulation) and borrowed read-only by every vehicle's
/// [`TaskSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct SchedPlan {
    table: IdleTable,
    sporadic: Vec<SporadicLoad>,
    min_slice_s: f64,
}

impl SchedPlan {
    /// Validates `config` and folds its steady-state schedule.
    ///
    /// # Errors
    ///
    /// Any structural [`SchedError`] from [`TaskSet::from_config`], or
    /// [`SchedError::DeadlineMiss`] from the executive simulation.
    pub fn build(config: &TaskSetConfig) -> Result<Self, SchedError> {
        let set = TaskSet::from_config(config)?;
        let table = IdleTable::build(&set)?;
        Ok(SchedPlan {
            table,
            sporadic: set
                .sporadic()
                .iter()
                .map(|t| SporadicLoad {
                    min_interarrival_s: t.min_interarrival_us as f64 * 1e-6,
                    wcet_s: t.wcet_us as f64 * 1e-6,
                })
                .collect(),
            min_slice_s: set.min_slice_s(),
        })
    }

    /// The steady-state busy/idle table.
    pub fn table(&self) -> &IdleTable {
        &self.table
    }

    /// Whether the plan degenerates to the flat budget exactly: no busy
    /// time in steady state and no sporadic load to steal idle time.
    pub fn is_pass_through(&self) -> bool {
        self.table.pure_idle() && self.sporadic.is_empty()
    }
}

/// Hard cap on macro windows consumed inside a single `next_window`
/// call: a backstop against degenerate flat configs (zero-length macro
/// windows against a fully busy table) that could otherwise spin. The
/// fleet validates its shut-off model (positive window lengths), so real
/// campaigns terminate via the gap bailout long before this.
const MAX_MACRO_DRAWS: u32 = 1 << 20;

/// Schedule-derived window source. Each flat macro window (same two
/// draws as [`FlatBudget`]) is placed at a uniformly drawn phase of the
/// steady-state hyperperiod and carved along the cyclic busy/idle table:
///
/// - busy segments and idle fragments shorter than the minimum BIST
///   slice accumulate into the pending gap;
/// - each idle slice first loses time to sporadic arrivals (per sporadic
///   task, one inter-arrival draw `min·(1 + unit())`; the implied
///   arrival count times WCET is stolen, saturating at the slice);
/// - what remains, if at least `min_slice_s`, is emitted as a window.
///
/// When the accumulated gap reaches the campaign horizon with nothing
/// emitted, a `(gap, 0)` pair is returned — the fleet's window loop
/// breaks on the horizon check before reading the zero window, so a
/// fully-busy schedule (or an unreachable minimum slice) terminates
/// cleanly with zero windows.
///
/// Whole macro windows of a pass-through plan ([`SchedPlan::is_pass_through`])
/// are forwarded verbatim with no extra draws and no minimum-slice
/// filtering — the degenerate zero-utilization task set reproduces
/// [`FlatBudget`] exactly, which the equivalence-oracle proptest pins.
#[derive(Debug, Clone)]
pub struct TaskSchedule<'a> {
    flat: FlatBudget,
    plan: &'a SchedPlan,
    horizon_s: f64,
    /// Macro-window seconds still to carve.
    remaining_s: f64,
    /// Cursor: current segment and offset into it.
    segment: usize,
    offset_s: f64,
    /// Gap seconds accumulated since the last emitted window.
    pending_gap_s: f64,
}

impl<'a> TaskSchedule<'a> {
    /// A carver over `plan`, drawing macro windows from `flat`, bailing
    /// out once the pending gap crosses `horizon_s` (the campaign
    /// horizon — nothing past it is observable).
    pub fn new(flat: FlatBudget, plan: &'a SchedPlan, horizon_s: f64) -> Self {
        TaskSchedule {
            flat,
            plan,
            horizon_s,
            remaining_s: 0.0,
            segment: 0,
            offset_s: 0.0,
            pending_gap_s: 0.0,
        }
    }
}

impl WindowSource for TaskSchedule<'_> {
    #[inline]
    fn next_window(&mut self, rng: &mut Rng) -> (f64, f64) {
        let segments = self.plan.table.segments();
        let mut draws = 0u32;
        loop {
            if self.remaining_s <= 0.0 {
                let (gap, window) = self.flat.next_window(rng);
                if self.plan.is_pass_through() {
                    return (gap, window);
                }
                draws += 1;
                if draws > MAX_MACRO_DRAWS {
                    return (self.pending_gap_s.max(self.horizon_s), 0.0);
                }
                self.pending_gap_s += gap;
                self.remaining_s = window;
                // Vehicles are not phase-locked to their ECU's schedule:
                // each macro window lands at a uniform hyperperiod phase.
                let phase = rng.unit() * self.plan.table.hyper_s();
                (self.segment, self.offset_s) = self.plan.table.locate(phase);
            }
            // The cursor stays below `segments.len()` (`locate` returns an
            // in-range index, the table is never empty), so it wraps by
            // compare.
            let (seg_len, idle) = segments[self.segment];
            let seg_left = seg_len - self.offset_s;
            let take = if seg_left <= self.remaining_s {
                self.segment += 1;
                if self.segment == segments.len() {
                    self.segment = 0;
                }
                self.offset_s = 0.0;
                seg_left
            } else {
                self.offset_s += self.remaining_s;
                self.remaining_s
            };
            self.remaining_s -= take;
            if take <= 0.0 {
                continue;
            }
            if !idle {
                self.pending_gap_s += take;
            } else {
                let mut stolen = 0.0f64;
                for load in &self.plan.sporadic {
                    let interarrival = load.min_interarrival_s * (1.0 + rng.unit());
                    // A slice shorter than the minimum inter-arrival holds no
                    // arrival: `interarrival >= min > take` floors the
                    // quotient to 0, and `0 · wcet` would add exactly `+0.0`.
                    if take >= load.min_interarrival_s {
                        stolen += (take / interarrival).floor() * load.wcet_s;
                    }
                }
                let stolen = stolen.min(take);
                let usable = take - stolen;
                if usable > 0.0 && usable >= self.plan.min_slice_s {
                    let gap = self.pending_gap_s;
                    // Sporadic steal is accounted at the slice tail: it
                    // seeds the next pair's gap.
                    self.pending_gap_s = stolen;
                    return (gap, usable);
                }
                self.pending_gap_s += take;
            }
            if self.pending_gap_s >= self.horizon_s {
                // Nothing usable before the horizon: emit a zero window
                // the caller's horizon check consumes as "done".
                return (self.pending_gap_s, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{PeriodicTask, SporadicTask};
    use proptest::prelude::*;

    fn flat() -> FlatBudget {
        FlatBudget::from_bounds(3_600.0, 10_800.0, 600.0, 1_800.0)
    }

    fn plan(config: &TaskSetConfig) -> SchedPlan {
        SchedPlan::build(config).expect("valid plan")
    }

    #[test]
    fn flat_budget_is_two_unit_draws_gap_first() {
        let mut src = flat();
        let mut rng = Rng::new(7);
        let mut oracle = Rng::new(7);
        for _ in 0..100 {
            let (gap, window) = src.next_window(&mut rng);
            assert_eq!(gap, 3_600.0 + oracle.unit() * (10_800.0 - 3_600.0));
            assert_eq!(window, 600.0 + oracle.unit() * (1_800.0 - 600.0));
        }
    }

    #[test]
    fn draws_stay_in_range_and_are_seed_deterministic() {
        let (mut a, mut b) = (flat(), flat());
        let mut ra = Rng::new(7);
        let mut rb = Rng::new(7);
        for _ in 0..100 {
            let (gap, win) = a.next_window(&mut ra);
            assert!((3_600.0..=10_800.0).contains(&gap));
            assert!((600.0..=1_800.0).contains(&win));
            assert_eq!((gap, win), b.next_window(&mut rb));
        }
    }

    #[test]
    fn point_ranges_draw_exactly_and_keep_the_stream_contract() {
        // min == max is valid (fixed-length windows) and every draw lands
        // on the point value — while still consuming two RNG draws per
        // pair, the stream contract the frozen digests pin.
        let mut src = FlatBudget::from_bounds(100.0, 100.0, 50.0, 50.0);
        let mut rng = Rng::new(9);
        let mut shadow = Rng::new(9);
        for _ in 0..20 {
            assert_eq!(src.next_window(&mut rng), (100.0, 50.0));
            shadow.unit();
            shadow.unit();
        }
        assert_eq!(rng.next_u64(), shadow.next_u64());
    }

    #[test]
    fn degenerate_task_set_passes_flat_stream_through() {
        // Single registered-but-idle task: zero utilization.
        let cfg = TaskSetConfig {
            periodic: vec![PeriodicTask {
                period_us: 20_000_000,
                offset_us: 0,
                wcet_us: 0,
                priority: 0,
            }],
            ..TaskSetConfig::default()
        };
        let p = plan(&cfg);
        assert!(p.is_pass_through());
        let mut sched = TaskSchedule::new(flat(), &p, 1e9);
        let mut reference = flat();
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..200 {
            assert_eq!(sched.next_window(&mut a), reference.next_window(&mut b));
        }
    }

    #[test]
    fn busy_schedule_emits_idle_slices_only() {
        // 40% busy: 8 s of every 20 s hyperperiod.
        let cfg = TaskSetConfig {
            periodic: vec![PeriodicTask {
                period_us: 20_000_000,
                offset_us: 0,
                wcet_us: 8_000_000,
                priority: 0,
            }],
            min_slice_s: 1.0,
            ..TaskSetConfig::default()
        };
        let p = plan(&cfg);
        assert!(!p.is_pass_through());
        let mut sched = TaskSchedule::new(flat(), &p, 1e9);
        let mut rng = Rng::new(3);
        for _ in 0..500 {
            let (gap, window) = sched.next_window(&mut rng);
            assert!(gap > 0.0);
            assert!(window >= 1.0, "slices respect the minimum");
            assert!(window <= 12.0 + 1e-9, "no window exceeds the idle segment");
        }
    }

    #[test]
    fn carving_conserves_wall_time() {
        let cfg = TaskSetConfig {
            periodic: vec![PeriodicTask {
                period_us: 10_000_000,
                offset_us: 0,
                wcet_us: 3_000_000,
                priority: 0,
            }],
            min_slice_s: 0.5,
            ..TaskSetConfig::default()
        };
        let p = plan(&cfg);
        let mut sched = TaskSchedule::new(flat(), &p, 1e12);
        let mut reference = flat();
        let mut rng = Rng::new(99);
        let mut shadow = Rng::new(99);
        let mut carved = 0.0f64;
        let mut macro_total = 0.0f64;
        // Walk both streams: every macro window's wall time (gap+window)
        // must reappear in the carved stream's (gap+window) totals; the
        // carver may hold back a pending tail, bounded by one hyperperiod
        // plus the in-flight macro window.
        for _ in 0..300 {
            let (g, w) = sched.next_window(&mut rng);
            carved += g + w;
        }
        // Re-derive how many macro draws the carver consumed by counting
        // the RNG distance: 2 draws per macro window + 1 phase draw (no
        // sporadic tasks configured).
        let mut draws = 0usize;
        while shadow.clone().next_u64() != rng.clone().next_u64() {
            let (g, w) = reference.next_window(&mut shadow);
            macro_total += g + w;
            let _phase = shadow.unit();
            draws += 1;
            assert!(
                draws < 10_000,
                "carver must stay in sync with the flat stream"
            );
        }
        assert!(draws > 0);
        assert!(
            macro_total >= carved,
            "carved wall time cannot exceed the macro budget"
        );
        assert!(
            macro_total - carved <= p.table().hyper_s() + 10_800.0 + 1_800.0,
            "held-back tail is bounded: macro {macro_total}, carved {carved}"
        );
    }

    #[test]
    fn sporadic_load_steals_idle_time() {
        let base = TaskSetConfig {
            periodic: vec![PeriodicTask {
                period_us: 20_000_000,
                offset_us: 0,
                wcet_us: 2_000_000,
                priority: 0,
            }],
            min_slice_s: 0.0,
            ..TaskSetConfig::default()
        };
        let with_sporadic = TaskSetConfig {
            sporadic: vec![SporadicTask {
                min_interarrival_us: 1_000_000,
                wcet_us: 200_000,
                priority: 1,
            }],
            ..base.clone()
        };
        let quiet = plan(&base);
        let noisy = plan(&with_sporadic);
        let sum = |p: &SchedPlan| {
            let mut sched = TaskSchedule::new(flat(), p, 1e9);
            let mut rng = Rng::new(11);
            let mut total = 0.0;
            for _ in 0..300 {
                total += sched.next_window(&mut rng).1;
            }
            total
        };
        let quiet_total = sum(&quiet);
        let noisy_total = sum(&noisy);
        assert!(
            noisy_total < quiet_total,
            "sporadic arrivals must cost BIST time: {noisy_total} vs {quiet_total}"
        );
    }

    #[test]
    fn unreachable_slice_bails_out_at_the_horizon() {
        // Minimum slice larger than any idle segment: nothing ever
        // qualifies, so the source must emit a horizon-crossing gap.
        let cfg = TaskSetConfig {
            periodic: vec![PeriodicTask {
                period_us: 1_000_000,
                offset_us: 0,
                wcet_us: 500_000,
                priority: 0,
            }],
            min_slice_s: 10.0,
            ..TaskSetConfig::default()
        };
        let p = plan(&cfg);
        let horizon = 50_000.0;
        let mut sched = TaskSchedule::new(flat(), &p, horizon);
        let mut rng = Rng::new(1);
        let (gap, window) = sched.next_window(&mut rng);
        assert!(gap >= horizon);
        assert_eq!(window, 0.0);
    }

    impl TaskSchedule<'_> {
        /// The reference carver: the plain segment walk, wrapping the
        /// cursor with `%` and evaluating the sporadic steal for every
        /// slice. The oracle proptest below holds `next_window` to it bit
        /// for bit.
        fn reference_next_window(&mut self, rng: &mut Rng) -> (f64, f64) {
            let segments = self.plan.table.segments();
            let mut draws = 0u32;
            loop {
                if self.remaining_s <= 0.0 {
                    let (gap, window) = self.flat.next_window(rng);
                    if self.plan.is_pass_through() {
                        return (gap, window);
                    }
                    draws += 1;
                    if draws > MAX_MACRO_DRAWS {
                        return (self.pending_gap_s.max(self.horizon_s), 0.0);
                    }
                    self.pending_gap_s += gap;
                    self.remaining_s = window;
                    let phase = rng.unit() * self.plan.table.hyper_s();
                    (self.segment, self.offset_s) = self.plan.table.locate(phase);
                }
                let (seg_len, idle) = segments[self.segment % segments.len()];
                let seg_left = seg_len - self.offset_s;
                let take = if seg_left <= self.remaining_s {
                    self.segment = (self.segment + 1) % segments.len();
                    self.offset_s = 0.0;
                    seg_left
                } else {
                    self.offset_s += self.remaining_s;
                    self.remaining_s
                };
                self.remaining_s -= take;
                if take <= 0.0 {
                    continue;
                }
                if !idle {
                    self.pending_gap_s += take;
                } else {
                    let mut stolen = 0.0f64;
                    for load in &self.plan.sporadic {
                        let interarrival = load.min_interarrival_s * (1.0 + rng.unit());
                        stolen += (take / interarrival).floor() * load.wcet_s;
                    }
                    let stolen = stolen.min(take);
                    let usable = take - stolen;
                    if usable > 0.0 && usable >= self.plan.min_slice_s {
                        let gap = self.pending_gap_s;
                        self.pending_gap_s = stolen;
                        return (gap, usable);
                    }
                    self.pending_gap_s += take;
                }
                if self.pending_gap_s >= self.horizon_s {
                    return (self.pending_gap_s, 0.0);
                }
            }
        }
    }

    /// Task periods the oracle draws from, in seconds: hyperperiods stay
    /// at most 120 s, so building a plan is cheap.
    const PERIODS_S: [u64; 10] = [2, 3, 4, 5, 6, 8, 10, 12, 15, 20];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Oracle for the carver: on random task sets — some with sporadic
        /// minimum inter-arrivals shorter than their idle segments, so
        /// arrivals fit a slice and steal from it; one case in eight a
        /// zero-utilization pass-through set — random minimum slices, flat
        /// bounds, horizons and seeds, `next_window` yields the reference
        /// carver's `(gap, window)` pairs bit for bit over 500 calls and
        /// leaves the RNG in the same state.
        #[test]
        fn carver_matches_the_reference_walk(
            periodic in proptest::collection::vec((0usize..10, 0.02f64..0.25, 0.0f64..1.0), 1..=3),
            sporadic in proptest::collection::vec((0.5f64..30.0, 0.01f64..0.1), 0..=2),
            idle_only in 0u32..8,
            min_slice_s in 0.0f64..10.0,
            bounds in (0.0f64..200.0, 0.0f64..500.0, 1.0f64..300.0, 0.0f64..300.0),
            horizon_s in 100.0f64..1e6,
            seed in any::<u64>(),
        ) {
            let pass_through = idle_only == 0;
            let cfg = TaskSetConfig {
                periodic: periodic
                    .iter()
                    .enumerate()
                    .map(|(i, &(p, util, phase))| {
                        let period_us = PERIODS_S[p] * 1_000_000;
                        PeriodicTask {
                            period_us,
                            offset_us: (period_us as f64 * phase) as u64,
                            wcet_us: if pass_through { 0 } else { (period_us as f64 * util) as u64 },
                            priority: i as u32,
                        }
                    })
                    .collect(),
                sporadic: if pass_through {
                    Vec::new()
                } else {
                    sporadic
                        .iter()
                        .enumerate()
                        .map(|(i, &(min_s, util))| SporadicTask {
                            min_interarrival_us: (min_s * 1e6) as u64,
                            wcet_us: (min_s * util * 1e6) as u64,
                            priority: (periodic.len() + i) as u32,
                        })
                        .collect()
                },
                min_slice_s,
            };
            // Random sets can be unschedulable; those have no plan.
            let Ok(p) = SchedPlan::build(&cfg) else {
                return Ok(());
            };
            let (min_gap, gap_range, min_window, window_range) = bounds;
            let flat = FlatBudget::from_bounds(
                min_gap,
                min_gap + gap_range,
                min_window,
                min_window + window_range,
            );
            let mut fast = TaskSchedule::new(flat, &p, horizon_s);
            let mut reference = fast.clone();
            let mut rng = Rng::new(seed);
            let mut shadow = Rng::new(seed);
            for call in 0..500 {
                let (gap, window) = fast.next_window(&mut rng);
                let (ref_gap, ref_window) = reference.reference_next_window(&mut shadow);
                prop_assert_eq!(
                    (gap.to_bits(), window.to_bits()),
                    (ref_gap.to_bits(), ref_window.to_bits()),
                    "call {}: ({}, {}) vs reference ({}, {})",
                    call, gap, window, ref_gap, ref_window
                );
            }
            prop_assert_eq!(rng.next_u64(), shadow.next_u64(), "RNG state diverged");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let cfg = TaskSetConfig {
            periodic: vec![PeriodicTask {
                period_us: 30_000_000,
                offset_us: 5_000_000,
                wcet_us: 9_000_000,
                priority: 0,
            }],
            sporadic: vec![SporadicTask {
                min_interarrival_us: 45_000_000,
                wcet_us: 2_000_000,
                priority: 1,
            }],
            min_slice_s: 2.0,
        };
        let p = plan(&cfg);
        let mut a = TaskSchedule::new(flat(), &p, 1e9);
        let mut b = TaskSchedule::new(flat(), &p, 1e9);
        let mut ra = Rng::new(123);
        let mut rb = Rng::new(123);
        for _ in 0..200 {
            let (ga, wa) = a.next_window(&mut ra);
            let (gb, wb) = b.next_window(&mut rb);
            assert_eq!(ga.to_bits(), gb.to_bits());
            assert_eq!(wa.to_bits(), wb.to_bits());
        }
    }
}
