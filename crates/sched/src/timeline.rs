//! Fixed-priority preemptive executive simulation and the steady-state
//! idle table the fleet walks.

use crate::task::{SchedError, TaskSet};

/// One maximal run of the executive: `[start_us, end_us)` with either a
/// running periodic task or idle time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSlice {
    /// Slice start, microseconds.
    pub start_us: u64,
    /// Slice end (exclusive), microseconds.
    pub end_us: u64,
    /// The running task (index into [`TaskSet::periodic`]), or `None`
    /// for idle time.
    pub task: Option<usize>,
}

/// The executive's schedule over `[0, horizon_us)` as maximal
/// same-occupant slices. Pure function of the task set — sporadic load is
/// per-vehicle and never enters the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleTimeline {
    slices: Vec<TimelineSlice>,
    horizon_us: u64,
}

impl ScheduleTimeline {
    /// The maximal slices, in time order, covering `[0, horizon_us)`
    /// exactly.
    pub fn slices(&self) -> &[TimelineSlice] {
        &self.slices
    }

    /// The simulated horizon in microseconds.
    pub fn horizon_us(&self) -> u64 {
        self.horizon_us
    }

    /// The idle intervals `(start_us, end_us)` in time order.
    pub fn idle_intervals(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slices
            .iter()
            .filter(|s| s.task.is_none())
            .map(|s| (s.start_us, s.end_us))
    }

    /// Total idle microseconds.
    pub fn idle_us(&self) -> u64 {
        self.idle_intervals().map(|(a, b)| b - a).sum()
    }

    /// Total busy microseconds.
    pub fn busy_us(&self) -> u64 {
        self.horizon_us - self.idle_us()
    }
}

impl TaskSet {
    /// Simulates the fixed-priority preemptive executive over
    /// `[0, horizon_us)`: at every instant the highest-priority released
    /// and unfinished task runs (priority 0 highest, ties by declaration
    /// order). Event-driven — cost scales with job releases, not with
    /// microseconds.
    ///
    /// # Errors
    ///
    /// [`SchedError::DeadlineMiss`] when a job is still unfinished at its
    /// task's next release (implicit deadlines).
    pub fn timeline(&self, horizon_us: u64) -> Result<ScheduleTimeline, SchedError> {
        struct Job {
            next_release_us: u64,
            remaining_us: u64,
        }
        let mut jobs: Vec<Job> = self
            .periodic
            .iter()
            .map(|t| Job {
                next_release_us: t.offset_us,
                remaining_us: 0,
            })
            .collect();
        let mut slices: Vec<TimelineSlice> = Vec::new();
        let mut push = |start_us: u64, end_us: u64, task: Option<usize>| {
            if start_us >= end_us {
                return;
            }
            if let Some(last) = slices.last_mut() {
                if last.task == task && last.end_us == start_us {
                    last.end_us = end_us;
                    return;
                }
            }
            slices.push(TimelineSlice {
                start_us,
                end_us,
                task,
            });
        };
        let mut t = 0u64;
        while t < horizon_us {
            for (task, job) in jobs.iter_mut().enumerate() {
                while job.next_release_us <= t {
                    if job.remaining_us > 0 {
                        return Err(SchedError::DeadlineMiss {
                            task,
                            at_us: job.next_release_us,
                        });
                    }
                    job.remaining_us = self.periodic[task].wcet_us;
                    job.next_release_us += self.periodic[task].period_us;
                }
            }
            // The next release bounds every slice: a higher-priority
            // release there may preempt whatever runs now.
            let next_release = jobs
                .iter()
                .map(|j| j.next_release_us)
                .min()
                .unwrap_or(horizon_us)
                .min(horizon_us);
            let running = jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| j.remaining_us > 0)
                .min_by_key(|&(i, _)| (self.periodic[i].priority, i))
                .map(|(i, _)| i);
            match running {
                Some(i) => {
                    let end = (t + jobs[i].remaining_us).min(next_release);
                    jobs[i].remaining_us -= end - t;
                    push(t, end.min(horizon_us), Some(i));
                    t = end;
                }
                None => {
                    push(t, next_release, None);
                    t = next_release;
                }
            }
        }
        Ok(ScheduleTimeline { slices, horizon_us })
    }
}

/// The steady-state hyperperiod of a task set, folded into a cyclic
/// busy/idle segment table in seconds: what the per-vehicle window carver
/// walks, allocation-free. Built from the *second* simulated hyperperiod
/// (`[H, 2H)`) so first-cycle transients (offsets, jobs straddling the
/// first boundary) don't distort the recurring pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleTable {
    /// Cyclic segments `(length_s, idle)`, alternating and gap-free over
    /// one hyperperiod. Never empty.
    segments: Vec<(f64, bool)>,
    hyper_s: f64,
    pure_idle: bool,
}

const US_TO_S: f64 = 1e-6;

impl IdleTable {
    /// Builds the steady-state table for `set`.
    ///
    /// # Errors
    ///
    /// [`SchedError::DeadlineMiss`] propagated from the executive
    /// simulation.
    pub fn build(set: &TaskSet) -> Result<Self, SchedError> {
        let hyper_us = set.hyperperiod_us();
        let timeline = set.timeline(2 * hyper_us)?;
        let mut segments: Vec<(f64, bool)> = Vec::new();
        for s in timeline.slices() {
            // Clip to the steady-state window [H, 2H).
            let start = s.start_us.max(hyper_us);
            let end = s.end_us.min(2 * hyper_us);
            if start >= end {
                continue;
            }
            let idle = s.task.is_none();
            let len_s = (end - start) as f64 * US_TO_S;
            match segments.last_mut() {
                Some((last_len, last_idle)) if *last_idle == idle => *last_len += len_s,
                _ => segments.push((len_s, idle)),
            }
        }
        let pure_idle = segments.iter().all(|&(_, idle)| idle);
        if segments.is_empty() {
            segments.push((hyper_us as f64 * US_TO_S, true));
        }
        Ok(IdleTable {
            segments,
            hyper_s: hyper_us as f64 * US_TO_S,
            pure_idle,
        })
    }

    /// The cyclic `(length_s, idle)` segments over one hyperperiod.
    pub fn segments(&self) -> &[(f64, bool)] {
        &self.segments
    }

    /// Hyperperiod length in seconds.
    pub fn hyper_s(&self) -> f64 {
        self.hyper_s
    }

    /// Whether the steady-state hyperperiod contains no busy time at all
    /// (zero utilization): the window carver's exact-pass-through fast
    /// path.
    pub fn pure_idle(&self) -> bool {
        self.pure_idle
    }

    /// Locates the cyclic phase `phase_s ∈ [0, hyper_s)` as a `(segment
    /// index, offset into segment)` cursor. Out-of-range phases clamp to
    /// the table boundaries.
    pub(crate) fn locate(&self, phase_s: f64) -> (usize, f64) {
        let mut remaining = if phase_s.is_finite() && phase_s > 0.0 {
            phase_s
        } else {
            0.0
        };
        for (i, &(len, _)) in self.segments.iter().enumerate() {
            if remaining < len {
                return (i, remaining);
            }
            remaining -= len;
        }
        (0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{PeriodicTask, TaskSetConfig};

    fn set(periodic: Vec<PeriodicTask>) -> TaskSet {
        TaskSet::from_config(&TaskSetConfig {
            periodic,
            ..TaskSetConfig::default()
        })
        .expect("valid task set")
    }

    fn task(period_us: u64, offset_us: u64, wcet_us: u64, priority: u32) -> PeriodicTask {
        PeriodicTask {
            period_us,
            offset_us,
            wcet_us,
            priority,
        }
    }

    #[test]
    fn timeline_covers_horizon_gap_free() {
        let s = set(vec![task(10, 2, 3, 0), task(20, 0, 4, 1)]);
        let tl = s.timeline(60).expect("schedulable");
        let mut t = 0;
        for sl in tl.slices() {
            assert_eq!(sl.start_us, t, "slices are gap-free and ordered");
            assert!(sl.end_us > sl.start_us);
            t = sl.end_us;
        }
        assert_eq!(t, 60);
        assert_eq!(tl.idle_us() + tl.busy_us(), 60);
        // Utilization 0.3 + 0.2 = 0.5 → exactly half of each hyperperiod
        // is busy in steady state.
        assert_eq!(tl.busy_us(), 30);
    }

    #[test]
    fn priority_preempts_and_ties_break_by_index() {
        // Low-priority long task released at 0; high-priority task at 2
        // must preempt it.
        let s = set(vec![task(20, 0, 8, 1), task(10, 2, 3, 0)]);
        let tl = s.timeline(20).expect("schedulable");
        let first: Vec<_> = tl.slices().iter().take(3).collect();
        assert_eq!(first[0].task, Some(0));
        assert_eq!((first[0].start_us, first[0].end_us), (0, 2));
        assert_eq!(first[1].task, Some(1), "priority 0 preempts at its release");
        assert_eq!((first[1].start_us, first[1].end_us), (2, 5));
        assert_eq!(first[2].task, Some(0), "preempted job resumes");
    }

    #[test]
    fn fixed_priority_deadline_miss_is_detected_under_full_load() {
        // Classic rate-monotonic-schedulable-but-tight pair pushed over:
        // T0 (C=3,T=6), T1 (C=4,T=9): U = 0.944 yet T1's first job only
        // has 3 us left before its t=9 release window closes after T0's
        // second job — it finishes at 10 > 9 under strict accounting.
        let s = set(vec![task(6, 0, 3, 0), task(9, 0, 4, 1)]);
        assert_eq!(
            s.timeline(18),
            Err(SchedError::DeadlineMiss { task: 1, at_us: 9 })
        );
    }

    #[test]
    fn zero_wcet_tasks_leave_the_timeline_idle() {
        let s = set(vec![task(10, 0, 0, 0)]);
        let tl = s.timeline(30).expect("schedulable");
        assert_eq!(tl.idle_us(), 30);
        let table = IdleTable::build(&s).expect("builds");
        assert!(table.pure_idle());
        assert_eq!(table.segments(), &[(10.0 * 1e-6, true)]);
    }

    #[test]
    fn idle_table_matches_steady_state_utilization() {
        let s = set(vec![task(10, 2, 3, 0), task(20, 0, 4, 1)]);
        let table = IdleTable::build(&s).expect("builds");
        assert!(!table.pure_idle());
        assert!((table.hyper_s() - 20.0 * 1e-6).abs() < 1e-18);
        let idle: f64 = table
            .segments()
            .iter()
            .filter(|&&(_, idle)| idle)
            .map(|&(len, _)| len)
            .sum();
        let total: f64 = table.segments().iter().map(|&(len, _)| len).sum();
        assert!((total - table.hyper_s()).abs() < 1e-15);
        assert!(
            (idle / total - 0.5).abs() < 1e-9,
            "steady state is half idle"
        );
        // Alternating busy/idle segments, never adjacent same-kind.
        for pair in table.segments().windows(2) {
            assert_ne!(pair[0].1, pair[1].1, "segments are coalesced");
        }
    }

    #[test]
    fn locate_walks_the_cyclic_table() {
        let s = set(vec![task(10, 0, 4, 0)]);
        let table = IdleTable::build(&s).expect("builds");
        // Steady state: [busy 4us][idle 6us].
        assert_eq!(table.locate(0.0), (0, 0.0));
        let (seg, off) = table.locate(5.0 * 1e-6);
        assert_eq!(seg, 1);
        assert!((off - 1e-6).abs() < 1e-18);
        assert_eq!(table.locate(1.0), (0, 0.0), "past-the-end clamps");
        assert_eq!(table.locate(f64::NAN), (0, 0.0));
    }
}
