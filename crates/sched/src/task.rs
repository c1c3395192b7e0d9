//! Task-set configuration and validation.
//!
//! Time is integer microseconds throughout: hyperperiods are exact LCMs
//! and the executive simulation never accumulates float error. Seconds
//! only appear at the boundary to the fleet simulation
//! ([`crate::IdleTable`] / [`crate::TaskSchedule`]), converted once.

/// One cyclic task: released every `period_us` starting at `offset_us`,
/// runs for `wcet_us` at fixed `priority` (0 = highest, ties broken by
/// declaration order). Implicit deadline: each job must complete before
/// the task's next release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicTask {
    /// Release period in microseconds (must be positive).
    pub period_us: u64,
    /// First-release offset in microseconds (must be `< period_us`).
    pub offset_us: u64,
    /// Worst-case execution time in microseconds (must be `<= period_us`;
    /// zero models a registered-but-idle task).
    pub wcet_us: u64,
    /// Fixed priority, 0 = highest.
    pub priority: u32,
}

/// One sporadic event-triggered task: arrivals at least
/// `min_interarrival_us` apart, each consuming `wcet_us`. Sporadic load
/// is stochastic per vehicle — [`crate::TaskSchedule`] draws actual
/// inter-arrivals from the per-vehicle SplitMix64 stream — so it never
/// enters the deterministic [`crate::ScheduleTimeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SporadicTask {
    /// Minimum inter-arrival time in microseconds (must be positive).
    pub min_interarrival_us: u64,
    /// Worst-case execution time per arrival in microseconds (must be
    /// `<= min_interarrival_us`).
    pub wcet_us: u64,
    /// Fixed priority, 0 = highest (informational; sporadic steal is
    /// applied to idle time regardless of priority).
    pub priority: u32,
}

/// Declarative task-set description, carried by blueprints and
/// `DseConfig`. Validated into a [`TaskSet`] via [`TaskSet::from_config`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSetConfig {
    /// Cyclic tasks.
    pub periodic: Vec<PeriodicTask>,
    /// Sporadic event-triggered tasks.
    pub sporadic: Vec<SporadicTask>,
    /// Minimum usable BIST slice in seconds: idle fragments shorter than
    /// this are not worth a BIST resume and count as gap time.
    pub min_slice_s: f64,
}

impl Default for TaskSetConfig {
    /// An empty task set: no tasks, no minimum slice — the schedule is
    /// pure idle and [`crate::TaskSchedule`] degenerates to
    /// [`crate::FlatBudget`] exactly.
    fn default() -> Self {
        TaskSetConfig {
            periodic: Vec::new(),
            sporadic: Vec::new(),
            min_slice_s: 0.0,
        }
    }
}

/// Typed errors of the task executive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedError {
    /// A periodic task declared a zero period.
    ZeroPeriod {
        /// Index into [`TaskSetConfig::periodic`].
        task: usize,
    },
    /// A periodic task's WCET exceeds its period (structurally
    /// unschedulable).
    WcetExceedsPeriod {
        /// Index into [`TaskSetConfig::periodic`].
        task: usize,
    },
    /// A periodic task's offset is not smaller than its period.
    OffsetExceedsPeriod {
        /// Index into [`TaskSetConfig::periodic`].
        task: usize,
    },
    /// A sporadic task declared a zero minimum inter-arrival.
    ZeroInterarrival {
        /// Index into [`TaskSetConfig::sporadic`].
        task: usize,
    },
    /// A sporadic task's WCET exceeds its minimum inter-arrival.
    SporadicWcetExceedsInterarrival {
        /// Index into [`TaskSetConfig::sporadic`].
        task: usize,
    },
    /// Worst-case utilization (periodic + sporadic) exceeds 1.
    Overutilized {
        /// The offending utilization.
        utilization: f64,
    },
    /// The period LCM overflows the supported hyperperiod range.
    HyperperiodOverflow,
    /// The task set releases more jobs per hyperperiod than the executive
    /// simulation is willing to expand (pathological period spreads).
    TimelineTooDense,
    /// `min_slice_s` is negative or not finite.
    InvalidMinSlice,
    /// A job was still running when its task's next release arrived.
    DeadlineMiss {
        /// Index into [`TaskSetConfig::periodic`].
        task: usize,
        /// Absolute time of the missed deadline in microseconds.
        at_us: u64,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::ZeroPeriod { task } => {
                write!(f, "periodic task {task}: period must be positive")
            }
            SchedError::WcetExceedsPeriod { task } => {
                write!(f, "periodic task {task}: WCET exceeds the period")
            }
            SchedError::OffsetExceedsPeriod { task } => {
                write!(
                    f,
                    "periodic task {task}: offset must be smaller than the period"
                )
            }
            SchedError::ZeroInterarrival { task } => {
                write!(
                    f,
                    "sporadic task {task}: minimum inter-arrival must be positive"
                )
            }
            SchedError::SporadicWcetExceedsInterarrival { task } => {
                write!(
                    f,
                    "sporadic task {task}: WCET exceeds the minimum inter-arrival"
                )
            }
            SchedError::Overutilized { utilization } => {
                write!(
                    f,
                    "task set is overutilized: worst-case utilization {utilization:.3} > 1"
                )
            }
            SchedError::HyperperiodOverflow => {
                write!(f, "period LCM exceeds the supported hyperperiod range")
            }
            SchedError::TimelineTooDense => {
                write!(
                    f,
                    "task set releases too many jobs per hyperperiod to simulate"
                )
            }
            SchedError::InvalidMinSlice => {
                write!(f, "minimum BIST slice must be finite and non-negative")
            }
            SchedError::DeadlineMiss { task, at_us } => {
                write!(
                    f,
                    "periodic task {task} missed its deadline at t = {at_us} us"
                )
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Hyperperiods past ~12.7 days of microseconds are rejected: the
/// executive simulates two of them, and nothing in the fleet model runs
/// task periods that long.
const MAX_HYPERPERIOD_US: u64 = 1 << 40;

/// Job releases the executive will expand over two hyperperiods before
/// declaring the config pathological ([`SchedError::TimelineTooDense`]).
const MAX_TIMELINE_JOBS: u64 = 1 << 22;

/// A validated task set: the config plus its exact hyperperiod.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    pub(crate) periodic: Vec<PeriodicTask>,
    pub(crate) sporadic: Vec<SporadicTask>,
    pub(crate) min_slice_s: f64,
    hyperperiod_us: u64,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl TaskSet {
    /// Validates `config` into an executable task set.
    ///
    /// # Errors
    ///
    /// Any structural [`SchedError`] listed on the variants above
    /// (everything except `DeadlineMiss`, which is dynamic and surfaces
    /// from [`TaskSet::timeline`]).
    pub fn from_config(config: &TaskSetConfig) -> Result<Self, SchedError> {
        if !config.min_slice_s.is_finite() || config.min_slice_s < 0.0 {
            return Err(SchedError::InvalidMinSlice);
        }
        for (task, t) in config.periodic.iter().enumerate() {
            if t.period_us == 0 {
                return Err(SchedError::ZeroPeriod { task });
            }
            if t.wcet_us > t.period_us {
                return Err(SchedError::WcetExceedsPeriod { task });
            }
            if t.offset_us >= t.period_us {
                return Err(SchedError::OffsetExceedsPeriod { task });
            }
        }
        for (task, t) in config.sporadic.iter().enumerate() {
            if t.min_interarrival_us == 0 {
                return Err(SchedError::ZeroInterarrival { task });
            }
            if t.wcet_us > t.min_interarrival_us {
                return Err(SchedError::SporadicWcetExceedsInterarrival { task });
            }
        }
        // Exact LCM over the integer periods; an empty periodic set gets
        // a nominal 1 s hyperperiod (the table is a single idle segment).
        let mut hyper = 1_000_000u64;
        if !config.periodic.is_empty() {
            hyper = 1;
            for t in &config.periodic {
                hyper = hyper
                    .checked_mul(t.period_us / gcd(hyper, t.period_us))
                    .filter(|&h| h <= MAX_HYPERPERIOD_US)
                    .ok_or(SchedError::HyperperiodOverflow)?;
            }
        }
        let jobs: u64 = config
            .periodic
            .iter()
            .map(|t| 2 * hyper / t.period_us)
            .sum();
        if jobs > MAX_TIMELINE_JOBS {
            return Err(SchedError::TimelineTooDense);
        }
        let set = TaskSet {
            periodic: config.periodic.clone(),
            sporadic: config.sporadic.clone(),
            min_slice_s: config.min_slice_s,
            hyperperiod_us: hyper,
        };
        let u = set.utilization();
        if u > 1.0 {
            return Err(SchedError::Overutilized { utilization: u });
        }
        Ok(set)
    }

    /// The exact LCM of the periodic task periods, in microseconds (a
    /// nominal 1 s for an empty periodic set).
    pub fn hyperperiod_us(&self) -> u64 {
        self.hyperperiod_us
    }

    /// Worst-case utilization: periodic `Σ wcet/period` plus sporadic
    /// `Σ wcet/min_interarrival`.
    pub fn utilization(&self) -> f64 {
        let periodic: f64 = self
            .periodic
            .iter()
            .map(|t| t.wcet_us as f64 / t.period_us as f64)
            .sum();
        let sporadic: f64 = self
            .sporadic
            .iter()
            .map(|t| t.wcet_us as f64 / t.min_interarrival_us as f64)
            .sum();
        periodic + sporadic
    }

    /// The cyclic tasks.
    pub fn periodic(&self) -> &[PeriodicTask] {
        &self.periodic
    }

    /// The sporadic event-triggered tasks.
    pub fn sporadic(&self) -> &[SporadicTask] {
        &self.sporadic
    }

    /// Minimum usable BIST slice in seconds.
    pub fn min_slice_s(&self) -> f64 {
        self.min_slice_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn periodic(period_us: u64, offset_us: u64, wcet_us: u64, priority: u32) -> PeriodicTask {
        PeriodicTask {
            period_us,
            offset_us,
            wcet_us,
            priority,
        }
    }

    #[test]
    fn hyperperiod_is_exact_lcm() {
        let cfg = TaskSetConfig {
            periodic: vec![
                periodic(6, 0, 1, 0),
                periodic(9, 0, 1, 1),
                periodic(4, 0, 1, 2),
            ],
            ..TaskSetConfig::default()
        };
        let set = TaskSet::from_config(&cfg).expect("valid set");
        assert_eq!(set.hyperperiod_us(), 36);
    }

    #[test]
    fn empty_set_is_pure_idle_with_nominal_hyperperiod() {
        let set = TaskSet::from_config(&TaskSetConfig::default()).expect("empty set valid");
        assert_eq!(set.hyperperiod_us(), 1_000_000);
        assert_eq!(set.utilization(), 0.0);
    }

    #[test]
    fn validation_rejects_degenerate_tasks() {
        let bad = |cfg: TaskSetConfig, want: SchedError| {
            assert_eq!(TaskSet::from_config(&cfg), Err(want));
        };
        bad(
            TaskSetConfig {
                periodic: vec![periodic(0, 0, 0, 0)],
                ..TaskSetConfig::default()
            },
            SchedError::ZeroPeriod { task: 0 },
        );
        bad(
            TaskSetConfig {
                periodic: vec![periodic(10, 0, 11, 0)],
                ..TaskSetConfig::default()
            },
            SchedError::WcetExceedsPeriod { task: 0 },
        );
        bad(
            TaskSetConfig {
                periodic: vec![periodic(10, 10, 1, 0)],
                ..TaskSetConfig::default()
            },
            SchedError::OffsetExceedsPeriod { task: 0 },
        );
        bad(
            TaskSetConfig {
                sporadic: vec![SporadicTask {
                    min_interarrival_us: 0,
                    wcet_us: 0,
                    priority: 0,
                }],
                ..TaskSetConfig::default()
            },
            SchedError::ZeroInterarrival { task: 0 },
        );
        bad(
            TaskSetConfig {
                sporadic: vec![SporadicTask {
                    min_interarrival_us: 5,
                    wcet_us: 6,
                    priority: 0,
                }],
                ..TaskSetConfig::default()
            },
            SchedError::SporadicWcetExceedsInterarrival { task: 0 },
        );
        bad(
            TaskSetConfig {
                min_slice_s: f64::NAN,
                ..TaskSetConfig::default()
            },
            SchedError::InvalidMinSlice,
        );
    }

    #[test]
    fn overutilization_is_rejected_across_task_kinds() {
        let cfg = TaskSetConfig {
            periodic: vec![periodic(10, 0, 6, 0)],
            sporadic: vec![SporadicTask {
                min_interarrival_us: 10,
                wcet_us: 5,
                priority: 1,
            }],
            min_slice_s: 0.0,
        };
        match TaskSet::from_config(&cfg) {
            Err(SchedError::Overutilized { utilization }) => {
                assert!((utilization - 1.1).abs() < 1e-12);
            }
            other => panic!("expected Overutilized, got {other:?}"),
        }
    }

    #[test]
    fn hyperperiod_overflow_is_typed() {
        // Pairwise-coprime large periods push the LCM past the cap.
        let cfg = TaskSetConfig {
            periodic: vec![
                periodic((1 << 25) - 1, 0, 0, 0),
                periodic(1 << 25, 0, 0, 1),
                periodic((1 << 25) + 1, 0, 0, 2),
            ],
            ..TaskSetConfig::default()
        };
        assert_eq!(
            TaskSet::from_config(&cfg),
            Err(SchedError::HyperperiodOverflow)
        );
    }

    #[test]
    fn dense_timelines_are_rejected() {
        // 1 us period against a 1 s hyperperiod partner: 2M+ releases.
        let cfg = TaskSetConfig {
            periodic: vec![periodic(1, 0, 0, 0), periodic(10_000_000, 0, 0, 1)],
            ..TaskSetConfig::default()
        };
        assert_eq!(
            TaskSet::from_config(&cfg),
            Err(SchedError::TimelineTooDense)
        );
    }

    #[test]
    fn errors_render() {
        let e = SchedError::DeadlineMiss {
            task: 3,
            at_us: 900,
        };
        assert!(e.to_string().contains("task 3"));
        assert!(e.to_string().contains("900"));
    }
}
