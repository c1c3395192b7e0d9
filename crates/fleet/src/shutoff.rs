//! Shut-off event model.
//!
//! The paper runs BIST sessions while a vehicle is parked and the ECU
//! would otherwise power down — the *shut-off* events of Eq. (5). A fleet
//! campaign sees each vehicle alternate between driving gaps (no BIST)
//! and shut-off windows (BIST may run, up to the implementation's Eq. (5)
//! shut-off budget per window). Windows and gaps are drawn uniformly from
//! per-vehicle ranges with the vehicle's own seeded RNG, so the schedule
//! is deterministic per vehicle and independent of thread count. The
//! draw itself is [`eea_sched::FlatBudget`]; this model holds and checks
//! its bounds.

use crate::error::FleetError;

/// Uniform ranges (seconds) the per-vehicle shut-off schedule is drawn
/// from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShutoffModel {
    /// Shortest driving gap between two shut-off events.
    pub min_gap_s: f64,
    /// Longest driving gap between two shut-off events.
    pub max_gap_s: f64,
    /// Shortest shut-off window.
    pub min_window_s: f64,
    /// Longest shut-off window.
    pub max_window_s: f64,
}

impl Default for ShutoffModel {
    fn default() -> Self {
        // A commuter-style duty cycle: parked 10 min – 30 min several
        // times a day, driving 1 h – 3 h in between.
        ShutoffModel {
            min_gap_s: 3_600.0,
            max_gap_s: 10_800.0,
            min_window_s: 600.0,
            max_window_s: 1_800.0,
        }
    }
}

impl ShutoffModel {
    /// Validates the ranges: positive, finite, not inverted.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidShutoffModel`] on degenerate bounds.
    pub fn validate(&self) -> Result<(), FleetError> {
        let bounds = [
            self.min_gap_s,
            self.max_gap_s,
            self.min_window_s,
            self.max_window_s,
        ];
        if bounds.iter().any(|b| !b.is_finite() || *b <= 0.0)
            || self.min_gap_s > self.max_gap_s
            || self.min_window_s > self.max_window_s
        {
            return Err(FleetError::InvalidShutoffModel);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_valid() {
        assert!(ShutoffModel::default().validate().is_ok());
        // min == max is valid too: fixed-length gaps and windows.
        let point = ShutoffModel {
            min_gap_s: 100.0,
            max_gap_s: 100.0,
            min_window_s: 50.0,
            max_window_s: 50.0,
        };
        assert!(point.validate().is_ok());
    }

    #[test]
    fn degenerate_models_are_rejected() {
        let m = ShutoffModel {
            min_window_s: 0.0,
            ..ShutoffModel::default()
        };
        assert_eq!(m.validate(), Err(FleetError::InvalidShutoffModel));
        let m = ShutoffModel {
            min_gap_s: ShutoffModel::default().max_gap_s + 1.0,
            ..ShutoffModel::default()
        };
        assert_eq!(m.validate(), Err(FleetError::InvalidShutoffModel));
        let m = ShutoffModel {
            max_window_s: f64::INFINITY,
            ..ShutoffModel::default()
        };
        assert_eq!(m.validate(), Err(FleetError::InvalidShutoffModel));
    }

    #[test]
    fn zero_length_windows_and_gaps_are_rejected() {
        // A zero-length window bound — min, max, or both — is degenerate:
        // the campaign could open windows no BIST step fits into.
        for bad in [0.0, -1.0] {
            let m = ShutoffModel {
                min_window_s: bad,
                max_window_s: bad,
                ..ShutoffModel::default()
            };
            assert_eq!(m.validate(), Err(FleetError::InvalidShutoffModel));
            let m = ShutoffModel {
                min_gap_s: bad,
                ..ShutoffModel::default()
            };
            assert_eq!(m.validate(), Err(FleetError::InvalidShutoffModel));
        }
    }

    #[test]
    fn window_exactly_the_minimum_bist_slice_is_emitted() {
        // Schedule-derived windows filter idle slices with an *inclusive*
        // minimum: a 10 s period with 5 s of work leaves idle segments of
        // exactly 5 s, and with `min_slice_s` also 5 s every emitted
        // window must be exactly that boundary value — off-by-one in the
        // filter would silence the schedule entirely.
        use eea_moea::Rng;
        use eea_sched::{
            FlatBudget, PeriodicTask, SchedPlan, TaskSchedule, TaskSetConfig, WindowSource,
        };
        let cfg = TaskSetConfig {
            periodic: vec![PeriodicTask {
                period_us: 10_000_000,
                offset_us: 0,
                wcet_us: 5_000_000,
                priority: 0,
            }],
            sporadic: vec![],
            min_slice_s: 5.0,
        };
        let plan = SchedPlan::build(&cfg).expect("valid plan");
        let flat = FlatBudget::from_bounds(100.0, 100.0, 1_000.0, 1_000.0);
        let mut src = TaskSchedule::new(flat, &plan, 1e9);
        let mut rng = Rng::new(5);
        for _ in 0..50 {
            let (gap, window) = src.next_window(&mut rng);
            assert!(gap > 0.0);
            assert_eq!(window, 5.0, "boundary slices pass the inclusive filter");
        }
    }

    #[test]
    fn horizon_straddling_windows_respect_the_horizon() {
        // Windows longer than the whole campaign horizon: each opens
        // before the horizon and straddles it. The campaign must accept
        // the model, use those windows, and never report a detection past
        // the horizon (sessions finishing inside the straddling tail are
        // unobservable).
        use crate::blueprint::{EcuSessionPlan, VehicleBlueprint};
        use crate::campaign::{Campaign, CampaignConfig};
        use crate::cut::{CutConfig, CutModel};
        use eea_bist::CutFamily;
        use eea_model::ResourceId;

        let cut = CutModel::build(CutConfig {
            gates: 80,
            patterns: 64,
            window: 8,
            ..CutConfig::default()
        })
        .expect("substrate builds");
        let bp = [VehicleBlueprint {
            implementation_index: 0,
            sessions: vec![EcuSessionPlan {
                ecu: ResourceId::from_index(0),
                profile_id: 1,
                coverage: 0.99,
                session_s: 0.005,
                transfer_s: 0.0,
                local_storage: true,
                upload_bandwidth_bytes_per_s: 400.0,
                family: CutFamily::Logic,
            }],
            shutoff_budget_s: 2_000.0,
            transport: eea_can::TransportKind::MirroredCan,
            channel: eea_can::ChannelConfig::Clean,
            task_set: None,
        }];
        let horizon_s = 1_000.0;
        let cfg = CampaignConfig {
            vehicles: 200,
            defect_fraction: 1.0,
            horizon_s,
            seed: 77,
            threads: 1,
            shutoff: ShutoffModel {
                min_gap_s: 400.0,
                max_gap_s: 600.0,
                min_window_s: 2_000.0,
                max_window_s: 3_000.0,
            },
            ..CampaignConfig::default()
        };
        let report = Campaign::new(&cut, &bp, cfg)
            .expect("straddling windows are a valid model")
            .run();
        assert!(report.windows_used > 0, "pre-horizon starts open windows");
        assert!(report.detected > 0, "work completes inside the straddle");
        for finding in &report.findings {
            assert!(
                finding.detected_at_s <= horizon_s,
                "no detection is observable past the horizon: {}",
                finding.detected_at_s
            );
        }
    }
}
