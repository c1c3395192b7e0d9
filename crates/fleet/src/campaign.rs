//! The deterministic fleet campaign engine: seeded vehicle simulation
//! feeding the gateway, which builds the report.
//!
//! A [`Campaign`] validates its configuration and simulates vehicles; the
//! [`GatewayService`] is the only place a [`FleetReport`] is built.
//! [`Campaign::run`] feeds every vehicle into a gateway provisioned for
//! the fleet and takes the horizon snapshot (DESIGN.md §10): arrivals fold
//! into the gateway's block ledger as they come, the snapshot sorts the
//! uploads into `(time_s, vehicle)` order, diagnoses the keys it has not
//! cached yet, and [`fold_report`](crate::snapshot::fold_report)
//! assembles batches, latency statistics and the coverage curve. No
//! per-vehicle arrival vector is ever materialized — peak memory is
//! O(detections + blocks), not O(fleet).
//!
//! Each vehicle's arrival is a pure function of the campaign seed and its
//! index, and the gateway's snapshot is a pure function of the set of
//! folded arrivals, so the [`FleetReport`] is **bit-identical at any
//! thread count**.

use std::sync::mpsc;
use std::time::Instant;

use eea_bist::{CutFamily, MarchTest};
use eea_faultsim::resolve_threads;
use eea_moea::Rng;
use eea_sched::{FlatBudget, SchedPlan};

use crate::blueprint::VehicleBlueprint;
use crate::cut::{CutModel, FaultModels};
use crate::error::FleetError;
use crate::gateway::{GatewayConfig, GatewayService, VehicleArrival, DEFAULT_QUEUE_CAPACITY};
use crate::report::FleetReport;
use crate::shutoff::ShutoffModel;
use crate::vehicle::{simulate_vehicle, BlueprintTemplate, FastMod};

/// Configuration of a fleet campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Fleet size.
    pub vehicles: u32,
    /// Fraction of vehicles a defect is seeded into (subject to the drawn
    /// blueprint offering a diagnosable session).
    pub defect_fraction: f64,
    /// Campaign horizon in seconds.
    pub horizon_s: f64,
    /// Campaign seed; per-vehicle seeds derive from it.
    pub seed: u64,
    /// Worker threads for vehicle simulation and the gateway's diagnosis
    /// stage; `0` = auto (all cores, `EEA_THREADS` overrides).
    pub threads: usize,
    /// Shut-off event model vehicles draw their schedules from.
    pub shutoff: ShutoffModel,
    /// Gateway aggregation batch size (uploads per batch).
    pub batch_size: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            vehicles: 1_000,
            defect_fraction: 0.02,
            horizon_s: 30.0 * 86_400.0,
            seed: 0xF1EE7CA4,
            threads: 0,
            shutoff: ShutoffModel::default(),
            batch_size: 64,
        }
    }
}

/// Deterministic per-vehicle seed: one SplitMix64 output step over the
/// campaign seed mixed with the vehicle index ([`Rng::mix`], no
/// intermediate RNG state on the hot path). A pure function of
/// `(campaign_seed, index)` — independent of thread count, chunking, and
/// of whether the vehicle is fed through [`Campaign::feed`] or drawn from
/// [`Campaign::arrivals`].
fn vehicle_seed(campaign_seed: u64, index: u32) -> u64 {
    Rng::mix(campaign_seed.wrapping_add(u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Wall-clock seconds of the pipeline stages, as measured by
/// [`Campaign::run_timed`] and [`GatewayService::snapshot_at_timed`].
/// Kept **out** of [`FleetReport`] so reports stay comparable bit-for-bit
/// across machines and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// Vehicle simulation fused with ingest: the whole feed of the fleet
    /// into the gateway, block-ledger folds included. `0` for a bare
    /// snapshot, whose arrivals were simulated elsewhere.
    pub simulate_s: f64,
    /// The snapshot's sort of the uploads folded since the previous
    /// snapshot into `(time_s, vehicle)` order, their linear merge into
    /// the gateway's sorted upload log, and the search for the prefix
    /// visible at the snapshot time.
    pub merge_s: f64,
    /// Diagnosis at first sight: collecting the uncached diagnosis keys
    /// of the uploads folded since the previous snapshot, visible or not,
    /// plus the parallel dictionary lookups.
    pub diagnose_s: f64,
    /// Final serial scan over the visible prefix: census totals,
    /// truncation count, findings, batches, latency stats, coverage
    /// curve, per-ECU aggregation.
    pub fold_s: f64,
    /// Pure dictionary-lookup portion of the diagnose stage: the parallel
    /// `diagnose_faults` call, excluding missing-key collection.
    pub diagnose_lookup_s: f64,
}

/// A validated, ready-to-run campaign over a CUT model and a blueprint
/// set. It is also the campaign-invariant simulation context: everything
/// a vehicle reads besides its seed is built here once, at validation,
/// and shared read-only by every simulation worker.
#[derive(Debug)]
pub struct Campaign<'a> {
    pub(crate) models: FaultModels<'a>,
    pub(crate) blueprints: &'a [VehicleBlueprint],
    /// Per-blueprint schedule plans, indexed like `blueprints`; `None`
    /// entries keep the flat-budget window source.
    pub(crate) sched_plans: Vec<Option<SchedPlan>>,
    /// Per-blueprint work templates, indexed like `blueprints`.
    pub(crate) templates: Vec<BlueprintTemplate>,
    /// `% blueprints.len()` for the per-vehicle blueprint draw.
    pub(crate) blueprint_mod: FastMod,
    /// The flat-budget window source: the hoisted `min + unit()·range`
    /// coefficients of the shut-off model, shared with `eea-sched` so
    /// schedule-derived sources carve the same macro stream.
    pub(crate) flat: FlatBudget,
    config: CampaignConfig,
}

impl<'a> Campaign<'a> {
    /// Validates the configuration against the CUT model and blueprints.
    /// Equivalent to [`with_models`](Self::with_models) without an SRAM
    /// model — blueprints selecting SRAM sessions are rejected.
    ///
    /// # Errors
    ///
    /// * [`FleetError::EmptyFleet`] for zero vehicles,
    /// * [`FleetError::InvalidHorizon`] for a non-positive or non-finite
    ///   horizon,
    /// * [`FleetError::InvalidDefectFraction`] outside `[0, 1]`,
    /// * [`FleetError::InvalidShutoffModel`] for degenerate window/gap
    ///   bounds,
    /// * [`FleetError::ZeroBatchSize`] for a zero gateway batch size,
    /// * [`FleetError::NoDiagnosableBlueprint`] when no blueprint could
    ///   ever deliver fail data,
    /// * [`FleetError::Sched`] when a blueprint's task set is invalid or
    ///   misses a deadline,
    /// * [`FleetError::MissingSramModel`] when a blueprint carries a
    ///   diagnosable SRAM session.
    pub fn new(
        cut: &'a CutModel,
        blueprints: &'a [VehicleBlueprint],
        config: CampaignConfig,
    ) -> Result<Self, FleetError> {
        Campaign::with_models(cut, None, blueprints, config)
    }

    /// Validates a campaign over heterogeneous CUT families: the logic
    /// model plus an optional March-test SRAM model. Per-blueprint task
    /// sets are folded into [`SchedPlan`]s here, so every schedulability
    /// problem ([`eea_sched::SchedError::DeadlineMiss`] included)
    /// surfaces as a typed error at construction, never mid-simulation;
    /// the blueprints' work templates and the flat window source are
    /// built here too.
    ///
    /// # Errors
    ///
    /// The same errors as [`new`](Self::new); `MissingSramModel` only
    /// when `sram` is `None` and a blueprint needs it.
    pub fn with_models(
        cut: &'a CutModel,
        sram: Option<&'a MarchTest>,
        blueprints: &'a [VehicleBlueprint],
        config: CampaignConfig,
    ) -> Result<Self, FleetError> {
        if config.vehicles == 0 {
            return Err(FleetError::EmptyFleet);
        }
        if !config.horizon_s.is_finite() || config.horizon_s <= 0.0 {
            return Err(FleetError::InvalidHorizon(config.horizon_s));
        }
        if !(0.0..=1.0).contains(&config.defect_fraction) {
            return Err(FleetError::InvalidDefectFraction(config.defect_fraction));
        }
        config.shutoff.validate()?;
        if config.batch_size == 0 {
            return Err(FleetError::ZeroBatchSize);
        }
        if !blueprints.iter().any(VehicleBlueprint::is_campaign_capable) {
            return Err(FleetError::NoDiagnosableBlueprint);
        }
        // Degenerate channel knobs surface at construction, never
        // mid-simulation — the same policy as schedules and transports.
        for b in blueprints {
            b.channel.validate()?;
        }
        if sram.is_none()
            && blueprints.iter().any(|b| {
                b.sessions
                    .iter()
                    .any(|p| p.is_diagnosable() && p.family == CutFamily::Sram)
            })
        {
            return Err(FleetError::MissingSramModel);
        }
        let sched_plans = blueprints
            .iter()
            .map(|b| b.task_set.as_ref().map(SchedPlan::build).transpose())
            .collect::<Result<Vec<_>, _>>()?;
        let shutoff = config.shutoff;
        Ok(Campaign {
            models: FaultModels { logic: cut, sram },
            blueprints,
            sched_plans,
            templates: blueprints.iter().map(BlueprintTemplate::new).collect(),
            blueprint_mod: FastMod::new(blueprints.len() as u64),
            flat: FlatBudget::from_bounds(
                shutoff.min_gap_s,
                shutoff.max_gap_s,
                shutoff.min_window_s,
                shutoff.max_window_s,
            ),
            config,
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the campaign and aggregates the fleet report.
    pub fn run(&self) -> FleetReport {
        self.run_timed().0
    }

    /// Like [`run`](Self::run), but also reports per-stage wall-clock
    /// timings (simulate / merge / diagnose / fold). The report itself
    /// carries no timing fields, so it stays bit-comparable.
    ///
    /// The one-shot run is feed-everything-then-snapshot: every vehicle
    /// is simulated into a fresh [`gateway`](Self::gateway), and the
    /// report is its snapshot at the horizon.
    pub fn run_timed(&self) -> (FleetReport, StageTimings) {
        let t = Instant::now();
        let mut svc = self.gateway();
        self.feed_fleet(&mut svc);
        let simulate_s = t.elapsed().as_secs_f64();
        let (snapshot, mut timings) = svc.snapshot_at_timed(self.config.horizon_s);
        timings.simulate_s = simulate_s;
        (snapshot.report, timings)
    }

    /// Provisions a [`GatewayService`] for this campaign's fleet: same
    /// CUT, fleet size, horizon, batch size and thread count, with the
    /// default ingest-queue bound. The service is independent of the
    /// campaign object afterwards — ingest arrivals from
    /// [`arrivals`](Self::arrivals), from [`feed`](Self::feed), or build
    /// [`VehicleArrival`]s yourself.
    ///
    /// Infallible: campaign validation already checked every bound the
    /// gateway checks, and the queue bound is the nonzero
    /// [`DEFAULT_QUEUE_CAPACITY`].
    pub fn gateway(&self) -> GatewayService<'a> {
        GatewayService::with_models_unchecked(
            self.models,
            GatewayConfig {
                vehicles: self.config.vehicles,
                horizon_s: self.config.horizon_s,
                batch_size: self.config.batch_size,
                queue_capacity: DEFAULT_QUEUE_CAPACITY,
                shards: 0,
                threads: self.config.threads,
            },
        )
    }

    /// Streams the whole fleet into `svc` under backpressure: simulation
    /// workers drain [`Arrivals`] over contiguous vehicle-index ranges in
    /// batches through a bounded channel, the calling thread folds them
    /// via [`GatewayService::accept`] (drain on a full queue — the trusted
    /// producer blocks instead of shedding). Arrival *interleaving* across
    /// workers is nondeterministic; the snapshot taken afterwards is not,
    /// by the gateway's set-purity contract.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownVehicle`], naming the first vehicle `svc`
    /// cannot hold, if `svc` was provisioned for a smaller fleet than
    /// this campaign simulates. Checked before anything is simulated, so
    /// an undersized service folds nothing.
    pub fn feed(&self, svc: &mut GatewayService<'_>) -> Result<(), FleetError> {
        let fleet = svc.config().vehicles;
        if fleet < self.config.vehicles {
            return Err(FleetError::UnknownVehicle {
                vehicle: fleet,
                fleet,
            });
        }
        self.feed_fleet(svc);
        Ok(())
    }

    /// The feed loop behind [`feed`](Self::feed) and
    /// [`run_timed`](Self::run_timed), for a service that holds the whole
    /// fleet. There `accept` can only reject a malformed frame, which the
    /// gateway already counts (`malformed`, and `rejected_uploads` in the
    /// report's robustness block), so the loop drops its result.
    fn feed_fleet(&self, svc: &mut GatewayService<'_>) {
        /// Vehicles per channel send: batches amortize channel and fold
        /// bookkeeping without growing the in-flight footprint past a few
        /// MB at any thread count.
        const FEED_BATCH: usize = 4_096;
        let n = self.config.vehicles;
        let threads = resolve_threads(self.config.threads).clamp(1, n as usize);
        if threads == 1 {
            for a in self.arrivals() {
                let _ = svc.accept(a);
            }
            return;
        }
        // The gateway's block ledger makes fold order irrelevant, so the
        // workers take plain index ranges.
        let chunk = n.div_ceil(u32::try_from(threads).unwrap_or(n));
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel::<Vec<VehicleArrival>>(2 * threads);
            for lo in (0..n).step_by(chunk as usize) {
                let mut arrivals = Arrivals {
                    campaign: self,
                    next: lo,
                    end: n.min(lo.saturating_add(chunk)),
                };
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let batch: Vec<_> = arrivals.by_ref().take(FEED_BATCH).collect();
                    // A closed channel means the consumer unwound; stop
                    // producing.
                    if batch.is_empty() || tx.send(batch).is_err() {
                        return;
                    }
                });
            }
            drop(tx);
            for batch in rx {
                for arrival in batch {
                    let _ = svc.accept(arrival);
                }
            }
        });
    }

    /// A serial iterator over the fleet's [`VehicleArrival`]s in vehicle
    /// index order — the soak bench's and tests' handle for driving a
    /// [`GatewayService`] at a controlled cadence, and the serial feed's
    /// loop (each parallel feed worker drains one over its own range).
    /// O(1) memory. Borrows the campaign (the simulation context lives in
    /// it), so the iterator cannot outlive `self`.
    pub fn arrivals(&self) -> Arrivals<'_> {
        Arrivals {
            campaign: self,
            next: 0,
            end: self.config.vehicles,
        }
    }
}

/// The serial arrival stream behind [`Campaign::arrivals`]: simulates
/// vehicles `next..end` of its campaign, one per item — the one place a
/// vehicle is simulated.
pub struct Arrivals<'a> {
    campaign: &'a Campaign<'a>,
    next: u32,
    end: u32,
}

impl Iterator for Arrivals<'_> {
    type Item = VehicleArrival;

    fn next(&mut self) -> Option<VehicleArrival> {
        if self.next >= self.end {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let seed = vehicle_seed(self.campaign.config.seed, i);
        Some(simulate_vehicle(i, self.campaign, seed))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Checked, not `as`: u32 → usize only narrows on exotic 16-bit
        // targets, but the cast sweep leaves no silent truncation behind.
        let left = usize::try_from(self.end - self.next).unwrap_or(usize::MAX);
        (left, Some(left))
    }
}

impl ExactSizeIterator for Arrivals<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::EcuSessionPlan;
    use crate::cut::CutConfig;
    use crate::vehicle::Upload;
    use eea_can::ImpairmentKind;
    use eea_model::ResourceId;

    fn small_cut() -> CutModel {
        CutModel::build(CutConfig {
            gates: 80,
            patterns: 64,
            window: 8,
            ..CutConfig::default()
        })
        .expect("substrate builds")
    }

    fn capable_blueprint() -> VehicleBlueprint {
        VehicleBlueprint {
            implementation_index: 0,
            sessions: vec![EcuSessionPlan {
                ecu: ResourceId::from_index(2),
                profile_id: 1,
                coverage: 0.99,
                session_s: 0.005,
                transfer_s: 900.0,
                local_storage: false,
                upload_bandwidth_bytes_per_s: 200.0,
                family: CutFamily::Logic,
            }],
            shutoff_budget_s: 2_000.0,
            transport: eea_can::TransportKind::MirroredCan,
            channel: eea_can::ChannelConfig::Clean,
            task_set: None,
        }
    }

    #[test]
    fn config_validation_catches_degenerate_campaigns() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let bad = |f: fn(&mut CampaignConfig)| {
            let mut cfg = CampaignConfig::default();
            f(&mut cfg);
            Campaign::new(&cut, &bp, cfg).err()
        };
        assert_eq!(bad(|c| c.vehicles = 0), Some(FleetError::EmptyFleet));
        assert_eq!(
            bad(|c| c.horizon_s = -1.0),
            Some(FleetError::InvalidHorizon(-1.0))
        );
        assert_eq!(
            bad(|c| c.defect_fraction = 1.5),
            Some(FleetError::InvalidDefectFraction(1.5))
        );
        assert_eq!(bad(|c| c.batch_size = 0), Some(FleetError::ZeroBatchSize));
        let mut noisy = capable_blueprint();
        noisy.channel = eea_can::ChannelConfig::Noisy(eea_can::NoisyChannel {
            frame_error_rate: 2.0,
            ..eea_can::NoisyChannel::default()
        });
        assert!(matches!(
            Campaign::new(&cut, &[noisy], CampaignConfig::default()),
            Err(FleetError::Channel(_))
        ));
        let mut incapable = capable_blueprint();
        incapable.sessions[0].upload_bandwidth_bytes_per_s = 0.0;
        assert_eq!(
            Campaign::new(&cut, &[incapable], CampaignConfig::default()).err(),
            Some(FleetError::NoDiagnosableBlueprint)
        );
    }

    #[test]
    fn seeded_defects_are_detected_and_localized() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let cfg = CampaignConfig {
            vehicles: 200,
            defect_fraction: 0.25,
            horizon_s: 14.0 * 86_400.0,
            seed: 11,
            threads: 1,
            ..CampaignConfig::default()
        };
        let report = Campaign::new(&cut, &bp, cfg).expect("valid").run();
        assert!(report.defective > 0, "fraction 0.25 of 200 seeds defects");
        assert_eq!(
            report.detected,
            u64::from(report.defective),
            "horizon is generous"
        );
        assert_eq!(report.localized, report.detected);
        assert_eq!(report.latency.count, report.detected);
        assert!(report.latency.min_s > 0.0);
        let last = report.coverage_over_time.last().expect("curve non-empty");
        assert!((last.1 - 1.0).abs() < 1e-12);
        assert_eq!(report.per_ecu.len(), 1);
        assert_eq!(report.per_ecu[0].seeded, report.defective);
        assert!(
            report.robustness.is_none(),
            "clean-channel campaign reports no robustness axis"
        );
    }

    #[test]
    fn window_lost_then_retransmitted_sessions_diagnose() {
        // Sessions whose upload both lost a fail-memory window in transit
        // *and* had frames retransmitted — the satellite boundary case —
        // must flow through the diagnosis path as degraded entries, never
        // as errors or drops.
        let cut = small_cut();
        let mut noisy = capable_blueprint();
        noisy.channel = eea_can::ChannelConfig::Noisy(eea_can::NoisyChannel {
            frame_error_rate: 0.3,
            corruption_rate: 0.0,
            window_loss_rate: 0.5,
            truncation_cap_bytes: u64::MAX,
            seed: 3,
        });
        let bp = [noisy];
        let cfg = CampaignConfig {
            vehicles: 200,
            defect_fraction: 1.0,
            horizon_s: 14.0 * 86_400.0,
            seed: 11,
            threads: 1,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::new(&cut, &bp, cfg.clone()).expect("valid");
        let uploads: Vec<Upload> = campaign.arrivals().filter_map(|a| a.upload).collect();
        let lost_and_resent = uploads
            .iter()
            .filter(|u| {
                matches!(u.impairment.kind, ImpairmentKind::WindowLost { .. })
                    && u.retransmitted_frames > 0
            })
            .count();
        assert!(
            lost_and_resent > 0,
            "aggressive rates must produce window-lost uploads on retransmitting sessions"
        );
        let window_lost = uploads
            .iter()
            .filter(|u| matches!(u.impairment.kind, ImpairmentKind::WindowLost { .. }))
            .count();

        let report = Campaign::new(&cut, &bp, cfg).expect("valid").run();
        assert_eq!(
            report.detected,
            u64::from(report.defective),
            "partial fail memories degrade ranks, they never drop detections"
        );
        let rob = report
            .robustness
            .expect("impaired campaign reports the robustness axis");
        assert_eq!(
            rob.window_lost_uploads,
            u64::try_from(window_lost).expect("fits"),
            "every window-lost upload is accounted"
        );
        assert!(rob.retransmitted_frames > 0, "30 % frame errors retransmit");
        assert!(rob.retransmit_overhead_s > 0.0, "retransmissions cost time");
        assert_eq!(rob.corrupted_uploads, 0, "corruption disabled");
        assert_eq!(rob.rejected_uploads, 0, "simulated frames are well-formed");
        for point in &rob.rank_cdf {
            assert!(point.impaired_le <= rob.impaired_uploads);
            assert!(
                point.impaired_le <= point.clean_le,
                "losing a window never sharpens rank at bound {}",
                point.bound
            );
        }
    }

    #[test]
    fn report_is_bit_identical_across_thread_counts() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let mut cfg = CampaignConfig {
            vehicles: 300,
            defect_fraction: 0.1,
            horizon_s: 7.0 * 86_400.0,
            seed: 5,
            threads: 1,
            ..CampaignConfig::default()
        };
        let baseline = Campaign::new(&cut, &bp, cfg.clone()).expect("valid").run();
        for threads in [2, 3, 8] {
            cfg.threads = threads;
            let report = Campaign::new(&cut, &bp, cfg.clone()).expect("valid").run();
            assert_eq!(report, baseline, "threads={threads}");
        }
    }

    /// Regression for the silent `as u32` wraps in the report counters:
    /// the derived counters are u64 now — the `let _: u64` bindings pin
    /// the widths at the type level, so a narrowing refactor fails to
    /// compile — and batch ordinals are exact at batch size 1 (the old
    /// cast wrapped past ~4.29G ordinals).
    #[test]
    fn report_counters_are_wide_and_batch_ordinals_exact() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let cfg = CampaignConfig {
            vehicles: 150,
            defect_fraction: 0.4,
            horizon_s: 14.0 * 86_400.0,
            seed: 21,
            threads: 1,
            batch_size: 1,
            ..CampaignConfig::default()
        };
        let report = Campaign::new(&cut, &bp, cfg).expect("valid").run();
        let _: u64 = report.detected;
        let _: u64 = report.localized;
        let _: u64 = report.batches;
        let _: u64 = report.latency.count;
        assert!(report.detected > 1);
        for (k, f) in report.findings.iter().enumerate() {
            assert_eq!(f.batch, k as u64, "batch_size 1: ordinal == index");
        }
        assert_eq!(report.batches, report.detected);
    }

    /// The one-shot run is a thin wrapper over the gateway: feeding every
    /// arrival by hand and snapshotting at the horizon must equal `run()`.
    #[test]
    fn one_shot_run_is_the_gateway_wrapper() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let cfg = CampaignConfig {
            vehicles: 260,
            defect_fraction: 0.3,
            horizon_s: 14.0 * 86_400.0,
            seed: 3,
            threads: 2,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::new(&cut, &bp, cfg).expect("valid");
        let run = campaign.run();

        let mut svc = campaign.gateway();
        for arrival in campaign.arrivals() {
            svc.accept(arrival)
                .expect("trusted path drains, never sheds");
        }
        let snap = svc.snapshot_at(campaign.config().horizon_s);
        assert_eq!(snap.report, run, "manual ingest == run()");
        assert_eq!(snap.ingested, u64::from(campaign.config().vehicles));
        assert_eq!(snap.shed, 0);
        assert_eq!(snap.duplicates, 0);
    }

    /// `feed` into a service provisioned for fewer vehicles than the
    /// campaign fails typed before folding anything, serial and parallel.
    #[test]
    fn feed_into_an_undersized_gateway_folds_nothing() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        for threads in [1, 4] {
            let cfg = CampaignConfig {
                vehicles: 300,
                defect_fraction: 0.3,
                threads,
                ..CampaignConfig::default()
            };
            let campaign = Campaign::new(&cut, &bp, cfg).expect("valid");
            let mut svc = GatewayService::new(
                &cut,
                GatewayConfig {
                    vehicles: 200,
                    ..GatewayConfig::default()
                },
            )
            .expect("provision");
            assert_eq!(
                campaign.feed(&mut svc),
                Err(FleetError::UnknownVehicle {
                    vehicle: 200,
                    fleet: 200
                }),
                "threads={threads}"
            );
            assert_eq!(svc.drain(), 0, "nothing queued, threads={threads}");
            assert_eq!(svc.ingested(), 0, "nothing folded, threads={threads}");
        }
    }

    #[test]
    fn stage_timings_cover_every_stage() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let cfg = CampaignConfig {
            vehicles: 100,
            defect_fraction: 0.5,
            threads: 1,
            ..CampaignConfig::default()
        };
        let (report, timings) = Campaign::new(&cut, &bp, cfg).expect("valid").run_timed();
        assert!(report.detected > 0);
        assert!(timings.simulate_s >= 0.0);
        assert!(timings.merge_s >= 0.0);
        assert!(timings.diagnose_s >= 0.0);
        assert!(timings.fold_s >= 0.0);
    }
}
