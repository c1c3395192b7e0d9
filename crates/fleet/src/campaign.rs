//! The deterministic fleet campaign engine: seeded vehicle simulation
//! feeding the gateway, which builds the report.
//!
//! A [`Campaign`] validates its configuration and simulates vehicles; the
//! [`GatewayService`] is the only place a [`FleetReport`] is built.
//! [`Campaign::run`] feeds every vehicle into a gateway provisioned for
//! the fleet and takes the horizon snapshot (DESIGN.md §10): arrivals fold
//! into the gateway's block ledger as they come, the snapshot sorts the
//! uploads into `(time_s, vehicle)` order, diagnoses the keys it has not
//! cached yet, and [`fold_report`] assembles batches, latency statistics
//! and the coverage curve. No per-vehicle outcome vector is ever
//! materialized — peak memory is O(detections + blocks), not O(fleet).
//!
//! Each vehicle's outcome is a pure function of the campaign seed and its
//! index, and the gateway's snapshot is a pure function of the set of
//! folded arrivals, so the [`FleetReport`] is **bit-identical at any
//! thread count**.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Instant;

use eea_bist::{CutFamily, FailData, MarchTest, FAIL_ENTRY_BYTES};
use eea_can::{Impairment, ImpairmentKind};
use eea_faultsim::resolve_threads;
use eea_model::ResourceId;
use eea_moea::Rng;
use eea_sched::SchedPlan;

use crate::blueprint::VehicleBlueprint;
use crate::cut::CutModel;
use crate::error::FleetError;
use crate::gateway::{GatewayConfig, GatewayService, VehicleArrival, DEFAULT_QUEUE_CAPACITY};
use crate::report::{
    DefectFinding, EcuReport, FamilyReport, FleetReport, LatencyStats, RankCdfPoint,
    RobustnessReport,
};
use crate::shutoff::ShutoffModel;
use crate::vehicle::{simulate_vehicle, SimContext, Upload};

/// Number of points of the coverage-over-time curve.
pub(crate) const COVERAGE_POINTS: usize = 32;

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
pub(crate) fn vehicle_seed(campaign_seed: u64, index: u32) -> u64 {
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
    /// The snapshot's time filter and global sort of the folded uploads
    /// into `(time_s, vehicle)` order.
    pub merge_s: f64,
    /// Diagnosis of the diagnosis keys not yet cached: collecting the
    /// missing keys plus the parallel dictionary lookups.
    pub diagnose_s: f64,
    /// Final serial scan: findings, batches, latency stats, coverage
    /// curve, per-ECU aggregation.
    pub fold_s: f64,
    /// One-pass fault-dictionary sweep inside [`CutModel::build`] —
    /// amortized once per model, not per campaign run (copied from
    /// [`CutModel::dict_build_seconds`], identical across runs sharing a
    /// model).
    pub dict_build_s: f64,
    /// Pure dictionary-lookup portion of the diagnose stage: the parallel
    /// `diagnose_faults` call, excluding missing-key collection.
    pub diagnose_lookup_s: f64,
}

/// Census-side fleet counters — everything a [`FleetReport`] carries that
/// is *not* derived from the upload sequence. The gateway folds them
/// exactly: integer adds, plus its fixed per-block reduction tree for the
/// one floating-point sum.
#[derive(Debug, Clone, Default)]
pub(crate) struct FleetTotals {
    pub defective: u32,
    pub sessions_completed: u64,
    pub windows_used: u64,
    pub bist_time_s: f64,
    pub seeded: BTreeMap<ResourceId, u32>,
    /// Malformed upload frames the ingest boundary rejected (typed
    /// [`FleetError::MalformedUpload`], counted never folded). Always `0`
    /// for a simulated fleet — only untrusted arrivals can be rejected.
    pub rejected_uploads: u64,
}

/// The fault half of a diagnosis key in a heterogeneous fleet: fault
/// indices are only unique *within* a CUT family's model, so every
/// dictionary lookup is keyed by `(family, index)`. `Ord` (family first)
/// keeps the gateway's diagnosis cache deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct FaultKey {
    pub family: CutFamily,
    pub index: u32,
}

impl FaultKey {
    pub(crate) fn of(u: &Upload) -> Self {
        FaultKey {
            family: u.family,
            index: u.fault_index,
        }
    }
}

/// The full diagnosis key: which fault, and what the channel did to its
/// payload in transit. Two uploads of the same fault over the same
/// impairment see the identical observed payload (the fleet shares one
/// CUT), so diagnosis stays pure per key — the caching argument of the
/// old fault-only key, extended by the small discrete impairment space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct DiagKey {
    pub fault: FaultKey,
    pub impairment: Impairment,
}

impl DiagKey {
    pub(crate) fn of(u: &Upload) -> Self {
        DiagKey {
            fault: FaultKey::of(u),
            impairment: u.impairment,
        }
    }

    /// The same fault seen over a clean channel — the baseline the
    /// robustness axis measures localization degradation against.
    pub(crate) fn clean_twin(self) -> Self {
        DiagKey {
            fault: self.fault,
            impairment: Impairment::NONE,
        }
    }
}

/// Cached diagnosis of one `(fault, impairment)` key against its family's
/// dictionary. Pure per key (every vehicle carries the same CUT models
/// and the impairment transform is deterministic), which is what lets the
/// gateway cache entries across snapshots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DiagEntry {
    pub candidates: usize,
    pub rank: usize,
    pub localized: bool,
    /// Whether the key's channel byte cap actually clipped entries off
    /// this fault's payload (always `false` for an unimpaired key).
    ///
    /// On-chip fail-memory overflow of the *original* payload is NOT
    /// cached here: it is independent of any channel impairment, and the
    /// snapshot's `truncated_uploads` counter reads it straight from the
    /// `CutModel`'s precomputed per-fault bitset
    /// ([`CutModel::fault_truncated`]).
    pub cap_truncated: bool,
}

/// A validated, ready-to-run campaign over a CUT model and a blueprint
/// set.
#[derive(Debug)]
pub struct Campaign<'a> {
    cut: &'a CutModel,
    sram: Option<&'a MarchTest>,
    blueprints: &'a [VehicleBlueprint],
    /// Per-blueprint schedule plans, built once at validation; `None`
    /// entries keep the flat-budget window source.
    sched_plans: Vec<Option<SchedPlan>>,
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
    /// surfaces as a typed error at construction, never mid-simulation.
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
        Ok(Campaign {
            cut,
            sram,
            blueprints,
            sched_plans,
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
            self.cut,
            self.sram,
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
    /// workers produce [`VehicleArrival`] batches over contiguous
    /// vehicle-index ranges and a bounded channel, the calling thread
    /// folds them via [`GatewayService::accept`] (drain on a full queue —
    /// the trusted producer blocks instead of shedding). Arrival
    /// *interleaving* across workers is nondeterministic; the snapshot
    /// taken afterwards is not, by the gateway's set-purity contract.
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
        const FEED_BATCH: u32 = 4_096;
        let n = self.config.vehicles;
        let threads = resolve_threads(self.config.threads).clamp(1, n as usize);
        let ctx = self.sim_context();
        let seed = self.config.seed;
        if threads == 1 {
            // A direct loop over the local context rather than
            // `self.arrivals()`: the serial feed is the one-shot hot path,
            // so it stays free of the iterator's per-item bookkeeping.
            for i in 0..n {
                let o = simulate_vehicle(i, &ctx, vehicle_seed(seed, i));
                let _ = svc.accept(VehicleArrival::from_outcome(&o));
            }
            return;
        }
        // The gateway's block ledger makes fold order irrelevant, so the
        // workers take plain index ranges.
        let chunk = n.div_ceil(u32::try_from(threads).unwrap_or(n));
        let ctx = &ctx;
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel::<Vec<VehicleArrival>>(2 * threads);
            for lo in (0..n).step_by(chunk as usize) {
                let hi = n.min(lo.saturating_add(chunk));
                let tx = tx.clone();
                scope.spawn(move || {
                    for b in (lo..hi).step_by(FEED_BATCH as usize) {
                        let batch = (b..hi.min(b.saturating_add(FEED_BATCH)))
                            .map(|i| {
                                let o = simulate_vehicle(i, ctx, vehicle_seed(seed, i));
                                VehicleArrival::from_outcome(&o)
                            })
                            .collect();
                        // A closed channel means the consumer unwound;
                        // stop producing.
                        if tx.send(batch).is_err() {
                            return;
                        }
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
    /// [`GatewayService`] at a controlled cadence. Each item is the same
    /// pure per-vehicle outcome the parallel feed computes; O(1) memory.
    /// Borrows the campaign (the per-blueprint schedule plans live in
    /// it), so the iterator cannot outlive `self`.
    pub fn arrivals(&self) -> Arrivals<'_> {
        Arrivals {
            ctx: self.sim_context(),
            seed: self.config.seed,
            next: 0,
            vehicles: self.config.vehicles,
        }
    }

    /// The campaign-invariant simulation context (blueprint work
    /// templates, fast blueprint divisor, campaign scalars), built once
    /// per feed or arrival stream and shared read-only by its workers.
    fn sim_context(&self) -> SimContext<'_> {
        SimContext::new(
            self.blueprints,
            self.cut,
            self.sram,
            &self.sched_plans,
            self.config.shutoff,
            self.config.defect_fraction,
            self.config.horizon_s,
            self.config.seed,
        )
    }
}

/// The serial arrival stream behind [`Campaign::arrivals`].
pub struct Arrivals<'a> {
    ctx: SimContext<'a>,
    seed: u64,
    next: u32,
    vehicles: u32,
}

impl Iterator for Arrivals<'_> {
    type Item = VehicleArrival;

    fn next(&mut self) -> Option<VehicleArrival> {
        if self.next >= self.vehicles {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let o = simulate_vehicle(i, &self.ctx, vehicle_seed(self.seed, i));
        Some(VehicleArrival::from_outcome(&o))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Checked, not `as`: u32 → usize only narrows on exotic 16-bit
        // targets, but the cast sweep leaves no silent truncation behind.
        let left = usize::try_from(self.vehicles - self.next).unwrap_or(usize::MAX);
        (left, Some(left))
    }
}

impl ExactSizeIterator for Arrivals<'_> {}

/// Diagnoses the given distinct diagnosis keys against their family's
/// dictionary, split over `threads` workers in disjoint contiguous ranges
/// of the input — the gateway snapshot's diagnosis stage. Sound because
/// the lookup is pure (the same CUT models fleet-wide: two uploads of one
/// key see identical observed payloads), and deterministic because the
/// output is keyed by `(fault, impairment)` — the caller merges it into
/// a `BTreeMap`.
pub(crate) fn diagnose_faults(
    cut: &CutModel,
    sram: Option<&MarchTest>,
    distinct: &[DiagKey],
    threads: usize,
) -> Vec<(DiagKey, DiagEntry)> {
    if distinct.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(distinct.len());
    if threads == 1 {
        return distinct
            .iter()
            .map(|&key| (key, diagnose_fault(cut, sram, key)))
            .collect();
    }
    let chunk = distinct.len().div_ceil(threads);
    let mut table = Vec::with_capacity(distinct.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for part in distinct.chunks(chunk) {
            handles.push(scope.spawn(move || {
                part.iter()
                    .map(|&key| (key, diagnose_fault(cut, sram, key)))
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            match h.join() {
                Ok(entries) => table.extend(entries),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    table
}

/// The payload diagnosis actually sees for `fail` under `imp`: the
/// original fail memory for an unimpaired key (zero-copy — the clean
/// path is byte-for-byte the historical one), else the channel cap and
/// content transform applied in transfer order (truncate what did not
/// fit, then lose/corrupt one entry of what arrived).
fn observed_payload(fail: &FailData, imp: Impairment) -> Option<FailData> {
    if imp.is_none() {
        return None;
    }
    let capped = fail.truncated_to(u64::from(imp.cap_entries) * FAIL_ENTRY_BYTES);
    Some(match imp.kind {
        ImpairmentKind::Intact => capped,
        ImpairmentKind::WindowLost { slot } => capped.without_window_slot(usize::from(slot)),
        ImpairmentKind::CorruptedSyndrome { salt } => capped.with_corrupted_window(salt),
    })
}

fn diagnose_fault(cut: &CutModel, sram: Option<&MarchTest>, key: DiagKey) -> DiagEntry {
    let imp = key.impairment;
    let index = key.fault.index;
    match key.fault.family {
        CutFamily::Logic => {
            let fail = cut.fail_data(index);
            let observed = observed_payload(fail, imp);
            let seen = observed.as_ref().unwrap_or(fail);
            // One ranking per key: the summary carries candidate count,
            // rank class and localization together (the historical code
            // diagnosed the same payload three times over).
            let s = cut.diagnose_summary(index, seen);
            DiagEntry {
                candidates: s.candidates,
                rank: s.rank.unwrap_or(0),
                localized: s.localized,
                cap_truncated: usize::from(imp.cap_entries) < fail.entries().len(),
            }
        }
        CutFamily::Sram => match sram {
            Some(m) => {
                let fail = m.fail_data(index);
                let observed = observed_payload(fail, imp);
                let seen = observed.as_ref().unwrap_or(fail);
                let s = m.diagnose_summary(index, seen);
                DiagEntry {
                    candidates: s.candidates,
                    rank: s.rank.unwrap_or(0),
                    localized: s.localized,
                    cap_truncated: usize::from(imp.cap_entries) < fail.entries().len(),
                }
            }
            // Unreachable for a validated campaign (`MissingSramModel`
            // gates construction); a typed zero entry, never a panic.
            None => DiagEntry {
                candidates: 0,
                rank: 0,
                localized: false,
                cap_truncated: false,
            },
        },
    }
}

/// Final serial scan over a globally ordered upload sequence:
/// arrival-order batches, latency statistics, the coverage curve and the
/// per-ECU aggregation. A pure function of its inputs, and the last stage
/// of [`GatewayService::snapshot_at`] — the one place a [`FleetReport`]
/// is built, for mid-campaign snapshots and one-shot runs alike.
pub(crate) fn fold_report(
    vehicles: u32,
    batch_size: usize,
    horizon_s: f64,
    uploads: &[Upload],
    totals: &FleetTotals,
    table: &BTreeMap<DiagKey, DiagEntry>,
) -> FleetReport {
    // The per-family split only materializes for heterogeneous fleets:
    // pure-logic campaigns leave `per_family` empty so the report (and
    // its frozen `Debug` digest) is unchanged from the pre-family engine.
    let mixed = uploads.iter().any(|u| u.family != CutFamily::Logic);
    let mut fam_map: BTreeMap<CutFamily, FamilyAcc> = BTreeMap::new();
    let mut findings = Vec::with_capacity(uploads.len());
    // Robustness-axis accumulators: only impaired uploads (plus ingest
    // rejects) populate them, so a clean campaign reports `None` and its
    // frozen `Debug` digest is untouched.
    let mut rob = RobustnessAcc::default();
    for (k, up) in uploads.iter().enumerate() {
        // The table covers every uploaded diagnosis key by construction.
        let Some(e) = table.get(&DiagKey::of(up)) else {
            continue;
        };
        rob.retransmitted_frames += u64::from(up.retransmitted_frames);
        // Uploads are globally time-sorted, so this f64 left-fold has a
        // fixed order at any thread/shard count.
        rob.retransmit_overhead_s += up.retransmit_s;
        if !up.impairment.is_none() {
            rob.fold_impaired(up, e, table.get(&DiagKey::of(up).clean_twin()));
        }
        if mixed {
            let acc = fam_map.entry(up.family).or_default();
            acc.detected += 1;
            acc.localized += u64::from(e.localized);
            // Uploads are globally time-sorted, so each family's latency
            // list collects already sorted.
            acc.latencies.push(up.time_s);
        }
        findings.push(DefectFinding {
            vehicle: up.vehicle,
            ecu: up.ecu,
            fault_index: up.fault_index,
            detected_at_s: up.time_s,
            // Checked, not `as`: the widened u64 field means no batch
            // ordinal can wrap (the old `as u32` wrapped silently past
            // ~4.29G ordinals), and `try_from` keeps even a hypothetical
            // 128-bit-usize target honest by saturating.
            batch: u64::try_from(k / batch_size).unwrap_or(u64::MAX),
            candidates: e.candidates,
            true_fault_rank: e.rank,
            localized: e.localized,
        });
    }
    let batches = u64::try_from(uploads.len().div_ceil(batch_size)).unwrap_or(u64::MAX);

    let detected = u64::try_from(findings.len()).unwrap_or(u64::MAX);
    let localized =
        u64::try_from(findings.iter().filter(|f| f.localized).count()).unwrap_or(u64::MAX);

    let latencies: Vec<f64> = findings.iter().map(|f| f.detected_at_s).collect();
    let latency = LatencyStats::from_sorted(&latencies);

    // Coverage over time at fixed horizon fractions; the uploads are
    // time-sorted, so one forward scan suffices. The grid always spans
    // the full campaign horizon — a mid-campaign snapshot reports the
    // same grid with the not-yet-reached points at the current fraction,
    // which is what makes `snapshot_at` monotone in t.
    let mut coverage_over_time = Vec::with_capacity(COVERAGE_POINTS);
    let mut seen = 0usize;
    for p in 1..=COVERAGE_POINTS {
        let t = horizon_s * p as f64 / COVERAGE_POINTS as f64;
        while seen < latencies.len() && latencies[seen] <= t {
            seen += 1;
        }
        let frac = if totals.defective == 0 {
            0.0
        } else {
            seen as f64 / f64::from(totals.defective)
        };
        coverage_over_time.push((t, frac));
    }

    // Per-ECU aggregation: seeded counts come exactly merged from the
    // census; detections fold from the findings scan.
    let mut per_ecu_map: BTreeMap<ResourceId, EcuAcc> = BTreeMap::new();
    for (&ecu, &seeded) in &totals.seeded {
        per_ecu_map.entry(ecu).or_default().seeded = seeded;
    }
    for f in &findings {
        let acc = per_ecu_map.entry(f.ecu).or_default();
        acc.detected += 1;
        acc.localized += u32::from(f.localized);
        acc.latency_sum += f.detected_at_s;
        *acc.fault_counts.entry(f.fault_index).or_insert(0) += 1;
    }
    let per_ecu = per_ecu_map
        .into_iter()
        .map(|(ecu, acc)| {
            let mut top_faults: Vec<(u32, u32)> = acc.fault_counts.into_iter().collect();
            top_faults.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            EcuReport {
                ecu,
                seeded: acc.seeded,
                detected: acc.detected,
                localized: acc.localized,
                mean_latency_s: if acc.detected == 0 {
                    0.0
                } else {
                    acc.latency_sum / f64::from(acc.detected)
                },
                top_faults,
            }
        })
        .collect();

    let per_family = fam_map
        .into_iter()
        .map(|(family, acc)| FamilyReport {
            family,
            detected: acc.detected,
            localized: acc.localized,
            latency: LatencyStats::from_sorted(&acc.latencies),
        })
        .collect();

    let robustness = rob.into_report(totals.rejected_uploads);

    FleetReport {
        vehicles,
        defective: totals.defective,
        detected,
        localized,
        sessions_completed: totals.sessions_completed,
        windows_used: totals.windows_used,
        bist_time_s: totals.bist_time_s,
        batches,
        latency,
        coverage_over_time,
        per_ecu,
        findings,
        per_family,
        robustness,
    }
}

#[derive(Default)]
struct FamilyAcc {
    detected: u64,
    localized: u64,
    latencies: Vec<f64>,
}

/// Candidate-rank bounds of the robustness block's localization CDF —
/// powers of two up to the "diagnosis is hopeless past here" tail.
const RANK_CDF_BOUNDS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Accumulator behind [`RobustnessReport`]. Folded in global upload
/// order (the one f64 sum included), so every field is bit-identical at
/// any thread and shard count.
#[derive(Default)]
struct RobustnessAcc {
    retransmitted_frames: u64,
    retransmit_overhead_s: f64,
    impaired_uploads: u64,
    window_lost_uploads: u64,
    corrupted_uploads: u64,
    cap_truncated_uploads: u64,
    rank_degraded: u64,
    rank_improved: u64,
    delocalized: u64,
    impaired_le: [u64; RANK_CDF_BOUNDS.len()],
    clean_le: [u64; RANK_CDF_BOUNDS.len()],
}

impl RobustnessAcc {
    /// Folds one impaired upload, pricing its localization against the
    /// clean-twin baseline entry.
    fn fold_impaired(&mut self, up: &Upload, e: &DiagEntry, clean: Option<&DiagEntry>) {
        self.impaired_uploads += 1;
        match up.impairment.kind {
            ImpairmentKind::Intact => {}
            ImpairmentKind::WindowLost { .. } => self.window_lost_uploads += 1,
            ImpairmentKind::CorruptedSyndrome { .. } => self.corrupted_uploads += 1,
        }
        self.cap_truncated_uploads += u64::from(e.cap_truncated);
        // The clean twin is always in the table (the snapshot diagnoses
        // it alongside every key); degrade to zeros if that invariant is
        // ever broken, never panic.
        let Some(c) = clean else { return };
        // Rank 0 encodes "true fault not even a candidate" — strictly
        // worse than any positive rank.
        if c.rank > 0 && (e.rank == 0 || e.rank > c.rank) {
            self.rank_degraded += 1;
        }
        if e.rank > 0 && (c.rank == 0 || e.rank < c.rank) {
            self.rank_improved += 1;
        }
        if c.localized && !e.localized {
            self.delocalized += 1;
        }
        for (slot, &bound) in RANK_CDF_BOUNDS.iter().enumerate() {
            self.impaired_le[slot] += u64::from(e.rank > 0 && e.rank <= bound);
            self.clean_le[slot] += u64::from(c.rank > 0 && c.rank <= bound);
        }
    }

    /// The report block, or `None` when the campaign saw no channel
    /// effects at all — a clean campaign's report (and frozen `Debug`
    /// digest) carries no robustness axis.
    fn into_report(self, rejected_uploads: u64) -> Option<RobustnessReport> {
        if self.impaired_uploads == 0 && self.retransmitted_frames == 0 && rejected_uploads == 0 {
            return None;
        }
        Some(RobustnessReport {
            impaired_uploads: self.impaired_uploads,
            retransmitted_frames: self.retransmitted_frames,
            retransmit_overhead_s: self.retransmit_overhead_s,
            window_lost_uploads: self.window_lost_uploads,
            corrupted_uploads: self.corrupted_uploads,
            cap_truncated_uploads: self.cap_truncated_uploads,
            rejected_uploads,
            rank_degraded: self.rank_degraded,
            rank_improved: self.rank_improved,
            delocalized: self.delocalized,
            rank_cdf: RANK_CDF_BOUNDS
                .iter()
                .zip(self.impaired_le.iter().zip(self.clean_le.iter()))
                .map(|(&bound, (&impaired_le, &clean_le))| RankCdfPoint {
                    bound,
                    impaired_le,
                    clean_le,
                })
                .collect(),
        })
    }
}

#[derive(Default)]
struct EcuAcc {
    seeded: u32,
    detected: u32,
    localized: u32,
    latency_sum: f64,
    fault_counts: BTreeMap<u32, u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::EcuSessionPlan;
    use crate::cut::CutConfig;
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
