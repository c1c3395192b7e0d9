//! The long-lived **gateway ingest service**: the one place the fleet
//! campaign engine builds a [`FleetReport`].
//!
//! Vehicles upload fail data over (simulated) wall-clock time, the
//! service folds arrivals incrementally, and a [`FleetReport`] is a
//! **point-in-time snapshot** queryable mid-campaign via
//! [`GatewayService::snapshot_at`].
//! [`Campaign::run`](crate::Campaign::run) is the special case that feeds
//! the whole fleet and snapshots at the horizon. Ingest is a real service
//! boundary: a bounded queue ([`GatewayConfig::queue_capacity`]) sheds
//! arrivals with a typed [`FleetError::Overloaded`] when full, unknown
//! vehicle indices are rejected ([`FleetError::UnknownVehicle`]), and
//! duplicate arrivals are dropped and counted — every drop is visible in
//! the snapshot's counters, nothing is silent.
//!
//! # Snapshot-under-load determinism
//!
//! The contract: **a snapshot is a pure function of the *set* of folded
//! arrivals and the snapshot time `t`** — independent of thread count,
//! queue capacity, drain cadence, arrival interleaving, and of the
//! snapshots taken before it. Four mechanisms make the fold order-free:
//!
//! 1. **One time-sorted upload log.** Folding an arrival appends its
//!    upload to an unsorted tail of the uploads folded since the last
//!    snapshot; the service keeps every earlier upload in one log sorted
//!    by `(time_s, vehicle)`. Nothing records which worker or drain cycle
//!    folded an upload.
//! 2. **Commutative integer census.** Defective/session/window counters
//!    are exact integer adds; per-ECU seeded counts merge into a
//!    `BTreeMap`. Integer addition commutes — arrival order is invisible.
//! 3. **A position-keyed block ledger for the one floating-point sum.**
//!    f64 addition commutes but does not associate, so `bist_time_s` is
//!    *not* folded in arrival order. Each vehicle's BIST time is parked
//!    in its slot of a [`SIM_BLOCK`]-sized block buffer; a block's sum is
//!    the left-fold over its slots **in vehicle-index order**, and the
//!    total is the left-fold over block sums **in block order** — the
//!    fixed reduction tree of DESIGN.md §10, whatever the arrival order.
//!    Full blocks collapse to one f64 (the open buffer is freed), so
//!    steady-state memory stays O(detections + blocks). The left-fold over
//!    the longest prefix of complete blocks is kept as they complete, so
//!    a snapshot folds only the blocks after it.
//! 4. **Merge at the snapshot, then a prefix by time.** A snapshot sorts
//!    only the tail by `(time_s, vehicle)` — a total order with unique
//!    keys (one upload per vehicle) — and merges it into the log in linear
//!    time, so the log is the sequence a global sort of every folded
//!    upload produces, however arrivals were interleaved. The uploads
//!    visible at `t` are the log's prefix found by `partition_point`:
//!    ingest validates upload times as finite and non-negative, so
//!    `time_s <= t` holds on a prefix of the log for every `t`. Each
//!    upload is **diagnosed at first sight**: the keys of the tail,
//!    visible at `t` or not, are diagnosed once and cached (diagnosis is
//!    pure per key), so no snapshot rescans the log for keys. The final
//!    fold ([`fold_report`](crate::snapshot::fold_report)) is a pure
//!    function of the visible prefix.
//!
//! Consequence: the report depends only on what was ingested. The frozen
//! 100k digest in `tests/fleet_frozen_report.rs` pins the horizon
//! snapshot of a whole fleet, and `tests/fleet_determinism.rs` proptests
//! snapshots across interleaving × thread × capacity sweeps and against
//! a fresh service after a history of earlier snapshots.

use std::cmp::Ordering;
use std::time::Instant;

use eea_bist::{FailData, MarchTest, FAIL_DATA_BYTES};
use eea_faultsim::resolve_threads;
use eea_model::ResourceId;

use crate::campaign::StageTimings;
use crate::cut::{CutModel, FaultModels};
use crate::error::{FleetError, MalformedKind};
use crate::report::FleetReport;
use crate::snapshot::{diagnose_faults, fold_report, DiagCache, FleetTotals};
use crate::vehicle::Upload;

/// Default bound of the ingest queue: deep enough to hold a whole
/// 4096-arrival feed batch, small enough that a stalled consumer surfaces
/// as backpressure instead of unbounded memory. Nonzero, which is what
/// lets [`Campaign::gateway`](crate::Campaign::gateway) provision without
/// a fallible check.
pub const DEFAULT_QUEUE_CAPACITY: usize = 8_192;
const _: () = assert!(DEFAULT_QUEUE_CAPACITY > 0);

/// Vehicles per ledger block — the unit of the fixed floating-point
/// reduction tree: a block's BIST-time sum is the left-fold over its
/// slots in vehicle-index order, and the fleet-wide value is the
/// left-fold over block sums in block order. At 10M vehicles the block
/// sums total ~1.25 MB. The one-`u64` presence mask per block requires
/// `SIM_BLOCK <= 64`.
pub(crate) const SIM_BLOCK: usize = 64;
const _: () = assert!(SIM_BLOCK <= 64, "gateway block masks are single u64 words");

/// Total upload order at the gateway: arrival time, then vehicle index.
/// Each vehicle uploads at most once, so no two uploads compare equal —
/// which is why an unstable sort, and a merge of two sorted runs, yield
/// the one canonical sequence.
fn upload_order(a: &Upload, b: &Upload) -> Ordering {
    a.time_s
        .total_cmp(&b.time_s)
        .then(a.vehicle.cmp(&b.vehicle))
}

/// One vehicle's complete contribution to the campaign, as uploaded to
/// the gateway: the (optional) fail-data upload plus the census counters
/// the fleet report aggregates. `Copy` and a few dozen bytes — cheap to
/// batch through channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleArrival {
    /// The reporting vehicle (index into the provisioned fleet).
    pub vehicle: u32,
    /// ECU of this vehicle's seeded defect, if any.
    pub defect_ecu: Option<ResourceId>,
    /// BIST sessions the vehicle completed within the horizon.
    pub sessions_completed: u32,
    /// Shut-off windows in which its BIST made progress.
    pub windows_used: u32,
    /// Total BIST time the vehicle consumed (seconds).
    pub bist_time_s: f64,
    /// The fail-data upload, when the seeded defect was detected and the
    /// payload reached the gateway within the horizon.
    pub upload: Option<Upload>,
}

/// Configuration of a [`GatewayService`].
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayConfig {
    /// Provisioned fleet size; arrivals must carry `vehicle < vehicles`.
    pub vehicles: u32,
    /// Campaign horizon in seconds — the coverage grid spans it and the
    /// final snapshot is taken at it.
    pub horizon_s: f64,
    /// Gateway aggregation batch size (uploads per batch) for the
    /// snapshot's batch ordinals.
    pub batch_size: usize,
    /// Ingest queue bound: once this many arrivals are pending, further
    /// [`ingest`](GatewayService::ingest) calls shed with
    /// [`FleetError::Overloaded`] until a [`drain`](GatewayService::drain).
    pub queue_capacity: usize,
    /// Has no effect on storage or on any snapshot: the service keeps one
    /// upload log whatever the value. Kept only until the benchmark
    /// package stops setting it.
    pub shards: usize,
    /// Worker threads for the snapshot's diagnosis stage; `0` = auto.
    /// Snapshots are bit-identical at any value.
    pub threads: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            vehicles: 1_000,
            horizon_s: 30.0 * 86_400.0,
            batch_size: 64,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            shards: 0,
            threads: 0,
        }
    }
}

/// A point-in-time view of the campaign, produced by
/// [`GatewayService::snapshot_at`]. Wraps the [`FleetReport`] (unchanged
/// shape — the frozen digest pins it) with the service-side counters:
/// everything the ingest boundary shed, dropped or clamped is accounted
/// here, never silently.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewaySnapshot {
    /// The campaign time the report is evaluated at.
    pub at_s: f64,
    /// Arrivals folded into the service state so far (valid, non-duplicate).
    pub ingested: u64,
    /// Fail-data uploads among them.
    pub uploads_ingested: u64,
    /// Arrivals shed at the full queue ([`FleetError::Overloaded`]).
    pub shed: u64,
    /// Duplicate arrivals dropped by the ledger (a vehicle reported twice).
    pub duplicates: u64,
    /// Structurally malformed upload frames rejected at ingest
    /// ([`FleetError::MalformedUpload`]) — also surfaced as
    /// `rejected_uploads` in the report's robustness block.
    pub malformed: u64,
    /// Uploads in this snapshot's report whose fail data overflowed the
    /// bounded fail memory ([`eea_bist::FAIL_DATA_BYTES`]) — their
    /// diagnosis ran on a clamped window prefix.
    pub truncated_uploads: u64,
    /// The point-in-time fleet report: uploads with `time_s <= at_s`,
    /// census counters over everything ingested.
    pub report: FleetReport,
}

/// The long-lived gateway ingest service. See the module docs for the
/// determinism contract; see [`Campaign::gateway`](crate::Campaign::gateway)
/// for provisioning one from a campaign.
#[derive(Debug)]
pub struct GatewayService<'a> {
    models: FaultModels<'a>,
    config: GatewayConfig,
    /// Pending arrivals, bounded by `config.queue_capacity`.
    queue: Vec<VehicleArrival>,
    /// Every upload folded before the last snapshot, sorted by
    /// [`upload_order`].
    log: Vec<Upload>,
    /// Uploads folded since the last snapshot, unsorted; the next
    /// snapshot diagnoses their keys and merges them into `log`.
    tail: Vec<Upload>,
    /// Exact integer census counters (commutative folds); `bist_time_s`
    /// stays `0` (the block ledger owns it), and `rejected_uploads`
    /// counts [`FleetError::MalformedUpload`] rejections.
    totals: FleetTotals,
    /// Completed-block BIST-time sums, one per [`SIM_BLOCK`] of the fleet.
    block_sums: Vec<f64>,
    /// Per-block presence masks (bit `v % SIM_BLOCK` of block
    /// `v / SIM_BLOCK`); doubles as the duplicate detector.
    block_masks: Vec<u64>,
    /// Slot buffers of blocks still missing vehicles; freed on completion.
    open_blocks: Vec<Option<Box<[f64; SIM_BLOCK]>>>,
    /// Length of the longest prefix of complete blocks.
    ledger_prefix: usize,
    /// Left-fold of the block sums of that prefix, in block order.
    ledger_prefix_sum: f64,
    /// One past the highest block any arrival touched; the blocks from
    /// here on hold no vehicle yet.
    ledger_end: usize,
    /// Pure per-key diagnosis results, cached across snapshots and keyed
    /// by `(fault, impairment)` — fault indices are only unique within
    /// their CUT family, and the channel impairment changes the observed
    /// payload (every impaired key is cached alongside its clean twin).
    diag: DiagCache,
    ingested: u64,
    uploads_ingested: u64,
    shed: u64,
    duplicates: u64,
}

impl<'a> GatewayService<'a> {
    /// Provisions a gateway for a fleet over the shared CUT model. It
    /// wires no SRAM model, so [`ingest`](Self::ingest) rejects every
    /// upload of a [`CutFamily::Sram`](eea_bist::CutFamily) fault as
    /// [`MalformedKind::UnknownFault`].
    ///
    /// # Errors
    ///
    /// * [`FleetError::EmptyFleet`] for zero vehicles,
    /// * [`FleetError::InvalidHorizon`] for a non-positive or non-finite
    ///   horizon,
    /// * [`FleetError::ZeroBatchSize`] for a zero batch size,
    /// * [`FleetError::ZeroQueueCapacity`] for a zero queue bound.
    pub fn new(cut: &'a CutModel, config: GatewayConfig) -> Result<Self, FleetError> {
        GatewayService::with_models(cut, None, config)
    }

    /// Like [`new`](Self::new), additionally wiring the March-test SRAM
    /// model so uploads of [`CutFamily::Sram`](eea_bist::CutFamily)
    /// faults diagnose against the memory dictionary. With `sram` `None`,
    /// every SRAM upload is rejected as [`MalformedKind::UnknownFault`].
    ///
    /// # Errors
    ///
    /// The same errors as [`new`](Self::new).
    pub fn with_models(
        cut: &'a CutModel,
        sram: Option<&'a MarchTest>,
        config: GatewayConfig,
    ) -> Result<Self, FleetError> {
        if config.vehicles == 0 {
            return Err(FleetError::EmptyFleet);
        }
        if !config.horizon_s.is_finite() || config.horizon_s <= 0.0 {
            return Err(FleetError::InvalidHorizon(config.horizon_s));
        }
        if config.batch_size == 0 {
            return Err(FleetError::ZeroBatchSize);
        }
        if config.queue_capacity == 0 {
            return Err(FleetError::ZeroQueueCapacity);
        }
        Ok(GatewayService::with_models_unchecked(
            FaultModels { logic: cut, sram },
            config,
        ))
    }

    /// [`with_models`](Self::with_models) without the bound checks, for a
    /// caller that has already validated every bound `with_models`
    /// checks — a validated [`Campaign`](crate::Campaign) with the
    /// nonzero [`DEFAULT_QUEUE_CAPACITY`].
    pub(crate) fn with_models_unchecked(models: FaultModels<'a>, config: GatewayConfig) -> Self {
        let blocks = (config.vehicles as usize).div_ceil(SIM_BLOCK);
        GatewayService {
            models,
            queue: Vec::new(),
            log: Vec::new(),
            tail: Vec::new(),
            totals: FleetTotals::default(),
            block_sums: vec![0.0; blocks],
            block_masks: vec![0; blocks],
            open_blocks: (0..blocks).map(|_| None).collect(),
            ledger_prefix: 0,
            ledger_prefix_sum: 0.0,
            ledger_end: 0,
            diag: DiagCache::new(models),
            ingested: 0,
            uploads_ingested: 0,
            shed: 0,
            duplicates: 0,
            config,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Pending (ingested but not yet folded) arrivals.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Arrivals shed at the full queue so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Arrivals folded into the service state so far.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Malformed upload frames rejected at the ingest boundary so far.
    pub fn malformed(&self) -> u64 {
        self.totals.rejected_uploads
    }

    /// Enqueues one arrival. The queue is the abuse-tolerant service
    /// boundary: full queue → typed shed, out-of-range vehicle → typed
    /// rejection, structurally malformed frame → typed rejection, counted
    /// in [`malformed`](Self::malformed). Folding happens at the next
    /// [`drain`](Self::drain) (or snapshot, which drains first).
    ///
    /// # Errors
    ///
    /// * [`FleetError::UnknownVehicle`] — `arrival.vehicle` is outside
    ///   the provisioned fleet; not counted as shed.
    /// * [`FleetError::MalformedUpload`] — the frame fails a structural
    ///   check ([`MalformedKind`]); counted in the snapshot's `malformed`
    ///   field and the report's robustness block, never folded.
    /// * [`FleetError::Overloaded`] — the queue is at capacity; counted
    ///   in [`shed`](Self::shed) and the snapshot's `shed` field.
    pub fn ingest(&mut self, arrival: VehicleArrival) -> Result<(), FleetError> {
        if arrival.vehicle >= self.config.vehicles {
            return Err(FleetError::UnknownVehicle {
                vehicle: arrival.vehicle,
                fleet: self.config.vehicles,
            });
        }
        if let Some(kind) = self.malformed_kind(&arrival) {
            self.totals.rejected_uploads += 1;
            return Err(FleetError::MalformedUpload {
                vehicle: arrival.vehicle,
                kind,
            });
        }
        if self.queue.len() >= self.config.queue_capacity {
            self.shed += 1;
            return Err(FleetError::Overloaded {
                capacity: self.config.queue_capacity,
            });
        }
        self.queue.push(arrival);
        Ok(())
    }

    /// Structural validation of one in-range arrival: which
    /// [`MalformedKind`] it exhibits, if any. Pure — counting and the
    /// typed rejection happen in [`ingest`](Self::ingest). Simulated
    /// arrivals always pass; only hand-built (or corrupted) frames can
    /// fail.
    fn malformed_kind(&self, a: &VehicleArrival) -> Option<MalformedKind> {
        if !a.bist_time_s.is_finite() || a.bist_time_s < 0.0 {
            return Some(MalformedKind::NonFiniteBistTime);
        }
        let Some(up) = &a.upload else {
            return None;
        };
        if up.vehicle != a.vehicle {
            return Some(MalformedKind::VehicleMismatch);
        }
        if !up.time_s.is_finite() || up.time_s < 0.0 {
            return Some(MalformedKind::NonFiniteUploadTime);
        }
        if up.fail_bytes > FAIL_DATA_BYTES {
            return Some(MalformedKind::OversizedFailData);
        }
        if !up.retransmit_s.is_finite() || up.retransmit_s < 0.0 {
            return Some(MalformedKind::NegativeRetransmit);
        }
        // A fault index names a fault of its family's model, so an index
        // past that model is an ingest-boundary rejection. A family
        // without a wired model has an empty dictionary: every upload of
        // it is rejected, never folded as a detection without a fault.
        let faults = self.models.num_faults(up.family).unwrap_or(0);
        if usize::try_from(up.fault_index).map_or(true, |i| i >= faults) {
            return Some(MalformedKind::UnknownFault);
        }
        None
    }

    /// The trusted-producer path: like [`ingest`](Self::ingest), but a
    /// full queue drains instead of shedding — in-process backpressure by
    /// folding now rather than dropping data.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownVehicle`] as for `ingest`; never `Overloaded`.
    pub fn accept(&mut self, arrival: VehicleArrival) -> Result<(), FleetError> {
        if self.queue.len() >= self.config.queue_capacity {
            self.drain();
        }
        self.ingest(arrival)
    }

    /// Folds every pending arrival into the service state and returns how
    /// many were folded. Duplicates (a vehicle already in the ledger) are
    /// dropped and counted, not folded.
    pub fn drain(&mut self) -> usize {
        let mut pending = std::mem::take(&mut self.queue);
        let n = pending.len();
        for arrival in pending.drain(..) {
            self.fold(arrival);
        }
        // Hand the (empty, still-allocated) buffer back: steady-state
        // drains allocate nothing.
        self.queue = pending;
        n
    }

    /// Order-free fold of one arrival; see the module docs.
    fn fold(&mut self, a: VehicleArrival) {
        let block = (a.vehicle as usize) / SIM_BLOCK;
        let slot = (a.vehicle as usize) % SIM_BLOCK;
        let bit = 1u64 << slot;
        if self.block_masks[block] & bit != 0 {
            self.duplicates += 1;
            return;
        }
        self.block_masks[block] |= bit;
        let buf = self.open_blocks[block].get_or_insert_with(|| Box::new([0.0; SIM_BLOCK]));
        buf[slot] = a.bist_time_s;
        if self.block_masks[block] == self.full_mask(block) {
            // Block complete: collapse to its canonical left-fold sum
            // (vehicle-index order) and free the slot buffer.
            if let Some(buf) = self.open_blocks[block].take() {
                let len = self.block_len(block);
                let mut sum = 0.0f64;
                for &v in buf.iter().take(len) {
                    sum += v;
                }
                self.block_sums[block] = sum;
            }
            self.advance_ledger_prefix();
        }
        self.ledger_end = self.ledger_end.max(block + 1);
        if let Some(ecu) = a.defect_ecu {
            self.totals.defective += 1;
            *self.totals.seeded.entry(ecu).or_insert(0) += 1;
        }
        self.totals.sessions_completed += u64::from(a.sessions_completed);
        self.totals.windows_used += u64::from(a.windows_used);
        if let Some(up) = a.upload {
            self.uploads_ingested += 1;
            self.tail.push(up);
        }
        self.ingested += 1;
    }

    /// Vehicles in block `block` (the last block may be partial).
    fn block_len(&self, block: usize) -> usize {
        let n = self.config.vehicles as usize;
        SIM_BLOCK.min(n - block * SIM_BLOCK)
    }

    fn full_mask(&self, block: usize) -> u64 {
        let len = self.block_len(block);
        if len >= 64 {
            u64::MAX
        } else {
            (1u64 << len) - 1
        }
    }

    /// Extends the complete-block prefix over every complete block that
    /// now follows it, folding their sums into the prefix sum in block
    /// order.
    fn advance_ledger_prefix(&mut self) {
        while self.ledger_prefix < self.block_sums.len()
            && self.block_masks[self.ledger_prefix] == self.full_mask(self.ledger_prefix)
        {
            self.ledger_prefix_sum += self.block_sums[self.ledger_prefix];
            self.ledger_prefix += 1;
        }
    }

    /// The deterministic fleet-wide BIST-time sum over everything folded
    /// so far: left-fold over block sums in block order, partial blocks
    /// folded over their present slots in vehicle-index order. For a
    /// complete census this is exactly the fixed [`SIM_BLOCK`] reduction
    /// tree. The fold starts from the kept prefix sum, whose additions
    /// are the walk's first ones in the same order, and stops at
    /// `ledger_end`: every later block adds `+0.0`, the identity on a
    /// running total that starts at `+0.0` and never turns `-0.0`.
    fn bist_time_total(&self) -> f64 {
        let mut total = self.ledger_prefix_sum;
        for block in self.ledger_prefix..self.ledger_end {
            if let Some(buf) = &self.open_blocks[block] {
                let mask = self.block_masks[block];
                let mut sum = 0.0f64;
                for (slot, &v) in buf.iter().enumerate().take(self.block_len(block)) {
                    if mask & (1u64 << slot) != 0 {
                        sum += v;
                    }
                }
                total += sum;
            } else {
                total += self.block_sums[block];
            }
        }
        total
    }

    /// Takes a point-in-time snapshot: drains the queue, then evaluates
    /// the fleet report over every folded upload with `time_s <= at_s`.
    /// Census counters (defective, sessions, windows, BIST time, per-ECU
    /// seeded counts) cover everything ingested — they are campaign
    /// facts, not arrival events. Pure in the folded-arrival *set* and
    /// `at_s`: bit-identical at any thread count, queue capacity, arrival
    /// interleaving and history of earlier snapshots, and monotone in
    /// `at_s` for a fixed set.
    pub fn snapshot_at(&mut self, at_s: f64) -> GatewaySnapshot {
        self.snapshot_at_timed(at_s).0
    }

    /// Like [`snapshot_at`](Self::snapshot_at), with per-stage timings
    /// (merge / diagnose / fold; `simulate_s` stays 0 — simulation
    /// happens producer-side).
    pub fn snapshot_at_timed(&mut self, at_s: f64) -> (GatewaySnapshot, StageTimings) {
        self.drain();

        // Diagnosed at first sight: the keys of every upload folded since
        // the last snapshot, visible at `at_s` or not.
        let t = Instant::now();
        let missing = self.diag.missing(&self.tail);
        let threads = resolve_threads(self.config.threads).max(1);
        let tl = Instant::now();
        self.diag
            .extend(diagnose_faults(self.models, &missing, threads));
        let diagnose_lookup_s = tl.elapsed().as_secs_f64();
        let diagnose_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        self.merge_tail();
        // Validated upload times are finite and `>= 0` (`-0.0` included),
        // so on the log's total order `time_s <= at_s` holds on a prefix
        // for every `at_s`, `±0.0` and NaN included.
        let visible = self.log.partition_point(|u| u.time_s <= at_s);
        let uploads = &self.log[..visible];
        let merge_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let totals = FleetTotals {
            bist_time_s: self.bist_time_total(),
            ..self.totals.clone()
        };
        // Truncation is an on-chip fact of the original payload: an O(1)
        // length check on the fault's fail data, no diagnosis-cache lookup.
        let truncated_uploads = u64::try_from(
            uploads
                .iter()
                .filter(|u| {
                    let fail = self.models.fail_data(u.family, u.fault_index);
                    fail.is_some_and(FailData::is_truncated)
                })
                .count(),
        )
        .unwrap_or(u64::MAX);
        let report = fold_report(
            self.config.vehicles,
            self.config.batch_size,
            self.config.horizon_s,
            uploads,
            &totals,
            &self.diag,
        );
        let fold_s = t.elapsed().as_secs_f64();

        (
            GatewaySnapshot {
                at_s,
                ingested: self.ingested,
                uploads_ingested: self.uploads_ingested,
                shed: self.shed,
                duplicates: self.duplicates,
                malformed: self.totals.rejected_uploads,
                truncated_uploads,
                report,
            },
            StageTimings {
                simulate_s: 0.0,
                merge_s,
                diagnose_s,
                fold_s,
                diagnose_lookup_s,
            },
        )
    }

    /// Sorts the uploads folded since the last snapshot and merges them
    /// into the sorted log in linear time. Keys are unique under
    /// [`upload_order`], so the merged log is the sequence a global sort
    /// of every folded upload produces.
    fn merge_tail(&mut self) {
        self.tail.sort_unstable_by(upload_order);
        if self.log.is_empty() {
            std::mem::swap(&mut self.log, &mut self.tail);
            return;
        }
        // Backward merge: grow the log by the tail's length, then fill it
        // from the back with the larger of the two runs' last uploads.
        // The log's uploads below the tail's first one never move.
        let (mut i, mut j) = (self.log.len(), self.tail.len());
        self.log.extend_from_slice(&self.tail);
        let mut k = self.log.len();
        while j > 0 {
            k -= 1;
            if i > 0 && upload_order(&self.log[i - 1], &self.tail[j - 1]) == Ordering::Greater {
                i -= 1;
                self.log[k] = self.log[i];
            } else {
                j -= 1;
                self.log[k] = self.tail[j];
            }
        }
        self.tail.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::EcuSessionPlan;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::cut::CutConfig;
    use crate::VehicleBlueprint;
    use eea_bist::CutFamily;

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
                ecu: eea_model::ResourceId::from_index(2),
                profile_id: 1,
                coverage: 0.99,
                session_s: 0.005,
                transfer_s: 900.0,
                local_storage: false,
                upload_bandwidth_bytes_per_s: 200.0,
                family: eea_bist::CutFamily::Logic,
            }],
            shutoff_budget_s: 2_000.0,
            transport: eea_can::TransportKind::MirroredCan,
            channel: eea_can::ChannelConfig::Clean,
            task_set: None,
        }
    }

    fn small_campaign<'a>(
        cut: &'a CutModel,
        bp: &'a [VehicleBlueprint],
        vehicles: u32,
        seed: u64,
    ) -> Campaign<'a> {
        Campaign::new(
            cut,
            bp,
            CampaignConfig {
                vehicles,
                defect_fraction: 0.3,
                horizon_s: 14.0 * 86_400.0,
                seed,
                threads: 1,
                ..CampaignConfig::default()
            },
        )
        .expect("valid campaign")
    }

    #[test]
    fn provisioning_validates_bounds() {
        let cut = small_cut();
        let bad = |f: fn(&mut GatewayConfig)| {
            let mut cfg = GatewayConfig::default();
            f(&mut cfg);
            GatewayService::new(&cut, cfg).err()
        };
        assert_eq!(bad(|c| c.vehicles = 0), Some(FleetError::EmptyFleet));
        assert_eq!(
            bad(|c| c.horizon_s = f64::NAN).map(|e| matches!(e, FleetError::InvalidHorizon(_))),
            Some(true)
        );
        assert_eq!(bad(|c| c.batch_size = 0), Some(FleetError::ZeroBatchSize));
        assert_eq!(
            bad(|c| c.queue_capacity = 0),
            Some(FleetError::ZeroQueueCapacity)
        );
    }

    #[test]
    fn unknown_vehicles_are_rejected_not_shed() {
        let cut = small_cut();
        let mut svc = GatewayService::new(
            &cut,
            GatewayConfig {
                vehicles: 4,
                ..GatewayConfig::default()
            },
        )
        .expect("provision");
        let stranger = VehicleArrival {
            vehicle: 9,
            defect_ecu: None,
            sessions_completed: 0,
            windows_used: 0,
            bist_time_s: 0.0,
            upload: None,
        };
        assert_eq!(
            svc.ingest(stranger),
            Err(FleetError::UnknownVehicle {
                vehicle: 9,
                fleet: 4
            })
        );
        assert_eq!(svc.shed(), 0, "rejection is not shedding");
        assert_eq!(svc.queue_len(), 0);
    }

    #[test]
    fn full_queue_sheds_with_typed_overload_and_counts() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let campaign = small_campaign(&cut, &bp, 64, 7);
        let mut svc = GatewayService::new(
            &cut,
            GatewayConfig {
                vehicles: 64,
                queue_capacity: 4,
                ..GatewayConfig::default()
            },
        )
        .expect("provision");
        let arrivals: Vec<VehicleArrival> = campaign.arrivals().collect();
        let mut shed = 0u64;
        for &a in &arrivals[..8] {
            match svc.ingest(a) {
                Ok(()) => {}
                Err(FleetError::Overloaded { capacity }) => {
                    assert_eq!(capacity, 4);
                    shed += 1;
                }
                Err(e) => unreachable!("unexpected ingest error: {e}"),
            }
        }
        assert_eq!(shed, 4, "capacity 4, offered 8");
        assert_eq!(svc.shed(), 4);
        // After a drain the queue accepts again, and the snapshot
        // reports the shed count.
        assert_eq!(svc.drain(), 4);
        for &a in &arrivals[8..12] {
            svc.ingest(a).expect("drained queue has room");
        }
        let snap = svc.snapshot_at(campaign.config().horizon_s);
        assert_eq!(snap.shed, 4);
        assert_eq!(snap.ingested, 8);
    }

    /// The ingest boundary rejects structurally malformed frames with a
    /// typed error per field check, counts them, and surfaces the count
    /// in both the snapshot and the report's robustness block.
    #[test]
    fn malformed_frames_are_rejected_typed_and_counted() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let campaign = small_campaign(&cut, &bp, 64, 17);
        let mut svc = campaign.gateway();
        let good = campaign
            .arrivals()
            .find(|a| a.upload.is_some())
            .expect("defect fraction 0.3 of 64 produces uploads");
        let mutate = |f: fn(&mut VehicleArrival)| {
            let mut a = good;
            f(&mut a);
            a
        };
        let cases = [
            (
                mutate(|a| a.bist_time_s = f64::NAN),
                MalformedKind::NonFiniteBistTime,
            ),
            (
                mutate(|a| {
                    if let Some(up) = &mut a.upload {
                        up.vehicle = a.vehicle + 1;
                    }
                }),
                MalformedKind::VehicleMismatch,
            ),
            (
                mutate(|a| {
                    if let Some(up) = &mut a.upload {
                        up.time_s = -1.0;
                    }
                }),
                MalformedKind::NonFiniteUploadTime,
            ),
            (
                mutate(|a| {
                    if let Some(up) = &mut a.upload {
                        up.fail_bytes = FAIL_DATA_BYTES + 1;
                    }
                }),
                MalformedKind::OversizedFailData,
            ),
            (
                mutate(|a| {
                    if let Some(up) = &mut a.upload {
                        up.retransmit_s = -0.5;
                    }
                }),
                MalformedKind::NegativeRetransmit,
            ),
        ];
        for (frame, want) in cases {
            assert_eq!(
                svc.ingest(frame),
                Err(FleetError::MalformedUpload {
                    vehicle: frame.vehicle,
                    kind: want,
                })
            );
        }
        assert_eq!(svc.malformed(), 5);
        assert_eq!(svc.queue_len(), 0, "rejected frames are never queued");
        assert_eq!(svc.shed(), 0, "rejection is not shedding");
        svc.accept(good).expect("the pristine frame folds");
        let snap = svc.snapshot_at(campaign.config().horizon_s);
        assert_eq!(snap.malformed, 5);
        assert_eq!(snap.ingested, 1);
        let rob = snap
            .report
            .robustness
            .expect("ingest rejects populate the robustness block");
        assert_eq!(rob.rejected_uploads, 5);
        assert_eq!(rob.impaired_uploads, 0);
        assert_eq!(rob.retransmitted_frames, 0);
    }

    /// The ingest fault bound is per CUT family: an index past the
    /// family's model is rejected as `UnknownFault` and an in-range one
    /// folds, while a gateway without a March model rejects every SRAM
    /// upload as `UnknownFault` and reports no finding for it.
    #[test]
    fn fault_bound_follows_the_family_model() {
        let cut = small_cut();
        let march = MarchTest::build(eea_bist::SramConfig { words: 4, bits: 4 })
            .expect("geometry is valid");
        let bp = [capable_blueprint()];
        let campaign = small_campaign(&cut, &bp, 64, 17);
        let horizon_s = campaign.config().horizon_s;
        let good = campaign
            .arrivals()
            .find(|a| a.upload.is_some())
            .expect("defect fraction 0.3 of 64 produces uploads");
        let retag = |family, fault_index: usize| {
            let mut a = good;
            if let Some(up) = &mut a.upload {
                up.family = family;
                up.fault_index = u32::try_from(fault_index).expect("fits");
            }
            a
        };
        let unknown = Err(FleetError::MalformedUpload {
            vehicle: good.vehicle,
            kind: MalformedKind::UnknownFault,
        });

        let mut logic_only = campaign.gateway();
        assert_eq!(
            logic_only.ingest(retag(CutFamily::Logic, cut.num_faults())),
            unknown
        );
        assert_eq!(
            logic_only.ingest(retag(CutFamily::Sram, march.num_faults())),
            unknown
        );
        assert_eq!(logic_only.ingest(retag(CutFamily::Sram, 0)), unknown);
        assert!(logic_only.snapshot_at(horizon_s).report.findings.is_empty());
        assert_eq!(logic_only.malformed(), 3);

        let mut with_march = GatewayService::with_models(
            &cut,
            Some(&march),
            GatewayConfig {
                vehicles: campaign.config().vehicles,
                horizon_s,
                ..GatewayConfig::default()
            },
        )
        .expect("provision");
        assert_eq!(
            with_march.ingest(retag(CutFamily::Sram, march.num_faults())),
            unknown
        );
        let in_range = march.detectable_faults()[0] as usize;
        with_march
            .ingest(retag(CutFamily::Sram, in_range))
            .expect("an in-range SRAM fault folds");
        let findings = with_march.snapshot_at(horizon_s).report.findings;
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].candidates, march.num_faults());
        assert_eq!(findings[0].true_fault_rank, 1);
        assert_eq!(with_march.malformed(), 1);
    }

    #[test]
    fn duplicates_are_dropped_and_counted() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let campaign = small_campaign(&cut, &bp, 64, 13);
        let mut svc = campaign.gateway();
        let arrivals: Vec<VehicleArrival> = campaign.arrivals().collect();
        for &a in &arrivals {
            svc.accept(a).expect("in range");
        }
        // Replay the first half — every one is a duplicate.
        for &a in &arrivals[..32] {
            svc.accept(a).expect("duplicates are accepted then dropped");
        }
        let baseline = campaign.run();
        let snap = svc.snapshot_at(campaign.config().horizon_s);
        assert_eq!(snap.duplicates, 32);
        assert_eq!(snap.ingested, 64, "duplicates are not folded");
        assert_eq!(snap.report, baseline, "replay does not perturb the report");
    }

    /// Satellite: snapshot edge cases — zero uploads ingested.
    #[test]
    fn empty_snapshot_has_zeroed_stats_and_full_grid() {
        let cut = small_cut();
        let mut svc = GatewayService::new(&cut, GatewayConfig::default()).expect("provision");
        let snap = svc.snapshot_at(1_000.0);
        assert_eq!(snap.ingested, 0);
        assert_eq!(snap.uploads_ingested, 0);
        assert_eq!(snap.truncated_uploads, 0);
        let r = &snap.report;
        assert_eq!(r.detected, 0);
        assert_eq!(r.localized, 0);
        assert_eq!(r.batches, 0);
        assert_eq!(r.latency.count, 0);
        assert_eq!(r.latency.min_s, 0.0);
        assert_eq!(r.latency.p99_s, 0.0);
        assert!(r.findings.is_empty());
        assert!(r.per_ecu.is_empty());
        // The coverage grid always spans the configured horizon.
        assert_eq!(r.coverage_over_time.len(), 32);
        assert!(r.coverage_over_time.iter().all(|&(_, f)| f == 0.0));
        let last = r.coverage_over_time.last().expect("non-empty grid");
        assert!((last.0 - svc.config().horizon_s).abs() < 1e-9);
    }

    /// Satellite: snapshot edge cases — exactly one upload.
    #[test]
    fn single_upload_snapshot_degenerate_stats() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let campaign = small_campaign(&cut, &bp, 256, 7);
        let mut svc = campaign.gateway();
        let first = campaign
            .arrivals()
            .find(|a| a.upload.is_some())
            .expect("defect fraction 0.3 of 256 produces uploads");
        svc.accept(first).expect("in range");
        let snap = svc.snapshot_at(campaign.config().horizon_s);
        let r = &snap.report;
        assert_eq!(snap.uploads_ingested, 1);
        assert_eq!(r.detected, 1);
        assert_eq!(r.latency.count, 1);
        let t = first.upload.expect("chosen for its upload").time_s;
        assert_eq!(r.latency.min_s, t);
        assert_eq!(r.latency.max_s, t);
        assert_eq!(r.latency.mean_s, t);
        assert_eq!(r.latency.p50_s, t);
        assert_eq!(r.latency.p99_s, t);
        assert_eq!(r.batches, 1);
        assert_eq!(r.findings.len(), 1);
        // Coverage: defective census is 1, so the curve steps 0 → 1 at
        // the upload time.
        for &(grid_t, frac) in &r.coverage_over_time {
            assert_eq!(frac, if grid_t >= t { 1.0 } else { 0.0 });
        }
    }

    /// The visible uploads are exactly those with `time_s <= at_s`, for a
    /// log merged over two snapshots, upload times `±0.0` and snapshot
    /// times `±0.0`, NaN, negative and infinite.
    #[test]
    fn visible_prefix_is_the_time_filter() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let campaign = small_campaign(&cut, &bp, 64, 17);
        let good = campaign
            .arrivals()
            .find(|a| a.upload.is_some())
            .expect("defect fraction 0.3 of 64 produces uploads");
        let times = [5.0, -0.0, 10.0, 0.0, 5.0, 7.5];
        let arrival = |k: usize| {
            let vehicle = u32::try_from(k).expect("small");
            let mut a = good;
            a.vehicle = vehicle;
            if let Some(up) = &mut a.upload {
                up.vehicle = vehicle;
                up.time_s = times[k];
            }
            a
        };
        let mut svc = campaign.gateway();
        for k in 0..3 {
            svc.accept(arrival(k)).expect("well-formed frame");
        }
        assert_eq!(svc.snapshot_at(6.0).report.detected, 2);
        for k in 3..times.len() {
            svc.accept(arrival(k)).expect("well-formed frame");
        }
        for at_s in [-0.0, 0.0, f64::NAN, -1.0, 4.9, 5.0, 7.5, 9.9, f64::INFINITY] {
            let want = times.iter().filter(|&&t| t <= at_s).count() as u64;
            let snap = svc.snapshot_at(at_s);
            assert_eq!(snap.report.detected, want, "at_s {at_s:?}");
            let seen: Vec<f64> = snap
                .report
                .findings
                .iter()
                .map(|f| f.detected_at_s)
                .collect();
            assert!(seen.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));
        }
    }

    /// Satellite: `snapshot_at(t)` is monotone in detections as t grows,
    /// and the horizon snapshot equals the one-shot report.
    #[test]
    fn snapshot_at_is_monotone_in_time() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let campaign = small_campaign(&cut, &bp, 300, 41);
        let mut svc = campaign.gateway();
        for a in campaign.arrivals() {
            svc.accept(a).expect("in range");
        }
        let horizon = campaign.config().horizon_s;
        let mut last_detected = 0u64;
        let mut last_coverage = 0.0f64;
        for step in 1..=10 {
            let snap = svc.snapshot_at(horizon * f64::from(step) / 10.0);
            assert!(
                snap.report.detected >= last_detected,
                "detections are cumulative"
            );
            let cov = snap
                .report
                .coverage_over_time
                .last()
                .expect("non-empty grid")
                .1;
            assert!(cov >= last_coverage, "coverage is cumulative");
            // Census facts don't depend on t.
            assert_eq!(snap.report.defective, campaign.run().defective);
            last_detected = snap.report.detected;
            last_coverage = cov;
        }
        let final_snap = svc.snapshot_at(horizon);
        assert_eq!(final_snap.report, campaign.run());
        assert!(final_snap.report.detected > 0);
    }

    /// An upload on an ECU the census never seeded (a hand-built arrival
    /// without `defect_ecu`) gets its own per-ECU row, in ECU order among
    /// the seeded rows, with `seeded == 0`.
    #[test]
    fn unseeded_upload_ecu_gets_its_own_row_in_order() {
        let cut = small_cut();
        let bp = [capable_blueprint()];
        let campaign = small_campaign(&cut, &bp, 64, 17);
        let good = campaign
            .arrivals()
            .find(|a| a.upload.is_some())
            .expect("defect fraction 0.3 of 64 produces uploads");
        let up = good.upload.expect("chosen for its upload");
        let ecu = eea_model::ResourceId::from_index;
        assert_eq!(up.ecu, ecu(2), "the blueprint's one session is on ECU 2");
        let other = |k: u32| (good.vehicle + k) % 64;
        let seeded_only = VehicleArrival {
            vehicle: other(1),
            defect_ecu: Some(ecu(5)),
            sessions_completed: 0,
            windows_used: 0,
            bist_time_s: 0.0,
            upload: None,
        };
        let stray = VehicleArrival {
            vehicle: other(2),
            defect_ecu: None,
            upload: Some(Upload {
                vehicle: other(2),
                ecu: ecu(3),
                ..up
            }),
            ..good
        };
        let mut svc = campaign.gateway();
        for a in [stray, good, seeded_only] {
            svc.accept(a).expect("well-formed frames fold");
        }
        let per_ecu = svc.snapshot_at(campaign.config().horizon_s).report.per_ecu;
        let rows: Vec<(usize, u32, u32)> = per_ecu
            .iter()
            .map(|r| (r.ecu.index(), r.seeded, r.detected))
            .collect();
        assert_eq!(rows, [(2, 1, 1), (3, 0, 1), (5, 1, 0)]);
        assert_eq!(per_ecu[1].mean_latency_s, up.time_s);
        assert_eq!(per_ecu[1].top_faults, [(up.fault_index, 1)]);
    }

    /// The ledger walk over every block from the first, with no kept
    /// prefix and no end bound: the reference `bist_time_total` must
    /// reproduce bit for bit.
    fn bist_time_full_walk(svc: &GatewayService<'_>) -> f64 {
        let mut total = 0.0f64;
        for block in 0..svc.block_sums.len() {
            if let Some(buf) = &svc.open_blocks[block] {
                let mask = svc.block_masks[block];
                let mut sum = 0.0f64;
                for (slot, &v) in buf.iter().enumerate().take(svc.block_len(block)) {
                    if mask & (1u64 << slot) != 0 {
                        sum += v;
                    }
                }
                total += sum;
            } else {
                total += svc.block_sums[block];
            }
        }
        total
    }

    /// The kept complete-block prefix reproduces the full ledger walk
    /// after every fold of an out-of-order feed: blocks complete out of
    /// order, the prefix jumps several blocks at once, the partial last
    /// block completes before earlier ones, and some BIST times are `-0.0`.
    #[test]
    fn kept_ledger_prefix_matches_the_full_walk() {
        let cut = small_cut();
        let block = SIM_BLOCK as u32;
        let vehicles = 5 * block + 17;
        let mut svc = GatewayService::new(
            &cut,
            GatewayConfig {
                vehicles,
                ..GatewayConfig::default()
            },
        )
        .expect("provision");
        // Magnitudes from 1e-5 to 1e5: any reordering of the additions
        // moves bits.
        let bist_time = |v: u32| {
            if v.is_multiple_of(13) {
                -0.0
            } else {
                f64::from(v % 7 + 1) * 10f64.powi(i32::try_from(v % 11).expect("small") - 5)
            }
        };
        let blocks = |b: u32| b * block..((b + 1) * block).min(vehicles);
        let half = 3 * block + block / 2;
        let mut order: Vec<u32> = Vec::new();
        order.extend(3 * block..half);
        order.extend(blocks(2).rev());
        order.extend(blocks(5));
        order.extend(blocks(0));
        for (a, b) in blocks(1).step_by(2).zip(half..4 * block) {
            order.extend([a, b]);
        }
        order.extend(blocks(1).skip(1).step_by(2));
        order.extend(blocks(4).step_by(2));
        order.extend(blocks(4).skip(1).step_by(2));
        assert_eq!(order.len(), vehicles as usize);
        for (n, &v) in order.iter().enumerate() {
            svc.fold(VehicleArrival {
                vehicle: v,
                defect_ecu: None,
                sessions_completed: 0,
                windows_used: 0,
                bist_time_s: bist_time(v),
                upload: None,
            });
            assert_eq!(
                svc.bist_time_total().to_bits(),
                bist_time_full_walk(&svc).to_bits(),
                "after fold {n} (vehicle {v}), prefix {}",
                svc.ledger_prefix
            );
        }
        assert_eq!(svc.ledger_prefix, 6, "every block folded into the prefix");
        assert_eq!(svc.ingested(), u64::from(vehicles));
    }

    /// Truncated-upload accounting is consistent with the CUT's fail
    /// data, and a single-pattern-window CUT actually produces truncated
    /// payloads (>53 failing windows overflow the 638-byte fail memory).
    #[test]
    fn truncated_uploads_are_counted() {
        let cut = CutModel::build(CutConfig {
            gates: 80,
            patterns: 256,
            window: 1,
            ..CutConfig::default()
        })
        .expect("substrate builds");
        assert!(
            cut.detectable_faults()
                .iter()
                .any(|&fi| cut.fail_data(fi).is_truncated()),
            "window=1 × 256 patterns: some fault fails >53 windows"
        );
        let bp = [capable_blueprint()];
        let campaign = Campaign::new(
            &cut,
            &bp,
            CampaignConfig {
                vehicles: 300,
                defect_fraction: 0.5,
                horizon_s: 14.0 * 86_400.0,
                seed: 29,
                threads: 1,
                ..CampaignConfig::default()
            },
        )
        .expect("valid campaign");
        let mut svc = campaign.gateway();
        for a in campaign.arrivals() {
            svc.accept(a).expect("in range");
        }
        let snap = svc.snapshot_at(campaign.config().horizon_s);
        let expect = snap
            .report
            .findings
            .iter()
            .filter(|f| cut.fail_data(f.fault_index).is_truncated())
            .count() as u64;
        assert_eq!(snap.truncated_uploads, expect);
        assert!(
            snap.truncated_uploads > 0,
            "the truncating CUT shows up in the snapshot counter"
        );
    }
}
