//! What a gateway snapshot does with its sorted uploads: census totals,
//! diagnosis keys, the per-key diagnosis cache and the fold into a
//! [`FleetReport`] — the one place a report is built.

use std::collections::BTreeMap;

use eea_bist::{CutFamily, FailData, FAIL_ENTRY_BYTES};
use eea_can::{Impairment, ImpairmentKind};
use eea_model::ResourceId;

use crate::cut::FaultModels;
use crate::report::{
    DefectFinding, EcuReport, FamilyReport, FleetReport, LatencyStats, RankCdfPoint,
    RobustnessReport,
};
use crate::vehicle::Upload;

/// Number of points of the coverage-over-time curve.
const COVERAGE_POINTS: usize = 32;

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
#[derive(Debug, Clone, Copy, Default)]
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
    /// fault's fail data ([`FailData::is_truncated`]).
    pub cap_truncated: bool,
}

/// Every CUT family in `CutFamily` order: the layout of per-family
/// arrays, which [`family_slot`] indexes.
const FAMILIES: [CutFamily; 2] = [CutFamily::Logic, CutFamily::Sram];

/// Slot of a CUT family in per-family arrays laid out as [`FAMILIES`].
fn family_slot(family: CutFamily) -> usize {
    match family {
        CutFamily::Logic => 0,
        CutFamily::Sram => 1,
    }
}

/// The gateway's per-key diagnosis results, cached across snapshots.
/// Clean keys — every key of a clean fleet — sit in one dense table per
/// CUT family indexed by fault, so resolving one costs an index; impaired
/// keys, a small discrete space per fault, stay in a map.
#[derive(Debug)]
pub(crate) struct DiagCache {
    /// Clean-channel entries by fault index, laid out as [`FAMILIES`],
    /// each sized to its family's model (empty without one).
    clean: [Vec<Option<DiagEntry>>; 2],
    impaired: BTreeMap<DiagKey, DiagEntry>,
}

impl DiagCache {
    pub(crate) fn new(models: FaultModels<'_>) -> Self {
        DiagCache {
            clean: FAMILIES.map(|family| vec![None; models.num_faults(family).unwrap_or(0)]),
            impaired: BTreeMap::new(),
        }
    }

    /// The cached entry of `key`. Ingest rejects a fault index past its
    /// family's model, so every folded clean key has a table slot.
    pub(crate) fn get(&self, key: DiagKey) -> Option<&DiagEntry> {
        if key.impairment.is_none() {
            self.clean[family_slot(key.fault.family)]
                .get(key.fault.index as usize)?
                .as_ref()
        } else {
            self.impaired.get(&key)
        }
    }

    /// The distinct keys of `uploads`, each with its clean twin, that are
    /// not cached yet, in key order. Every impaired key drags its clean
    /// twin in, so the fold can price localization against the clean
    /// baseline; a clean key is its own twin.
    ///
    /// A snapshot tail holds thousands of uploads of a few hundred faults,
    /// so a clean key is marked seen in one bit per clean-table slot and
    /// collected once; only the distinct clean keys and the uncached
    /// impaired keys reach the sort.
    pub(crate) fn missing(&self, uploads: &[Upload]) -> Vec<DiagKey> {
        let mut seen = self
            .clean
            .each_ref()
            .map(|t| vec![0u64; t.len().div_ceil(64)]);
        let mut m = Vec::new();
        for u in uploads {
            let key = DiagKey::of(u);
            if !key.impairment.is_none() && !self.impaired.contains_key(&key) {
                m.push(key);
            }
            let clean = key.clean_twin();
            let slot = family_slot(clean.fault.family);
            let index = clean.fault.index as usize;
            match self.clean[slot].get(index) {
                Some(entry) => {
                    let (word, bit) = (&mut seen[slot][index / 64], 1u64 << (index % 64));
                    if *word & bit == 0 {
                        *word |= bit;
                        if entry.is_none() {
                            m.push(clean);
                        }
                    }
                }
                // Past the table (ingest rejects such an index): never
                // cached, deduplicated below.
                None => m.push(clean),
            }
        }
        m.sort_unstable();
        m.dedup();
        m
    }
}

impl Extend<(DiagKey, DiagEntry)> for DiagCache {
    fn extend<I: IntoIterator<Item = (DiagKey, DiagEntry)>>(&mut self, entries: I) {
        for (key, entry) in entries {
            if !key.impairment.is_none() {
                self.impaired.insert(key, entry);
            } else if let Some(slot) =
                self.clean[family_slot(key.fault.family)].get_mut(key.fault.index as usize)
            {
                *slot = Some(entry);
            }
        }
    }
}

/// Diagnoses the given distinct diagnosis keys against their family's
/// dictionary, split over `threads` workers in disjoint contiguous ranges
/// of the input — the gateway snapshot's diagnosis stage. Sound because
/// the lookup is pure (the same CUT models fleet-wide: two uploads of one
/// key see identical observed payloads), and deterministic because the
/// output is keyed by `(fault, impairment)` — the caller merges it into
/// its [`DiagCache`].
pub(crate) fn diagnose_faults(
    models: FaultModels<'_>,
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
            .map(|&key| (key, diagnose_fault(models, key)))
            .collect();
    }
    let chunk = distinct.len().div_ceil(threads);
    let mut table = Vec::with_capacity(distinct.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for part in distinct.chunks(chunk) {
            handles.push(scope.spawn(move || {
                part.iter()
                    .map(|&key| (key, diagnose_fault(models, key)))
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

fn diagnose_fault(models: FaultModels<'_>, key: DiagKey) -> DiagEntry {
    let FaultKey { family, index } = key.fault;
    // No fail data means no model for the family. Nothing folds such an
    // upload — a validated campaign rules it out through
    // `MissingSramModel`, and gateway ingest rejects it as `UnknownFault`
    // — so the typed zero entry only keeps the lookup total, never a panic.
    let Some(fail) = models.fail_data(family, index) else {
        return DiagEntry::default();
    };
    let observed = observed_payload(fail, key.impairment);
    let s = models.diagnose_summary(family, index, observed.as_ref().unwrap_or(fail));
    DiagEntry {
        candidates: s.candidates,
        rank: s.rank.unwrap_or(0),
        localized: s.localized,
        cap_truncated: usize::from(key.impairment.cap_entries) < fail.entries().len(),
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
    cache: &DiagCache,
) -> FleetReport {
    // The per-family split only materializes for heterogeneous fleets:
    // pure-logic campaigns leave `per_family` empty so the report (and
    // its frozen `Debug` digest) is unchanged from the pre-family engine.
    let mixed = uploads.iter().any(|u| u.family != CutFamily::Logic);
    let mut families: [FamilyAcc; 2] = Default::default();
    let mut findings = Vec::with_capacity(uploads.len());
    let mut latencies = Vec::with_capacity(uploads.len());
    let mut localized = 0u64;
    // Per-ECU accumulators in ECU order, seeded from the census; an ECU
    // the census never seeded (only a hand-built arrival names one) gets
    // its own accumulator at its first finding.
    let mut ecus: Vec<EcuAcc> = totals
        .seeded
        .iter()
        .map(|(&ecu, &seeded)| EcuAcc::new(ecu, seeded))
        .collect();
    // Robustness-axis accumulators: only impaired uploads (plus ingest
    // rejects) populate them, so a clean campaign reports `None` and its
    // frozen `Debug` digest is untouched.
    let mut rob = RobustnessAcc::default();
    for (k, up) in uploads.iter().enumerate() {
        let key = DiagKey::of(up);
        // The cache covers every folded diagnosis key by construction.
        let Some(e) = cache.get(key) else {
            continue;
        };
        rob.retransmitted_frames += u64::from(up.retransmitted_frames);
        // Uploads are globally time-sorted, so every f64 left-fold below
        // (the retransmit overhead, each ECU's latency sum) has a fixed
        // order whatever the arrival interleaving.
        rob.retransmit_overhead_s += up.retransmit_s;
        if !up.impairment.is_none() {
            rob.fold_impaired(up, e, cache.get(key.clean_twin()));
        }
        if mixed {
            let acc = &mut families[family_slot(up.family)];
            acc.detected += 1;
            acc.localized += u64::from(e.localized);
            // Each family's latency list collects already sorted.
            acc.latencies.push(up.time_s);
        }
        let slot = match ecus.binary_search_by_key(&up.ecu, |a| a.ecu) {
            Ok(slot) => slot,
            Err(slot) => {
                ecus.insert(slot, EcuAcc::new(up.ecu, 0));
                slot
            }
        };
        let acc = &mut ecus[slot];
        acc.detected += 1;
        acc.localized += u32::from(e.localized);
        acc.latency_sum += up.time_s;
        acc.faults.push(up.fault_index);
        localized += u64::from(e.localized);
        latencies.push(up.time_s);
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

    // Each ECU's fault counts: a dense count by fault index plus the list
    // of indices it touched, reset after every ECU. Folded fault indices
    // lie below their family's model size (ingest rejects the rest), so
    // the count stays model-sized.
    let mut counts: Vec<u32> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    let per_ecu = ecus
        .into_iter()
        .map(|acc| {
            for &f in &acc.faults {
                let i = f as usize;
                if i >= counts.len() {
                    counts.resize(i + 1, 0);
                }
                if counts[i] == 0 {
                    touched.push(f);
                }
                counts[i] += 1;
            }
            let mut top_faults: Vec<(u32, u32)> = touched
                .drain(..)
                .map(|f| (f, std::mem::take(&mut counts[f as usize])))
                .collect();
            // Count descending, then fault index: a total order over
            // distinct faults, so the ranking is unique.
            top_faults.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            EcuReport {
                ecu: acc.ecu,
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

    // A family appears once one of its uploads folded, in family order.
    let per_family = FAMILIES
        .into_iter()
        .zip(families)
        .filter(|(_, acc)| acc.detected > 0)
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
/// any thread count and arrival order.
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

struct EcuAcc {
    ecu: ResourceId,
    seeded: u32,
    detected: u32,
    localized: u32,
    latency_sum: f64,
    /// Fault index of each finding on this ECU, in findings order.
    faults: Vec<u32>,
}

impl EcuAcc {
    fn new(ecu: ResourceId, seeded: u32) -> Self {
        EcuAcc {
            ecu,
            seeded,
            detected: 0,
            localized: 0,
            latency_sum: 0.0,
            faults: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{CutConfig, CutModel};

    fn upload(fault_index: u32, impairment: Impairment) -> Upload {
        Upload {
            vehicle: 0,
            ecu: ResourceId::from_index(2),
            fault_index,
            family: CutFamily::Logic,
            time_s: 1.0,
            fail_bytes: 0,
            retransmitted_frames: 0,
            retransmit_s: 0.0,
            impairment,
        }
    }

    /// `missing` yields every uncached key once in key order, drags each
    /// impaired key's clean twin in, and skips what the cache holds.
    #[test]
    fn missing_keys_are_distinct_sorted_and_uncached() {
        let cut = CutModel::build(CutConfig {
            gates: 80,
            patterns: 64,
            window: 8,
            ..CutConfig::default()
        })
        .expect("substrate builds");
        let [a, b, c] = [0, 1, 2].map(|k| cut.detectable_faults()[k]);
        let lost = Impairment {
            cap_entries: u16::MAX,
            kind: ImpairmentKind::WindowLost { slot: 1 },
        };
        let uploads = [
            upload(c, lost),
            upload(b, Impairment::NONE),
            upload(a, Impairment::NONE),
            upload(b, lost),
            upload(a, Impairment::NONE),
        ];
        let key = |fault_index, impairment| DiagKey::of(&upload(fault_index, impairment));
        let mut cache = DiagCache::new(FaultModels {
            logic: &cut,
            sram: None,
        });
        assert_eq!(
            cache.missing(&uploads),
            [
                key(a, Impairment::NONE),
                key(b, Impairment::NONE),
                key(b, lost),
                key(c, Impairment::NONE),
                key(c, lost),
            ],
            "each key once, in key order, with the impaired keys' clean twins"
        );
        cache.extend([a, c].map(|f| (key(f, Impairment::NONE), DiagEntry::default())));
        assert_eq!(
            cache.missing(&uploads),
            [key(b, Impairment::NONE), key(b, lost), key(c, lost)],
            "cached keys drop out; an impaired key whose twin is cached yields itself"
        );
    }
}
