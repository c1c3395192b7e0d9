//! Fleet campaign reports.
//!
//! Everything the gateway-side aggregation produces: detection-latency
//! distribution, per-ECU candidate rankings and the campaign's coverage
//! curve over time. All types derive `PartialEq` and carry **no** timing
//! or thread-count fields, so a report is comparable bit-for-bit across
//! thread counts — the determinism contract tests and benches assert.

use std::fmt;

use eea_bist::CutFamily;
use eea_model::ResourceId;

/// Summary statistics of the detection-latency distribution (seconds from
/// campaign start to fail-data arrival at the gateway).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Number of detections the statistics cover. `u64` so the counter
    /// can never silently wrap, whatever fleet size feeds it; `Debug`
    /// prints integers width-independently, so the widening from the
    /// original `u32` left every frozen report digest unchanged.
    pub count: u64,
    /// Shortest observed latency.
    pub min_s: f64,
    /// Longest observed latency.
    pub max_s: f64,
    /// Arithmetic mean.
    pub mean_s: f64,
    /// Median (50th percentile).
    pub p50_s: f64,
    /// 90th percentile.
    pub p90_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
}

impl LatencyStats {
    /// Computes the statistics from latencies sorted ascending. Returns
    /// all-zero stats for an empty slice.
    ///
    /// Percentiles use the **nearest-rank (`round`) convention**:
    /// `p(q) = sorted[round((n − 1) · q)]`, the order statistic whose
    /// fractional rank is closest to `q`, with `.5` rounding away from
    /// zero (toward the larger rank, per [`f64::round`]). Consequences
    /// the tests pin: for `n = 2`, p50 is the *larger* value (rank 0.5
    /// rounds to 1); for `n = 3`, p50 is the true median `sorted[1]`;
    /// duplicate timestamps are ordinary order statistics, so the
    /// percentile of a run of equal values is that value. The gateway
    /// computes percentiles only on the **globally merged** latency
    /// sequence of the visible uploads, so these semantics cannot shift
    /// with arrival order.
    pub(crate) fn from_sorted(sorted: &[f64]) -> Self {
        let n = sorted.len();
        if n == 0 {
            return LatencyStats {
                count: 0,
                min_s: 0.0,
                max_s: 0.0,
                mean_s: 0.0,
                p50_s: 0.0,
                p90_s: 0.0,
                p99_s: 0.0,
            };
        }
        let pick = |q: f64| sorted[(((n - 1) as f64) * q).round() as usize];
        LatencyStats {
            // Checked, not `as`: usize → u64 is lossless on every
            // supported target, and the cast sweep leaves no silent
            // narrowing behind for hypothetical wider-usize ones.
            count: u64::try_from(n).unwrap_or(u64::MAX),
            min_s: sorted[0],
            max_s: sorted[n - 1],
            mean_s: sorted.iter().sum::<f64>() / n as f64,
            p50_s: pick(0.50),
            p90_s: pick(0.90),
            p99_s: pick(0.99),
        }
    }
}

/// One diagnosed defect, as the aggregation pipeline saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct DefectFinding {
    /// The reporting vehicle.
    pub vehicle: u32,
    /// The defective ECU.
    pub ecu: ResourceId,
    /// Index of the seeded fault in the campaign's CUT model.
    pub fault_index: u32,
    /// Absolute campaign time of the fail-data upload.
    pub detected_at_s: f64,
    /// Gateway batch the upload was processed in (0-based). `u64`: the
    /// batch index is `upload ordinal / batch_size` and must not wrap
    /// for any fleet size × batch size combination.
    pub batch: u64,
    /// Number of candidate faults diagnosis returned.
    pub candidates: usize,
    /// Rank (1-based, by score class) of the true fault among the
    /// candidates; `0` when diagnosis missed it entirely.
    pub true_fault_rank: usize,
    /// Whether the true fault sits in the top-scoring equivalence class.
    pub localized: bool,
}

/// Per-ECU aggregation over all findings.
#[derive(Debug, Clone, PartialEq)]
pub struct EcuReport {
    /// The ECU.
    pub ecu: ResourceId,
    /// Defects seeded on this ECU (whether or not detected).
    pub seeded: u32,
    /// Defects whose fail data reached the gateway within the horizon.
    pub detected: u32,
    /// Detected defects whose true fault topped the candidate ranking.
    pub localized: u32,
    /// Mean detection latency of this ECU's detections (0 when none).
    pub mean_latency_s: f64,
    /// Most frequently diagnosed fault indices on this ECU, with counts,
    /// sorted by count descending then fault index — the campaign-level
    /// candidate ranking.
    pub top_faults: Vec<(u32, u32)>,
}

/// Per-CUT-family aggregation over all findings: how detection and
/// localization split between the scan-based logic BIST and the
/// March-test memory BIST in a mixed-family fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyReport {
    /// The CUT family.
    pub family: CutFamily,
    /// Detections whose seeded fault belongs to this family.
    pub detected: u64,
    /// Among them, those whose true fault topped the candidate ranking.
    pub localized: u64,
    /// Detection-latency distribution of this family's detections.
    pub latency: LatencyStats,
}

/// One point of the robustness block's localization-rank CDF: how many
/// impaired uploads diagnosed their true fault within `bound` score
/// classes, against the same uploads' clean-channel baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankCdfPoint {
    /// Inclusive rank bound (1 = top score class).
    pub bound: usize,
    /// Impaired uploads whose observed-payload diagnosis ranked the true
    /// fault within `bound` (rank 0 — true fault missing — never counts).
    pub impaired_le: u64,
    /// The same uploads' count under their clean-channel twin diagnosis.
    pub clean_le: u64,
}

/// The robustness axis of a [`FleetReport`]: what the channel impairment
/// layer did to the campaign's uploads and how much diagnosis quality it
/// cost, priced against each impaired fault's clean-channel twin. Only
/// present when the campaign actually saw channel effects (impairments,
/// retransmissions, or ingest rejects) — a clean campaign's report is
/// bit-identical to the pre-channel engine.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Uploads whose fail data was impaired in transit (capped, window
    /// lost, or corrupted).
    pub impaired_uploads: u64,
    /// Bus frames retransmitted after error frames, fleet-wide.
    pub retransmitted_frames: u64,
    /// Extra upload seconds those retransmissions cost, fleet-wide
    /// (folded in global upload order — deterministic).
    pub retransmit_overhead_s: f64,
    /// Impaired uploads that lost one failing window in transit.
    pub window_lost_uploads: u64,
    /// Impaired uploads with one corrupted window/syndrome entry.
    pub corrupted_uploads: u64,
    /// Impaired uploads whose channel byte cap actually clipped entries.
    pub cap_truncated_uploads: u64,
    /// Malformed upload frames the gateway ingest boundary rejected.
    pub rejected_uploads: u64,
    /// Impaired uploads whose true-fault rank got strictly worse than
    /// the clean baseline (a vanished true fault counts as worse).
    pub rank_degraded: u64,
    /// Impaired uploads whose rank got strictly better — possible when a
    /// lost/corrupted window prunes a look-alike candidate.
    pub rank_improved: u64,
    /// Impaired uploads localized on the clean channel but not anymore.
    pub delocalized: u64,
    /// Localization-rank CDF at fixed bounds, impaired vs clean baseline.
    pub rank_cdf: Vec<RankCdfPoint>,
}

/// The complete result of a fleet campaign.
///
/// `Debug` is implemented manually: it renders exactly like the derived
/// implementation for every pre-existing field and appends `per_family`
/// (and then `robustness`) only when populated. Pure-logic, clean-channel
/// campaigns leave both empty, so their `Debug` output — and with it the
/// frozen report digests — is byte-identical to the pre-family,
/// pre-channel engine.
#[derive(Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet size.
    pub vehicles: u32,
    /// Vehicles carrying a seeded defect.
    pub defective: u32,
    /// Defective vehicles whose fail data reached the gateway in time.
    /// `u64` (widened from `u32`): derived by counting findings, and
    /// counters derived from collection lengths must never wrap. The
    /// widening is digest-invariant — `Debug` prints integers the same
    /// at any width (see `tests/fleet_frozen_report.rs`).
    pub detected: u64,
    /// Detected defects with the true fault in the top score class.
    /// `u64` for the same no-silent-wrap reason as [`detected`](Self::detected).
    pub localized: u64,
    /// BIST sessions completed fleet-wide (uploads included).
    pub sessions_completed: u64,
    /// Shut-off windows in which BIST made progress, fleet-wide.
    pub windows_used: u64,
    /// Total BIST time consumed fleet-wide (seconds).
    pub bist_time_s: f64,
    /// Gateway batches processed. `u64` so `ceil(uploads / batch_size)`
    /// cannot wrap for tiny batch sizes on huge fleets.
    pub batches: u64,
    /// Detection-latency distribution.
    pub latency: LatencyStats,
    /// Campaign coverage over time: `(time, detected fraction of seeded
    /// defects)` at fixed fractions of the horizon, last point at the
    /// horizon itself.
    pub coverage_over_time: Vec<(f64, f64)>,
    /// Per-ECU aggregation, sorted by ECU id.
    pub per_ecu: Vec<EcuReport>,
    /// Every diagnosed defect, in gateway-arrival order.
    pub findings: Vec<DefectFinding>,
    /// Per-CUT-family split of the findings, sorted by family. Empty for
    /// pure-logic campaigns (every upload is `CutFamily::Logic`), and
    /// omitted from `Debug` in that case — the frozen-digest contract.
    pub per_family: Vec<FamilyReport>,
    /// The channel-robustness axis; `None` (and omitted from `Debug` —
    /// the same frozen-digest contract as `per_family`) when the
    /// campaign saw no impairments, retransmissions or ingest rejects.
    pub robustness: Option<RobustnessReport>,
}

impl fmt::Debug for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("FleetReport");
        d.field("vehicles", &self.vehicles)
            .field("defective", &self.defective)
            .field("detected", &self.detected)
            .field("localized", &self.localized)
            .field("sessions_completed", &self.sessions_completed)
            .field("windows_used", &self.windows_used)
            .field("bist_time_s", &self.bist_time_s)
            .field("batches", &self.batches)
            .field("latency", &self.latency)
            .field("coverage_over_time", &self.coverage_over_time)
            .field("per_ecu", &self.per_ecu)
            .field("findings", &self.findings);
        if !self.per_family.is_empty() {
            d.field("per_family", &self.per_family);
        }
        if let Some(rob) = &self.robustness {
            d.field("robustness", rob);
        }
        d.finish()
    }
}

impl FleetReport {
    /// Fraction of seeded defects detected within the horizon.
    pub fn detection_rate(&self) -> f64 {
        if self.defective == 0 {
            0.0
        } else {
            self.detected as f64 / f64::from(self.defective)
        }
    }

    /// Fraction of detected defects whose true fault topped the ranking.
    pub fn localization_rate(&self) -> f64 {
        if self.detected == 0 {
            0.0
        } else {
            self.localized as f64 / self.detected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_of_empty_and_singleton() {
        let empty = LatencyStats::from_sorted(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean_s, 0.0);
        let one = LatencyStats::from_sorted(&[7.5]);
        assert_eq!(one.count, 1);
        assert_eq!(one.min_s, 7.5);
        assert_eq!(one.max_s, 7.5);
        assert_eq!(one.p99_s, 7.5);
    }

    #[test]
    fn nearest_rank_at_n2_picks_the_larger_value() {
        // rank(p50) = round(1 · 0.5) = 1: the .5 case rounds *up*.
        let s = LatencyStats::from_sorted(&[1.0, 2.0]);
        assert_eq!(s.count, 2);
        assert_eq!(s.min_s, 1.0);
        assert_eq!(s.max_s, 2.0);
        assert_eq!(s.mean_s, 1.5);
        assert_eq!(s.p50_s, 2.0);
        assert_eq!(s.p90_s, 2.0);
        assert_eq!(s.p99_s, 2.0);
    }

    #[test]
    fn nearest_rank_at_n3_is_the_true_median() {
        // rank(p50) = round(2 · 0.5) = 1; p90/p99 round to the maximum.
        let s = LatencyStats::from_sorted(&[1.0, 2.0, 10.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.p50_s, 2.0);
        assert_eq!(s.p90_s, 10.0);
        assert_eq!(s.p99_s, 10.0);
    }

    #[test]
    fn duplicate_timestamps_are_plain_order_statistics() {
        // A run of equal values: whatever rank a percentile lands on
        // inside the run, the statistic is that value — shard boundaries
        // cutting through the run cannot change it.
        let s = LatencyStats::from_sorted(&[5.0, 5.0, 5.0, 9.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.p50_s, 5.0); // rank round(3 · 0.5) = 2
        assert_eq!(s.p90_s, 9.0); // rank round(3 · 0.9) = 3
        assert_eq!(s.p99_s, 9.0);
        let all_equal = LatencyStats::from_sorted(&[4.25; 5]);
        assert_eq!(all_equal.p50_s, 4.25);
        assert_eq!(all_equal.p90_s, 4.25);
        assert_eq!(all_equal.p99_s, 4.25);
        assert_eq!(all_equal.mean_s, 4.25);
    }

    /// The frozen-digest contract of the manual `Debug`: a report with no
    /// per-family entries and no robustness block renders byte-identically
    /// to the pre-family derived output; populated optional sections
    /// append after `findings` in a fixed order.
    #[test]
    fn debug_omits_empty_per_family_and_robustness() {
        let mut r = FleetReport {
            vehicles: 1,
            defective: 0,
            detected: 0,
            localized: 0,
            sessions_completed: 0,
            windows_used: 0,
            bist_time_s: 0.0,
            batches: 0,
            latency: LatencyStats::from_sorted(&[]),
            coverage_over_time: vec![],
            per_ecu: vec![],
            findings: vec![],
            per_family: vec![],
            robustness: None,
        };
        let plain = format!("{r:?}");
        assert!(!plain.contains("per_family"));
        assert!(!plain.contains("robustness"));
        assert!(plain.ends_with("findings: [] }"));
        r.per_family.push(FamilyReport {
            family: CutFamily::Sram,
            detected: 1,
            localized: 1,
            latency: LatencyStats::from_sorted(&[5.0]),
        });
        let split = format!("{r:?}");
        assert!(split.contains("per_family: [FamilyReport { family: Sram"));
        let shared = plain.len() - 2;
        assert_eq!(&split[..shared], &plain[..shared], "prefix is unchanged");
        r.robustness = Some(RobustnessReport {
            impaired_uploads: 2,
            retransmitted_frames: 7,
            retransmit_overhead_s: 0.25,
            window_lost_uploads: 1,
            corrupted_uploads: 1,
            cap_truncated_uploads: 0,
            rejected_uploads: 3,
            rank_degraded: 1,
            rank_improved: 0,
            delocalized: 1,
            rank_cdf: vec![RankCdfPoint {
                bound: 1,
                impaired_le: 1,
                clean_le: 2,
            }],
        });
        let full = format!("{r:?}");
        assert!(
            full.contains("robustness: RobustnessReport { impaired_uploads: 2"),
            "robustness block renders after per_family"
        );
        assert_eq!(&full[..shared], &plain[..shared], "prefix is unchanged");
        assert!(full.find("per_family").unwrap() < full.find("robustness").unwrap());
    }

    #[test]
    fn latency_percentiles_are_order_statistics() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = LatencyStats::from_sorted(&sorted);
        assert_eq!(s.count, 100);
        assert_eq!(s.min_s, 1.0);
        assert_eq!(s.max_s, 100.0);
        assert_eq!(s.p50_s, 51.0);
        assert_eq!(s.p90_s, 90.0);
        assert_eq!(s.p99_s, 99.0);
        assert!((s.mean_s - 50.5).abs() < 1e-12);
    }
}
