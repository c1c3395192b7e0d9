//! Result reporting: the quantities behind Fig. 5, Fig. 6 and the §IV-B
//! headline numbers, plus CSV/ASCII rendering.

use std::fmt::Write as _;

use crate::explore::ExploredImplementation;

/// A Fig. 5 data point: monetary cost vs test quality, with the marker
/// class split at 20 s shut-off time (● below, ▲ above).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Point {
    /// Monetary cost.
    pub cost: f64,
    /// Test quality in percent.
    pub quality_pct: f64,
    /// Shut-off time in seconds.
    pub shutoff_s: f64,
    /// Whether the shut-off time is below the paper's 20 s marker split.
    pub fast_shutoff: bool,
}

/// The paper splits Fig. 5 markers at a shut-off time of 20 seconds.
pub const SHUTOFF_MARKER_SPLIT_S: f64 = 20.0;

/// Extracts the Fig. 5 scatter data from a front.
pub fn fig5_points(front: &[ExploredImplementation]) -> Vec<Fig5Point> {
    front
        .iter()
        .map(|e| Fig5Point {
            cost: e.objectives.cost,
            quality_pct: e.objectives.test_quality * 100.0,
            shutoff_s: e.objectives.shutoff_s,
            fast_shutoff: e.objectives.shutoff_s < SHUTOFF_MARKER_SPLIT_S,
        })
        .collect()
}

/// A Fig. 6 row: memory split and shut-off time of one representative
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Row {
    /// 1-based implementation number (as in the paper's figure).
    pub number: usize,
    /// Gateway-stored test data in bytes.
    pub gateway_bytes: u64,
    /// ECU-local (distributed) test data in bytes.
    pub distributed_bytes: u64,
    /// Shut-off time in seconds (plotted in log scale in the paper).
    pub shutoff_s: f64,
    /// Test quality in percent (context column).
    pub quality_pct: f64,
    /// Monetary cost (context column).
    pub cost: f64,
}

/// Picks `k` representative implementations spread across the front's test
/// quality range (endpoints included) and returns their Fig. 6 rows.
pub fn fig6_rows(front: &[ExploredImplementation], k: usize) -> Vec<Fig6Row> {
    if front.is_empty() || k == 0 {
        return Vec::new();
    }
    let mut by_quality: Vec<&ExploredImplementation> = front
        .iter()
        .filter(|e| e.objectives.test_quality > 0.0)
        .collect();
    by_quality.sort_by(|a, b| {
        a.objectives
            .test_quality
            .total_cmp(&b.objectives.test_quality)
    });
    if by_quality.is_empty() {
        return Vec::new();
    }
    let k = k.min(by_quality.len());
    let mut rows = Vec::with_capacity(k);
    for i in 0..k {
        let idx = if k == 1 {
            0
        } else {
            i * (by_quality.len() - 1) / (k - 1)
        };
        let e = by_quality[idx];
        rows.push(Fig6Row {
            number: i + 1,
            gateway_bytes: e.memory.gateway_bytes,
            distributed_bytes: e.memory.distributed_bytes,
            shutoff_s: e.objectives.shutoff_s,
            quality_pct: e.objectives.test_quality * 100.0,
            cost: e.objectives.cost,
        });
    }
    rows
}

/// The §IV-B headline numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Number of non-dominated implementations (paper: 176).
    pub front_size: usize,
    /// Cheapest design without any structural test (the baseline).
    pub baseline_cost: f64,
    /// Best test quality achievable within `cost_budget_factor` of the
    /// baseline (paper: 80.7 % within +3.7 %).
    pub best_quality_pct_in_budget: f64,
    /// The relative extra cost of that implementation.
    pub extra_cost_pct: f64,
}

/// Computes the headline numbers with the paper's +3.7 % budget factor.
/// `baseline_cost` is the cheapest diagnosis-free design (obtain it from a
/// dedicated baseline exploration, or pass `None` to look for a
/// zero-quality design inside the front).
pub fn headline(front: &[ExploredImplementation], baseline_cost: Option<f64>) -> Option<Headline> {
    headline_with_budget(front, baseline_cost, 1.037)
}

/// Computes the headline with a custom budget factor relative to the
/// cheapest diagnosis-free design; returns `None` on an empty front or
/// when no baseline is available.
pub fn headline_with_budget(
    front: &[ExploredImplementation],
    baseline_cost: Option<f64>,
    budget_factor: f64,
) -> Option<Headline> {
    let baseline_cost = baseline_cost.unwrap_or_else(|| {
        front
            .iter()
            .filter(|e| e.objectives.test_quality == 0.0)
            .map(|e| e.objectives.cost)
            .fold(f64::INFINITY, f64::min)
    });
    if !baseline_cost.is_finite() {
        return None;
    }
    let budget = baseline_cost * budget_factor;
    let best = front
        .iter()
        .filter(|e| e.objectives.cost <= budget)
        .max_by(|a, b| {
            a.objectives
                .test_quality
                .total_cmp(&b.objectives.test_quality)
        })?;
    Some(Headline {
        front_size: front.len(),
        baseline_cost,
        best_quality_pct_in_budget: best.objectives.test_quality * 100.0,
        extra_cost_pct: (best.objectives.cost / baseline_cost - 1.0) * 100.0,
    })
}

/// Implementations whose shut-off time fits a *partial networking* window.
///
/// The paper (Section I) notes that the same BIST integration applies
/// during partial networking (AUTOSAR v4.0.3): the session must finish
/// before the ECU's power-down, so "a short shut-off time also represents
/// a necessary condition to apply BIST during partial networking". This
/// helper filters the front accordingly and sorts by test quality
/// (best first).
pub fn partial_networking_candidates(
    front: &[ExploredImplementation],
    max_shutoff_s: f64,
) -> Vec<&ExploredImplementation> {
    let mut out: Vec<&ExploredImplementation> = front
        .iter()
        .filter(|e| e.objectives.shutoff_s <= max_shutoff_s && e.objectives.test_quality > 0.0)
        .collect();
    out.sort_by(|a, b| {
        b.objectives
            .test_quality
            .total_cmp(&a.objectives.test_quality)
    });
    out
}

/// Renders Fig. 5 data as CSV (`cost,quality_pct,shutoff_s,marker`).
pub fn fig5_csv(points: &[Fig5Point]) -> String {
    let mut out = String::from("cost,quality_pct,shutoff_s,marker\n");
    for p in points {
        let marker = if p.fast_shutoff { "circle" } else { "triangle" };
        let _ = writeln!(
            out,
            "{:.2},{:.3},{:.4},{marker}",
            p.cost, p.quality_pct, p.shutoff_s
        );
    }
    out
}

/// Renders Fig. 6 data as CSV.
pub fn fig6_csv(rows: &[Fig6Row]) -> String {
    let mut out = String::from("impl,gateway_bytes,distributed_bytes,shutoff_s,quality_pct,cost\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{:.4},{:.3},{:.2}",
            r.number, r.gateway_bytes, r.distributed_bytes, r.shutoff_s, r.quality_pct, r.cost
        );
    }
    out
}

/// Renders an ASCII scatter of Fig. 5 (cost on x, quality on y), with the
/// paper's marker split: `o` = shut-off < 20 s, `^` = above.
pub fn fig5_ascii(points: &[Fig5Point], width: usize, height: usize) -> String {
    if points.is_empty() || width == 0 || height == 0 {
        return String::from("(empty front)\n");
    }
    let (min_c, max_c) = points.iter().fold((f64::MAX, f64::MIN), |(lo, hi), p| {
        (lo.min(p.cost), hi.max(p.cost))
    });
    let (min_q, max_q) = points.iter().fold((f64::MAX, f64::MIN), |(lo, hi), p| {
        (lo.min(p.quality_pct), hi.max(p.quality_pct))
    });
    let span_c = (max_c - min_c).max(1e-9);
    let span_q = (max_q - min_q).max(1e-9);
    let mut grid = vec![vec![b' '; width]; height];
    for p in points {
        let x = (((p.cost - min_c) / span_c) * (width - 1) as f64).round() as usize;
        let y = (((p.quality_pct - min_q) / span_q) * (height - 1) as f64).round() as usize;
        let row = height - 1 - y;
        grid[row][x] = if p.fast_shutoff { b'o' } else { b'^' };
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "test quality [%] {:.1}..{:.1} (y) vs cost {:.1}..{:.1} (x); o: shut-off < 20 s, ^: >= 20 s",
        min_q, max_q, min_c, max_c
    );
    for row in grid {
        // The grid holds only ASCII marker bytes.
        out.extend(row.iter().map(|&b| b as char));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ExploredImplementation;
    use crate::objectives::{MemorySummary, Objectives};
    use eea_model::Implementation;

    fn entry(cost: f64, quality: f64, shutoff: f64, gw: u64, local: u64) -> ExploredImplementation {
        ExploredImplementation {
            objectives: Objectives {
                cost,
                test_quality: quality,
                shutoff_s: shutoff,
            },
            implementation: Implementation::new(),
            memory: MemorySummary {
                gateway_bytes: gw,
                distributed_bytes: local,
                selected: Vec::new(),
            },
        }
    }

    fn sample_front() -> Vec<ExploredImplementation> {
        vec![
            entry(100.0, 0.0, 0.0, 0, 0),
            entry(102.0, 0.65, 25.0, 4_000_000, 0),
            entry(103.5, 0.807, 30.0, 9_000_000, 0),
            entry(120.0, 0.81, 3.0, 0, 9_000_000),
            entry(140.0, 0.95, 2.0, 1_000_000, 12_000_000),
        ]
    }

    #[test]
    fn fig5_marker_split() {
        let pts = fig5_points(&sample_front());
        assert_eq!(pts.len(), 5);
        assert!(pts[0].fast_shutoff);
        assert!(!pts[2].fast_shutoff);
        let csv = fig5_csv(&pts);
        assert!(csv.contains("triangle"));
        assert!(csv.contains("circle"));
        assert_eq!(csv.lines().count(), 6);
    }

    #[test]
    fn fig6_rows_span_quality() {
        let rows = fig6_rows(&sample_front(), 3);
        assert_eq!(rows.len(), 3);
        // Spread across quality: first is lowest-quality diagnosed design,
        // last is the best.
        assert!(rows[0].quality_pct <= rows[2].quality_pct);
        assert_eq!(rows[2].quality_pct, 95.0);
        let csv = fig6_csv(&rows);
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn headline_finds_cheap_quality() {
        let hl = headline(&sample_front(), None).expect("baseline exists");
        assert_eq!(hl.front_size, 5);
        assert_eq!(hl.baseline_cost, 100.0);
        // Budget 103.7 admits the 0.807-quality design at 103.5.
        assert!((hl.best_quality_pct_in_budget - 80.7).abs() < 1e-9);
        assert!(hl.extra_cost_pct < 3.7);
    }

    #[test]
    fn headline_none_without_baseline() {
        let front = vec![entry(10.0, 0.5, 1.0, 0, 0)];
        assert!(headline(&front, None).is_none());
        // With an explicit baseline, the in-front search is bypassed.
        let hl = headline(&front, Some(9.8)).expect("explicit baseline");
        assert!((hl.best_quality_pct_in_budget - 50.0).abs() < 1e-9);
    }

    #[test]
    fn partial_networking_filters_and_sorts() {
        let front = sample_front();
        let candidates = partial_networking_candidates(&front, 5.0);
        // Only the two fast diagnosed designs qualify; the quality-0
        // baseline and the slow gateway designs do not.
        assert_eq!(candidates.len(), 2);
        assert!(candidates[0].objectives.test_quality >= candidates[1].objectives.test_quality);
        assert!(candidates.iter().all(|e| e.objectives.shutoff_s <= 5.0));
        assert!(partial_networking_candidates(&front, 0.5).is_empty());
    }

    #[test]
    fn ascii_render_contains_markers() {
        let art = fig5_ascii(&fig5_points(&sample_front()), 40, 10);
        assert!(art.contains('o'));
        assert!(art.contains('^'));
    }

    #[test]
    fn fig6_empty_inputs() {
        assert!(fig6_rows(&[], 7).is_empty());
        assert!(fig6_rows(&sample_front(), 0).is_empty());
        let no_diag = vec![entry(1.0, 0.0, 0.0, 0, 0)];
        assert!(fig6_rows(&no_diag, 7).is_empty());
    }
}
