use eea_netlist::Circuit;

use crate::collapsing::collapse;
use crate::fault::{enumerate_faults, Fault};

/// A point on a fault-coverage curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoveragePoint {
    /// Cumulative number of patterns applied.
    pub patterns: u64,
    /// Fault coverage in `[0, 1]`.
    pub coverage: f64,
}

/// The set of target faults of a circuit plus detection bookkeeping.
///
/// Coverage is reported over this universe. Use [`collapsed`](Self::collapsed)
/// for the equivalence-collapsed set (what the paper's fault counts refer
/// to) or [`full`](Self::full) for the raw universe.
#[derive(Debug, Clone)]
pub struct FaultUniverse {
    faults: Vec<Fault>,
    detected: Vec<bool>,
    num_detected: usize,
    curve: Vec<CoveragePoint>,
    /// Undetected fault indices, unordered (swap-remove on detection).
    /// Simulators iterate this worklist instead of scanning and skipping
    /// all faults, and it is the partitioning unit of the parallel path.
    live: Vec<u32>,
    /// Position of each fault in `live`, or `u32::MAX` once detected.
    live_pos: Vec<u32>,
}

impl FaultUniverse {
    /// Builds the equivalence-collapsed fault universe of `circuit`.
    pub fn collapsed(circuit: &Circuit) -> Self {
        Self::from_faults(collapse(circuit).representatives)
    }

    /// Builds the complete (uncollapsed) fault universe of `circuit`.
    pub fn full(circuit: &Circuit) -> Self {
        Self::from_faults(enumerate_faults(circuit))
    }

    /// Builds a universe over an explicit fault list.
    ///
    /// # Panics
    ///
    /// Panics if the list holds more than `u32::MAX` faults, the range of
    /// a fault index.
    pub fn from_faults(faults: Vec<Fault>) -> Self {
        let n = faults.len();
        assert!(n <= u32::MAX as usize, "fault universe exceeds u32 indices");
        FaultUniverse {
            faults,
            detected: vec![false; n],
            num_detected: 0,
            curve: Vec::new(),
            live: (0..n as u32).collect(),
            live_pos: (0..n as u32).collect(),
        }
    }

    /// Number of target faults.
    #[inline]
    pub fn num_faults(&self) -> usize {
        self.faults.len()
    }

    /// The `i`-th fault.
    #[inline]
    pub fn fault(&self, i: usize) -> Fault {
        self.faults[i]
    }

    /// Whether the `i`-th fault has been detected.
    #[inline]
    pub fn is_detected(&self, i: usize) -> bool {
        self.detected[i]
    }

    /// Marks the `i`-th fault detected. Idempotent.
    pub fn mark_detected(&mut self, i: usize) {
        if !self.detected[i] {
            self.detected[i] = true;
            self.num_detected += 1;
            let p = self.live_pos[i] as usize;
            self.live.swap_remove(p);
            if p < self.live.len() {
                self.live_pos[self.live[p] as usize] = p as u32;
            }
            self.live_pos[i] = u32::MAX;
        }
    }

    /// The undetected-fault worklist, in unspecified order.
    #[inline]
    pub fn live(&self) -> &[u32] {
        &self.live
    }

    /// Number of undetected faults.
    #[inline]
    pub fn num_live(&self) -> usize {
        self.live.len()
    }

    /// The fault index at worklist position `p`.
    #[inline]
    pub fn live_at(&self, p: usize) -> usize {
        self.live[p] as usize
    }

    /// Number of detected faults.
    #[inline]
    pub fn num_detected(&self) -> usize {
        self.num_detected
    }

    /// Fault coverage in `[0, 1]`; `1.0` for an empty universe.
    pub fn coverage(&self) -> f64 {
        if self.faults.is_empty() {
            1.0
        } else {
            self.num_detected as f64 / self.faults.len() as f64
        }
    }

    /// Iterator over the undetected faults with their indices.
    pub fn undetected(&self) -> impl Iterator<Item = (usize, Fault)> + '_ {
        self.faults
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.detected[i])
            .map(|(i, &f)| (i, f))
    }

    /// Records a coverage-curve point after `patterns` cumulative patterns.
    pub fn record(&mut self, patterns: u64) {
        self.curve.push(CoveragePoint {
            patterns,
            coverage: self.coverage(),
        });
    }

    /// The recorded coverage curve.
    pub fn curve(&self) -> &[CoveragePoint] {
        &self.curve
    }

    /// Resets all detection state (keeps the fault list and clears the
    /// curve).
    pub fn reset(&mut self) {
        self.detected.iter_mut().for_each(|d| *d = false);
        self.num_detected = 0;
        self.curve.clear();
        let n = self.faults.len() as u32;
        self.live.clear();
        self.live.extend(0..n);
        self.live_pos.clear();
        self.live_pos.extend(0..n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eea_netlist::bench_format;

    #[test]
    fn collapsed_smaller_than_full() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let full = FaultUniverse::full(&c);
        let col = FaultUniverse::collapsed(&c);
        assert!(col.num_faults() < full.num_faults());
        assert_eq!(col.num_faults(), 22);
    }

    #[test]
    fn detection_bookkeeping() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let mut u = FaultUniverse::collapsed(&c);
        assert_eq!(u.coverage(), 0.0);
        u.mark_detected(0);
        u.mark_detected(0); // idempotent
        assert_eq!(u.num_detected(), 1);
        assert!((u.coverage() - 1.0 / 22.0).abs() < 1e-12);
        assert_eq!(u.undetected().count(), 21);
    }

    #[test]
    fn curve_recording_and_reset() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let mut u = FaultUniverse::collapsed(&c);
        u.mark_detected(3);
        u.record(64);
        u.mark_detected(4);
        u.record(128);
        assert_eq!(u.curve().len(), 2);
        assert!(u.curve()[1].coverage > u.curve()[0].coverage);
        u.reset();
        assert_eq!(u.num_detected(), 0);
        assert!(u.curve().is_empty());
    }

    #[test]
    fn empty_universe_full_coverage() {
        let u = FaultUniverse::from_faults(Vec::new());
        assert_eq!(u.coverage(), 1.0);
        assert_eq!(u.num_live(), 0);
    }

    #[test]
    fn worklist_tracks_detection() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let mut u = FaultUniverse::collapsed(&c);
        let n = u.num_faults();
        assert_eq!(u.num_live(), n);
        // Detect a scattered subset (twice, checking idempotence) and
        // verify the worklist matches the detection flags exactly.
        for &i in &[0usize, 7, 21, 7, 3] {
            u.mark_detected(i);
        }
        assert_eq!(u.num_live(), n - 4);
        let mut live: Vec<usize> = u.live().iter().map(|&i| i as usize).collect();
        live.sort_unstable();
        let expect: Vec<usize> = (0..n).filter(|&i| !u.is_detected(i)).collect();
        assert_eq!(live, expect);
        // Worklist positions stay consistent under swap-remove.
        for p in 0..u.num_live() {
            assert!(!u.is_detected(u.live_at(p)));
        }
        u.reset();
        assert_eq!(u.num_live(), n);
        u.mark_detected(n - 1);
        assert_eq!(u.num_live(), n - 1);
    }
}
