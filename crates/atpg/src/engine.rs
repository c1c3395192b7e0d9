//! ATPG driver: PODEM per undetected fault with fault dropping and
//! compaction.

use eea_faultsim::{FaultUniverse, WideFaultSim, WidePatternBlock};
use eea_netlist::Circuit;

use crate::cube::TestCube;
use crate::podem::{AtpgOutcome, Podem};

/// Configuration of [`generate_tests`].
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgConfig {
    /// PODEM backtrack limit per fault; beyond it the fault is *aborted*.
    pub backtrack_limit: u64,
    /// Whether to run reverse-order compaction at the end.
    pub compact: bool,
    /// Seed for the random fill of don't-care bits.
    pub fill_seed: u64,
    /// Stop once the universe's coverage reaches this value (used by the
    /// BIST profile generator to hit 95 %/98 % targets); `None` = run to
    /// completion.
    pub stop_at_coverage: Option<f64>,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            backtrack_limit: 100,
            compact: true,
            fill_seed: 0xA7F6,
            stop_at_coverage: None,
        }
    }
}

/// Result of an ATPG run.
#[derive(Debug, Clone)]
pub struct AtpgRun {
    /// Generated (possibly compacted) test cubes.
    pub cubes: Vec<TestCube>,
    /// Number of faults proven untestable (redundant).
    pub untestable: usize,
    /// Number of faults aborted at the backtrack limit.
    pub aborted: usize,
    /// Number of detected faults.
    pub detected: usize,
    /// Total faults targeted.
    pub total_faults: usize,
    /// Sum of the *specified* (care) bits of the raw PODEM cubes before
    /// random fill — the quantity a test-data compressor must actually
    /// encode, and thus the driver of the `s(b^D)` size model in `eea-bist`.
    pub specified_care_bits: usize,
}

impl AtpgRun {
    /// Fault coverage: detected / total.
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected as f64 / self.total_faults as f64
        }
    }

    /// Fault efficiency: (detected + untestable) / total. A complete ATPG
    /// run has efficiency 1.0 even when redundant faults cap coverage.
    pub fn efficiency(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            (self.detected + self.untestable) as f64 / self.total_faults as f64
        }
    }

    /// Total care bits over all cubes (input to the test-data size model).
    pub fn total_care_bits(&self) -> usize {
        self.cubes.iter().map(TestCube::care_bits).sum()
    }
}

/// Runs ATPG over the collapsed fault universe of `circuit`.
///
/// Equivalent to [`generate_tests_for`] with a fresh universe; see there for
/// details.
pub fn generate_tests(circuit: &Circuit, config: &AtpgConfig) -> AtpgRun {
    let mut universe = FaultUniverse::collapsed(circuit);
    generate_tests_for(circuit, &mut universe, config)
}

/// Runs ATPG targeting exactly the faults still undetected in `universe`
/// (already-detected faults — e.g. covered by earlier pseudo-random BIST
/// patterns — are skipped, which is precisely the mixed-mode "top-off"
/// flow).
///
/// Each generated cube is random-filled and fault-simulated so that one
/// pattern drops many faults. On return, `universe` reflects the detection
/// state of the returned test set.
pub fn generate_tests_for(
    circuit: &Circuit,
    universe: &mut FaultUniverse,
    config: &AtpgConfig,
) -> AtpgRun {
    let mut podem = Podem::new(circuit, config.backtrack_limit);
    // Grading one cube at a time: the narrow 1-lane word skips the unused
    // upper lanes of the default-width pattern block.
    let mut sim = WideFaultSim::<1>::new(circuit);
    let mut cubes: Vec<TestCube> = Vec::new();
    let mut specified_care_bits = 0usize;
    let mut untestable = 0;
    let mut aborted = 0;
    let pre_detected = universe.num_detected();
    let pre_detected_idx: Vec<usize> = (0..universe.num_faults())
        .filter(|&i| universe.is_detected(i))
        .collect();
    let mut fill_state = config.fill_seed | 1;
    let mut fill = move || {
        // xorshift64 bit stream for don't-care fill.
        fill_state ^= fill_state << 13;
        fill_state ^= fill_state >> 7;
        fill_state ^= fill_state << 17;
        fill_state & 1 == 1
    };

    for fi in 0..universe.num_faults() {
        if let Some(target) = config.stop_at_coverage {
            if universe.coverage() >= target {
                break;
            }
        }
        if universe.is_detected(fi) {
            continue;
        }
        let fault = universe.fault(fi);
        match podem.run(fault) {
            AtpgOutcome::Test(cube) => {
                specified_care_bits += cube.care_bits();
                let filled = cube.filled_with(&mut fill);
                let block =
                    WidePatternBlock::<1>::from_patterns(circuit, std::slice::from_ref(&filled));
                let newly = sim.detect_block(&block, universe);
                debug_assert!(newly > 0, "generated cube must detect its target");
                // Store the *filled* pattern: compaction and downstream BIST
                // encoding then work with the exact pattern that was graded.
                cubes.push(TestCube::from_values(
                    filled.into_iter().map(Some).collect(),
                ));
            }
            AtpgOutcome::Untestable => untestable += 1,
            AtpgOutcome::Aborted => aborted += 1,
        }
    }

    if config.compact && !cubes.is_empty() {
        // Replay compaction starting from the pre-run detection state so
        // that cubes are only kept for faults the pseudo-random phase did
        // not already cover.
        let mut replay = universe.clone();
        replay.reset();
        for &i in &pre_detected_idx {
            replay.mark_detected(i);
        }
        cubes = crate::compact::compact_from_state(circuit, &cubes, &mut replay);
        *universe = replay;
    }

    AtpgRun {
        detected: universe.num_detected() - pre_detected,
        total_faults: universe.num_faults() - pre_detected,
        cubes,
        untestable,
        aborted,
        specified_care_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eea_netlist::{bench_format, synthesize, SynthConfig};

    #[test]
    fn c17_full_run() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let run = generate_tests(&c, &AtpgConfig::default());
        assert_eq!(run.total_faults, 22);
        assert_eq!(run.untestable, 0);
        assert_eq!(run.aborted, 0);
        assert_eq!(run.detected, 22);
        assert!((run.coverage() - 1.0).abs() < 1e-12);
        assert!((run.efficiency() - 1.0).abs() < 1e-12);
        // c17 is testable with very few patterns.
        assert!(run.cubes.len() <= 10, "{} cubes", run.cubes.len());
    }

    #[test]
    fn s27_full_run() {
        let c = bench_format::parse(bench_format::S27).unwrap();
        let run = generate_tests(&c, &AtpgConfig::default());
        assert!((run.efficiency() - 1.0).abs() < 1e-12);
        assert_eq!(run.detected + run.untestable, run.total_faults);
    }

    #[test]
    fn synthetic_circuit_efficiency() {
        let c = synthesize(&SynthConfig {
            gates: 200,
            inputs: 12,
            dffs: 10,
            seed: 99,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        let run = generate_tests(&c, &AtpgConfig::default());
        // Every fault is detected, proven untestable, or aborted; aborted
        // faults may additionally be detected fortuitously by later cubes,
        // so the counts can overlap.
        assert!(run.detected + run.untestable <= run.total_faults);
        assert!(run.detected + run.untestable + run.aborted >= run.total_faults);
        assert!(run.coverage() > 0.8, "coverage = {}", run.coverage());
        assert!(run.efficiency() >= run.coverage());
    }

    #[test]
    fn topoff_after_partial_detection() {
        use eea_faultsim::{FaultSim, FaultUniverse, PatternBlock};
        let c = bench_format::parse(bench_format::C17).unwrap();
        let mut universe = FaultUniverse::collapsed(&c);
        // Detect some faults with one pattern first.
        let mut sim = FaultSim::new(&c);
        let block = PatternBlock::from_patterns(&c, &[vec![true; 5]]);
        let pre = sim.detect_block(&block, &mut universe);
        assert!(pre > 0);
        let run = generate_tests_for(&c, &mut universe, &AtpgConfig::default());
        assert_eq!(universe.num_detected(), universe.num_faults());
        assert_eq!(run.detected, universe.num_faults() - pre);
    }
}
