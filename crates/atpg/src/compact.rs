//! Reverse-order test-set compaction.
//!
//! Later ATPG patterns tend to detect many earlier-targeted faults
//! fortuitously. Simulating the test set in reverse order and keeping only
//! patterns that detect a not-yet-detected fault routinely shrinks the set
//! by 30–50 % — directly reducing the *encoded deterministic test data*
//! volume `s(b^D)` that the paper's DSE must place in gateway or ECU memory.

use eea_faultsim::{FaultUniverse, WideFaultSim, WidePatternBlock};
use eea_netlist::Circuit;

use crate::cube::TestCube;

/// Compacts `cubes` by reverse-order fault simulation against the faults in
/// `universe` (detection state in `universe` is reset first and left at the
/// compacted set's detection state). Returns the retained cubes, in their
/// original relative order.
pub fn compact_reverse_order(
    circuit: &Circuit,
    cubes: &[TestCube],
    universe: &mut FaultUniverse,
) -> Vec<TestCube> {
    universe.reset();
    compact_from_state(circuit, cubes, universe)
}

/// Like [`compact_reverse_order`] but keeps the current detection state of
/// `universe`: faults already marked detected (e.g. by pseudo-random BIST
/// patterns) do not cause cubes to be retained. This is the variant used by
/// the mixed-mode top-off flow.
pub fn compact_from_state(
    circuit: &Circuit,
    cubes: &[TestCube],
    universe: &mut FaultUniverse,
) -> Vec<TestCube> {
    // One cube per block: the narrow 1-lane word avoids paying the default
    // width for single-pattern grading.
    let mut sim = WideFaultSim::<1>::new(circuit);
    let mut keep = vec![false; cubes.len()];
    for (idx, cube) in cubes.iter().enumerate().rev() {
        let filled = cube.filled_with(|| false);
        let block = WidePatternBlock::<1>::from_patterns(circuit, &[filled]);
        if sim.detect_block(&block, universe) > 0 {
            keep[idx] = true;
        }
    }
    cubes
        .iter()
        .zip(&keep)
        .filter(|&(_, &k)| k)
        .map(|(c, _)| c.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eea_netlist::bench_format;

    #[test]
    fn duplicate_patterns_are_dropped() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let mut cube = TestCube::unspecified(&c);
        for i in 0..c.pattern_width() {
            cube.set(i, i % 2 == 0);
        }
        let cubes = vec![cube.clone(), cube.clone(), cube];
        let mut universe = eea_faultsim::FaultUniverse::collapsed(&c);
        let compacted = compact_reverse_order(&c, &cubes, &mut universe);
        assert_eq!(compacted.len(), 1);
    }

    #[test]
    fn compaction_preserves_coverage() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        // A handful of distinct patterns.
        let mut cubes = Vec::new();
        for k in 0..12u32 {
            let mut cube = TestCube::unspecified(&c);
            for i in 0..c.pattern_width() {
                cube.set(i, (k >> (i as u32 % 5)) & 1 == 1);
            }
            cubes.push(cube);
        }
        let mut u_before = eea_faultsim::FaultUniverse::collapsed(&c);
        let mut sim = eea_faultsim::FaultSim::new(&c);
        for cube in &cubes {
            let block =
                eea_faultsim::PatternBlock::from_patterns(&c, &[cube.filled_with(|| false)]);
            sim.detect_block(&block, &mut u_before);
        }
        let cov_before = u_before.coverage();

        let mut u_after = eea_faultsim::FaultUniverse::collapsed(&c);
        let compacted = compact_reverse_order(&c, &cubes, &mut u_after);
        assert!(compacted.len() <= cubes.len());
        assert!(
            (u_after.coverage() - cov_before).abs() < 1e-12,
            "compaction changed coverage: {} -> {}",
            cov_before,
            u_after.coverage()
        );
    }
}
