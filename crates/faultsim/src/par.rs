//! Deterministic parallel fault simulation.
//!
//! [`ParFaultSim`] partitions the undetected-fault worklist across
//! `std::thread::scope` workers, each owning its own [`WideFaultSim`]
//! (good- and faulty-machine buffers are per-worker). Because PPSFP
//! detection of one fault is independent of every other fault — the
//! universe only gates *which* faults are still tried — the parallel result
//! is bit-identical to the serial path: the same faults are detected, with
//! the same first-detecting pattern positions, for any worker count.
//!
//! Determinism is enforced structurally: the live worklist is snapshotted
//! and sorted by fault index, split into contiguous chunks, and the
//! per-chunk hits are merged back in chunk order — i.e. fault-index order —
//! before any detection state is mutated.

use eea_netlist::Circuit;

use crate::block::{BitBlock, DEFAULT_LANES};
use crate::ppsfp::WideFaultSim;
use crate::sim::WidePatternBlock;
use crate::universe::FaultUniverse;

/// Resolves a requested worker count: `0` means one worker per available
/// CPU; the `EEA_THREADS` environment variable overrides the request.
pub fn resolve_threads(requested: usize) -> usize {
    let requested = std::env::var("EEA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(requested);
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Worklist-parallel PPSFP simulator: the drop-in multi-worker counterpart
/// of [`WideFaultSim::detect_block`] and
/// [`WideFaultSim::detect_block_with_positions`].
///
/// Results are bit-identical to the serial [`WideFaultSim`] path at any
/// worker count (see the module docs); a one-worker instance degenerates to
/// the serial algorithm without spawning.
///
/// # Example
///
/// ```
/// use eea_netlist::bench_format;
/// use eea_faultsim::{FaultUniverse, ParFaultSim, PatternBlock};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = bench_format::parse(bench_format::C17)?;
/// let mut sim = ParFaultSim::new(&c, 4);
/// let mut universe = FaultUniverse::collapsed(&c);
/// let block = PatternBlock::exhaustive(&c).expect("5 inputs");
/// assert_eq!(sim.detect_block(&block, &mut universe), 22);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WideParFaultSim<'c, const L: usize> {
    sims: Vec<WideFaultSim<'c, L>>,
}

/// The default-width parallel PPSFP simulator: [`DEFAULT_LANES`] lanes.
pub type ParFaultSim<'c> = WideParFaultSim<'c, DEFAULT_LANES>;

impl<'c, const L: usize> WideParFaultSim<'c, L> {
    /// Creates a simulator with exactly `threads.max(1)` workers. Callers
    /// wanting the `0 = auto` / `EEA_THREADS` convention resolve via
    /// [`resolve_threads`] first.
    pub fn new(circuit: &'c Circuit, threads: usize) -> Self {
        let t = threads.max(1);
        WideParFaultSim {
            sims: (0..t).map(|_| WideFaultSim::new(circuit)).collect(),
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.sims.len()
    }

    /// Parallel counterpart of [`WideFaultSim::detect_block`]: marks every
    /// fault detected by `block` and returns how many were newly detected.
    pub fn detect_block(
        &mut self,
        block: &WidePatternBlock<L>,
        universe: &mut FaultUniverse,
    ) -> usize {
        let hits = self.scan(block, universe, true);
        for &(fi, _) in &hits {
            universe.mark_detected(fi as usize);
        }
        hits.len()
    }

    /// Parallel counterpart of
    /// [`WideFaultSim::detect_block_with_positions`]: returns `(fault
    /// index, first detecting pattern)` pairs sorted by fault index.
    pub fn detect_block_with_positions(
        &mut self,
        block: &WidePatternBlock<L>,
        universe: &mut FaultUniverse,
    ) -> Vec<(usize, u32)> {
        let hits = self.scan(block, universe, false);
        hits.into_iter()
            .map(|(fi, mask)| {
                universe.mark_detected(fi as usize);
                (fi as usize, mask.trailing_zeros())
            })
            .collect()
    }

    /// Scans the live worklist and returns `(fault index, detection mask)`
    /// pairs in fault-index order, without mutating the universe.
    fn scan(
        &mut self,
        block: &WidePatternBlock<L>,
        universe: &FaultUniverse,
        early_exit: bool,
    ) -> Vec<(u32, BitBlock<L>)> {
        // Snapshot and sort: the worklist itself is unordered (swap-remove),
        // but sorted contiguous chunks make the merged hit list fault-index
        // ordered for free.
        let mut live: Vec<u32> = universe.live().to_vec();
        live.sort_unstable();
        if live.is_empty() {
            return Vec::new();
        }
        let workers = self.sims.len().min(live.len());
        if workers <= 1 {
            return Self::scan_chunk(&mut self.sims[0], block, universe, &live, early_exit);
        }
        let chunk = live.len().div_ceil(workers);
        let mut merged: Vec<(u32, BitBlock<L>)> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .sims
                .iter_mut()
                .zip(live.chunks(chunk))
                .map(|(sim, part)| {
                    s.spawn(move || Self::scan_chunk(sim, block, universe, part, early_exit))
                })
                .collect();
            for h in handles {
                // Workers are panic-free by policy; if one nevertheless
                // unwinds, re-raise its payload instead of unwrapping.
                match h.join() {
                    Ok(part) => merged.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        merged
    }

    fn scan_chunk(
        sim: &mut WideFaultSim<'c, L>,
        block: &WidePatternBlock<L>,
        universe: &FaultUniverse,
        faults: &[u32],
        early_exit: bool,
    ) -> Vec<(u32, BitBlock<L>)> {
        sim.run_good(block);
        faults
            .iter()
            .filter_map(|&fi| {
                let mask = sim.detect_mask(universe.fault(fi as usize), block, early_exit);
                mask.any().then_some((fi, mask))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppsfp::FaultSim;
    use crate::sim::PatternBlock;
    use eea_netlist::bench_format;
    use eea_netlist::{synthesize, SynthConfig};

    #[test]
    fn c17_exhaustive_matches_serial() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let block = PatternBlock::exhaustive(&c).unwrap();
        for threads in [1, 2, 4] {
            let mut sim = ParFaultSim::new(&c, threads);
            let mut u = FaultUniverse::collapsed(&c);
            assert_eq!(sim.detect_block(&block, &mut u), 22);
            assert_eq!(u.coverage(), 1.0);
        }
    }

    #[test]
    fn positions_match_serial_at_any_thread_count() {
        let c = synthesize(&SynthConfig {
            gates: 200,
            inputs: 12,
            dffs: 10,
            seed: 99,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        let mut rng = 0xDEAD_BEEF_1234_5678u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut blocks = Vec::new();
        for _ in 0..4 {
            // Full-width blocks: the parallel merge must stay bit-identical
            // with detections landing in every lane.
            let mut block = PatternBlock::zeroed(&c, PatternBlock::CAPACITY);
            block.fill_words(&mut next);
            blocks.push(block);
        }
        let mut serial_sim = FaultSim::new(&c);
        let mut serial_u = FaultUniverse::collapsed(&c);
        let serial: Vec<Vec<(usize, u32)>> = blocks
            .iter()
            .map(|b| serial_sim.detect_block_with_positions(b, &mut serial_u))
            .collect();
        for threads in [1, 3, 8] {
            let mut sim = ParFaultSim::new(&c, threads);
            let mut u = FaultUniverse::collapsed(&c);
            let par: Vec<Vec<(usize, u32)>> = blocks
                .iter()
                .map(|b| sim.detect_block_with_positions(b, &mut u))
                .collect();
            assert_eq!(par, serial, "threads = {threads}");
            assert_eq!(u.num_detected(), serial_u.num_detected());
        }
    }

    #[test]
    fn more_workers_than_faults() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let mut sim = ParFaultSim::new(&c, 64);
        let mut u = FaultUniverse::collapsed(&c);
        let block = PatternBlock::exhaustive(&c).unwrap();
        assert_eq!(sim.detect_block(&block, &mut u), 22);
    }

    #[test]
    fn resolve_threads_conventions() {
        // Explicit counts pass through untouched (EEA_THREADS may override
        // in a user environment; the test environment leaves it unset).
        if std::env::var("EEA_THREADS").is_err() {
            assert_eq!(resolve_threads(3), 3);
            assert!(resolve_threads(0) >= 1);
        }
    }
}
