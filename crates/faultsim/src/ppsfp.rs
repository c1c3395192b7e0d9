//! Parallel-pattern single-fault propagation (PPSFP).
//!
//! For each fault, the faulty machine is only simulated inside the fault's
//! fanout cone, event-driven in level order, on a whole pattern block at
//! once — 512 patterns at the default width ([`crate::DEFAULT_LANES`]
//! lanes), 64 at lane count 1. This is the standard workhorse algorithm
//! behind industrial fault-coverage estimation and is what makes the BIST
//! profile generation of `eea-bist` tractable on a laptop; the wide block
//! additionally amortizes the per-fault cone setup over 8× the patterns.

use eea_netlist::{Circuit, GateId, GateKind};

use crate::block::{BitBlock, DEFAULT_LANES};
use crate::fault::{Fault, FaultSite};
use crate::sim::{WideGoodSim, WidePatternBlock};
use crate::universe::FaultUniverse;

/// Bit-parallel single-fault simulator.
///
/// Holds reusable buffers; create once per circuit and feed pattern blocks.
///
/// # Example
///
/// ```
/// use eea_netlist::bench_format;
/// use eea_faultsim::{FaultSim, FaultUniverse, PatternBlock};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = bench_format::parse(bench_format::C17)?;
/// let mut sim = FaultSim::new(&c);
/// let mut universe = FaultUniverse::collapsed(&c);
/// let block = PatternBlock::exhaustive(&c).expect("5 inputs");
/// let newly = sim.detect_block(&block, &mut universe);
/// assert_eq!(newly, universe.num_faults());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WideFaultSim<'c, const L: usize> {
    circuit: &'c Circuit,
    good: WideGoodSim<'c, L>,
    faulty: Vec<BitBlock<L>>,
    stamp: Vec<u32>,
    epoch: u32,
    is_output: Vec<bool>,
    /// Event queue bucketed by logic level.
    buckets: Vec<Vec<GateId>>,
    queued: Vec<u32>,
}

/// The default-width PPSFP simulator: [`DEFAULT_LANES`] lanes.
pub type FaultSim<'c> = WideFaultSim<'c, DEFAULT_LANES>;

impl<'c, const L: usize> WideFaultSim<'c, L> {
    /// Creates a simulator for `circuit`.
    pub fn new(circuit: &'c Circuit) -> Self {
        let n = circuit.num_gates();
        let mut is_output = vec![false; n];
        for &o in circuit.outputs() {
            is_output[o.index()] = true;
        }
        let depth = circuit.depth() as usize;
        WideFaultSim {
            circuit,
            good: WideGoodSim::new(circuit),
            faulty: vec![BitBlock::ZEROS; n],
            stamp: vec![0; n],
            epoch: 0,
            is_output,
            buckets: vec![Vec::new(); depth + 1],
            queued: vec![0; n],
        }
    }

    /// Simulates the good machine for `block`; needed before
    /// [`detect_mask`](Self::detect_mask) and done implicitly by
    /// [`detect_block`](Self::detect_block).
    pub fn run_good(&mut self, block: &WidePatternBlock<L>) {
        self.good.run(block);
    }

    /// Access to the good-machine values of the last simulated block.
    pub fn good_sim(&self) -> &WideGoodSim<'c, L> {
        &self.good
    }

    /// Detection mask of `fault` under the most recently simulated block:
    /// bit `j` is set iff pattern `j` detects the fault at some observation
    /// point (primary output or flip-flop data input).
    ///
    /// When `early_exit` is true, returns as soon as any pattern — in any
    /// lane — detects the fault; the returned mask is then a nonempty
    /// subset of the full mask.
    pub fn detect_mask(
        &mut self,
        fault: Fault,
        block: &WidePatternBlock<L>,
        early_exit: bool,
    ) -> BitBlock<L> {
        let c = self.circuit;
        let mask = block.mask();
        self.epoch += 1;
        for b in &mut self.buckets {
            b.clear();
        }

        // Seed the cone with the fault effect at the origin gate.
        let forced = if fault.stuck_at {
            BitBlock::ONES
        } else {
            BitBlock::ZEROS
        };
        let origin = fault.site.gate();
        let origin_val = match fault.site {
            // Stuck output stem (including stuck primary inputs and stuck
            // flip-flop outputs, i.e. pseudo-inputs).
            FaultSite::Stem(_) => forced,
            FaultSite::Pin { gate, pin } => {
                if c.kind(gate) == GateKind::Dff {
                    // Fault on a flip-flop data pin: the pin is itself an
                    // observation point of the full-scan core.
                    let good_d = self.good.value(c.fanin(gate)[0]);
                    return (good_d ^ forced) & mask;
                }
                // Re-evaluate the receiving gate with the pin forced —
                // values fold straight off the fanin walk, no gather
                // buffer (see `eval_iter`).
                c.kind(gate)
                    .eval_iter(c.fanin(gate).iter().enumerate().map(|(i, &f)| {
                        if i == pin as usize {
                            forced
                        } else {
                            self.good.value(f)
                        }
                    }))
            }
        };

        let diff0 = (origin_val ^ self.good.value(origin)) & mask;
        if diff0.is_zero() {
            return BitBlock::ZEROS;
        }
        let mut detected = BitBlock::ZEROS;
        if self.is_output[origin.index()] {
            detected |= diff0;
            if early_exit {
                return detected;
            }
        }
        self.faulty[origin.index()] = origin_val;
        self.stamp[origin.index()] = self.epoch;
        self.push_fanout(origin, diff0, &mut detected);
        if early_exit && detected.any() {
            return detected;
        }

        // Event-driven propagation in level order. Fanout always has a
        // strictly larger level, so buckets never receive events at or
        // before the level currently being drained.
        for lvl in 0..self.buckets.len() {
            let mut i = 0;
            while i < self.buckets[lvl].len() {
                let g = self.buckets[lvl][i];
                i += 1;
                let fv = c.kind(g).eval_iter(c.fanin(g).iter().map(|&f| {
                    if self.stamp[f.index()] == self.epoch {
                        self.faulty[f.index()]
                    } else {
                        self.good.value(f)
                    }
                }));
                let diff = (fv ^ self.good.value(g)) & mask;
                self.faulty[g.index()] = fv;
                self.stamp[g.index()] = self.epoch;
                if diff.is_zero() {
                    continue;
                }
                if self.is_output[g.index()] {
                    detected |= diff;
                    if early_exit {
                        return detected;
                    }
                }
                self.push_fanout(g, diff, &mut detected);
                if early_exit && detected.any() {
                    return detected;
                }
            }
        }
        detected
    }

    /// Queues the fanout of `g` for re-evaluation; flip-flop data inputs
    /// are observation points and accumulate into `detected` instead.
    fn push_fanout(&mut self, g: GateId, diff: BitBlock<L>, detected: &mut BitBlock<L>) {
        let c = self.circuit;
        for &s in c.fanout(g) {
            if c.kind(s) == GateKind::Dff {
                *detected |= diff;
                continue;
            }
            if self.queued[s.index()] != self.epoch {
                self.queued[s.index()] = self.epoch;
                self.buckets[c.level(s) as usize].push(s);
            }
        }
    }

    /// Runs the good machine on `block`, then tries every yet-undetected
    /// fault in `universe`, marking newly detected ones. Returns the number
    /// of faults newly detected by this block.
    ///
    /// Iterates the universe's live worklist, so a block late in a session
    /// costs only the remaining undetected faults, not the full universe.
    pub fn detect_block(
        &mut self,
        block: &WidePatternBlock<L>,
        universe: &mut FaultUniverse,
    ) -> usize {
        self.run_good(block);
        let mut newly = 0;
        let mut p = 0;
        while p < universe.num_live() {
            let fi = universe.live_at(p);
            let fault = universe.fault(fi);
            if self.detect_mask(fault, block, true).any() {
                // Swap-remove: the last live fault moves into position `p`.
                universe.mark_detected(fi);
                newly += 1;
            } else {
                p += 1;
            }
        }
        newly
    }

    /// Like [`detect_block`](Self::detect_block) but records, for each
    /// newly detected fault, the index (within the block) of the first
    /// detecting pattern, sorted by fault index. Used by the BIST layer for
    /// intermediate-signature bookkeeping.
    pub fn detect_block_with_positions(
        &mut self,
        block: &WidePatternBlock<L>,
        universe: &mut FaultUniverse,
    ) -> Vec<(usize, u32)> {
        self.run_good(block);
        let mut hits = Vec::new();
        let mut p = 0;
        while p < universe.num_live() {
            let fi = universe.live_at(p);
            let mask = self.detect_mask(universe.fault(fi), block, false);
            if mask.any() {
                universe.mark_detected(fi);
                hits.push((fi, mask.trailing_zeros()));
            } else {
                p += 1;
            }
        }
        hits.sort_unstable();
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::PatternBlock;
    use crate::universe::FaultUniverse;
    use eea_netlist::bench_format;
    use eea_netlist::{synthesize, CircuitBuilder, GateKind, SynthConfig};

    /// The u64-style mask a default-width detect mask reduces to in tests
    /// confined to lane 0.
    fn lane0<const L: usize>(mask: BitBlock<L>) -> u64 {
        assert!(
            mask.lanes()[1..].iter().all(|&w| w == 0),
            "detections beyond lane 0"
        );
        mask.lanes()[0]
    }

    #[test]
    fn c17_exhaustive_full_coverage() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let mut sim = FaultSim::new(&c);
        let mut u = FaultUniverse::collapsed(&c);
        let block = PatternBlock::exhaustive(&c).unwrap();
        let newly = sim.detect_block(&block, &mut u);
        assert_eq!(newly, 22);
        assert_eq!(u.coverage(), 1.0);
    }

    #[test]
    fn and_gate_single_pattern() {
        // y = AND(a, b). Pattern (1,1) detects y/sa0, a/sa0, b/sa0;
        // it does not detect y/sa1.
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let y = b.gate(GateKind::And, &[a, x], "y");
        b.output(y);
        let c = b.finish().unwrap();
        let mut sim = FaultSim::new(&c);
        let block = PatternBlock::from_patterns(&c, &[vec![true, true]]);
        sim.run_good(&block);
        assert_eq!(
            lane0(sim.detect_mask(Fault::sa0(FaultSite::Stem(y)), &block, false)),
            1
        );
        assert_eq!(
            lane0(sim.detect_mask(Fault::sa1(FaultSite::Stem(y)), &block, false)),
            0
        );
        assert_eq!(
            lane0(sim.detect_mask(Fault::sa0(FaultSite::Stem(a)), &block, false)),
            1
        );
    }

    #[test]
    fn branch_fault_affects_single_path() {
        // m fans out to g1 = BUF(m) and g2 = BUF(m); a branch fault on
        // g1's pin must only be visible at g1's output.
        let mut b = CircuitBuilder::new();
        let s = b.input("s");
        let t = b.input("t");
        let m = b.gate(GateKind::And, &[s, t], "m");
        let g1 = b.gate(GateKind::Buf, &[m], "g1");
        let g2 = b.gate(GateKind::Buf, &[m], "g2");
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let mut sim = FaultSim::new(&c);
        let block = PatternBlock::from_patterns(&c, &[vec![true, true]]);
        sim.run_good(&block);
        let branch = Fault::sa0(FaultSite::Pin { gate: g1, pin: 0 });
        assert_eq!(lane0(sim.detect_mask(branch, &block, false)), 1);
        let stem = Fault::sa0(FaultSite::Stem(m));
        assert_eq!(lane0(sim.detect_mask(stem, &block, false)), 1);
    }

    #[test]
    fn dff_data_pin_observed() {
        let c = bench_format::parse(bench_format::S27).unwrap();
        let mut sim = FaultSim::new(&c);
        let mut u = FaultUniverse::collapsed(&c);
        let all0 = PatternBlock::zeroed(&c, 1);
        let mut all1 = PatternBlock::zeroed(&c, 1);
        for i in 0..c.pattern_width() {
            all1.set(i, 0, true);
        }
        sim.detect_block(&all0, &mut u);
        sim.detect_block(&all1, &mut u);
        assert!(u.coverage() > 0.3, "coverage = {}", u.coverage());
    }

    #[test]
    fn early_exit_is_subset() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let mut sim = FaultSim::new(&c);
        let block = PatternBlock::exhaustive(&c).unwrap();
        sim.run_good(&block);
        let u = FaultUniverse::collapsed(&c);
        for fi in 0..u.num_faults() {
            let f = u.fault(fi);
            let full = sim.detect_mask(f, &block, false);
            let fast = sim.detect_mask(f, &block, true);
            assert_eq!(fast & full, fast, "early-exit mask must be a subset");
            assert_eq!(full.any(), fast.any());
        }
    }

    #[test]
    fn random_circuit_random_patterns_cover_most() {
        let c = synthesize(&SynthConfig {
            gates: 150,
            inputs: 10,
            dffs: 8,
            seed: 77,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        let mut sim = FaultSim::new(&c);
        let mut u = FaultUniverse::collapsed(&c);
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..8 {
            let mut block = PatternBlock::zeroed(&c, 64);
            for i in 0..c.pattern_width() {
                *block.word_mut(i) = BitBlock::from_u64(next());
            }
            sim.detect_block(&block, &mut u);
        }
        // Small random-logic circuits carry redundant faults; random
        // patterns saturate around the testable share (cf. eea-atpg's
        // redundancy proofs).
        assert!(u.coverage() > 0.6, "coverage = {}", u.coverage());
    }

    #[test]
    fn full_width_block_detects_across_lanes() {
        let c = synthesize(&SynthConfig {
            gates: 150,
            inputs: 10,
            dffs: 8,
            seed: 77,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        let mut sim = FaultSim::new(&c);
        let mut u = FaultUniverse::collapsed(&c);
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut block = PatternBlock::zeroed(&c, PatternBlock::CAPACITY);
        block.fill_words(move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        });
        sim.run_good(&block);
        // Some fault must first be detected by a pattern beyond lane 0 —
        // otherwise the wide block would be indistinguishable from narrow.
        let mut beyond_lane0 = false;
        for fi in 0..u.num_faults() {
            let mask = sim.detect_mask(u.fault(fi), &block, false);
            if mask.any() && mask.trailing_zeros() >= 64 {
                beyond_lane0 = true;
            }
        }
        sim.detect_block(&block, &mut u);
        assert!(u.coverage() > 0.6, "coverage = {}", u.coverage());
        assert!(beyond_lane0, "no detection landed beyond lane 0");
    }

    #[test]
    fn positions_are_first_detecting_pattern() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let mut sim = FaultSim::new(&c);
        let mut u = FaultUniverse::collapsed(&c);
        let block = PatternBlock::exhaustive(&c).unwrap();
        let hits = sim.detect_block_with_positions(&block, &mut u);
        assert_eq!(hits.len(), 22);
        for &(fi, pos) in &hits {
            let full = sim.detect_mask(u.fault(fi), &block, false);
            assert_eq!(full.trailing_zeros(), pos);
        }
    }
}
