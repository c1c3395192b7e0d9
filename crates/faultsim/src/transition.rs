//! Transition-delay fault (TDF) simulation with launch-on-capture.
//!
//! The paper's fault coverage objective uses the stuck-at model, but notes
//! that "the underlying logic diagnosis algorithm is not limited to this
//! fault model". This module adds the industry's second staple: gross-delay
//! (transition) faults under the launch-on-capture (LoC) scheme natural to
//! the STUMPS flow — the scan-loaded pattern `v1` launches a transition
//! through the functional capture, and the follow-up capture of `v2`
//! observes whether the late edge arrived.
//!
//! Detection condition for a slow-to-rise fault at site `s`:
//!
//! 1. **launch**: `s` is 0 under `v1` and 1 under `v2`,
//! 2. **propagate**: the stuck-at-0 fault at `s` is detected by `v2`.
//!
//! (dually for slow-to-fall). Everything is evaluated a whole pattern
//! block at a time (512 patterns at the default width) on top of the
//! bit-parallel stuck-at machinery.

use eea_netlist::Circuit;

use crate::block::{BitBlock, DEFAULT_LANES};
use crate::fault::{enumerate_faults, Fault, FaultSite};
use crate::ppsfp::WideFaultSim;
use crate::sim::{WideGoodSim, WidePatternBlock};

/// Direction of the slow transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransitionKind {
    /// The rising edge arrives late (behaves as stuck-at-0 for one cycle).
    SlowToRise,
    /// The falling edge arrives late (behaves as stuck-at-1 for one cycle).
    SlowToFall,
}

/// A transition-delay fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionFault {
    /// Fault site (stem or branch, like stuck-at).
    pub site: FaultSite,
    /// Transition direction.
    pub kind: TransitionKind,
}

impl TransitionFault {
    /// The one-cycle stuck-at fault the late edge manifests as.
    pub fn as_stuck_at(self) -> Fault {
        match self.kind {
            TransitionKind::SlowToRise => Fault::sa0(self.site),
            TransitionKind::SlowToFall => Fault::sa1(self.site),
        }
    }
}

impl std::fmt::Display for TransitionFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let k = match self.kind {
            TransitionKind::SlowToRise => "str",
            TransitionKind::SlowToFall => "stf",
        };
        write!(f, "{}/{k}", self.site)
    }
}

/// Enumerates the transition-fault universe (two directions per line,
/// sites as in [`enumerate_faults`]).
pub fn enumerate_transition_faults(circuit: &Circuit) -> Vec<TransitionFault> {
    enumerate_faults(circuit)
        .into_iter()
        .map(|f| TransitionFault {
            site: f.site,
            kind: if f.stuck_at {
                TransitionKind::SlowToFall
            } else {
                TransitionKind::SlowToRise
            },
        })
        .collect()
}

/// Derives the launch-on-capture follow-up block `v2` from `v1`: primary
/// inputs are held, flip-flops capture their data inputs.
pub fn launch_on_capture<const L: usize>(
    circuit: &Circuit,
    v1: &WidePatternBlock<L>,
) -> WidePatternBlock<L> {
    let mut sim = WideGoodSim::new(circuit);
    sim.run(v1);
    let mut v2 = WidePatternBlock::zeroed(circuit, v1.len());
    let n_pi = circuit.num_inputs();
    for i in 0..n_pi {
        *v2.word_mut(i) = v1.word(i);
    }
    for (i, &ff) in circuit.dffs().iter().enumerate() {
        let d = circuit.fanin(ff)[0];
        *v2.word_mut(n_pi + i) = sim.value(d) & v1.mask();
    }
    v2
}

/// Bit-parallel transition-fault simulator (launch-on-capture).
#[derive(Debug)]
pub struct WideTransitionSim<'c, const L: usize> {
    circuit: &'c Circuit,
    good_v1: WideGoodSim<'c, L>,
    fsim: WideFaultSim<'c, L>,
}

/// The default-width transition-fault simulator: [`DEFAULT_LANES`] lanes.
pub type TransitionSim<'c> = WideTransitionSim<'c, DEFAULT_LANES>;

impl<'c, const L: usize> WideTransitionSim<'c, L> {
    /// Creates a simulator for `circuit`.
    pub fn new(circuit: &'c Circuit) -> Self {
        WideTransitionSim {
            circuit,
            good_v1: WideGoodSim::new(circuit),
            fsim: WideFaultSim::new(circuit),
        }
    }

    /// Prepares the simulator for a launch block `v1`; returns the derived
    /// capture block `v2`.
    pub fn load(&mut self, v1: &WidePatternBlock<L>) -> WidePatternBlock<L> {
        self.good_v1.run(v1);
        let v2 = launch_on_capture(self.circuit, v1);
        self.fsim.run_good(&v2);
        v2
    }

    /// Detection mask of `fault` for the loaded `(v1, v2)` pair: bit `j`
    /// set iff pattern `j` launches the required transition at the site
    /// *and* propagates the late value to an observation point.
    ///
    /// Must be called after [`load`](Self::load); `v2` must be the block
    /// returned by it.
    pub fn detect_mask(&mut self, fault: TransitionFault, v2: &WidePatternBlock<L>) -> BitBlock<L> {
        // Site value under v1 and v2 (the good machines).
        let driver = match fault.site {
            FaultSite::Stem(g) => g,
            FaultSite::Pin { gate, pin } => self.circuit.fanin(gate)[pin as usize],
        };
        let val_v1 = self.good_v1.value(driver);
        let val_v2 = self.fsim.good_sim().value(driver);
        let launch = match fault.kind {
            TransitionKind::SlowToRise => !val_v1 & val_v2,
            TransitionKind::SlowToFall => val_v1 & !val_v2,
        } & v2.mask();
        if launch.is_zero() {
            return BitBlock::ZEROS;
        }
        let propagate = self.fsim.detect_mask(fault.as_stuck_at(), v2, false);
        launch & propagate
    }
}

/// Convenience: transition-fault coverage of a pattern set, evaluated
/// block-wise. Returns `(detected, total)` over the full universe.
pub fn transition_coverage<const L: usize>(
    circuit: &Circuit,
    blocks: &[WidePatternBlock<L>],
) -> (usize, usize) {
    let universe = enumerate_transition_faults(circuit);
    let mut detected = vec![false; universe.len()];
    let mut sim = WideTransitionSim::new(circuit);
    for v1 in blocks {
        let v2 = sim.load(v1);
        for (i, &f) in universe.iter().enumerate() {
            if !detected[i] && sim.detect_mask(f, &v2).any() {
                detected[i] = true;
            }
        }
    }
    (detected.iter().filter(|&&d| d).count(), universe.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::PatternBlock;
    use eea_netlist::{bench_format, synthesize, CircuitBuilder, GateKind, SynthConfig};

    #[test]
    fn launch_on_capture_updates_state() {
        // Toggle flip-flop: q' = NOT(q). Loading q=0 captures q'=1.
        let mut b = CircuitBuilder::new();
        let q = b.dff_deferred("q");
        let n = b.gate(GateKind::Not, &[q], "n");
        b.connect_dff(q, n).expect("valid connection");
        b.output(n);
        let c = b.finish().unwrap();
        let v1 = PatternBlock::from_patterns(&c, &[vec![false], vec![true]]);
        let v2 = launch_on_capture(&c, &v1);
        assert!(v2.get(0, 0), "q captured NOT(0) = 1");
        assert!(!v2.get(0, 1), "q captured NOT(1) = 0");
    }

    #[test]
    fn toggle_ff_transitions_detectable() {
        // The toggle FF launches a transition on q every cycle; both
        // directions of q's transition faults are detected through the
        // inverter to the output.
        let mut b = CircuitBuilder::new();
        let q = b.dff_deferred("q");
        let n = b.gate(GateKind::Not, &[q], "n");
        b.connect_dff(q, n).expect("valid connection");
        b.output(n);
        let c = b.finish().unwrap();
        let mut sim = TransitionSim::new(&c);
        let v1 = PatternBlock::from_patterns(&c, &[vec![false], vec![true]]);
        let v2 = sim.load(&v1);
        let str_q = TransitionFault {
            site: FaultSite::Stem(q),
            kind: TransitionKind::SlowToRise,
        };
        let stf_q = TransitionFault {
            site: FaultSite::Stem(q),
            kind: TransitionKind::SlowToFall,
        };
        // Pattern 0: q 0 -> 1 (rise); pattern 1: q 1 -> 0 (fall).
        assert_eq!(sim.detect_mask(str_q, &v2), BitBlock::from_u64(0b01));
        assert_eq!(sim.detect_mask(stf_q, &v2), BitBlock::from_u64(0b10));
    }

    #[test]
    fn no_transition_no_detection() {
        // Constant input: a PI never transitions under LoC (PIs are held).
        let c = bench_format::parse(bench_format::C17).unwrap();
        let mut sim = TransitionSim::new(&c);
        let v1 = PatternBlock::exhaustive(&c).unwrap();
        let v2 = sim.load(&v1);
        for &pi in c.inputs() {
            for kind in [TransitionKind::SlowToRise, TransitionKind::SlowToFall] {
                let f = TransitionFault {
                    site: FaultSite::Stem(pi),
                    kind,
                };
                assert!(
                    sim.detect_mask(f, &v2).is_zero(),
                    "held PI cannot launch a transition"
                );
            }
        }
    }

    #[test]
    fn tdf_coverage_nonzero_on_sequential_logic() {
        let c = synthesize(&SynthConfig {
            gates: 120,
            inputs: 8,
            dffs: 16,
            seed: 0x7DF,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        let mut rng = 0x7DF7_DF7D_F7DFu64;
        let blocks: Vec<PatternBlock> = (0..8)
            .map(|_| {
                let mut b = PatternBlock::zeroed(&c, 64);
                for i in 0..c.pattern_width() {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    *b.word_mut(i) = BitBlock::from_u64(rng);
                }
                b
            })
            .collect();
        let (detected, total) = transition_coverage(&c, &blocks);
        assert!(total > 0);
        // TDF coverage is always below stuck-at coverage (launch is an
        // extra condition) but must be well above zero on logic fed by
        // flip-flops.
        assert!(
            detected * 10 > total,
            "only {detected}/{total} transition faults detected"
        );
    }

    #[test]
    fn tdf_detection_implies_stuck_at_detection_on_v2() {
        let c = synthesize(&SynthConfig {
            gates: 80,
            inputs: 6,
            dffs: 8,
            seed: 3,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        let mut sim = TransitionSim::new(&c);
        let mut rng = 99u64;
        let mut v1 = PatternBlock::zeroed(&c, PatternBlock::CAPACITY);
        v1.fill_words(move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        });
        let v2 = sim.load(&v1);
        for f in enumerate_transition_faults(&c) {
            let tdf = sim.detect_mask(f, &v2);
            if tdf.any() {
                let sa = sim.fsim.detect_mask(f.as_stuck_at(), &v2, false);
                assert_eq!(tdf & sa, tdf, "{f}: TDF mask must imply stuck-at mask");
            }
        }
    }

    #[test]
    fn display_and_universe() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let u = enumerate_transition_faults(&c);
        assert_eq!(u.len(), enumerate_faults(&c).len());
        assert!(u[0].to_string().ends_with("/str") || u[0].to_string().ends_with("/stf"));
    }
}
