//! Property tests: the cone-restricted PPSFP simulator agrees with a
//! brute-force whole-circuit faulty simulation, and the wide pattern word
//! is bit-identical to the classic `u64` path at every supported lane
//! count — same detected faults, same first-detecting pattern indices,
//! with and without early exit, including partially-filled final blocks.

use eea_faultsim::{
    BitBlock, Fault, FaultSim, FaultUniverse, ParFaultSim, PatternBlock, WideFaultSim, WideGoodSim,
    WidePatternBlock,
};
use eea_netlist::{synthesize, Circuit, SynthConfig};
use proptest::prelude::*;

/// Brute-force oracle: simulate the entire faulty circuit without cone
/// restriction and diff the observable response.
fn oracle_detect<const L: usize>(
    c: &Circuit,
    f: Fault,
    block: &WidePatternBlock<L>,
) -> BitBlock<L> {
    use eea_faultsim::FaultSite;
    let forced = if f.stuck_at {
        BitBlock::ONES
    } else {
        BitBlock::ZEROS
    };
    let mut vals = vec![BitBlock::<L>::ZEROS; c.num_gates()];
    for (i, &pi) in c.inputs().iter().enumerate() {
        vals[pi.index()] = block.word(i);
    }
    let npi = c.num_inputs();
    for (i, &ff) in c.dffs().iter().enumerate() {
        vals[ff.index()] = block.word(npi + i);
    }
    if let FaultSite::Stem(g) = f.site {
        if c.kind(g).is_combinational_source() {
            vals[g.index()] = forced;
        }
    }
    for &g in c.topo_order() {
        let mut fanin: Vec<BitBlock<L>> = c.fanin(g).iter().map(|&x| vals[x.index()]).collect();
        if let FaultSite::Pin { gate, pin } = f.site {
            if gate == g {
                fanin[pin as usize] = forced;
            }
        }
        let mut v = c.kind(g).eval(&fanin);
        if let FaultSite::Stem(s) = f.site {
            if s == g {
                v = forced;
            }
        }
        vals[g.index()] = v;
    }
    let mut good = WideGoodSim::<L>::new(c);
    good.run(block);
    let mut det = BitBlock::<L>::ZEROS;
    for &o in c.outputs() {
        det |= vals[o.index()] ^ good.value(o);
    }
    for &ff in c.dffs() {
        let d = c.fanin(ff)[0];
        let mut fv = vals[d.index()];
        if let FaultSite::Pin { gate, .. } = f.site {
            if gate == ff {
                fv = forced;
            }
        }
        det |= fv ^ good.value(d);
    }
    det & block.mask()
}

/// Deterministic pattern bit for global pattern `j`, source `i`: the same
/// stream regardless of how it is later chunked into blocks.
fn pattern_bit(seed: u64, j: usize, i: usize) -> bool {
    let mut x = seed
        ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x & 1 == 1
}

/// Chunks the pattern stream `0..n` into `L`-lane blocks; the final block
/// is partially filled whenever `n` is not a multiple of the capacity.
fn build_blocks<const L: usize>(c: &Circuit, n: usize, seed: u64) -> Vec<WidePatternBlock<L>> {
    let cap = WidePatternBlock::<L>::CAPACITY;
    let mut blocks = Vec::new();
    let mut start = 0;
    while start < n {
        let len = (n - start).min(cap);
        let mut b = WidePatternBlock::<L>::zeroed(c, len);
        for j in 0..len {
            for i in 0..c.pattern_width() {
                b.set(i, j, pattern_bit(seed, start + j, i));
            }
        }
        blocks.push(b);
        start += len;
    }
    blocks
}

/// Runs the fault-drop loop over the chunked stream and returns every
/// fault's `(index, first detecting global pattern)` in sorted order.
fn first_detections<const L: usize>(c: &Circuit, n: usize, seed: u64) -> Vec<(usize, u64)> {
    let mut sim = WideFaultSim::<L>::new(c);
    let mut u = FaultUniverse::collapsed(c);
    let mut out = Vec::new();
    let mut base = 0u64;
    for b in build_blocks::<L>(c, n, seed) {
        for (fi, pos) in sim.detect_block_with_positions(&b, &mut u) {
            out.push((fi, base + u64::from(pos)));
        }
        base += b.len() as u64;
    }
    out.sort_unstable();
    out
}

/// Same stream through the early-exit path; returns the detected-fault set.
fn detected_early_exit<const L: usize>(c: &Circuit, n: usize, seed: u64) -> Vec<bool> {
    let mut sim = WideFaultSim::<L>::new(c);
    let mut u = FaultUniverse::collapsed(c);
    for b in build_blocks::<L>(c, n, seed) {
        sim.detect_block(&b, &mut u);
    }
    (0..u.num_faults()).map(|fi| u.is_detected(fi)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ppsfp_matches_oracle(
        seed in any::<u64>(),
        gates in 30usize..120,
        inputs in 4usize..12,
        dffs in 0usize..8,
        pattern_seed in any::<u64>(),
    ) {
        let c = synthesize(&SynthConfig {
            gates,
            inputs,
            dffs,
            seed,
            ..SynthConfig::default()
        }).expect("synthesizes");
        // Full-capacity block: detections land in every lane of the
        // default-width word.
        let mut block = PatternBlock::zeroed(&c, PatternBlock::CAPACITY);
        let mut s = pattern_seed | 1;
        block.fill_words(|| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        });
        let universe = FaultUniverse::collapsed(&c);
        let mut sim = FaultSim::new(&c);
        sim.run_good(&block);
        for fi in 0..universe.num_faults() {
            let fault = universe.fault(fi);
            let fast = sim.detect_mask(fault, &block, false);
            let slow = oracle_detect(&c, fault, &block);
            prop_assert_eq!(fast, slow, "fault {} disagrees", fault);
        }
    }

    #[test]
    fn coverage_is_monotone_in_patterns(seed in any::<u64>()) {
        let c = synthesize(&SynthConfig {
            gates: 80,
            inputs: 8,
            dffs: 4,
            seed,
            ..SynthConfig::default()
        }).expect("synthesizes");
        let mut universe = FaultUniverse::collapsed(&c);
        let mut sim = FaultSim::new(&c);
        let mut s = seed | 1;
        let mut last = 0.0;
        for _ in 0..6 {
            let mut block = PatternBlock::zeroed(&c, PatternBlock::CAPACITY);
            block.fill_words(|| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            });
            sim.detect_block(&block, &mut universe);
            prop_assert!(universe.coverage() >= last);
            last = universe.coverage();
        }
    }

    #[test]
    fn parallel_detection_matches_serial(
        seed in any::<u64>(),
        gates in 60usize..200,
        threads in 2usize..9,
        blocks in 1usize..5,
    ) {
        let c = synthesize(&SynthConfig {
            gates,
            inputs: 10,
            dffs: 6,
            seed,
            ..SynthConfig::default()
        }).expect("synthesizes");
        let mut serial_u = FaultUniverse::collapsed(&c);
        let mut parallel_u = FaultUniverse::collapsed(&c);
        let mut serial = FaultSim::new(&c);
        let mut parallel = ParFaultSim::new(&c, threads);
        let mut s = seed | 1;
        for _ in 0..blocks {
            let mut block = PatternBlock::zeroed(&c, PatternBlock::CAPACITY);
            block.fill_words(|| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            });
            let ns = serial.detect_block(&block, &mut serial_u);
            let np = parallel.detect_block(&block, &mut parallel_u);
            prop_assert_eq!(ns, np, "detection count diverged");
            let sp = serial.detect_block_with_positions(&block, &mut serial_u);
            let pp = parallel.detect_block_with_positions(&block, &mut parallel_u);
            prop_assert_eq!(sp, pp, "first-detection positions diverged");
        }
        prop_assert_eq!(serial_u.num_live(), parallel_u.num_live());
        for fi in 0..serial_u.num_faults() {
            prop_assert_eq!(serial_u.is_detected(fi), parallel_u.is_detected(fi));
        }
    }

    /// The wide-vs-u64 bit-identity oracle (issue 6): chunking one pattern
    /// stream into 1-, 4- and 8-lane blocks must detect exactly the same
    /// faults at exactly the same first global pattern index. The pattern
    /// count range forces partially-filled final blocks at every width.
    #[test]
    fn wide_word_matches_u64_at_every_lane_count(
        seed in any::<u64>(),
        gates in 40usize..150,
        inputs in 4usize..12,
        dffs in 0usize..8,
        n_patterns in 1usize..600,
        pattern_seed in any::<u64>(),
    ) {
        let c = synthesize(&SynthConfig {
            gates,
            inputs,
            dffs,
            seed,
            ..SynthConfig::default()
        }).expect("synthesizes");
        // Lane count 1 is the historical u64 path; it is the reference.
        let narrow = first_detections::<1>(&c, n_patterns, pattern_seed);
        let mid = first_detections::<4>(&c, n_patterns, pattern_seed);
        let wide = first_detections::<8>(&c, n_patterns, pattern_seed);
        prop_assert_eq!(&mid, &narrow, "4-lane first detections diverged");
        prop_assert_eq!(&wide, &narrow, "8-lane first detections diverged");

        // Early-exit masks stop at the first detecting lane, but the
        // detected-fault set must not depend on the width.
        let d1 = detected_early_exit::<1>(&c, n_patterns, pattern_seed);
        let d4 = detected_early_exit::<4>(&c, n_patterns, pattern_seed);
        let d8 = detected_early_exit::<8>(&c, n_patterns, pattern_seed);
        prop_assert_eq!(&d4, &d1, "4-lane early-exit detection diverged");
        prop_assert_eq!(&d8, &d1, "8-lane early-exit detection diverged");

        // And early exit agrees with the position-reporting path.
        let from_positions: Vec<bool> = {
            let mut set = vec![false; d1.len()];
            for &(fi, _) in &narrow {
                set[fi] = true;
            }
            set
        };
        prop_assert_eq!(&d1, &from_positions, "early exit changed the detected set");
    }
}
