use eea_netlist::{Circuit, GateId};

use crate::block::{BitBlock, DEFAULT_LANES};

/// Up to `64 * L` test patterns, bit-packed one pattern per bit position.
///
/// A pattern assigns values to the full-scan *pattern sources*: the primary
/// inputs (first, in `Circuit::inputs()` order) followed by the flip-flops
/// (in `Circuit::dffs()` order). `words[i]` holds the value of source `i`
/// across all patterns: bit `j` is the value in pattern `j`. The default
/// width is [`PatternBlock`] (8 lanes, 512 patterns); `WidePatternBlock<1>`
/// is the classic 64-pattern `u64` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidePatternBlock<const L: usize> {
    words: Vec<BitBlock<L>>,
    count: u32,
}

/// The default-width pattern block: [`DEFAULT_LANES`] lanes.
pub type PatternBlock = WidePatternBlock<DEFAULT_LANES>;

impl<const L: usize> WidePatternBlock<L> {
    /// Maximum number of patterns a block of this width holds.
    pub const CAPACITY: usize = 64 * L;

    /// Creates an all-zero block of `count` patterns for `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `count > Self::CAPACITY`.
    pub fn zeroed(circuit: &Circuit, count: usize) -> Self {
        assert!(
            (1..=Self::CAPACITY).contains(&count),
            "block holds 1..={} patterns",
            Self::CAPACITY
        );
        WidePatternBlock {
            words: vec![BitBlock::ZEROS; circuit.pattern_width()],
            count: count as u32,
        }
    }

    /// Builds a block from per-pattern bit vectors (`patterns[j][i]` = value
    /// of source `i` in pattern `j`).
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty, holds more than `Self::CAPACITY`
    /// patterns, or a pattern's length differs from
    /// `circuit.pattern_width()`.
    pub fn from_patterns(circuit: &Circuit, patterns: &[Vec<bool>]) -> Self {
        assert!(
            (1..=Self::CAPACITY).contains(&patterns.len()),
            "block holds 1..={} patterns",
            Self::CAPACITY
        );
        let width = circuit.pattern_width();
        let mut words = vec![BitBlock::ZEROS; width];
        for (j, p) in patterns.iter().enumerate() {
            assert_eq!(p.len(), width, "pattern width mismatch");
            for (i, &bit) in p.iter().enumerate() {
                if bit {
                    words[i].set_bit(j, true);
                }
            }
        }
        WidePatternBlock {
            words,
            count: patterns.len() as u32,
        }
    }

    /// Exhaustive block covering all input combinations. Only possible when
    /// `2.pow(pattern_width()) <= Self::CAPACITY` (9 sources at the default
    /// width, 6 at lane count 1); returns `None` otherwise.
    pub fn exhaustive(circuit: &Circuit) -> Option<Self> {
        let width = circuit.pattern_width();
        if width >= usize::BITS as usize || (1usize << width) > Self::CAPACITY {
            return None;
        }
        let count = 1usize << width;
        let mut words = vec![BitBlock::ZEROS; width];
        for j in 0..count {
            for (i, word) in words.iter_mut().enumerate() {
                if (j >> i) & 1 == 1 {
                    word.set_bit(j, true);
                }
            }
        }
        Some(WidePatternBlock {
            words,
            count: count as u32,
        })
    }

    /// Number of patterns in the block (`1..=Self::CAPACITY`).
    #[inline]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the block holds no patterns (never true for a constructed
    /// block; present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bit mask with one bit set per valid pattern.
    #[inline]
    pub fn mask(&self) -> BitBlock<L> {
        BitBlock::low_mask(self.count as usize)
    }

    /// The packed word of source `i`.
    #[inline]
    pub fn word(&self, i: usize) -> BitBlock<L> {
        self.words[i]
    }

    /// Mutable access to the packed word of source `i`.
    #[inline]
    pub fn word_mut(&mut self, i: usize) -> &mut BitBlock<L> {
        &mut self.words[i]
    }

    /// Fills every lane of every source word from `next` (lane order within
    /// each source) — the width-agnostic way to fill a block with raw
    /// random words. At lane count 1 the fill order equals the historical
    /// one-`u64`-per-source sequence.
    pub fn fill_words(&mut self, mut next: impl FnMut() -> u64) {
        for w in &mut self.words {
            for lane in w.lanes_mut() {
                *lane = next();
            }
        }
    }

    /// Sets the value of source `i` in pattern `j`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        debug_assert!(j < self.count as usize);
        self.words[i].set_bit(j, value);
    }

    /// Value of source `i` in pattern `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.words[i].bit(j)
    }

    /// Extracts pattern `j` as a bit vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not below [`len`](Self::len).
    pub fn pattern(&self, j: usize) -> Vec<bool> {
        assert!(j < self.count as usize, "pattern index out of range");
        self.words.iter().map(|w| w.bit(j)).collect()
    }
}

/// A bit-parallel response: the values observed at primary outputs followed
/// by flip-flop data inputs, packed like [`WidePatternBlock`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideResponse<const L: usize> {
    words: Vec<BitBlock<L>>,
    count: u32,
}

/// The default-width response: [`DEFAULT_LANES`] lanes.
pub type Response = WideResponse<DEFAULT_LANES>;

impl<const L: usize> WideResponse<L> {
    /// Number of patterns the response covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the response covers no patterns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Packed word of observation point `i` (outputs first, then FF data
    /// inputs).
    #[inline]
    pub fn word(&self, i: usize) -> BitBlock<L> {
        self.words[i]
    }

    /// Value observed at point `i` in pattern `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.words[i].bit(j)
    }

    /// Number of observation points.
    #[inline]
    pub fn width(&self) -> usize {
        self.words.len()
    }

    /// The response of pattern `j` as a bit vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not below [`len`](Self::len).
    pub fn pattern(&self, j: usize) -> Vec<bool> {
        assert!(j < self.count as usize, "pattern index out of range");
        self.words.iter().map(|w| w.bit(j)).collect()
    }
}

/// Bit-parallel good-machine simulator for the full-scan combinational core.
///
/// Reusable across blocks: internal buffers — including the fanin gather
/// scratch — are allocated once per simulator, so the per-block hot path is
/// allocation-free.
#[derive(Debug)]
pub struct WideGoodSim<'c, const L: usize> {
    circuit: &'c Circuit,
    values: Vec<BitBlock<L>>,
    /// Reusable fanin-value gather buffer: one scratch allocation per
    /// simulator instead of one `Vec` per [`run`](Self::run) call.
    fanin_buf: Vec<BitBlock<L>>,
}

/// The default-width good-machine simulator: [`DEFAULT_LANES`] lanes.
pub type GoodSim<'c> = WideGoodSim<'c, DEFAULT_LANES>;

impl<'c, const L: usize> WideGoodSim<'c, L> {
    /// Creates a simulator for `circuit`.
    pub fn new(circuit: &'c Circuit) -> Self {
        WideGoodSim {
            circuit,
            values: vec![BitBlock::ZEROS; circuit.num_gates()],
            fanin_buf: Vec::with_capacity(8),
        }
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Simulates one block and leaves per-gate values accessible via
    /// [`value`](Self::value).
    pub fn run(&mut self, block: &WidePatternBlock<L>) {
        let c = self.circuit;
        for (i, &pi) in c.inputs().iter().enumerate() {
            self.values[pi.index()] = block.word(i);
        }
        let n_pi = c.num_inputs();
        for (i, &ff) in c.dffs().iter().enumerate() {
            self.values[ff.index()] = block.word(n_pi + i);
        }
        // Take/restore keeps the borrow checker out of the evaluation loop
        // while the scratch stays owned by the simulator.
        let mut fanin_buf = std::mem::take(&mut self.fanin_buf);
        for &g in c.topo_order() {
            fanin_buf.clear();
            fanin_buf.extend(c.fanin(g).iter().map(|&f| self.values[f.index()]));
            self.values[g.index()] = c.kind(g).eval(&fanin_buf);
        }
        self.fanin_buf = fanin_buf;
    }

    /// The simulated word of gate `g` (valid after [`run`](Self::run)).
    #[inline]
    pub fn value(&self, g: GateId) -> BitBlock<L> {
        self.values[g.index()]
    }

    /// All gate values (indexed by gate id), valid after [`run`](Self::run).
    #[inline]
    pub fn values(&self) -> &[BitBlock<L>] {
        &self.values
    }

    /// Extracts the observable response (primary outputs, then flip-flop
    /// data inputs) of the last simulated block.
    pub fn response(&self, block: &WidePatternBlock<L>) -> WideResponse<L> {
        let c = self.circuit;
        let mask = block.mask();
        let mut words = Vec::with_capacity(c.response_width());
        for &o in c.outputs() {
            words.push(self.values[o.index()] & mask);
        }
        for &ff in c.dffs() {
            let d = c.fanin(ff)[0];
            words.push(self.values[d.index()] & mask);
        }
        WideResponse {
            words,
            count: block.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eea_netlist::bench_format;
    use eea_netlist::{CircuitBuilder, GateKind};

    #[test]
    fn c17_known_vector() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        // Inputs in declaration order: 1, 2, 3, 6, 7.
        // Pattern 00000 -> 10=1, 11=1, 16=1, 19=1, 22=NAND(1,1)=0, 23=0.
        // Pattern 11111 -> 10=0, 11=0, 16=1, 19=1, 22=1, 23=0.
        let block = PatternBlock::from_patterns(&c, &[vec![false; 5], vec![true; 5]]);
        let mut sim = GoodSim::new(&c);
        sim.run(&block);
        let r = sim.response(&block);
        assert_eq!(r.pattern(0), vec![false, false]); // 22, 23
        assert_eq!(r.pattern(1), vec![true, false]);
    }

    #[test]
    fn exhaustive_block_width() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let b = PatternBlock::exhaustive(&c).expect("5 inputs fit");
        assert_eq!(b.len(), 32);
        assert!(b.get(0, 1));
        assert!(!b.get(0, 0));
        assert!(b.get(4, 16));
    }

    #[test]
    fn exhaustive_refuses_wide_circuits() {
        // 10 sources = 1024 combinations: beyond even the 512-pattern
        // default block. A narrow 1-lane block already refuses 7 sources.
        let wide = |n: usize| {
            let mut bld = CircuitBuilder::new();
            let ins: Vec<_> = (0..n).map(|i| bld.input(&format!("i{i}"))).collect();
            let g = bld.gate(GateKind::And, &ins, "g");
            bld.output(g);
            bld.finish().unwrap()
        };
        assert!(PatternBlock::exhaustive(&wide(10)).is_none());
        assert!(WidePatternBlock::<1>::exhaustive(&wide(7)).is_none());
        // 7 sources fit the default width: 128 patterns.
        assert_eq!(
            PatternBlock::exhaustive(&wide(7)).map(|b| b.len()),
            Some(128)
        );
    }

    #[test]
    fn set_get_roundtrip() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let mut b = PatternBlock::zeroed(&c, 10);
        b.set(2, 7, true);
        assert!(b.get(2, 7));
        assert!(!b.get(2, 6));
        b.set(2, 7, false);
        assert!(!b.get(2, 7));
    }

    #[test]
    fn dff_response_observed() {
        let c = bench_format::parse(bench_format::S27).unwrap();
        let block = PatternBlock::zeroed(&c, 1);
        let mut sim = GoodSim::new(&c);
        sim.run(&block);
        let r = sim.response(&block);
        // 1 PO + 3 FF data inputs.
        assert_eq!(r.width(), 4);
    }

    #[test]
    fn mask_full_and_partial() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        assert_eq!(
            PatternBlock::zeroed(&c, PatternBlock::CAPACITY).mask(),
            crate::BitBlock::ONES
        );
        assert_eq!(
            PatternBlock::zeroed(&c, 3).mask(),
            crate::BitBlock::from_u64(0b111)
        );
        // Partial fills beyond lane 0 mask correctly too.
        let m = PatternBlock::zeroed(&c, 100).mask();
        assert_eq!(m.count_ones(), 100);
        assert_eq!(m.lanes()[0], u64::MAX);
    }

    #[test]
    fn pattern_extraction() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        let p0 = vec![true, false, true, false, true];
        let p1 = vec![false, true, false, true, false];
        let b = PatternBlock::from_patterns(&c, &[p0.clone(), p1.clone()]);
        assert_eq!(b.pattern(0), p0);
        assert_eq!(b.pattern(1), p1);
    }

    #[test]
    fn wide_patterns_beyond_lane_zero() {
        let c = bench_format::parse(bench_format::C17).unwrap();
        // 100 patterns: pattern 80 lives in lane 1 of the default block.
        let patterns: Vec<Vec<bool>> = (0..100)
            .map(|j| (0..5).map(|i| (j >> i) & 1 == 1).collect())
            .collect();
        let b = PatternBlock::from_patterns(&c, &patterns);
        assert_eq!(b.len(), 100);
        for (j, p) in patterns.iter().enumerate() {
            assert_eq!(&b.pattern(j), p, "pattern {j}");
        }
        let mut sim = GoodSim::new(&c);
        sim.run(&b);
        let r = sim.response(&b);
        // Pattern 31 = all-ones inputs: same expectation as c17_known_vector.
        assert_eq!(r.pattern(31), vec![true, false]);
    }
}
