//! One-pass wide-word construction of the per-fault session table.
//!
//! Both the fleet's `CutModel` and the [`Diagnoser`](crate::Diagnoser)
//! need, for every collapsed stuck-at fault, what the configured STUMPS
//! session would record: the fault's [`FailData`] (which complete windows
//! end in a corrupted signature, and with which signature) and its
//! *detect-window set* (which windows contain at least one detecting
//! pattern — the diagnosis dictionary key). Historically each consumer
//! replayed a **full session per fault** (`O(|faults|)` good-machine
//! simulations plus MISR compaction), and each consumer did so
//! independently — the dictionary was paid twice.
//!
//! [`SessionTable::build`] computes both products in **one walk of the
//! pattern stream**. The trick is MISR linearity plus the per-window
//! reset discipline of the strong-windows scheme:
//!
//! * the faulty MISR stream differs from the golden stream only by an
//!   extra `absorb(1)` after each *detecting* pattern
//!   ([`StumpsSession::run_with_fault`](crate::StumpsSession::run_with_fault)),
//!   and
//! * the MISR resets at every complete-window boundary,
//!
//! so a window with no detections is signature-identical to golden (no
//! fail entry, nothing to compute), and a window **with** detections can
//! be replayed exactly from the precomputed packed good-response words of
//! its `window` patterns — a handful of `absorb` calls, no re-simulation.
//! The per-fault work then collapses to the PPSFP detect-mask cone walk
//! (good machine simulated **once per block**, shared by all faults) plus
//! tiny per-affected-window replays: bit-identical to the per-fault
//! session replay at a fraction of the cost.
//!
//! Fault chunks fold in parallel (`std::thread::scope`) over contiguous
//! index ranges with an index-order merge; per-fault results are
//! independent, so the table is **bit-identical at any thread count**.
//! [`SessionTable::build_serial_replay`] keeps the historical
//! one-session-per-fault construction as the benchmark baseline and the
//! equivalence oracle.

use eea_faultsim::{resolve_threads, Fault, FaultSim, FaultUniverse, GoodSim, PatternBlock};
use eea_netlist::{Circuit, ScanChains};

use crate::fail::FailData;
use crate::lfsr::Lfsr;
use crate::misr::Misr;
use crate::stumps::{lfsr_pattern_block, SessionResult, StumpsSession};

/// Per-fault products of one STUMPS session configuration, built in a
/// single wide-word sweep of the pattern stream.
///
/// Holds, for every collapsed fault of the circuit:
///
/// * its [`FailData`] under the session (identical to
///   [`StumpsSession::run_with_fault`](crate::StumpsSession::run_with_fault)),
/// * its detect-window set (every window containing a detecting pattern,
///   including a partial trailing window — the diagnosis dictionary
///   entry; this can differ from the fail-data window set through MISR
///   aliasing and the missing signature of a partial window).
#[derive(Debug)]
pub struct SessionTable {
    faults: Vec<Fault>,
    fail_table: Vec<FailData>,
    detect_windows: Vec<Vec<u32>>,
    /// Complete signature windows of the session (`patterns / window`).
    windows: u32,
    golden: SessionResult,
}

/// Per-fault sweep products of one worker chunk.
type SweepRows = Vec<(Vec<u32>, FailData)>;

/// The golden-session precomputation shared by every fault: materialized
/// pattern blocks, per-pattern packed response words (the exact MISR
/// absorb stream of one pattern), and the per-window golden signatures.
struct GoldenPass {
    blocks: Vec<PatternBlock>,
    /// `stride` packed 64-bit words per pattern, pattern-major.
    packed: Vec<u64>,
    stride: usize,
    signatures: Vec<u64>,
    final_signature: u64,
}

impl SessionTable {
    /// Builds the table in one wide-word PPSFP sweep, folding fault
    /// chunks over `threads` workers (`0` = auto, honouring
    /// `EEA_THREADS`). Bit-identical to
    /// [`build_serial_replay`](Self::build_serial_replay) at any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `patterns == 0`.
    pub fn build(
        circuit: &Circuit,
        chains: &ScanChains,
        lfsr_seed: u64,
        window: u64,
        patterns: u64,
        threads: usize,
    ) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(patterns > 0, "session must apply patterns");
        let golden = golden_pass(circuit, chains, lfsr_seed, window, patterns);
        let universe = FaultUniverse::collapsed(circuit);
        let faults: Vec<Fault> = (0..universe.num_faults())
            .map(|i| universe.fault(i))
            .collect();

        let threads = resolve_threads(threads).clamp(1, faults.len().max(1));
        let rows: SweepRows = if threads == 1 || faults.is_empty() {
            sweep_chunk(circuit, &faults, &golden, window)
        } else {
            let chunk = faults.len().div_ceil(threads);
            let mut rows = Vec::with_capacity(faults.len());
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads);
                for part in faults.chunks(chunk) {
                    let golden = &golden;
                    handles.push(scope.spawn(move || sweep_chunk(circuit, part, golden, window)));
                }
                // Index-order merge: chunks are contiguous fault ranges,
                // joined in spawn order, so the fold is deterministic.
                for h in handles {
                    match h.join() {
                        Ok(part) => rows.extend(part),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            });
            rows
        };

        let mut detect_windows = Vec::with_capacity(rows.len());
        let mut fail_table = Vec::with_capacity(rows.len());
        for (windows, fail) in rows {
            detect_windows.push(windows);
            fail_table.push(fail);
        }
        SessionTable {
            faults,
            fail_table,
            detect_windows,
            windows: (patterns / window) as u32,
            golden: SessionResult {
                final_signature: golden.final_signature,
                signatures: golden.signatures,
                patterns,
            },
        }
    }

    /// The historical construction kept as reference: one full session
    /// replay per fault for the fail table
    /// ([`StumpsSession::run_with_fault`](crate::StumpsSession::run_with_fault))
    /// plus a second, independent detect-mask sweep for the dictionary —
    /// exactly the combined cost `CutModel::build` and `Diagnoser::new`
    /// used to pay. Serves as the dictionary-build benchmark baseline and
    /// the equivalence oracle for [`build`](Self::build).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `patterns == 0`.
    pub fn build_serial_replay(
        circuit: &Circuit,
        chains: &ScanChains,
        lfsr_seed: u64,
        window: u64,
        patterns: u64,
    ) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(patterns > 0, "session must apply patterns");
        let session = StumpsSession::new(circuit, chains, lfsr_seed, window);
        let golden = session.run_golden(patterns);
        let universe = FaultUniverse::collapsed(circuit);
        let faults: Vec<Fault> = (0..universe.num_faults())
            .map(|i| universe.fault(i))
            .collect();

        // Pass 1 (the old fail-table cost): a full faulty session per
        // fault.
        let fail_table: Vec<FailData> = faults
            .iter()
            .map(|&fault| session.run_with_fault(fault, &golden))
            .collect();

        // Pass 2 (the old dictionary cost): an independent detect-mask
        // sweep per fault at window granularity.
        let mut detect_windows: Vec<Vec<u32>> = vec![Vec::new(); faults.len()];
        let mut sim = FaultSim::new(circuit);
        let mut lfsr = Lfsr::new32(lfsr_seed);
        let mut done = 0u64;
        while done < patterns {
            let count = ((patterns - done).min(PatternBlock::CAPACITY as u64)) as usize;
            let block = lfsr_pattern_block(circuit, chains, &mut lfsr, count);
            sim.run_good(&block);
            for (fi, fault) in faults.iter().enumerate() {
                let mask = sim.detect_mask(*fault, &block, false);
                for j in mask.iter_ones() {
                    let w = ((done + u64::from(j)) / window) as u32;
                    if detect_windows[fi].last() != Some(&w) {
                        detect_windows[fi].push(w);
                    }
                }
            }
            done += count as u64;
        }

        SessionTable {
            faults,
            fail_table,
            detect_windows,
            windows: (patterns / window) as u32,
            golden,
        }
    }

    /// Number of collapsed faults covered by the table.
    pub fn num_faults(&self) -> usize {
        self.faults.len()
    }

    /// The `i`-th fault (fault-universe order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (caller bug, not data-reachable).
    pub fn fault(&self, i: usize) -> Fault {
        self.faults[i]
    }

    /// The fail data of fault `i` under the session.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (caller bug, not data-reachable).
    pub fn fail_data(&self, i: usize) -> &FailData {
        &self.fail_table[i]
    }

    /// The detect-window set of fault `i`, strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (caller bug, not data-reachable).
    pub fn detect_windows(&self, i: usize) -> &[u32] {
        &self.detect_windows[i]
    }

    /// Number of complete signature windows of the session.
    pub fn windows(&self) -> u32 {
        self.windows
    }

    /// The golden session result (response data) the table was built
    /// against.
    pub fn golden(&self) -> &SessionResult {
        &self.golden
    }

    /// Decomposes the table into `(faults, fail_table, detect_windows,
    /// windows)` so consumers can take ownership without cloning.
    pub fn into_parts(self) -> (Vec<Fault>, Vec<FailData>, Vec<Vec<u32>>, u32) {
        (
            self.faults,
            self.fail_table,
            self.detect_windows,
            self.windows,
        )
    }
}

/// Walks the golden session once: materializes the pattern blocks, packs
/// every pattern's observable response into MISR absorb words, and folds
/// the per-window golden signatures — the identical absorb stream to
/// [`StumpsSession::run_golden`](crate::StumpsSession::run_golden).
fn golden_pass(
    circuit: &Circuit,
    chains: &ScanChains,
    lfsr_seed: u64,
    window: u64,
    patterns: u64,
) -> GoldenPass {
    let mut lfsr = Lfsr::new32(lfsr_seed);
    let mut blocks = Vec::new();
    let mut done = 0u64;
    while done < patterns {
        let count = ((patterns - done).min(PatternBlock::CAPACITY as u64)) as usize;
        blocks.push(lfsr_pattern_block(circuit, chains, &mut lfsr, count));
        done += count as u64;
    }

    let stride = circuit.response_width().div_ceil(64);
    let mut packed = Vec::with_capacity(patterns as usize * stride);
    let mut good = GoodSim::new(circuit);
    let mut misr = Misr::new();
    let mut signatures = Vec::new();
    let mut done = 0u64;
    for block in &blocks {
        good.run(block);
        let r = good.response(block);
        for j in 0..block.len() {
            let start = packed.len();
            let mut word = 0u64;
            let mut k = 0;
            for i in 0..r.width() {
                if r.get(i, j) {
                    word |= 1 << k;
                }
                k += 1;
                if k == 64 {
                    packed.push(word);
                    word = 0;
                    k = 0;
                }
            }
            if k > 0 {
                packed.push(word);
            }
            for &w in &packed[start..] {
                misr.absorb(w);
            }
            done += 1;
            if done.is_multiple_of(window) {
                signatures.push(misr.signature());
                misr.reset();
            }
        }
    }
    let final_signature = match signatures.last() {
        Some(&last) if done.is_multiple_of(window) => last,
        _ => misr.signature(),
    };
    GoldenPass {
        blocks,
        packed,
        stride,
        signatures,
        final_signature,
    }
}

/// One worker's share of the sweep: blocks outer (the good machine is
/// simulated once per block and shared by every fault of the chunk),
/// faults inner (one event-driven cone walk per fault per block).
fn sweep_chunk(circuit: &Circuit, faults: &[Fault], golden: &GoldenPass, window: u64) -> SweepRows {
    let mut sim = FaultSim::new(circuit);
    // Detected global pattern indices per fault, ascending (blocks are
    // walked in order and `iter_ones` ascends).
    let mut detects: Vec<Vec<u64>> = vec![Vec::new(); faults.len()];
    let mut base = 0u64;
    for block in &golden.blocks {
        sim.run_good(block);
        for (fi, &fault) in faults.iter().enumerate() {
            let mask = sim.detect_mask(fault, block, false);
            for j in mask.iter_ones() {
                detects[fi].push(base + u64::from(j));
            }
        }
        base += block.len() as u64;
    }
    detects
        .iter()
        .map(|positions| derive_fault_row(positions, golden, window))
        .collect()
}

/// Derives one fault's detect-window set and fail data from its detected
/// pattern positions, replaying only the affected complete windows from
/// the packed golden response words.
fn derive_fault_row(positions: &[u64], golden: &GoldenPass, window: u64) -> (Vec<u32>, FailData) {
    let mut windows = Vec::new();
    let mut fail = FailData::new();
    let stride = golden.stride;
    let mut idx = 0usize;
    while idx < positions.len() {
        let w = positions[idx] / window;
        let mut end = idx;
        while end < positions.len() && positions[end] / window == w {
            end += 1;
        }
        windows.push(w as u32);
        // Only complete windows carry a signature; a detection in the
        // partial trailing window enters the dictionary but produces no
        // fail entry (exactly as in `run_with_fault`, which never reaches
        // the signature compare for an unfinished window).
        if (w as usize) < golden.signatures.len() {
            // Faulty window replay: the golden absorb stream of the
            // window's patterns, with the error word injected after each
            // detecting pattern. The MISR starts from its reset state at
            // the window boundary, so the replay is exact.
            let mut misr = Misr::new();
            let mut det = idx;
            for p in w * window..(w + 1) * window {
                let at = p as usize * stride;
                for &word in &golden.packed[at..at + stride] {
                    misr.absorb(word);
                }
                if det < end && positions[det] == p {
                    misr.absorb(1); // corrupt: extra error word
                    det += 1;
                }
            }
            let sig = misr.signature();
            // MISR aliasing can cancel the corruption (~2^-64): a
            // detected window whose signature still matches golden leaves
            // no fail entry, exactly like the full replay.
            if sig != golden.signatures[w as usize] {
                fail.push(w as u32, sig);
            }
        }
        idx = end;
    }
    (windows, fail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eea_netlist::{synthesize, SynthConfig};

    fn setup(seed: u64) -> (Circuit, ScanChains) {
        let c = synthesize(&SynthConfig {
            gates: 120,
            inputs: 8,
            dffs: 16,
            seed,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        let chains = ScanChains::balanced(&c, 4).expect("at least one chain");
        (c, chains)
    }

    #[test]
    fn one_pass_matches_serial_replay() {
        let (c, chains) = setup(3);
        let serial = SessionTable::build_serial_replay(&c, &chains, 0xACE1, 16, 200);
        for threads in [1usize, 3, 8] {
            let fast = SessionTable::build(&c, &chains, 0xACE1, 16, 200, threads);
            assert_eq!(fast.num_faults(), serial.num_faults());
            assert_eq!(fast.golden(), serial.golden());
            assert_eq!(fast.windows(), serial.windows());
            for i in 0..serial.num_faults() {
                assert_eq!(fast.fault(i), serial.fault(i));
                assert_eq!(
                    fast.fail_data(i),
                    serial.fail_data(i),
                    "fail data diverged at fault {i} ({} threads)",
                    threads
                );
                assert_eq!(
                    fast.detect_windows(i),
                    serial.detect_windows(i),
                    "detect windows diverged at fault {i} ({} threads)",
                    threads
                );
            }
        }
    }

    #[test]
    fn fail_table_matches_run_with_fault() {
        let (c, chains) = setup(7);
        let table = SessionTable::build(&c, &chains, 0xBEEF, 8, 192, 0);
        let session = StumpsSession::new(&c, &chains, 0xBEEF, 8);
        let golden = session.run_golden(192);
        assert_eq!(table.golden(), &golden);
        for i in 0..table.num_faults() {
            let direct = session.run_with_fault(table.fault(i), &golden);
            assert_eq!(table.fail_data(i), &direct, "fault {i}");
        }
    }

    #[test]
    fn partial_trailing_window_enters_dictionary_not_fail_data() {
        let (c, chains) = setup(3);
        // 95 patterns at window 10: patterns 90..95 form a partial window
        // with index 9 that never yields a signature.
        let table = SessionTable::build(&c, &chains, 0xACE1, 10, 95, 1);
        assert_eq!(table.windows(), 9);
        let mut saw_partial = false;
        for i in 0..table.num_faults() {
            if table.detect_windows(i).contains(&9) {
                saw_partial = true;
            }
            for e in table.fail_data(i).entries() {
                assert!(e.window < 9, "fail entry in the partial window");
            }
        }
        assert!(saw_partial, "no fault detected in the trailing window");
    }

    #[test]
    fn detect_windows_are_strictly_increasing() {
        let (c, chains) = setup(11);
        let table = SessionTable::build(&c, &chains, 1, 4, 64, 2);
        let mut nonempty = 0;
        for i in 0..table.num_faults() {
            let w = table.detect_windows(i);
            assert!(w.windows(2).all(|p| p[0] < p[1]));
            nonempty += usize::from(!w.is_empty());
        }
        assert!(nonempty > 0);
    }
}
