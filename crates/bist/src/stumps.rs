//! Behavioural STUMPS session simulation.
//!
//! A session shifts LFSR-generated (and optionally deterministic) patterns
//! through the scan chains, captures the combinational response, and
//! compacts scan-out streams into a MISR. Every `window` patterns the
//! intermediate signature is compared against the expected *response data*
//! and the MISR is reset — the *strong windows* scheme of the
//! diagnosis-oriented STUMPS extension the paper builds on (\[9\],
//! \[10\]): with per-window signatures, the set of failing windows
//! fingerprints the fault instead of merely flagging the first corruption.

use eea_faultsim::{BitBlock, Fault, FaultSim, GoodSim, PatternBlock, DEFAULT_LANES};
use eea_netlist::{Circuit, ScanChains};

use crate::fail::FailData;
use crate::lfsr::Lfsr;
use crate::misr::Misr;

/// Fills a pattern block from the LFSR bit stream, mimicking parallel shift
/// into all scan chains (one LFSR bit per primary input and scan cell, in
/// chain order). Shared by [`StumpsSession`] and the profile generator so
/// both consume the identical TPG stream.
pub fn lfsr_pattern_block(
    circuit: &Circuit,
    chains: &ScanChains,
    lfsr: &mut Lfsr,
    count: usize,
) -> PatternBlock {
    let mut block = PatternBlock::zeroed(circuit, count);
    let n_pi = circuit.num_inputs();
    for j in 0..count {
        // Primary inputs first.
        for i in 0..n_pi {
            block.set(i, j, lfsr.next_bit());
        }
        // Scan cells, in chain order (chain-parallel shift). The balanced
        // partition is round-robin, so dff_index = pos * chains + chain.
        for ci in 0..chains.num_chains() {
            for pos in 0..chains.chain(ci).len() {
                let dff_index = pos * chains.num_chains() + ci;
                if dff_index < circuit.num_dffs() {
                    block.set(n_pi + dff_index, j, lfsr.next_bit());
                }
            }
        }
    }
    block
}

/// Outcome of a [`StumpsSession`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionResult {
    /// Intermediate signatures, one per window.
    pub signatures: Vec<u64>,
    /// Final signature over the complete session.
    pub final_signature: u64,
    /// Number of patterns applied.
    pub patterns: u64,
}

/// A STUMPS session configuration bound to a circuit and scan architecture.
///
/// # Example
///
/// ```
/// use eea_netlist::{synthesize, SynthConfig, ScanChains};
/// use eea_bist::StumpsSession;
///
/// let c = synthesize(&SynthConfig { gates: 120, inputs: 8, dffs: 16, seed: 3, ..SynthConfig::default() }).expect("synthesizes");
/// let chains = ScanChains::balanced(&c, 4).expect("at least one chain");
/// let session = StumpsSession::new(&c, &chains, 0xACE1, 16);
/// let golden = session.run_golden(64);
/// assert_eq!(golden.signatures.len(), 4);
/// ```
#[derive(Debug)]
pub struct StumpsSession<'c> {
    circuit: &'c Circuit,
    chains: &'c ScanChains,
    lfsr_seed: u64,
    /// Patterns per intermediate-signature window.
    window: u64,
}

impl<'c> StumpsSession<'c> {
    /// Creates a session. `window` is the number of patterns between
    /// intermediate signatures.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(circuit: &'c Circuit, chains: &'c ScanChains, lfsr_seed: u64, window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        StumpsSession {
            circuit,
            chains,
            lfsr_seed,
            window,
        }
    }

    /// Generates the next pattern block (up to [`PatternBlock::CAPACITY`]
    /// patterns) from the LFSR stream.
    fn next_block(&self, lfsr: &mut Lfsr, count: usize) -> PatternBlock {
        lfsr_pattern_block(self.circuit, self.chains, lfsr, count)
    }

    fn compact_response(&self, misr: &mut Misr, sim: &GoodSim<'_>, block: &PatternBlock, j: usize) {
        // One MISR absorption per pattern: pack the response bits of pattern
        // j into words of 64 and absorb them (behavioural abstraction of
        // per-shift-cycle compaction).
        let r = sim.response(block);
        let mut word = 0u64;
        let mut k = 0;
        for i in 0..r.width() {
            if r.get(i, j) {
                word |= 1 << k;
            }
            k += 1;
            if k == 64 {
                misr.absorb(word);
                word = 0;
                k = 0;
            }
        }
        if k > 0 {
            misr.absorb(word);
        }
    }

    /// Runs the fault-free session for `patterns` patterns, producing the
    /// expected *response data* (intermediate signatures).
    pub fn run_golden(&self, patterns: u64) -> SessionResult {
        let mut lfsr = Lfsr::new32(self.lfsr_seed);
        let mut sim = GoodSim::new(self.circuit);
        let mut misr = Misr::new();
        let mut signatures = Vec::new();
        let mut done = 0u64;
        while done < patterns {
            let count = ((patterns - done).min(PatternBlock::CAPACITY as u64)) as usize;
            let block = self.next_block(&mut lfsr, count);
            sim.run(&block);
            for j in 0..count {
                self.compact_response(&mut misr, &sim, &block, j);
                done += 1;
                if done.is_multiple_of(self.window) {
                    signatures.push(misr.signature());
                    misr.reset();
                }
            }
        }
        // With per-window resets the running MISR is zero at an exact
        // window boundary; the final signature is then the last window's.
        let final_signature = match signatures.last() {
            Some(&last) if done.is_multiple_of(self.window) => last,
            _ => misr.signature(),
        };
        SessionResult {
            final_signature,
            signatures,
            patterns,
        }
    }

    /// Runs the session with `fault` injected and compares against
    /// `golden`, returning the collected fail data.
    ///
    /// If `golden` stems from a session with a different window size (so
    /// it holds fewer signatures than this run produces), the surplus
    /// windows are recorded as failing rather than panicking.
    pub fn run_with_fault(&self, fault: Fault, golden: &SessionResult) -> FailData {
        let patterns = golden.patterns;
        let mut lfsr = Lfsr::new32(self.lfsr_seed);
        let mut fsim = FaultSim::new(self.circuit);
        let mut misr = Misr::new();
        let mut fail = FailData::new();
        let mut done = 0u64;
        let mut window_idx = 0u32;
        while done < patterns {
            let count = ((patterns - done).min(PatternBlock::CAPACITY as u64)) as usize;
            let block = self.next_block(&mut lfsr, count);
            fsim.run_good(&block);
            let detect = fsim.detect_mask(fault, &block, false);
            for j in 0..count {
                // The faulty response differs from the good response exactly
                // in the detected patterns; flip one response bit to model
                // the corrupted capture (behavioural abstraction — the MISR
                // diverges permanently afterwards, as in reality).
                self.compact_response(&mut misr, fsim.good_sim(), &block, j);
                if detect.bit(j) {
                    misr.absorb(1); // corrupt: extra error word
                }
                done += 1;
                if done.is_multiple_of(self.window) {
                    let sig = misr.signature();
                    // A golden result from a mismatched window config has no
                    // expectation for this window — count that as failing.
                    match golden.signatures.get(window_idx as usize) {
                        Some(&expected) if sig == expected => {}
                        _ => fail.push(window_idx, sig),
                    }
                    misr.reset();
                    window_idx += 1;
                }
            }
        }
        fail
    }
}

/// An in-flight STUMPS session that can be paused and resumed — the
/// session-resume hook behind the fleet campaign engine (`eea-fleet`).
///
/// In the field a BIST session runs inside a vehicle's *shut-off windows*
/// and rarely fits into one: the paper's Eq. (5) budgets the extra awake
/// time per shut-off, so a long session must stop at the window's end and
/// continue in the next one. Because every pattern of a full-scan STUMPS
/// session is self-contained (the LFSR stream, the scan load, the capture
/// and the MISR absorption are all per-pattern), the session state that has
/// to survive a pause is tiny: LFSR state, running MISR, pattern count and
/// window index. [`advance`](Self::advance) applies any number of patterns
/// at a time and the result is **bit-identical** to an uninterrupted
/// [`StumpsSession::run_golden`] / [`StumpsSession::run_with_fault`] run,
/// regardless of how the session is chopped up.
///
/// # Example
///
/// ```
/// use eea_netlist::{synthesize, SynthConfig, ScanChains};
/// use eea_bist::StumpsSession;
///
/// let c = synthesize(&SynthConfig { gates: 120, inputs: 8, dffs: 16, seed: 3, ..SynthConfig::default() }).expect("synthesizes");
/// let chains = ScanChains::balanced(&c, 4).expect("at least one chain");
/// let session = StumpsSession::new(&c, &chains, 0xACE1, 16);
///
/// // Run 64 patterns split across three shut-off windows.
/// let mut run = session.resume_golden(64);
/// run.advance(10);
/// run.advance(37);
/// run.advance(u64::MAX); // rest of the session
/// assert!(run.is_complete());
/// assert_eq!(run.into_golden(), session.run_golden(64));
/// ```
#[derive(Debug)]
pub struct ResumableRun<'s, 'c> {
    session: &'s StumpsSession<'c>,
    target: u64,
    fault: Option<Fault>,
    golden: Option<&'s SessionResult>,
    lfsr: Lfsr,
    fsim: FaultSim<'c>,
    misr: Misr,
    signatures: Vec<u64>,
    fail: FailData,
    done: u64,
    window_idx: u32,
}

impl<'s, 'c> ResumableRun<'s, 'c> {
    fn new(
        session: &'s StumpsSession<'c>,
        target: u64,
        fault: Option<Fault>,
        golden: Option<&'s SessionResult>,
    ) -> Self {
        ResumableRun {
            session,
            target,
            fault,
            golden,
            lfsr: Lfsr::new32(session.lfsr_seed),
            fsim: FaultSim::new(session.circuit),
            misr: Misr::new(),
            signatures: Vec::new(),
            fail: FailData::new(),
            done: 0,
            window_idx: 0,
        }
    }

    /// Applies up to `patterns` further patterns (capped by the session
    /// target) and returns how many were actually applied.
    pub fn advance(&mut self, patterns: u64) -> u64 {
        let todo = patterns.min(self.target - self.done);
        let mut applied = 0u64;
        while applied < todo {
            let count = ((todo - applied).min(PatternBlock::CAPACITY as u64)) as usize;
            let block = self
                .session
                .next_block(&mut self.lfsr, count);
            self.fsim.run_good(&block);
            let detect = match self.fault {
                Some(fault) => self.fsim.detect_mask(fault, &block, false),
                None => BitBlock::<DEFAULT_LANES>::ZEROS,
            };
            for j in 0..count {
                self.session
                    .compact_response(&mut self.misr, self.fsim.good_sim(), &block, j);
                if detect.bit(j) {
                    self.misr.absorb(1); // corrupt: extra error word
                }
                self.done += 1;
                applied += 1;
                if self.done.is_multiple_of(self.session.window) {
                    let sig = self.misr.signature();
                    match self.golden {
                        // Golden mode: record the expected response data.
                        None => self.signatures.push(sig),
                        // Faulty mode: compare against the expectation; a
                        // golden result from a mismatched window config has
                        // no expectation for this window — count it failing.
                        Some(golden) => match golden.signatures.get(self.window_idx as usize) {
                            Some(&expected) if sig == expected => {}
                            _ => self.fail.push(self.window_idx, sig),
                        },
                    }
                    self.misr.reset();
                    self.window_idx += 1;
                }
            }
        }
        applied
    }

    /// Patterns applied so far.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Patterns still to apply.
    pub fn remaining(&self) -> u64 {
        self.target - self.done
    }

    /// Whether the session target has been reached.
    pub fn is_complete(&self) -> bool {
        self.done == self.target
    }

    /// Signature windows completed so far.
    pub fn windows_completed(&self) -> u32 {
        self.window_idx
    }

    /// The fail data observed **so far** — for a paused faulty run this is
    /// the partial fail memory after
    /// [`windows_completed`](Self::windows_completed) windows; once
    /// [`is_complete`](Self::is_complete) it equals
    /// [`StumpsSession::run_with_fault`].
    pub fn fail_data(&self) -> &FailData {
        &self.fail
    }

    /// Consumes the run and returns its fail data (partial if the session
    /// was not driven to completion).
    pub fn into_fail_data(self) -> FailData {
        self.fail
    }

    /// Finishes a golden-mode run into a [`SessionResult`] over the
    /// patterns applied so far. For a completed run this is bit-identical
    /// to [`StumpsSession::run_golden`] of the same length.
    pub fn into_golden(self) -> SessionResult {
        let final_signature = match self.signatures.last() {
            Some(&last) if self.done.is_multiple_of(self.session.window) => last,
            _ => self.misr.signature(),
        };
        SessionResult {
            final_signature,
            signatures: self.signatures,
            patterns: self.done,
        }
    }
}

impl<'c> StumpsSession<'c> {
    /// Starts a resumable fault-free run of `patterns` patterns; drive it
    /// with [`ResumableRun::advance`].
    pub fn resume_golden(&self, patterns: u64) -> ResumableRun<'_, 'c> {
        ResumableRun::new(self, patterns, None, None)
    }

    /// Starts a resumable faulty run compared against `golden`; drive it
    /// with [`ResumableRun::advance`]. The partial
    /// [`fail_data`](ResumableRun::fail_data) after each pause is exactly
    /// what the ECU's fail memory holds at that point of the session.
    pub fn resume_with_fault<'s>(
        &'s self,
        fault: Fault,
        golden: &'s SessionResult,
    ) -> ResumableRun<'s, 'c> {
        ResumableRun::new(self, golden.patterns, Some(fault), Some(golden))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eea_faultsim::FaultUniverse;
    use eea_netlist::{synthesize, ScanChains, SynthConfig};

    fn setup() -> (eea_netlist::Circuit, ScanChains) {
        let c = synthesize(&SynthConfig {
            gates: 120,
            inputs: 8,
            dffs: 16,
            seed: 3,
            ..SynthConfig::default()
        }).expect("synthesizes");
        let chains = ScanChains::balanced(&c, 4).expect("at least one chain");
        (c, chains)
    }

    #[test]
    fn golden_is_deterministic() {
        let (c, chains) = setup();
        let s = StumpsSession::new(&c, &chains, 0xACE1, 16);
        let a = s.run_golden(128);
        let b = s.run_golden(128);
        assert_eq!(a, b);
        assert_eq!(a.signatures.len(), 8);
    }

    #[test]
    fn different_seed_different_signature() {
        let (c, chains) = setup();
        let a = StumpsSession::new(&c, &chains, 0xACE1, 16).run_golden(64);
        let b = StumpsSession::new(&c, &chains, 0xBEEF, 16).run_golden(64);
        assert_ne!(a.final_signature, b.final_signature);
    }

    #[test]
    fn fault_free_run_passes() {
        let (c, chains) = setup();
        let s = StumpsSession::new(&c, &chains, 0xACE1, 16);
        let golden = s.run_golden(128);
        // Injecting a fault that 128 patterns do not detect yields PASS;
        // easiest fault-free check: compare golden against itself via a
        // detectable fault's *absence*: run with an undetected fault.
        let universe = FaultUniverse::collapsed(&c);
        let mut fsim = eea_faultsim::FaultSim::new(&c);
        // Find a fault detected within the window to assert FAIL below, and
        // sanity-check window accounting.
        let mut lfsr = Lfsr::new32(0xACE1);
        let block = s.next_block(&mut lfsr, 64);
        fsim.run_good(&block);
        let mut detected_fault = None;
        for fi in 0..universe.num_faults() {
            if fsim.detect_mask(universe.fault(fi), &block, true).any() {
                detected_fault = Some(universe.fault(fi));
                break;
            }
        }
        let fault = detected_fault.expect("some fault detected in 64 patterns");
        let fail = s.run_with_fault(fault, &golden);
        assert!(!fail.is_pass(), "detected fault must corrupt a signature");
        // The first failing window index is within range.
        assert!((fail.entries()[0].window as usize) < golden.signatures.len());
    }

    #[test]
    fn resumable_golden_matches_uninterrupted() {
        let (c, chains) = setup();
        let s = StumpsSession::new(&c, &chains, 0xACE1, 16);
        let reference = s.run_golden(200);
        // Chop the same session into awkward, uneven resume chunks.
        let mut run = s.resume_golden(200);
        for chunk in [1u64, 7, 64, 13, 3, 100, 64] {
            run.advance(chunk);
        }
        assert!(run.is_complete());
        assert_eq!(run.remaining(), 0);
        assert_eq!(run.into_golden(), reference);
    }

    #[test]
    fn resumable_faulty_matches_uninterrupted() {
        let (c, chains) = setup();
        let s = StumpsSession::new(&c, &chains, 0xACE1, 8);
        let golden = s.run_golden(192);
        let universe = FaultUniverse::collapsed(&c);
        let mut checked = 0;
        for fi in (0..universe.num_faults()).step_by(9) {
            let fault = universe.fault(fi);
            let reference = s.run_with_fault(fault, &golden);
            let mut run = s.resume_with_fault(fault, &golden);
            while !run.is_complete() {
                // 5-pattern shut-off windows: worst-case fragmentation.
                run.advance(5);
            }
            assert_eq!(run.fail_data(), &reference);
            assert_eq!(run.into_fail_data(), reference);
            checked += 1;
        }
        assert!(checked > 5);
    }

    #[test]
    fn partial_fail_data_is_window_prefix() {
        let (c, chains) = setup();
        let s = StumpsSession::new(&c, &chains, 0xACE1, 8);
        let golden = s.run_golden(192);
        let universe = FaultUniverse::collapsed(&c);
        // Find a fault whose full session fails at least twice.
        let fault = (0..universe.num_faults())
            .map(|fi| universe.fault(fi))
            .find(|&f| s.run_with_fault(f, &golden).entries().len() >= 2)
            .expect("some fault fails two windows");
        let full = s.run_with_fault(fault, &golden);
        // Pause mid-session: the partial fail data is exactly the prefix of
        // the full one restricted to completed windows.
        let mut run = s.resume_with_fault(fault, &golden);
        run.advance(100);
        let windows_done = run.windows_completed();
        let expected: Vec<_> = full
            .entries()
            .iter()
            .filter(|e| e.window < windows_done)
            .copied()
            .collect();
        assert_eq!(run.fail_data().entries(), expected.as_slice());
        // Resuming to completion recovers the full fail data.
        run.advance(u64::MAX);
        assert_eq!(run.into_fail_data(), full);
    }

    #[test]
    fn zero_advance_is_a_no_op() {
        let (c, chains) = setup();
        let s = StumpsSession::new(&c, &chains, 1, 4);
        let mut run = s.resume_golden(32);
        assert_eq!(run.advance(0), 0);
        assert_eq!(run.done(), 0);
        assert_eq!(run.advance(u64::MAX), 32);
        assert_eq!(run.windows_completed(), 8);
    }

    #[test]
    fn window_count_matches() {
        let (c, chains) = setup();
        let s = StumpsSession::new(&c, &chains, 7, 10);
        let golden = s.run_golden(95);
        assert_eq!(golden.signatures.len(), 9); // floor(95/10)
        assert_eq!(golden.patterns, 95);
    }
}
