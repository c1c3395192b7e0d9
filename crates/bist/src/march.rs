//! March-test memory BIST — the second CUT family.
//!
//! Distributed embedded SRAMs are tested with march algorithms rather
//! than STUMPS sessions. This module models a word-addressed SRAM and
//! runs **March C-** over it — six elements, `10·N` operations:
//!
//! ```text
//! ⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)
//! ```
//!
//! The modeled fault classes are the classic memory-fault taxonomy the
//! march literature diagnoses: **SAF** (stuck-at-0/1 cells), **TF**
//! (transition faults — a cell that cannot rise or cannot fall) and
//! **CFin** (inversion coupling — a rising aggressor cell inverts its
//! neighbouring victim). Every read mismatch folds the failing address
//! and error bits into a per-element syndrome signature, captured as one
//! [`FailData`] entry per failing march element — the same fail-memory
//! payload the logic family ships, so the gateway's upload and diagnosis
//! paths handle both families uniformly. Diagnosis ranks candidate
//! faults on the logic [`Diagnoser`](crate::Diagnoser)'s engine, keyed by
//! whole `(element, syndrome)` entries instead of windows.

use crate::diagnosis::{DiagnosisSummary, Engine};
use crate::fail::FailData;

/// Which kind of circuit a BIST session exercises: the existing STUMPS
/// stuck-at logic path, or an embedded SRAM under march test. Campaigns
/// mix families per ECU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CutFamily {
    /// Scan-based logic BIST (STUMPS session, collapsed stuck-at faults).
    Logic,
    /// Embedded-SRAM march-test BIST (March C-, SAF/TF/CFin faults).
    Sram,
}

impl CutFamily {
    /// Stable lowercase label for reports and JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            CutFamily::Logic => "logic",
            CutFamily::Sram => "sram",
        }
    }
}

/// Geometry of the modeled SRAM: `words × bits` cells, word-addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramConfig {
    /// Number of addressable words.
    pub words: u32,
    /// Bits per word (at most 64).
    pub bits: u32,
}

impl Default for SramConfig {
    /// A small distributed embedded SRAM: 64 words × 16 bits.
    fn default() -> Self {
        SramConfig {
            words: 64,
            bits: 16,
        }
    }
}

/// Memory-fault classes modeled under March C-.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MarchFaultKind {
    /// Cell stuck at 0: writes of 1 are ignored.
    StuckAt0,
    /// Cell stuck at 1: writes of 0 are ignored.
    StuckAt1,
    /// Transition fault, rising: the cell cannot make a 0→1 transition.
    TransitionRise,
    /// Transition fault, falling: the cell cannot make a 1→0 transition.
    TransitionFall,
    /// Inversion coupling: a 0→1 transition of the aggressor (the next
    /// cell in address order) inverts this victim cell.
    CouplingInv,
}

/// One modeled memory fault: a kind applied to a cell (linear cell index
/// `word · bits + bit`; for [`MarchFaultKind::CouplingInv`] the cell is
/// the victim and the aggressor is `cell + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MarchFault {
    /// The fault class.
    pub kind: MarchFaultKind,
    /// Linear cell index.
    pub cell: u32,
}

/// A scored march-diagnosis candidate, best first after ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarchCandidate {
    /// Index into the [`MarchTest`] fault list.
    pub fault_index: u32,
    /// The candidate fault.
    pub fault: MarchFault,
    /// Jaccard similarity of predicted vs observed `(element, syndrome)`
    /// entries in `[0, 1]`.
    pub score: f64,
}

/// Typed errors of the march-test model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarchError {
    /// The SRAM has no words.
    ZeroWords,
    /// The SRAM has no bits per word.
    ZeroBits,
    /// Words wider than 64 bits are not representable.
    WordTooWide {
        /// The configured width.
        bits: u32,
    },
    /// The cell count exceeds what the per-fault dictionary build is
    /// willing to simulate.
    TooManyCells {
        /// The configured cell count.
        cells: u64,
    },
}

impl std::fmt::Display for MarchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarchError::ZeroWords => write!(f, "SRAM must have at least one word"),
            MarchError::ZeroBits => write!(f, "SRAM words must have at least one bit"),
            MarchError::WordTooWide { bits } => {
                write!(
                    f,
                    "SRAM words wider than 64 bits are unsupported (got {bits})"
                )
            }
            MarchError::TooManyCells { cells } => {
                write!(
                    f,
                    "SRAM too large for the march fault dictionary ({cells} cells)"
                )
            }
        }
    }
}

impl std::error::Error for MarchError {}

/// Dictionary builds simulate March C- once per fault (≈5 faults/cell ×
/// 10·words operations); this cap keeps the quadratic-ish cost bounded.
const MAX_CELLS: u64 = 1 << 16;

/// One March C- element: an optional read of the expected background, an
/// optional write of the new background, in ascending or descending
/// address order.
struct MarchElement {
    read_ones: Option<bool>,
    write_ones: Option<bool>,
    descending: bool,
}

/// March C-: ⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0).
const MARCH_C_MINUS: [MarchElement; 6] = [
    MarchElement {
        read_ones: None,
        write_ones: Some(false),
        descending: false,
    },
    MarchElement {
        read_ones: Some(false),
        write_ones: Some(true),
        descending: false,
    },
    MarchElement {
        read_ones: Some(true),
        write_ones: Some(false),
        descending: false,
    },
    MarchElement {
        read_ones: Some(false),
        write_ones: Some(true),
        descending: true,
    },
    MarchElement {
        read_ones: Some(true),
        write_ones: Some(false),
        descending: true,
    },
    MarchElement {
        read_ones: Some(false),
        write_ones: None,
        descending: false,
    },
];

/// FNV-1a 64 constants for the per-element syndrome fold.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold_syndrome(mut sig: u64, addr: u32, diff: u64) -> u64 {
    for value in [u64::from(addr), diff] {
        sig ^= value;
        sig = sig.wrapping_mul(FNV_PRIME);
    }
    sig
}

/// The SRAM under test with at most one injected fault. Fault semantics
/// are applied at write time (stuck cells also resist the initial
/// background write, so reads stay honest).
struct FaultySram {
    words: Vec<u64>,
    bits: u32,
    mask: u64,
    fault: Option<MarchFault>,
}

impl FaultySram {
    fn new(config: &SramConfig, fault: Option<MarchFault>) -> Self {
        let mask = if config.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << config.bits) - 1
        };
        FaultySram {
            words: vec![0; config.words as usize],
            bits: config.bits,
            mask,
            fault,
        }
    }

    fn read(&self, addr: u32) -> u64 {
        self.words[addr as usize]
    }

    fn write(&mut self, addr: u32, value: u64) {
        let old = self.words[addr as usize];
        let mut new = value & self.mask;
        match self.fault {
            Some(MarchFault {
                kind: MarchFaultKind::CouplingInv,
                cell,
            }) => {
                let aggressor = cell + 1;
                if aggressor / self.bits == addr {
                    let abit = 1u64 << (aggressor % self.bits);
                    if old & abit == 0 && new & abit != 0 {
                        let (vw, vb) = (cell / self.bits, cell % self.bits);
                        if vw == addr {
                            new ^= 1u64 << vb;
                        } else {
                            self.words[vw as usize] ^= 1u64 << vb;
                        }
                    }
                }
            }
            Some(MarchFault { kind, cell }) if cell / self.bits == addr => {
                let bit = 1u64 << (cell % self.bits);
                match kind {
                    MarchFaultKind::StuckAt0 => new &= !bit,
                    MarchFaultKind::StuckAt1 => new |= bit,
                    MarchFaultKind::TransitionRise => {
                        if old & bit == 0 {
                            new &= !bit;
                        }
                    }
                    MarchFaultKind::TransitionFall => {
                        if old & bit != 0 {
                            new |= bit;
                        }
                    }
                    MarchFaultKind::CouplingInv => {}
                }
            }
            _ => {}
        }
        self.words[addr as usize] = new;
    }
}

/// Precomputed per-fault behaviour of one embedded SRAM under March C-:
/// the SRAM-family counterpart of the fleet's logic `CutModel` — fail
/// data, detectability and a syndrome dictionary for diagnosis.
#[derive(Debug)]
pub struct MarchTest {
    config: SramConfig,
    faults: Vec<MarchFault>,
    detectable: Vec<u32>,
    /// The fail table, one slot per fault index: slot order is the
    /// diagnosis tie order.
    engine: Engine<FailData>,
}

impl MarchTest {
    /// Enumerates the fault universe (per cell: SAF0, SAF1, TF↑, TF↓;
    /// per adjacent cell pair: CFin) and simulates March C- once per
    /// fault into the fail-data table.
    ///
    /// # Errors
    ///
    /// A [`MarchError`] for degenerate geometry.
    pub fn build(config: SramConfig) -> Result<Self, MarchError> {
        if config.words == 0 {
            return Err(MarchError::ZeroWords);
        }
        if config.bits == 0 {
            return Err(MarchError::ZeroBits);
        }
        if config.bits > 64 {
            return Err(MarchError::WordTooWide { bits: config.bits });
        }
        let cells = u64::from(config.words) * u64::from(config.bits);
        if cells > MAX_CELLS {
            return Err(MarchError::TooManyCells { cells });
        }
        let cells = cells as u32;
        let mut faults = Vec::with_capacity(cells as usize * 5);
        for cell in 0..cells {
            for kind in [
                MarchFaultKind::StuckAt0,
                MarchFaultKind::StuckAt1,
                MarchFaultKind::TransitionRise,
                MarchFaultKind::TransitionFall,
            ] {
                faults.push(MarchFault { kind, cell });
            }
        }
        for cell in 0..cells.saturating_sub(1) {
            faults.push(MarchFault {
                kind: MarchFaultKind::CouplingInv,
                cell,
            });
        }
        let mut fail_table = Vec::with_capacity(faults.len());
        let mut detectable = Vec::new();
        for (i, &fault) in faults.iter().enumerate() {
            let fail = run_march(&config, Some(fault));
            if !fail.is_pass() {
                detectable.push(i as u32);
            }
            fail_table.push(fail);
        }
        Ok(MarchTest {
            config,
            faults,
            detectable,
            engine: Engine::new(fail_table),
        })
    }

    /// The geometry the model was built from.
    pub fn config(&self) -> &SramConfig {
        &self.config
    }

    /// Number of modeled memory faults.
    pub fn num_faults(&self) -> usize {
        self.faults.len()
    }

    /// The `i`-th fault.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (caller bug, not data-reachable).
    pub fn fault(&self, i: u32) -> MarchFault {
        self.faults[i as usize]
    }

    /// The precomputed fail data of fault `i` under March C-.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (caller bug, not data-reachable).
    pub fn fail_data(&self, i: u32) -> &FailData {
        &self.engine.sets()[i as usize]
    }

    /// Indices of faults March C- detects. The classic result holds in
    /// the model: all SAF/TF/CFin faults are detected, so this is the
    /// full universe.
    pub fn detectable_faults(&self) -> &[u32] {
        &self.detectable
    }

    /// March-test fault coverage: detected / modeled.
    pub fn coverage(&self) -> f64 {
        self.detectable.len() as f64 / self.faults.len().max(1) as f64
    }

    /// Ranks candidate memory faults against observed fail data, best
    /// first (ties by fault index): Jaccard similarity over the exact
    /// `(element, syndrome)` entry sets, bit-identical to the retained
    /// [`diagnose_linear`](Self::diagnose_linear) scan (proptest-enforced).
    pub fn diagnose(&self, observed: &FailData) -> Vec<MarchCandidate> {
        self.engine
            .rank(observed, |slot, score| self.candidate(slot, score))
    }

    /// The linear Jaccard scan over every candidate, kept as the
    /// reference implementation [`diagnose`](Self::diagnose) must stay
    /// `PartialEq`-identical to.
    pub fn diagnose_linear(&self, observed: &FailData) -> Vec<MarchCandidate> {
        self.engine
            .rank_linear(observed, |slot, score| self.candidate(slot, score))
    }

    fn candidate(&self, slot: u32, score: f64) -> MarchCandidate {
        MarchCandidate {
            fault_index: slot,
            fault: self.faults[slot as usize],
            score,
        }
    }

    /// Places fault `i` in the ranking of `observed` (its own fail data
    /// or an impaired variant) without building the full ranking; an `i`
    /// out of range has no rank.
    pub fn diagnose_summary(&self, i: u32, observed: &FailData) -> DiagnosisSummary {
        self.engine.summary(Some(i as usize), observed)
    }
}

/// Runs March C- over the (possibly faulty) SRAM, folding read
/// mismatches into one `(element, syndrome)`
/// [`FailEntry`](crate::FailEntry) per failing element.
fn run_march(config: &SramConfig, fault: Option<MarchFault>) -> FailData {
    let mut mem = FaultySram::new(config, fault);
    let mask = mem.mask;
    let mut fail = FailData::new();
    for (element, spec) in MARCH_C_MINUS.iter().enumerate() {
        let mut sig = FNV_OFFSET;
        let mut failed = false;
        let mut visit = |mem: &mut FaultySram, addr: u32| {
            if let Some(ones) = spec.read_ones {
                let expected = if ones { mask } else { 0 };
                let diff = mem.read(addr) ^ expected;
                if diff != 0 {
                    failed = true;
                    sig = fold_syndrome(sig, addr, diff);
                }
            }
            if let Some(ones) = spec.write_ones {
                mem.write(addr, if ones { mask } else { 0 });
            }
        };
        if spec.descending {
            for addr in (0..config.words).rev() {
                visit(&mut mem, addr);
            }
        } else {
            for addr in 0..config.words {
                visit(&mut mem, addr);
            }
        }
        if failed {
            fail.push(element as u32, sig);
        }
    }
    fail
}

/// The syndrome entries of one observed march run — exposed for tests
/// and for callers that replay a run instead of using the dictionary.
pub fn march_fail_data(config: &SramConfig, fault: Option<MarchFault>) -> FailData {
    run_march(config, fault)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MarchTest {
        MarchTest::build(SramConfig { words: 8, bits: 4 }).expect("model builds")
    }

    #[test]
    fn golden_march_passes() {
        let cfg = SramConfig::default();
        assert!(march_fail_data(&cfg, None).is_pass());
    }

    #[test]
    fn march_c_minus_detects_every_modeled_fault() {
        let m = small();
        // 8×4 = 32 cells: 4 single-cell faults each + 31 coupling pairs.
        assert_eq!(m.num_faults(), 32 * 4 + 31);
        assert_eq!(m.detectable_faults().len(), m.num_faults());
        assert_eq!(m.coverage(), 1.0);
    }

    #[test]
    fn fault_classes_fail_their_characteristic_elements() {
        let m = small();
        let elements_of = |kind, cell| {
            let idx = m
                .faults
                .iter()
                .position(|f| f.kind == kind && f.cell == cell)
                .expect("fault enumerated") as u32;
            m.fail_data(idx)
                .entries()
                .iter()
                .map(|e| e.window)
                .collect::<Vec<_>>()
        };
        // SAF1 already corrupts the r0 of element 1; SAF0 first shows in
        // the r1 of element 2.
        assert!(elements_of(MarchFaultKind::StuckAt1, 5).contains(&1));
        assert!(elements_of(MarchFaultKind::StuckAt0, 5).contains(&2));
        // A cell that cannot rise reads 0 where 1 is expected.
        assert!(elements_of(MarchFaultKind::TransitionRise, 5).contains(&2));
        // A cell that cannot fall reads 1 where 0 is expected.
        assert!(elements_of(MarchFaultKind::TransitionFall, 5).contains(&3));
    }

    #[test]
    fn uploads_are_small_and_untruncated() {
        let m = small();
        for &i in m.detectable_faults() {
            let fd = m.fail_data(i);
            assert!(!fd.is_truncated());
            assert!(fd.entries().len() <= 6, "one entry per march element");
            assert!(fd.byte_size() > 0);
            for pair in fd.entries().windows(2) {
                assert!(pair[0].window < pair[1].window, "entries in element order");
            }
        }
    }

    #[test]
    fn every_fault_localizes_in_its_own_syndrome() {
        let m = small();
        for &i in m.detectable_faults() {
            let s = m.diagnose_summary(i, m.fail_data(i));
            assert!(s.localized, "fault {i} must rank top on its own data");
            assert_eq!(s.rank, Some(1));
        }
    }

    #[test]
    fn syndromes_distinguish_up_to_true_equivalences() {
        // SAF0 and TF-rise are behaviourally identical under March C-
        // (the cell never holds a 1 either way), and a same-word CFin
        // victim mimics them too — genuine ambiguous-response classes no
        // syndrome can split. Everything else must resolve uniquely.
        let m = small();
        let mut unique = 0usize;
        for &i in m.detectable_faults() {
            let ranked = m.diagnose(m.fail_data(i));
            let top = ranked[0].score;
            let class = ranked.iter().take_while(|c| c.score == top).count();
            assert!(
                class <= 3,
                "fault {i}: equivalence class of {class} exceeds the known SAF0/TF↑/CFin tie"
            );
            if class == 1 {
                unique += 1;
            }
        }
        assert!(
            unique * 10 >= m.detectable_faults().len() * 4,
            "at least 40% of faults uniquely identified, got {unique}/{}",
            m.detectable_faults().len()
        );
    }

    #[test]
    fn coupling_crosses_word_boundaries() {
        // bits=4: cell 3 (word 0, bit 3) is victim of aggressor cell 4
        // (word 1, bit 0) — the flip lands in another word.
        let cfg = SramConfig { words: 4, bits: 4 };
        let fd = march_fail_data(
            &cfg,
            Some(MarchFault {
                kind: MarchFaultKind::CouplingInv,
                cell: 3,
            }),
        );
        assert!(!fd.is_pass());
    }

    #[test]
    fn geometry_validation_is_typed() {
        assert_eq!(
            MarchTest::build(SramConfig { words: 0, bits: 8 }).err(),
            Some(MarchError::ZeroWords)
        );
        assert_eq!(
            MarchTest::build(SramConfig { words: 8, bits: 0 }).err(),
            Some(MarchError::ZeroBits)
        );
        assert_eq!(
            MarchTest::build(SramConfig { words: 8, bits: 65 }).err(),
            Some(MarchError::WordTooWide { bits: 65 })
        );
        assert_eq!(
            MarchTest::build(SramConfig {
                words: 1 << 16,
                bits: 64
            })
            .err(),
            Some(MarchError::TooManyCells { cells: 1 << 22 })
        );
    }

    #[test]
    fn indexed_diagnose_matches_linear() {
        let m = small();
        let pass = FailData::new();
        assert_eq!(m.diagnose(&pass), m.diagnose_linear(&pass));
        for &i in m.detectable_faults().iter().step_by(7) {
            let fd = m.fail_data(i);
            assert_eq!(m.diagnose(fd), m.diagnose_linear(fd), "fault {i}");
            // Impaired payloads take the same code path.
            let lost = fd.without_window_slot(1);
            assert_eq!(
                m.diagnose(&lost),
                m.diagnose_linear(&lost),
                "fault {i} lost"
            );
            let corrupt = fd.with_corrupted_window(i as u8);
            assert_eq!(
                m.diagnose(&corrupt),
                m.diagnose_linear(&corrupt),
                "fault {i} corrupt"
            );
        }
    }

    #[test]
    fn summary_agrees_with_full_ranking() {
        let m = small();
        for &i in m.detectable_faults().iter().step_by(11) {
            let fd = m.fail_data(i);
            let payloads = [fd.clone(), fd.without_window_slot(1), FailData::new()];
            for observed in &payloads {
                let ranked = m.diagnose(observed);
                let pos = ranked
                    .iter()
                    .position(|c| c.fault_index == i)
                    .expect("every fault is a candidate");
                let score = ranked[pos].score;
                let mut above: Vec<f64> = ranked[..pos]
                    .iter()
                    .map(|c| c.score)
                    .filter(|&s| s > score)
                    .collect();
                above.dedup();
                let s = m.diagnose_summary(i, observed);
                assert_eq!(s.candidates, ranked.len());
                assert_eq!(s.rank, Some(1 + above.len()));
                assert_eq!(s.localized, score == ranked[0].score);
            }
        }
        let outside = m.diagnose_summary(m.num_faults() as u32, m.fail_data(0));
        assert_eq!(outside.rank, None);
        assert!(!outside.localized);
    }

    #[test]
    fn family_labels_are_stable() {
        assert_eq!(CutFamily::Logic.label(), "logic");
        assert_eq!(CutFamily::Sram.label(), "sram");
    }
}
