//! Fail-data diagnosis — the paper's *raison d'être* — for both CUT
//! families.
//!
//! Section I motivates the whole design flow with two consumers of the
//! collected fail data:
//!
//! * **workshop repair** — the failing BIST session directly identifies the
//!   faulty ECU (that part is the DSE's test-quality objective), and
//! * **failure analysis** — "logic diagnosis of the faulty IC can proceed
//!   with the collected information in the fail memory in order to find the
//!   responsible faulty location" (Section IV-B).
//!
//! This module implements the second step in the spirit of the cited
//! window-based diagnosis works (\[9\], \[10\]): with per-window MISR
//! signatures ("strong windows"), the *set* of failing windows fingerprints
//! a fault. Candidate stuck-at faults are ranked by the Jaccard similarity
//! between their *predicted* failing-window set (from fault simulation of
//! the session's pattern stream) and the *observed* one.
//!
//! One crate-private engine ranks for both CUT families (DESIGN.md §15),
//! generic over the dictionary key: the failing window for the logic
//! [`Diagnoser`], the `(element, syndrome)` [`FailEntry`] for the SRAM
//! [`MarchTest`](crate::MarchTest). An observation is a *set* of keys —
//! entry order is invisible, repeated keys still count in the Jaccard
//! denominator. A lookup scores only the slots sharing an observed key
//! (every other slot scores exactly `0.0`), bit-equal to the retained
//! linear scan; a summary places one fault from those scored slots alone,
//! and an observation equal to a predicted set reuses memoized scores.

use std::borrow::Cow;
use std::sync::OnceLock;

use eea_faultsim::Fault;
use eea_netlist::Circuit;

use crate::fail::{FailData, FailEntry};
use crate::session_table::SessionTable;

/// A ranked diagnosis candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The candidate fault.
    pub fault: Fault,
    /// Match score in `[0, 1]` (1 = the candidate explains the observed
    /// fail data perfectly).
    pub score: f64,
}

/// Condensed outcome of one diagnosis, for consumers that need placement
/// statistics rather than the full ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagnosisSummary {
    /// Total number of ranked candidates.
    pub candidates: usize,
    /// 1-based rank class of the queried fault: `1 +` the number of
    /// *distinct* scores strictly above its own. `None` if the fault is
    /// not a dictionary candidate.
    pub rank: Option<usize>,
    /// Whether the queried fault sits in the top equivalence class.
    pub localized: bool,
}

/// A candidate's predicted key set, as the engine stores it: the logic
/// family's failing windows, or the SRAM family's fail data itself.
pub(crate) trait KeySet {
    /// The dictionary key one fail-data entry contributes.
    type Key: Copy + Ord;
    /// The key of an observed entry.
    fn key_of(entry: &FailEntry) -> Self::Key;
    /// The predicted keys, strictly increasing.
    fn keys(&self) -> &[Self::Key];
}

impl KeySet for Vec<u32> {
    type Key = u32;
    fn key_of(entry: &FailEntry) -> u32 {
        entry.window
    }
    fn keys(&self) -> &[u32] {
        self
    }
}

impl KeySet for FailData {
    type Key = FailEntry;
    fn key_of(entry: &FailEntry) -> FailEntry {
        *entry
    }
    fn keys(&self) -> &[FailEntry] {
        self.entries()
    }
}

/// A scored slot: `(slot, Jaccard score)`.
type Scored = (u32, f64);

/// The one Jaccard ranking engine behind both CUT families. Owns every
/// candidate slot's predicted key set; slot order is the tie order.
#[derive(Debug)]
pub(crate) struct Engine<S: KeySet> {
    sets: Vec<S>,
    /// Every `(key, slot)` posting, sorted: `keys[i]` is predicted by
    /// slot `postings[i]`.
    keys: Vec<S::Key>,
    postings: Vec<u32>,
    /// Nonzero scores of an observation equal to a predicted set, best
    /// first, kept at the first slot holding that set.
    memo: Vec<OnceLock<Box<[Scored]>>>,
}

impl<S: KeySet> Engine<S> {
    pub(crate) fn new(sets: Vec<S>) -> Self {
        let mut pairs: Vec<(S::Key, u32)> = sets
            .iter()
            .enumerate()
            .flat_map(|(slot, set)| set.keys().iter().map(move |&k| (k, slot as u32)))
            .collect();
        pairs.sort_unstable();
        let (keys, postings) = pairs.into_iter().unzip();
        Engine {
            memo: sets.iter().map(|_| OnceLock::new()).collect(),
            sets,
            keys,
            postings,
        }
    }

    /// The predicted key sets, by slot.
    pub(crate) fn sets(&self) -> &[S] {
        &self.sets
    }

    /// The slots predicting `key`, ascending.
    fn posting(&self, key: &S::Key) -> &[u32] {
        let start = self.keys.partition_point(|k| k < key);
        let len = self.keys[start..].partition_point(|k| k == key);
        &self.postings[start..start + len]
    }

    /// The nonzero-scored slots of `observed`, best first; every other
    /// slot scores `0.0`.
    fn scored(&self, observed: &FailData) -> Cow<'_, [Scored]> {
        let raw = observed.entries();
        let mut keys: Vec<S::Key> = raw.iter().map(S::key_of).collect();
        keys.sort_unstable();
        keys.dedup();
        // Only a duplicate-free observation can equal a predicted set.
        // Every slot holding that set predicts its first key, so the
        // first match in that posting list is the memo's slot.
        let exact = match keys.first() {
            Some(first) if keys.len() == raw.len() => self
                .posting(first)
                .iter()
                .find(|&&slot| self.sets[slot as usize].keys() == keys.as_slice()),
            _ => None,
        };
        match exact {
            Some(&slot) => Cow::Borrowed(
                self.memo[slot as usize].get_or_init(|| self.score(&keys, raw.len()).into()),
            ),
            None => Cow::Owned(self.score(&keys, raw.len())),
        }
    }

    /// Scores the slots sharing one of the distinct observed `keys`, out
    /// of `raw_len` observed entries. A PASS scores the slots predicting
    /// nothing `1.0`.
    fn score(&self, keys: &[S::Key], raw_len: usize) -> Vec<Scored> {
        if raw_len == 0 {
            return (0..self.sets.len())
                .filter(|&slot| self.sets[slot].keys().is_empty())
                .map(|slot| (slot as u32, 1.0))
                .collect();
        }
        let mut inter = vec![0u32; self.sets.len()];
        let mut touched = Vec::new();
        for &slot in keys.iter().flat_map(|k| self.posting(k)) {
            if inter[slot as usize] == 0 {
                touched.push(slot);
            }
            inter[slot as usize] += 1;
        }
        let mut scored: Vec<Scored> = touched
            .into_iter()
            .map(|slot| {
                let shared = inter[slot as usize] as usize;
                let predicted = self.sets[slot as usize].keys().len();
                (slot, jaccard(shared, predicted, raw_len))
            })
            .collect();
        scored.sort_unstable_by(best_first);
        scored
    }

    /// Every slot ranked against `observed`, best first, mapped through
    /// `candidate`: the scored slots, then the `0.0` tail in slot order.
    pub(crate) fn rank<C>(&self, observed: &FailData, candidate: impl Fn(u32, f64) -> C) -> Vec<C> {
        let scored = self.scored(observed);
        let mut nonzero = vec![false; self.sets.len()];
        let mut ranked = Vec::with_capacity(self.sets.len());
        for &(slot, score) in scored.iter() {
            nonzero[slot as usize] = true;
            ranked.push(candidate(slot, score));
        }
        let zeros = (0..self.sets.len()).filter(|&slot| !nonzero[slot]);
        ranked.extend(zeros.map(|slot| candidate(slot as u32, 0.0)));
        ranked
    }

    /// The linear scan over every slot: the reference
    /// [`rank`](Self::rank) stays bit-equal to (proptest-enforced).
    pub(crate) fn rank_linear<C>(
        &self,
        observed: &FailData,
        candidate: impl Fn(u32, f64) -> C,
    ) -> Vec<C> {
        let raw: Vec<S::Key> = observed.entries().iter().map(S::key_of).collect();
        let mut ranked: Vec<Scored> = self
            .sets
            .iter()
            .enumerate()
            .map(|(slot, set)| {
                let inter = set.keys().iter().filter(|k| raw.contains(k)).count();
                (slot as u32, jaccard(inter, set.keys().len(), raw.len()))
            })
            .collect();
        ranked.sort_by(best_first);
        ranked
            .into_iter()
            .map(|(slot, score)| candidate(slot, score))
            .collect()
    }

    /// Places `slot` in the ranking of `observed` from the scored slots
    /// alone; `None`, or a slot out of range, has no rank.
    pub(crate) fn summary(&self, slot: Option<usize>, observed: &FailData) -> DiagnosisSummary {
        let rank = slot.filter(|&slot| slot < self.sets.len()).map(|slot| {
            let scored = self.scored(observed);
            let own = scored.iter().find(|s| s.0 as usize == slot);
            let own = own.map_or(0.0, |s| s.1);
            // Best first: the scores above `own` are a prefix.
            let above = scored.iter().take_while(|s| s.1 > own);
            let mut above: Vec<f64> = above.map(|s| s.1).collect();
            above.dedup();
            1 + above.len()
        });
        DiagnosisSummary {
            candidates: self.sets.len(),
            rank,
            localized: rank == Some(1),
        }
    }
}

/// `|P ∩ O| / |P ∪ O|`, with `|O|` counting repeated observed keys; two
/// empty sets match perfectly.
fn jaccard(inter: usize, predicted: usize, observed: usize) -> f64 {
    let union = predicted + observed - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Best first: score descending, ties in slot order.
fn best_first(a: &Scored, b: &Scored) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Window-based logic diagnosis for one BIST session configuration.
///
/// Precomputes, per candidate fault, the set of windows whose signatures
/// the fault would corrupt; [`diagnose`](Self::diagnose) then ranks
/// candidates against observed fail data.
///
/// # Example
///
/// ```
/// use eea_netlist::{synthesize, SynthConfig, ScanChains};
/// use eea_bist::{Diagnoser, StumpsSession};
/// use eea_faultsim::FaultUniverse;
///
/// let c = synthesize(&SynthConfig { gates: 120, inputs: 8, dffs: 16, seed: 3, ..SynthConfig::default() }).expect("synthesizes");
/// let chains = ScanChains::balanced(&c, 4).expect("at least one chain");
/// let session = StumpsSession::new(&c, &chains, 0xACE1, 16);
/// let golden = session.run_golden(128);
///
/// // Injected defect:
/// let universe = FaultUniverse::collapsed(&c);
/// let defect = universe.fault(7);
/// let observed = session.run_with_fault(defect, &golden);
///
/// let diagnoser = Diagnoser::new(&c, &chains, 0xACE1, 16, 128);
/// let ranked = diagnoser.diagnose(&observed);
/// assert!(!observed.is_pass());
/// // The true defect ranks at (or ties for) the top.
/// let best = ranked[0].score;
/// assert!(ranked.iter().any(|cand| cand.fault == defect && cand.score == best));
/// ```
#[derive(Debug)]
pub struct Diagnoser {
    /// Candidate faults in ascending order: slot order is the tie order.
    faults: Vec<Fault>,
    windows: u32,
    /// Each fault's predicted failing-window set (empty for faults the
    /// session does not detect at all).
    engine: Engine<Vec<u32>>,
}

impl Diagnoser {
    /// Builds the fault dictionary via a one-pass [`SessionTable`] sweep
    /// of the session's pattern stream.
    ///
    /// Parameters mirror [`StumpsSession::new`](crate::StumpsSession::new)
    /// plus the session length in `patterns`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `patterns == 0`.
    pub fn new(
        circuit: &Circuit,
        chains: &eea_netlist::ScanChains,
        lfsr_seed: u64,
        window: u64,
        patterns: u64,
    ) -> Self {
        let table = SessionTable::build(circuit, chains, lfsr_seed, window, patterns, 1);
        let (faults, _, detect_windows, windows) = table.into_parts();
        Self::from_detect_windows(faults, detect_windows, windows)
    }

    /// Builds the diagnoser from the parts of an already-computed
    /// [`SessionTable`] ([`SessionTable::into_parts`]), taking ownership
    /// of the detect-window sets instead of copying them — the
    /// shared-dictionary path: the fleet's `CutModel` builds the table
    /// once and derives both its fail table and this dictionary from it.
    ///
    /// `detect_windows[i]` is the strictly increasing predicted
    /// failing-window set of `faults[i]`; entries past the shorter of the
    /// two vectors are ignored.
    pub fn from_detect_windows(
        faults: Vec<Fault>,
        detect_windows: Vec<Vec<u32>>,
        windows: u32,
    ) -> Self {
        let mut dictionary: Vec<(Fault, Vec<u32>)> =
            faults.into_iter().zip(detect_windows).collect();
        dictionary.sort_by_key(|a| a.0);
        let (faults, sets) = dictionary.into_iter().unzip();
        Diagnoser {
            faults,
            windows,
            engine: Engine::new(sets),
        }
    }

    /// Number of candidate faults in the dictionary.
    pub fn num_candidates(&self) -> usize {
        self.faults.len()
    }

    /// Ranks candidate faults against observed fail data, best first.
    ///
    /// Scoring: Jaccard similarity of the predicted and observed
    /// failing-window sets (1.0 = the candidate explains exactly the
    /// observed windows). For a PASS observation, session-undetectable
    /// candidates score 1.0 and everything else 0. The order of the
    /// observed entries is invisible.
    ///
    /// Output is bit-identical to
    /// [`diagnose_linear`](Self::diagnose_linear); only candidates sharing
    /// an observed window are scored (everything else is a provable
    /// `0.0`).
    pub fn diagnose(&self, observed: &FailData) -> Vec<Candidate> {
        self.engine
            .rank(observed, |slot, score| self.candidate(slot, score))
    }

    /// The linear Jaccard scan over every candidate, kept as the
    /// reference implementation [`diagnose`](Self::diagnose) must stay
    /// `PartialEq`-identical to (proptest-enforced).
    pub fn diagnose_linear(&self, observed: &FailData) -> Vec<Candidate> {
        self.engine
            .rank_linear(observed, |slot, score| self.candidate(slot, score))
    }

    fn candidate(&self, slot: u32, score: f64) -> Candidate {
        Candidate {
            fault: self.faults[slot as usize],
            score,
        }
    }

    /// Places `fault` in the ranking of `observed` — candidate count, rank
    /// class and localization — without building the full ranking. A
    /// fault outside the dictionary has no rank.
    pub fn diagnose_summary(&self, fault: Fault, observed: &FailData) -> DiagnosisSummary {
        let slot = self.faults.binary_search(&fault).ok();
        self.engine.summary(slot, observed)
    }

    /// Diagnostic resolution for a given observation: the number of
    /// candidates sharing the top score (1 = perfect resolution).
    pub fn resolution(&self, observed: &FailData) -> usize {
        let ranked = self.diagnose(observed);
        match ranked.first() {
            None => 0,
            Some(best) => ranked.iter().take_while(|c| c.score == best.score).count(),
        }
    }

    /// Number of signature windows of the configured session.
    pub fn windows(&self) -> u32 {
        self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stumps::StumpsSession;
    use eea_faultsim::FaultUniverse;
    use eea_netlist::{synthesize, ScanChains, SynthConfig};

    fn setup() -> (Circuit, ScanChains) {
        let c = synthesize(&SynthConfig {
            gates: 150,
            inputs: 10,
            dffs: 12,
            seed: 0xD1A6,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        let chains = ScanChains::balanced(&c, 4).expect("at least one chain");
        (c, chains)
    }

    #[test]
    fn true_fault_ranks_top() {
        let (c, chains) = setup();
        let session = StumpsSession::new(&c, &chains, 0xACE1, 8);
        let golden = session.run_golden(256);
        let diagnoser = Diagnoser::new(&c, &chains, 0xACE1, 8, 256);
        let universe = FaultUniverse::collapsed(&c);

        let mut diagnosed = 0;
        let mut tried = 0;
        for fi in (0..universe.num_faults()).step_by(7) {
            let defect = universe.fault(fi);
            let observed = session.run_with_fault(defect, &golden);
            if observed.is_pass() {
                continue; // undetected by this session
            }
            tried += 1;
            let ranked = diagnoser.diagnose(&observed);
            let best = ranked[0].score;
            if ranked
                .iter()
                .take_while(|cand| cand.score == best)
                .any(|cand| cand.fault == defect)
            {
                diagnosed += 1;
            }
        }
        assert!(tried > 10, "too few detectable defects exercised");
        assert_eq!(
            diagnosed, tried,
            "every injected defect must rank within the top equivalence class"
        );
    }

    #[test]
    fn pass_observation_scores_undetectable_faults() {
        let (c, chains) = setup();
        let diagnoser = Diagnoser::new(&c, &chains, 0xACE1, 8, 64);
        let ranked = diagnoser.diagnose(&FailData::new());
        // Top candidates of a PASS are exactly the session-undetectable
        // faults.
        assert!(ranked[0].score == 1.0 || ranked[0].score == 0.0);
        for cand in ranked.iter().filter(|c| c.score == 1.0) {
            let slot = diagnoser
                .faults
                .binary_search(&cand.fault)
                .expect("candidate from dictionary");
            assert!(diagnoser.engine.sets()[slot].is_empty());
        }
    }

    #[test]
    fn longer_sessions_improve_resolution() {
        let (c, chains) = setup();
        let universe = FaultUniverse::collapsed(&c);
        // Average resolution with small vs large window counts.
        let mut resolutions = Vec::new();
        for (window, patterns) in [(64u64, 128u64), (4, 128)] {
            let session = StumpsSession::new(&c, &chains, 0xACE1, window);
            let golden = session.run_golden(patterns);
            let diagnoser = Diagnoser::new(&c, &chains, 0xACE1, window, patterns);
            let mut total = 0usize;
            let mut count = 0usize;
            for fi in (0..universe.num_faults()).step_by(11) {
                let observed = session.run_with_fault(universe.fault(fi), &golden);
                if observed.is_pass() {
                    continue;
                }
                total += diagnoser.resolution(&observed);
                count += 1;
            }
            resolutions.push(total as f64 / count.max(1) as f64);
        }
        // Finer windows (more signatures) give at-least-as-good resolution
        // (fewer candidates tied at the top).
        assert!(
            resolutions[1] <= resolutions[0] + 1e-9,
            "finer windows should not hurt resolution: {resolutions:?}"
        );
    }

    #[test]
    fn dictionary_covers_universe() {
        let (c, chains) = setup();
        let diagnoser = Diagnoser::new(&c, &chains, 1, 16, 64);
        let universe = FaultUniverse::collapsed(&c);
        assert_eq!(diagnoser.num_candidates(), universe.num_faults());
        assert_eq!(diagnoser.windows(), 4);
    }

    #[test]
    fn indexed_matches_linear_on_session_observations() {
        let (c, chains) = setup();
        let session = StumpsSession::new(&c, &chains, 0xACE1, 8);
        let golden = session.run_golden(192);
        let diagnoser = Diagnoser::new(&c, &chains, 0xACE1, 8, 192);
        let universe = FaultUniverse::collapsed(&c);
        for fi in (0..universe.num_faults()).step_by(5) {
            let observed = session.run_with_fault(universe.fault(fi), &golden);
            assert_eq!(
                diagnoser.diagnose(&observed),
                diagnoser.diagnose_linear(&observed),
                "fault {fi}"
            );
            // Repeat to exercise the memoized scores.
            assert_eq!(
                diagnoser.diagnose(&observed),
                diagnoser.diagnose_linear(&observed),
                "fault {fi} (memoized)"
            );
        }
        // PASS observation.
        let pass = FailData::new();
        assert_eq!(diagnoser.diagnose(&pass), diagnoser.diagnose_linear(&pass));
    }

    #[test]
    fn out_of_order_observation_ranks_as_its_sorted_set() {
        let (c, chains) = setup();
        let diagnoser = Diagnoser::new(&c, &chains, 0xACE1, 8, 192);
        let mut observed = FailData::new();
        observed.push(9, 0xDEAD);
        observed.push(2, 0xBEEF);
        assert_eq!(
            diagnoser.diagnose(&observed),
            diagnoser.diagnose_linear(&observed)
        );
        let mut sorted = FailData::new();
        sorted.push(2, 0xBEEF);
        sorted.push(9, 0xDEAD);
        assert_eq!(diagnoser.diagnose(&observed), diagnoser.diagnose(&sorted));
    }

    #[test]
    fn summary_matches_manual_ranking_walk() {
        let (c, chains) = setup();
        let session = StumpsSession::new(&c, &chains, 0xACE1, 8);
        let golden = session.run_golden(192);
        let diagnoser = Diagnoser::new(&c, &chains, 0xACE1, 8, 192);
        let universe = FaultUniverse::collapsed(&c);
        let mut checked = 0;
        for fi in (0..universe.num_faults()).step_by(13) {
            let defect = universe.fault(fi);
            let observed = session.run_with_fault(defect, &golden);
            let ranked = diagnoser.diagnose(&observed);
            let s = diagnoser.diagnose_summary(defect, &observed);
            assert_eq!(s.candidates, ranked.len());
            let pos = ranked
                .iter()
                .position(|cand| cand.fault == defect)
                .expect("defect is a dictionary candidate");
            let mut above: Vec<f64> = ranked[..pos]
                .iter()
                .map(|cand| cand.score)
                .filter(|&x| x > ranked[pos].score)
                .collect();
            above.dedup();
            assert_eq!(s.rank, Some(1 + above.len()));
            assert_eq!(s.localized, ranked[pos].score == ranked[0].score);
            checked += 1;
        }
        assert!(checked > 5);
    }
}
