//! Equivalence oracles for the diagnosis engine rewrite (DESIGN.md §15).
//!
//! Two independently implemented paths must agree bit-for-bit:
//!
//! * **dictionary build** — the one-pass wide-word [`SessionTable`]
//!   sweep vs the historical one-session-replay-per-fault construction,
//!   across seeds, session geometry and worker thread counts, and
//! * **lookup** — the indexed [`Diagnoser::diagnose`] (with its memo of
//!   exact-match scores) vs the retained linear Jaccard scan, across
//!   clean, truncated, window-lost, corrupted and empty payloads — the
//!   impairment constructors the channel layer applies in transit.
//!
//! The SRAM family gets the same treatment: indexed
//! [`MarchTest::diagnose`] vs [`MarchTest::diagnose_linear`].
//! Both also rank an observation as a set of keys, and place a fault in
//! `diagnose_summary` where a walk of the full ranking would.

use eea_bist::{
    march_fail_data, Diagnoser, DiagnosisSummary, FailData, FailEntry, MarchTest, SessionTable,
    SramConfig, StumpsSession, FAIL_ENTRY_BYTES,
};
use eea_faultsim::FaultUniverse;
use eea_netlist::{synthesize, ScanChains, SynthConfig};
use proptest::prelude::*;

fn substrate(seed: u64, gates: usize) -> (eea_netlist::Circuit, ScanChains) {
    let c = synthesize(&SynthConfig {
        gates,
        inputs: 8,
        dffs: 12,
        seed,
        ..SynthConfig::default()
    })
    .expect("synthesizes");
    let chains = ScanChains::balanced(&c, 4).expect("at least one chain");
    (c, chains)
}

/// `payload` and its doubled form (every entry twice), each paired with
/// its reversal and its rotation left by `rot`. Repeated keys count in
/// the Jaccard denominator, so each form is compared with itself.
fn reorderings(payload: &FailData, rot: usize) -> Vec<(FailData, FailData)> {
    let build = |entries: &[FailEntry]| {
        let mut fd = FailData::new();
        entries.iter().for_each(|e| fd.push(e.window, e.signature));
        fd
    };
    let doubled: Vec<FailEntry> = payload.entries().iter().flat_map(|&e| [e, e]).collect();
    let mut pairs = Vec::new();
    for base in [payload.entries().to_vec(), doubled] {
        let reversed: Vec<FailEntry> = base.iter().rev().copied().collect();
        let mut rotated = base.clone();
        rotated.rotate_left(rot % base.len().max(1));
        pairs.push((build(&base), build(&reversed)));
        pairs.push((build(&base), build(&rotated)));
    }
    pairs
}

/// Checks one family on `payload`: `summary` equals a walk of the
/// ranking (`placed` marks the queried fault and reads each score), and
/// no reordering changes the ranking, the linear scan or the summary.
fn check_family<C: PartialEq>(
    rank: impl Fn(&FailData, bool) -> Vec<C>,
    summary: impl Fn(&FailData) -> DiagnosisSummary,
    placed: impl Fn(&C) -> (bool, f64),
    payload: &FailData,
    rot: usize,
) -> Result<(), TestCaseError> {
    let ranked: Vec<(bool, f64)> = rank(payload, false).iter().map(placed).collect();
    let pos = ranked.iter().position(|c| c.0);
    let rank_class = pos.map(|p| {
        let mut above: Vec<f64> = ranked[..p].iter().map(|c| c.1).collect();
        above.retain(|&score| score > ranked[p].1);
        above.dedup();
        1 + above.len()
    });
    let walked = DiagnosisSummary {
        candidates: ranked.len(),
        rank: rank_class,
        localized: pos.is_some_and(|p| ranked[p].1 == ranked[0].1),
    };
    prop_assert_eq!(summary(payload), walked);
    for (base, reordered) in reorderings(payload, rot) {
        for linear in [false, true] {
            prop_assert!(
                rank(&reordered, linear) == rank(&base, linear),
                "entry order moved a ranking"
            );
        }
        prop_assert_eq!(summary(&reordered), summary(&base));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The one-pass sweep emits, for every fault, exactly the fail data
    /// and detect-window set of the historical per-fault session replay —
    /// at any worker thread count.
    #[test]
    fn one_pass_table_matches_serial_replay(
        seed in 1u64..6,
        lfsr_seed in 1u64..=0xFFFF,
        window in 3u64..20,
        patterns in 30u64..200,
        threads in 1usize..6,
    ) {
        let (c, chains) = substrate(seed, 70);
        let serial = SessionTable::build_serial_replay(&c, &chains, lfsr_seed, window, patterns);
        let fast = SessionTable::build(&c, &chains, lfsr_seed, window, patterns, threads);
        prop_assert_eq!(fast.num_faults(), serial.num_faults());
        prop_assert_eq!(fast.windows(), serial.windows());
        prop_assert_eq!(fast.golden(), serial.golden());
        for i in 0..serial.num_faults() {
            prop_assert_eq!(fast.fault(i), serial.fault(i));
            prop_assert_eq!(fast.fail_data(i), serial.fail_data(i), "fail data, fault {}", i);
            prop_assert_eq!(
                fast.detect_windows(i),
                serial.detect_windows(i),
                "detect windows, fault {}",
                i
            );
        }
    }

    /// Indexed diagnosis (posting lists + exact-match memo) is
    /// `PartialEq`-identical to the linear scan for every payload shape
    /// the channel layer can produce — including repeated lookups that
    /// hit the memoized scores.
    #[test]
    fn indexed_diagnose_matches_linear(
        seed in 1u64..6,
        window in 3u64..14,
        patterns in 40u64..160,
        cap_entries in 1u64..12,
        slot in 0usize..8,
        salt in 0u8..=255,
    ) {
        let (c, chains) = substrate(seed, 70);
        let (faults, _, detect_windows, windows) =
            SessionTable::build(&c, &chains, 0xACE1, window, patterns, 2).into_parts();
        let diagnoser = Diagnoser::from_detect_windows(faults, detect_windows, windows);
        let session = StumpsSession::new(&c, &chains, 0xACE1, window);
        let golden = session.run_golden(patterns);
        let universe = FaultUniverse::collapsed(&c);
        let check = |payload: &FailData, what: &str, fi: usize| -> Result<(), TestCaseError> {
            prop_assert_eq!(
                diagnoser.diagnose(payload),
                diagnoser.diagnose_linear(payload),
                "{} payload of fault {}",
                what,
                fi
            );
            // Second lookup: the memo must return the same.
            prop_assert_eq!(
                diagnoser.diagnose(payload),
                diagnoser.diagnose_linear(payload),
                "{} payload of fault {} (repeat)",
                what,
                fi
            );
            Ok(())
        };
        for fi in (0..universe.num_faults()).step_by(9) {
            let fail = session.run_with_fault(universe.fault(fi), &golden);
            check(&fail, "clean", fi)?;
            check(&fail.truncated_to(cap_entries * FAIL_ENTRY_BYTES), "truncated", fi)?;
            check(&fail.without_window_slot(slot), "window-lost", fi)?;
            check(&fail.with_corrupted_window(salt), "corrupted", fi)?;
        }
        check(&FailData::new(), "empty", 0)?;
        // An out-of-order observation ranks as its sorted set.
        let mut unsorted = FailData::new();
        unsorted.push(7, u64::from(salt) | 1);
        unsorted.push(1, 0xFEED);
        unsorted.push(4, 0xBEEF);
        check(&unsorted, "unsorted", 0)?;
    }

    /// SRAM-family indexed diagnosis vs the linear `(element, syndrome)`
    /// scan, over the same impairment shapes.
    #[test]
    fn march_indexed_matches_linear(
        words in 2u32..12,
        bits in 1u32..9,
        cap_entries in 1u64..7,
        slot in 0usize..6,
        salt in 0u8..=255,
    ) {
        let m = MarchTest::build(SramConfig { words, bits }).expect("geometry is valid");
        let pass = march_fail_data(&SramConfig { words, bits }, None);
        prop_assert_eq!(m.diagnose(&pass), m.diagnose_linear(&pass));
        for &i in m.detectable_faults().iter().step_by(11) {
            let fail = m.fail_data(i);
            prop_assert_eq!(m.diagnose(fail), m.diagnose_linear(fail), "fault {}", i);
            let capped = fail.truncated_to(cap_entries * FAIL_ENTRY_BYTES);
            prop_assert_eq!(m.diagnose(&capped), m.diagnose_linear(&capped), "capped {}", i);
            let lost = fail.without_window_slot(slot);
            prop_assert_eq!(m.diagnose(&lost), m.diagnose_linear(&lost), "lost {}", i);
            let corrupt = fail.with_corrupted_window(salt);
            prop_assert_eq!(m.diagnose(&corrupt), m.diagnose_linear(&corrupt), "corrupt {}", i);
        }
    }

    /// `Diagnoser::new` (the public constructor) is the one-pass build:
    /// its rankings equal a diagnoser built from the serial-replay table,
    /// pinning `from_detect_windows` as a pure refactor of `new`.
    #[test]
    fn constructor_equals_serial_replay_dictionary(
        seed in 1u64..6,
        window in 4u64..12,
        patterns in 40u64..120,
    ) {
        let (c, chains) = substrate(seed, 60);
        let fast = Diagnoser::new(&c, &chains, 0xACE1, window, patterns);
        let (faults, _, detect_windows, windows) =
            SessionTable::build_serial_replay(&c, &chains, 0xACE1, window, patterns).into_parts();
        let serial = Diagnoser::from_detect_windows(faults, detect_windows, windows);
        prop_assert_eq!(fast.num_candidates(), serial.num_candidates());
        prop_assert_eq!(fast.windows(), serial.windows());
        let session = StumpsSession::new(&c, &chains, 0xACE1, window);
        let golden = session.run_golden(patterns);
        let universe = FaultUniverse::collapsed(&c);
        for fi in (0..universe.num_faults()).step_by(13) {
            let fail = session.run_with_fault(universe.fault(fi), &golden);
            prop_assert_eq!(fast.diagnose(&fail), serial.diagnose(&fail), "fault {}", fi);
        }
    }

    /// Both families rank an observation as a set: reversing or rotating
    /// a payload's entries, doubled or not, changes no ranking, linear
    /// scan or summary. And `diagnose_summary`, computed from the scored
    /// slots rather than the ranking, equals a walk of `diagnose` for
    /// clean, truncated, window-lost, corrupted and empty payloads.
    #[test]
    fn observations_are_sets_and_summaries_walk_the_ranking(
        seed in 1u64..6,
        window in 3u64..14,
        patterns in 40u64..160,
        words in 2u32..12,
        bits in 1u32..9,
        cap_entries in 1u64..12,
        slot in 0usize..8,
        salt in 0u8..=255,
        rot in 1usize..8,
    ) {
        let payloads = |fail: &FailData| {
            [
                fail.clone(),
                fail.truncated_to(cap_entries * FAIL_ENTRY_BYTES),
                fail.without_window_slot(slot),
                fail.with_corrupted_window(salt),
                FailData::new(),
            ]
        };
        let (c, chains) = substrate(seed, 70);
        let d = Diagnoser::new(&c, &chains, 0xACE1, window, patterns);
        let session = StumpsSession::new(&c, &chains, 0xACE1, window);
        let golden = session.run_golden(patterns);
        let universe = FaultUniverse::collapsed(&c);
        for fi in (0..universe.num_faults()).step_by(9) {
            let fault = universe.fault(fi);
            for p in payloads(&session.run_with_fault(fault, &golden)) {
                check_family(
                    |p, linear| if linear { d.diagnose_linear(p) } else { d.diagnose(p) },
                    |p| d.diagnose_summary(fault, p),
                    |c| (c.fault == fault, c.score),
                    &p,
                    rot,
                )?;
            }
        }
        let m = MarchTest::build(SramConfig { words, bits }).expect("geometry is valid");
        let n = u32::try_from(m.num_faults()).expect("fits");
        // Index `n` is out of range: it must summarize to no rank.
        for i in (0..n).step_by(11).chain([n]) {
            let fail = if i < n { m.fail_data(i).clone() } else { FailData::new() };
            for p in payloads(&fail) {
                check_family(
                    |p, linear| if linear { m.diagnose_linear(p) } else { m.diagnose(p) },
                    |p| m.diagnose_summary(i, p),
                    |c| (c.fault_index == i, c.score),
                    &p,
                    rot,
                )?;
            }
        }
    }
}
