//! Integration tests of the full BIST substrate pipeline: netlist →
//! fault simulation → ATPG → STUMPS session → profile generation.

use eea_atpg::{generate_tests, AtpgConfig};
use eea_bist::{
    generate_profiles, paper_table1, CoverageTarget, Lfsr, ProfileConfig, StumpsSession,
};
use eea_faultsim::{FaultSim, FaultUniverse, PatternBlock};
use eea_netlist::{bench_format, synthesize, ScanChains, SynthConfig};

fn cut() -> eea_netlist::Circuit {
    synthesize(&SynthConfig {
        gates: 400,
        inputs: 16,
        dffs: 32,
        seed: 0xBEEF,
        ..SynthConfig::default()
    })
    .expect("synthesizes")
}

/// Mixed-mode flow: LFSR random phase covers most faults, PODEM top-off
/// pushes coverage to the ATPG ceiling — the Table I generation recipe.
#[test]
fn mixed_mode_flow_reaches_atpg_ceiling() {
    let c = cut();
    let chains = ScanChains::balanced(&c, 8).expect("at least one chain");

    // Random phase.
    let mut universe = FaultUniverse::collapsed(&c);
    let mut sim = FaultSim::new(&c);
    let mut lfsr = Lfsr::new32(0xACE1);
    for _ in 0..16 {
        let block = eea_bist::lfsr_pattern_block(&c, &chains, &mut lfsr, 64);
        sim.detect_block(&block, &mut universe);
    }
    let random_cov = universe.coverage();
    assert!(random_cov > 0.5, "random coverage = {random_cov}");

    // Deterministic top-off.
    let run = eea_atpg::generate_tests_for(&c, &mut universe, &AtpgConfig::default());
    let final_cov = universe.coverage();
    assert!(final_cov > random_cov, "top-off must add coverage");
    assert!(final_cov > 0.85, "final coverage = {final_cov}");
    assert!(!run.cubes.is_empty());

    // Compare against a from-scratch ATPG ceiling.
    let scratch = generate_tests(&c, &AtpgConfig::default());
    assert!(
        (final_cov - scratch.coverage()).abs() < 0.05,
        "mixed-mode ({final_cov}) should land near the scratch ATPG ceiling ({})",
        scratch.coverage()
    );
}

/// The STUMPS session detects injected faults through signature
/// mismatches, and the failing window localises the first detection.
#[test]
fn stumps_session_localises_faults() {
    let c = cut();
    let chains = ScanChains::balanced(&c, 8).expect("at least one chain");
    let session = StumpsSession::new(&c, &chains, 0x1234, 16);
    let golden = session.run_golden(256);
    assert_eq!(golden.signatures.len(), 16);

    // Find the first block-detectable faults and verify fail data.
    let universe = FaultUniverse::collapsed(&c);
    let mut sim = FaultSim::new(&c);
    let mut lfsr = Lfsr::new32(0x1234);
    let block = eea_bist::lfsr_pattern_block(&c, &chains, &mut lfsr, 64);
    sim.run_good(&block);
    let mut checked = 0;
    for fi in 0..universe.num_faults() {
        let fault = universe.fault(fi);
        let mask = sim.detect_mask(fault, &block, false);
        if mask.is_zero() {
            continue;
        }
        let fail = session.run_with_fault(fault, &golden);
        assert!(
            !fail.is_pass(),
            "{fault} detected in block but session passed"
        );
        // First failing window is consistent with the first detecting
        // pattern (window size 16).
        let first_pattern = mask.trailing_zeros() as u64;
        let expected_window = first_pattern / 16;
        assert!(
            u64::from(fail.entries()[0].window) <= expected_window,
            "{fault}: window {} later than expected {}",
            fail.entries()[0].window,
            expected_window
        );
        checked += 1;
        if checked >= 25 {
            break;
        }
    }
    assert!(checked >= 10, "too few detectable faults exercised");
}

/// Profile generation reproduces the Table I *trends* on an open circuit:
/// runtime grows with pattern count, deterministic data shrinks, coverage
/// targets order the rows.
#[test]
fn profile_generation_matches_table1_trends() {
    let c = cut();
    let cfg = ProfileConfig {
        prp_counts: vec![128, 512, 2048],
        targets: vec![CoverageTarget::Max, CoverageTarget::OfMax(0.95)],
        num_chains: 8,
        ..ProfileConfig::default()
    };
    let profiles = generate_profiles(&c, &cfg).expect("profiles generate");
    assert_eq!(profiles.len(), 6);

    // Same trends as the published table.
    let published = paper_table1();
    // (a) runtime increases with PRPs within a coverage class.
    assert!(profiles[2].runtime_ms > profiles[0].runtime_ms);
    assert!(published[4].runtime_ms > published[0].runtime_ms);
    // (b) the low-coverage target needs less stored data than max.
    for pair in profiles.chunks(2) {
        assert!(pair[0].data_bytes >= pair[1].data_bytes);
        assert!(pair[0].coverage >= pair[1].coverage - 1e-9);
    }
    // (c) more PRPs => fewer deterministic patterns for the same target.
    assert!(
        profiles[4].deterministic_patterns <= profiles[0].deterministic_patterns,
        "{} vs {}",
        profiles[4].deterministic_patterns,
        profiles[0].deterministic_patterns
    );
}

/// Scan-chain and pattern bookkeeping stay consistent through the stack:
/// the chain placement maps every scan cell to exactly one (chain, slot).
#[test]
fn scan_placement_is_bijective() {
    let c = cut();
    for chains_n in [1, 4, 7, 32] {
        let chains = ScanChains::balanced(&c, chains_n).expect("at least one chain");
        let mut seen = vec![false; c.num_dffs()];
        for ci in 0..chains.num_chains() {
            for (pos, &ff) in chains.chain(ci).iter().enumerate() {
                let idx = c
                    .dffs()
                    .iter()
                    .position(|&d| d == ff)
                    .expect("chain cell is a dff");
                assert!(!seen[idx], "cell appears twice");
                seen[idx] = true;
                assert_eq!(chains.placement(idx), (ci, pos));
            }
        }
        assert!(seen.iter().all(|&s| s), "every dff placed");
    }
}

/// The classic benchmark circuits parse and run through the whole pipeline.
#[test]
fn iscas_circuits_run_through_pipeline() {
    for src in [bench_format::C17, bench_format::S27] {
        let c = bench_format::parse(src).expect("parses");
        let run = generate_tests(&c, &AtpgConfig::default());
        assert!(run.coverage() > 0.95, "coverage = {}", run.coverage());
        let chains = ScanChains::balanced(&c, 2).expect("at least one chain");
        let session = StumpsSession::new(&c, &chains, 0xF00D, 8);
        let golden = session.run_golden(64);
        assert_eq!(golden.signatures.len(), 8);
        // A fault-free re-run yields identical signatures.
        assert_eq!(session.run_golden(64), golden);
    }
}

/// Random patterns never detect a fault PODEM proved untestable
/// (cross-validation of ATPG redundancy proofs against the simulator).
#[test]
fn untestable_faults_never_detected_by_random_patterns() {
    let c = synthesize(&SynthConfig {
        gates: 150,
        inputs: 10,
        dffs: 8,
        seed: 0x5EED,
        ..SynthConfig::default()
    })
    .expect("synthesizes");
    let mut podem = eea_atpg::Podem::new(&c, 50_000);
    let universe = FaultUniverse::collapsed(&c);
    let untestable: Vec<_> = (0..universe.num_faults())
        .filter(|&fi| {
            matches!(
                podem.run(universe.fault(fi)),
                eea_atpg::AtpgOutcome::Untestable
            )
        })
        .collect();
    let mut sim = FaultSim::new(&c);
    let mut rng = 0x0DDB_1A5E_0DDB_1A5Eu64;
    for _ in 0..64 {
        let mut block = PatternBlock::zeroed(&c, PatternBlock::CAPACITY);
        block.fill_words(|| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        });
        sim.run_good(&block);
        for &fi in &untestable {
            assert!(
                sim.detect_mask(universe.fault(fi), &block, true).is_zero(),
                "untestable fault {} detected!",
                universe.fault(fi)
            );
        }
    }
}
