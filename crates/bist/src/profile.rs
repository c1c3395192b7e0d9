//! Mixed-mode BIST profile generation — the Table I generator.
//!
//! A *profile* fixes the number of pseudo-random patterns (PRPs) and a
//! coverage target; deterministic ATPG top-off patterns close the gap
//! between the random coverage and the target. Each profile is
//! characterised exactly like Table I of the paper:
//!
//! * fault coverage `c(b)`,
//! * session runtime `l(b)` (shift time of all patterns plus the state
//!   restore after test),
//! * encoded data size `s(b)` (compressed deterministic test data plus the
//!   expected intermediate response signatures).
//!
//! The trends of Table I emerge naturally: more PRPs cover more
//! random-testable faults, so fewer deterministic patterns are needed and
//! the stored data shrinks, while the session runtime grows linearly with
//! the pattern count.

use std::error::Error;
use std::fmt;

use eea_atpg::{generate_tests_for, AtpgConfig};
use eea_faultsim::{resolve_threads, FaultUniverse, ParFaultSim, PatternBlock};
use eea_netlist::{Circuit, ScanChains, ScanError};

use crate::lfsr::Lfsr;
use crate::stumps::lfsr_pattern_block;

/// Error from [`generate_profiles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// `prp_counts` is empty — no profile group to generate.
    NoPrpCounts,
    /// `targets` is empty — no profile per group to generate.
    NoTargets,
    /// Scan-chain insertion failed (e.g. zero chains configured).
    Scan(ScanError),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::NoPrpCounts => write!(f, "need at least one PRP count"),
            ProfileError::NoTargets => write!(f, "need at least one coverage target"),
            ProfileError::Scan(e) => write!(f, "scan insertion: {e}"),
        }
    }
}

impl Error for ProfileError {}

impl From<ScanError> for ProfileError {
    fn from(e: ScanError) -> Self {
        ProfileError::Scan(e)
    }
}

/// One mixed-mode BIST profile, the unit of selection in the paper's design
/// space exploration (at most one profile per ECU).
#[derive(Debug, Clone, PartialEq)]
pub struct BistProfile {
    /// Profile number (1-based, publication order).
    pub id: u32,
    /// Number of pseudo-random patterns.
    pub random_patterns: u64,
    /// Number of deterministic top-off patterns (0 when unknown, e.g. for
    /// the embedded paper dataset).
    pub deterministic_patterns: u64,
    /// Achieved stuck-at fault coverage `c(b)` in `[0, 1]`.
    pub coverage: f64,
    /// Session runtime `l(b)` in milliseconds.
    pub runtime_ms: f64,
    /// Encoded deterministic test data + response data `s(b)` in bytes.
    pub data_bytes: u64,
}

/// Published characteristics of the paper's CUT (see
/// [`PAPER_CUT`](crate::PAPER_CUT)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperCutSpec {
    /// Collapsed stuck-at faults.
    pub collapsed_faults: u64,
    /// Parallel scan chains.
    pub scan_chains: u32,
    /// Longest chain (shift cycles per pattern minus capture).
    pub max_chain_length: u32,
    /// Scan shift frequency in Hz.
    pub test_frequency_hz: u64,
}

/// Coverage target of one profile row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoverageTarget {
    /// Run ATPG to completion — maximum achievable coverage.
    Max,
    /// Stop at `fraction` of the maximum achievable coverage (the open
    /// analog of the paper's absolute 98 %/95 % targets; relative targets
    /// keep the rows distinct regardless of the substrate circuit's
    /// redundancy level).
    OfMax(f64),
}

/// Configuration for [`generate_profiles`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileConfig {
    /// Pseudo-random pattern counts, one group of profiles per count.
    pub prp_counts: Vec<u64>,
    /// Coverage targets per group; each target yields one profile. Two
    /// `Max` entries (as in the paper's rows 1-2 of each group) are
    /// differentiated by distinct ATPG fill seeds.
    pub targets: Vec<CoverageTarget>,
    /// Number of scan chains.
    pub num_chains: usize,
    /// Scan shift frequency in Hz.
    pub shift_frequency_hz: u64,
    /// Number of intermediate-signature windows per session. Following the
    /// strong-windows diagnosis architecture (\[9\] in the paper), the
    /// *count* of stored signatures is fixed and the window spacing scales
    /// with the session length, so the response data does not grow with
    /// the pattern count.
    pub signature_windows: u64,
    /// Bytes per stored intermediate signature.
    pub signature_bytes: u64,
    /// State-restore time after the session, in milliseconds.
    pub restore_ms: f64,
    /// LFSR seed of the TPG.
    pub lfsr_seed: u64,
    /// ATPG settings for the top-off phase.
    pub atpg: AtpgConfig,
    /// Encoded bits per specified care bit (test-data compression model;
    /// > 1 accounts for control overhead of the on-chip decompressor).
    pub bits_per_care_bit: f64,
    /// Fixed per-pattern header bytes in the encoded stream.
    pub pattern_header_bytes: u64,
    /// Worker threads for the fault-simulation phase. `0` means one per
    /// available CPU; the `EEA_THREADS` environment variable overrides
    /// either setting. Profiles are bit-identical at any thread count.
    pub threads: usize,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            prp_counts: vec![500, 1_000, 5_000, 10_000, 20_000],
            targets: vec![
                CoverageTarget::Max,
                CoverageTarget::Max,
                CoverageTarget::OfMax(0.98),
                CoverageTarget::OfMax(0.95),
            ],
            num_chains: 100,
            shift_frequency_hz: 40_000_000,
            signature_windows: 64,
            signature_bytes: 8,
            restore_ms: 0.5,
            lfsr_seed: 0xACE1,
            atpg: AtpgConfig::default(),
            bits_per_care_bit: 1.25,
            pattern_header_bytes: 4,
            threads: 0,
        }
    }
}

/// Generates mixed-mode BIST profiles for `circuit` per `cfg`, in Table I
/// layout: for each PRP count, one profile per coverage target.
///
/// Deterministic: equal inputs produce identical profiles.
///
/// # Errors
///
/// Returns [`ProfileError`] if `cfg.prp_counts` or `cfg.targets` is empty,
/// or if `cfg.num_chains` is zero.
pub fn generate_profiles(
    circuit: &Circuit,
    cfg: &ProfileConfig,
) -> Result<Vec<BistProfile>, ProfileError> {
    if cfg.prp_counts.is_empty() {
        return Err(ProfileError::NoPrpCounts);
    }
    if cfg.targets.is_empty() {
        return Err(ProfileError::NoTargets);
    }
    let chains = ScanChains::balanced(circuit, cfg.num_chains)?;
    let mut counts = cfg.prp_counts.clone();
    counts.sort_unstable();
    counts.dedup();

    // Phase 1: simulate the shared LFSR stream once, snapshotting the
    // detection state at every requested PRP count. Worklist-parallel, with
    // results bit-identical to serial at any thread count.
    let mut universe = FaultUniverse::collapsed(circuit);
    let mut sim = ParFaultSim::new(circuit, resolve_threads(cfg.threads));
    let mut lfsr = Lfsr::new32(cfg.lfsr_seed);
    let mut snapshots: Vec<(u64, FaultUniverse)> = Vec::with_capacity(counts.len());
    let mut done = 0u64;
    for &target in &counts {
        while done < target {
            let count = ((target - done).min(PatternBlock::CAPACITY as u64)) as usize;
            let block = lfsr_pattern_block(circuit, &chains, &mut lfsr, count);
            sim.detect_block(&block, &mut universe);
            done += count as u64;
        }
        snapshots.push((target, universe.clone()));
    }

    // Phase 2: per snapshot and target, run the deterministic top-off.
    let mut profiles = Vec::with_capacity(counts.len() * cfg.targets.len());
    let mut id = 1u32;
    for (prps, snapshot) in &snapshots {
        // The maximum achievable coverage for this PRP count (full ATPG).
        let mut max_universe = snapshot.clone();
        let max_run = generate_tests_for(
            circuit,
            &mut max_universe,
            &AtpgConfig {
                stop_at_coverage: None,
                ..cfg.atpg.clone()
            },
        );
        let max_coverage = max_universe.coverage();

        for (ti, target) in cfg.targets.iter().enumerate() {
            let (run, coverage) = match target {
                CoverageTarget::Max => {
                    if ti == 0 {
                        (max_run.clone(), max_coverage)
                    } else {
                        // A second Max row: same target, different fill seed
                        // (mirrors the paper's two max-coverage variants per
                        // group, which differ slightly in data volume).
                        let mut u = snapshot.clone();
                        let run = generate_tests_for(
                            circuit,
                            &mut u,
                            &AtpgConfig {
                                fill_seed: cfg.atpg.fill_seed ^ (0x5EED << ti),
                                stop_at_coverage: None,
                                ..cfg.atpg.clone()
                            },
                        );
                        let cov = u.coverage();
                        (run, cov)
                    }
                }
                CoverageTarget::OfMax(f) => {
                    let mut u = snapshot.clone();
                    let run = generate_tests_for(
                        circuit,
                        &mut u,
                        &AtpgConfig {
                            stop_at_coverage: Some(f * max_coverage),
                            ..cfg.atpg.clone()
                        },
                    );
                    let cov = u.coverage();
                    (run, cov)
                }
            };
            let det = run.cubes.len() as u64;
            let total_patterns = prps + det;
            let shift_s = chains.test_time_s(total_patterns, cfg.shift_frequency_hz);
            let runtime_ms = shift_s * 1e3 + cfg.restore_ms;
            let det_bytes = ((run.specified_care_bits as f64 * cfg.bits_per_care_bit / 8.0).ceil()
                as u64)
                + det * cfg.pattern_header_bytes;
            let response_bytes =
                cfg.signature_windows.min(total_patterns.max(1)) * cfg.signature_bytes;
            profiles.push(BistProfile {
                id,
                random_patterns: *prps,
                deterministic_patterns: det,
                coverage,
                runtime_ms,
                data_bytes: det_bytes + response_bytes,
            });
            id += 1;
        }
    }
    Ok(profiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eea_netlist::{synthesize, SynthConfig};

    fn small_cut() -> Circuit {
        synthesize(&SynthConfig {
            gates: 300,
            inputs: 16,
            dffs: 32,
            seed: 0xC07,
            ..SynthConfig::default()
        })
        .expect("synthesizes")
    }

    fn quick_cfg() -> ProfileConfig {
        ProfileConfig {
            prp_counts: vec![64, 256, 1024],
            targets: vec![
                CoverageTarget::Max,
                CoverageTarget::OfMax(0.98),
                CoverageTarget::OfMax(0.95),
            ],
            num_chains: 8,
            ..ProfileConfig::default()
        }
    }

    #[test]
    fn generates_expected_grid() {
        let c = small_cut();
        let profiles = generate_profiles(&c, &quick_cfg()).expect("valid config");
        assert_eq!(profiles.len(), 9);
        assert_eq!(profiles[0].id, 1);
        assert_eq!(profiles[8].id, 9);
        assert_eq!(profiles[0].random_patterns, 64);
        assert_eq!(profiles[8].random_patterns, 1024);
    }

    #[test]
    fn table1_trends_hold() {
        let c = small_cut();
        let profiles = generate_profiles(&c, &quick_cfg()).expect("valid config");
        // Within a group: Max coverage >= 98 % target >= 95 % target.
        for g in profiles.chunks(3) {
            assert!(g[0].coverage >= g[1].coverage - 1e-9);
            assert!(g[1].coverage >= g[2].coverage - 1e-9);
            // Lower targets need less data.
            assert!(g[0].data_bytes >= g[2].data_bytes);
            // Runtime dominated by PRPs, but Max has most top-off patterns.
            assert!(g[0].runtime_ms >= g[2].runtime_ms - 1e-9);
        }
        // Across groups at Max: more PRPs -> more runtime.
        assert!(profiles[3].runtime_ms > profiles[0].runtime_ms);
        assert!(profiles[6].runtime_ms > profiles[3].runtime_ms);
        // Across groups: deterministic data shrinks with more PRPs (more
        // faults covered randomly). Compare the 95 % rows.
        assert!(profiles[8].deterministic_patterns <= profiles[2].deterministic_patterns);
    }

    #[test]
    fn deterministic_generation() {
        let c = small_cut();
        let a = generate_profiles(&c, &quick_cfg()).expect("valid config");
        let b = generate_profiles(&c, &quick_cfg()).expect("valid config");
        assert_eq!(a, b);
    }

    #[test]
    fn runtime_model_matches_scan_math() {
        let c = small_cut();
        let cfg = quick_cfg();
        let profiles = generate_profiles(&c, &cfg).expect("valid config");
        let chains = ScanChains::balanced(&c, cfg.num_chains).expect("at least one chain");
        for p in &profiles {
            let expected = chains.test_time_s(
                p.random_patterns + p.deterministic_patterns,
                cfg.shift_frequency_hz,
            ) * 1e3
                + cfg.restore_ms;
            assert!((p.runtime_ms - expected).abs() < 1e-9);
        }
    }
}
