//! The published Table I dataset and the paper CUT's characteristics.
//!
//! The paper characterises 36 BIST profiles on an Infineon automotive
//! microprocessor. The netlist is proprietary, but the published profile
//! attributes are data; embedding them lets the case study (Figs. 5 and 6)
//! run against the *exact* inputs the paper used, while
//! [`generate_profiles`](crate::generate_profiles) regenerates the same
//! shape from scratch on open circuits.

use crate::profile::{BistProfile, PaperCutSpec};

/// The paper CUT: 371,900 collapsed faults, 100 scan chains with maximum
/// length 77, 40 MHz test frequency (Section IV-A).
pub const PAPER_CUT: PaperCutSpec = PaperCutSpec {
    collapsed_faults: 371_900,
    scan_chains: 100,
    max_chain_length: 77,
    test_frequency_hz: 40_000_000,
};

/// Rows of Table I: (number of PRPs, coverage %, runtime ms, data bytes).
const TABLE1: [(u64, f64, f64, u64); 36] = [
    (500, 99.83, 4.87, 2_399_185),
    (500, 99.84, 4.87, 2_401_554),
    (500, 98.17, 2.81, 994_156),
    (500, 95.73, 1.71, 455_061),
    (1_000, 99.84, 5.79, 2_370_883),
    (1_000, 99.84, 5.74, 2_340_080),
    (1_000, 98.15, 3.66, 918_895),
    (1_000, 96.13, 2.67, 455_193),
    (5_000, 99.87, 13.37, 2_300_488),
    (5_000, 99.87, 13.31, 2_263_762),
    (5_000, 98.21, 11.23, 772_886),
    (5_000, 95.61, 10.25, 311_258),
    (10_000, 99.87, 22.93, 2_261_705),
    (10_000, 99.87, 22.85, 2_210_762),
    (10_000, 98.06, 20.61, 834_119),
    (10_000, 95.97, 19.75, 304_549),
    (20_000, 99.88, 42.11, 2_216_126),
    (20_000, 99.88, 42.05, 2_180_585),
    (20_000, 97.62, 39.74, 757_737),
    (20_000, 95.16, 38.88, 229_353),
    (50_000, 99.87, 99.59, 2_054_510),
    (50_000, 99.87, 99.53, 2_018_968),
    (50_000, 97.93, 97.24, 610_337),
    (50_000, 96.11, 96.63, 231_227),
    (100_000, 99.87, 195.84, 2_054_081),
    (100_000, 99.87, 195.74, 1_994_845),
    (100_000, 98.10, 193.49, 611_093),
    (100_000, 95.36, 192.76, 158_531),
    (200_000, 99.89, 388.06, 1_888_552),
    (200_000, 99.89, 387.99, 1_843_533),
    (200_000, 98.13, 385.87, 540_342),
    (200_000, 95.99, 385.26, 162_417),
    (500_000, 99.89, 965.35, 1_767_609),
    (500_000, 99.89, 965.31, 1_741_544),
    (500_000, 98.28, 963.25, 475_080),
    (500_000, 96.69, 962.76, 171_792),
];

/// The 36 BIST profiles of Table I, in publication order (profile numbers
/// 1..=36).
pub fn paper_table1() -> Vec<BistProfile> {
    TABLE1
        .iter()
        .enumerate()
        .map(|(i, &(prps, cov_pct, runtime_ms, bytes))| BistProfile {
            id: (i + 1) as u32,
            random_patterns: prps,
            deterministic_patterns: 0, // not published per-profile
            coverage: cov_pct / 100.0,
            runtime_ms,
            data_bytes: bytes,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_36_profiles() {
        let p = paper_table1();
        assert_eq!(p.len(), 36);
        assert_eq!(p[0].id, 1);
        assert_eq!(p[35].id, 36);
    }

    #[test]
    fn spot_check_rows() {
        let p = paper_table1();
        // Profile 4: 500 PRPs, 95.73 %, 1.71 ms, 455,061 bytes.
        assert_eq!(p[3].random_patterns, 500);
        assert!((p[3].coverage - 0.9573).abs() < 1e-9);
        assert!((p[3].runtime_ms - 1.71).abs() < 1e-9);
        assert_eq!(p[3].data_bytes, 455_061);
        // Profile 33: 500,000 PRPs, 99.89 %, 965.35 ms.
        assert_eq!(p[32].random_patterns, 500_000);
        assert!((p[32].runtime_ms - 965.35).abs() < 1e-9);
    }

    #[test]
    fn runtime_grows_with_prps_within_coverage_class() {
        // Within the "max coverage" class (rows 1, 5, 9, ... of each PRP
        // group) runtime must increase with the pattern count.
        let p = paper_table1();
        let max_class: Vec<&BistProfile> = p.iter().step_by(4).collect();
        for w in max_class.windows(2) {
            assert!(w[1].runtime_ms > w[0].runtime_ms);
        }
    }

    #[test]
    fn data_shrinks_with_more_prps_for_lowest_class() {
        let p = paper_table1();
        // 95 % class, 500 vs 500,000 PRPs.
        assert!(p[35].data_bytes < p[3].data_bytes);
    }

    #[test]
    fn cut_spec() {
        assert_eq!(PAPER_CUT.collapsed_faults, 371_900);
        assert_eq!(PAPER_CUT.scan_chains, 100);
    }
}
