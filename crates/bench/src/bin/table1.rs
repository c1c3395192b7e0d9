//! Regenerates **Table I**: BIST profiles (pseudo-random pattern count,
//! fault coverage, runtime, encoded data size) on an open synthetic CUT,
//! printed next to the published dataset.
//!
//! ```text
//! cargo run -p eea-bench --bin table1 --release
//! EEA_CUT_GATES=4000 EEA_PRP_MAX=65536 cargo run -p eea-bench --bin table1 --release
//! ```

use eea_bench::env_usize;
use eea_bist::{generate_profiles, paper_table1, CoverageTarget, ProfileConfig};
use eea_dse::EeaError;
use eea_netlist::{synthesize, SynthConfig};

fn main() -> Result<(), EeaError> {
    let gates = env_usize("EEA_CUT_GATES", 1_500);
    let prp_max = env_usize("EEA_PRP_MAX", 16_384) as u64;

    let cut = synthesize(&SynthConfig {
        gates,
        inputs: 32,
        dffs: 128,
        seed: 0xC07,
        ..SynthConfig::default()
    })?;
    println!(
        "substitute CUT: {} (paper: 371,900 collapsed faults, 100 chains x <=77, 40 MHz)",
        cut.stats()
    );

    let mut prp_counts = vec![256u64, 512, 1_024, 4_096];
    let mut next = 16_384u64;
    while next <= prp_max {
        prp_counts.push(next);
        next *= 4;
    }
    let cfg = ProfileConfig {
        prp_counts,
        targets: vec![
            CoverageTarget::Max,
            CoverageTarget::Max,
            CoverageTarget::OfMax(0.98),
            CoverageTarget::OfMax(0.95),
        ],
        num_chains: 32,
        ..ProfileConfig::default()
    };
    let t = std::time::Instant::now();
    let measured = generate_profiles(&cut, &cfg)?;
    let elapsed = t.elapsed();

    println!("\n== Table I (measured on the open CUT) ==");
    println!(
        "{:>3} {:>8} {:>6} {:>9} {:>11} {:>12}",
        "#", "PRPs", "det.", "cov [%]", "l(b) [ms]", "s(b) [B]"
    );
    for p in &measured {
        println!(
            "{:>3} {:>8} {:>6} {:>9.2} {:>11.2} {:>12}",
            p.id,
            p.random_patterns,
            p.deterministic_patterns,
            p.coverage * 100.0,
            p.runtime_ms,
            p.data_bytes
        );
    }
    println!("generated in {elapsed:.1?}");

    println!("\n== Table I (published dataset) ==");
    println!(
        "{:>3} {:>8} {:>9} {:>11} {:>12}",
        "#", "PRPs", "cov [%]", "l(b) [ms]", "s(b) [B]"
    );
    for p in paper_table1() {
        println!(
            "{:>3} {:>8} {:>9.2} {:>11.2} {:>12}",
            p.id,
            p.random_patterns,
            p.coverage * 100.0,
            p.runtime_ms,
            p.data_bytes
        );
    }

    // Shape checks mirroring the published trends.
    println!("\n== trend checks (measured vs published) ==");
    let groups = measured.chunks(cfg.targets.len()).collect::<Vec<_>>();
    let runtime_monotone = groups
        .windows(2)
        .all(|w| w[1][0].runtime_ms > w[0][0].runtime_ms);
    let data_shrinks = groups.first().zip(groups.last()).is_some_and(|(a, b)| {
        b[cfg.targets.len() - 1].data_bytes <= a[cfg.targets.len() - 1].data_bytes
    });
    // Rows 1 and 2 of each group are two max-coverage variants (like the
    // paper's 99.83 %/99.84 % pairs); ordering is checked from the best
    // max row downward.
    let coverage_ordered = groups.iter().all(|g| {
        let max_cov = g[0].coverage.max(g[1].coverage);
        max_cov >= g[2].coverage - 1e-9 && g[2].coverage >= g[3].coverage - 1e-9
    });
    println!("runtime grows with PRPs (paper: 4.87 ms -> 965 ms): {runtime_monotone}");
    println!("deterministic data shrinks with PRPs (paper: 455 kB -> 172 kB @95%): {data_shrinks}");
    println!("coverage targets order rows within a group: {coverage_ordered}");
    Ok(())
}
