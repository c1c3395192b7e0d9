//! Regenerates a Table I-style BIST profile table from scratch on an open
//! synthetic CUT: LFSR pseudo-random patterns graded by fault simulation,
//! PODEM deterministic top-off, and the runtime/data-size models.
//!
//! Run with:
//!
//! ```text
//! cargo run -p eea-dse --example bist_profiles --release
//! EEA_CUT_GATES=5000 cargo run -p eea-dse --example bist_profiles --release
//! ```

use eea_bist::{generate_profiles, paper_table1, CoverageTarget, ProfileConfig};
use eea_netlist::{synthesize, SynthConfig};

fn main() {
    let gates: usize = std::env::var("EEA_CUT_GATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_500);

    // The open substitute for the paper's Infineon CUT (371,900 collapsed
    // faults, 100 chains x <=77 cells, 40 MHz): a synthetic scan circuit,
    // dimensioned for laptop-scale experiments.
    let cut = synthesize(&SynthConfig {
        gates,
        inputs: 32,
        dffs: 128,
        seed: 0xC07,
        ..SynthConfig::default()
    })
    .expect("valid synth config");
    println!("CUT: {}", cut.stats());

    let cfg = ProfileConfig {
        prp_counts: vec![256, 512, 1_024, 4_096, 16_384],
        targets: vec![
            CoverageTarget::Max,
            CoverageTarget::Max,
            CoverageTarget::OfMax(0.98),
            CoverageTarget::OfMax(0.95),
        ],
        num_chains: 32,
        ..ProfileConfig::default()
    };
    println!(
        "generating {} profiles ({} PRP counts x {} coverage targets)...\n",
        cfg.prp_counts.len() * cfg.targets.len(),
        cfg.prp_counts.len(),
        cfg.targets.len()
    );
    let profiles = generate_profiles(&cut, &cfg).expect("profiles generate");

    println!(
        "{:>3} {:>8} {:>6} {:>9} {:>11} {:>12}",
        "#", "PRPs", "det.", "cov [%]", "l(b) [ms]", "s(b) [B]"
    );
    for p in &profiles {
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

    println!("\n== The published Table I (paper dataset, for comparison) ==");
    println!(
        "{:>3} {:>8} {:>9} {:>11} {:>12}",
        "#", "PRPs", "cov [%]", "l(b) [ms]", "s(b) [B]"
    );
    for p in paper_table1().iter().take(8) {
        println!(
            "{:>3} {:>8} {:>9.2} {:>11.2} {:>12}",
            p.id,
            p.random_patterns,
            p.coverage * 100.0,
            p.runtime_ms,
            p.data_bytes
        );
    }
    println!("... (36 rows total; see `cargo run -p eea-bench --bin table1`)");
}
