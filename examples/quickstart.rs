//! Quickstart: explore diagnosis tradeoffs on the paper's case study.
//!
//! Builds the industrial case study (45 tasks, 41 messages, 15 ECUs, 3 CAN
//! buses), augments it with a handful of Table I BIST profiles, runs a
//! short design space exploration, and prints the resulting Pareto front.
//!
//! Run with:
//!
//! ```text
//! cargo run -p eea-dse --example quickstart --release
//! ```

use eea_bist::paper_table1;
use eea_dse::{augment, explore, fig5_ascii, fig5_points, DseConfig};
use eea_model::paper_case_study;

fn main() {
    // 1. The functional E/E-architecture specification.
    let case = paper_case_study();
    println!("case study: {}", case.spec.application);
    println!("            {}", case.spec.architecture);

    // 2. Augment with BIST profiles (4 of the 36 published ones keep this
    //    quickstart snappy; the `dse_campaign` bench explores the full set).
    let profiles = paper_table1();
    let diag = augment(&case, &profiles[..4]).expect("gateway present");
    println!(
        "augmented:  {} BIST options on {} ECUs",
        diag.options.len(),
        diag.bist_ecus().len()
    );

    // 3. Explore. The genotype is decoded by the SAT solver into feasible
    //    implementations; NSGA-II drives cost / test quality / shut-off.
    let mut cfg = DseConfig::default();
    cfg.nsga2.population = 40;
    cfg.nsga2.evaluations = 2_000;
    cfg.nsga2.seed = 1;
    let result = explore(&diag, &cfg, |evals, archive| {
        if evals % 500 == 0 {
            eprintln!("  {evals} evaluations, archive holds {archive} non-dominated designs");
        }
    });

    // 4. Report.
    println!(
        "\nexplored {} implementations in {:.1} s ({:.0} evals/s)",
        result.evaluations,
        result.duration_s,
        result.evals_per_second()
    );
    println!("Pareto front: {} implementations\n", result.front.len());
    println!(
        "{:>10} {:>12} {:>14} {:>10} {:>12}",
        "cost", "quality [%]", "shut-off [s]", "gw [kB]", "local [kB]"
    );
    for e in result.front.iter().take(20) {
        println!(
            "{:>10.1} {:>12.2} {:>14.3} {:>10} {:>12}",
            e.objectives.cost,
            e.objectives.test_quality * 100.0,
            e.objectives.shutoff_s,
            e.memory.gateway_bytes / 1024,
            e.memory.distributed_bytes / 1024
        );
    }
    if result.front.len() > 20 {
        println!("... and {} more", result.front.len() - 20);
    }

    println!("\n{}", fig5_ascii(&fig5_points(&result.front), 72, 18));
}
