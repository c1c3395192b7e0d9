//! Sensitivity analysis: how the Fig. 5 front reacts to the memory-cost
//! assumptions.
//!
//! The paper's headline ("80.7 % quality at < +3.7 % cost") hinges on
//! gateway memory being cheap relative to ECU hardware. This experiment
//! sweeps the ECU-to-gateway memory-cost ratio and the absolute memory
//! price, reporting the best in-budget quality and the storage mix of the
//! cheapest high-quality design for each setting.
//!
//! ```text
//! cargo run -p eea-bench --bin sensitivity --release
//! EEA_EVALS=5000 cargo run -p eea-bench --bin sensitivity --release
//! ```

use eea_bench::{env_u64, env_usize};
use eea_bist::paper_table1;
use eea_dse::explore::baseline_cost;
use eea_dse::{augment, explore, headline_with_budget, DseConfig, EeaError};
use eea_model::{build_case_study, CaseStudyConfig};
use eea_moea::Nsga2Config;

fn main() -> Result<(), EeaError> {
    let evaluations = env_usize("EEA_EVALS", 2_000);
    let seed = env_u64("EEA_SEED", 2014);

    println!("memory-cost sensitivity at {evaluations} evaluations per point (seed {seed}):\n");
    println!(
        "{:>12} {:>10} {:>16} {:>12} {:>14} {:>14}",
        "ecu [/B]", "ratio", "quality@+3.7%", "extra [%]", "gw bytes", "local bytes"
    );

    // Sweep: absolute ECU memory price x ECU/gateway ratio.
    for &ecu_cost in &[4e-7, 4e-6, 4e-5] {
        for &ratio in &[1.0, 10.0, 100.0] {
            let cfg_case = CaseStudyConfig {
                ecu_memory_cost_per_byte: ecu_cost,
                gateway_memory_cost_per_byte: ecu_cost / ratio,
                ..CaseStudyConfig::default()
            };
            let case = build_case_study(&cfg_case);
            let diag = augment(&case, &paper_table1())?;
            let cfg = DseConfig {
                nsga2: Nsga2Config {
                    population: 60.min(evaluations.max(2)),
                    evaluations,
                    seed,
                    ..Nsga2Config::default()
                },
                threads: 0,
                ..DseConfig::default()
            };
            let res = explore(&diag, &cfg, |_, _| {});
            let base = baseline_cost(&case, 800, seed ^ 1, 0)?;
            // Storage mix of the best in-budget design (present whenever
            // the headline is).
            let budget = base * 1.037;
            let best_in_budget = res
                .front
                .iter()
                .filter(|e| e.objectives.cost <= budget)
                .max_by(|a, b| {
                    a.objectives
                        .test_quality
                        .total_cmp(&b.objectives.test_quality)
                });
            match (
                headline_with_budget(&res.front, Some(base), 1.037),
                best_in_budget,
            ) {
                (Some(hl), Some(best)) => {
                    println!(
                        "{:>12.0e} {:>10.0} {:>15.1}% {:>12.2} {:>14} {:>14}",
                        ecu_cost,
                        ratio,
                        hl.best_quality_pct_in_budget,
                        hl.extra_cost_pct,
                        best.memory.gateway_bytes,
                        best.memory.distributed_bytes
                    );
                }
                _ => println!(
                    "{:>12.0e} {:>10.0} {:>16} {:>12} {:>14} {:>14}",
                    ecu_cost, ratio, "none fits", "-", "-", "-"
                ),
            }
        }
    }
    println!(
        "\nreading: as memory gets expensive (rows downward) or the gateway discount\n\
         disappears (ratio 1), high coverage stops being nearly free — the paper's\n\
         headline lives in the cheap-shared-memory regime."
    );
    Ok(())
}
