//! Ablation: which optimiser drives the SAT decoder?
//!
//! Compares NSGA-II (the default), SPEA2 and pure random search at equal
//! evaluation budgets on the full case study, scored by the hypervolume of
//! the resulting Pareto-front approximation ([`normalized_hypervolume`]:
//! the bounds of `BENCH_dse.json` and the `pipeline_bench` quality metric).
//!
//! ```text
//! cargo run -p eea-bench --bin ablation_moea --release
//! EEA_EVALS=10000 cargo run -p eea-bench --bin ablation_moea --release
//! ```

use std::error::Error;

use eea_bench::{env_u64, env_usize, normalized_hypervolume, paper_diag_spec};
use eea_dse::DseProblem;
use eea_moea::{run, run_spea2, Nsga2Config, ParetoArchive, Problem, Rng};

/// The hypervolume of an archive's minimised objective vectors.
fn archive_hypervolume<T>(archive: &ParetoArchive<T>) -> Result<f64, String> {
    let front: Vec<Vec<f64>> = archive
        .entries()
        .iter()
        .map(|e| e.objectives.clone())
        .collect();
    normalized_hypervolume(&front)
}

fn main() -> Result<(), Box<dyn Error>> {
    let evaluations = env_usize("EEA_EVALS", 3_000);
    let seed = env_u64("EEA_SEED", 2014);
    let (_case, diag) = paper_diag_spec()?;

    let cfg = Nsga2Config {
        population: 60.min(evaluations.max(2)),
        evaluations,
        seed,
        ..Nsga2Config::default()
    };

    // NSGA-II.
    let mut problem = DseProblem::new(&diag);
    let mut cfg_n = cfg.clone();
    cfg_n.seeds = problem.corner_genotypes();
    let t = std::time::Instant::now();
    let nsga = run(&mut problem, &cfg_n, |_, _| {});
    let nsga_time = t.elapsed();
    let nsga_hv = archive_hypervolume(&nsga.archive)?;

    // SPEA2.
    let mut problem = DseProblem::new(&diag);
    let mut cfg_s = cfg.clone();
    cfg_s.seeds = problem.corner_genotypes();
    let t = std::time::Instant::now();
    let spea = run_spea2(&mut problem, &cfg_s, |_, _| {});
    let spea_time = t.elapsed();
    let spea_hv = archive_hypervolume(&spea.archive)?;

    // Random search (same decoder, uniform genotypes, no evolution).
    let mut problem = DseProblem::new(&diag);
    let n = problem.genotype_len();
    let mut rng = Rng::new(seed);
    let mut random_archive: ParetoArchive<()> = ParetoArchive::new();
    let t = std::time::Instant::now();
    for _ in 0..evaluations {
        let genotype: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
        if let Some(obj) = problem.evaluate(&genotype) {
            random_archive.offer(obj, ());
        }
    }
    let random_time = t.elapsed();
    let random_hv = archive_hypervolume(&random_archive)?;

    println!("optimizer ablation at {evaluations} evaluations (seed {seed}):\n");
    println!(
        "{:>14} {:>10} {:>14} {:>10}",
        "optimizer", "|front|", "hypervolume", "time"
    );
    for (name, size, hv, time) in [
        ("NSGA-II", nsga.archive.len(), nsga_hv, nsga_time),
        ("SPEA2", spea.archive.len(), spea_hv, spea_time),
        ("random", random_archive.len(), random_hv, random_time),
    ] {
        println!("{name:>14} {size:>10} {hv:>14.4} {time:>10.1?}");
    }
    println!(
        "\nevolutionary search vs random: {:+.1} % (NSGA-II), {:+.1} % (SPEA2) hypervolume",
        (nsga_hv / random_hv - 1.0) * 100.0,
        (spea_hv / random_hv - 1.0) * 100.0
    );
    Ok(())
}
