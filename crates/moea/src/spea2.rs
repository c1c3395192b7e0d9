//! SPEA2 (Strength Pareto Evolutionary Algorithm 2).
//!
//! A second multi-objective optimiser next to [`nsga2`](crate::run): the
//! paper's DSE framework (Opt4J) ships several MOEAs, and which one drives
//! the SAT decoder is a design choice worth ablating. SPEA2 differs from
//! NSGA-II in its fitness assignment (dominance *strength* plus a
//! k-nearest-neighbour density term) and in maintaining a fixed-size
//! environmental archive with distance-based truncation.

use crate::archive::ParetoArchive;
use crate::dominance::dominates;
use crate::nsga2::{polynomial_mutation, Individual, Nsga2Config, Problem};
use crate::rng::Rng;

/// Result of a SPEA2 run (same shape as the NSGA-II result).
#[derive(Debug, Clone)]
pub struct Spea2Result {
    /// The final environmental archive (the working population of SPEA2).
    pub population: Vec<Individual>,
    /// All-time Pareto archive over every evaluated individual.
    pub archive: ParetoArchive<Vec<f64>>,
    /// Number of evaluations performed.
    pub evaluations: usize,
    /// Number of infeasible decodes encountered.
    pub infeasible: usize,
}

/// SPEA2 fitness: raw dominance fitness plus density (smaller is better).
fn fitness(objectives: &[Vec<f64>]) -> Vec<f64> {
    let n = objectives.len();
    // Strength: how many solutions each individual dominates.
    let mut strength = vec![0u32; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && dominates(&objectives[i], &objectives[j]) {
                strength[i] += 1;
            }
        }
    }
    // Raw fitness: sum of strengths of dominators.
    let mut raw = vec![0.0f64; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && dominates(&objectives[j], &objectives[i]) {
                raw[i] += f64::from(strength[j]);
            }
        }
    }
    // Density: 1 / (distance to k-th nearest neighbour + 2), k = sqrt(n).
    let k = (n as f64).sqrt() as usize;
    let mut fit = vec![0.0f64; n];
    for i in 0..n {
        let mut dists: Vec<f64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| {
                objectives[i]
                    .iter()
                    .zip(&objectives[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        let kd = dists
            .get(k.min(dists.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0.0);
        fit[i] = raw[i] + 1.0 / (kd + 2.0);
    }
    fit
}

/// Environmental selection: keep the non-dominated set, truncating by
/// nearest-neighbour distance when oversized, padding with the best
/// dominated individuals when undersized.
fn environmental_selection(pool: &[Individual], fit: &[f64], size: usize) -> Vec<Individual> {
    let mut selected: Vec<usize> = (0..pool.len()).filter(|&i| fit[i] < 1.0).collect();
    if selected.len() < size {
        // Pad with the best dominated individuals.
        let mut rest: Vec<usize> = (0..pool.len()).filter(|&i| fit[i] >= 1.0).collect();
        rest.sort_by(|&a, &b| fit[a].total_cmp(&fit[b]));
        selected.extend(rest.into_iter().take(size - selected.len()));
    } else {
        // Truncate by iteratively removing the individual with the
        // smallest nearest-neighbour distance.
        while selected.len() > size {
            let mut worst = 0usize;
            let mut worst_dist = f64::INFINITY;
            for (si, &i) in selected.iter().enumerate() {
                let nearest = selected
                    .iter()
                    .filter(|&&j| j != i)
                    .map(|&j| {
                        pool[i]
                            .objectives
                            .iter()
                            .zip(&pool[j].objectives)
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum::<f64>()
                    })
                    .fold(f64::INFINITY, f64::min);
                if nearest < worst_dist {
                    worst_dist = nearest;
                    worst = si;
                }
            }
            selected.swap_remove(worst);
        }
    }
    selected.into_iter().map(|i| pool[i].clone()).collect()
}

/// Runs SPEA2 on `problem`, reusing [`Nsga2Config`] for the shared
/// parameters (population = environmental archive size).
///
/// # Panics
///
/// Panics if `cfg.population` is below 2.
pub fn run_spea2<P: Problem>(
    problem: &mut P,
    cfg: &Nsga2Config,
    mut progress: impl FnMut(usize, usize),
) -> Spea2Result {
    assert!(cfg.population >= 2, "population of at least 2");
    let n = problem.genotype_len();
    let mutation_prob = cfg.mutation_prob.unwrap_or(1.0 / n.max(1) as f64);
    let mut rng = Rng::new(cfg.seed);
    let mut archive: ParetoArchive<Vec<f64>> = ParetoArchive::new();
    let mut evaluations = 0usize;
    let mut infeasible = 0usize;

    let eval = |problem: &mut P,
                genotype: Vec<f64>,
                evaluations: &mut usize,
                infeasible: &mut usize,
                archive: &mut ParetoArchive<Vec<f64>>|
     -> Option<Individual> {
        *evaluations += 1;
        match problem.evaluate(&genotype) {
            Some(objectives) => {
                archive.offer(objectives.clone(), genotype.clone());
                Some(Individual {
                    genotype,
                    objectives,
                })
            }
            None => {
                *infeasible += 1;
                None
            }
        }
    };

    let mut population: Vec<Individual> = Vec::new();
    for genotype in cfg.seeds.iter().cloned() {
        if let Some(ind) = eval(
            problem,
            genotype,
            &mut evaluations,
            &mut infeasible,
            &mut archive,
        ) {
            population.push(ind);
        }
    }
    while population.len() < cfg.population && evaluations < cfg.evaluations.max(cfg.population) {
        let genotype: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
        if let Some(ind) = eval(
            problem,
            genotype,
            &mut evaluations,
            &mut infeasible,
            &mut archive,
        ) {
            population.push(ind);
        }
    }
    if population.is_empty() {
        return Spea2Result {
            population,
            archive,
            evaluations,
            infeasible,
        };
    }

    while evaluations < cfg.evaluations {
        let objectives: Vec<Vec<f64>> = population.iter().map(|i| i.objectives.clone()).collect();
        let fit = fitness(&objectives);

        // Mating selection: binary tournaments on fitness.
        let mut offspring = Vec::with_capacity(cfg.population);
        while offspring.len() < cfg.population && evaluations < cfg.evaluations {
            let pick = |rng: &mut Rng| {
                let a = rng.below(population.len());
                let b = rng.below(population.len());
                if fit[a] <= fit[b] {
                    a
                } else {
                    b
                }
            };
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            let mut child = crossover_uniform(
                &mut rng,
                &population[a].genotype,
                &population[b].genotype,
                cfg.crossover_prob,
            );
            polynomial_mutation(&mut rng, &mut child, mutation_prob, cfg.eta_mutation);
            if let Some(ind) = eval(
                problem,
                child,
                &mut evaluations,
                &mut infeasible,
                &mut archive,
            ) {
                offspring.push(ind);
            }
        }

        // Environmental selection over union.
        population.extend(offspring);
        let objectives: Vec<Vec<f64>> = population.iter().map(|i| i.objectives.clone()).collect();
        let fit = fitness(&objectives);
        population = environmental_selection(&population, &fit, cfg.population);
        progress(evaluations, archive.len());
    }

    Spea2Result {
        population,
        archive,
        evaluations,
        infeasible,
    }
}

fn crossover_uniform(rng: &mut Rng, a: &[f64], b: &[f64], prob: f64) -> Vec<f64> {
    if !rng.chance(prob) {
        return a.to_vec();
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| if rng.chance(0.5) { x } else { y })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Zdt1 {
        n: usize,
    }

    impl Problem for Zdt1 {
        fn genotype_len(&self) -> usize {
            self.n
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&mut self, x: &[f64]) -> Option<Vec<f64>> {
            let f1 = x[0];
            let g = 1.0 + 9.0 * x[1..].iter().sum::<f64>() / (self.n - 1) as f64;
            Some(vec![f1, g * (1.0 - (f1 / g).sqrt())])
        }
    }

    #[test]
    fn fitness_zero_for_unique_nondominated() {
        let objs = vec![
            vec![0.0, 2.0],
            vec![1.0, 1.0],
            vec![2.0, 0.0],
            vec![3.0, 3.0],
        ];
        let f = fitness(&objs);
        // The three front points have raw fitness 0 (fitness < 1); the
        // dominated one is >= 1 (sum of strengths of its dominators).
        assert!(f[0] < 1.0 && f[1] < 1.0 && f[2] < 1.0);
        assert!(f[3] >= 1.0);
    }

    #[test]
    fn environmental_selection_respects_size() {
        let pool: Vec<Individual> = (0..10)
            .map(|i| Individual {
                genotype: vec![i as f64],
                objectives: vec![i as f64, 10.0 - i as f64],
            })
            .collect();
        let objs: Vec<Vec<f64>> = pool.iter().map(|p| p.objectives.clone()).collect();
        let fit = fitness(&objs);
        for size in [3, 5, 10] {
            assert_eq!(environmental_selection(&pool, &fit, size).len(), size);
        }
    }

    #[test]
    fn spea2_converges_on_zdt1() {
        let cfg = Nsga2Config {
            population: 30,
            evaluations: 3000,
            seed: 21,
            ..Nsga2Config::default()
        };
        let res = run_spea2(&mut Zdt1 { n: 8 }, &cfg, |_, _| {});
        assert_eq!(res.evaluations, 3000);
        let mean_dev: f64 = res
            .archive
            .entries()
            .iter()
            .map(|e| (e.objectives[1] - (1.0 - e.objectives[0].sqrt())).abs())
            .sum::<f64>()
            / res.archive.len() as f64;
        assert!(mean_dev < 0.6, "mean deviation from front = {mean_dev}");
    }

    #[test]
    fn spea2_deterministic() {
        let cfg = Nsga2Config {
            population: 12,
            evaluations: 300,
            seed: 5,
            ..Nsga2Config::default()
        };
        let a = run_spea2(&mut Zdt1 { n: 5 }, &cfg, |_, _| {});
        let b = run_spea2(&mut Zdt1 { n: 5 }, &cfg, |_, _| {});
        assert_eq!(a.population, b.population);
    }
}
