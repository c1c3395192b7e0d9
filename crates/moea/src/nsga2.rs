//! NSGA-II: fast non-dominated sorting, crowding distance, binary
//! tournament selection, SBX crossover and polynomial mutation on
//! real-vector genotypes in `[0, 1]^n`.
//!
//! This is the MOEA half of the paper's SAT-decoding optimisation: the
//! genotype is interpreted by the problem (in `eea-dse`: branching
//! priorities and polarities for the feasibility solver), so every
//! individual decodes to a *feasible* implementation and NSGA-II optimises
//! over the feasible space only.

use crate::archive::ParetoArchive;
use crate::dominance::dominates;
use crate::rng::Rng;

/// A problem exposing evaluation of real-vector genotypes. Objectives are
/// minimised.
pub trait Problem {
    /// Genotype length `n` (vectors live in `[0, 1]^n`).
    fn genotype_len(&self) -> usize;

    /// Number of objectives.
    fn num_objectives(&self) -> usize;

    /// Evaluates a genotype; `None` marks an infeasible decode (rare under
    /// SAT-decoding — only when the whole formula is unsatisfiable).
    fn evaluate(&mut self, genotype: &[f64]) -> Option<Vec<f64>>;

    /// Evaluates a whole generation of genotypes, returning results in
    /// input order. The default forwards serially to
    /// [`evaluate`](Self::evaluate); problems with thread-safe evaluation
    /// override this to fan a batch out across workers.
    ///
    /// [`run`] performs *every* evaluation through this hook and merges by
    /// input index, so an override whose per-genotype results do not depend
    /// on how the batch is split (see `eea-dse`'s lane scheme) makes the
    /// whole evolution trajectory independent of the worker count.
    fn evaluate_batch(&mut self, genotypes: &[Vec<f64>]) -> Vec<Option<Vec<f64>>> {
        genotypes.iter().map(|g| self.evaluate(g)).collect()
    }
}

/// NSGA-II configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Config {
    /// Population size (µ = λ).
    pub population: usize,
    /// Total evaluation budget (the paper's case study uses 100,000).
    pub evaluations: usize,
    /// SBX crossover probability per pair.
    pub crossover_prob: f64,
    /// SBX distribution index (typical: 15).
    pub eta_crossover: f64,
    /// Mutation probability per gene (typical: 1/n, set automatically when
    /// `None`).
    pub mutation_prob: Option<f64>,
    /// Polynomial-mutation distribution index (typical: 20).
    pub eta_mutation: f64,
    /// RNG seed.
    pub seed: u64,
    /// Genotypes injected into the initial population (evaluated first,
    /// counted against the budget). Useful for anchoring the search with
    /// known corner designs.
    pub seeds: Vec<Vec<f64>>,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population: 100,
            evaluations: 10_000,
            crossover_prob: 0.9,
            eta_crossover: 15.0,
            mutation_prob: None,
            eta_mutation: 20.0,
            seed: 0x5EED,
            seeds: Vec::new(),
        }
    }
}

/// One evaluated individual.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// Genotype in `[0, 1]^n`.
    pub genotype: Vec<f64>,
    /// Objective vector (minimised).
    pub objectives: Vec<f64>,
}

/// Result of an NSGA-II run.
#[derive(Debug, Clone)]
pub struct Nsga2Result {
    /// The final population.
    pub population: Vec<Individual>,
    /// All-time Pareto archive over every evaluated individual.
    pub archive: ParetoArchive<Vec<f64>>,
    /// Number of evaluations actually performed.
    pub evaluations: usize,
    /// Number of infeasible decodes encountered.
    pub infeasible: usize,
}

/// Fast non-dominated sort; returns the front index (rank) of each
/// individual (0 = best front).
pub fn non_dominated_ranks(objectives: &[Vec<f64>]) -> Vec<u32> {
    let n = objectives.len();
    let mut dominated_by: Vec<u32> = vec![0; n];
    let mut dominates_list: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if dominates(&objectives[i], &objectives[j]) {
                dominates_list[i].push(j as u32);
                dominated_by[j] += 1;
            } else if dominates(&objectives[j], &objectives[i]) {
                dominates_list[j].push(i as u32);
                dominated_by[i] += 1;
            }
        }
    }
    let mut rank = vec![0u32; n];
    let mut current: Vec<u32> = (0..n as u32)
        .filter(|&i| dominated_by[i as usize] == 0)
        .collect();
    let mut level = 0;
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            rank[i as usize] = level;
            for &j in &dominates_list[i as usize] {
                dominated_by[j as usize] -= 1;
                if dominated_by[j as usize] == 0 {
                    next.push(j);
                }
            }
        }
        level += 1;
        current = next;
    }
    rank
}

/// Crowding distance of each individual within its front.
pub fn crowding_distances(objectives: &[Vec<f64>], ranks: &[u32]) -> Vec<f64> {
    let n = objectives.len();
    let mut distance = vec![0.0f64; n];
    if n == 0 {
        return distance;
    }
    let m = objectives[0].len();
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    for r in 0..=max_rank {
        let front: Vec<usize> = (0..n).filter(|&i| ranks[i] == r).collect();
        if front.len() <= 2 {
            for &i in &front {
                distance[i] = f64::INFINITY;
            }
            continue;
        }
        #[allow(clippy::needless_range_loop)] // `obj` also indexes inside the closure
        for obj in 0..m {
            let mut sorted = front.clone();
            sorted.sort_by(|&a, &b| objectives[a][obj].total_cmp(&objectives[b][obj]));
            let last = sorted[sorted.len() - 1];
            let lo = objectives[sorted[0]][obj];
            let hi = objectives[last][obj];
            distance[sorted[0]] = f64::INFINITY;
            distance[last] = f64::INFINITY;
            let span = hi - lo;
            if span <= 0.0 {
                continue;
            }
            for w in sorted.windows(3) {
                let (prev, mid, next) = (w[0], w[1], w[2]);
                distance[mid] += (objectives[next][obj] - objectives[prev][obj]) / span;
            }
        }
    }
    distance
}

fn tournament(rng: &mut Rng, ranks: &[u32], crowding: &[f64]) -> usize {
    let a = rng.below(ranks.len());
    let b = rng.below(ranks.len());
    if ranks[a] < ranks[b] {
        a
    } else if ranks[b] < ranks[a] {
        b
    } else if crowding[a] >= crowding[b] {
        a
    } else {
        b
    }
}

/// SBX crossover of two parents (returns two children).
fn sbx(rng: &mut Rng, p1: &[f64], p2: &[f64], prob: f64, eta: f64) -> (Vec<f64>, Vec<f64>) {
    let mut c1 = p1.to_vec();
    let mut c2 = p2.to_vec();
    if !rng.chance(prob) {
        return (c1, c2);
    }
    for i in 0..c1.len() {
        if !rng.chance(0.5) {
            continue;
        }
        let (x1, x2) = (p1[i], p2[i]);
        if (x1 - x2).abs() < 1e-14 {
            continue;
        }
        let u = rng.unit();
        let beta = if u <= 0.5 {
            (2.0 * u).powf(1.0 / (eta + 1.0))
        } else {
            (1.0 / (2.0 * (1.0 - u))).powf(1.0 / (eta + 1.0))
        };
        let v1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2);
        let v2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2);
        c1[i] = v1.clamp(0.0, 1.0);
        c2[i] = v2.clamp(0.0, 1.0);
    }
    (c1, c2)
}

/// Polynomial mutation in place.
pub(crate) fn polynomial_mutation(rng: &mut Rng, genotype: &mut [f64], prob: f64, eta: f64) {
    for g in genotype.iter_mut() {
        if !rng.chance(prob) {
            continue;
        }
        let u = rng.unit();
        let delta = if u < 0.5 {
            (2.0 * u).powf(1.0 / (eta + 1.0)) - 1.0
        } else {
            1.0 - (2.0 * (1.0 - u)).powf(1.0 / (eta + 1.0))
        };
        *g = (*g + delta).clamp(0.0, 1.0);
    }
}

/// Runs NSGA-II on `problem`. The `progress` callback receives
/// `(evaluations_done, archive_size)` after each generation and may be a
/// no-op closure.
///
/// All evaluation happens in generation-sized batches through
/// [`Problem::evaluate_batch`], merged by input index. Batch boundaries
/// depend only on result *counts* (never on objective values), and the RNG
/// is consumed exclusively while generating genotypes — so a batch
/// override that is split-invariant keeps the run bit-identical to serial
/// evaluation at any worker count.
///
/// # Panics
///
/// Panics if `cfg.population` is below 2.
pub fn run<P: Problem>(
    problem: &mut P,
    cfg: &Nsga2Config,
    mut progress: impl FnMut(usize, usize),
) -> Nsga2Result {
    assert!(cfg.population >= 2, "population of at least 2");
    let n = problem.genotype_len();
    let mutation_prob = cfg.mutation_prob.unwrap_or(1.0 / n.max(1) as f64);
    let mut rng = Rng::new(cfg.seed);
    let mut archive: ParetoArchive<Vec<f64>> = ParetoArchive::new();
    let mut evaluations = 0usize;
    let mut infeasible = 0usize;

    let absorb = |problem: &mut P,
                  batch: Vec<Vec<f64>>,
                  evaluations: &mut usize,
                  infeasible: &mut usize,
                  archive: &mut ParetoArchive<Vec<f64>>|
     -> Vec<Individual> {
        let results = problem.evaluate_batch(&batch);
        debug_assert_eq!(results.len(), batch.len());
        *evaluations += batch.len();
        batch
            .into_iter()
            .zip(results)
            .filter_map(|(genotype, result)| match result {
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
            })
            .collect()
    };

    // Initial population: injected seeds first, then uniform random.
    let init_budget = cfg.evaluations.max(cfg.population);
    let mut population: Vec<Individual> = Vec::with_capacity(cfg.population);
    let seed_batch: Vec<Vec<f64>> = cfg.seeds.iter().take(init_budget).cloned().collect();
    for genotype in &seed_batch {
        assert_eq!(genotype.len(), n, "seed genotype length mismatch");
    }
    population.extend(absorb(
        problem,
        seed_batch,
        &mut evaluations,
        &mut infeasible,
        &mut archive,
    ));
    while population.len() < cfg.population && evaluations < init_budget {
        let need = (cfg.population - population.len()).min(init_budget - evaluations);
        let batch: Vec<Vec<f64>> = (0..need)
            .map(|_| (0..n).map(|_| rng.unit()).collect())
            .collect();
        population.extend(absorb(
            problem,
            batch,
            &mut evaluations,
            &mut infeasible,
            &mut archive,
        ));
    }
    if population.is_empty() {
        return Nsga2Result {
            population,
            archive,
            evaluations,
            infeasible,
        };
    }
    while population.len() < cfg.population {
        // Pad with clones if infeasible decodes ate the budget.
        let clone = population[rng.below(population.len())].clone();
        population.push(clone);
    }

    while evaluations < cfg.evaluations {
        let objectives: Vec<Vec<f64>> = population.iter().map(|i| i.objectives.clone()).collect();
        let ranks = non_dominated_ranks(&objectives);
        let crowding = crowding_distances(&objectives, &ranks);

        // Offspring, generated a batch at a time. The batch size depends
        // only on how many feasible offspring earlier batches produced, so
        // the RNG stream (consumed only here, during variation) is
        // independent of how `evaluate_batch` schedules its work.
        let mut offspring: Vec<Individual> = Vec::with_capacity(cfg.population);
        while offspring.len() < cfg.population && evaluations < cfg.evaluations {
            let need = (cfg.population - offspring.len()).min(cfg.evaluations - evaluations);
            let mut batch: Vec<Vec<f64>> = Vec::with_capacity(need);
            while batch.len() < need {
                let a = tournament(&mut rng, &ranks, &crowding);
                let b = tournament(&mut rng, &ranks, &crowding);
                let (mut c1, mut c2) = sbx(
                    &mut rng,
                    &population[a].genotype,
                    &population[b].genotype,
                    cfg.crossover_prob,
                    cfg.eta_crossover,
                );
                polynomial_mutation(&mut rng, &mut c1, mutation_prob, cfg.eta_mutation);
                polynomial_mutation(&mut rng, &mut c2, mutation_prob, cfg.eta_mutation);
                batch.push(c1);
                if batch.len() < need {
                    batch.push(c2);
                }
            }
            offspring.extend(absorb(
                problem,
                batch,
                &mut evaluations,
                &mut infeasible,
                &mut archive,
            ));
        }

        // Environmental selection over µ + λ.
        population.extend(offspring);
        let objectives: Vec<Vec<f64>> = population.iter().map(|i| i.objectives.clone()).collect();
        let ranks = non_dominated_ranks(&objectives);
        let crowding = crowding_distances(&objectives, &ranks);
        let mut order: Vec<usize> = (0..population.len()).collect();
        order.sort_by(|&x, &y| {
            ranks[x]
                .cmp(&ranks[y])
                .then(crowding[y].total_cmp(&crowding[x]))
        });
        order.truncate(cfg.population);
        let mut selected: Vec<Individual> = Vec::with_capacity(cfg.population);
        for idx in order {
            selected.push(population[idx].clone());
        }
        population = selected;
        progress(evaluations, archive.len());
    }

    Nsga2Result {
        population,
        archive,
        evaluations,
        infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ZDT1-like 2-objective benchmark on [0,1]^n.
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
            let f2 = g * (1.0 - (f1 / g).sqrt());
            Some(vec![f1, f2])
        }
    }

    #[test]
    fn ranks_simple() {
        let objs = vec![
            vec![1.0, 1.0], // front 0
            vec![2.0, 2.0], // dominated by 0 -> front 1
            vec![0.5, 3.0], // front 0
            vec![3.0, 3.0], // front 2
        ];
        let ranks = non_dominated_ranks(&objs);
        assert_eq!(ranks, vec![0, 1, 0, 2]);
    }

    #[test]
    fn crowding_extremes_infinite() {
        let objs = vec![
            vec![0.0, 3.0],
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![3.0, 0.0],
        ];
        let ranks = vec![0, 0, 0, 0];
        let d = crowding_distances(&objs, &ranks);
        assert!(d[0].is_infinite());
        assert!(d[3].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
    }

    #[test]
    fn zdt1_converges_towards_front() {
        let mut problem = Zdt1 { n: 10 };
        let cfg = Nsga2Config {
            population: 40,
            evaluations: 4000,
            seed: 42,
            ..Nsga2Config::default()
        };
        let res = run(&mut problem, &cfg, |_, _| {});
        assert_eq!(res.evaluations, 4000);
        assert_eq!(res.infeasible, 0);
        // On the true front g = 1; check the archive got close.
        let mean_g: f64 = res
            .archive
            .entries()
            .iter()
            .map(|e| {
                // Reconstruct g from f1, f2: f2 = g(1 - sqrt(f1/g)) — instead
                // evaluate distance from the ideal relation f2 ~ 1 - sqrt(f1).
                let f1 = e.objectives[0];
                let f2 = e.objectives[1];
                (f2 - (1.0 - f1.sqrt())).abs()
            })
            .sum::<f64>()
            / res.archive.len() as f64;
        assert!(mean_g < 0.35, "mean deviation from front = {mean_g}");
        // Random search baseline for the same budget is much worse; verify
        // NSGA-II actually improved over the initial random population.
        assert!(res.archive.len() > 10);
    }

    /// Evaluates like Zdt1 but services batches back-to-front internally,
    /// mimicking an arbitrary parallel schedule; results are still returned
    /// in input order.
    struct Zdt1Scrambled {
        inner: Zdt1,
    }

    impl Problem for Zdt1Scrambled {
        fn genotype_len(&self) -> usize {
            self.inner.genotype_len()
        }
        fn num_objectives(&self) -> usize {
            self.inner.num_objectives()
        }
        fn evaluate(&mut self, x: &[f64]) -> Option<Vec<f64>> {
            self.inner.evaluate(x)
        }
        fn evaluate_batch(&mut self, genotypes: &[Vec<f64>]) -> Vec<Option<Vec<f64>>> {
            let mut results: Vec<Option<Vec<f64>>> = vec![None; genotypes.len()];
            for i in (0..genotypes.len()).rev() {
                results[i] = self.inner.evaluate(&genotypes[i]);
            }
            results
        }
    }

    #[test]
    fn batch_schedule_does_not_change_the_run() {
        let cfg = Nsga2Config {
            population: 20,
            evaluations: 600,
            seed: 11,
            ..Nsga2Config::default()
        };
        let serial = run(&mut Zdt1 { n: 6 }, &cfg, |_, _| {});
        let scrambled = run(
            &mut Zdt1Scrambled {
                inner: Zdt1 { n: 6 },
            },
            &cfg,
            |_, _| {},
        );
        assert_eq!(serial.population, scrambled.population);
        assert_eq!(serial.evaluations, scrambled.evaluations);
        assert_eq!(
            serial.archive.entries().len(),
            scrambled.archive.entries().len()
        );
    }

    #[test]
    fn deterministic_runs() {
        let cfg = Nsga2Config {
            population: 20,
            evaluations: 500,
            seed: 7,
            ..Nsga2Config::default()
        };
        let a = run(&mut Zdt1 { n: 6 }, &cfg, |_, _| {});
        let b = run(&mut Zdt1 { n: 6 }, &cfg, |_, _| {});
        assert_eq!(a.population, b.population);
    }

    #[test]
    fn infeasible_decodes_counted() {
        struct HalfFeasible;
        impl Problem for HalfFeasible {
            fn genotype_len(&self) -> usize {
                3
            }
            fn num_objectives(&self) -> usize {
                2
            }
            fn evaluate(&mut self, x: &[f64]) -> Option<Vec<f64>> {
                if x[0] < 0.5 {
                    None
                } else {
                    Some(vec![x[1], x[2]])
                }
            }
        }
        let cfg = Nsga2Config {
            population: 10,
            evaluations: 300,
            seed: 3,
            ..Nsga2Config::default()
        };
        let res = run(&mut HalfFeasible, &cfg, |_, _| {});
        assert!(res.infeasible > 0);
        assert!(res.population.iter().all(|i| i.genotype[0] >= 0.5));
    }

    #[test]
    fn progress_callback_fires() {
        let mut calls = 0;
        let cfg = Nsga2Config {
            population: 10,
            evaluations: 200,
            seed: 1,
            ..Nsga2Config::default()
        };
        run(&mut Zdt1 { n: 4 }, &cfg, |_, _| calls += 1);
        assert!(calls > 0);
    }
}
