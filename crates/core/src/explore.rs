//! The design-space-exploration driver: SAT-decoding × NSGA-II.
//!
//! The genotype holds two genes per mapping variable: a branching priority
//! and a preferred polarity. The feasibility solver decodes the genotype
//! into an implementation (always feasible — conflicts are repaired by
//! clause learning), the objectives of Section III-D are evaluated, and
//! NSGA-II evolves the genotypes. Every evaluated implementation streams
//! through an unbounded Pareto archive, exactly like the paper's reported
//! "176 not Pareto-dominated implementations" out of 100,000 evaluations.

use std::collections::BTreeMap;
use std::time::Instant;

use eea_model::Implementation;
use eea_moea::{run, Nsga2Config, ParetoArchive, Problem};
use eea_sat::SolveResult;

use eea_can::TransportConfig;

use crate::augment::DiagSpec;
use crate::encode::{encode, Encoding};
use crate::objectives::{evaluate_with_transport, MemorySummary, Objectives};

/// Configuration of [`explore`].
#[derive(Debug, Clone, PartialEq)]
pub struct DseConfig {
    /// MOEA settings; `evaluations` is the total evaluation budget (the
    /// paper's case study uses 100,000).
    pub nsga2: Nsga2Config,
    /// Worker threads decoding a generation's offspring concurrently.
    /// `0` means one per available CPU; the `EEA_THREADS` environment
    /// variable overrides either setting. Any value produces bit-identical
    /// results for the same seed (see [`DseProblem`]'s lane scheme).
    pub threads: usize,
    /// Test-data transport of the Eq. (5) shut-off objective: classic-CAN
    /// mirroring (the default, the paper's baseline), CAN FD, or FlexRay
    /// static slots. The MOEA then explores fronts *per transport*; run
    /// `explore` once per configuration to compare them.
    pub transport: TransportConfig,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            nsga2: Nsga2Config {
                population: 100,
                evaluations: 10_000,
                ..Nsga2Config::default()
            },
            threads: 0,
            transport: TransportConfig::MirroredCan,
        }
    }
}

/// Resolves a requested worker count: `0` means one worker per available
/// CPU; the `EEA_THREADS` environment variable overrides the request.
/// (Mirrors `eea_faultsim::resolve_threads`; duplicated because `eea-dse`
/// does not depend on the fault-simulation crate.)
pub fn resolve_threads(requested: usize) -> usize {
    let requested = std::env::var("EEA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(requested);
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// One Pareto-optimal implementation found by the exploration.
#[derive(Debug, Clone)]
pub struct ExploredImplementation {
    /// The three objectives in natural units.
    pub objectives: Objectives,
    /// The decoded implementation.
    pub implementation: Implementation,
    /// Memory-placement summary (Fig. 6 quantities).
    pub memory: MemorySummary,
}

/// Result of an exploration run.
#[derive(Debug)]
pub struct DseResult {
    /// The non-dominated implementations (re-decoded from the archive).
    pub front: Vec<ExploredImplementation>,
    /// Evaluations performed.
    pub evaluations: usize,
    /// Infeasible decodes (0 unless the specification is over-constrained).
    pub infeasible: usize,
    /// Wall-clock duration of the exploration in seconds.
    pub duration_s: f64,
    /// Archive-growth curve: `(evaluations, archive size)` samples taken
    /// after each generation. The flattening of this curve is the usual
    /// exploration-convergence signal.
    pub convergence: Vec<(usize, usize)>,
    /// Worker threads the exploration actually ran with.
    pub threads: usize,
}

impl DseResult {
    /// Evaluations per second (the paper: 100,000 in ~29 min ≈ 57/s on an
    /// 8-core machine).
    pub fn evals_per_second(&self) -> f64 {
        self.evaluations as f64 / self.duration_s.max(1e-9)
    }
}

/// Number of evaluation lanes — persistent solver replicas that batched
/// evaluation spreads over. A decode depends on the state earlier decodes
/// left in its solver (learned clauses, saved phases, the branching heap's
/// layout), so the lane count is fixed, independent of the thread count:
/// genotype `i` of a batch always runs on lane `i % EVAL_LANES`, after the
/// lane's lower-indexed genotypes. Threads merely split the lanes among
/// workers, and every worker decodes its lanes one after another, so any
/// thread count reproduces the serial results bit for bit.
pub const EVAL_LANES: usize = 8;

/// The SAT-decoding problem adapter: genotype → feasible implementation →
/// objective vector.
///
/// Batched evaluation ([`Problem::evaluate_batch`]) decodes on
/// [`EVAL_LANES`] solver replicas cloned from the freshly encoded formula,
/// optionally fanned out across `threads` workers; the state a decode
/// leaves behind stays lane-local. [`decode`](Self::decode) keeps using
/// the primary solver of the encoding.
pub struct DseProblem<'d> {
    diag: &'d DiagSpec,
    encoding: Encoding,
    lanes: Vec<eea_sat::Solver>,
    mvars: Vec<(eea_model::TaskId, eea_model::ResourceId, eea_sat::Var)>,
    num_decision_vars: usize,
    /// Length of the functional prefix of `mvars` (everything before the
    /// first BIST test/data mapping; the augmenter appends BIST tasks after
    /// all functional tasks, so the split is a prefix).
    num_functional_vars: usize,
    threads: usize,
    transport: TransportConfig,
}

impl<'d> DseProblem<'d> {
    /// Builds the problem (encodes the formula once) with serial batch
    /// evaluation.
    pub fn new(diag: &'d DiagSpec) -> Self {
        Self::with_threads(diag, 1)
    }

    /// Builds the problem with `threads.max(1)` evaluation workers. Callers
    /// wanting the `0 = auto` / `EEA_THREADS` convention resolve via
    /// [`resolve_threads`] first.
    pub fn with_threads(diag: &'d DiagSpec, threads: usize) -> Self {
        let encoding = encode(diag);
        let mvars = encoding.mapping_vars();
        let bist_tasks: std::collections::BTreeSet<eea_model::TaskId> =
            diag.options.iter().flat_map(|o| [o.test, o.data]).collect();
        let num_functional_vars = mvars
            .iter()
            .take_while(|(t, _, _)| !bist_tasks.contains(t))
            .count();
        debug_assert!(mvars[num_functional_vars..]
            .iter()
            .all(|(t, _, _)| bist_tasks.contains(t)));
        // Lanes are cloned *before* any solve, so every lane starts from
        // the identical pristine formula.
        let lanes = (0..EVAL_LANES).map(|_| encoding.solver.clone()).collect();
        DseProblem {
            diag,
            num_decision_vars: mvars.len(),
            num_functional_vars,
            mvars,
            lanes,
            encoding,
            threads: threads.max(1),
            transport: TransportConfig::MirroredCan,
        }
    }

    /// Selects the test-data transport the objective evaluation rides
    /// (builder style; the default is classic-CAN mirroring).
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Number of evaluation workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The test-data transport the objective evaluation rides.
    pub fn transport(&self) -> &TransportConfig {
        &self.transport
    }

    /// Decodes a genotype into an implementation without evaluating
    /// objectives; `None` if the formula is unsatisfiable.
    pub fn decode(&mut self, genotype: &[f64]) -> Option<Implementation> {
        let n = self.num_decision_vars;
        assert_eq!(genotype.len(), 2 * n, "genotype length mismatch");
        for (i, &(_, _, v)) in self.mvars.iter().enumerate() {
            // Priorities in (0, 1]; route variables keep priority 0 and
            // polarity false, so routes stay minimal.
            self.encoding.solver.set_priority(v, genotype[i].max(1e-9));
            self.encoding.solver.set_polarity(v, genotype[n + i] > 0.5);
        }
        match self.encoding.solver.solve() {
            SolveResult::Sat => Some(self.encoding.extract(&self.diag.spec)),
            SolveResult::Unsat => None,
        }
    }

    /// Decodes and evaluates one genotype on a specific lane solver.
    fn lane_evaluate(
        diag: &DiagSpec,
        encoding: &Encoding,
        mvars: &[(eea_model::TaskId, eea_model::ResourceId, eea_sat::Var)],
        solver: &mut eea_sat::Solver,
        transport: &TransportConfig,
        genotype: &[f64],
    ) -> Option<Vec<f64>> {
        let n = mvars.len();
        assert_eq!(genotype.len(), 2 * n, "genotype length mismatch");
        for (i, &(_, _, v)) in mvars.iter().enumerate() {
            solver.set_priority(v, genotype[i].max(1e-9));
            solver.set_polarity(v, genotype[n + i] > 0.5);
        }
        match solver.solve() {
            SolveResult::Sat => {
                let x = encoding.extract_model(solver, &diag.spec);
                let (objectives, _) = evaluate_with_transport(diag, &x, transport);
                Some(objectives.to_minimized())
            }
            SolveResult::Unsat => None,
        }
    }

    /// Access to the augmented specification.
    pub fn diag(&self) -> &DiagSpec {
        self.diag
    }

    /// Corner genotypes that anchor the Pareto front:
    ///
    /// * no BIST at all (the cheapest, zero-quality, zero-shut-off design),
    /// * one session per ECU with **local** pattern storage (fast shut-off,
    ///   expensive distributed memory),
    /// * one session per ECU with **gateway** storage (cheap shared memory,
    ///   long transfers).
    ///
    /// All three corners sit on the greedy cheap functional allocation
    /// (`greedy_functional_prefix`), so the no-BIST corner
    /// anchors the cost minimum and the session corners show what quality
    /// costs *relative to that same allocation* — the comparison behind the
    /// paper's "+3.7 %" headline. Injected as NSGA-II seeds so the
    /// exploration never misses the extreme regions of Fig. 5.
    pub fn corner_genotypes(&self) -> Vec<Vec<f64>> {
        self.warm_seeds(&self.greedy_functional_prefix())
    }

    /// A functional-prefix genotype (`2 * num_functional_vars` genes) that
    /// steers the decode toward cheap hardware: every task prefers its
    /// cheapest mapping option (polarity), and cheaper resources are
    /// decided earlier (priority), so tasks consolidate onto the
    /// inexpensive resources first and costly ones are allocated only when
    /// feasibility demands it.
    fn greedy_functional_prefix(&self) -> Vec<f64> {
        let nf = self.num_functional_vars;
        let functional = &self.mvars[..nf];
        let resource_cost = |r: eea_model::ResourceId| self.diag.spec.architecture.resource(r).cost;
        let max_cost = functional
            .iter()
            .map(|&(_, r, _)| resource_cost(r))
            .fold(0.0f64, f64::max)
            .max(1.0);
        let mut genotype = vec![0.0; 2 * nf];
        let mut task_opts: BTreeMap<eea_model::TaskId, Vec<usize>> = BTreeMap::new();
        for (i, &(t, _, _)) in functional.iter().enumerate() {
            task_opts.entry(t).or_default().push(i);
        }
        for idxs in task_opts.values() {
            // Entries exist only for tasks with at least one option.
            let Some(cheapest) = idxs.iter().copied().min_by(|&a, &b| {
                resource_cost(functional[a].1).total_cmp(&resource_cost(functional[b].1))
            }) else {
                continue;
            };
            for &i in idxs {
                genotype[i] = 0.95 - 0.9 * resource_cost(functional[i].1) / max_cost;
                genotype[nf + i] = if i == cheapest { 1.0 } else { 0.0 };
            }
        }
        genotype
    }

    /// Expands a functional-prefix genotype (`2 * num_functional_vars`
    /// genes) into a full genotype: BIST genes get priority `bist_priority`
    /// and polarity off, so the solver settles the functional allocation
    /// first and the BIST genes are free for the evolution to flip later.
    fn expand_functional(&self, functional: &[f64]) -> Vec<f64> {
        let n = self.num_decision_vars;
        let nf = self.num_functional_vars;
        assert_eq!(functional.len(), 2 * nf, "functional genotype mismatch");
        let mut full = vec![0.0; 2 * n];
        full[..nf].copy_from_slice(&functional[..nf]);
        full[n..n + nf].copy_from_slice(&functional[nf..]);
        for i in nf..n {
            full[i] = 0.01; // decided after every functional variable
            full[n + i] = 0.0;
        }
        full
    }

    /// Warm-start seeds grown from an evolved functional-prefix genotype:
    /// the same three BIST corners as [`corner_genotypes`]
    /// (Self::corner_genotypes), but grafted onto a *cheap known-good
    /// functional allocation* instead of neutral 0.5 genes. BIST genes keep
    /// priorities below every functional gene so the decode reproduces the
    /// functional allocation first and only then selects sessions — this is
    /// what lets the exploration reach high test quality within a few
    /// percent of the no-diagnosis baseline cost.
    fn warm_seeds(&self, functional: &[f64]) -> Vec<Vec<f64>> {
        let n = self.num_decision_vars;
        let base = self.expand_functional(functional);
        let mut seeds = vec![base.clone()];
        for prefer_local in [false, true] {
            let mut g = base.clone();
            for (i, &(task, resource, _)) in
                self.mvars.iter().enumerate().skip(self.num_functional_vars)
            {
                let is_test = self.diag.options.iter().any(|o| o.test == task);
                let data_of = self.diag.options.iter().find(|o| o.data == task);
                if is_test {
                    g[i] = 0.02; // profile choice first among the BIST genes
                    g[n + i] = 1.0;
                } else if let Some(o) = data_of {
                    g[i] = 0.015;
                    let wants_local = resource == o.ecu;
                    g[n + i] = if wants_local == prefer_local {
                        1.0
                    } else {
                        0.0
                    };
                }
            }
            seeds.push(g);
        }
        seeds
    }
}

/// Adapter that exposes only the functional prefix of a [`DseProblem`]
/// genotype to the optimizer; BIST genes are pinned off (and decided last)
/// via [`DseProblem::expand_functional`]. Used by the warm-up phase of
/// [`explore`]. Batches delegate to the inner problem's lane scheme, so the
/// warm-up inherits the bit-identical-at-any-thread-count guarantee.
struct FunctionalPrefix<'p, 'd> {
    inner: &'p mut DseProblem<'d>,
}

impl Problem for FunctionalPrefix<'_, '_> {
    fn genotype_len(&self) -> usize {
        2 * self.inner.num_functional_vars
    }

    fn num_objectives(&self) -> usize {
        3
    }

    fn evaluate(&mut self, genotype: &[f64]) -> Option<Vec<f64>> {
        let full = self.inner.expand_functional(genotype);
        self.inner.evaluate(&full)
    }

    fn evaluate_batch(&mut self, genotypes: &[Vec<f64>]) -> Vec<Option<Vec<f64>>> {
        let full: Vec<Vec<f64>> = genotypes
            .iter()
            .map(|g| self.inner.expand_functional(g))
            .collect();
        self.inner.evaluate_batch(&full)
    }
}

impl Problem for DseProblem<'_> {
    fn genotype_len(&self) -> usize {
        2 * self.num_decision_vars
    }

    fn num_objectives(&self) -> usize {
        3
    }

    fn evaluate(&mut self, genotype: &[f64]) -> Option<Vec<f64>> {
        let x = self.decode(genotype)?;
        let (objectives, _) = evaluate_with_transport(self.diag, &x, &self.transport);
        Some(objectives.to_minimized())
    }

    /// Lane-deterministic batch evaluation: genotype `i` always decodes on
    /// lane `i % EVAL_LANES`, and a lane's genotypes run in index order —
    /// regardless of `threads` — so results are bit-identical at any
    /// worker count. Each worker decodes its lanes one after another, so a
    /// lane's solver stays in cache across its genotypes; one worker runs
    /// inline.
    fn evaluate_batch(&mut self, genotypes: &[Vec<f64>]) -> Vec<Option<Vec<f64>>> {
        let diag = self.diag;
        let encoding = &self.encoding;
        let mvars = &self.mvars;
        let transport = &self.transport;
        let workers = self.threads.min(self.lanes.len()).max(1);
        let lanes_per_worker = self.lanes.len().div_ceil(workers);
        let decode_lanes = move |first_lane: usize, lane_chunk: &mut [eea_sat::Solver]| {
            let mut out: Vec<(usize, Option<Vec<f64>>)> = Vec::new();
            for (li, solver) in lane_chunk.iter_mut().enumerate() {
                for i in (first_lane + li..genotypes.len()).step_by(EVAL_LANES) {
                    let genotype = &genotypes[i];
                    let objectives =
                        Self::lane_evaluate(diag, encoding, mvars, solver, transport, genotype);
                    out.push((i, objectives));
                }
            }
            out
        };

        let chunks = self.lanes.chunks_mut(lanes_per_worker).enumerate();
        let merged: Vec<_> = if workers == 1 {
            chunks
                .flat_map(|(w, lane_chunk)| decode_lanes(w * lanes_per_worker, lane_chunk))
                .collect()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = chunks
                    .map(|(w, lane_chunk)| {
                        s.spawn(move || decode_lanes(w * lanes_per_worker, lane_chunk))
                    })
                    .collect();
                // A worker can only fail by panicking; forward the payload
                // instead of discarding it (or double-panicking via expect).
                let mut merged = Vec::with_capacity(genotypes.len());
                for h in handles {
                    match h.join() {
                        Ok(part) => merged.extend(part),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                merged
            })
        };
        let mut results: Vec<Option<Vec<f64>>> = vec![None; genotypes.len()];
        for (i, r) in merged {
            results[i] = r;
        }
        results
    }
}

/// Runs the full exploration: encode once, evolve genotypes, and re-decode
/// the archived non-dominated genotypes into implementations.
///
/// The `progress` callback receives `(evaluations, archive size)` after
/// each generation.
pub fn explore(
    diag: &DiagSpec,
    cfg: &DseConfig,
    mut progress: impl FnMut(usize, usize),
) -> DseResult {
    let start = Instant::now();
    let threads = resolve_threads(cfg.threads);
    let mut problem = DseProblem::with_threads(diag, threads).with_transport(cfg.transport.clone());
    let mut nsga2 = cfg.nsga2.clone();
    let user_seeded = !nsga2.seeds.is_empty();
    if !user_seeded {
        nsga2.seeds = problem.corner_genotypes();
    }
    let mut convergence: Vec<(usize, usize)> = Vec::new();

    // Functional-first warm-up: spend a slice of the budget evolving only
    // the functional allocation (BIST pinned off), then graft the BIST
    // corners onto the cheapest allocations found and seed the main run
    // with them. Without this, the main run reliably finds cheap *no-test*
    // designs but its test-enabled designs stay stuck on a more expensive
    // allocation attractor — SAT-decoding offers little phenotypic locality
    // for crossover to combine the two. Skipped when the caller supplies
    // seeds, when there is nothing to warm up (no BIST options), or when
    // the budget slice would be too small to evolve anything.
    let total_evaluations = nsga2.evaluations;
    let mut warm_evaluations =
        (total_evaluations / 5).min(total_evaluations.saturating_sub(nsga2.population));
    if user_seeded || problem.num_functional_vars == problem.num_decision_vars {
        warm_evaluations = 0;
    }
    let mut warm_infeasible = 0;
    if warm_evaluations >= 8 {
        let mut warm_problem =
            DseProblem::with_threads(diag, threads).with_transport(cfg.transport.clone());
        let mut prefix = FunctionalPrefix {
            inner: &mut warm_problem,
        };
        let warm_cfg = Nsga2Config {
            population: 24.min(warm_evaluations),
            evaluations: warm_evaluations,
            seed: nsga2.seed ^ 0x5EED_F00D,
            seeds: vec![problem.greedy_functional_prefix()],
            ..cfg.nsga2.clone()
        };
        let warm = run(&mut prefix, &warm_cfg, |evals, archive| {
            convergence.push((evals, archive));
            progress(evals, archive);
        });
        warm_evaluations = warm.evaluations;
        warm_infeasible = warm.infeasible;
        let mut entries = warm.archive.into_entries();
        // Cheapest-first; minimized objective 0 is the monetary cost.
        entries.sort_by(|a, b| a.objectives[0].total_cmp(&b.objectives[0]));
        for entry in entries.iter().take(2) {
            nsga2.seeds.extend(problem.warm_seeds(&entry.payload));
        }
    } else {
        warm_evaluations = 0;
    }

    nsga2.evaluations = total_evaluations - warm_evaluations;
    let result = run(&mut problem, &nsga2, |evals, archive| {
        convergence.push((warm_evaluations + evals, archive));
        progress(warm_evaluations + evals, archive);
    });
    let duration_s = start.elapsed().as_secs_f64();

    // Re-decode archive entries into full implementations. Note: the
    // primary solver carries saved phases, heap layout and learned clauses
    // from earlier decodes; a re-decode may produce a different (equally
    // feasible) model, so the archived objective vector is re-evaluated
    // from the fresh decode and re-filtered through a final archive.
    let mut front_archive: ParetoArchive<ExploredImplementation> = ParetoArchive::new();
    for entry in result.archive.entries() {
        if let Some(x) = problem.decode(&entry.payload) {
            let (objectives, memory) = evaluate_with_transport(diag, &x, &cfg.transport);
            front_archive.offer(
                objectives.to_minimized(),
                ExploredImplementation {
                    objectives,
                    implementation: x,
                    memory,
                },
            );
        }
    }
    let mut front: Vec<ExploredImplementation> = front_archive
        .into_entries()
        .into_iter()
        .map(|e| e.payload)
        .collect();
    // total_cmp: a NaN objective (from a degenerate specification) must
    // never panic the exploration driver.
    front.sort_by(|a, b| a.objectives.cost.total_cmp(&b.objectives.cost));

    DseResult {
        front,
        evaluations: warm_evaluations + result.evaluations,
        infeasible: warm_infeasible + result.infeasible,
        duration_s,
        convergence,
        threads,
    }
}

/// Cost of the cheapest *diagnosis-free* design: explores the functional
/// specification (no BIST profiles) and returns the minimum cost found.
/// This is the baseline of the paper's "+3.7 % of a design without
/// structural tests" headline.
///
/// # Errors
///
/// Returns [`AugmentError`](crate::augment::AugmentError) if the case
/// study's architecture cannot host the collection task (no gateway).
pub fn baseline_cost(
    case: &eea_model::CaseStudy,
    evaluations: usize,
    seed: u64,
    threads: usize,
) -> Result<f64, crate::augment::AugmentError> {
    let diag = crate::augment::augment(case, &[])?;
    let cfg = DseConfig {
        nsga2: Nsga2Config {
            population: 30.min(evaluations.max(2)),
            evaluations,
            seed,
            ..Nsga2Config::default()
        },
        threads,
        transport: TransportConfig::MirroredCan,
    };
    let res = explore(&diag, &cfg, |_, _| {});
    Ok(res
        .front
        .iter()
        .map(|e| e.objectives.cost)
        .fold(f64::INFINITY, f64::min))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::augment;
    use eea_bist::paper_table1;
    use eea_model::paper_case_study;

    fn quick_diag() -> DiagSpec {
        let case = paper_case_study();
        augment(&case, &paper_table1()[..4]).expect("gateway present")
    }

    #[test]
    fn small_exploration_produces_front() {
        let diag = quick_diag();
        let cfg = DseConfig {
            nsga2: Nsga2Config {
                population: 20,
                evaluations: 400,
                seed: 11,
                ..Nsga2Config::default()
            },
            threads: 1,
            ..DseConfig::default()
        };
        let res = explore(&diag, &cfg, |_, _| {});
        assert_eq!(res.evaluations, 400);
        assert_eq!(res.infeasible, 0, "SAT-decoding always feasible here");
        assert!(!res.front.is_empty());
        // The convergence curve is sampled per generation; evaluations are
        // monotone (archive size may shrink when one solution evicts
        // several dominated ones).
        assert!(!res.convergence.is_empty());
        assert!(res.convergence.windows(2).all(|w| w[0].0 <= w[1].0));
        // Every front implementation validates structurally.
        for e in &res.front {
            diag.spec
                .validate_implementation(&e.implementation)
                .expect("front implementations are valid");
        }
        // The front is mutually non-dominated on the minimised vectors.
        for a in &res.front {
            for b in &res.front {
                let va = a.objectives.to_minimized();
                let vb = b.objectives.to_minimized();
                if va != vb {
                    assert!(!eea_moea::dominates(&va, &vb) || !eea_moea::dominates(&vb, &va));
                }
            }
        }
    }

    #[test]
    fn exploration_discovers_quality_cost_tradeoff() {
        let diag = quick_diag();
        let cfg = DseConfig {
            nsga2: Nsga2Config {
                population: 30,
                evaluations: 900,
                seed: 5,
                ..Nsga2Config::default()
            },
            threads: 1,
            ..DseConfig::default()
        };
        let res = explore(&diag, &cfg, |_, _| {});
        let max_q = res
            .front
            .iter()
            .map(|e| e.objectives.test_quality)
            .fold(0.0, f64::max);
        let min_q = res
            .front
            .iter()
            .map(|e| e.objectives.test_quality)
            .fold(1.0, f64::min);
        assert!(max_q > 0.5, "exploration should find high-quality designs");
        assert!(min_q < max_q, "front spans a quality range");
    }

    #[test]
    fn baseline_is_cheaper_than_any_diagnosed_design() {
        let case = paper_case_study();
        let base = baseline_cost(&case, 600, 3, 1).expect("gateway present");
        assert!(base.is_finite() && base > 0.0);
        let diag = quick_diag();
        let cfg = DseConfig {
            nsga2: Nsga2Config {
                population: 20,
                evaluations: 400,
                seed: 5,
                ..Nsga2Config::default()
            },
            threads: 1,
            ..DseConfig::default()
        };
        let res = explore(&diag, &cfg, |_, _| {});
        let with_diag_min = res
            .front
            .iter()
            .filter(|e| e.objectives.test_quality > 0.0)
            .map(|e| e.objectives.cost)
            .fold(f64::INFINITY, f64::min);
        // Diagnosis costs at least the stored pattern memory.
        assert!(with_diag_min >= base - 1e-9);
    }

    #[test]
    fn decode_respects_genotype_length() {
        let diag = quick_diag();
        let mut problem = DseProblem::new(&diag);
        let n = problem.genotype_len();
        let genotype = vec![0.5; n];
        assert!(problem.decode(&genotype).is_some());
    }
}
