//! The DSE workloads: repeated `explore` runs, and a traced main-phase
//! drive through `eea_moea::run` with a serial replay that splits each
//! evaluation into solve, extract, objectives and archive offer.

use std::time::Instant;

use eea_bist::paper_table1;
use eea_dse::{
    augment, encode, evaluate_with_transport, explore, DiagSpec, DseConfig, DseProblem,
    ExploredImplementation, TransportConfig, EVAL_LANES,
};
use eea_model::paper_case_study;
use eea_moea::{dominates, hypervolume, Nsga2Config, ParetoArchive, Problem};
use eea_sat::SolveResult;

use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{
    derive_seed, ms_since, repeat_setup, setup_repeats, BenchError, Check, Measured, RunSpec, Size,
    THREADS,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Spec {
    /// All 36 Table I profiles on all 15 ECUs.
    Paper,
    /// The §IV-B baseline: no BIST profiles.
    Functional,
}

struct Params {
    /// Evaluation budget of one `explore` call.
    evaluations: usize,
    population: usize,
    /// Evaluation budget of the traced main-phase run.
    traced_evaluations: usize,
    /// SAT variables the encoding must have.
    sat_vars: usize,
}

fn params(spec: Spec, size: Size) -> Params {
    let sat_vars = match spec {
        Spec::Paper => 9_851,
        Spec::Functional => 671,
    };
    match (spec, size) {
        // ~3.5 s per explore at ~600 evals/s on one core, so a run's
        // throughput is a median over ~5 calls; the main phase is 1,600
        // evaluations, i.e. 16 generations.
        (Spec::Paper, Size::Full) => Params {
            evaluations: 2_000,
            population: 100,
            traced_evaluations: 1_500,
            sat_vars,
        },
        (Spec::Functional, Size::Full) => Params {
            evaluations: 10_000,
            population: 100,
            traced_evaluations: 10_000,
            sat_vars,
        },
        (_, Size::Tiny) => Params {
            evaluations: 240,
            population: 20,
            traced_evaluations: 100,
            sat_vars,
        },
    }
}

/// Bounds `(lo, hi)` of the minimised objectives `[cost, −quality,
/// shut-off s]` the hypervolume is normalised with. Cost spans both the
/// functional optimum (~404) and the dearest all-BIST design; shut-off
/// spans up to the transport layer's clamp of 86,400 s.
const HV_BOUNDS: [(f64, f64); 3] = [(300.0, 900.0), (-1.0, 0.0), (0.0, 90_000.0)];
/// Reference point of the normalised hypervolume. It lies beyond 1 so a
/// front with a single quality value (the functional spec) still spans a
/// volume.
const HV_REFERENCE: f64 = 1.1;

/// Normalised hypervolume of `front`; `Err` names the first point outside
/// [`HV_BOUNDS`].
fn normalized_hypervolume(front: &[Vec<f64>]) -> Result<f64, String> {
    let mut points = Vec::with_capacity(front.len());
    for p in front {
        let mut q = Vec::with_capacity(3);
        for (&x, &(lo, hi)) in p.iter().zip(&HV_BOUNDS) {
            if !(lo..=hi).contains(&x) {
                return Err(format!("point {p:?} lies outside the bounds {HV_BOUNDS:?}"));
            }
            q.push((x - lo) / (hi - lo));
        }
        points.push(q);
    }
    Ok(hypervolume(&points, &[HV_REFERENCE; 3]))
}

fn diag_spec(spec: Spec) -> Result<DiagSpec, BenchError> {
    let case = paper_case_study();
    let profiles = match spec {
        Spec::Paper => paper_table1(),
        Spec::Functional => Vec::new(),
    };
    Ok(augment(&case, &profiles)?)
}

pub(crate) fn run(spec: Spec, run: &RunSpec, tracer: &mut Tracer) -> Result<Measured, BenchError> {
    let p = params(spec, run.size);
    let mut m = Measured::new();

    // Set-up: the augmented specification and its SAT encoding.
    let mut encode_ms = Vec::new();
    let diag = repeat_setup(setup_repeats(run.size, 9), &mut m.setup_s, || {
        let diag = diag_spec(spec)?;
        let t = Instant::now();
        let vars = encode(&diag).solver.num_vars();
        encode_ms.push(ms_since(t));
        if vars != p.sat_vars {
            return Err(BenchError::Library(format!(
                "encoding has {vars} SAT variables, expected {}",
                p.sat_vars
            )));
        }
        Ok(diag)
    })?;
    m.layers.set(
        "core.encode_ms",
        percentile(&encode_ms, 50.0),
        encode_ms.len(),
    );

    explore_loop(&diag, &p, run.seed, run.untraced_seconds(), &mut m);
    if run.trace {
        traced_pass(&diag, &p, run.seed, tracer, &mut m)?;
        m.notes.push(
            "traced DSE pass: explore's warm-up phase is private, so the traced run \
drives only the main phase through eea_moea::run"
                .into(),
        );
    }
    Ok(m)
}

/// Repeats `explore` with derived seeds until `seconds` have passed (at
/// least once). The first front is checked and scored.
fn explore_loop(diag: &DiagSpec, p: &Params, seed: u64, seconds: f64, m: &mut Measured) {
    let start = Instant::now();
    let mut k = 0u64;
    loop {
        let cfg = DseConfig {
            nsga2: Nsga2Config {
                population: p.population,
                evaluations: p.evaluations,
                seed: derive_seed(seed, k),
                ..Nsga2Config::default()
            },
            threads: THREADS,
            ..DseConfig::default()
        };
        let t = Instant::now();
        let mut prev = (0usize, t);
        let result = explore(diag, &cfg, |evals, _| {
            let now = Instant::now();
            // Warm-up generations have a smaller population; only full
            // main-phase generations are ops.
            if evals - prev.0 == p.population {
                m.ops_ms.push((now - prev.1).as_secs_f64() * 1e3);
            }
            prev = (evals, now);
        });
        m.rates
            .push(result.evaluations as f64 / t.elapsed().as_secs_f64());
        m.items += result.evaluations as u64;
        m.failed += result.infeasible as u64;
        if k == 0 {
            check_front(diag, &result.front, m);
        }
        k += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    m.notes.push(format!(
        "{k} explore call(s) of {} evaluations, {THREADS} thread(s)",
        p.evaluations
    ));
    m.layers.set("dse.infeasible", m.failed as f64, k as usize);
}

fn check_front(diag: &DiagSpec, front: &[ExploredImplementation], m: &mut Measured) {
    let invalid = front
        .iter()
        .filter(|e| {
            diag.spec
                .validate_implementation(&e.implementation)
                .is_err()
        })
        .count();
    m.checks.push(Check::new(
        "front_entries_valid",
        invalid == 0 && !front.is_empty(),
        format!(
            "{invalid} of {} front entries fail validate_implementation",
            front.len()
        ),
    ));
    let vectors: Vec<Vec<f64>> = front.iter().map(|e| e.objectives.to_minimized()).collect();
    let dominated = vectors
        .iter()
        .filter(|a| vectors.iter().any(|b| dominates(b, a)))
        .count();
    m.checks.push(Check::new(
        "front_non_dominated",
        dominated == 0,
        format!("{dominated} front entries are dominated by another entry"),
    ));
    let extent = |i: usize| {
        vectors
            .iter()
            .map(|v| v[i])
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                (lo.min(x), hi.max(x))
            })
    };
    m.notes.push(format!(
        "first front: {} points, cost {:?}, -quality {:?}, shut-off s {:?}",
        vectors.len(),
        extent(0),
        extent(1),
        extent(2)
    ));
    match normalized_hypervolume(&vectors) {
        Ok(hv) => {
            m.quality = hv;
            m.checks
                .push(Check::new("hypervolume_in_bounds", true, format!("{hv}")));
        }
        Err(why) => m
            .checks
            .push(Check::new("hypervolume_in_bounds", false, why)),
    }
}

/// One evaluated batch: the genotypes and the objectives the MOEA got.
type Batch = (Vec<Vec<f64>>, Vec<Option<Vec<f64>>>);

/// A problem wrapper that times every `evaluate_batch` call and keeps the
/// genotypes and results, so the replay can re-run them lane by lane.
struct Recording<'d> {
    inner: DseProblem<'d>,
    batches: Vec<Batch>,
    batch_times: Vec<(Instant, Instant)>,
}

impl Problem for Recording<'_> {
    fn genotype_len(&self) -> usize {
        self.inner.genotype_len()
    }

    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn evaluate(&mut self, genotype: &[f64]) -> Option<Vec<f64>> {
        self.inner.evaluate(genotype)
    }

    fn evaluate_batch(&mut self, genotypes: &[Vec<f64>]) -> Vec<Option<Vec<f64>>> {
        let t0 = Instant::now();
        let results = self.inner.evaluate_batch(genotypes);
        self.batch_times.push((t0, Instant::now()));
        self.batches.push((genotypes.to_vec(), results.clone()));
        results
    }
}

fn traced_pass(
    diag: &DiagSpec,
    p: &Params,
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Measured,
) -> Result<(), BenchError> {
    // Main-phase drive: the corner seeds explore also injects, then NSGA-II.
    let inner = DseProblem::with_threads(diag, THREADS);
    let seeds = inner.corner_genotypes();
    let mut rec = Recording {
        inner,
        batches: Vec::new(),
        batch_times: Vec::new(),
    };
    let cfg = Nsga2Config {
        population: p.population,
        evaluations: p.traced_evaluations,
        seed: derive_seed(seed, u64::MAX),
        seeds,
        ..Nsga2Config::default()
    };
    let start = Instant::now();
    let mut generation_ends = vec![start];
    let result = eea_moea::run(&mut rec, &cfg, |_, _| generation_ends.push(Instant::now()));
    let end = Instant::now();
    let run_s = (end - start).as_secs_f64();
    m.traced_items = result.evaluations as u64;

    let run_span = tracer.record("dse.nsga2_run", None, start, end);
    let mut generation_ms = Vec::new();
    let mut batch_ms_total = 0.0;
    let mut batches = rec.batch_times.iter().peekable();
    for w in generation_ends.windows(2) {
        let gen = tracer.record("moea.generation", run_span, w[0], w[1]);
        generation_ms.push((w[1] - w[0]).as_secs_f64() * 1e3);
        while let Some(&&(b0, b1)) = batches.peek() {
            if b1 > w[1] {
                break;
            }
            tracer.record("dse.evaluate_batch", gen, b0, b1);
            batch_ms_total += (b1 - b0).as_secs_f64() * 1e3;
            batches.next();
        }
    }
    let gen_total: f64 = generation_ms.iter().sum();
    m.layers.set(
        "moea.self_share",
        1.0 - batch_ms_total / gen_total.max(f64::MIN_POSITIVE),
        generation_ms.len(),
    );
    m.layers.set(
        "moea.generation_ms_p50",
        percentile(&generation_ms, 50.0),
        generation_ms.len(),
    );
    m.layers.set(
        "moea.generation_ms_p90",
        percentile(&generation_ms, 90.0),
        generation_ms.len(),
    );
    m.layers
        .set("moea.archive_len", result.archive.len() as f64, 1);
    m.traced = Some((
        result.evaluations as f64 / run_s.max(f64::MIN_POSITIVE),
        percentile(&generation_ms, 50.0),
    ));

    // The end-of-run re-decode explore performs, on the primary solver.
    let redecode = tracer.open("core.redecode", None);
    let mut mismatch = 0usize;
    for e in result.archive.entries() {
        let same = rec.inner.decode(&e.payload).is_some_and(|x| {
            evaluate_with_transport(diag, &x, &TransportConfig::MirroredCan)
                .0
                .to_minimized()
                == e.objectives
        });
        mismatch += usize::from(!same);
    }
    tracer.close(redecode);
    m.layers.set(
        "core.redecode_mismatch",
        mismatch as f64,
        result.archive.len(),
    );

    replay(diag, &rec.batches, tracer, m);
    Ok(())
}

/// Serial replay of the recorded batches on fresh lane solvers: genotype
/// `i` of a batch on lane `i % EVAL_LANES`, as the lane scheme does, so
/// each evaluation reproduces the objectives the MOEA saw.
fn replay(diag: &DiagSpec, batches: &[Batch], tracer: &mut Tracer, m: &mut Measured) {
    let encoding = encode(diag);
    let mvars = encoding.mapping_vars();
    let n = mvars.len();
    let mut lanes: Vec<eea_sat::Solver> =
        (0..EVAL_LANES).map(|_| encoding.solver.clone()).collect();
    let mut archive: ParetoArchive<()> = ParetoArchive::new();
    let transport = TransportConfig::MirroredCan;

    let (mut solve_us, mut extract_us, mut objectives_us, mut offer_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut props, mut conflicts, mut mismatches) = (0u64, 0u64, 0usize);
    let mut total_us = 0.0;
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    let span = tracer.open("dse.replay", None);
    for (genotypes, results) in batches {
        for (i, (g, expected)) in genotypes.iter().zip(results).enumerate() {
            let lane = &mut lanes[i % EVAL_LANES];
            let t0 = Instant::now();
            for (j, &(_, _, v)) in mvars.iter().enumerate() {
                lane.set_priority(v, g[j].max(1e-9));
                lane.set_polarity(v, g[n + j] > 0.5);
            }
            let (p0, c0) = (lane.num_propagations(), lane.num_conflicts());
            let t1 = Instant::now();
            let sat = lane.solve() == SolveResult::Sat;
            let t2 = Instant::now();
            props += lane.num_propagations() - p0;
            conflicts += lane.num_conflicts() - c0;
            solve_us.push(us(t1, t2));
            let eval = tracer.record("dse.evaluation", span, t0, t2);
            tracer.record("sat.solve", eval, t1, t2);
            let mut t_end = t2;
            let got = if sat {
                let x = encoding.extract_model(lane, &diag.spec);
                let t3 = Instant::now();
                let v = evaluate_with_transport(diag, &x, &transport)
                    .0
                    .to_minimized();
                let t4 = Instant::now();
                archive.offer(v.clone(), ());
                let t5 = Instant::now();
                extract_us.push(us(t2, t3));
                objectives_us.push(us(t3, t4));
                offer_us.push(us(t4, t5));
                tracer.record("core.extract_model", eval, t2, t3);
                tracer.record("core.objectives", eval, t3, t4);
                tracer.record("moea.archive_offer", eval, t4, t5);
                t_end = t5;
                Some(v)
            } else {
                None
            };
            total_us += us(t0, t_end);
            mismatches += usize::from(got.as_ref() != expected.as_ref());
        }
    }
    tracer.close(span);

    let solves = solve_us.len();
    m.checks.push(Check::new(
        "replay_reproduces_objectives",
        mismatches == 0,
        format!("{mismatches} of {solves} replayed evaluations differ from the MOEA's"),
    ));
    let sum: f64 = solve_us.iter().sum();
    m.layers
        .set("sat.solve_us_p50", percentile(&solve_us, 50.0), solves);
    m.layers
        .set("sat.solve_us_p99", percentile(&solve_us, 99.0), solves);
    m.layers.set(
        "sat.solve_share",
        sum / total_us.max(f64::MIN_POSITIVE),
        solves,
    );
    m.layers.set(
        "sat.propagations_per_solve",
        props as f64 / solves.max(1) as f64,
        solves,
    );
    m.layers.set(
        "sat.conflicts_per_solve",
        conflicts as f64 / solves.max(1) as f64,
        solves,
    );
    let learned = lanes
        .iter()
        .map(eea_sat::Solver::num_learned)
        .max()
        .unwrap_or(0);
    m.layers.set("sat.learned_max", learned as f64, EVAL_LANES);
    // Last-decile over first-decile median solve time, in evaluation order.
    let decile = (solves / 10).max(1);
    let drift = percentile(&solve_us[solves.saturating_sub(decile)..], 50.0)
        / percentile(&solve_us[..decile.min(solves)], 50.0).max(f64::MIN_POSITIVE);
    m.layers.set("sat.solve_drift", drift, solves);
    m.layers.set(
        "core.extract_us_p50",
        percentile(&extract_us, 50.0),
        extract_us.len(),
    );
    m.layers.set(
        "core.objectives_us_p50",
        percentile(&objectives_us, 50.0),
        objectives_us.len(),
    );
    m.layers.set(
        "moea.archive_offer_us_p50",
        percentile(&offer_us, 50.0),
        offer_us.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypervolume_rejects_out_of_bound_points() {
        assert!(normalized_hypervolume(&[vec![950.0, -0.5, 10.0]]).is_err());
        let hv = normalized_hypervolume(&[vec![300.0, -1.0, 0.0]]).unwrap();
        assert!((hv - 1.1f64.powi(3)).abs() < 1e-12);
    }
}
