//! Ablation: SAT-decoding vs naive rejection sampling.
//!
//! SAT-decoding turns *every* genotype into a feasible implementation by
//! constraint propagation and conflict repair. The alternative — sampling
//! random bindings and rejecting infeasible ones — wastes almost all of
//! its draws on the case study's constraint structure (routing, (2h),
//! (3a)/(3b) couplings). This bench measures time *per feasible
//! implementation* for both strategies.

use criterion::{criterion_group, criterion_main, Criterion};
use eea_bench::paper_diag_spec;
use eea_bist::paper_table1;
use eea_dse::{augment, DseProblem};
use eea_model::{paper_case_study, Implementation};
use eea_moea::{Problem, Rng};

/// Naive baseline: bind every task to a uniformly random mapping option,
/// route greedily along shortest paths, and check validity.
fn rejection_sample(diag: &eea_dse::DiagSpec, rng: &mut Rng) -> Option<Implementation> {
    let spec = &diag.spec;
    let mut x = Implementation::new();
    for t in spec.application.task_ids() {
        let opts = spec.mapping_options(t);
        if opts.is_empty() {
            continue;
        }
        let diagnostic = spec.application.task(t).kind.is_diagnostic();
        if diagnostic && rng.chance(0.5) {
            continue; // diagnostic tasks are optional
        }
        x.bind(t, opts[rng.below(opts.len())]);
    }
    // Greedy shortest-path routing.
    for m in spec.application.message_ids() {
        let msg = spec.application.message(m);
        let Some(src) = x.binding_of(msg.sender) else {
            continue;
        };
        let mut route = vec![src];
        for rec in &msg.receivers {
            if let Some(dst) = x.binding_of(*rec) {
                // BFS path src->dst.
                let mut prev = vec![None; spec.architecture.num_resources()];
                let mut queue = std::collections::VecDeque::from([src]);
                prev[src.index()] = Some(src);
                while let Some(r) = queue.pop_front() {
                    for &n in spec.architecture.neighbors(r) {
                        if prev[n.index()].is_none() {
                            prev[n.index()] = Some(r);
                            queue.push_back(n);
                        }
                    }
                }
                let mut cur = dst;
                while cur != src {
                    if !route.contains(&cur) {
                        route.push(cur);
                    }
                    cur = prev[cur.index()]?;
                }
            }
        }
        x.route(m, route);
    }
    spec.validate_implementation(&x).ok()?;
    // The encoding's extra constraints: (3a), (3b), (2h).
    for ecu in diag.bist_ecus() {
        if diag
            .options_of(ecu)
            .filter(|o| x.binding_of(o.test).is_some())
            .count()
            > 1
        {
            return None;
        }
    }
    for o in &diag.options {
        if x.binding_of(o.test).is_some() != x.binding_of(o.data).is_some() {
            return None;
        }
        for task in [o.test, o.data] {
            if let Some(r) = x.binding_of(task) {
                if !x
                    .tasks_on(r)
                    .any(|t| !spec.application.task(t).kind.is_diagnostic())
                {
                    return None;
                }
            }
        }
    }
    Some(x)
}

fn bench_decoding_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("feasible_implementation");
    group.sample_size(10);

    // SAT-decoding on the full case study.
    let (_case, diag) = paper_diag_spec().expect("paper case study augments");
    let mut problem = DseProblem::new(&diag);
    let n = problem.genotype_len();
    let mut rng = Rng::new(7);
    group.bench_function("sat_decoding_full", |b| {
        b.iter(|| {
            let genotype: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
            problem.decode(&genotype).expect("always feasible")
        })
    });

    // Rejection sampling: time per *attempt*. The yield (attempts that
    // produce a feasible implementation) is reported below — it is so low
    // that benchmarking time-per-success would not terminate, which is the
    // ablation's whole point.
    let case = paper_case_study();
    let small = augment(&case, &paper_table1()[..2]).expect("gateway present");
    let mut rng2 = Rng::new(7);
    group.bench_function("rejection_sampling_one_attempt", |b| {
        b.iter(|| rejection_sample(&small, &mut rng2))
    });

    group.finish();

    // Report the rejection yield once.
    let mut rng3 = Rng::new(99);
    let tries = 5_000;
    let ok = (0..tries)
        .filter(|_| rejection_sample(&small, &mut rng3).is_some())
        .count();
    eprintln!(
        "rejection-sampling yield on the reduced 2-profile instance: {ok}/{tries}          ({}); SAT-decoding yield: 100 %",
        if ok == 0 {
            "< 0.02 %".to_string()
        } else {
            format!("{:.2} %", ok as f64 / tries as f64 * 100.0)
        }
    );
}

criterion_group!(benches, bench_decoding_strategies);
criterion_main!(benches);
