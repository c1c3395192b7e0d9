//! Evaluation throughput of the exploration inner loop — the quantity
//! behind the paper's "100,000 implementations in roughly 29 minutes".
//!
//! One iteration = decode a genotype through the SAT solver + evaluate all
//! three objectives, on the full case study (36 profiles x 15 ECUs).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use eea_bench::paper_diag_spec;
use eea_dse::{DseConfig, DseProblem};
use eea_moea::{Problem, Rng};

fn bench_decode_evaluate(c: &mut Criterion) {
    let (_case, diag) = paper_diag_spec().expect("paper case study augments");
    let mut problem = DseProblem::new(&diag);
    let n = problem.genotype_len();
    let mut rng = Rng::new(0xD5E);

    c.bench_function("dse_decode_and_evaluate_full_case_study", |b| {
        b.iter_batched(
            || (0..n).map(|_| rng.unit()).collect::<Vec<f64>>(),
            |genotype| problem.evaluate(&genotype).expect("feasible"),
            BatchSize::SmallInput,
        )
    });
}

fn bench_encode(c: &mut Criterion) {
    let (_case, diag) = paper_diag_spec().expect("paper case study augments");
    c.bench_function("dse_encode_full_case_study", |b| {
        b.iter(|| eea_dse::encode(&diag))
    });
}

/// Batched decode+evaluate at 1/2/4/8 worker threads, one NSGA-II
/// generation (`explore`'s population of 100 offspring) per iteration, so
/// every lane decodes several genotypes in a row and the timing sees the
/// decode order. The lane scheme keeps the objective vectors bit-identical
/// across the sweep.
fn bench_thread_sweep(c: &mut Criterion) {
    let (_case, diag) = paper_diag_spec().expect("paper case study augments");
    let population = DseConfig::default().nsga2.population;
    let mut group = c.benchmark_group("dse_thread_sweep");
    group.sample_size(10);

    for threads in [1usize, 2, 4, 8] {
        let mut problem = DseProblem::with_threads(&diag, threads);
        let n = problem.genotype_len();
        let mut rng = Rng::new(0xD5E);
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter_batched(
                || {
                    (0..population)
                        .map(|_| (0..n).map(|_| rng.unit()).collect::<Vec<f64>>())
                        .collect::<Vec<_>>()
                },
                |batch| problem.evaluate_batch(&batch),
                BatchSize::SmallInput,
            )
        });
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_decode_evaluate, bench_encode, bench_thread_sweep
}
criterion_main!(benches);
