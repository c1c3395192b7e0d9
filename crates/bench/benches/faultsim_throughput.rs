//! Ablation: bit-parallel PPSFP vs a naive serial (one pattern at a time)
//! fault simulation, plus the wide-word (512-bit block) vs classic u64
//! pattern-word comparison. The pattern-parallelism is what makes BIST
//! profile generation tractable.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use eea_faultsim::{
    FaultSim, FaultUniverse, ParFaultSim, PatternBlock, WideFaultSim, WidePatternBlock,
};
use eea_netlist::{synthesize, SynthConfig};

fn random_block<const L: usize>(
    c: &eea_netlist::Circuit,
    rng: &mut u64,
    count: usize,
) -> WidePatternBlock<L> {
    let mut block = WidePatternBlock::<L>::zeroed(c, count);
    block.fill_words(|| {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng
    });
    block
}

fn bench_parallel_vs_serial(c: &mut Criterion) {
    let circuit = synthesize(&SynthConfig {
        gates: 600,
        inputs: 24,
        dffs: 48,
        seed: 0xFA57,
        ..SynthConfig::default()
    })
    .expect("synthesizes");

    let mut group = c.benchmark_group("faultsim_64_patterns");
    group.sample_size(20);

    group.bench_function("bit_parallel_block", |b| {
        let mut sim = FaultSim::new(&circuit);
        let mut rng = 0x1234u64;
        b.iter(|| {
            let mut universe = FaultUniverse::collapsed(&circuit);
            let block = random_block(&circuit, &mut rng, 64);
            sim.detect_block(&block, &mut universe)
        })
    });

    group.bench_function("serial_single_patterns", |b| {
        let mut sim = FaultSim::new(&circuit);
        let mut rng = 0x1234u64;
        b.iter(|| {
            let mut universe = FaultUniverse::collapsed(&circuit);
            let mut total = 0;
            for _ in 0..64 {
                let block = random_block(&circuit, &mut rng, 1);
                total += sim.detect_block(&block, &mut universe);
            }
            total
        })
    });

    group.finish();
}

/// Worklist-parallel PPSFP at 1/2/4/8 worker threads. Detection results are
/// bit-identical across the sweep; only the wall clock moves (bounded by the
/// machine's core count).
fn bench_thread_sweep(c: &mut Criterion) {
    let circuit = synthesize(&SynthConfig {
        gates: 2_000,
        inputs: 32,
        dffs: 96,
        seed: 0xFA58,
        ..SynthConfig::default()
    })
    .expect("synthesizes");

    let mut group = c.benchmark_group("faultsim_thread_sweep");
    group.sample_size(10);

    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("threads_{threads}"), |b| {
            let mut sim = ParFaultSim::new(&circuit, threads);
            let mut rng = 0x5EEDu64;
            b.iter(|| {
                let mut universe = FaultUniverse::collapsed(&circuit);
                let block = random_block(&circuit, &mut rng, 64);
                sim.detect_block(&block, &mut universe)
            })
        });
    }

    group.finish();
}

/// PPSFP forward-evaluation bench on a c1355-sized circuit (ISCAS-85
/// c1355: ~1,355 equivalent gates, 41 inputs). Each wide-vs-narrow pair
/// pushes the same 512 patterns through the collapsed fault universe per
/// iteration — once as a single 8-lane block, once as eight classic
/// 64-pattern `u64` blocks — so the per-iteration wall-clock ratio is the
/// per-pattern speedup of the wide word.
///
/// Two workloads:
///
/// * `full_masks_*` — the simulate stage of BIST profile generation
///   (`detect_block_with_positions` semantics): every fault's complete
///   detection mask, no early exit. Every cone is walked to exhaustion,
///   so the wide word's per-gate amortization shows in full.
/// * `detect_*` — the adaptive coverage scan (`detect_block`): walks
///   truncate at the first detecting pattern and detected faults leave
///   the worklist. Most faults are caught within the first 64 patterns,
///   where both word widths do identical truncated work, so the wide
///   win is structurally smaller here (see EXPERIMENTS.md).
fn bench_c1355_forward_eval(c: &mut Criterion) {
    let circuit = synthesize(&SynthConfig {
        gates: 1_355,
        inputs: 41,
        dffs: 64,
        seed: 0xC1355,
        ..SynthConfig::default()
    })
    .expect("synthesizes");

    let mut group = c.benchmark_group("ppsfp_c1355");
    group.sample_size(10);

    group.bench_function("full_masks_512_patterns_wide8", |b| {
        let mut sim = FaultSim::new(&circuit);
        let universe = FaultUniverse::collapsed(&circuit);
        let mut rng = 0xC135_5EEDu64;
        let block = random_block(&circuit, &mut rng, PatternBlock::CAPACITY);
        sim.run_good(&block);
        b.iter(|| {
            let mut acc = 0u64;
            for fi in 0..universe.num_faults() {
                let mask = sim.detect_mask(universe.fault(fi), &block, false);
                acc = acc.wrapping_add(mask.lanes()[0]);
            }
            acc
        })
    });
    group.bench_function("full_masks_512_patterns_narrow_u64", |b| {
        let mut sim = WideFaultSim::<1>::new(&circuit);
        let universe = FaultUniverse::collapsed(&circuit);
        let mut rng = 0xC135_5EEDu64;
        let blocks: Vec<_> = (0..PatternBlock::CAPACITY / 64)
            .map(|_| random_block::<1>(&circuit, &mut rng, 64))
            .collect();
        b.iter(|| {
            let mut acc = 0u64;
            // The u64 path re-runs the good machine per 64-pattern block;
            // that is part of pushing 512 patterns through a narrow word.
            for block in &blocks {
                sim.run_good(block);
                for fi in 0..universe.num_faults() {
                    let mask = sim.detect_mask(universe.fault(fi), block, false);
                    acc = acc.wrapping_add(mask.lanes()[0]);
                }
            }
            acc
        })
    });

    // Universe collapse and pattern generation are identical on both
    // sides and independent of the word width, so they are built untimed
    // (`iter_batched`) — the timed region is pure fault simulation.
    group.bench_function("detect_512_patterns_wide8", |b| {
        let mut sim = FaultSim::new(&circuit);
        let mut rng = 0xC135_5EEDu64;
        b.iter_batched(
            || {
                let universe = FaultUniverse::collapsed(&circuit);
                let block = random_block(&circuit, &mut rng, PatternBlock::CAPACITY);
                (universe, block)
            },
            |(mut universe, block)| sim.detect_block(&block, &mut universe),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("detect_512_patterns_narrow_u64", |b| {
        let mut sim = WideFaultSim::<1>::new(&circuit);
        let mut rng = 0xC135_5EEDu64;
        b.iter_batched(
            || {
                let universe = FaultUniverse::collapsed(&circuit);
                let blocks: Vec<_> = (0..PatternBlock::CAPACITY / 64)
                    .map(|_| random_block::<1>(&circuit, &mut rng, 64))
                    .collect();
                (universe, blocks)
            },
            |(mut universe, blocks)| {
                let mut total = 0;
                for block in &blocks {
                    total += sim.detect_block(block, &mut universe);
                }
                total
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_vs_serial,
    bench_thread_sweep,
    bench_c1355_forward_eval
);
criterion_main!(benches);
