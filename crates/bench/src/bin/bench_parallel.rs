//! Thread-scaling sweep of the two parallel evaluation engines:
//!
//! * worklist-parallel PPSFP fault simulation ([`eea_faultsim::ParFaultSim`]),
//! * lane-based SAT-decoding DSE evaluation ([`eea_dse::DseProblem`]).
//!
//! Each engine runs the same workload at 1/2/4/8 worker threads and the
//! results are checked to be bit-identical across the sweep before any
//! timing is reported. Timings land in `BENCH_parallel.json` (machine
//! readable, includes the machine's core count — speedups saturate at the
//! physical parallelism available, so a 1-core container reports ~1x).
//!
//! ```text
//! cargo run -p eea-bench --bin bench_parallel --release
//! EEA_BENCH_BLOCKS=64 EEA_BENCH_BATCHES=8 cargo run -p eea-bench --bin bench_parallel --release
//! ```

use std::error::Error;
use std::time::Instant;

use eea_bench::{env_usize, paper_diag_spec, write_artifact, Json};
use eea_dse::{DseProblem, EeaError, EVAL_LANES};
use eea_faultsim::{FaultUniverse, ParFaultSim, PatternBlock, DEFAULT_LANES};
use eea_moea::{Problem, Rng};
use eea_netlist::{synthesize, Circuit, SynthConfig};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

struct SweepPoint {
    threads: usize,
    seconds: f64,
    /// Work items per second (pattern blocks or genotype evaluations).
    throughput: f64,
}

fn random_block(c: &Circuit, rng: &mut u64, count: usize) -> PatternBlock {
    let mut block = PatternBlock::zeroed(c, count);
    block.fill_words(|| {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng
    });
    block
}

/// One faultsim workload: a fresh collapsed universe pushed through `blocks`
/// full-width pattern blocks. Returns the per-block detection counts (the
/// determinism fingerprint).
fn faultsim_workload(
    circuit: &Circuit,
    sim: &mut ParFaultSim,
    blocks: usize,
) -> Vec<usize> {
    let mut universe = FaultUniverse::collapsed(circuit);
    let mut rng = 0x5EEDu64;
    (0..blocks)
        .map(|_| {
            let block = random_block(circuit, &mut rng, PatternBlock::CAPACITY);
            sim.detect_block(&block, &mut universe)
        })
        .collect()
}

fn faultsim_sweep(blocks: usize) -> Result<(Vec<SweepPoint>, bool), EeaError> {
    let circuit = synthesize(&SynthConfig {
        gates: 2_000,
        inputs: 32,
        dffs: 96,
        seed: 0xFA58,
        ..SynthConfig::default()
    })?;
    let mut points = Vec::new();
    let mut reference: Option<Vec<usize>> = None;
    let mut identical = true;
    for &threads in &THREAD_SWEEP {
        let mut sim = ParFaultSim::new(&circuit, threads);
        faultsim_workload(&circuit, &mut sim, blocks); // warm-up
        let start = Instant::now();
        let fingerprint = faultsim_workload(&circuit, &mut sim, blocks);
        let seconds = start.elapsed().as_secs_f64();
        match &reference {
            None => reference = Some(fingerprint),
            Some(r) => identical &= *r == fingerprint,
        }
        points.push(SweepPoint {
            threads,
            seconds,
            throughput: blocks as f64 / seconds,
        });
        eprintln!(
            "faultsim  threads={threads}: {blocks} blocks in {seconds:.3} s"
        );
    }
    Ok((points, identical))
}

fn dse_sweep(batches: usize) -> Result<(Vec<SweepPoint>, bool), EeaError> {
    let (_case, diag) = paper_diag_spec()?;
    let mut points = Vec::new();
    let mut reference: Option<Vec<Option<Vec<f64>>>> = None;
    let mut identical = true;
    for &threads in &THREAD_SWEEP {
        let mut problem = DseProblem::with_threads(&diag, threads);
        let n = problem.genotype_len();
        let mut rng = Rng::new(0xD5E);
        let inputs: Vec<Vec<Vec<f64>>> = (0..batches)
            .map(|_| {
                (0..EVAL_LANES)
                    .map(|_| (0..n).map(|_| rng.unit()).collect())
                    .collect()
            })
            .collect();
        problem.evaluate_batch(&inputs[0]); // warm-up
        let mut problem = DseProblem::with_threads(&diag, threads);
        let start = Instant::now();
        let mut outputs = Vec::new();
        for batch in &inputs {
            outputs.extend(problem.evaluate_batch(batch));
        }
        let seconds = start.elapsed().as_secs_f64();
        let evals = batches * EVAL_LANES;
        match &reference {
            None => reference = Some(outputs),
            Some(r) => identical &= *r == outputs,
        }
        points.push(SweepPoint {
            threads,
            seconds,
            throughput: evals as f64 / seconds,
        });
        eprintln!(
            "dse       threads={threads}: {evals} evaluations in {seconds:.3} s"
        );
    }
    Ok((points, identical))
}

/// One engine's section: the determinism flag and the timed points, with
/// throughput in `unit`s per second and speedup over the 1-thread point.
fn sweep_json(unit: &str, points: &[SweepPoint], identical: bool) -> Json {
    let base = points[0].seconds;
    let throughput_key = format!("{unit}_per_s");
    let sweep = points
        .iter()
        .map(|p| {
            Json::obj([
                ("threads", p.threads.into()),
                ("seconds", p.seconds.into()),
                (throughput_key.as_str(), p.throughput.into()),
                ("speedup_vs_1_thread", (base / p.seconds).into()),
            ])
        })
        .collect();
    Json::obj([
        ("bit_identical_across_sweep", identical.into()),
        ("sweep", Json::Arr(sweep)),
    ])
}

fn main() -> Result<(), Box<dyn Error>> {
    let blocks = env_usize("EEA_BENCH_BLOCKS", 32);
    let batches = env_usize("EEA_BENCH_BATCHES", 4);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("machine: {cores} core(s) available\n");

    let (fs_points, fs_identical) = faultsim_sweep(blocks)?;
    let (dse_points, dse_identical) = dse_sweep(batches)?;
    assert!(fs_identical, "faultsim results diverged across thread counts");
    assert!(dse_identical, "dse results diverged across thread counts");

    let json = Json::obj([
        ("machine_cores", cores.into()),
        ("word_bits", PatternBlock::CAPACITY.into()),
        ("lanes", DEFAULT_LANES.into()),
        (
            "workload",
            Json::obj([
                ("faultsim_blocks", blocks.into()),
                ("dse_batches", batches.into()),
                ("dse_batch_size", EVAL_LANES.into()),
            ]),
        ),
        ("faultsim", sweep_json("blocks", &fs_points, fs_identical)),
        ("dse", sweep_json("evals", &dse_points, dse_identical)),
    ])
    .pretty();
    println!("{json}");
    let path = write_artifact("BENCH_parallel.json", &json)?;
    println!("wrote {}", path.display());
    Ok(())
}
