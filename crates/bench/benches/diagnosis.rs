//! Diagnosis engine: one-pass dictionary build vs serial per-fault
//! replay, and the shared ranking engine on both of its key types —
//! indexed lookup vs the linear Jaccard scan, plus the summary lookup
//! the fleet's gateway makes — for the logic `Diagnoser` (window keys)
//! and the SRAM `MarchTest` (`(element, syndrome)` keys).
//!
//! Mirrors the `dict_speedup_vs_serial` / `diagnose_lookup_s` numbers
//! that `fleet_campaign` records in `BENCH_fleet.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use eea_bist::{Diagnoser, MarchTest, SessionTable, SramConfig, StumpsSession};
use eea_faultsim::FaultUniverse;
use eea_netlist::{synthesize, ScanChains, SynthConfig};

const LFSR_SEED: u64 = 0xACE1;
const WINDOW: u64 = 16;
const PATTERNS: u64 = 128;

fn substrate() -> (eea_netlist::Circuit, ScanChains) {
    let cut = synthesize(&SynthConfig {
        gates: 100,
        inputs: 16,
        dffs: 32,
        seed: 0xC07,
        ..SynthConfig::default()
    })
    .expect("synthesizes");
    let chains = ScanChains::balanced(&cut, 4).expect("at least one chain");
    (cut, chains)
}

fn bench_dict_build(c: &mut Criterion) {
    let (cut, chains) = substrate();
    let mut group = c.benchmark_group("diagnosis");
    group.sample_size(10);

    group.bench_function("dict_build_serial_replay", |b| {
        b.iter(|| SessionTable::build_serial_replay(&cut, &chains, LFSR_SEED, WINDOW, PATTERNS))
    });
    group.bench_function("dict_build_one_pass_1_thread", |b| {
        b.iter(|| SessionTable::build(&cut, &chains, LFSR_SEED, WINDOW, PATTERNS, 1))
    });
    group.bench_function("dict_build_one_pass_all_threads", |b| {
        b.iter(|| SessionTable::build(&cut, &chains, LFSR_SEED, WINDOW, PATTERNS, 0))
    });

    group.finish();

    // Lookup: rank every session fail payload against the dictionary.
    let (faults, _, detect_windows, windows) =
        SessionTable::build(&cut, &chains, LFSR_SEED, WINDOW, PATTERNS, 0).into_parts();
    let diagnoser = Diagnoser::from_detect_windows(faults, detect_windows, windows);
    let session = StumpsSession::new(&cut, &chains, LFSR_SEED, WINDOW);
    let golden = session.run_golden(PATTERNS);
    let universe = FaultUniverse::collapsed(&cut);
    let payloads: Vec<_> = (0..universe.num_faults())
        .map(|i| session.run_with_fault(universe.fault(i), &golden))
        .collect();
    let (d, p) = (&diagnoser, &payloads);
    let summary = |i: usize| d.diagnose_summary(universe.fault(i), &p[i]);
    let lookups: [(&str, &dyn Fn(usize) -> usize); 3] = [
        ("lookup_linear", &|i| d.diagnose_linear(&p[i]).len()),
        ("lookup_indexed", &|i| d.diagnose(&p[i]).len()),
        ("lookup_summary", &|i| summary(i).candidates),
    ];
    bench_lookups(c, p.len(), lookups);

    // The same lookups on the SRAM family: every fault's own March C-
    // fail data at the default 64×16 geometry, against all 5,119 faults.
    let m = MarchTest::build(SramConfig::default()).expect("default geometry is valid");
    let faults = m.detectable_faults();
    let p: Vec<_> = faults.iter().map(|&i| m.fail_data(i)).collect();
    let summary = |i: usize| m.diagnose_summary(faults[i], p[i]);
    let lookups: [(&str, &dyn Fn(usize) -> usize); 3] = [
        ("sram_lookup_linear", &|i| m.diagnose_linear(p[i]).len()),
        ("sram_lookup_indexed", &|i| m.diagnose(p[i]).len()),
        ("sram_lookup_summary", &|i| summary(i).candidates),
    ];
    bench_lookups(c, p.len(), lookups);
}

/// Times each lookup over payloads `0..payloads`, every payload once.
fn bench_lookups(
    c: &mut Criterion,
    payloads: usize,
    lookups: [(&str, &dyn Fn(usize) -> usize); 3],
) {
    let mut group = c.benchmark_group("diagnosis");
    group.sample_size(10);
    for (name, lookup) in lookups {
        group.bench_function(name, |b| {
            b.iter(|| (0..payloads).map(lookup).sum::<usize>())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dict_build);
criterion_main!(benches);
