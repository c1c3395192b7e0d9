//! Cost of generating one Table I profile group (the LFSR grading plus
//! ATPG top-off pipeline of `eea-bist`).

use criterion::{criterion_group, criterion_main, Criterion};
use eea_bist::{generate_profiles, CoverageTarget, ProfileConfig};
use eea_netlist::{synthesize, SynthConfig};

fn bench_profile_generation(c: &mut Criterion) {
    let cut = synthesize(&SynthConfig {
        gates: 300,
        inputs: 16,
        dffs: 32,
        seed: 0xC07,
        ..SynthConfig::default()
    })
    .expect("synthesizes");

    let mut group = c.benchmark_group("bist_profile_generation");
    group.sample_size(10);
    for prps in [128u64, 1024] {
        group.bench_function(format!("one_group_{prps}_prps"), |b| {
            let cfg = ProfileConfig {
                prp_counts: vec![prps],
                targets: vec![CoverageTarget::Max, CoverageTarget::OfMax(0.95)],
                num_chains: 8,
                ..ProfileConfig::default()
            };
            b.iter(|| generate_profiles(&cut, &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_profile_generation);
criterion_main!(benches);
