//! Campaign throughput of the fleet engine — vehicles simulated per
//! second, the quantity `BENCH_fleet.json` reports at full scale.
//!
//! One iteration = a complete 2,000-vehicle campaign (seeding, per-vehicle
//! timelines, gateway aggregation) over a reduced CUT. The blueprints are
//! the shared [`eea_bench::trio`]: one all-local implementation, one
//! gateway-streaming, one with a dead session, so the timeline exercises
//! every work-queue path. The thread sweep reuses the identical workload —
//! the engine's determinism contract makes the reports bit-identical, so
//! the sweep measures scheduling overhead only.

use criterion::{criterion_group, criterion_main, Criterion};
use eea_bench::trio;
use eea_fleet::{Campaign, CampaignConfig, ChannelConfig, CutConfig, CutModel};

const VEHICLES: u32 = 2_000;

fn cut() -> CutModel {
    CutModel::build(CutConfig {
        gates: 100,
        patterns: 128,
        window: 16,
        ..CutConfig::default()
    })
    .expect("substrate builds")
}

fn campaign_config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        vehicles: VEHICLES,
        defect_fraction: 0.2,
        seed: 0xF1EE7,
        threads,
        ..CampaignConfig::default()
    }
}

/// Serial campaign throughput: the baseline vehicles/s number.
fn bench_campaign_serial(c: &mut Criterion) {
    let cut = cut();
    let bp = trio(false, None, ChannelConfig::Clean);
    c.bench_function(format!("fleet_campaign_{VEHICLES}_vehicles_serial"), |b| {
        b.iter(|| {
            Campaign::new(&cut, &bp, campaign_config(1))
                .expect("valid campaign")
                .run()
        })
    });
}

/// The same workload at 1/2/4/8 worker threads (reports stay
/// bit-identical; only wall-clock moves).
fn bench_campaign_thread_sweep(c: &mut Criterion) {
    let cut = cut();
    let bp = trio(false, None, ChannelConfig::Clean);
    let mut group = c.benchmark_group("fleet_thread_sweep");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                Campaign::new(&cut, &bp, campaign_config(threads))
                    .expect("valid campaign")
                    .run()
            })
        });
    }
    group.finish();
}

/// Snapshot-only throughput at 1/2/4/8 diagnosis threads: the fleet is
/// fed **once** into one gateway per thread count, so the group isolates
/// the sort → diagnose → fold stages of `GatewayService::snapshot_at`
/// (DESIGN.md §10). Diagnoses are cached across snapshots, so after the
/// first iteration this measures what a repeated horizon snapshot costs.
/// Reports stay bit-identical across the sweep.
fn bench_aggregation_thread_sweep(c: &mut Criterion) {
    let cut = cut();
    let bp = trio(false, None, ChannelConfig::Clean);
    let mut group = c.benchmark_group("fleet_aggregation");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let campaign = Campaign::new(&cut, &bp, campaign_config(threads)).expect("valid campaign");
        let mut svc = campaign.gateway();
        campaign.feed(&mut svc).expect("provisioned for the fleet");
        let horizon_s = campaign.config().horizon_s;
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| svc.snapshot_at(horizon_s))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_campaign_serial, bench_campaign_thread_sweep, bench_aggregation_thread_sweep
}
criterion_main!(benches);
