//! Frozen **schedule-derived** campaigns: the sibling of
//! `tests/fleet_frozen_report.rs` and `tests/fleet_gateway_frozen.rs`
//! for fleets whose shut-off windows are carved out of an ECU task
//! schedule instead of drawn flat. Every other frozen digest runs with
//! `task_set: None`, so without these pins nothing would notice a
//! `TaskSchedule` change that moves one window bit. Two campaigns are
//! pinned (headline counters + FNV-1a digest of the full report Debug
//! rendering):
//!
//! - the `fleet_sched_noisy` benchmark campaign: the mixed logic/SRAM
//!   trio, a 20 s / 60 s task set whose 45 s sporadic task never fits an
//!   idle slice (at most 16 s), and a noisy upload channel;
//! - the same trio under a busier task set whose sporadic minimum
//!   inter-arrivals are shorter than its idle segments, so sporadic
//!   arrivals really steal idle time — checked against the same campaign
//!   without sporadic tasks.
//!
//! Intentional semantic changes must re-freeze the constants and say why
//! in the commit.

use eea_fleet::{
    Campaign, CampaignConfig, ChannelConfig, CutConfig, CutFamily, CutModel, EcuSessionPlan,
    FleetReport, MarchTest, NoisyChannel, PeriodicTask, SporadicTask, SramConfig, TaskSetConfig,
    TransportKind, VehicleBlueprint,
};
use eea_model::ResourceId;

/// The benchmark campaign seed (`EEA_SEED` default in `eea-bench`).
const SEED: u64 = 2014;

/// Fleet size of the `fleet_sched_noisy` benchmark campaign.
const BENCH_VEHICLES: u32 = 50_000;
/// The benchmark campaign's frozen digest.
const FROZEN_BENCH_DIGEST: u64 = 0xC72B_79E6_1DB3_F047;
/// The benchmark campaign's frozen window count.
const FROZEN_BENCH_WINDOWS: u64 = 2_554_334;

/// Fleet size of the idle-stealing campaign.
const STEAL_VEHICLES: u32 = 50_000;
/// Horizon of the idle-stealing campaign, seconds (6 h): short enough
/// that the streaming blueprint's 1,500 s pattern transfer is still
/// running when it ends, so time lost to sporadic arrivals shows as less
/// BIST time. Over a day every vehicle finishes its work list and the
/// total BIST time no longer depends on the steal.
const STEAL_HORIZON_S: f64 = 21_600.0;
/// The idle-stealing campaign's frozen digest.
const FROZEN_STEAL_DIGEST: u64 = 0x9D9C_33E1_6E50_E82A;
/// The idle-stealing campaign's frozen window count.
const FROZEN_STEAL_WINDOWS: u64 = 8_711_379;

fn cut() -> CutModel {
    CutModel::build(CutConfig {
        gates: 100,
        patterns: 128,
        window: 16,
        ..CutConfig::default()
    })
    .unwrap_or_else(|e| panic!("substrate builds: {e}"))
}

fn sram() -> MarchTest {
    MarchTest::build(SramConfig::default()).unwrap_or_else(|e| panic!("SRAM builds: {e}"))
}

/// The benchmark's noisy upload channel: 5 % frame errors, 20 %
/// corruption, 10 % window loss, a 48-byte cap.
fn channel() -> ChannelConfig {
    ChannelConfig::Noisy(NoisyChannel {
        frame_error_rate: 0.05,
        corruption_rate: 0.2,
        window_loss_rate: 0.1,
        truncation_cap_bytes: 48,
        seed: 0x5C4E_D0CA_11ED_2014,
    })
}

/// The hand-built trio of the other frozen tests with the sessions on
/// ECUs 2 and 4 moved to the SRAM family, every blueprint running
/// `task_set` — the benchmark's `fleet_sched_noisy` fleet.
fn mixed_trio(task_set: &TaskSetConfig) -> Vec<VehicleBlueprint> {
    let plan = |ecu: usize, transfer_s: f64, upload_bw: f64| EcuSessionPlan {
        ecu: ResourceId::from_index(ecu),
        profile_id: 1,
        coverage: 0.99,
        session_s: 0.005,
        transfer_s,
        local_storage: transfer_s == 0.0,
        upload_bandwidth_bytes_per_s: upload_bw,
        family: if ecu == 2 || ecu == 4 {
            CutFamily::Sram
        } else {
            CutFamily::Logic
        },
    };
    let blueprint = |index: usize, sessions: Vec<EcuSessionPlan>, budget_s: f64| VehicleBlueprint {
        implementation_index: index,
        sessions,
        shutoff_budget_s: budget_s,
        transport: TransportKind::MirroredCan,
        channel: channel(),
        task_set: Some(task_set.clone()),
    };
    vec![
        blueprint(0, vec![plan(0, 0.0, 400.0), plan(1, 0.0, 150.0)], 900.0),
        blueprint(1, vec![plan(2, 1_500.0, 80.0)], 4_000.0),
        blueprint(
            2,
            vec![plan(3, f64::INFINITY, 0.0), plan(4, 300.0, 60.0)],
            2_000.0,
        ),
    ]
}

/// The benchmark's task set: periodic 20 s / 4 s and 60 s / 9 s (offset
/// 5 s), hyperperiod 60 s with idle slices of 1, 6, 16 and 16 s; one
/// sporadic task whose 45 s minimum inter-arrival no slice can hold; a
/// 5 s minimum BIST slice.
fn bench_task_set() -> TaskSetConfig {
    TaskSetConfig {
        periodic: vec![
            PeriodicTask {
                period_us: 20_000_000,
                offset_us: 0,
                wcet_us: 4_000_000,
                priority: 0,
            },
            PeriodicTask {
                period_us: 60_000_000,
                offset_us: 5_000_000,
                wcet_us: 9_000_000,
                priority: 1,
            },
        ],
        sporadic: vec![SporadicTask {
            min_interarrival_us: 45_000_000,
            wcet_us: 2_000_000,
            priority: 2,
        }],
        min_slice_s: 5.0,
    }
}

/// A busier task set whose sporadic minimum inter-arrivals (3 s and 9 s)
/// are shorter than its longer idle segments, so arrivals fit a slice and
/// steal from it: periodic 7 s / 2 s and 11 s / 3 s (hyperperiod 77 s),
/// sporadic 3 s / 0.5 s and 9 s / 1 s, a 0.5 s minimum slice.
fn stealing_task_set() -> TaskSetConfig {
    TaskSetConfig {
        periodic: vec![
            PeriodicTask {
                period_us: 7_000_000,
                offset_us: 0,
                wcet_us: 2_000_000,
                priority: 0,
            },
            PeriodicTask {
                period_us: 11_000_000,
                offset_us: 0,
                wcet_us: 3_000_000,
                priority: 1,
            },
        ],
        sporadic: vec![
            SporadicTask {
                min_interarrival_us: 3_000_000,
                wcet_us: 500_000,
                priority: 2,
            },
            SporadicTask {
                min_interarrival_us: 9_000_000,
                wcet_us: 1_000_000,
                priority: 3,
            },
        ],
        min_slice_s: 0.5,
    }
}

/// One-shot report of the mixed trio under `task_set`.
fn run(
    cut: &CutModel,
    sram: &MarchTest,
    task_set: &TaskSetConfig,
    config: CampaignConfig,
) -> FleetReport {
    let bp = mixed_trio(task_set);
    Campaign::with_models(cut, Some(sram), &bp, config)
        .unwrap_or_else(|e| panic!("valid campaign: {e}"))
        .run()
}

/// The campaign settings both pins share: the benchmark seed and an
/// automatic thread count, which the report must not depend on.
fn config() -> CampaignConfig {
    CampaignConfig {
        seed: SEED,
        threads: 0,
        ..CampaignConfig::default()
    }
}

/// FNV-1a 64 over the complete Debug rendering — identical convention to
/// `tests/fleet_frozen_report.rs`.
fn digest(report: &FleetReport) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in format!("{report:?}").bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[test]
fn sched_noisy_benchmark_campaign_is_frozen() {
    let config = CampaignConfig {
        vehicles: BENCH_VEHICLES,
        ..config()
    };
    let report = run(&cut(), &sram(), &bench_task_set(), config);
    assert_eq!(report.vehicles, BENCH_VEHICLES);
    assert_eq!(report.per_family.len(), 2, "both families detect");
    assert!(
        report.robustness.is_some(),
        "the noisy channel impairs uploads"
    );
    let d = digest(&report);
    assert_eq!(
        (report.windows_used, d),
        (FROZEN_BENCH_WINDOWS, FROZEN_BENCH_DIGEST),
        "schedule-derived benchmark campaign changed bit-for-bit (windows {}, digest {d:#018X}); \
         if intentional, re-freeze",
        report.windows_used
    );
}

#[test]
fn idle_stealing_campaign_is_frozen() {
    let cut = cut();
    let sram = sram();
    let stealing = stealing_task_set();
    let config = CampaignConfig {
        vehicles: STEAL_VEHICLES,
        horizon_s: STEAL_HORIZON_S,
        ..config()
    };
    let report = run(&cut, &sram, &stealing, config.clone());
    let quiet = TaskSetConfig {
        sporadic: Vec::new(),
        ..stealing.clone()
    };
    let baseline = run(&cut, &sram, &quiet, config);
    assert!(
        report.bist_time_s < baseline.bist_time_s,
        "sporadic arrivals must steal BIST time: {} vs {} without them",
        report.bist_time_s,
        baseline.bist_time_s
    );
    let d = digest(&report);
    assert_eq!(
        (report.windows_used, d),
        (FROZEN_STEAL_WINDOWS, FROZEN_STEAL_DIGEST),
        "idle-stealing campaign changed bit-for-bit (windows {}, digest {d:#018X}); \
         if intentional, re-freeze",
        report.windows_used
    );
}
