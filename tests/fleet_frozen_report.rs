//! Frozen-report regression for the fleet campaign pipeline: a
//! 100 000-vehicle campaign at the benchmark seed is pinned **bit-for-bit**
//! — headline counters exactly, plus an FNV-1a digest of the full
//! `FleetReport` Debug rendering (covering every finding, latency
//! percentile, coverage point and per-ECU row). Any change to the
//! simulate/sort/diagnose/fold pipeline that alters even one bit of the
//! report fails this test; intentional semantic changes must re-freeze the
//! constants below and say why in the commit.

use std::sync::OnceLock;

use eea_fleet::{
    Campaign, CampaignConfig, ChannelConfig, CutConfig, CutFamily, CutModel, EcuSessionPlan,
    FleetReport, GatewayConfig, GatewayService, TransportKind, VehicleBlueprint,
};
use eea_model::ResourceId;

/// The benchmark campaign seed (`EEA_SEED` default in `eea-bench`).
const SEED: u64 = 2014;
const VEHICLES: u32 = 100_000;

fn cut() -> CutModel {
    CutModel::build(CutConfig {
        gates: 100,
        patterns: 128,
        window: 16,
        ..CutConfig::default()
    })
    .unwrap_or_else(|e| panic!("substrate builds: {e}"))
}

/// Same hand-built trio as `tests/fleet_determinism.rs`: local-storage
/// fast path, gateway-streaming path, and a blueprint whose first session
/// can never complete.
fn blueprints() -> Vec<VehicleBlueprint> {
    let plan = |ecu: usize, transfer_s: f64, upload_bw: f64| EcuSessionPlan {
        ecu: ResourceId::from_index(ecu),
        profile_id: 1,
        coverage: 0.99,
        session_s: 0.005,
        transfer_s,
        local_storage: transfer_s == 0.0,
        upload_bandwidth_bytes_per_s: upload_bw,
        family: CutFamily::Logic,
    };
    vec![
        VehicleBlueprint {
            implementation_index: 0,
            sessions: vec![plan(0, 0.0, 400.0), plan(1, 0.0, 150.0)],
            shutoff_budget_s: 900.0,
            transport: TransportKind::MirroredCan,
            channel: ChannelConfig::Clean,
            task_set: None,
        },
        VehicleBlueprint {
            implementation_index: 1,
            sessions: vec![plan(2, 1_500.0, 80.0)],
            shutoff_budget_s: 4_000.0,
            transport: TransportKind::MirroredCan,
            channel: ChannelConfig::Clean,
            task_set: None,
        },
        VehicleBlueprint {
            implementation_index: 2,
            sessions: vec![plan(3, f64::INFINITY, 0.0), plan(4, 300.0, 60.0)],
            shutoff_budget_s: 2_000.0,
            transport: TransportKind::MirroredCan,
            channel: ChannelConfig::Clean,
            task_set: None,
        },
    ]
}

/// FNV-1a 64 over the complete Debug rendering: every f64 prints with
/// enough digits to round-trip, so digest equality is bit equality of the
/// whole report.
fn digest(report: &FleetReport) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in format!("{report:?}").bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn frozen_report() -> &'static FleetReport {
    static REPORT: OnceLock<FleetReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let cfg = CampaignConfig {
            vehicles: VEHICLES,
            seed: SEED,
            threads: 0, // auto — the report must not depend on it
            ..CampaignConfig::default()
        };
        Campaign::new(&cut(), &blueprints(), cfg)
            .unwrap_or_else(|e| panic!("valid campaign: {e}"))
            .run()
    })
}

#[test]
fn headline_counters_are_frozen() {
    let report = frozen_report();
    assert_eq!(report.vehicles, 100_000);
    assert_eq!(report.defective, 1_931);
    assert_eq!(report.detected, 1_931);
    assert_eq!(report.localized, 1_931);
    assert_eq!(report.sessions_completed, 133_293);
    assert_eq!(report.windows_used, 126_161);
    assert_eq!(report.batches, 31);
    assert_eq!(report.latency.count, 1_931);
    assert_eq!(report.findings.len(), 1_931);
    assert_eq!(report.coverage_over_time.len(), 32);
    assert_eq!(report.per_ecu.len(), 4);
}

const FROZEN_DIGEST: u64 = 0xC52D_7E52_A85B_1C99;

#[test]
fn full_report_digest_is_frozen() {
    let d = digest(frozen_report());
    assert_eq!(
        d, FROZEN_DIGEST,
        "FleetReport changed bit-for-bit (digest {d:#018X}); if intentional, re-freeze"
    );
}

/// The frozen digest must also come out of an explicitly threaded feed
/// into an explicitly sharded gateway — the 100 000-vehicle instantiation
/// of the determinism contract the proptests check on small fleets.
#[test]
fn digest_survives_explicit_threads_and_shards() {
    let cut = cut();
    let bp = blueprints();
    let cfg = CampaignConfig {
        vehicles: VEHICLES,
        seed: SEED,
        threads: 3,
        ..CampaignConfig::default()
    };
    let campaign = Campaign::new(&cut, &bp, cfg).unwrap_or_else(|e| panic!("valid campaign: {e}"));
    let horizon_s = campaign.config().horizon_s;
    let mut svc = GatewayService::new(
        &cut,
        GatewayConfig {
            vehicles: VEHICLES,
            horizon_s,
            shards: 5,
            threads: 3,
            ..GatewayConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("provisions: {e}"));
    campaign
        .feed(&mut svc)
        .unwrap_or_else(|e| panic!("feeds: {e}"));
    let report = svc.snapshot_at(horizon_s).report;
    assert_eq!(digest(&report), FROZEN_DIGEST);
    assert_eq!(&report, frozen_report());
}
