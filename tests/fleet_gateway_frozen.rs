//! Frozen **mid-campaign snapshot** regression for the gateway ingest
//! service — the streaming sibling of `tests/fleet_frozen_report.rs`.
//! The same 100 000-vehicle campaign at the benchmark seed is ingested
//! arrival by arrival into a `GatewayService`; the snapshot at a 256th of
//! the horizon is pinned bit-for-bit (headline counters + FNV-1a digest
//! of the full report Debug rendering), and the snapshot at the horizon must
//! reproduce the one-shot pipeline's frozen digest exactly. A second,
//! smaller campaign mixes logic and SRAM sessions (one ECU in both
//! families) on a noisy channel, so the per-family split, the robustness
//! block and the impaired diagnosis keys are pinned too: its one-shot
//! report, and a mid-campaign snapshot taken after a permuted feed that
//! earlier snapshots interrupted. Any change to the ingest fold, the block
//! ledger, or the snapshot stages that alters one bit fails here;
//! intentional semantic changes must re-freeze the constants and say why
//! in the commit.

use std::sync::OnceLock;

use eea_fleet::{
    Campaign, CampaignConfig, ChannelConfig, CutConfig, CutFamily, CutModel, EcuSessionPlan,
    FleetReport, GatewayConfig, GatewayService, GatewaySnapshot, MarchTest, NoisyChannel,
    SramConfig, TransportKind, VehicleArrival, VehicleBlueprint,
};
use eea_model::ResourceId;
use eea_moea::Rng;

/// The benchmark campaign seed (`EEA_SEED` default in `eea-bench`).
const SEED: u64 = 2014;
const VEHICLES: u32 = 100_000;
/// `CampaignConfig::default().horizon_s` — 30 days.
const HORIZON_S: f64 = 30.0 * 86_400.0;

/// The one-shot pipeline's frozen digest (`tests/fleet_frozen_report.rs`):
/// the horizon snapshot must land on the identical report.
const FROZEN_ONE_SHOT_DIGEST: u64 = 0xC52D_7E52_A85B_1C99;

/// The mid-campaign snapshot time: horizon/256 ≈ 2.8 h, between the
/// detection-latency median (~2.4 h) and p90 (~4.7 h) on this substrate —
/// most but not all uploads are visible, so the snapshot genuinely
/// exercises the time filter (every detection lands inside 8.5 h here;
/// any snapshot time in whole days would already be saturated).
const MID_AT_S: f64 = HORIZON_S / 256.0;
/// The frozen mid-campaign snapshot digest.
const FROZEN_MID_DIGEST: u64 = 0xD9D9_5A5D_CE7F_E675;
/// Detections visible at the mid-campaign snapshot (of 1 931 total).
const FROZEN_MID_DETECTED: u64 = 1_283;

fn cut() -> CutModel {
    CutModel::build(CutConfig {
        gates: 100,
        patterns: 128,
        window: 16,
        ..CutConfig::default()
    })
    .unwrap_or_else(|e| panic!("substrate builds: {e}"))
}

/// Same hand-built trio as `tests/fleet_frozen_report.rs`.
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

fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        vehicles: VEHICLES,
        seed: SEED,
        threads: 0, // auto — snapshots must not depend on it
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

/// One full serial ingest of the fleet, snapshotted mid-campaign and at
/// the horizon. Serial arrival order here; the parallel-feed test below
/// must land on the same bits.
fn snapshots() -> &'static (GatewaySnapshot, GatewaySnapshot) {
    static SNAPS: OnceLock<(GatewaySnapshot, GatewaySnapshot)> = OnceLock::new();
    SNAPS.get_or_init(|| {
        let cut = cut();
        let bp = blueprints();
        let campaign = Campaign::new(&cut, &bp, campaign_config())
            .unwrap_or_else(|e| panic!("valid campaign: {e}"));
        let mut svc = campaign.gateway();
        for arrival in campaign.arrivals() {
            svc.accept(arrival)
                .unwrap_or_else(|e| panic!("accept: {e}"));
        }
        let mid = svc.snapshot_at(MID_AT_S);
        let fin = svc.snapshot_at(HORIZON_S);
        (mid, fin)
    })
}

#[test]
fn mid_campaign_snapshot_is_frozen() {
    let (mid, _) = snapshots();
    assert_eq!(mid.at_s, MID_AT_S);
    assert_eq!(mid.ingested, u64::from(VEHICLES));
    assert_eq!(mid.shed, 0);
    assert_eq!(mid.duplicates, 0);
    // window 16 × 128 patterns ⇒ at most 8 failing windows (96 bytes):
    // this substrate never overflows the 638-byte fail memory.
    assert_eq!(mid.truncated_uploads, 0);
    assert_eq!(mid.report.vehicles, VEHICLES);
    assert_eq!(mid.report.detected, FROZEN_MID_DETECTED);
    // Census facts are horizon facts, not snapshot-time facts.
    assert_eq!(mid.report.defective, 1_931);
    assert_eq!(mid.report.sessions_completed, 133_293);
    assert_eq!(mid.report.windows_used, 126_161);
    let d = digest(&mid.report);
    assert_eq!(
        d, FROZEN_MID_DIGEST,
        "mid-campaign snapshot changed bit-for-bit (digest {d:#018X}, detected {}); \
         if intentional, re-freeze",
        mid.report.detected
    );
}

#[test]
fn horizon_snapshot_reproduces_the_one_shot_digest() {
    let (mid, fin) = snapshots();
    assert!(
        mid.report.detected <= fin.report.detected,
        "snapshots are monotone in t"
    );
    assert_eq!(fin.uploads_ingested, fin.report.detected);
    let d = digest(&fin.report);
    assert_eq!(
        d, FROZEN_ONE_SHOT_DIGEST,
        "horizon snapshot must be bit-identical to the one-shot pipeline (digest {d:#018X})"
    );
}

/// The same frozen bits out of the parallel bounded-channel feed at an
/// explicit thread count into a gateway with an explicit shard count —
/// the 100 000-vehicle instantiation of the snapshot-under-load
/// proptests.
#[test]
fn mid_digest_survives_parallel_feed() {
    let cut = cut();
    let bp = blueprints();
    let cfg = CampaignConfig {
        threads: 3,
        ..campaign_config()
    };
    let campaign = Campaign::new(&cut, &bp, cfg).unwrap_or_else(|e| panic!("valid campaign: {e}"));
    let mut svc = GatewayService::new(
        &cut,
        GatewayConfig {
            vehicles: VEHICLES,
            horizon_s: HORIZON_S,
            shards: 5,
            threads: 3,
            ..GatewayConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("provisions: {e}"));
    campaign
        .feed(&mut svc)
        .unwrap_or_else(|e| panic!("feeds: {e}"));
    let mid = svc.snapshot_at(MID_AT_S);
    assert_eq!(digest(&mid.report), FROZEN_MID_DIGEST);
    let fin = svc.snapshot_at(HORIZON_S);
    assert_eq!(digest(&fin.report), FROZEN_ONE_SHOT_DIGEST);
    let (serial_mid, serial_fin) = snapshots();
    assert_eq!(&mid, serial_mid);
    assert_eq!(&fin, serial_fin);
}

/// Fleet size of the mixed-family noisy campaign: large enough for every
/// impairment kind and both families to reach ECU 2, small enough to
/// ingest several times per test run.
const MIXED_VEHICLES: u32 = 40_000;
/// The mixed campaign's frozen one-shot digest.
const FROZEN_MIXED_ONE_SHOT_DIGEST: u64 = 0x6A3F_7C40_2FAE_7A94;
/// The mixed campaign's frozen mid-campaign snapshot digest, taken after
/// the interrupted permuted feed of [`mixed_streamed_snapshot`].
const FROZEN_MIXED_MID_DIGEST: u64 = 0x7A3C_0D84_AA7E_E5B3;
/// Detections visible at the mixed mid-campaign snapshot (of 800 total).
const FROZEN_MIXED_MID_DETECTED: u64 = 511;

/// The hand-built trio with SRAM sessions and one ECU in both families:
/// ECU 2 runs the March test (locally stored) on the first blueprint and
/// the logic CUT (gateway-streamed) on the second. Every vehicle uploads
/// over an aggressive noisy channel whose 64-byte cap clips payloads.
fn mixed_blueprints() -> Vec<VehicleBlueprint> {
    let channel = ChannelConfig::Noisy(NoisyChannel {
        frame_error_rate: 0.05,
        corruption_rate: 0.2,
        window_loss_rate: 0.15,
        truncation_cap_bytes: 64,
        seed: 0x0DD5_EED5,
    });
    let plan = |ecu: usize, transfer_s: f64, upload_bw: f64, family| EcuSessionPlan {
        ecu: ResourceId::from_index(ecu),
        profile_id: 1,
        coverage: 0.99,
        session_s: 0.005,
        transfer_s,
        local_storage: transfer_s == 0.0,
        upload_bandwidth_bytes_per_s: upload_bw,
        family,
    };
    vec![
        VehicleBlueprint {
            implementation_index: 0,
            sessions: vec![
                plan(0, 0.0, 400.0, CutFamily::Logic),
                plan(2, 0.0, 150.0, CutFamily::Sram),
            ],
            shutoff_budget_s: 900.0,
            transport: TransportKind::MirroredCan,
            channel,
            task_set: None,
        },
        VehicleBlueprint {
            implementation_index: 1,
            sessions: vec![plan(2, 1_500.0, 80.0, CutFamily::Logic)],
            shutoff_budget_s: 4_000.0,
            transport: TransportKind::MirroredCan,
            channel,
            task_set: None,
        },
        VehicleBlueprint {
            implementation_index: 2,
            sessions: vec![
                plan(3, f64::INFINITY, 0.0, CutFamily::Logic),
                plan(4, 300.0, 60.0, CutFamily::Sram),
            ],
            shutoff_budget_s: 2_000.0,
            transport: TransportKind::MirroredCan,
            channel,
            task_set: None,
        },
    ]
}

fn mixed_config() -> CampaignConfig {
    CampaignConfig {
        vehicles: MIXED_VEHICLES,
        seed: SEED,
        threads: 0,
        ..CampaignConfig::default()
    }
}

fn sram() -> MarchTest {
    MarchTest::build(SramConfig::default()).unwrap_or_else(|e| panic!("SRAM builds: {e}"))
}

/// Feeds a fixed permutation of the mixed fleet through a small queue in
/// eight chunks, snapshotting after each chunk at non-monotone times (one
/// at `0.0`, some before uploads that arrive in later chunks), then
/// returns the snapshot at [`MID_AT_S`].
fn mixed_streamed_snapshot(cut: &CutModel, sram: &MarchTest) -> GatewaySnapshot {
    let bp = mixed_blueprints();
    let campaign = Campaign::with_models(cut, Some(sram), &bp, mixed_config())
        .unwrap_or_else(|e| panic!("valid campaign: {e}"));
    let mut arrivals: Vec<VehicleArrival> = campaign.arrivals().collect();
    let mut rng = Rng::new(0xA11C_E5ED);
    for i in (1..arrivals.len()).rev() {
        let j = rng.below(i + 1);
        arrivals.swap(i, j);
    }
    let mut svc = GatewayService::with_models(
        cut,
        Some(sram),
        GatewayConfig {
            vehicles: MIXED_VEHICLES,
            horizon_s: HORIZON_S,
            queue_capacity: 97,
            shards: 3,
            threads: 2,
            ..GatewayConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("provisions: {e}"));
    let times = [
        HORIZON_S / 64.0,
        0.0,
        HORIZON_S,
        HORIZON_S / 1_024.0,
        MID_AT_S,
        HORIZON_S / 128.0,
        3_600.0,
        HORIZON_S / 512.0,
    ];
    let chunk = arrivals.len().div_ceil(times.len());
    for (part, &at_s) in arrivals.chunks(chunk).zip(&times) {
        for &a in part {
            svc.accept(a).unwrap_or_else(|e| panic!("accept: {e}"));
        }
        svc.snapshot_at(at_s);
    }
    svc.snapshot_at(MID_AT_S)
}

#[test]
fn mixed_noisy_one_shot_digest_is_frozen() {
    let cut = cut();
    let sram = sram();
    let bp = mixed_blueprints();
    let campaign = Campaign::with_models(&cut, Some(&sram), &bp, mixed_config())
        .unwrap_or_else(|e| panic!("valid campaign: {e}"));
    // The campaign exercises what the clean pure-logic pins cannot: ECU
    // 2 uploads faults of both families, and the channel impairs some.
    let ecu2 = ResourceId::from_index(2);
    let families: Vec<CutFamily> = campaign
        .arrivals()
        .filter_map(|a| a.upload)
        .filter(|u| u.ecu == ecu2)
        .map(|u| u.family)
        .collect();
    assert!(families.contains(&CutFamily::Logic) && families.contains(&CutFamily::Sram));
    let report = campaign.run();
    assert_eq!(report.per_family.len(), 2, "both families detect");
    let rob = report
        .robustness
        .as_ref()
        .unwrap_or_else(|| panic!("the noisy channel populates the robustness block"));
    assert!(rob.impaired_uploads > 0 && rob.retransmitted_frames > 0);
    assert!(rob.cap_truncated_uploads > 0 && rob.window_lost_uploads > 0);
    assert!(rob.corrupted_uploads > 0);
    let d = digest(&report);
    assert_eq!(
        d, FROZEN_MIXED_ONE_SHOT_DIGEST,
        "mixed noisy one-shot report changed bit-for-bit (digest {d:#018X}, detected {}); \
         if intentional, re-freeze",
        report.detected
    );
}

#[test]
fn mixed_noisy_streamed_mid_snapshot_is_frozen() {
    let cut = cut();
    let sram = sram();
    let mid = mixed_streamed_snapshot(&cut, &sram);
    assert_eq!(mid.ingested, u64::from(MIXED_VEHICLES));
    assert!(
        mid.report.detected < mid.uploads_ingested,
        "a genuine prefix"
    );
    assert_eq!(mid.report.detected, FROZEN_MIXED_MID_DETECTED);
    let d = digest(&mid.report);
    assert_eq!(
        d, FROZEN_MIXED_MID_DIGEST,
        "mixed noisy mid-campaign snapshot changed bit-for-bit (digest {d:#018X}, detected {}); \
         if intentional, re-freeze",
        mid.report.detected
    );
}
