//! Deterministic mutation-fuzz harness for the gateway ingest boundary
//! (DESIGN.md §12/§14): thousands of structurally mutated upload frames —
//! out-of-range vehicles, NaN/negative times, oversized payloads, spliced
//! vehicle ids, out-of-dictionary fault indices, scrambled impairment
//! descriptors, duplicates and replays — are pushed through
//! `accept`/`drain`/`snapshot_at`. The service must reject every invalid
//! frame with a *typed* error (`UnknownVehicle` / `MalformedUpload`),
//! never panic, never shed on the `accept` path, and keep its counters
//! consistent with the per-call results.
//!
//! The fuzzer is a plain seeded xorshift64* so every run replays the same
//! frame sequence — a failure here is a deterministic regression, not a
//! flake.

use std::sync::OnceLock;

use eea_bist::FAIL_DATA_BYTES;
use eea_fleet::{
    Campaign, CampaignConfig, ChannelConfig, CutConfig, CutFamily, CutModel, EcuSessionPlan,
    FleetError, GatewayConfig, GatewayService, ImpairmentKind, NoisyChannel, TransportKind,
    VehicleArrival, VehicleBlueprint,
};
use eea_model::ResourceId;

/// Fleet size of the baseline campaign the mutation pool is drawn from.
const FLEET: u32 = 96;
/// Fuzz rounds (one fresh service per round).
const ROUNDS: usize = 40;
/// Frames pushed per round.
const FRAMES_PER_ROUND: usize = 64;
/// Distinct mutation kinds the fuzzer draws from.
const MUTATION_KINDS: u64 = 20;

fn cut() -> &'static CutModel {
    static CUT: OnceLock<CutModel> = OnceLock::new();
    CUT.get_or_init(|| {
        CutModel::build(CutConfig {
            gates: 80,
            patterns: 64,
            window: 8,
            ..CutConfig::default()
        })
        .unwrap_or_else(|e| panic!("substrate builds: {e}"))
    })
}

/// xorshift64* — deliberately a *different* generator family than the
/// SplitMix64 the engine uses, so the fuzzer never accidentally walks in
/// step with the simulation's own streams.
struct Mutator(u64);

impl Mutator {
    fn new(seed: u64) -> Self {
        Mutator(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A valid arrival pool: one noisy campaign over the full fleet, so base
/// frames already carry retransmissions, impairment descriptors and
/// truncation caps — the fuzzer mutates *around* realistic data.
fn arrival_pool() -> (Vec<VehicleArrival>, f64) {
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
    let channel = ChannelConfig::Noisy(NoisyChannel {
        frame_error_rate: 0.1,
        corruption_rate: 0.25,
        window_loss_rate: 0.2,
        truncation_cap_bytes: 96,
        seed: 0xF0CC_5EED,
    });
    let bp = vec![
        VehicleBlueprint {
            implementation_index: 0,
            sessions: vec![plan(0, 0.0, 400.0), plan(1, 0.0, 150.0)],
            shutoff_budget_s: 900.0,
            transport: TransportKind::MirroredCan,
            channel,
            task_set: None,
        },
        VehicleBlueprint {
            implementation_index: 1,
            sessions: vec![plan(2, 1_500.0, 80.0)],
            shutoff_budget_s: 4_000.0,
            transport: TransportKind::MirroredCan,
            channel,
            task_set: None,
        },
    ];
    let campaign = Campaign::new(
        cut(),
        &bp,
        CampaignConfig {
            vehicles: FLEET,
            defect_fraction: 1.0,
            seed: 0xFA11_DA7A,
            threads: 1,
            ..CampaignConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("valid campaign: {e}"));
    let horizon_s = campaign.config().horizon_s;
    (campaign.arrivals().collect(), horizon_s)
}

/// Applies mutation `kind` to `a`. Returns `true` when the mutated frame
/// violates an ingest invariant and MUST be rejected with a typed error;
/// `false` means the frame is still well-formed (identity, replay, or a
/// benign impairment-descriptor scramble) and MUST be accepted.
fn apply(a: &mut VehicleArrival, kind: u64, m: &mut Mutator, faults: u32) -> bool {
    match kind {
        // 0..=4: identity — valid frames (and, by sampling the pool with
        // replacement, natural duplicates/replays).
        0..=4 => false,
        // 5..=7: benign impairment-descriptor scrambles. The consumer
        // reduces slots/salts modulo the payload and caps are just
        // counts, so *any* descriptor must diagnose without panicking.
        5 => {
            if let Some(up) = &mut a.upload {
                up.impairment.cap_entries = m.next() as u16;
            }
            false
        }
        6 => {
            if let Some(up) = &mut a.upload {
                up.impairment.kind = ImpairmentKind::WindowLost {
                    slot: m.next() as u8,
                };
            }
            false
        }
        7 => {
            if let Some(up) = &mut a.upload {
                up.impairment.kind = ImpairmentKind::CorruptedSyndrome {
                    salt: m.next() as u8,
                };
            }
            false
        }
        // 8/9: out-of-fleet vehicle index.
        8 => {
            a.vehicle = FLEET + 1 + (m.next() as u32 % 1_000);
            true
        }
        9 => {
            a.vehicle = u32::MAX;
            true
        }
        // 10/11: corrupted BIST-time accounting.
        10 => {
            a.bist_time_s = f64::NAN;
            true
        }
        11 => {
            a.bist_time_s = -1.0 - a.bist_time_s;
            true
        }
        // 12..=18: upload-field corruption (no-ops when the vehicle never
        // uploaded — those frames stay valid).
        12 => a.upload.as_mut().is_some_and(|up| {
            up.vehicle = up.vehicle.wrapping_add(1 + m.next() as u32 % 7);
            true
        }),
        13 => a.upload.as_mut().is_some_and(|up| {
            up.time_s = f64::INFINITY;
            true
        }),
        14 => a.upload.as_mut().is_some_and(|up| {
            up.time_s = -f64::from(1 + m.next() as u32 % 100);
            true
        }),
        15 => a.upload.as_mut().is_some_and(|up| {
            up.fail_bytes = FAIL_DATA_BYTES + 1 + m.next() % 10_000;
            true
        }),
        16 => a.upload.as_mut().is_some_and(|up| {
            up.retransmit_s = f64::NAN;
            true
        }),
        17 => a.upload.as_mut().is_some_and(|up| {
            up.fault_index = u32::MAX;
            true
        }),
        18 => a.upload.as_mut().is_some_and(|up| {
            up.fault_index = faults + m.next() as u32 % 1_000;
            true
        }),
        // 19: re-tag the family as SRAM. The service under test carries no
        // March model, so an SRAM fault names no dictionary entry: a frame
        // with an upload must be rejected (one without stays valid).
        _ => a.upload.as_mut().is_some_and(|up| {
            up.family = CutFamily::Sram;
            true
        }),
    }
}

#[test]
fn mutated_frames_never_panic_and_fail_typed() {
    let (pool, horizon_s) = arrival_pool();
    assert!(
        pool.iter().filter(|a| a.upload.is_some()).count() > FLEET as usize / 2,
        "pool must be upload-rich for upload mutations to bite"
    );
    let faults = u32::try_from(cut().num_faults()).unwrap_or(u32::MAX);
    let mut m = Mutator::new(0x5EED_F0CC_FADE_0001);
    let mut total_frames = 0u64;
    let mut total_rejected = 0u64;

    for round in 0..ROUNDS {
        let mut svc = GatewayService::new(
            cut(),
            GatewayConfig {
                vehicles: FLEET,
                horizon_s,
                queue_capacity: 1 + m.below(64) as usize,
                threads: 1 + m.below(4) as usize,
                shards: 1 + m.below(4) as usize,
                ..GatewayConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("provisions: {e}"));

        let (mut ok, mut unknown, mut malformed) = (0u64, 0u64, 0u64);
        for frame in 0..FRAMES_PER_ROUND {
            let mut a = pool[m.below(pool.len() as u64) as usize];
            let kind = m.below(MUTATION_KINDS);
            let must_reject = apply(&mut a, kind, &mut m, faults);
            total_frames += 1;
            match svc.accept(a) {
                Ok(()) => {
                    assert!(
                        !must_reject,
                        "round {round} frame {frame}: invalid frame (kind {kind}) accepted"
                    );
                    ok += 1;
                }
                Err(FleetError::UnknownVehicle { .. }) => {
                    assert!(
                        must_reject,
                        "round {round} frame {frame}: valid frame (kind {kind}) rejected"
                    );
                    unknown += 1;
                }
                Err(FleetError::MalformedUpload { .. }) => {
                    assert!(
                        must_reject,
                        "round {round} frame {frame}: valid frame (kind {kind}) rejected"
                    );
                    malformed += 1;
                }
                Err(other) => {
                    panic!("round {round} frame {frame}: untyped rejection from accept: {other}")
                }
            }
            // Sprinkle mid-stream snapshots: diagnosis over whatever made
            // it past the boundary must never panic, at any time point.
            if frame % 16 == 15 {
                let t = horizon_s * m.below(100) as f64 / 100.0;
                let snap = svc.snapshot_at(t);
                assert_eq!(snap.shed, 0, "accept never sheds");
            }
        }

        // End-of-round ledger: every counter reconciles with the per-call
        // results, and the robustness block surfaces the rejects.
        let snap = svc.snapshot_at(horizon_s);
        assert_eq!(svc.shed(), 0);
        assert_eq!(svc.malformed(), malformed);
        assert_eq!(snap.malformed, malformed);
        assert_eq!(snap.ingested + snap.duplicates, ok);
        assert_eq!(unknown + malformed, (FRAMES_PER_ROUND as u64) - ok);
        if malformed > 0 {
            let rob = snap
                .report
                .robustness
                .as_ref()
                .unwrap_or_else(|| panic!("round {round}: rejects imply a robustness block"));
            assert_eq!(rob.rejected_uploads, malformed);
        }
        total_rejected += unknown + malformed;
    }

    assert!(
        total_frames >= 1_500,
        "fuzz volume contract: {total_frames} < 1500 frames"
    );
    assert!(
        total_rejected > total_frames / 4,
        "mutation mix must actually exercise the rejection paths"
    );
}
