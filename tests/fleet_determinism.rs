//! Property tests for the fleet engine's determinism contract: for a
//! *random* campaign configuration, the serial fleet report (1 worker
//! thread, 1 gateway shard) is bit-identical to the report of an N-thread
//! feed into an M-shard gateway — same discipline as
//! `tests/parallel_determinism.rs`, but with the configuration space
//! explored by proptest instead of a fixed workload. Covers the feed's
//! thread count and the gateway's storage-shard count (DESIGN.md §10)
//! across all three transport backends — plus the gateway ingest
//! service's snapshot-under-load contract (DESIGN.md §12): mid-campaign
//! snapshots are bit-identical across arrival interleaving × queue
//! capacity × thread × shard sweeps, and after any history of earlier
//! snapshots.

use std::sync::OnceLock;

use proptest::prelude::*;

use eea_fleet::{
    Campaign, CampaignConfig, ChannelConfig, CutConfig, CutFamily, CutModel, EcuSessionPlan,
    GatewayConfig, GatewayService, GatewaySnapshot, MarchTest, NoisyChannel, PeriodicTask,
    ShutoffModel, SporadicTask, SramConfig, TaskSetConfig, TransportKind, VehicleArrival,
    VehicleBlueprint,
};
use eea_model::ResourceId;
use eea_moea::Rng;

/// One shared CUT model: building it per case would dominate the runtime
/// without adding coverage (the properties vary the campaign, not the
/// substrate).
fn cut() -> &'static CutModel {
    static CUT: OnceLock<CutModel> = OnceLock::new();
    CUT.get_or_init(|| {
        CutModel::build(CutConfig {
            gates: 100,
            patterns: 128,
            window: 16,
            ..CutConfig::default()
        })
        .unwrap_or_else(|e| panic!("substrate builds: {e}"))
    })
}

/// A small hand-built blueprint set over a given transport backend: one
/// all-local fast implementation, one gateway-streaming implementation,
/// one with a session that can never run (infinite transfer) to exercise
/// the skip path. The timeline quantities are the same for every backend —
/// determinism must hold regardless of where the numbers came from.
fn blueprints(transport: TransportKind) -> Vec<VehicleBlueprint> {
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
            transport,
            channel: ChannelConfig::Clean,
            task_set: None,
        },
        VehicleBlueprint {
            implementation_index: 1,
            sessions: vec![plan(2, 1_500.0, 80.0)],
            shutoff_budget_s: 4_000.0,
            transport,
            channel: ChannelConfig::Clean,
            task_set: None,
        },
        VehicleBlueprint {
            implementation_index: 2,
            sessions: vec![plan(3, f64::INFINITY, 0.0), plan(4, 300.0, 60.0)],
            shutoff_budget_s: 2_000.0,
            transport,
            channel: ChannelConfig::Clean,
            task_set: None,
        },
    ]
}

/// One shared March-test model for the mixed-family properties, same
/// rationale as [`cut`].
fn sram() -> &'static MarchTest {
    static SRAM: OnceLock<MarchTest> = OnceLock::new();
    SRAM.get_or_init(|| {
        MarchTest::build(SramConfig::default()).unwrap_or_else(|e| panic!("SRAM builds: {e}"))
    })
}

/// The mixed-family sibling of [`blueprints`]: the SRAM March test
/// replaces the logic CUT on the streaming blueprint and on the second
/// session of the heterogeneous one, and every blueprint carries
/// `task_set` (so `Some` exercises schedule-derived windows fleet-wide).
fn mixed_blueprints(
    transport: TransportKind,
    task_set: Option<&TaskSetConfig>,
) -> Vec<VehicleBlueprint> {
    let mut bp = blueprints(transport);
    bp[1].sessions[0].family = CutFamily::Sram;
    bp[2].sessions[1].family = CutFamily::Sram;
    for b in &mut bp {
        b.task_set = task_set.cloned();
    }
    bp
}

/// [`blueprints`] with every vehicle's upload path re-routed over the
/// given channel — the timeline quantities are unchanged, only the bus
/// between ECU and gateway differs.
fn channel_blueprints(transport: TransportKind, channel: ChannelConfig) -> Vec<VehicleBlueprint> {
    let mut bp = blueprints(transport);
    for b in &mut bp {
        b.channel = channel;
    }
    bp
}

/// Feeds `campaign` (at its own thread count) into a gateway with
/// `shards` storage shards and snapshots at the horizon — `run()` with
/// the gateway's shard count exposed as a test axis.
fn feed_sharded(
    campaign: &Campaign<'_>,
    sram: Option<&MarchTest>,
    shards: usize,
) -> GatewaySnapshot {
    let cfg = campaign.config();
    let mut svc = GatewayService::with_models(
        cut(),
        sram,
        GatewayConfig {
            vehicles: cfg.vehicles,
            horizon_s: cfg.horizon_s,
            batch_size: cfg.batch_size,
            shards,
            threads: cfg.threads,
            ..GatewayConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("provisions: {e}"));
    campaign
        .feed(&mut svc)
        .unwrap_or_else(|e| panic!("feeds: {e}"));
    svc.snapshot_at(cfg.horizon_s)
}

/// A busy-but-schedulable task set: two periodic tasks (hyperperiod
/// 60 s, utilization 0.35), one sporadic task, a 5 s minimum slice.
fn busy_task_set() -> TaskSetConfig {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Equivalence oracle for the schedule-derived window source: a
    /// *degenerate* task set — a single registered-but-idle task, zero
    /// utilization, zero minimum slice — must reproduce the flat-budget
    /// campaign **bit-for-bit**, for any period, fleet and thread count.
    /// This pins the `TaskSchedule` pass-through path against the same
    /// frozen contract `FlatBudget` carries.
    #[test]
    fn degenerate_task_set_reproduces_flat_budget(
        vehicles in 1u32..200,
        defect_pct in 0usize..=100,
        seed in 0u64..u64::MAX,
        threads in 1usize..5,
        idle_period_s in 1u64..=120,
        transport_idx in 0usize..3,
    ) {
        let transport = TransportKind::ALL[transport_idx];
        let degenerate = TaskSetConfig {
            periodic: vec![PeriodicTask {
                period_us: idle_period_s * 1_000_000,
                offset_us: 0,
                wcet_us: 0,
                priority: 0,
            }],
            ..TaskSetConfig::default()
        };
        let flat_bp = blueprints(transport);
        let mut sched_bp = blueprints(transport);
        for b in &mut sched_bp {
            b.task_set = Some(degenerate.clone());
        }
        let cfg = CampaignConfig {
            vehicles,
            defect_fraction: defect_pct as f64 / 100.0,
            seed,
            threads,
            ..CampaignConfig::default()
        };
        let flat = Campaign::new(cut(), &flat_bp, cfg.clone())
            .unwrap_or_else(|e| panic!("valid campaign: {e}"))
            .run();
        let sched = Campaign::new(cut(), &sched_bp, cfg)
            .unwrap_or_else(|e| panic!("valid campaign: {e}"))
            .run();
        prop_assert_eq!(sched, flat);
    }

    /// The determinism contract over heterogeneous CUT families *and*
    /// schedule-derived windows: a mixed logic/SRAM fleet whose
    /// blueprints carry a busy task set reports bit-identically serially
    /// and from an N-thread feed into an M-shard gateway.
    #[test]
    fn mixed_family_campaign_is_thread_and_shard_independent(
        vehicles in 1u32..200,
        defect_pct in 0usize..=100,
        seed in 0u64..u64::MAX,
        threads in 2usize..9,
        shards in 2usize..9,
        scheduled in 0usize..2,
        transport_idx in 0usize..3,
    ) {
        let ts = busy_task_set();
        let bp = mixed_blueprints(
            TransportKind::ALL[transport_idx],
            (scheduled == 1).then_some(&ts),
        );
        let mut cfg = CampaignConfig {
            vehicles,
            defect_fraction: defect_pct as f64 / 100.0,
            seed,
            threads: 1,
            ..CampaignConfig::default()
        };
        let serial = Campaign::with_models(cut(), Some(sram()), &bp, cfg.clone())
            .unwrap_or_else(|e| panic!("valid campaign: {e}"))
            .run();
        // When the campaign is genuinely mixed (some detection came from
        // a non-logic family), the per-family split must account every
        // detection exactly once.
        if !serial.per_family.is_empty() {
            let split: u64 = serial.per_family.iter().map(|f| f.detected).sum();
            prop_assert_eq!(split, serial.detected);
        }
        cfg.threads = threads;
        let campaign = Campaign::with_models(cut(), Some(sram()), &bp, cfg)
            .unwrap_or_else(|e| panic!("valid campaign: {e}"));
        prop_assert_eq!(feed_sharded(&campaign, Some(sram()), shards).report, serial);
    }

    #[test]
    fn fleet_report_is_thread_and_shard_count_independent(
        vehicles in 1u32..250,
        defect_pct in 0usize..=100,
        horizon_days in 1u64..=30,
        seed in 0u64..u64::MAX,
        batch_size in 1usize..96,
        threads in 2usize..9,
        shards in 2usize..9,
        transport_idx in 0usize..3,
    ) {
        let bp = blueprints(TransportKind::ALL[transport_idx]);
        let mut cfg = CampaignConfig {
            vehicles,
            defect_fraction: defect_pct as f64 / 100.0,
            horizon_s: horizon_days as f64 * 86_400.0,
            seed,
            threads: 1,
            shutoff: ShutoffModel::default(),
            batch_size,
        };
        let serial = Campaign::new(cut(), &bp, cfg.clone())
            .unwrap_or_else(|e| panic!("valid campaign: {e}"))
            .run();
        cfg.threads = threads;
        let campaign = Campaign::new(cut(), &bp, cfg)
            .unwrap_or_else(|e| panic!("valid campaign: {e}"));
        prop_assert_eq!(feed_sharded(&campaign, None, shards).report, serial);
    }

    /// The gateway tentpole contract, snapshot-under-load determinism: a
    /// mid-campaign snapshot after ingesting a given *set* of arrivals
    /// (a random prefix of the fleet) at a random time t is bit-identical
    /// regardless of arrival interleaving (Fisher-Yates permutation),
    /// queue capacity / drain cadence, thread count and shard count.
    #[test]
    fn gateway_snapshot_is_interleaving_thread_and_shard_independent(
        vehicles in 1u32..220,
        defect_pct in 0usize..=100,
        seed in 0u64..u64::MAX,
        prefix_pct in 0usize..=100,
        t_pct in 1usize..=100,
        threads in 1usize..9,
        shards in 1usize..9,
        capacity in 1usize..257,
        shuffle_seed in 0u64..u64::MAX,
        transport_idx in 0usize..3,
    ) {
        let bp = blueprints(TransportKind::ALL[transport_idx]);
        let cfg = CampaignConfig {
            vehicles,
            defect_fraction: defect_pct as f64 / 100.0,
            seed,
            threads: 1,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::new(cut(), &bp, cfg)
            .unwrap_or_else(|e| panic!("valid campaign: {e}"));
        let arrivals: Vec<VehicleArrival> = campaign.arrivals().collect();
        let n_prefix = arrivals.len() * prefix_pct / 100;
        let horizon_s = campaign.config().horizon_s;
        let at_s = horizon_s * t_pct as f64 / 100.0;

        // Reference: vehicle-index order, serial service, ample queue.
        let mut reference = GatewayService::new(cut(), GatewayConfig {
            vehicles,
            horizon_s,
            shards: 1,
            threads: 1,
            ..GatewayConfig::default()
        }).unwrap_or_else(|e| panic!("provisions: {e}"));
        for &a in &arrivals[..n_prefix] {
            reference.accept(a).unwrap_or_else(|e| panic!("accept: {e}"));
        }
        let want = reference.snapshot_at(at_s);

        // The same *set*, shuffled, folded through a small bounded queue
        // (drain cadence = whenever it fills) at other thread/shard counts.
        let mut permuted: Vec<VehicleArrival> = arrivals[..n_prefix].to_vec();
        let mut rng = Rng::new(shuffle_seed);
        for i in (1..permuted.len()).rev() {
            let j = rng.below(i + 1);
            permuted.swap(i, j);
        }
        let mut svc = GatewayService::new(cut(), GatewayConfig {
            vehicles,
            horizon_s,
            queue_capacity: capacity,
            shards,
            threads,
            ..GatewayConfig::default()
        }).unwrap_or_else(|e| panic!("provisions: {e}"));
        for &a in &permuted {
            svc.accept(a).unwrap_or_else(|e| panic!("accept: {e}"));
        }
        let got = svc.snapshot_at(at_s);
        prop_assert_eq!(got, want);
    }

    /// The one-shot wrapper under *real* producer nondeterminism: feeding
    /// the whole fleet through the parallel bounded-channel producers and
    /// snapshotting at the horizon equals the serial `run()`, at any
    /// feed thread count and gateway shard count.
    #[test]
    fn gateway_feed_at_any_parallelism_matches_run(
        vehicles in 1u32..260,
        defect_pct in 0usize..=100,
        seed in 0u64..u64::MAX,
        threads in 1usize..9,
        shards in 1usize..9,
        transport_idx in 0usize..3,
    ) {
        let bp = blueprints(TransportKind::ALL[transport_idx]);
        let cfg = CampaignConfig {
            vehicles,
            defect_fraction: defect_pct as f64 / 100.0,
            seed,
            threads: 1,
            ..CampaignConfig::default()
        };
        let serial = Campaign::new(cut(), &bp, cfg.clone())
            .unwrap_or_else(|e| panic!("valid campaign: {e}"))
            .run();
        let campaign = Campaign::new(cut(), &bp, CampaignConfig { threads, ..cfg })
            .unwrap_or_else(|e| panic!("valid campaign: {e}"));
        let snap = feed_sharded(&campaign, None, shards);
        prop_assert_eq!(snap.report, serial);
        prop_assert_eq!(snap.ingested, u64::from(vehicles));
        prop_assert_eq!(snap.shed, 0, "the trusted feed path never sheds");
        prop_assert_eq!(snap.duplicates, 0);
    }

    /// Equivalence oracle for the channel layer: a zero-rate, uncapped
    /// `NoisyChannel` — which still owns and advances its dedicated
    /// per-vehicle RNG streams — must reproduce the `ChannelConfig::Clean`
    /// campaign **bit-for-bit**, for any campaign seed, channel seed, fleet
    /// size, transport and thread count. This pins the noisy path against
    /// the same frozen contract the clean channel carries (the channel
    /// sibling of `degenerate_task_set_reproduces_flat_budget`).
    #[test]
    fn zero_rate_noisy_channel_reproduces_clean(
        vehicles in 1u32..200,
        defect_pct in 0usize..=100,
        seed in 0u64..u64::MAX,
        channel_seed in 0u64..u64::MAX,
        threads in 1usize..5,
        transport_idx in 0usize..3,
    ) {
        let transport = TransportKind::ALL[transport_idx];
        let clean_bp = blueprints(transport);
        let noisy_bp = channel_blueprints(
            transport,
            ChannelConfig::Noisy(NoisyChannel {
                seed: channel_seed,
                ..NoisyChannel::default()
            }),
        );
        let cfg = CampaignConfig {
            vehicles,
            defect_fraction: defect_pct as f64 / 100.0,
            seed,
            threads,
            ..CampaignConfig::default()
        };
        let clean = Campaign::new(cut(), &clean_bp, cfg.clone())
            .unwrap_or_else(|e| panic!("valid campaign: {e}"))
            .run();
        let noisy = Campaign::new(cut(), &noisy_bp, cfg)
            .unwrap_or_else(|e| panic!("valid campaign: {e}"))
            .run();
        prop_assert!(noisy.robustness.is_none(), "zero rates inflict nothing");
        prop_assert_eq!(noisy, clean);
    }

    /// The determinism contract under *active* impairment: a fleet on an
    /// aggressively noisy channel (frame errors, corruption, window loss,
    /// a tight truncation cap) reports bit-identically serially and from
    /// an N-thread feed into an M-shard gateway — including the f64
    /// retransmit-overhead accumulator and the robustness rank CDF — and
    /// the identical report falls out of the gateway when the same
    /// arrivals are fed in a random interleaving through a small bounded
    /// queue.
    #[test]
    fn impaired_campaign_is_thread_shard_and_interleaving_independent(
        vehicles in 1u32..200,
        defect_pct in 0usize..=100,
        seed in 0u64..u64::MAX,
        threads in 2usize..9,
        shards in 2usize..9,
        shuffle_seed in 0u64..u64::MAX,
        capacity in 1usize..257,
        transport_idx in 0usize..3,
    ) {
        let channel = ChannelConfig::Noisy(NoisyChannel {
            frame_error_rate: 0.05,
            corruption_rate: 0.2,
            window_loss_rate: 0.15,
            truncation_cap_bytes: 96,
            seed: seed.rotate_left(17),
        });
        let bp = channel_blueprints(TransportKind::ALL[transport_idx], channel);
        let mut cfg = CampaignConfig {
            vehicles,
            defect_fraction: defect_pct as f64 / 100.0,
            seed,
            threads: 1,
            ..CampaignConfig::default()
        };
        let serial = Campaign::new(cut(), &bp, cfg.clone())
            .unwrap_or_else(|e| panic!("valid campaign: {e}"))
            .run();
        cfg.threads = threads;
        let campaign = Campaign::new(cut(), &bp, cfg)
            .unwrap_or_else(|e| panic!("valid campaign: {e}"));
        prop_assert_eq!(&feed_sharded(&campaign, None, shards).report, &serial);

        // The same fleet through the gateway service: shuffled arrival
        // order, bounded queue, snapshot at the horizon.
        let mut arrivals: Vec<VehicleArrival> = campaign.arrivals().collect();
        let mut rng = Rng::new(shuffle_seed);
        for i in (1..arrivals.len()).rev() {
            let j = rng.below(i + 1);
            arrivals.swap(i, j);
        }
        let horizon_s = campaign.config().horizon_s;
        let mut svc = GatewayService::new(cut(), GatewayConfig {
            vehicles,
            horizon_s,
            queue_capacity: capacity,
            shards,
            threads,
            ..GatewayConfig::default()
        }).unwrap_or_else(|e| panic!("provisions: {e}"));
        for &a in &arrivals {
            svc.accept(a).unwrap_or_else(|e| panic!("accept: {e}"));
        }
        let snap = svc.snapshot_at(horizon_s);
        prop_assert_eq!(snap.report, serial);
        prop_assert_eq!(snap.malformed, 0, "well-formed fleets are never rejected");
    }

    /// Oracle for the gateway's incremental snapshots: after a history of
    /// snapshots that each merged one chunk of a permuted feed into the
    /// sorted upload log — at `0.0`, at times below an earlier snapshot's,
    /// and at upload times of chunks still to come — a snapshot equals, in
    /// every field, a fresh service fed the same arrivals and snapshotted
    /// once. Clean or noisy, pure-logic or mixed-family campaigns.
    #[test]
    fn snapshot_after_history_matches_a_fresh_service(
        vehicles in 1u32..220,
        defect_pct in 0usize..=100,
        seed in 0u64..u64::MAX,
        prefix_pct in 0usize..=100,
        noisy in 0usize..2,
        mixed in 0usize..2,
        plan_seed in 0u64..u64::MAX,
        threads in 1usize..4,
        transport_idx in 0usize..3,
    ) {
        let transport = TransportKind::ALL[transport_idx];
        let mut bp = if mixed == 1 {
            mixed_blueprints(transport, None)
        } else {
            blueprints(transport)
        };
        if noisy == 1 {
            for b in &mut bp {
                b.channel = ChannelConfig::Noisy(NoisyChannel {
                    frame_error_rate: 0.05,
                    corruption_rate: 0.2,
                    window_loss_rate: 0.15,
                    truncation_cap_bytes: 96,
                    seed: seed.rotate_left(29),
                });
            }
        }
        let sram = (mixed == 1).then(sram);
        let cfg = CampaignConfig {
            vehicles,
            defect_fraction: defect_pct as f64 / 100.0,
            seed,
            threads: 1,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::with_models(cut(), sram, &bp, cfg)
            .unwrap_or_else(|e| panic!("valid campaign: {e}"));
        let horizon_s = campaign.config().horizon_s;
        let arrivals: Vec<VehicleArrival> = campaign.arrivals().collect();
        let mut fed = arrivals[..arrivals.len() * prefix_pct / 100].to_vec();
        let mut rng = Rng::new(plan_seed);
        for i in (1..fed.len()).rev() {
            let j = rng.below(i + 1);
            fed.swap(i, j);
        }
        let provision = |threads| {
            GatewayService::with_models(cut(), sram, GatewayConfig {
                vehicles,
                horizon_s,
                threads,
                ..GatewayConfig::default()
            })
            .unwrap_or_else(|e| panic!("provisions: {e}"))
        };
        // Snapshot times: 0.0, below the earliest earlier snapshot, the
        // exact time of an upload not fed yet, or anywhere up to 1.2x
        // the horizon (upload times cluster in the first hours).
        let mut earliest = f64::INFINITY;
        let mut pick = |rng: &mut Rng, later: &[VehicleArrival]| {
            let later_times: Vec<f64> = later.iter().filter_map(|a| a.upload.map(|u| u.time_s)).collect();
            let t = match rng.below(5) {
                0 => 0.0,
                1 if earliest.is_finite() => earliest * rng.unit(),
                2 if !later_times.is_empty() => later_times[rng.below(later_times.len())],
                3 => 1.2 * horizon_s * rng.unit(),
                _ => 36_000.0 * rng.unit(),
            };
            earliest = earliest.min(t);
            t
        };
        let mut svc = provision(threads);
        let mut fed_so_far = 0;
        while fed_so_far < fed.len() {
            let chunk = 1 + rng.below(fed.len() - fed_so_far);
            for &a in &fed[fed_so_far..fed_so_far + chunk] {
                svc.accept(a).unwrap_or_else(|e| panic!("accept: {e}"));
            }
            fed_so_far += chunk;
            let at_s = pick(&mut rng, &fed[fed_so_far..]);
            svc.snapshot_at(at_s);
        }
        let at_s = pick(&mut rng, &[]);
        let got = svc.snapshot_at(at_s);
        let mut fresh = provision(1);
        for &a in &fed {
            fresh.accept(a).unwrap_or_else(|e| panic!("accept: {e}"));
        }
        prop_assert_eq!(got, fresh.snapshot_at(at_s));
    }

    #[test]
    fn same_config_same_report_across_runs(
        vehicles in 1u32..120,
        seed in 0u64..u64::MAX,
        transport_idx in 0usize..3,
    ) {
        let bp = blueprints(TransportKind::ALL[transport_idx]);
        let cfg = CampaignConfig {
            vehicles,
            seed,
            threads: 1,
            ..CampaignConfig::default()
        };
        let a = Campaign::new(cut(), &bp, cfg.clone())
            .unwrap_or_else(|e| panic!("valid campaign: {e}"))
            .run();
        let b = Campaign::new(cut(), &bp, cfg)
            .unwrap_or_else(|e| panic!("valid campaign: {e}"))
            .run();
        prop_assert_eq!(a, b);
    }
}
