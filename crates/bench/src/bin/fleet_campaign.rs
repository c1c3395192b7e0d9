//! The fleet bench: runs every fleet section in one process and
//! writes `BENCH_fleet.json` once.
//!
//! Sections, in run order:
//!
//! - `gateway_soak`: sustained arrivals through the streaming
//!   [`eea_fleet::GatewayService`] at the `EEA_FLEET_SCALE` fleet sizes
//!   (default 100k/1M/10M), with a shed probe and a replay-identity check.
//! - `dict_build_*`: the one-pass dictionary build of the default CUT
//!   against the per-fault serial replay.
//! - `transports`: one explored case-study front decoded into blueprints
//!   per `EEA_TRANSPORTS` backend (default: classic mirrored CAN, CAN FD
//!   and FlexRay), for the per-backend detection-latency comparison.
//! - `scale_sweep`: the `EEA_FLEET_SCALE` fleet sizes on the first
//!   backend, with per-stage timings and each point's peak RSS.
//! - `sched_campaign`: flat vs schedule-derived shut-off windows on a
//!   mixed logic/SRAM fleet.
//! - `noisy_campaign`: clean vs impaired channels over an error-rate ×
//!   truncation-cap grid.
//!
//! Every campaign of the transport, sched and noisy sections runs at
//! 1/2/4/8 worker threads, and its [`FleetReport`] is asserted
//! bit-identical across the sweep before any number is recorded. The
//! machine facts (`machine_cores`, `word_bits`, `lanes`) are recorded
//! once, at the top level, since one process writes every section.
//!
//! ```text
//! cargo run -p eea-bench --bin fleet_campaign --release
//! EEA_FLEET_VEHICLES=10000 cargo run -p eea-bench --bin fleet_campaign --release
//! EEA_TRANSPORTS=classic-can cargo run -p eea-bench --bin fleet_campaign --release
//! EEA_FLEET_SCALE=100000 cargo run -p eea-bench --bin fleet_campaign --release
//! EEA_OUT_DIR=target/exp cargo run -p eea-bench --bin fleet_campaign --release
//! ```
//!
//! Note: setting `EEA_THREADS` pins *every* sweep point to that worker
//! count (the workspace-wide override wins over the sweep).

use std::error::Error;
use std::time::Instant;

use eea_bench::{
    digest, env_transports, env_u64, env_u64_list, env_usize, fleet_size, peak_rss_kb,
    reset_peak_rss, run_case_study_exploration, trio, write_artifact, Json,
};
use eea_fleet::{
    blueprints_from_front_with, Campaign, CampaignConfig, ChannelConfig, CutConfig, CutModel,
    FamilyReport, FleetError, FleetReport, GatewayConfig, GatewayService, GatewaySnapshot,
    MarchTest, NoisyChannel, PeriodicTask, RobustnessReport, SporadicTask, SramConfig,
    TaskSetConfig, TransportConfig, TransportKind, VehicleBlueprint, DEFAULT_QUEUE_CAPACITY,
};

type BenchResult<T> = Result<T, Box<dyn Error>>;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Default `EEA_FLEET_SCALE` points: 100k, 1M, 10M vehicles.
const SCALE_SWEEP: [u64; 3] = [100_000, 1_000_000, 10_000_000];

/// Mid-campaign snapshots taken per soak point while arrivals continue.
const MID_SNAPSHOTS: usize = 8;

/// Arrivals simulated (untimed) ahead of each timed ingest chunk: keeps
/// vehicle simulation out of `arrivals_per_s` with a buffer of a few MB
/// at any fleet size.
const SOAK_CHUNK: usize = 65_536;

/// Frame-error-rate grid of the noisy section; corruption and window-loss
/// rates scale with it (see [`noisy`]).
const ERROR_RATES: [f64; 3] = [0.002, 0.01, 0.05];
/// Truncation-cap grid: uncapped, and a tight 48-byte cap (4 fail-memory
/// entries) that truncates the larger fail memories.
const CAPS: [u64; 2] = [u64::MAX, 48];
/// Channel seed of the noisy grid (the campaign seed stays `EEA_SEED`).
const CHANNEL_SEED: u64 = 0x0B5E_55ED_CA4B_005E;
/// The one-shot 100 000-vehicle digest `tests/fleet_frozen_report.rs`
/// freezes — the clean baseline must reproduce it at default scale.
const FROZEN_DIGEST: u64 = 0xC52D_7E52_A85B_1C99;

/// One timed point of a thread sweep.
struct SweepPoint {
    threads: usize,
    seconds: f64,
}

fn main() -> BenchResult<()> {
    let vehicles = fleet_size("EEA_FLEET_VEHICLES", env_u64("EEA_FLEET_VEHICLES", 100_000))?;
    let evaluations = env_usize("EEA_FLEET_EVALS", 2_000);
    let seed = env_u64("EEA_SEED", 2014);
    let transports = env_transports(&TransportKind::ALL);
    let mut scales = env_u64_list("EEA_FLEET_SCALE", &SCALE_SWEEP)
        .into_iter()
        .map(|n| fleet_size("EEA_FLEET_SCALE", n))
        .collect::<Result<Vec<_>, _>>()?;
    // Ascending order: the soak's cross-settings replay runs at the first,
    // smallest scale.
    scales.sort_unstable();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let word_bits = eea_faultsim::PatternBlock::CAPACITY;
    let lanes = eea_faultsim::DEFAULT_LANES;
    eprintln!("machine: {cores} core(s) available, {word_bits}-bit pattern word ({lanes} lanes)");
    let config = CampaignConfig {
        vehicles,
        seed,
        ..CampaignConfig::default()
    };

    // The cheap substrate of the determinism and frozen-report tests: the
    // soak, sched and noisy sections measure the ingest service, window
    // sources and channel plumbing, not gate-level simulation.
    let small_cut = CutModel::build(CutConfig {
        gates: 100,
        patterns: 128,
        window: 16,
        ..CutConfig::default()
    })?;

    // Every soak and scale-sweep point resets VmHWM before it runs and
    // records the resident size it started from (`rss_start_kb`) beside
    // its own peak (`peak_rss_kb`), so a point's figures do not depend on
    // what ran before it in this process.
    let gateway_soak = soak_section(&small_cut, &scales, &config)?;

    eprintln!("building CUT model (golden session + per-fault fail data)...");
    let cut = CutModel::build(CutConfig::default())?;
    eprintln!(
        "  {} collapsed faults, {} session-detectable ({:.1} % coverage)",
        cut.num_faults(),
        cut.detectable_faults().len(),
        cut.coverage() * 100.0
    );
    let (dict_serial_s, dict_one_pass_s) = dict_build_times(&cut)?;
    let dict_speedup = dict_serial_s / dict_one_pass_s.max(f64::MIN_POSITIVE);
    eprintln!(
        "  dictionary build: serial replay {dict_serial_s:.3} s, one-pass \
{dict_one_pass_s:.3} s ({dict_speedup:.1}x)"
    );

    // One exploration front; each backend re-prices the same
    // implementations, which is exactly the comparison the JSON reports.
    eprintln!("exploring a {evaluations}-evaluation front for the blueprint decode...");
    let (_case, diag, result) =
        run_case_study_exploration(evaluations, seed, 0, TransportConfig::MirroredCan)?;
    let mut transport_entries = Vec::new();
    let mut scale_entries = Vec::new();
    for (i, &kind) in transports.iter().enumerate() {
        let blueprints =
            blueprints_from_front_with(&diag, &result.front, &TransportConfig::for_kind(kind))?;
        transport_entries.push(transport_entry(kind, &cut, &blueprints, &config)?);
        // The scale sweep runs on the first backend's blueprints.
        if i == 0 {
            scale_entries = scale_sweep(kind, &cut, &blueprints, &scales, &config)?;
        }
    }

    let sched_campaign = sched_section(&small_cut, &config)?;
    let noisy_campaign = noisy_section(&small_cut, &config)?;

    let doc = Json::obj([
        ("machine_cores", cores.into()),
        ("word_bits", word_bits.into()),
        ("lanes", lanes.into()),
        ("dict_build_serial_s", dict_serial_s.into()),
        ("dict_build_one_pass_s", dict_one_pass_s.into()),
        ("dict_speedup_vs_serial", dict_speedup.into()),
        ("transports", Json::Arr(transport_entries)),
        ("scale_sweep", Json::Arr(scale_entries)),
        ("sched_campaign", sched_campaign),
        ("noisy_campaign", noisy_campaign),
        ("gateway_soak", gateway_soak),
    ])
    .pretty();
    println!("{doc}");
    let path = write_artifact("BENCH_fleet.json", &doc)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Runs the campaign at every `THREAD_SWEEP` count and asserts the
/// reports equal before any timing is used; returns the reference report
/// and the timing points.
fn thread_sweep(
    label: &str,
    cut: &CutModel,
    sram: Option<&MarchTest>,
    blueprints: &[VehicleBlueprint],
    config: &CampaignConfig,
) -> Result<(FleetReport, Vec<SweepPoint>), FleetError> {
    let run = |threads: usize| -> Result<(FleetReport, SweepPoint), FleetError> {
        let cfg = CampaignConfig {
            threads,
            ..config.clone()
        };
        let campaign = Campaign::with_models(cut, sram, blueprints, cfg)?;
        let start = Instant::now();
        let report = campaign.run();
        let seconds = start.elapsed().as_secs_f64();
        eprintln!(
            "[{label}] threads={threads}: {} vehicles in {seconds:.3} s \
({:.0} vehicles/s, {} sessions)",
            report.vehicles,
            f64::from(report.vehicles) / seconds,
            report.sessions_completed
        );
        Ok((report, SweepPoint { threads, seconds }))
    };
    let (reference, first) = run(THREAD_SWEEP[0])?;
    let mut points = vec![first];
    for &threads in &THREAD_SWEEP[1..] {
        let (report, point) = run(threads)?;
        assert!(
            report == reference,
            "[{label}] fleet report diverged at {threads} threads — determinism broken"
        );
        points.push(point);
    }
    Ok((reference, points))
}

fn sweep_json(points: &[SweepPoint], report: &FleetReport) -> Json {
    let base = points[0].seconds;
    Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::obj([
                    ("threads", p.threads.into()),
                    ("seconds", p.seconds.into()),
                    (
                        "vehicles_per_s",
                        (f64::from(report.vehicles) / p.seconds).into(),
                    ),
                    (
                        "sessions_per_s",
                        (report.sessions_completed as f64 / p.seconds).into(),
                    ),
                    ("speedup_vs_1_thread", (base / p.seconds).into()),
                ])
            })
            .collect(),
    )
}

/// The headline counters and detection-latency percentiles of a report.
fn campaign_json(report: &FleetReport) -> Json {
    Json::obj([
        ("vehicles", report.vehicles.into()),
        ("defective", report.defective.into()),
        ("detected", report.detected.into()),
        ("localized", report.localized.into()),
        ("sessions_completed", report.sessions_completed.into()),
        ("windows_used", report.windows_used.into()),
        ("batches", report.batches.into()),
        ("detection_rate", report.detection_rate().into()),
        ("localization_rate", report.localization_rate().into()),
        ("latency_p50_s", report.latency.p50_s.into()),
        ("latency_p90_s", report.latency.p90_s.into()),
        ("latency_p99_s", report.latency.p99_s.into()),
    ])
}

/// The `gateway_soak` section: the shed probe, then one point per fleet
/// size in which every vehicle arrives one by one through the bounded
/// ingest queue while mid-campaign snapshots are taken (their `detected`
/// counts must be monotone). Each point records the ingest throughput,
/// the snapshot latencies, the service counters and its own peak RSS — the
/// evidence that service state grows with uploads, not with the fleet.
/// At the smallest scale a replay under other shard/thread/queue
/// settings must give an equal final snapshot.
fn soak_section(cut: &CutModel, scales: &[u32], config: &CampaignConfig) -> BenchResult<Json> {
    let bp = trio(false, None, ChannelConfig::Clean);
    eprintln!("gateway soak: ingest queue capacity {DEFAULT_QUEUE_CAPACITY}, scales {scales:?}");
    let shed_probe = shed_probe(cut, &bp, config)?;

    let mut sweep = Vec::new();
    for &fleet in scales {
        let rss_start = reset_peak_rss();
        let campaign = Campaign::new(
            cut,
            &bp,
            CampaignConfig {
                vehicles: fleet,
                ..config.clone()
            },
        )?;
        let horizon_s = config.horizon_s;
        let mut svc = GatewayService::new(
            cut,
            GatewayConfig {
                vehicles: fleet,
                horizon_s,
                batch_size: config.batch_size,
                queue_capacity: DEFAULT_QUEUE_CAPACITY,
                shards: 0,
                threads: 0,
            },
        )?;

        // Sustained ingest with periodic snapshots-under-load: every
        // fleet/MID_SNAPSHOTS arrivals, snapshot at the proportional
        // campaign time. Each chunk of arrivals is simulated untimed into
        // a bounded buffer first, and snapshot time is accounted
        // separately, so arrivals_per_s measures the ingest path alone.
        let stride = (fleet as usize / MID_SNAPSHOTS).max(1);
        let mut ingest_s = 0.0f64;
        let mut mid_s = 0.0f64;
        let mut mids = 0usize;
        let mut prev_detected = 0u64;
        let mut arrivals = campaign.arrivals();
        let mut chunk = Vec::with_capacity(SOAK_CHUNK);
        let mut accepted = 0usize;
        loop {
            chunk.clear();
            chunk.extend(arrivals.by_ref().take(SOAK_CHUNK));
            if chunk.is_empty() {
                break;
            }
            let mut t = Instant::now();
            for &arrival in &chunk {
                svc.accept(arrival)?;
                accepted += 1;
                if accepted.is_multiple_of(stride) && mids + 1 < MID_SNAPSHOTS {
                    ingest_s += t.elapsed().as_secs_f64();
                    let at_s = horizon_s * accepted as f64 / f64::from(fleet);
                    let t0 = Instant::now();
                    let snap = svc.snapshot_at(at_s);
                    mid_s += t0.elapsed().as_secs_f64();
                    mids += 1;
                    assert!(
                        snap.report.detected >= prev_detected,
                        "snapshots-under-load are monotone in (ingested, t)"
                    );
                    prev_detected = snap.report.detected;
                    t = Instant::now();
                }
            }
            ingest_s += t.elapsed().as_secs_f64();
        }

        let t0 = Instant::now();
        let (fin, stages) = svc.snapshot_at_timed(horizon_s);
        let snapshot_s = t0.elapsed().as_secs_f64();
        assert!(fin.report.detected >= prev_detected);
        assert_eq!(
            fin.ingested,
            u64::from(fleet),
            "the trusted accept path never sheds"
        );
        assert_eq!(fin.shed, 0);
        assert_eq!(fin.duplicates, 0);

        // Cross-settings replay at the smallest scale: one extra full
        // pass, cheap at 100k, pointless at 10M.
        let bit_identical = if scales.first() == Some(&fleet) {
            assert!(
                replay_bit_identical(cut, &campaign, &fin)?,
                "final snapshot diverged across shard/thread/queue settings"
            );
            Some(true)
        } else {
            None
        };

        let rss = rss_start.and(peak_rss_kb());
        let arrivals_per_s = f64::from(fleet) / ingest_s;
        eprintln!(
            "[soak {fleet}] ingest {ingest_s:.3} s ({arrivals_per_s:.0} arrivals/s), \
{mids} mid snapshots ({mid_s:.3} s), final snapshot {snapshot_s:.3} s \
(diagnose {:.3} s), detected {}, truncated {}, peak RSS {} KiB",
            stages.diagnose_s,
            fin.report.detected,
            fin.truncated_uploads,
            rss.map_or_else(|| "?".into(), |kb| kb.to_string()),
        );
        sweep.push(Json::obj([
            ("vehicles", fleet.into()),
            ("queue_capacity", DEFAULT_QUEUE_CAPACITY.into()),
            ("ingest_s", ingest_s.into()),
            ("arrivals_per_s", arrivals_per_s.into()),
            ("snapshots", (mids + 1).into()),
            ("mid_snapshot_s_total", mid_s.into()),
            ("snapshot_s", snapshot_s.into()),
            ("detected", fin.report.detected.into()),
            ("uploads_ingested", fin.uploads_ingested.into()),
            ("shed", fin.shed.into()),
            ("duplicates", fin.duplicates.into()),
            ("truncated_uploads", fin.truncated_uploads.into()),
            ("peak_rss_kb", rss.into()),
            ("rss_start_kb", rss_start.into()),
            ("snapshot_bit_identical", bit_identical.into()),
        ]));
    }
    Ok(Json::obj([
        ("shed_probe", shed_probe),
        ("sweep", Json::Arr(sweep)),
    ]))
}

/// The overload shed policy, end to end: offer twice the queue capacity
/// with no drain in between. Every rejection must be the typed
/// `Overloaded` error, the shed counter must match, and the snapshot must
/// account `ingested + shed == offered`.
fn shed_probe(
    cut: &CutModel,
    bp: &[VehicleBlueprint],
    config: &CampaignConfig,
) -> BenchResult<Json> {
    let queue_capacity = DEFAULT_QUEUE_CAPACITY;
    let probe_fleet = u32::try_from(2 * queue_capacity)?;
    let campaign = Campaign::new(
        cut,
        bp,
        CampaignConfig {
            vehicles: probe_fleet,
            ..config.clone()
        },
    )?;
    let horizon_s = config.horizon_s;
    let mut svc = GatewayService::new(
        cut,
        GatewayConfig {
            vehicles: probe_fleet,
            horizon_s,
            queue_capacity,
            ..GatewayConfig::default()
        },
    )?;
    let mut offered = 0u64;
    let mut rejected = 0u64;
    for arrival in campaign.arrivals() {
        offered += 1;
        if svc.ingest(arrival).is_err() {
            rejected += 1;
        }
    }
    assert_eq!(
        svc.shed(),
        rejected,
        "every Overloaded rejection is counted as shed"
    );
    let snap = svc.snapshot_at(horizon_s);
    assert_eq!(
        snap.ingested + snap.shed,
        offered,
        "shed accounting covers every offered arrival"
    );
    assert_eq!(
        snap.shed,
        u64::from(probe_fleet) - queue_capacity as u64,
        "a full queue with no drain sheds exactly the overflow"
    );
    eprintln!(
        "[shed probe] queue {queue_capacity}, offered {offered}: \
ingested {}, shed {} (typed Overloaded), detected {}",
        snap.ingested, snap.shed, snap.report.detected
    );
    Ok(Json::obj([
        ("queue_capacity", queue_capacity.into()),
        ("offered", offered.into()),
        ("ingested", snap.ingested.into()),
        ("shed", snap.shed.into()),
        ("accounted", true.into()),
    ]))
}

/// Re-ingests the full arrival set of `campaign` under deliberately
/// different service settings and compares the final snapshot against
/// `reference` — the 100k-vehicle instantiation of the determinism
/// proptests, run at the smallest soak scale only.
fn replay_bit_identical(
    cut: &CutModel,
    campaign: &Campaign,
    reference: &GatewaySnapshot,
) -> Result<bool, FleetError> {
    let cfg = campaign.config();
    let mut svc = GatewayService::new(
        cut,
        GatewayConfig {
            vehicles: cfg.vehicles,
            horizon_s: cfg.horizon_s,
            batch_size: cfg.batch_size,
            queue_capacity: 64,
            shards: 7,
            threads: 3,
        },
    )?;
    for arrival in campaign.arrivals() {
        svc.accept(arrival)?;
    }
    Ok(&svc.snapshot_at(cfg.horizon_s) == reference)
}

/// Times the one-pass dictionary build against the per-fault serial
/// replay on `cut`'s substrate, asserting the tables equal at every fault
/// before the timings are returned.
fn dict_build_times(cut: &CutModel) -> Result<(f64, f64), FleetError> {
    let cfg = cut.config();
    let chains = eea_netlist::ScanChains::balanced(cut.circuit(), cfg.chains)?;
    let t = Instant::now();
    let serial = eea_bist::SessionTable::build_serial_replay(
        cut.circuit(),
        &chains,
        cfg.lfsr_seed,
        cfg.window,
        cfg.patterns,
    );
    let serial_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let one_pass = eea_bist::SessionTable::build(
        cut.circuit(),
        &chains,
        cfg.lfsr_seed,
        cfg.window,
        cfg.patterns,
        cfg.threads,
    );
    let one_pass_s = t.elapsed().as_secs_f64();
    for i in 0..serial.num_faults() {
        assert_eq!(
            serial.fail_data(i),
            one_pass.fail_data(i),
            "one-pass dictionary diverged from serial replay at fault {i}"
        );
        assert_eq!(serial.detect_windows(i), one_pass.detect_windows(i));
    }
    Ok((serial_s, one_pass_s))
}

/// One `transports` entry: the campaign over `kind`'s blueprints, thread
/// swept. `scripts/check_bench.py` gates the recorded speedups.
fn transport_entry(
    kind: TransportKind,
    cut: &CutModel,
    blueprints: &[VehicleBlueprint],
    config: &CampaignConfig,
) -> Result<Json, FleetError> {
    let capable = blueprints
        .iter()
        .filter(|b| b.is_campaign_capable())
        .count();
    eprintln!(
        "[{kind}] {} blueprints, {capable} campaign-capable",
        blueprints.len()
    );
    let (report, points) = thread_sweep(kind.label(), cut, None, blueprints, config)?;
    Ok(Json::obj([
        ("transport", kind.label().into()),
        ("bit_identical_across_sweep", true.into()),
        ("campaign", campaign_json(&report)),
        ("sweep", sweep_json(&points, &report)),
    ]))
}

/// The `scale_sweep` entries: the streaming-aggregation evidence. One run
/// per fleet size at auto thread count, with per-stage timings and the
/// point's own peak RSS.
fn scale_sweep(
    kind: TransportKind,
    cut: &CutModel,
    blueprints: &[VehicleBlueprint],
    scales: &[u32],
    config: &CampaignConfig,
) -> Result<Vec<Json>, FleetError> {
    let mut entries = Vec::new();
    for &fleet in scales {
        let cfg = CampaignConfig {
            vehicles: fleet,
            ..config.clone()
        };
        let threads_used = eea_faultsim::resolve_threads(cfg.threads);
        let rss_start = reset_peak_rss();
        let campaign = Campaign::new(cut, blueprints, cfg)?;
        let start = Instant::now();
        let (report, stages) = campaign.run_timed();
        let seconds = start.elapsed().as_secs_f64();
        let rss = rss_start.and(peak_rss_kb());
        eprintln!(
            "[scale {fleet}] {seconds:.3} s total ({:.0} vehicles/s) — \
simulate {:.3} s, merge {:.3} s, diagnose {:.3} s (lookup {:.3} s), \
fold {:.3} s, peak RSS {} KiB",
            f64::from(fleet) / seconds,
            stages.simulate_s,
            stages.merge_s,
            stages.diagnose_s,
            stages.diagnose_lookup_s,
            stages.fold_s,
            rss.map_or_else(|| "?".into(), |kb| kb.to_string()),
        );
        entries.push(Json::obj([
            ("vehicles", fleet.into()),
            ("transport", kind.label().into()),
            ("threads", threads_used.into()),
            ("seconds", seconds.into()),
            ("vehicles_per_s", (f64::from(fleet) / seconds).into()),
            ("peak_rss_kb", rss.into()),
            ("rss_start_kb", rss_start.into()),
            ("detected", report.detected.into()),
            (
                "stages",
                Json::obj([
                    ("simulate_s", stages.simulate_s.into()),
                    ("merge_s", stages.merge_s.into()),
                    ("diagnose_s", stages.diagnose_s.into()),
                    ("fold_s", stages.fold_s.into()),
                    ("dict_build_s", cut.dict_build_seconds().into()),
                    ("diagnose_lookup_s", stages.diagnose_lookup_s.into()),
                ]),
            ),
        ]));
    }
    Ok(entries)
}

/// The in-ECU cyclic-task set every scheduled blueprint carries: two
/// periodic tasks (hyperperiod 60 s, worst-case utilization ≈ 0.35) plus
/// one sporadic task (≈ 0.04), leaving idle intervals comfortably above
/// the 5 s minimum BIST slice.
fn task_set() -> TaskSetConfig {
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

fn family_json(f: &FamilyReport) -> Json {
    Json::obj([
        ("family", f.family.label().into()),
        ("detected", f.detected.into()),
        ("localized", f.localized.into()),
        ("latency_p50_s", f.latency.p50_s.into()),
        ("latency_p90_s", f.latency.p90_s.into()),
        ("latency_p99_s", f.latency.p99_s.into()),
    ])
}

/// The `sched_campaign` section: the same mixed logic/SRAM trio with flat
/// shut-off windows and with windows derived from [`task_set`]'s idle
/// intervals, side by side.
fn sched_section(cut: &CutModel, config: &CampaignConfig) -> BenchResult<Json> {
    let sram = MarchTest::build(SramConfig::default())?;
    eprintln!(
        "SRAM March C-: {} faults, {} detectable ({:.1} % coverage)",
        sram.num_faults(),
        sram.detectable_faults().len(),
        sram.coverage() * 100.0
    );
    let variant = |label: &str, task_set: Option<&TaskSetConfig>| {
        let bp = trio(true, task_set, ChannelConfig::Clean);
        let (report, points) = thread_sweep(label, cut, Some(&sram), &bp, config)?;
        let entry = Json::obj([
            ("windows", label.into()),
            ("bit_identical_across_sweep", true.into()),
            ("campaign", campaign_json(&report)),
            (
                "per_family",
                Json::Arr(report.per_family.iter().map(family_json).collect()),
            ),
            ("sweep", sweep_json(&points, &report)),
        ]);
        Ok::<_, FleetError>((report, entry))
    };
    let (flat, flat_entry) = variant("flat", None)?;
    let (sched, sched_entry) = variant("schedule", Some(&task_set()))?;

    // The headline comparison: the schedule only *removes* usable idle
    // time relative to the flat budget (busy intervals and sub-slice
    // fragments are lost), so detection latency can only stay or grow.
    let p50_ratio = if flat.latency.p50_s > 0.0 {
        sched.latency.p50_s / flat.latency.p50_s
    } else {
        1.0
    };
    eprintln!(
        "\nschedule vs flat: p50 latency {:.1} h vs {:.1} h ({p50_ratio:.2}x), \
windows used {} vs {}",
        sched.latency.p50_s / 3_600.0,
        flat.latency.p50_s / 3_600.0,
        sched.windows_used,
        flat.windows_used
    );
    Ok(Json::obj([
        ("vehicles", config.vehicles.into()),
        ("seed", config.seed.into()),
        ("latency_p50_ratio_sched_vs_flat", p50_ratio.into()),
        ("variants", Json::Arr(vec![flat_entry, sched_entry])),
    ]))
}

/// One noisy-grid point: the frame-error rate is the axis value; payload
/// corruption fires at 4× and window loss at 2× that rate (payload events
/// are per-upload, frame errors per-frame, so the higher payload rates
/// keep both effects visible at the low end of the grid).
fn noisy(rate: f64, cap: u64) -> ChannelConfig {
    ChannelConfig::Noisy(NoisyChannel {
        frame_error_rate: rate,
        corruption_rate: (4.0 * rate).min(0.9),
        window_loss_rate: (2.0 * rate).min(0.9),
        truncation_cap_bytes: cap,
        seed: CHANNEL_SEED,
    })
}

fn robustness_json(rob: &RobustnessReport) -> Json {
    let cdf = rob
        .rank_cdf
        .iter()
        .map(|p| {
            Json::obj([
                ("bound", p.bound.into()),
                ("impaired_le", p.impaired_le.into()),
                ("clean_le", p.clean_le.into()),
            ])
        })
        .collect();
    Json::obj([
        ("impaired_uploads", rob.impaired_uploads.into()),
        ("retransmitted_frames", rob.retransmitted_frames.into()),
        ("retransmit_overhead_s", rob.retransmit_overhead_s.into()),
        ("window_lost_uploads", rob.window_lost_uploads.into()),
        ("corrupted_uploads", rob.corrupted_uploads.into()),
        ("cap_truncated_uploads", rob.cap_truncated_uploads.into()),
        ("rejected_uploads", rob.rejected_uploads.into()),
        ("rank_degraded", rob.rank_degraded.into()),
        ("rank_improved", rob.rank_improved.into()),
        ("delocalized", rob.delocalized.into()),
        ("rank_cdf", Json::Arr(cdf)),
    ])
}

/// The `noisy_campaign` section: diagnosis quality on a noisy bus. Three
/// guarantees are asserted before any number is recorded: the clean
/// baseline carries no robustness block and (at 100k vehicles, seed 2014)
/// reproduces the frozen digest; a zero-rate `NoisyChannel`, which owns
/// and advances its own per-vehicle RNG streams, reproduces the clean
/// report; and every grid point detects what the clean run detects,
/// carries a robustness block, and is bit-identical across the thread
/// sweep.
fn noisy_section(cut: &CutModel, config: &CampaignConfig) -> BenchResult<Json> {
    let sweep = |label: &str, channel: ChannelConfig| {
        thread_sweep(label, cut, None, &trio(false, None, channel), config).map(|(r, _)| r)
    };
    let clean = sweep("clean", ChannelConfig::Clean)?;
    assert!(
        clean.robustness.is_none(),
        "clean campaign must not report a robustness axis"
    );
    let clean_digest = digest(&clean);
    let digest_frozen = config.vehicles == 100_000 && config.seed == 2014;
    if digest_frozen {
        assert_eq!(
            clean_digest, FROZEN_DIGEST,
            "clean channel must reproduce the frozen 100k digest"
        );
    }
    eprintln!("[clean] digest {clean_digest:#018X} (frozen contract checked: {digest_frozen})");

    let zero = sweep(
        "zero-rate-noisy",
        ChannelConfig::Noisy(NoisyChannel {
            seed: CHANNEL_SEED,
            ..NoisyChannel::default()
        }),
    )?;
    assert!(
        zero == clean,
        "zero-rate NoisyChannel must reproduce the Clean report bit-for-bit"
    );
    eprintln!("[zero-rate-noisy] bit-identical to clean: true");

    let mut points = Vec::new();
    let mut degraded_points = 0usize;
    for cap in CAPS {
        for rate in ERROR_RATES {
            let cap_bytes = (cap != u64::MAX).then_some(cap);
            let label = match cap_bytes {
                Some(bytes) => format!("rate {rate} / cap {bytes} B"),
                None => format!("rate {rate} / cap uncapped"),
            };
            let report = sweep(&label, noisy(rate, cap))?;
            assert_eq!(
                report.detected, clean.detected,
                "[{label}] impairment degrades ranks, it must not drop detections"
            );
            let Some(rob) = &report.robustness else {
                return Err(
                    format!("[{label}] nonzero rates must surface a robustness block").into(),
                );
            };
            degraded_points += usize::from(rob.rank_degraded > 0);
            eprintln!(
                "[{label}] impaired {} / retx frames {} (+{:.1} s) / degraded {} / \
delocalized {} / cap-truncated {}",
                rob.impaired_uploads,
                rob.retransmitted_frames,
                rob.retransmit_overhead_s,
                rob.rank_degraded,
                rob.delocalized,
                rob.cap_truncated_uploads,
            );
            points.push(Json::obj([
                ("frame_error_rate", rate.into()),
                ("truncation_cap_bytes", cap_bytes.into()),
                ("bit_identical_across_sweep", true.into()),
                ("detected", report.detected.into()),
                ("localized", report.localized.into()),
                ("robustness", robustness_json(rob)),
            ]));
        }
    }
    assert!(
        degraded_points >= 3,
        "the sweep must show rank degradation at >= 3 points, got {degraded_points}"
    );
    Ok(Json::obj([
        ("vehicles", config.vehicles.into()),
        ("seed", config.seed.into()),
        ("clean_digest", Json::Str(format!("{clean_digest:#018X}"))),
        ("clean_digest_frozen_checked", digest_frozen.into()),
        ("clean_equals_zero_rate_noisy", true.into()),
        ("points", Json::Arr(points)),
    ]))
}
