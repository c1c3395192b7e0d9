//! Sustained-arrival soak of the streaming gateway ingest service
//! (DESIGN.md §12).
//!
//! Where `fleet_campaign` measures the one-shot pipeline, this binary
//! drives the long-lived [`eea_fleet::GatewayService`]: every vehicle of
//! an `EEA_SOAK_SCALE`-sized fleet (default 100k/1M/10M) arrives one by
//! one through the bounded ingest queue, periodic mid-campaign snapshots
//! are taken *while arrivals keep coming* (their `detected` counts must
//! be monotone), and the final horizon snapshot closes the point. Per
//! scale the entry records the sustained ingest throughput
//! (`arrivals_per_s`, timing `accept` alone: each 64k-arrival chunk is
//! simulated untimed first), the snapshot latencies, the service counters
//! (`shed`, `duplicates`, `truncated_uploads`) and the process
//! `peak_rss_kb` — the memory-bound evidence: service state scales with
//! *uploads* (defective vehicles), not with the fleet.
//!
//! Two policy checks ride along:
//! - a **shed probe**: a deliberately tiny queue (capacity 256) offered
//!   512 arrivals with no drain must shed exactly the overflow through
//!   the typed [`FleetError::Overloaded`](eea_fleet::FleetError) path and
//!   account every shed arrival in the snapshot counters;
//! - a **bit-identity replay** at the smallest scale: the same arrival
//!   set re-ingested under different shard/thread/queue settings must
//!   produce an identical final snapshot (`snapshot_bit_identical`).
//!
//! Results merge into `BENCH_fleet.json` under a `"gateway_soak"` key,
//! preserving whatever `fleet_campaign` wrote there; run standalone it
//! writes a fresh file with just the soak section.
//!
//! ```text
//! cargo run -p eea-bench --bin gateway_soak --release
//! EEA_SOAK_SCALE=50000 cargo run -p eea-bench --bin gateway_soak --release
//! EEA_SOAK_QUEUE=1024 cargo run -p eea-bench --bin gateway_soak --release
//! EEA_OUT_DIR=target/exp cargo run -p eea-bench --bin gateway_soak --release
//! ```

use std::time::Instant;

use eea_bench::{env_u64, env_u64_list, env_usize, out_path, peak_rss_kb};
use eea_dse::EeaError;
use eea_fleet::{
    Campaign, CampaignConfig, ChannelConfig, CutConfig, CutFamily, CutModel, EcuSessionPlan,
    GatewayConfig, GatewayService, GatewaySnapshot, TransportKind, VehicleBlueprint,
    DEFAULT_QUEUE_CAPACITY,
};
use eea_model::ResourceId;

/// Default `EEA_SOAK_SCALE` points: 100k, 1M, 10M vehicles.
const SCALE_SWEEP: [u64; 3] = [100_000, 1_000_000, 10_000_000];

/// Mid-campaign snapshots taken per scale point while arrivals continue.
const MID_SNAPSHOTS: usize = 8;

/// Arrivals simulated (untimed) ahead of each timed ingest chunk: keeps
/// vehicle simulation out of `arrivals_per_s` with a buffer of a few MB
/// at any fleet size.
const SOAK_CHUNK: usize = 65_536;

/// The ingest queue capacity: `EEA_SOAK_QUEUE` (floored at 1) over the
/// service default. One resolver for both the sweep *and* the shed probe
/// — the probe historically pinned its own 256-entry queue and silently
/// ignored the env knob.
fn soak_queue_capacity() -> usize {
    env_usize("EEA_SOAK_QUEUE", DEFAULT_QUEUE_CAPACITY).max(1)
}

/// The hand-built blueprint trio shared with the determinism and frozen
/// gateway tests: one all-local fast implementation, one
/// gateway-streaming, one with a never-runnable session.
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

fn campaign_config(vehicles: u32, seed: u64) -> CampaignConfig {
    CampaignConfig {
        vehicles,
        seed,
        threads: 0,
        ..CampaignConfig::default()
    }
}

/// The overload shed policy, exercised end to end: offer twice
/// `queue_capacity` arrivals to the configured queue with no drain in
/// between. Every rejection must be the typed `Overloaded` error, the
/// shed counter must match, and the snapshot must account
/// `ingested + shed == offered`. The probe honors `EEA_SOAK_QUEUE` like
/// the sweep does — the overflow asserted is always exactly the
/// capacity, whatever the knob says.
fn shed_probe(
    cut: &CutModel,
    bp: &[VehicleBlueprint],
    seed: u64,
    queue_capacity: usize,
) -> Result<String, EeaError> {
    let probe_offered = u32::try_from(queue_capacity * 2).unwrap_or(u32::MAX);
    let campaign = Campaign::new(cut, bp, campaign_config(probe_offered, seed))?;
    let horizon_s = campaign.config().horizon_s;
    let mut svc = GatewayService::new(
        cut,
        GatewayConfig {
            vehicles: probe_offered,
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
        u64::from(probe_offered) - queue_capacity as u64,
        "a full queue with no drain sheds exactly the overflow"
    );
    eprintln!(
        "[shed probe] queue {queue_capacity}, offered {offered}: \
ingested {}, shed {} (typed Overloaded), detected {}",
        snap.ingested, snap.shed, snap.report.detected
    );
    Ok(format!(
        "\"shed_probe\": {{\"queue_capacity\": {queue_capacity}, \"offered\": {offered}, \
\"ingested\": {}, \"shed\": {}, \"accounted\": true}}",
        snap.ingested, snap.shed
    ))
}

/// Re-ingests the full arrival set of `campaign` under deliberately
/// different service settings and compares the final snapshot against
/// `reference` — the 100k-vehicle instantiation of the determinism
/// proptests, run at the smallest sweep scale only.
fn replay_bit_identical(
    cut: &CutModel,
    campaign: &Campaign,
    reference: &GatewaySnapshot,
) -> Result<bool, EeaError> {
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

fn main() -> Result<(), EeaError> {
    let seed = env_u64("EEA_SEED", 2014);
    let queue_capacity = soak_queue_capacity();
    let mut scales = env_u64_list("EEA_SOAK_SCALE", &SCALE_SWEEP);
    // Ascending order: the RSS high-water mark is monotone over the
    // process lifetime, so each sample then reflects its own campaign.
    scales.sort_unstable();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "machine: {cores} core(s); ingest queue capacity {queue_capacity}; \
scales {scales:?}"
    );

    // The small shared substrate of the determinism/frozen-gateway tests:
    // the soak measures the *service*, not gate-level simulation, so the
    // CUT stays deliberately cheap.
    let cut = CutModel::build(CutConfig {
        gates: 100,
        patterns: 128,
        window: 16,
        ..CutConfig::default()
    })?;
    let bp = blueprints();

    let probe_json = shed_probe(&cut, &bp, seed, queue_capacity)?;

    let mut entries = Vec::new();
    for &fleet in &scales {
        let campaign = Campaign::new(&cut, &bp, campaign_config(fleet as u32, seed))?;
        let horizon_s = campaign.config().horizon_s;
        let mut svc = GatewayService::new(
            &cut,
            GatewayConfig {
                vehicles: fleet as u32,
                horizon_s,
                batch_size: campaign.config().batch_size,
                queue_capacity,
                shards: 0,
                threads: 0,
            },
        )?;

        // Sustained ingest with periodic snapshots-under-load: every
        // n/MID_SNAPSHOTS arrivals, snapshot at the proportional campaign
        // time. Each chunk of arrivals is simulated untimed into a bounded
        // buffer first, and snapshot time is accounted separately, so
        // arrivals_per_s measures the ingest path alone.
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
                    let at_s = horizon_s * accepted as f64 / fleet as f64;
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
        assert_eq!(fin.ingested, fleet, "the trusted accept path never sheds");
        assert_eq!(fin.shed, 0);
        assert_eq!(fin.duplicates, 0);

        // Cross-settings replay at the smallest scale: one extra full
        // pass, cheap at 100k, pointless at 10M.
        let bit_identical = if fleet == scales[0] {
            let ok = replay_bit_identical(&cut, &campaign, &fin)?;
            assert!(
                ok,
                "final snapshot diverged across shard/thread/queue settings"
            );
            Some(ok)
        } else {
            None
        };

        let rss = peak_rss_kb();
        let arrivals_per_s = fleet as f64 / ingest_s;
        eprintln!(
            "[soak {fleet}] ingest {ingest_s:.3} s ({arrivals_per_s:.0} arrivals/s), \
{mids} mid snapshots ({mid_s:.3} s), final snapshot {snapshot_s:.3} s \
(diagnose {:.3} s), detected {}, truncated {}, peak RSS {} KiB",
            stages.diagnose_s,
            fin.report.detected,
            fin.truncated_uploads,
            rss.map_or_else(|| "?".into(), |kb| kb.to_string()),
        );
        entries.push(format!(
            "      {{\"vehicles\": {fleet}, \"queue_capacity\": {queue_capacity}, \
\"machine_cores\": {cores}, \"ingest_s\": {ingest_s:.6}, \
\"arrivals_per_s\": {arrivals_per_s:.2}, \"snapshots\": {}, \
\"mid_snapshot_s_total\": {mid_s:.6}, \"snapshot_s\": {snapshot_s:.6}, \
\"detected\": {}, \"uploads_ingested\": {}, \"shed\": {}, \"duplicates\": {}, \
\"truncated_uploads\": {}, \"peak_rss_kb\": {}, \"snapshot_bit_identical\": {}}}",
            mids + 1,
            fin.report.detected,
            fin.uploads_ingested,
            fin.shed,
            fin.duplicates,
            fin.truncated_uploads,
            rss.map_or_else(|| "null".into(), |kb| kb.to_string()),
            bit_identical.map_or_else(|| "null".into(), |b| b.to_string()),
        ));
    }

    let section = format!(
        "\"gateway_soak\": {{\n    {probe_json},\n    \"sweep\": [\n{}\n    ]\n  }}",
        entries.join(",\n")
    );
    let path = out_path("BENCH_fleet.json");
    let json = merge_section(std::fs::read_to_string(&path).ok().as_deref(), &section);
    println!("{json}");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    Ok(())
}

/// Splices the `"gateway_soak"` section into an existing
/// `BENCH_fleet.json` (replacing a previous soak section when re-run),
/// or produces a standalone document when the file is absent or not the
/// expected shape. Plain string surgery — the workspace has no JSON
/// dependency by design.
fn merge_section(existing: Option<&str>, section: &str) -> String {
    let fallback = || format!("{{\n  {section}\n}}\n");
    let Some(existing) = existing else {
        return fallback();
    };
    // Re-run: the previous merge appended the soak section last, right
    // before the document's closing brace — truncating at its key leaves
    // the rest of the document intact and already brace-less.
    if let Some(at) = existing.find(",\n  \"gateway_soak\"") {
        let body = existing[..at].trim_end();
        return format!("{body},\n  {section}\n}}\n");
    }
    // First run: peel the document's closing brace.
    let Some(end) = existing.rfind('}') else {
        return fallback();
    };
    let body = existing[..end].trim_end();
    if body.is_empty() || !body.starts_with('{') {
        return fallback();
    }
    format!("{body},\n  {section}\n}}\n")
}

#[cfg(test)]
mod tests {
    use super::{merge_section, soak_queue_capacity};
    use eea_fleet::DEFAULT_QUEUE_CAPACITY;

    #[test]
    fn soak_queue_env_parses_with_floor_and_fallback() {
        // The one knob the shed probe historically ignored: valid values
        // pass through, zero floors at 1 (a zero-capacity queue can never
        // ingest), garbage falls back to the service default.
        std::env::remove_var("EEA_SOAK_QUEUE");
        assert_eq!(soak_queue_capacity(), DEFAULT_QUEUE_CAPACITY.max(1));
        std::env::set_var("EEA_SOAK_QUEUE", "1024");
        assert_eq!(soak_queue_capacity(), 1024);
        std::env::set_var("EEA_SOAK_QUEUE", "0");
        assert_eq!(soak_queue_capacity(), 1);
        std::env::set_var("EEA_SOAK_QUEUE", "not-a-number");
        assert_eq!(soak_queue_capacity(), DEFAULT_QUEUE_CAPACITY.max(1));
        std::env::remove_var("EEA_SOAK_QUEUE");
    }

    #[test]
    fn merges_and_remerges() {
        let fresh = merge_section(None, "\"gateway_soak\": {\"x\": 1}");
        assert_eq!(fresh, "{\n  \"gateway_soak\": {\"x\": 1}\n}\n");
        let doc = "{\n  \"transports\": [\n    {}\n  ]\n}\n";
        let merged = merge_section(Some(doc), "\"gateway_soak\": {\"x\": 1}");
        assert_eq!(
            merged,
            "{\n  \"transports\": [\n    {}\n  ],\n  \"gateway_soak\": {\"x\": 1}\n}\n"
        );
        let remerged = merge_section(Some(&merged), "\"gateway_soak\": {\"x\": 2}");
        assert_eq!(
            remerged,
            "{\n  \"transports\": [\n    {}\n  ],\n  \"gateway_soak\": {\"x\": 2}\n}\n"
        );
        assert_eq!(
            merge_section(Some("garbage"), "\"gateway_soak\": {}"),
            "{\n  \"gateway_soak\": {}\n}\n"
        );
    }
}
