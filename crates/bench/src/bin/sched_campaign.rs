//! Schedule-derived vs flat shut-off windows over a heterogeneous
//! (logic + SRAM March) fleet — the in-ECU task-model evidence.
//!
//! Builds the shared logic CUT and the March-test SRAM model, then runs
//! the *same* mixed-family blueprint trio twice: once with the flat
//! driving/parked shut-off budget (the historical window source) and once
//! with windows derived from a fixed-priority cyclic-task schedule's idle
//! intervals ([`eea_fleet::TaskSchedule`]). Each variant sweeps 1/2/4/8
//! worker threads; the [`eea_fleet::FleetReport`] is
//! asserted **bit-identical across the sweep** before any number is
//! reported. Per variant the entry records the headline campaign counters
//! plus the per-family detection/latency split
//! ([`eea_fleet::FleetReport::per_family`]) — the schedule-vs-flat
//! latency comparison lands side by side in `BENCH_fleet.json` under a
//! `"sched_campaign"` key, cooperating with the sections `fleet_campaign`
//! and `gateway_soak` write.
//!
//! ```text
//! cargo run -p eea-bench --bin sched_campaign --release
//! EEA_SCHED_VEHICLES=10000 cargo run -p eea-bench --bin sched_campaign --release
//! EEA_OUT_DIR=target/exp cargo run -p eea-bench --bin sched_campaign --release
//! ```

use std::time::Instant;

use eea_bench::{env_u64, env_usize, out_path};
use eea_dse::EeaError;
use eea_fleet::{
    Campaign, CampaignConfig, ChannelConfig, CutConfig, CutFamily, CutModel, EcuSessionPlan,
    FamilyReport, FleetReport, MarchTest, PeriodicTask, SporadicTask, SramConfig, TaskSetConfig,
    TransportKind, VehicleBlueprint,
};
use eea_model::ResourceId;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

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

/// The mixed-family sibling of the determinism-test trio: one all-local
/// logic implementation, one gateway-streaming SRAM implementation, and
/// one heterogeneous blueprint (dead logic session + streaming SRAM
/// session). `task_set` is stamped on every blueprint for the schedule
/// variant and left `None` for the flat variant.
fn blueprints(task_set: Option<&TaskSetConfig>) -> Vec<VehicleBlueprint> {
    let plan = |ecu: usize, family: CutFamily, transfer_s: f64, upload_bw: f64| EcuSessionPlan {
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
                plan(0, CutFamily::Logic, 0.0, 400.0),
                plan(1, CutFamily::Logic, 0.0, 150.0),
            ],
            shutoff_budget_s: 900.0,
            transport: TransportKind::MirroredCan,
            channel: ChannelConfig::Clean,
            task_set: task_set.cloned(),
        },
        VehicleBlueprint {
            implementation_index: 1,
            sessions: vec![plan(2, CutFamily::Sram, 1_500.0, 80.0)],
            shutoff_budget_s: 4_000.0,
            transport: TransportKind::MirroredCan,
            channel: ChannelConfig::Clean,
            task_set: task_set.cloned(),
        },
        VehicleBlueprint {
            implementation_index: 2,
            sessions: vec![
                plan(3, CutFamily::Logic, f64::INFINITY, 0.0),
                plan(4, CutFamily::Sram, 300.0, 60.0),
            ],
            shutoff_budget_s: 2_000.0,
            transport: TransportKind::MirroredCan,
            channel: ChannelConfig::Clean,
            task_set: task_set.cloned(),
        },
    ]
}

fn json_family(f: &FamilyReport) -> String {
    format!(
        "{{\"family\": \"{}\", \"detected\": {}, \"localized\": {}, \
\"latency_p50_s\": {:.1}, \"latency_p90_s\": {:.1}, \"latency_p99_s\": {:.1}}}",
        f.family.label(),
        f.detected,
        f.localized,
        f.latency.p50_s,
        f.latency.p90_s,
        f.latency.p99_s,
    )
}

fn json_report(report: &FleetReport) -> String {
    let families: Vec<String> = report.per_family.iter().map(json_family).collect();
    format!(
        "\"campaign\": {{\"vehicles\": {}, \"defective\": {}, \"detected\": {}, \
\"localized\": {}, \"sessions_completed\": {}, \"windows_used\": {}, \
\"detection_rate\": {:.4}, \"latency_p50_s\": {:.1}, \"latency_p90_s\": {:.1}, \
\"latency_p99_s\": {:.1}}},\n      \"per_family\": [{}]",
        report.vehicles,
        report.defective,
        report.detected,
        report.localized,
        report.sessions_completed,
        report.windows_used,
        report.detection_rate(),
        report.latency.p50_s,
        report.latency.p90_s,
        report.latency.p99_s,
        families.join(", "),
    )
}

/// One variant (flat or schedule windows): thread-sweep the campaign,
/// assert bit-identity, return the reference report + the JSON entry.
fn run_variant(
    label: &str,
    cut: &CutModel,
    sram: &MarchTest,
    bp: &[VehicleBlueprint],
    config: &CampaignConfig,
    cores: usize,
) -> Result<(FleetReport, String), EeaError> {
    let mut reference: Option<FleetReport> = None;
    let mut sweep = Vec::new();
    for &threads in &THREAD_SWEEP {
        let cfg = CampaignConfig {
            threads,
            ..config.clone()
        };
        let campaign = Campaign::with_models(cut, Some(sram), bp, cfg)?;
        let start = Instant::now();
        let report = campaign.run();
        let seconds = start.elapsed().as_secs_f64();
        eprintln!(
            "[{label}] threads={threads}: {} vehicles in {seconds:.3} s \
({:.0} vehicles/s, {} windows used)",
            report.vehicles,
            f64::from(report.vehicles) / seconds,
            report.windows_used
        );
        sweep.push(format!(
            "        {{\"threads\": {threads}, \"seconds\": {seconds:.6}, \
\"vehicles_per_s\": {:.2}}}",
            f64::from(report.vehicles) / seconds
        ));
        match &reference {
            None => reference = Some(report),
            Some(r) => assert!(
                *r == report,
                "[{label}] fleet report diverged at {threads} threads — determinism broken"
            ),
        }
    }
    let Some(report) = reference else {
        // THREAD_SWEEP is non-empty; keep the binary panic-lean anyway.
        return Err(EeaError::Fleet("empty thread sweep".into()));
    };
    for fam in &report.per_family {
        eprintln!(
            "[{label}]   {}: {} detected, {} localized, p50 latency {:.1} h",
            fam.family.label(),
            fam.detected,
            fam.localized,
            fam.latency.p50_s / 3_600.0
        );
    }
    let entry = format!(
        "    {{\n      \"windows\": \"{label}\",\n      \"machine_cores\": {cores},\n      \
\"bit_identical_across_sweep\": true,\n      {},\n      \"sweep\": [\n{}\n      ]\n    }}",
        json_report(&report),
        sweep.join(",\n")
    );
    Ok((report, entry))
}

fn main() -> Result<(), EeaError> {
    let vehicles = env_usize("EEA_SCHED_VEHICLES", 100_000) as u32;
    let seed = env_u64("EEA_SEED", 2014);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("machine: {cores} core(s); {vehicles} vehicles, seed {seed}");

    // The cheap shared substrate of the determinism tests plus the
    // default 64×16 SRAM: the sweep measures window-source and family
    // plumbing, not gate-level simulation.
    let cut = CutModel::build(CutConfig {
        gates: 100,
        patterns: 128,
        window: 16,
        ..CutConfig::default()
    })?;
    let sram =
        MarchTest::build(SramConfig::default()).map_err(|e| EeaError::Fleet(e.to_string()))?;
    eprintln!(
        "SRAM March C-: {} faults, {} detectable ({:.1} % coverage)",
        sram.num_faults(),
        sram.detectable_faults().len(),
        sram.coverage() * 100.0
    );

    let config = CampaignConfig {
        vehicles,
        seed,
        ..CampaignConfig::default()
    };

    let ts = task_set();
    let flat_bp = blueprints(None);
    let sched_bp = blueprints(Some(&ts));
    let (flat, flat_entry) = run_variant("flat", &cut, &sram, &flat_bp, &config, cores)?;
    let (sched, sched_entry) = run_variant("schedule", &cut, &sram, &sched_bp, &config, cores)?;

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

    let section = format!(
        "\"sched_campaign\": {{\n    \"vehicles\": {vehicles}, \"seed\": {seed}, \
\"latency_p50_ratio_sched_vs_flat\": {p50_ratio:.4},\n    \"variants\": [\n{flat_entry},\n{sched_entry}\n    ]\n  }}"
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

/// Splices the `"sched_campaign"` section into an existing
/// `BENCH_fleet.json`, replacing a previous sched section when re-run.
/// The section is always inserted *before* any `"gateway_soak"` section,
/// preserving that binary's last-section invariant (its own merge
/// truncates at the soak key). Plain string surgery — the workspace has
/// no JSON dependency by design.
fn merge_section(existing: Option<&str>, section: &str) -> String {
    const KEY: &str = ",\n  \"sched_campaign\"";
    const SOAK: &str = ",\n  \"gateway_soak\"";
    let fallback = || format!("{{\n  {section}\n}}\n");
    let Some(existing) = existing else {
        return fallback();
    };
    // Re-run: peel the previous sched section, which ends either at the
    // soak key (sched is inserted before soak) or at the document's
    // closing brace.
    let cleaned: String = if let Some(at) = existing.find(KEY) {
        match existing[at + KEY.len()..].find(SOAK) {
            Some(rel) => {
                let soak_at = at + KEY.len() + rel;
                format!("{}{}", &existing[..at], &existing[soak_at..])
            }
            None => format!("{}\n}}\n", existing[..at].trim_end()),
        }
    } else {
        existing.to_string()
    };
    if let Some(at) = cleaned.find(SOAK) {
        return format!("{},\n  {section}{}", &cleaned[..at], &cleaned[at..]);
    }
    let Some(end) = cleaned.rfind('}') else {
        return fallback();
    };
    let body = cleaned[..end].trim_end();
    if body.is_empty() || !body.starts_with('{') {
        return fallback();
    }
    format!("{body},\n  {section}\n}}\n")
}

#[cfg(test)]
mod tests {
    use super::merge_section;

    #[test]
    fn merges_remerges_and_keeps_soak_last() {
        let fresh = merge_section(None, "\"sched_campaign\": {\"x\": 1}");
        assert_eq!(fresh, "{\n  \"sched_campaign\": {\"x\": 1}\n}\n");

        let doc = "{\n  \"transports\": [\n    {}\n  ]\n}\n";
        let merged = merge_section(Some(doc), "\"sched_campaign\": {\"x\": 1}");
        assert_eq!(
            merged,
            "{\n  \"transports\": [\n    {}\n  ],\n  \"sched_campaign\": {\"x\": 1}\n}\n"
        );
        let remerged = merge_section(Some(&merged), "\"sched_campaign\": {\"x\": 2}");
        assert_eq!(
            remerged,
            "{\n  \"transports\": [\n    {}\n  ],\n  \"sched_campaign\": {\"x\": 2}\n}\n"
        );

        // With a soak section present the sched section lands before it,
        // and replacing an old sched section leaves soak untouched.
        let with_soak = "{\n  \"transports\": [],\n  \"gateway_soak\": {\"s\": 1}\n}\n";
        let merged = merge_section(Some(with_soak), "\"sched_campaign\": {\"x\": 1}");
        assert_eq!(
            merged,
            "{\n  \"transports\": [],\n  \"sched_campaign\": {\"x\": 1},\n  \
\"gateway_soak\": {\"s\": 1}\n}\n"
        );
        let remerged = merge_section(Some(&merged), "\"sched_campaign\": {\"x\": 2}");
        assert_eq!(
            remerged,
            "{\n  \"transports\": [],\n  \"sched_campaign\": {\"x\": 2},\n  \
\"gateway_soak\": {\"s\": 1}\n}\n"
        );

        assert_eq!(
            merge_section(Some("garbage"), "\"sched_campaign\": {}"),
            "{\n  \"sched_campaign\": {}\n}\n"
        );
    }
}
