//! Fleet-scale diagnosis campaign throughput sweep across transport
//! backends.
//!
//! Builds the shared CUT model, explores **one** case-study front, then
//! decodes it into vehicle blueprints once per `EEA_TRANSPORTS` backend
//! (default: classic mirrored CAN, CAN FD, and FlexRay) and runs the same
//! campaign at 1/2/4/8 worker threads per backend. Within each backend the
//! [`eea_fleet::FleetReport`] is asserted **bit-identical across the
//! sweep** before any timing is reported; timings and the per-backend
//! detection-latency percentiles land in `BENCH_fleet.json` (one entry per
//! transport, tagged with its `"transport"` label), so a single run yields
//! the classic-vs-FD-vs-FlexRay latency comparison.
//!
//! A second, `EEA_FLEET_SCALE`-driven sweep (default 100k/1M/10M vehicles)
//! exercises the streaming gateway aggregation (DESIGN.md §10) at scale on
//! the first selected backend, recording per-stage timings
//! (simulate/merge/diagnose/fold) and the process peak RSS per point.
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

use std::time::Instant;

use eea_bench::{
    env_scale_sweep, env_transports, env_u64, env_usize, out_path, peak_rss_kb,
    run_case_study_exploration,
};
use eea_dse::EeaError;
use eea_fleet::{
    blueprints_from_front_with, Campaign, CampaignConfig, CutConfig, CutModel, FleetReport,
    TransportConfig, TransportKind,
};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Default `EEA_FLEET_SCALE` points: 100k, 1M, 10M vehicles.
const SCALE_SWEEP: [u64; 3] = [100_000, 1_000_000, 10_000_000];

/// Minimum best-case parallel speedup the thread sweep must show on a
/// multi-core machine with a fleet large enough to amortize spawn
/// overhead. Deliberately lax — the gate catches "parallelism broke
/// entirely", not scheduler noise.
const MIN_SPEEDUP: f64 = 1.05;
const SPEEDUP_MIN_VEHICLES: u32 = 50_000;

struct SweepPoint {
    threads: usize,
    seconds: f64,
    vehicles_per_s: f64,
    sessions_per_s: f64,
}

fn json_report(report: &FleetReport) -> String {
    format!(
        "\"campaign\": {{\"vehicles\": {}, \"defective\": {}, \"detected\": {}, \"localized\": {}, \
\"sessions_completed\": {}, \"batches\": {}, \"detection_rate\": {:.4}, \"localization_rate\": {:.4}, \
\"latency_p50_s\": {:.1}, \"latency_p90_s\": {:.1}, \"latency_p99_s\": {:.1}}}",
        report.vehicles,
        report.defective,
        report.detected,
        report.localized,
        report.sessions_completed,
        report.batches,
        report.detection_rate(),
        report.localization_rate(),
        report.latency.p50_s,
        report.latency.p90_s,
        report.latency.p99_s,
    )
}

fn main() -> Result<(), EeaError> {
    let vehicles = env_usize("EEA_FLEET_VEHICLES", 100_000) as u32;
    let evaluations = env_usize("EEA_FLEET_EVALS", 2_000);
    let seed = env_u64("EEA_SEED", 2014);
    let transports = env_transports(&TransportKind::ALL);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Pattern-word geometry of the simulation substrate that produced the
    // CUT model — recorded alongside machine_cores in every entry so that
    // timing entries from different word widths are never compared as if
    // like-for-like.
    let word_bits = eea_faultsim::PatternBlock::CAPACITY;
    let lanes = eea_faultsim::DEFAULT_LANES;
    eprintln!("machine: {cores} core(s) available, {word_bits}-bit pattern word ({lanes} lanes)");

    eprintln!("building CUT model (golden session + per-fault fail data)...");
    let cut = CutModel::build(CutConfig::default())?;
    eprintln!(
        "  {} collapsed faults, {} session-detectable ({:.1} % coverage)",
        cut.num_faults(),
        cut.detectable_faults().len(),
        cut.coverage() * 100.0
    );

    // Dictionary-build microbenchmark on the same substrate: the one-pass
    // wide-word sweep vs the historical per-fault session replay, with
    // the tables asserted equal before the ratio is trusted.
    let (dict_serial_s, dict_one_pass_s) = {
        let cfg = cut.config();
        let chains = eea_netlist::ScanChains::balanced(cut.circuit(), cfg.chains)
            .map_err(eea_fleet::FleetError::from)?;
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
        (serial_s, one_pass_s)
    };
    let dict_speedup = dict_serial_s / dict_one_pass_s.max(f64::MIN_POSITIVE);
    eprintln!(
        "  dictionary build: serial replay {dict_serial_s:.3} s, one-pass \
{dict_one_pass_s:.3} s ({dict_speedup:.1}x)"
    );

    // One exploration front; each backend re-prices the same
    // implementations, which is exactly the comparison the JSON reports.
    eprintln!("exploring a {evaluations}-evaluation front for the blueprint decode...");
    let (_case, diag, result) = run_case_study_exploration(evaluations, seed, 0)?;

    let config = CampaignConfig {
        vehicles,
        seed,
        ..CampaignConfig::default()
    };
    eprintln!(
        "campaign: {vehicles} vehicles, {:.0} % defective, {:.0}-day horizon\n",
        config.defect_fraction * 100.0,
        config.horizon_s / 86_400.0
    );

    let mut entries = Vec::new();
    for &kind in &transports {
        let transport = TransportConfig::for_kind(kind);
        let blueprints = blueprints_from_front_with(&diag, &result.front, &transport)?;
        let capable = blueprints.iter().filter(|b| b.is_campaign_capable()).count();
        eprintln!(
            "[{kind}] {} blueprints, {} campaign-capable",
            blueprints.len(),
            capable
        );

        let mut points = Vec::new();
        let mut reference: Option<FleetReport> = None;
        for &threads in &THREAD_SWEEP {
            let cfg = CampaignConfig {
                threads,
                ..config.clone()
            };
            let campaign = Campaign::new(&cut, &blueprints, cfg)?;
            let start = Instant::now();
            let report = campaign.run();
            let seconds = start.elapsed().as_secs_f64();
            eprintln!(
                "[{kind}] threads={threads}: {vehicles} vehicles in {seconds:.3} s \
({:.0} vehicles/s, {} sessions)",
                f64::from(vehicles) / seconds,
                report.sessions_completed
            );
            points.push(SweepPoint {
                threads,
                seconds,
                vehicles_per_s: f64::from(vehicles) / seconds,
                sessions_per_s: report.sessions_completed as f64 / seconds,
            });
            match &reference {
                None => reference = Some(report),
                Some(r) => assert!(
                    *r == report,
                    "fleet report diverged at {threads} threads on {kind} — determinism broken"
                ),
            }
        }
        // The sweep always has at least one point; keep the binary
        // panic-lean anyway.
        let Some(report) = reference else {
            continue;
        };

        // Speedup gate: on a multi-core machine with a fleet big enough
        // to amortize thread spawns, *some* sweep point must beat the
        // serial baseline — otherwise the parallel fold regressed.
        let best_speedup = points
            .iter()
            .map(|p| points[0].seconds / p.seconds)
            .fold(1.0_f64, f64::max);
        if cores == 1 {
            eprintln!(
                "[{kind}] note: single-core machine — thread-sweep speedup \
assertion skipped (best observed {best_speedup:.3}x)"
            );
        } else if vehicles < SPEEDUP_MIN_VEHICLES {
            eprintln!(
                "[{kind}] note: fleet of {vehicles} is below the \
{SPEEDUP_MIN_VEHICLES}-vehicle floor — speedup dominated by thread \
overhead, assertion skipped (best observed {best_speedup:.3}x)"
            );
        } else {
            assert!(
                best_speedup > MIN_SPEEDUP,
                "[{kind}] best thread-sweep speedup {best_speedup:.3}x on a \
{cores}-core machine — parallel simulation fold regressed"
            );
        }

        eprintln!(
            "[{kind}] {} defective vehicles, {} detected ({:.1} %), {} localized ({:.1} %), \
p50 latency {:.1} h\n",
            report.defective,
            report.detected,
            report.detection_rate() * 100.0,
            report.localized,
            report.localization_rate() * 100.0,
            report.latency.p50_s / 3_600.0
        );

        let base = points[0].seconds;
        let sweep: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "        {{\"threads\": {}, \"seconds\": {:.6}, \"vehicles_per_s\": {:.2}, \
\"sessions_per_s\": {:.2}, \"speedup_vs_1_thread\": {:.3}}}",
                    p.threads,
                    p.seconds,
                    p.vehicles_per_s,
                    p.sessions_per_s,
                    base / p.seconds
                )
            })
            .collect();
        entries.push(format!(
            "    {{\n      \"transport\": \"{}\",\n      \"machine_cores\": {cores},\n      \"word_bits\": {word_bits},\n      \"lanes\": {lanes},\n      \"bit_identical_across_sweep\": true,\n      {},\n      \"sweep\": [\n{}\n      ]\n    }}",
            kind.label(),
            json_report(&report),
            sweep.join(",\n")
        ));
    }

    // Scale sweep: the streaming-aggregation evidence. One run per fleet
    // size on the first selected backend at auto thread count, reporting
    // per-stage timings (simulate / merge / diagnose / fold) and the
    // process peak RSS. Points run in ascending size order because the
    // RSS high-water mark is monotone — each sample then belongs to the
    // largest campaign seen so far, i.e. its own.
    let mut scales = env_scale_sweep(&SCALE_SWEEP);
    scales.sort_unstable();
    let mut scale_entries = Vec::new();
    if let Some(&kind) = transports.first() {
        let transport = TransportConfig::for_kind(kind);
        let blueprints = blueprints_from_front_with(&diag, &result.front, &transport)?;
        for &fleet in &scales {
            let cfg = CampaignConfig {
                vehicles: fleet as u32,
                seed,
                threads: 0,
                ..CampaignConfig::default()
            };
            let threads_used = eea_faultsim::resolve_threads(cfg.threads);
            let campaign = Campaign::new(&cut, &blueprints, cfg)?;
            let start = Instant::now();
            let (report, stages) = campaign.run_timed();
            let seconds = start.elapsed().as_secs_f64();
            let rss = peak_rss_kb();
            eprintln!(
                "[scale {fleet}] {seconds:.3} s total ({:.0} vehicles/s) — \
simulate {:.3} s, merge {:.3} s, diagnose {:.3} s (lookup {:.3} s), \
fold {:.3} s, peak RSS {} KiB",
                fleet as f64 / seconds,
                stages.simulate_s,
                stages.merge_s,
                stages.diagnose_s,
                stages.diagnose_lookup_s,
                stages.fold_s,
                rss.map_or_else(|| "?".into(), |kb| kb.to_string()),
            );
            scale_entries.push(format!(
                "    {{\"vehicles\": {fleet}, \"transport\": \"{}\", \"threads\": {threads_used}, \
\"machine_cores\": {cores}, \"word_bits\": {word_bits}, \"lanes\": {lanes}, \
\"seconds\": {seconds:.6}, \"vehicles_per_s\": {:.2}, \
\"peak_rss_kb\": {}, \"detected\": {}, \"stages\": {{\"simulate_s\": {:.6}, \
\"merge_s\": {:.6}, \"diagnose_s\": {:.6}, \"fold_s\": {:.6}, \
\"dict_build_s\": {:.6}, \"diagnose_lookup_s\": {:.6}}}}}",
                kind.label(),
                fleet as f64 / seconds,
                rss.map_or_else(|| "null".into(), |kb| kb.to_string()),
                report.detected,
                stages.simulate_s,
                stages.merge_s,
                stages.diagnose_s,
                stages.fold_s,
                stages.dict_build_s,
                stages.diagnose_lookup_s,
            ));
        }
    }

    let json = format!(
        "{{\n  \"machine_cores\": {cores},\n  \"word_bits\": {word_bits},\n  \"lanes\": {lanes},\n  \
\"dict_build_serial_s\": {dict_serial_s:.6},\n  \
\"dict_build_one_pass_s\": {dict_one_pass_s:.6},\n  \
\"dict_speedup_vs_serial\": {dict_speedup:.3},\n  \
\"transports\": [\n{}\n  ],\n  \"scale_sweep\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
        scale_entries.join(",\n")
    );
    println!("{json}");
    let path = out_path("BENCH_fleet.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    Ok(())
}
