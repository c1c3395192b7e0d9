//! Fleet campaign walkthrough: from an exploration front to a fleet-wide
//! diagnosis report.
//!
//! Builds the shared CUT model, decodes vehicle blueprints from a short
//! case-study exploration, seeds real collapsed stuck-at defects into a
//! 2,000-vehicle fleet, and prints what the gateway learned: detection
//! latency, localization quality and the per-ECU candidate rankings.
//!
//! Run with:
//!
//! ```text
//! cargo run -p eea-fleet --example fleet_campaign --release
//! ```

use eea_bist::paper_table1;
use eea_dse::{augment, explore, DseConfig, EeaError};
use eea_fleet::{blueprints_from_front, Campaign, CampaignConfig, CutConfig, CutModel};
use eea_model::paper_case_study;
use eea_moea::Nsga2Config;

fn main() -> Result<(), EeaError> {
    // 1. The shared circuit-under-test: golden session, per-fault fail
    //    data and the diagnosis dictionary, precomputed once.
    let cut = CutModel::build(CutConfig::default())?;
    println!(
        "CUT model: {} collapsed faults, {} session-detectable ({:.1} % coverage)",
        cut.num_faults(),
        cut.detectable_faults().len(),
        cut.coverage() * 100.0
    );

    // 2. Vehicle blueprints from a short exploration of the paper's case
    //    study (Eq. (1) transfer times over *constructed* mirror
    //    schedules, Eq. (5) shut-off budgets from the objectives).
    let case = paper_case_study();
    let diag = augment(&case, &paper_table1()[..6])?;
    let cfg = DseConfig {
        nsga2: Nsga2Config {
            population: 24,
            evaluations: 600,
            seed: 2014,
            ..Nsga2Config::default()
        },
        threads: 0,
        ..DseConfig::default()
    };
    let front = explore(&diag, &cfg, |_, _| {}).front;
    let blueprints = blueprints_from_front(&diag, &front)?;
    println!(
        "blueprints: {} implementations, {} campaign-capable",
        blueprints.len(),
        blueprints
            .iter()
            .filter(|b| b.is_campaign_capable())
            .count()
    );

    // 3. The campaign: 2,000 vehicles, 2 % seeded defective, 30 days.
    let campaign = Campaign::new(
        &cut,
        &blueprints,
        CampaignConfig {
            vehicles: 2_000,
            ..CampaignConfig::default()
        },
    )?;
    let report = campaign.run();

    println!(
        "\ncampaign: {} vehicles, {} defective, {} detected ({:.1} %), {} localized ({:.1} %)",
        report.vehicles,
        report.defective,
        report.detected,
        report.detection_rate() * 100.0,
        report.localized,
        report.localization_rate() * 100.0
    );
    println!(
        "fleet BIST: {} sessions over {} shut-off windows ({:.1} h total)",
        report.sessions_completed,
        report.windows_used,
        report.bist_time_s / 3_600.0
    );
    println!(
        "latency: p50 {:.1} h, p90 {:.1} h, p99 {:.1} h",
        report.latency.p50_s / 3_600.0,
        report.latency.p90_s / 3_600.0,
        report.latency.p99_s / 3_600.0
    );

    println!("\nper-ECU results (seeded/detected/localized, top diagnosed faults):");
    for e in &report.per_ecu {
        let top: Vec<String> = e
            .top_faults
            .iter()
            .take(3)
            .map(|&(fault, n)| format!("f{fault}x{n}"))
            .collect();
        println!(
            "  {}: {}/{}/{} mean latency {:.1} h top [{}]",
            e.ecu,
            e.seeded,
            e.detected,
            e.localized,
            e.mean_latency_s / 3_600.0,
            top.join(", ")
        );
    }

    println!("\ncampaign coverage over time:");
    for &(t, frac) in report.coverage_over_time.iter().step_by(4) {
        let bar = "#".repeat((frac * 50.0).round() as usize);
        println!("  day {:>4.1}: {bar} {:.0} %", t / 86_400.0, frac * 100.0);
    }
    Ok(())
}
