//! Classic CAN vs CAN FD vs FlexRay, end to end: the same exploration
//! front decoded into vehicle blueprints once per transport backend, the
//! same fleet campaign run on each, and the detection-latency
//! distributions compared side by side.
//!
//! The transport axis is the only thing that changes between the runs —
//! seeds, blueprints and defect draws are identical — so the latency
//! shifts below are purely the Eq. (1) transfer/upload pricing of each
//! backend: classic mirroring streams at the inactive ECU's own schedule
//! rate, CAN FD multiplies the payloads (default ×8), and FlexRay rides
//! dedicated static slots.
//!
//! Run with:
//!
//! ```text
//! cargo run -p eea-fleet --example fleet_transports --release
//! ```

use eea_bist::paper_table1;
use eea_dse::{augment, explore, DseConfig, EeaError};
use eea_fleet::{
    blueprints_from_front_with, Campaign, CampaignConfig, CutConfig, CutModel, TransportConfig,
    TransportKind,
};
use eea_model::paper_case_study;
use eea_moea::Nsga2Config;

fn main() -> Result<(), EeaError> {
    let cut = CutModel::build(CutConfig::default())?;

    // One exploration front, shared by every backend: the comparison is
    // about re-pricing the same implementations, not re-exploring.
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
    println!("front: {} non-dominated implementations\n", front.len());

    println!(
        "{:<12} {:>8} {:>9} {:>9} {:>10} {:>10} {:>10}",
        "transport", "capable", "detected", "localized", "p50 [h]", "p90 [h]", "p99 [h]"
    );
    for kind in TransportKind::ALL {
        let transport = TransportConfig::for_kind(kind);
        let blueprints = blueprints_from_front_with(&diag, &front, &transport)?;
        let capable = blueprints
            .iter()
            .filter(|b| b.is_campaign_capable())
            .count();

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
            "{:<12} {:>8} {:>9} {:>9} {:>10.1} {:>10.1} {:>10.1}",
            kind.label(),
            capable,
            format!("{}/{}", report.detected, report.defective),
            report.localized,
            report.latency.p50_s / 3_600.0,
            report.latency.p90_s / 3_600.0,
            report.latency.p99_s / 3_600.0
        );
    }

    println!(
        "\nreading: faster upload paths pull the whole latency distribution\n\
         forward — the sessions themselves are unchanged, only the Eq. (1)\n\
         transfer and the fail-data upload are re-priced per backend."
    );
    Ok(())
}
