//! End-to-end fleet campaign over the paper case study: explore a (small)
//! Pareto front, decode blueprints, seed real collapsed defects into a
//! fleet, and check that the gateway aggregation pipeline detects **and
//! localizes** every seeded defect within a generous horizon — plus the
//! engine's core contract, bit-identical reports at any thread count, for
//! every transport backend (classic-CAN mirroring, CAN FD, FlexRay).

use std::sync::OnceLock;

use eea_bist::paper_table1;
use eea_dse::augment::DiagSpec;
use eea_dse::explore::ExploredImplementation;
use eea_dse::{augment, explore, DseConfig, TransportConfig};
use eea_fleet::{
    blueprints_from_front_with, Campaign, CampaignConfig, CutConfig, CutModel, FleetReport,
    TransportKind, VehicleBlueprint,
};
use eea_model::paper_case_study;
use eea_moea::Nsga2Config;

struct Fixture {
    cut: CutModel,
    diag: DiagSpec,
    front: Vec<ExploredImplementation>,
}

/// One shared exploration front: the transports are compared on the *same*
/// Pareto-front implementations, and re-exploring per test would dominate
/// the runtime.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cut = CutModel::build(CutConfig::default()).expect("substrate builds");
        let case = paper_case_study();
        let diag = augment(&case, &paper_table1()[..6]).expect("gateway present");
        let cfg = DseConfig {
            nsga2: Nsga2Config {
                population: 24,
                evaluations: 480,
                seed: 0xF1EE7,
                ..Nsga2Config::default()
            },
            threads: 1,
            ..DseConfig::default()
        };
        let front = explore(&diag, &cfg, |_, _| {}).front;
        Fixture { cut, diag, front }
    })
}

/// Blueprints over `transport`, restricted to what a commuter duty cycle
/// can finish well inside the horizon: campaign-capable and bounded total
/// session work. The engine itself accepts the full set; the restriction
/// only sharpens the detection assertion below from "most" to "all".
fn blueprints_for(transport: &TransportConfig) -> Vec<VehicleBlueprint> {
    let f = fixture();
    let blueprints =
        blueprints_from_front_with(&f.diag, &f.front, transport).expect("front flattens");
    let filtered: Vec<VehicleBlueprint> = blueprints
        .into_iter()
        .filter(|b| b.is_campaign_capable() && b.total_work_s() < 150_000.0)
        .collect();
    assert!(
        !filtered.is_empty(),
        "exploration front yields at least one lightweight capable blueprint on {}",
        transport.kind(),
    );
    filtered
}

fn run(cut: &CutModel, blueprints: &[VehicleBlueprint], threads: usize) -> FleetReport {
    let cfg = CampaignConfig {
        vehicles: 400,
        defect_fraction: 0.2,
        horizon_s: 90.0 * 86_400.0,
        seed: 0xCA4,
        threads,
        batch_size: 16,
        ..CampaignConfig::default()
    };
    Campaign::new(cut, blueprints, cfg)
        .expect("valid campaign")
        .run()
}

#[test]
fn seeded_defects_are_detected_and_localized() {
    let cut = &fixture().cut;
    let blueprints = blueprints_for(&TransportConfig::MirroredCan);
    let report = run(cut, &blueprints, 1);

    assert!(
        report.defective > 0,
        "a 20 % defect fraction over 400 vehicles seeds defects"
    );
    assert_eq!(
        report.detected,
        u64::from(report.defective),
        "every seeded defect's fail data reaches the gateway within 90 days"
    );
    assert_eq!(
        report.localized, report.detected,
        "window-based diagnosis ranks the true fault in the top equivalence class"
    );
    assert_eq!(report.latency.count, report.detected);
    assert!(report.latency.min_s > 0.0, "detection takes wall time");
    assert!(report.latency.p50_s <= report.latency.p90_s);
    assert!(report.latency.p90_s <= report.latency.p99_s);

    // Findings are consistent with the per-ECU aggregation.
    assert_eq!(report.findings.len() as u64, report.detected);
    let seeded: u32 = report.per_ecu.iter().map(|e| e.seeded).sum();
    let detected: u32 = report.per_ecu.iter().map(|e| e.detected).sum();
    assert_eq!(seeded, report.defective);
    assert_eq!(u64::from(detected), report.detected);
    for f in &report.findings {
        assert!(f.localized);
        assert_eq!(f.true_fault_rank, 1, "true fault tops its own diagnosis");
        assert!(f.candidates > 0);
        assert!(cut.detectable_faults().contains(&f.fault_index));
    }
    for e in &report.per_ecu {
        let ranked: u32 = e.top_faults.iter().map(|&(_, n)| n).sum();
        assert_eq!(ranked, e.detected, "candidate ranking covers all findings");
    }

    // The coverage curve is monotone and ends fully covered.
    let mut prev = 0.0;
    for &(_, frac) in &report.coverage_over_time {
        assert!(frac >= prev);
        prev = frac;
    }
    assert_eq!(prev, 1.0, "all defects detected by the horizon");

    // Batching covered every upload.
    assert_eq!(report.batches, report.detected.div_ceil(16));
}

// No `EEA_THREADS` manipulation here (unlike tests/parallel_determinism.rs):
// the assertion holds under any override precisely because the report is
// thread-count independent, so mutating process-global state is unnecessary.
#[test]
fn fleet_report_is_bit_identical_at_any_thread_count() {
    let cut = &fixture().cut;
    for kind in TransportKind::ALL {
        let blueprints = blueprints_for(&TransportConfig::for_kind(kind));
        let serial = run(cut, &blueprints, 1);
        for threads in [2, 4, 7] {
            let parallel = run(cut, &blueprints, threads);
            assert_eq!(
                parallel, serial,
                "fleet report diverged at {threads} threads on {kind}"
            );
        }
    }
}

/// The transports genuinely differ end to end: CAN FD's upgraded payloads
/// shorten every remote transfer relative to classic CAN on the *same*
/// implementation, and FlexRay's static slots provide an upload path
/// independent of the mirrored schedule.
#[test]
fn transports_produce_distinct_but_consistent_blueprints() {
    let f = fixture();
    let classic = blueprints_from_front_with(&f.diag, &f.front, &TransportConfig::MirroredCan)
        .expect("classic flattens");
    let fd = blueprints_from_front_with(&f.diag, &f.front, &TransportConfig::can_fd_default())
        .expect("fd flattens");
    let flexray =
        blueprints_from_front_with(&f.diag, &f.front, &TransportConfig::flexray_default())
            .expect("flexray flattens");
    assert_eq!(classic.len(), fd.len());
    assert_eq!(classic.len(), flexray.len());

    let mut remote_sessions = 0usize;
    for (c, d) in classic.iter().zip(&fd) {
        assert_eq!(c.transport, TransportKind::MirroredCan);
        assert_eq!(d.transport, TransportKind::CanFd);
        assert_eq!(c.sessions.len(), d.sessions.len());
        for (cs, ds) in c.sessions.iter().zip(&d.sessions) {
            assert_eq!(cs.ecu, ds.ecu);
            assert_eq!(cs.local_storage, ds.local_storage);
            if !cs.local_storage && cs.transfer_s.is_finite() {
                remote_sessions += 1;
                assert!(
                    ds.transfer_s < cs.transfer_s,
                    "FD upgrade must shorten the remote transfer: {} vs {}",
                    ds.transfer_s,
                    cs.transfer_s
                );
            }
        }
    }
    assert!(
        remote_sessions > 0,
        "front contains at least one gateway-streaming session to compare"
    );
    assert!(
        flexray.iter().any(VehicleBlueprint::is_campaign_capable),
        "static slots give at least one blueprint an upload path"
    );
}
