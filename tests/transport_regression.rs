//! Frozen-front regression guard for every test-data transport.
//!
//! For a fixed-seed exploration under each `TransportConfig::for_kind`
//! configuration, the minimised objective vectors `[cost, -quality,
//! shutoff]` of every front implementation are compared **bit for bit**
//! against a frozen table. The shut-off objective prices every remote
//! transfer through the transport's per-node bandwidth, so any numerical
//! drift — a reordered bandwidth sum, a changed payload upgrade or slot
//! assignment, a changed clamp, a different error mapping — trips the
//! table of that transport.
//!
//! Regenerate the frozen tables (only when the *exploration* itself
//! changes deliberately, never to paper over transport drift) with:
//!
//! ```text
//! EEA_FREEZE_FRONT=1 cargo test -p eea-dse --test transport_regression -- --nocapture
//! ```

use eea_bist::paper_table1;
use eea_dse::augment::augment;
use eea_dse::explore::{explore, DseConfig};
use eea_dse::{TransportConfig, TransportKind};
use eea_model::paper_case_study;
use eea_moea::Nsga2Config;

/// Exploration fixture: small budget, fixed seed, one worker thread.
fn frozen_cfg(kind: TransportKind) -> DseConfig {
    DseConfig {
        nsga2: Nsga2Config {
            population: 20,
            evaluations: 400,
            seed: 0xF40_2E7,
            ..Nsga2Config::default()
        },
        threads: 1,
        transport: TransportConfig::for_kind(kind),
    }
}

fn run_front(kind: TransportKind) -> Vec<[u64; 3]> {
    let case = paper_case_study();
    let diag = augment(&case, &paper_table1()[..4]).expect("gateway present");
    let result = explore(&diag, &frozen_cfg(kind), |_, _| {});
    result
        .front
        .iter()
        .map(|e| {
            let v = e.objectives.to_minimized();
            [v[0].to_bits(), v[1].to_bits(), v[2].to_bits()]
        })
        .collect()
}

/// Explores under `kind` and compares the front with `frozen`, or prints
/// the table under `EEA_FREEZE_FRONT`.
fn check_frozen(kind: TransportKind, name: &str, frozen: &[[u64; 3]]) {
    let front = run_front(kind);
    if std::env::var("EEA_FREEZE_FRONT").is_ok() {
        println!("const {name}: &[[u64; 3]] = &[");
        for v in &front {
            println!("    [0x{:016X}, 0x{:016X}, 0x{:016X}],", v[0], v[1], v[2]);
        }
        println!("];");
        return;
    }
    assert_eq!(
        front.len(),
        frozen.len(),
        "{kind} front size changed: {} vs frozen {}",
        front.len(),
        frozen.len()
    );
    for (i, (got, want)) in front.iter().zip(frozen).enumerate() {
        assert_eq!(
            got,
            want,
            "{kind} objective vector {i} drifted: got {:?} ({:e}, {:e}, {:e})",
            got,
            f64::from_bits(got[0]),
            f64::from_bits(got[1]),
            f64::from_bits(got[2]),
        );
    }
}

/// The classic-CAN front: `f64::to_bits` of each minimised objective
/// vector, cost-sorted (the explore() output order).
const FROZEN_FRONT: &[[u64; 3]] = &[
    [0x4079400000000000, 0x8000000000000000, 0x0000000000000000],
    [0x4079494665AA7EC4, 0xBFEECE9ED57275E0, 0x40ADA05A79BBADC1],
    [0x407B841E68A0D34B, 0xBFEF19598536058E, 0x3F73F290ABB44E51],
    [0x407C00B1C0010C71, 0xBFEF3EC283B58B39, 0x3F73F290ABB44E51],
];

/// The CAN FD front (`TransportConfig::can_fd_default`), same layout.
const FROZEN_CAN_FD_FRONT: &[[u64; 3]] = &[
    [0x4079400000000000, 0x8000000000000000, 0x0000000000000000],
    [0x4079494665AA7EC4, 0xBFEECE9ED57275E0, 0x407DA0609AAA3AD2],
    [0x407B841E68A0D34B, 0xBFEF19598536058E, 0x3F73F290ABB44E51],
    [0x407C00B1C0010C71, 0xBFEF3EC283B58B39, 0x3F73F290ABB44E51],
];

/// The FlexRay front (`TransportConfig::flexray_default`), same layout.
const FROZEN_FLEXRAY_FRONT: &[[u64; 3]] = &[
    [0x4079400000000000, 0x8000000000000000, 0x0000000000000000],
    [0x4079494665AA7EC4, 0xBFEECE9ED57275E0, 0x40436B23C21187E7],
    [0x407B078B11409A25, 0xBFEEF3F086B67FE4, 0x3F73F290ABB44E51],
    [0x407B2A0B9991361F, 0xBFEF0A2623685B64, 0x3F73F290ABB44E51],
    [0x407B841E68A0D34B, 0xBFEF19598536058E, 0x3F73F290ABB44E51],
    [0x407C00B1C0010C71, 0xBFEF3EC283B58B39, 0x3F73F290ABB44E51],
];

#[test]
fn mirrored_can_reproduces_frozen_front_bit_for_bit() {
    check_frozen(TransportKind::MirroredCan, "FROZEN_FRONT", FROZEN_FRONT);
}

#[test]
fn can_fd_reproduces_frozen_front_bit_for_bit() {
    check_frozen(
        TransportKind::CanFd,
        "FROZEN_CAN_FD_FRONT",
        FROZEN_CAN_FD_FRONT,
    );
}

#[test]
fn flexray_reproduces_frozen_front_bit_for_bit() {
    check_frozen(
        TransportKind::FlexRay,
        "FROZEN_FLEXRAY_FRONT",
        FROZEN_FLEXRAY_FRONT,
    );
}
