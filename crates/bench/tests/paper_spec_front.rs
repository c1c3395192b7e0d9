//! Frozen-front guard for the full paper-spec decode.
//!
//! Explores the paper's case study with all 36 Table I profiles on one
//! worker thread, 2,000 evaluations, seed 2014, classic-CAN mirroring,
//! and compares the FNV-1a digest of the whole front (implementations,
//! objectives and memory split) with a frozen value. The SAT decode is
//! history-dependent, so any change to a decision, a propagation, a
//! learned clause or the branching heap's layout moves this digest, even
//! where the 4-profile front of `transport_regression` stays put.
//!
//! The same front is then turned into fleet blueprints under each
//! transport's default configuration, and the digest of each blueprint
//! set is frozen too: it pins the mirrored schedules, the CAN FD payload
//! upgrade and the FlexRay slot assignment that price every session's
//! transfer time and upload bandwidth.
//!
//! Regenerate the frozen digests (only when the exploration itself changes
//! deliberately, never to paper over a solver, evaluation or transport
//! change) with:
//!
//! ```text
//! EEA_FREEZE_FRONT=1 cargo test -p eea-bench --test paper_spec_front -- --nocapture
//! ```
//!
//! `EEA_EVALS=2000 EEA_SEED=2014 dse_campaign` prints the same digest as
//! the classic-CAN `front_digest`.

use eea_bench::{digest, run_case_study_exploration};
use eea_dse::{TransportConfig, TransportKind};
use eea_fleet::blueprints_from_front_with;

/// Digest of the 2,000-evaluation, seed-2014 paper-spec front.
const FROZEN_DIGEST: u64 = 0x4D72_12B7_B990_9615;

/// Digest of that front's blueprints under each transport's default
/// configuration, in `TransportKind::ALL` order.
const FROZEN_BLUEPRINT_DIGESTS: [(TransportKind, u64); 3] = [
    (TransportKind::MirroredCan, 0x7B27_B897_AAC6_DEBD),
    (TransportKind::CanFd, 0xFD8D_4A1C_F3D7_A624),
    (TransportKind::FlexRay, 0xB53F_BE20_33E3_FC97),
];

#[test]
fn paper_spec_front_is_frozen() {
    let (_case, diag, result) =
        run_case_study_exploration(2_000, 2014, 1, TransportConfig::MirroredCan)
            .expect("paper case study explores");
    assert_eq!(
        diag.options.len(),
        36 * 15,
        "all 36 profiles on all 15 ECUs"
    );
    assert_eq!(result.evaluations, 2_000);
    assert_eq!(result.infeasible, 0);
    let got = digest(&result.front);
    let blueprints: Vec<(TransportKind, u64)> = TransportKind::ALL
        .into_iter()
        .map(|kind| {
            let set =
                blueprints_from_front_with(&diag, &result.front, &TransportConfig::for_kind(kind))
                    .expect("default transports build blueprints");
            assert_eq!(
                set.len(),
                result.front.len(),
                "{kind}: one blueprint per entry"
            );
            (kind, digest(&set))
        })
        .collect();
    if std::env::var("EEA_FREEZE_FRONT").is_ok() {
        println!("const FROZEN_DIGEST: u64 = {got:#018X};");
        for (kind, d) in &blueprints {
            println!("    (TransportKind::{kind:?}, {d:#018X}),");
        }
        return;
    }
    assert_eq!(
        got,
        FROZEN_DIGEST,
        "paper-spec front digest drifted: got {got:#018X} over {} entries",
        result.front.len()
    );
    for ((kind, got), (frozen_kind, want)) in blueprints.iter().zip(FROZEN_BLUEPRINT_DIGESTS) {
        assert_eq!(*kind, frozen_kind);
        assert_eq!(
            *got, want,
            "{kind} blueprint digest drifted: got {got:#018X}, frozen {want:#018X}"
        );
    }
}
