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
//! Regenerate the frozen digest (only when the exploration itself changes
//! deliberately, never to paper over a solver or evaluation change) with:
//!
//! ```text
//! EEA_FREEZE_FRONT=1 cargo test -p eea-bench --test paper_spec_front -- --nocapture
//! ```
//!
//! `EEA_EVALS=2000 EEA_SEED=2014 dse_campaign` prints the same digest as
//! the classic-CAN `front_digest`.

use eea_bench::{digest, run_case_study_exploration};
use eea_dse::TransportConfig;

/// Digest of the 2,000-evaluation, seed-2014 paper-spec front.
const FROZEN_DIGEST: u64 = 0x4D72_12B7_B990_9615;

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
    if std::env::var("EEA_FREEZE_FRONT").is_ok() {
        println!("const FROZEN_DIGEST: u64 = {got:#018X};");
        return;
    }
    assert_eq!(
        got,
        FROZEN_DIGEST,
        "paper-spec front digest drifted: got {got:#018X} over {} entries",
        result.front.len()
    );
}
