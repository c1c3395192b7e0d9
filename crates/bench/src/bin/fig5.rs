//! Regenerates **Fig. 5**: the Pareto tradeoff between monetary cost and
//! test quality, with markers split at a 20 s shut-off time.
//!
//! The exploration runs once per transport backend selected through
//! `EEA_TRANSPORTS` (default: classic mirrored CAN, the paper's setting) —
//! the Eq. (5) shut-off objective prices remote transfers through the
//! backend, so the fronts differ per transport. The classic front lands in
//! `fig5.csv` (the historical artifact name); other backends land in
//! `fig5-<label>.csv`.
//!
//! ```text
//! cargo run -p eea-bench --bin fig5 --release
//! EEA_EVALS=100000 cargo run -p eea-bench --bin fig5 --release   # paper budget
//! EEA_TRANSPORTS=classic-can,can-fd cargo run -p eea-bench --bin fig5 --release
//! ```

use std::error::Error;

use eea_bench::{
    env_transports, env_u64, env_usize, run_case_study_exploration_with_transport, write_artifact,
};
use eea_dse::{fig5_ascii, fig5_csv, fig5_points, TransportConfig, TransportKind};

fn main() -> Result<(), Box<dyn Error>> {
    let evaluations = env_usize("EEA_EVALS", 10_000);
    let seed = env_u64("EEA_SEED", 2014);

    for kind in env_transports(&[TransportKind::MirroredCan]) {
        println!("== transport: {kind} ==");
        let transport = TransportConfig::for_kind(kind);
        let (_case, _diag, result) =
            run_case_study_exploration_with_transport(evaluations, seed, 0, transport)?;

        println!(
            "{} evaluations in {:.1} s ({:.0} evals/s); paper: 100,000 in ~29 min (~57/s, 8 cores)",
            result.evaluations,
            result.duration_s,
            result.evals_per_second()
        );
        println!(
            "{} non-dominated implementations (paper: 176)",
            result.front.len()
        );

        let points = fig5_points(&result.front);
        let fast = points.iter().filter(|p| p.fast_shutoff).count();
        println!(
            "marker split at 20 s shut-off: {} fast (o / paper: bullet), {} slow (^ / paper: triangle)\n",
            fast,
            points.len() - fast
        );
        println!("{}", fig5_ascii(&points, 78, 22));

        let csv = fig5_csv(&points);
        let name = match kind {
            TransportKind::MirroredCan => "fig5.csv".to_string(),
            other => format!("fig5-{}.csv", other.label()),
        };
        let path = write_artifact(&name, &csv)?;
        println!("wrote {} ({} rows)\n", path.display(), points.len());
    }
    Ok(())
}
