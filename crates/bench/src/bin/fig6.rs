//! Regenerates **Fig. 6**: gateway vs distributed memory and shut-off time
//! (log scale) for seven representative implementations of the Fig. 5
//! front.
//!
//! Like `fig5`, the experiment runs once per `EEA_TRANSPORTS` backend
//! (default: classic mirrored CAN). The classic rows land in `fig6.csv`;
//! other backends in `fig6-<label>.csv`.
//!
//! ```text
//! cargo run -p eea-bench --bin fig6 --release
//! EEA_EVALS=100000 cargo run -p eea-bench --bin fig6 --release
//! EEA_TRANSPORTS=flexray cargo run -p eea-bench --bin fig6 --release
//! ```

use std::error::Error;

use eea_bench::{
    env_transports, env_u64, env_usize, run_case_study_exploration_with_transport, write_artifact,
};
use eea_dse::{fig6_csv, fig6_rows, TransportConfig, TransportKind};

fn main() -> Result<(), Box<dyn Error>> {
    let evaluations = env_usize("EEA_EVALS", 10_000);
    let seed = env_u64("EEA_SEED", 2014);

    for kind in env_transports(&[TransportKind::MirroredCan]) {
        println!("== transport: {kind} ==");
        let transport = TransportConfig::for_kind(kind);
        let (_case, _diag, result) =
            run_case_study_exploration_with_transport(evaluations, seed, 0, transport)?;
        let rows = fig6_rows(&result.front, 7);

        println!("seven representative implementations (spread across test quality):\n");
        println!(
            "{:>4} {:>14} {:>14} {:>8} {:>16} {:>10} {:>8}",
            "impl", "gateway [B]", "local [B]", "gw/total", "shut-off [s]", "quality", "cost"
        );
        for r in &rows {
            let total = (r.gateway_bytes + r.distributed_bytes).max(1);
            println!(
                "{:>4} {:>14} {:>14} {:>7.0}% {:>16.3} {:>9.2}% {:>8.1}",
                r.number,
                r.gateway_bytes,
                r.distributed_bytes,
                r.gateway_bytes as f64 / total as f64 * 100.0,
                r.shutoff_s,
                r.quality_pct,
                r.cost
            );
        }

        // Log-scale shut-off bar chart, as in the paper's right axis.
        println!("\nshut-off time (log scale):");
        for r in &rows {
            let log = r.shutoff_s.max(1e-3).log10(); // -3 .. ~5
            let bar = (((log + 3.0) / 8.0) * 60.0).round().max(1.0) as usize;
            println!("impl {}: {} {:.3} s", r.number, "#".repeat(bar), r.shutoff_s);
        }
        println!(
            "\npaper's reading: implementations with most data at the gateway have the\n\
             lowest memory cost but the highest shut-off times; distributed storage\n\
             inverts the tradeoff (compare the rows above)."
        );

        let name = match kind {
            TransportKind::MirroredCan => "fig6.csv".to_string(),
            other => format!("fig6-{}.csv", other.label()),
        };
        let path = write_artifact(&name, &fig6_csv(&rows))?;
        println!("\nwrote {} ({} rows)\n", path.display(), rows.len());
    }
    Ok(())
}
