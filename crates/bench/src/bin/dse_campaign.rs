//! The DSE bench: explores the paper's case study once per
//! `EEA_TRANSPORTS` backend (default: classic mirrored CAN, the paper's
//! setting) and reads the §IV-B numbers, Fig. 5 and Fig. 6 off that one
//! front. It prints the throughput, the front size and the best quality
//! within +1/+3.7/+10 % of the cheapest design without structural tests,
//! plots Fig. 5 and tabulates Fig. 6, and writes them to `fig5.csv` and
//! `fig6.csv` (`fig5-<label>.csv`/`fig6-<label>.csv` for the other
//! backends) once every front entry passes `validate_implementation`.
//! A 1/2/4/8-thread sweep of `min(EEA_EVALS, 2000)` evaluations on the
//! first backend must give equal fronts, convergence curves and counts
//! before any time is recorded. `BENCH_dse.json` is written once, last.
//!
//! ```text
//! cargo run -p eea-bench --bin dse_campaign --release
//! EEA_EVALS=100000 cargo run -p eea-bench --bin dse_campaign --release   # paper budget
//! EEA_TRANSPORTS=classic-can,can-fd,flexray cargo run -p eea-bench --bin dse_campaign --release
//! ```
//!
//! Note: setting `EEA_THREADS` pins *every* sweep point to that worker
//! count (the workspace-wide override wins over the sweep). Each point
//! records the worker count that ran, so such a record fails
//! `scripts/check_bench.py`.

use std::error::Error;

use eea_bench::{
    digest, env_transports, env_u64, env_usize, normalized_hypervolume, peak_rss_kb,
    reset_peak_rss, run_case_study_exploration, write_artifact, Json,
};
use eea_dse::explore::baseline_cost;
use eea_dse::{
    fig5_ascii, fig5_csv, fig5_points, fig6_csv, fig6_rows, headline_with_budget, TransportConfig,
    TransportKind,
};
use eea_model::paper_case_study;

type BenchResult<T> = Result<T, Box<dyn Error>>;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Largest exploration budget of the thread sweep.
const SWEEP_EVALS: usize = 2_000;
/// Cost budgets over the baseline, in percent.
const BUDGETS_PCT: [f64; 3] = [1.0, 3.7, 10.0];
/// Most convergence samples a transport entry records. A 100k run takes
/// ~1,600 generation samples, too many for a reviewed record.
const CONVERGENCE_SAMPLES: usize = 21;

fn main() -> BenchResult<()> {
    let evaluations = env_usize("EEA_EVALS", 10_000);
    let seed = env_u64("EEA_SEED", 2014);
    let transports = env_transports(&[TransportKind::MirroredCan]);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // The baseline explores the BIST-free spec, which has no test
    // transfers, so one baseline serves every backend.
    let base = baseline_cost(&paper_case_study(), 3_000, seed ^ 0xBA5E, 0)?;
    println!("baseline (cheapest design without structural tests): {base:.1}\n");

    let mut entries = Vec::new();
    for &kind in &transports {
        entries.push(transport_entry(kind, evaluations, seed, base)?);
    }
    let thread_sweep = thread_sweep(transports[0], evaluations.min(SWEEP_EVALS), seed)?;

    let doc = Json::obj([
        ("machine_cores", cores.into()),
        ("evaluations", evaluations.into()),
        ("seed", seed.into()),
        ("baseline_cost", base.into()),
        ("transports", Json::Arr(entries)),
        ("thread_sweep", thread_sweep),
    ])
    .pretty();
    let path = write_artifact("BENCH_dse.json", &doc)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Explores on `kind`, prints the §IV-B numbers, Fig. 5 and Fig. 6, writes
/// the two figure CSVs and returns the backend's record entry.
fn transport_entry(
    kind: TransportKind,
    evaluations: usize,
    seed: u64,
    base: f64,
) -> BenchResult<Json> {
    println!("== transport: {kind} ==");
    let rss_start = reset_peak_rss();
    let (_case, diag, result) =
        run_case_study_exploration(evaluations, seed, 0, TransportConfig::for_kind(kind))?;
    // Without a reset the high-water mark would be the process's, not
    // this explore's: record neither then.
    let peak_rss = rss_start.and(peak_rss_kb());
    for (i, entry) in result.front.iter().enumerate() {
        diag.spec
            .validate_implementation(&entry.implementation)
            .map_err(|e| format!("[{kind}] front entry {i} fails validate_implementation: {e}"))?;
    }
    let minimized: Vec<_> = result
        .front
        .iter()
        .map(|e| e.objectives.to_minimized())
        .collect();
    let hypervolume = normalized_hypervolume(&minimized).map_err(|e| format!("[{kind}] {e}"))?;
    let front_digest = format!("{:#018X}", digest(&result.front));

    let (evals, seconds, threads) = (result.evaluations, result.duration_s, result.threads);
    let (rate, front) = (result.evals_per_second(), result.front.len());
    println!(
        "measured: {evals} evaluations in {seconds:.1} s = {rate:.0} evals/s ({threads} threads)\n\
         paper:    100,000 evaluations in ~29 min = ~57 evals/s (8 cores)\n\
         measured: {front} non-dominated implementations\n\
         paper:    176 implementations (151 plotted in Fig. 5)\n"
    );

    let mut headline = Vec::new();
    for pct in BUDGETS_PCT {
        let hl = headline_with_budget(&result.front, Some(base), 1.0 + pct / 100.0);
        match hl {
            Some(h) => println!(
                "budget +{pct:>4.1} %: best quality {:>6.2} % at actual +{:.2} %",
                h.best_quality_pct_in_budget, h.extra_cost_pct
            ),
            None => println!("budget +{pct:>4.1} %: no implementation fits"),
        }
        let quality = hl.map(|h| h.best_quality_pct_in_budget);
        headline.push(Json::obj([
            ("budget_pct", pct.into()),
            ("best_quality_pct", quality.into()),
            ("extra_cost_pct", hl.map(|h| h.extra_cost_pct).into()),
        ]));
    }
    println!("paper:    80.7 % test quality at < +3.7 %\n");

    let points = fig5_points(&result.front);
    let fast = points.iter().filter(|p| p.fast_shutoff).count();
    let slow = points.len() - fast;
    println!(
        "marker split at 20 s shut-off: {fast} fast (o / paper: bullet), {slow} slow (^ / paper: triangle)\n"
    );
    println!("{}", fig5_ascii(&points, 78, 22));
    let path = write_artifact(&artifact_name("fig5", kind), &fig5_csv(&points))?;
    println!("wrote {} ({} rows)\n", path.display(), points.len());

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
        let bar = "#".repeat((((log + 3.0) / 8.0) * 60.0).round().max(1.0) as usize);
        println!("impl {}: {bar} {:.3} s", r.number, r.shutoff_s);
    }
    println!(
        "\npaper's reading: implementations with most data at the gateway have the\n\
         lowest memory cost but the highest shut-off times; distributed storage\n\
         inverts the tradeoff (compare the rows above)."
    );
    let path = write_artifact(&artifact_name("fig6", kind), &fig6_csv(&rows))?;
    println!("\nwrote {} ({} rows)\n", path.display(), rows.len());

    let convergence = thin(&result.convergence, CONVERGENCE_SAMPLES)
        .into_iter()
        .map(|(evals, archive)| Json::Arr(vec![evals.into(), archive.into()]))
        .collect();
    Ok(Json::obj([
        ("transport", kind.label().into()),
        ("threads", result.threads.into()),
        ("duration_s", result.duration_s.into()),
        ("evals_per_s", result.evals_per_second().into()),
        ("infeasible", result.infeasible.into()),
        ("front_size", points.len().into()),
        ("fast_shutoff", fast.into()),
        ("slow_shutoff", slow.into()),
        ("headline", Json::Arr(headline)),
        ("hypervolume", hypervolume.into()),
        ("front_digest", Json::Str(front_digest)),
        ("peak_rss_kb", peak_rss.into()),
        ("rss_start_kb", rss_start.into()),
        ("convergence", Json::Arr(convergence)),
    ]))
}

/// Explores `evaluations` on `kind` at every `THREAD_SWEEP` count and
/// asserts the results equal before any timing is used.
fn thread_sweep(kind: TransportKind, evaluations: usize, seed: u64) -> BenchResult<Json> {
    let mut reference = None;
    let mut points = Vec::new();
    for threads in THREAD_SWEEP {
        let (_case, _diag, result) = run_case_study_exploration(
            evaluations,
            seed,
            threads,
            TransportConfig::for_kind(kind),
        )?;
        // Record the workers that ran: `EEA_THREADS` overrides the request.
        let (ran, seconds) = (result.threads, result.duration_s);
        eprintln!("[sweep {kind}] threads={ran}: {seconds:.3} s");
        points.push((ran, seconds));
        let (evals, infeasible) = (result.evaluations, result.infeasible);
        let outcome = (digest(&result.front), result.convergence, evals, infeasible);
        match &reference {
            None => reference = Some(outcome),
            Some(first) => assert!(
                *first == outcome,
                "[{kind}] exploration diverged at {threads} threads — determinism broken"
            ),
        }
    }
    let base = points[0].1;
    let sweep = points
        .into_iter()
        .map(|(threads, seconds)| {
            Json::obj([
                ("threads", threads.into()),
                ("seconds", seconds.into()),
                ("evals_per_s", (evaluations as f64 / seconds).into()),
                ("speedup_vs_1_thread", (base / seconds).into()),
            ])
        })
        .collect();
    Ok(Json::obj([
        ("transport", kind.label().into()),
        ("bit_identical_across_sweep", true.into()),
        ("evaluations", evaluations.into()),
        ("sweep", Json::Arr(sweep)),
    ]))
}

/// The CSV name of figure `stem` on `kind`: classic CAN keeps the
/// historical `<stem>.csv`, other backends get `<stem>-<label>.csv`.
fn artifact_name(stem: &str, kind: TransportKind) -> String {
    match kind {
        TransportKind::MirroredCan => format!("{stem}.csv"),
        other => format!("{stem}-{}.csv", other.label()),
    }
}

/// At most `cap` (≥ 2) evenly spaced samples of `samples`, the last one
/// always included.
fn thin<T: Copy>(samples: &[T], cap: usize) -> Vec<T> {
    let Some((&last, rest)) = samples.split_last() else {
        return Vec::new();
    };
    let step = rest.len().div_ceil(cap - 1).max(1);
    rest.iter().step_by(step).copied().chain([last]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_names_keep_the_classic_name() {
        use TransportKind::{CanFd, MirroredCan};
        assert_eq!(artifact_name("fig5", MirroredCan), "fig5.csv");
        assert_eq!(artifact_name("fig6", CanFd), "fig6-can-fd.csv");
    }

    #[test]
    fn thinning_keeps_the_final_sample_under_the_cap() {
        let curve: Vec<(usize, usize)> = (1..=1_600).map(|g| (g * 62, g)).collect();
        let thinned = thin(&curve, CONVERGENCE_SAMPLES);
        assert!(thinned.len() <= CONVERGENCE_SAMPLES);
        assert_eq!(thinned.first(), curve.first());
        assert_eq!(thinned.last(), curve.last());
        assert!(thinned.windows(2).all(|w| w[0].0 < w[1].0));
        // Short curves pass through whole.
        assert_eq!(thin(&curve[..5], CONVERGENCE_SAMPLES), &curve[..5]);
        assert!(thin::<(usize, usize)>(&[], CONVERGENCE_SAMPLES).is_empty());
    }
}
