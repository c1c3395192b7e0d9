//! One benchmark for the whole pipeline: SAT-decoding DSE, the fleet
//! campaign and the streaming gateway.
//!
//! ```text
//! cargo run --release --manifest-path pipeline_bench/Cargo.toml --bin benchmark -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload runs per process, so `setup_s` and `peak_rss_mb` belong
//! to that workload. Inputs are generated from `--seed`. The benchmark
//! times calls into the libraries' public functions from outside and
//! changes none of them. Library calls run on one thread ([`THREADS`]);
//! only `gateway_stream` adds a second, its arrival generator. A set
//! `EEA_THREADS` aborts the run, because it would silently override every
//! pinned thread count.
//!
//! # Workloads
//!
//! Each measured loop repeats its unit of work until `--seconds` have
//! passed, always finishing the unit it started.
//!
//! | workload | what runs | why |
//! |---|---|---|
//! | `dse_paper` | `explore` on the paper spec (540 BIST options, 9,851 SAT variables), 2,000 evaluations per call, population 100 | SAT decode does almost all the work; the fleet layers are idle |
//! | `dse_functional` | `explore` on `augment(&case, &[])` (671 SAT variables), 10,000 evaluations per call | the same layers on a formula 15× smaller: solve falls and `extract_model` rises in share, so a SAT change tuned for large formulas that slows small ones shows here |
//! | `fleet_clean` | `Campaign::run_timed` over 500 k vehicles on the default CUT, blueprints decoded from a 1,000-evaluation front (fixed seed) on classic CAN | flat-window vehicle simulation dominates and diagnosis is served from a few hundred distinct faults; set-up is the pipeline path case study → `explore` → blueprints → campaign |
//! | `fleet_sched_noisy` | `run_timed` over 50 k vehicles of the mixed logic/SRAM trio with a task set and a noisy channel | schedule-derived windows cost ~13× more per vehicle, and the SRAM dictionary and impairment keys load the diagnosis layer `fleet_clean` bypasses |
//! | `gateway_stream` | open loop: a generator thread sends 1,024-arrival batches at 1 M arrivals/s on a wall-clock schedule into a fresh `GatewayService` per 2 s step; a snapshot falls due every 40 ms | the snapshot's cost grows with the uploads held, so it, not ingest, bounds the sustainable rate, and no other workload loads it |
//!
//! # End-to-end metrics
//!
//! Every workload reports every metric, measured with tracing off. The
//! unit operation ("op") differs per workload: a main-phase NSGA-II
//! generation of 100 evaluations (DSE), one `run_timed` campaign (fleet),
//! or one mid-stream `snapshot_at_timed` (gateway).
//!
//! | metric | meaning |
//! |---|---|
//! | `setup_s` | median over repeated full set-ups (three for `fleet_clean`, nine otherwise) of everything built before the timed loop |
//! | `throughput_per_s` | median over chunks (one `explore` call, one `run_timed` call, one gateway step) of evaluations, vehicles or arrivals per second; for the gateway per second of service busy time (ingest + drain + snapshot), i.e. the rate it could sustain |
//! | `op_p50_ms`, `op_p75_ms` | median and 75th percentile of the op. p75 is the highest percentile with ≥ 10 ops beyond it in every workload (`dse_paper` collects ~80 ops, the others 100–1,500); the printed summary names each run's highest such percentile and its op count |
//! | `peak_rss_mb` | the process's peak resident set |
//! | `quality` | DSE: normalised hypervolume of the first front; fleet and gateway: share of seeded defects detected and localised |
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run spends half its time in the untraced loop and half in a
//! traced pass, and reports `trace.overhead_*` as the change of the shared
//! end-to-end metrics between the two. Spans (name, start, end, parent)
//! stay in memory and are written at exit to
//! `.bench_traces/<workload>-<seed>.json` with per-name self times. Layers
//! a workload does not run report 0.
//!
//! | layer metric | layer | moves | on |
//! |---|---|---|---|
//! | `core.encode_ms`, `core.setup_explore_ms`, `fleet.cut_build_ms`, `bist.dict_build_ms`, `bist.march_build_ms`, `fleet.blueprints_ms`, `fleet.campaign_new_ms`, `fleet.arrivals_template_ms` | core::encode, core::explore, fleet::cut, bist::session_table, bist::march, fleet::blueprint, fleet::campaign + sched | `setup_s` | all |
//! | `sat.solve_us_p50/p99`, `sat.solve_share`, `sat.propagations_per_solve`, `sat.conflicts_per_solve`, `sat.learned_max`, `sat.solve_drift` | sat | `throughput_per_s` | `dse_paper` ≫ `dse_functional` |
//! | `core.extract_us_p50`, `core.objectives_us_p50` | core::encode, core::objectives | `throughput_per_s` | `dse_functional` ≫ `dse_paper` |
//! | `moea.self_share`, `moea.generation_ms_p50/p90`, `moea.archive_offer_us_p50`, `moea.archive_len` | moea | `throughput_per_s`, `op_*` | both DSE |
//! | `core.redecode_mismatch` | core::explore | `quality` fidelity | `dse_paper` |
//! | `fleet.vehicle_ns`, `fleet.windows_per_vehicle`, `fleet.sessions_per_vehicle` | fleet::vehicle, sched | `throughput_per_s` | `fleet_sched_noisy` ≫ `fleet_clean` |
//! | `campaign.simulate_ms`, `campaign.merge_ms`, `campaign.diagnose_ms`, `campaign.diagnose_lookup_ms`, `campaign.fold_ms` | fleet::campaign (`StageTimings`) | `throughput_per_s`, `op_*` | `fleet_clean` (merge/fold), `fleet_sched_noisy` (diagnose) |
//! | `bist.diagnose_us_p50`, `can.impaired_uploads`, `can.retransmitted_frames` | bist::diagnosis, can::channel | `throughput_per_s` | `fleet_sched_noisy` |
//! | `gateway.ingest_ns`, `gateway.drain_ns`, `gateway.queue_high_water`, `gateway.backlog_max_batches`, `gateway.generator_lag_ms`, `gateway.ingest_lag_p50_ms`, `gateway.ingest_lag_p99_ms` | fleet::gateway | `throughput_per_s` | `gateway_stream` |
//! | `gateway.snapshot_{merge,diagnose,fold}_ms_p50`, `gateway.snapshot_us_per_1k_uploads` | fleet::gateway | `op_*`, `throughput_per_s` | `gateway_stream` |
//! | `gateway.shed`, `gateway.malformed`, `gateway.duplicates`, `dse.infeasible` | fleet::gateway, core::explore | `failed` | all |
//!
//! # Output checks
//!
//! A run fails (`"correct": false`, exit code 1) when:
//! - a DSE front entry fails `validate_implementation`, two entries
//!   dominate each other, or a point falls outside the hypervolume bounds;
//! - the traced DSE replay does not reproduce the objectives the MOEA saw;
//! - `fleet_clean` does not reproduce the frozen 100 k digest
//!   `0xC52D_7E52_A85B_1C99`;
//! - a campaign report differs between repeats;
//! - a final `gateway_stream` snapshot differs from a serial re-feed of the
//!   same arrivals, or the gateway shed, rejected or dropped an arrival.

pub mod json;
pub mod stats;
pub mod trace;

mod dse;
mod fleet;
mod gateway;

use std::collections::BTreeMap;
use std::time::Instant;

use json::Value;
use stats::Summary;
use trace::Tracer;

/// The workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 5] = [
    "dse_paper",
    "dse_functional",
    "fleet_clean",
    "fleet_sched_noisy",
    "gateway_stream",
];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p75_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("quality", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("core.encode_ms", "ms"),
    ("core.setup_explore_ms", "ms"),
    ("fleet.cut_build_ms", "ms"),
    ("bist.dict_build_ms", "ms"),
    ("bist.march_build_ms", "ms"),
    ("fleet.blueprints_ms", "ms"),
    ("fleet.campaign_new_ms", "ms"),
    ("fleet.arrivals_template_ms", "ms"),
    ("sat.solve_us_p50", "us"),
    ("sat.solve_us_p99", "us"),
    ("sat.solve_share", "ratio"),
    ("sat.propagations_per_solve", "count"),
    ("sat.conflicts_per_solve", "count"),
    ("sat.learned_max", "count"),
    ("sat.solve_drift", "ratio"),
    ("core.extract_us_p50", "us"),
    ("core.objectives_us_p50", "us"),
    ("core.redecode_mismatch", "count"),
    ("moea.self_share", "ratio"),
    ("moea.generation_ms_p50", "ms"),
    ("moea.generation_ms_p90", "ms"),
    ("moea.archive_offer_us_p50", "us"),
    ("moea.archive_len", "count"),
    ("dse.infeasible", "count"),
    ("fleet.vehicle_ns", "ns"),
    ("fleet.windows_per_vehicle", "count"),
    ("fleet.sessions_per_vehicle", "count"),
    ("campaign.simulate_ms", "ms"),
    ("campaign.merge_ms", "ms"),
    ("campaign.diagnose_ms", "ms"),
    ("campaign.diagnose_lookup_ms", "ms"),
    ("campaign.fold_ms", "ms"),
    ("bist.diagnose_us_p50", "us"),
    ("can.impaired_uploads", "count"),
    ("can.retransmitted_frames", "count"),
    ("gateway.ingest_ns", "ns"),
    ("gateway.drain_ns", "ns"),
    ("gateway.queue_high_water", "count"),
    ("gateway.backlog_max_batches", "count"),
    ("gateway.generator_lag_ms", "ms"),
    ("gateway.ingest_lag_p50_ms", "ms"),
    ("gateway.ingest_lag_p99_ms", "ms"),
    ("gateway.snapshot_merge_ms_p50", "ms"),
    ("gateway.snapshot_diagnose_ms_p50", "ms"),
    ("gateway.snapshot_fold_ms_p50", "ms"),
    ("gateway.snapshot_us_per_1k_uploads", "us"),
    ("gateway.shed", "count"),
    ("gateway.malformed", "count"),
    ("gateway.duplicates", "count"),
    ("trace.overhead_throughput_pct", "%"),
    ("trace.overhead_op_p50_pct", "%"),
    ("trace.spans", "count"),
];

/// How large a run is. `Tiny` exists for the contract test: every
/// workload at a size that finishes in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    /// Length of the measured loop; a traced run splits it between the
    /// untraced loop and the traced pass.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

impl RunSpec {
    /// Seconds of the untraced loop: all of them, or half in a traced run.
    pub(crate) fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// A reported metric with its sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub(crate) fn new(name: &'static str, passed: bool, detail: impl Into<String>) -> Self {
        Check {
            name,
            passed,
            detail: detail.into(),
        }
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Free-text remarks printed with the metrics.
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The result object printed as the last line of standard output.
    pub fn result_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Value::obj([
                        ("value", Value::from(m.value)),
                        ("unit", Value::from(m.unit)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Value::obj([
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::obj(metrics)),
        ])
    }
}

/// Why a run could not produce a result.
#[derive(Debug)]
pub enum BenchError {
    /// Bad arguments or environment.
    Config(String),
    /// A library call returned an error.
    Library(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Config(m) => write!(f, "configuration: {m}"),
            BenchError::Library(m) => write!(f, "library call failed: {m}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<eea_dse::EeaError> for BenchError {
    fn from(e: eea_dse::EeaError) -> Self {
        BenchError::Library(e.to_string())
    }
}

impl From<eea_dse::AugmentError> for BenchError {
    fn from(e: eea_dse::AugmentError) -> Self {
        BenchError::Library(e.to_string())
    }
}

impl From<eea_fleet::FleetError> for BenchError {
    fn from(e: eea_fleet::FleetError) -> Self {
        BenchError::Library(e.to_string())
    }
}

/// Worker threads every library call is pinned to. One: on a shared
/// two-vCPU machine, two-thread DSE and campaign runs varied by 12–25 %
/// between runs of the same input, one-thread runs by ~3 %.
pub(crate) const THREADS: usize = 1;

/// Milliseconds since `t`.
pub(crate) fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A seed derived from the run seed for repetition `k`.
pub(crate) fn derive_seed(seed: u64, k: u64) -> u64 {
    eea_moea::Rng::mix(seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Per-layer values of a run, keyed by [`PER_LAYER`] names.
#[derive(Debug, Default)]
pub(crate) struct Layers(BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    /// Sets a layer metric with the number of samples behind it.
    pub(crate) fn set(&mut self, name: &'static str, value: f64, n: usize) {
        debug_assert!(
            PER_LAYER.iter().any(|(m, _)| *m == name),
            "undeclared layer metric {name}"
        );
        self.0.insert(name, (value, n));
    }
}

/// What a workload measured, before it becomes metrics.
#[derive(Debug)]
pub(crate) struct Measured {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Work items completed in the untraced loop (evaluations, vehicles,
    /// arrivals).
    pub items: u64,
    /// Items per second of each chunk of the untraced loop (one `explore`
    /// call, `run_timed` call or gateway step); their median is the
    /// throughput, which a transient stall of the machine cannot move.
    pub rates: Vec<f64>,
    pub failed: u64,
    /// Op latencies of the untraced loop.
    pub ops_ms: Vec<f64>,
    pub quality: f64,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
    pub layers: Layers,
    /// `(throughput, op p50)` of the traced pass, for the overhead.
    pub traced: Option<(f64, f64)>,
    /// Items of the traced pass (counted as attempted).
    pub traced_items: u64,
}

impl Measured {
    pub(crate) fn new() -> Self {
        Measured {
            setup_s: Vec::new(),
            items: 0,
            rates: Vec::new(),
            failed: 0,
            ops_ms: Vec::new(),
            quality: 0.0,
            checks: Vec::new(),
            notes: Vec::new(),
            layers: Layers::default(),
            traced: None,
            traced_items: 0,
        }
    }

    fn throughput(&self) -> f64 {
        stats::percentile(&self.rates, 50.0)
    }
}

/// Set-up repetitions whose median is `setup_s`: `full`, or one in a
/// tiny run.
pub(crate) fn setup_repeats(size: Size, full: usize) -> usize {
    match size {
        Size::Full => full,
        Size::Tiny => 1,
    }
}

/// Runs `build` `repeats` times, recording each wall time, and keeps the
/// last result. Every repetition starts from scratch, so the median is
/// the cost a user pays once.
pub(crate) fn repeat_setup<T>(
    repeats: usize,
    times: &mut Vec<f64>,
    mut build: impl FnMut() -> Result<T, BenchError>,
) -> Result<T, BenchError> {
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous repetition first, so peak memory holds one.
        drop(last.take());
        let t = Instant::now();
        let built = build()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    last.ok_or_else(|| BenchError::Config("no set-up ran".into()))
}

/// The process's peak resident set in MiB (`VmHWM`), `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs one workload.
///
/// # Errors
///
/// [`BenchError::Config`] for an unknown workload or a set `EEA_THREADS`;
/// [`BenchError::Library`] when a library call fails.
pub fn run(workload: &str, spec: &RunSpec) -> Result<Outcome, BenchError> {
    if std::env::var_os("EEA_THREADS").is_some() {
        return Err(BenchError::Config(
            "EEA_THREADS is set; it would override every pinned thread count, unset it".into(),
        ));
    }
    let Some(&name) = WORKLOADS.iter().find(|w| **w == workload) else {
        return Err(BenchError::Config(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        )));
    };
    let mut tracer = Tracer::new(spec.trace);
    let m = match name {
        "dse_paper" => dse::run(dse::Spec::Paper, spec, &mut tracer)?,
        "dse_functional" => dse::run(dse::Spec::Functional, spec, &mut tracer)?,
        "fleet_clean" => fleet::run(fleet::Variant::Clean, spec, &mut tracer)?,
        "fleet_sched_noisy" => fleet::run(fleet::Variant::SchedNoisy, spec, &mut tracer)?,
        _ => gateway::run(spec, &mut tracer)?,
    };
    Ok(finish(spec, m, tracer))
}

fn finish(spec: &RunSpec, mut m: Measured, tracer: Tracer) -> Outcome {
    let ops = Summary::of(&m.ops_ms);
    let op_p50 = ops.map_or(0.0, |s| s.median);
    let op_p75 = stats::percentile(&m.ops_ms, 75.0);
    let mut notes = std::mem::take(&mut m.notes);
    if let Some(s) = ops {
        let tail = s.tail.map_or_else(
            || "no tail (n < 20)".to_string(),
            |(p, v)| format!("p{p} {v:.4} ms"),
        );
        notes.push(format!(
            "op: n {}, median {:.4} ms, quartiles {:.4}/{:.4} ms, {tail}",
            s.n, s.median, s.q1, s.q3
        ));
    }
    let metrics = if spec.trace {
        let mut layers = std::mem::take(&mut m.layers);
        if let Some((thr, p50)) = m.traced {
            layers.set(
                "trace.overhead_throughput_pct",
                (m.throughput() / thr.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
                1,
            );
            layers.set(
                "trace.overhead_op_p50_pct",
                (p50 / op_p50.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
                1,
            );
        }
        layers.set("trace.spans", tracer.span_count() as f64, 1);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, n) = layers.0.get(name).copied().unwrap_or((0.0, 0));
                Metric {
                    name,
                    value,
                    unit,
                    n,
                }
            })
            .collect()
    } else {
        let setup = stats::percentile(&m.setup_s, 50.0);
        let n_ops = m.ops_ms.len();
        let values = [
            (setup, m.setup_s.len()),
            (m.throughput(), m.rates.len()),
            (op_p50, n_ops),
            (op_p75, n_ops),
            (peak_rss_mb().unwrap_or(0.0), 1),
            (m.quality, 1),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, n))| Metric {
                name,
                value,
                unit,
                n,
            })
            .collect()
    };
    Outcome {
        attempted: m.items + m.traced_items,
        failed: m.failed,
        metrics,
        checks: m.checks,
        notes,
        tracer,
    }
}
