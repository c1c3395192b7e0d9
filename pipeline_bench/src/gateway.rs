//! The `gateway_stream` workload: an open loop over the frozen trio.
//!
//! A generator thread re-stamps arrivals from a template with fresh
//! vehicle indices and sends 1,024-arrival batches on a fixed wall-clock
//! schedule over an unbounded channel; it never waits for the service.
//! The service thread calls `ingest`, then `drain`, for each batch, and
//! takes a `snapshot_at_timed` whenever one has fallen due (every 40 ms).
//! Every step runs on a fresh service sized for the step's arrivals.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use eea_fleet::{
    Campaign, CampaignConfig, ChannelConfig, CutModel, GatewayConfig, GatewayService,
    GatewaySnapshot, VehicleArrival, DEFAULT_QUEUE_CAPACITY,
};

use crate::fleet::{diagnose_layer, found_share, small_cut, trio};
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{
    ms_since, repeat_setup, setup_repeats, BenchError, Check, Layers, Measured, RunSpec, Size,
    THREADS,
};

const BATCH: usize = 1_024;
const SNAPSHOT_EVERY: Duration = Duration::from_millis(40);

struct Params {
    /// Offered arrivals per second.
    rate: f64,
    /// Wall seconds of one step.
    step_s: f64,
    /// Arrivals simulated once in set-up and re-stamped forever after.
    template: u32,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            rate: 1_000_000.0,
            step_s: 2.0,
            template: 1 << 18,
        },
        Size::Tiny => Params {
            rate: 200_000.0,
            step_s: 0.05,
            template: 4_096,
        },
    }
}

struct Inputs {
    cut: CutModel,
    template: Vec<VehicleArrival>,
    horizon_s: f64,
}

/// Arrival `v` of a step: the template entry `v mod len`, re-stamped.
fn arrival(template: &[VehicleArrival], v: usize) -> VehicleArrival {
    let mut a = template[v % template.len()];
    let id = u32::try_from(v).unwrap_or(u32::MAX);
    a.vehicle = id;
    if let Some(up) = a.upload.as_mut() {
        up.vehicle = id;
    }
    a
}

/// What the service thread saw over all steps of one pass.
#[derive(Default)]
struct Pass {
    arrivals: u64,
    failed: u64,
    /// Arrivals per second of service busy time, per step.
    step_rates: Vec<f64>,
    lag_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    diagnose_ms: Vec<f64>,
    fold_ms: Vec<f64>,
    us_per_1k_uploads: Vec<f64>,
    ingest_ns: f64,
    drain_ns: f64,
    queue_high_water: usize,
    backlog_max: usize,
    generator_lag_ms: f64,
    duplicates: u64,
    malformed: u64,
    shed: u64,
    /// Arrivals the final snapshots did not count as ingested.
    lost: u64,
    /// The first step's horizon snapshot and fleet size.
    first: Option<(GatewaySnapshot, u64)>,
}

pub(crate) fn run(run: &RunSpec, tracer: &mut Tracer) -> Result<Measured, BenchError> {
    let p = params(run.size);
    let mut m = Measured::new();
    let (mut cut_ms, mut dict_ms, mut campaign_ms, mut template_ms) =
        (vec![], vec![], vec![], vec![]);
    let inputs = repeat_setup(setup_repeats(run.size, 9), &mut m.setup_s, || {
        let t = Instant::now();
        let cut = small_cut()?;
        cut_ms.push(ms_since(t));
        dict_ms.push(cut.dict_build_seconds() * 1e3);
        let blueprints = trio(false, None, ChannelConfig::Clean);
        let config = CampaignConfig {
            vehicles: p.template,
            seed: run.seed,
            threads: THREADS,
            ..CampaignConfig::default()
        };
        let t = Instant::now();
        let campaign = Campaign::new(&cut, &blueprints, config)?;
        campaign_ms.push(ms_since(t));
        let t = Instant::now();
        let template: Vec<VehicleArrival> = campaign.arrivals().collect();
        template_ms.push(ms_since(t));
        let horizon_s = campaign.config().horizon_s;
        Ok(Inputs {
            cut,
            template,
            horizon_s,
        })
    })?;
    let med = |v: &[f64]| percentile(v, 50.0);
    m.layers
        .set("fleet.cut_build_ms", med(&cut_ms), cut_ms.len());
    m.layers
        .set("bist.dict_build_ms", med(&dict_ms), dict_ms.len());
    m.layers.set(
        "fleet.campaign_new_ms",
        med(&campaign_ms),
        campaign_ms.len(),
    );
    m.layers.set(
        "fleet.arrivals_template_ms",
        med(&template_ms),
        template_ms.len(),
    );

    let mut disabled = Tracer::new(false);
    let untraced = steps(&inputs, &p, run.untraced_seconds(), &mut disabled)?;
    m.items = untraced.arrivals;
    m.rates = untraced.step_rates.clone();
    m.failed = untraced.failed;
    m.ops_ms = untraced.snapshot_ms.clone();
    let mut passes = vec![untraced];
    if run.trace {
        let traced = steps(&inputs, &p, run.seconds - run.untraced_seconds(), tracer)?;
        m.traced_items = traced.arrivals;
        m.failed += traced.failed;
        m.traced = Some((
            percentile(&traced.step_rates, 50.0),
            percentile(&traced.snapshot_ms, 50.0),
        ));
        layers(&traced, &mut m.layers);
        diagnose_layer(&inputs.cut, tracer, &mut m.layers);
        passes.push(traced);
    }

    let (lost, dropped) = passes.iter().fold((0, 0), |(l, d), p| {
        (l + p.lost, d + p.shed + p.malformed + p.duplicates)
    });
    m.checks.push(Check::new(
        "gateway_accounts_every_arrival",
        lost == 0 && dropped == 0,
        format!(
            "{lost} arrivals missing from final snapshots, {dropped} shed, malformed or duplicate"
        ),
    ));
    if let Some((first, fleet)) = &passes[0].first {
        m.quality = found_share(&first.report);
        let serial = serial_refeed(&inputs, *fleet)?;
        m.checks.push(Check::new(
            "snapshot_matches_serial_refeed",
            serial == *first,
            format!(
                "{} arrivals, {} uploads",
                first.ingested, first.uploads_ingested
            ),
        ));
    }
    m.notes.push(format!(
        "offered {} arrivals/s in {BATCH}-arrival batches, {} s steps, snapshot every {} ms; \
{} snapshots",
        p.rate,
        p.step_s,
        SNAPSHOT_EVERY.as_millis(),
        m.ops_ms.len()
    ));
    Ok(m)
}

fn layers(pass: &Pass, layers: &mut Layers) {
    let per_arrival = |ns: f64| ns / pass.arrivals.max(1) as f64;
    let n = pass.arrivals as usize;
    layers.set("gateway.ingest_ns", per_arrival(pass.ingest_ns), n);
    layers.set("gateway.drain_ns", per_arrival(pass.drain_ns), n);
    layers.set("gateway.queue_high_water", pass.queue_high_water as f64, n);
    layers.set(
        "gateway.backlog_max_batches",
        pass.backlog_max as f64,
        pass.lag_ms.len(),
    );
    layers.set(
        "gateway.generator_lag_ms",
        pass.generator_lag_ms,
        pass.lag_ms.len(),
    );
    layers.set(
        "gateway.ingest_lag_p50_ms",
        percentile(&pass.lag_ms, 50.0),
        pass.lag_ms.len(),
    );
    layers.set(
        "gateway.ingest_lag_p99_ms",
        percentile(&pass.lag_ms, 99.0),
        pass.lag_ms.len(),
    );
    let s = pass.snapshot_ms.len();
    layers.set(
        "gateway.snapshot_merge_ms_p50",
        percentile(&pass.merge_ms, 50.0),
        s,
    );
    layers.set(
        "gateway.snapshot_diagnose_ms_p50",
        percentile(&pass.diagnose_ms, 50.0),
        s,
    );
    layers.set(
        "gateway.snapshot_fold_ms_p50",
        percentile(&pass.fold_ms, 50.0),
        s,
    );
    layers.set(
        "gateway.snapshot_us_per_1k_uploads",
        percentile(&pass.us_per_1k_uploads, 50.0),
        pass.us_per_1k_uploads.len(),
    );
    layers.set("gateway.shed", pass.shed as f64, n);
    layers.set("gateway.malformed", pass.malformed as f64, n);
    layers.set("gateway.duplicates", pass.duplicates as f64, n);
}

/// Runs fresh-service steps until `seconds` have passed (at least one).
fn steps(
    inputs: &Inputs,
    p: &Params,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Pass, BenchError> {
    let mut pass = Pass::default();
    let start = Instant::now();
    loop {
        let (fin, fleet) = step(inputs, p, tracer, &mut pass)?;
        pass.lost += fleet - fin.ingested;
        pass.first.get_or_insert((fin, fleet));
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(pass);
        }
    }
}

/// The same arrivals fed serially through `accept` into a service with
/// other shard, thread and queue settings; the horizon snapshot must be
/// bit-identical.
fn serial_refeed(inputs: &Inputs, fleet: u64) -> Result<GatewaySnapshot, BenchError> {
    let mut svc = GatewayService::new(
        &inputs.cut,
        GatewayConfig {
            vehicles: u32::try_from(fleet).unwrap_or(u32::MAX),
            horizon_s: inputs.horizon_s,
            queue_capacity: 64,
            shards: 3,
            threads: 1,
            ..GatewayConfig::default()
        },
    )?;
    for v in 0..fleet as usize {
        svc.accept(arrival(&inputs.template, v))?;
    }
    Ok(svc.snapshot_at(inputs.horizon_s))
}

/// One open-loop step on a fresh service; returns its horizon snapshot
/// and fleet size.
fn step(
    inputs: &Inputs,
    p: &Params,
    tracer: &mut Tracer,
    pass: &mut Pass,
) -> Result<(GatewaySnapshot, u64), BenchError> {
    let batches = ((p.rate * p.step_s) as usize / BATCH).max(1);
    let fleet = (batches * BATCH) as u64;
    let mut svc = GatewayService::new(
        &inputs.cut,
        GatewayConfig {
            vehicles: u32::try_from(fleet).unwrap_or(u32::MAX),
            horizon_s: inputs.horizon_s,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            shards: 1,
            // The generator holds the other core.
            threads: 1,
            ..GatewayConfig::default()
        },
    )?;
    let interval = Duration::from_secs_f64(BATCH as f64 / p.rate);
    let template = &inputs.template;
    let horizon_s = inputs.horizon_s;
    let step_span = tracer.open("gateway.step", None);
    let mut busy = Duration::ZERO;

    let generator_lag = std::thread::scope(|scope| -> Result<Duration, BenchError> {
        let (tx, rx) = mpsc::channel::<(Instant, Vec<VehicleArrival>)>();
        let start = Instant::now() + Duration::from_millis(1);
        let generator = scope.spawn(move || {
            let mut max_lag = Duration::ZERO;
            for b in 0..batches {
                let due = start + interval * u32::try_from(b).unwrap_or(u32::MAX);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let batch: Vec<VehicleArrival> = (b * BATCH..(b + 1) * BATCH)
                    .map(|v| arrival(template, v))
                    .collect();
                max_lag = max_lag.max(Instant::now().saturating_duration_since(due));
                if tx.send((due, batch)).is_err() {
                    break;
                }
            }
            max_lag
        });

        let mut next_snapshot = start + SNAPSHOT_EVERY;
        let mut processed = 0usize;
        for (due, batch) in rx {
            let t0 = Instant::now();
            let n = batch.len();
            for a in batch {
                if svc.ingest(a).is_err() {
                    pass.failed += 1;
                }
            }
            pass.queue_high_water = pass.queue_high_water.max(svc.queue_len());
            let t1 = Instant::now();
            svc.drain();
            let t2 = Instant::now();
            processed += 1;
            pass.arrivals += n as u64;
            pass.ingest_ns += (t1 - t0).as_secs_f64() * 1e9;
            pass.drain_ns += (t2 - t1).as_secs_f64() * 1e9;
            busy += t2 - t0;
            pass.lag_ms
                .push(t2.saturating_duration_since(due).as_secs_f64() * 1e3);
            let due_now = (t2.saturating_duration_since(start).as_secs_f64()
                / interval.as_secs_f64()) as usize
                + 1;
            pass.backlog_max = pass
                .backlog_max
                .max(due_now.min(batches).saturating_sub(processed));
            let batch_span = tracer.record("gateway.batch", step_span, t0, t2);
            tracer.record("gateway.ingest", batch_span, t0, t1);
            tracer.record("gateway.drain", batch_span, t1, t2);

            if t2 >= next_snapshot && processed < batches {
                let at_s = horizon_s * (processed * BATCH) as f64 / fleet as f64;
                let (snap, stages) = svc.snapshot_at_timed(at_s);
                let t3 = Instant::now();
                let ms = (t3 - t2).as_secs_f64() * 1e3;
                busy += t3 - t2;
                pass.snapshot_ms.push(ms);
                pass.merge_ms.push(stages.merge_s * 1e3);
                pass.diagnose_ms.push(stages.diagnose_s * 1e3);
                pass.fold_ms.push(stages.fold_s * 1e3);
                if snap.uploads_ingested >= 1_000 {
                    pass.us_per_1k_uploads
                        .push(ms * 1e3 / (snap.uploads_ingested as f64 / 1e3));
                }
                let snap_span = tracer.record("gateway.snapshot", step_span, t2, t3);
                tracer.record_stages(
                    snap_span,
                    t2,
                    &[
                        ("gateway.snapshot_merge", stages.merge_s),
                        ("gateway.snapshot_diagnose", stages.diagnose_s),
                        ("gateway.snapshot_fold", stages.fold_s),
                    ],
                );
                next_snapshot += SNAPSHOT_EVERY;
            }
        }
        generator
            .join()
            .map_err(|_| BenchError::Library("generator thread panicked".into()))
    })?;
    tracer.close(step_span);
    pass.step_rates
        .push(fleet as f64 / busy.as_secs_f64().max(f64::MIN_POSITIVE));
    pass.generator_lag_ms = pass.generator_lag_ms.max(generator_lag.as_secs_f64() * 1e3);

    let fin = svc.snapshot_at(horizon_s);
    pass.shed += fin.shed;
    pass.malformed += fin.malformed;
    pass.duplicates += fin.duplicates;
    Ok((fin, fleet))
}
