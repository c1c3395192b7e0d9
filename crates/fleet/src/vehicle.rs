//! Per-vehicle campaign timeline.
//!
//! Each vehicle owns a deterministic RNG seeded from the campaign seed and
//! its index, draws a blueprint, possibly a seeded defect, and then runs
//! its BIST sessions as a **sequential work queue** across shut-off
//! windows: pattern transfer (Eq. 1), session runtime `l(b)`, and — when
//! the session fails — the fail-data upload over the same mirrored
//! schedule. A window contributes at most `min(window length, Eq. (5)
//! shut-off budget)` seconds of BIST time; unfinished work resumes in the
//! next window exactly like [`eea_bist::ResumableRun`] resumes the
//! pattern stream (per-pattern independence makes the cut irrelevant to
//! the session result, which is why the precomputed fail data of
//! [`crate::CutModel`] stays valid here).

use eea_bist::{CutFamily, MarchTest, FAIL_ENTRY_BYTES};
use eea_can::{ChannelConfig, Impairment};
use eea_model::ResourceId;
use eea_moea::Rng;
use eea_sched::{FlatBudget, SchedPlan, TaskSchedule, WindowSource};

use crate::blueprint::VehicleBlueprint;
use crate::cut::CutModel;
use crate::shutoff::ShutoffModel;

/// Payload bytes per classic CAN data frame — the granularity fail-data
/// uploads are framed at on the mirrored schedule, and hence the unit the
/// channel's per-frame error events apply to.
pub(crate) const CAN_FRAME_PAYLOAD_BYTES: u64 = 8;

/// Converts a channel byte cap into the fail-entry granularity of
/// [`Impairment::cap_entries`]; an uncapped channel (`u64::MAX` bytes)
/// saturates to the uncapped sentinel `u16::MAX`.
pub(crate) fn cap_entries(cap_bytes: u64) -> u16 {
    u16::try_from(cap_bytes / FAIL_ENTRY_BYTES).unwrap_or(u16::MAX)
}

/// A defect seeded into a vehicle: one fault of the seeded family's CUT
/// model (a collapsed stuck-at of the logic [`CutModel`] or a cell fault
/// of the SRAM [`MarchTest`]), placed on one diagnosable ECU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectSeed {
    /// Index into the family's fault list (session-detectable by
    /// construction).
    pub fault_index: u32,
    /// The defective ECU.
    pub ecu: ResourceId,
    /// Index of the affected session plan in the blueprint.
    pub plan: usize,
    /// The CUT family the fault belongs to — fault indices are only
    /// meaningful within their family's model.
    pub family: CutFamily,
}

/// A fail-data upload arriving at the gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Upload {
    /// The uploading vehicle.
    pub vehicle: u32,
    /// The defective ECU.
    pub ecu: ResourceId,
    /// The seeded fault (index into the family's CUT model).
    pub fault_index: u32,
    /// The CUT family the fault index refers to.
    pub family: CutFamily,
    /// Absolute campaign time (seconds) the upload completed.
    pub time_s: f64,
    /// Encoded fail-data size in bytes.
    pub fail_bytes: u64,
    /// Frames the channel forced to be re-sent during this upload — `0`
    /// on a clean channel.
    pub retransmitted_frames: u32,
    /// Extra upload seconds the retransmissions cost (already included in
    /// [`time_s`](Self::time_s)) — exactly `0.0` on a clean channel.
    pub retransmit_s: f64,
    /// What the channel did to the fail-data payload in transit;
    /// [`Impairment::NONE`] on a clean channel.
    pub impairment: Impairment,
}

/// What one vehicle did over the campaign horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleOutcome {
    /// Vehicle index.
    pub vehicle: u32,
    /// Index of the blueprint the vehicle was bound to.
    pub blueprint: usize,
    /// The seeded defect, if any.
    pub defect: Option<DefectSeed>,
    /// Sessions fully completed (including upload, where one was due)
    /// within the horizon.
    pub sessions_completed: u32,
    /// Shut-off windows in which BIST made progress.
    pub windows_used: u32,
    /// Total BIST time consumed (seconds).
    pub bist_time_s: f64,
    /// The defect's fail-data upload, when it completed within the
    /// horizon.
    pub upload: Option<Upload>,
}

/// Precomputed per-blueprint work template: everything `simulate_vehicle`
/// would otherwise re-derive from the blueprint for every single vehicle
/// of the fleet. Computed once per campaign (the blueprint set is shared
/// fleet-wide) and read-only on the hot path.
#[derive(Debug, Clone)]
pub(crate) struct BlueprintTemplate {
    /// Runnable session plans in blueprint order, paired with their
    /// defect-free work `transfer_s + session_s` — the fixed work list a
    /// vehicle walks with a cursor instead of materializing a queue.
    runnable: Vec<(usize, f64)>,
    /// Diagnosable plan indices (the defect placement choices).
    diagnosable: Vec<usize>,
    /// Whether every session tests the logic CUT family. Pure-logic
    /// blueprints keep the historical defect-seeding draw order
    /// (fault-then-plan), which is what the frozen digests pin.
    pure_logic: bool,
}

impl BlueprintTemplate {
    pub(crate) fn new(blueprint: &VehicleBlueprint) -> Self {
        let runnable = blueprint
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_runnable())
            .map(|(i, p)| {
                let work = match &blueprint.channel {
                    // The exact same float expression the per-vehicle loop
                    // used to evaluate — precomputing it cannot change any
                    // outcome bit.
                    ChannelConfig::Clean => p.transfer_s + p.session_s,
                    // Eq. (1) re-pricing over a noisy bus: each streamed
                    // pattern frame is sent 1/(1 - p_err) times in
                    // expectation. A zero error rate inflates by exactly
                    // 1.0, and `x * 1.0` is bit-identical to `x` — the
                    // equivalence-oracle contract with `ChannelConfig::Clean`.
                    noisy => p.transfer_s * noisy.transfer_inflation() + p.session_s,
                };
                (i, work)
            })
            .collect();
        BlueprintTemplate {
            runnable,
            diagnosable: blueprint.diagnosable_plans(),
            pure_logic: blueprint
                .sessions
                .iter()
                .all(|p| p.family == CutFamily::Logic),
        }
    }
}

/// Exact `x % d` for a campaign-invariant divisor, computed with one
/// 128-bit multiply chain instead of a hardware divide (Lemire's fastmod;
/// the hot loop's blueprint draw pays the divide for *every* vehicle
/// otherwise). Bit-identical to `%` — [`Rng::below`] semantics are part of
/// the frozen-report contract, so this must never approximate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FastMod {
    d: u64,
    /// `ceil(2^128 / d)`, wrapping to 0 for `d == 1`.
    m: u128,
}

impl FastMod {
    pub(crate) fn new(d: u64) -> Self {
        debug_assert!(d > 0);
        FastMod {
            d,
            m: (u128::MAX / u128::from(d)).wrapping_add(1),
        }
    }

    #[inline]
    pub(crate) fn rem(self, x: u64) -> u64 {
        if self.d == 1 {
            return 0;
        }
        // x mod d = ((M·x mod 2^128) · d) >> 128 with M = ceil(2^128/d).
        let low = self.m.wrapping_mul(u128::from(x));
        // (low · d) >> 128 without 256-bit arithmetic: split low into
        // 64-bit halves; both partial products fit u128 and their carry
        // sum cannot overflow.
        let d = u128::from(self.d);
        let hi = (low >> 64) * d;
        let lo = (low & u128::from(u64::MAX)) * d;
        ((hi + (lo >> 64)) >> 64) as u64
    }
}

/// Everything campaign-invariant the per-vehicle loop reads: the
/// blueprint set with its precomputed work templates and fast blueprint
/// divisor, the shared CUT, the shut-off model, and the campaign scalars.
/// Built once per feed or arrival stream (`Campaign::sim_context`) and
/// shared read-only by every simulation worker.
pub(crate) struct SimContext<'a> {
    pub blueprints: &'a [VehicleBlueprint],
    pub cut: &'a CutModel,
    /// The SRAM CUT model, when the campaign carries one. `None` for
    /// pure-logic fleets — a blueprint with a diagnosable SRAM session is
    /// rejected at campaign validation without it.
    pub sram: Option<&'a MarchTest>,
    /// Per-blueprint schedule plans, indexed like `blueprints`; `None`
    /// entries (and an empty slice) mean the flat-budget window source.
    pub sched: &'a [Option<SchedPlan>],
    pub defect_fraction: f64,
    pub horizon_s: f64,
    /// The campaign seed — the channel layer derives its per-vehicle
    /// sub-streams from it (domain-separated from the simulation streams,
    /// see [`eea_can::NoisyChannel::vehicle_rng`]).
    pub campaign_seed: u64,
    /// The flat-budget window source: the identical hoisted
    /// `min + unit()·range` coefficients the historical `ShutoffRanges`
    /// carried, now shared with `eea-sched` so schedule-derived sources
    /// carve the same macro stream.
    pub(crate) flat: FlatBudget,
    templates: Vec<BlueprintTemplate>,
    blueprint_mod: FastMod,
}

impl<'a> SimContext<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        blueprints: &'a [VehicleBlueprint],
        cut: &'a CutModel,
        sram: Option<&'a MarchTest>,
        sched: &'a [Option<SchedPlan>],
        shutoff: ShutoffModel,
        defect_fraction: f64,
        horizon_s: f64,
        campaign_seed: u64,
    ) -> Self {
        SimContext {
            blueprints,
            cut,
            sram,
            sched,
            defect_fraction,
            horizon_s,
            campaign_seed,
            flat: FlatBudget::from_bounds(
                shutoff.min_gap_s,
                shutoff.max_gap_s,
                shutoff.min_window_s,
                shutoff.max_window_s,
            ),
            templates: blueprints.iter().map(BlueprintTemplate::new).collect(),
            blueprint_mod: FastMod::new(blueprints.len() as u64),
        }
    }
}

/// Simulates one vehicle. `seed` must already mix the campaign seed with
/// the vehicle index so the outcome is a pure function of `(campaign
/// config, index)` — the engine's thread-count independence rests on
/// that. The blueprint template's fixed work list is walked with a
/// cursor, so a vehicle touches no heap at all.
#[inline]
pub(crate) fn simulate_vehicle(index: u32, ctx: &SimContext<'_>, seed: u64) -> VehicleOutcome {
    let SimContext {
        blueprints,
        cut,
        defect_fraction,
        horizon_s,
        flat,
        ..
    } = *ctx;
    let mut rng = Rng::new(seed);
    // `Rng::below(n)` is `next_u64() % n`; the fastmod divisor computes
    // exactly that without the per-vehicle hardware divide.
    let blueprint_idx = ctx.blueprint_mod.rem(rng.next_u64()) as usize;
    let blueprint = &blueprints[blueprint_idx];
    let template = &ctx.templates[blueprint_idx];
    let plan_sched = ctx.sched.get(blueprint_idx).and_then(Option::as_ref);

    // Defect seeding: the fraction draw happens for every vehicle (so the
    // stream of draws is schedule-independent); the seed only lands when
    // the blueprint offers a diagnosable plan to place it on. Pure-logic
    // blueprints keep the historical fault-then-plan draw order (the
    // frozen digests pin it); mixed-family blueprints must draw the plan
    // first — which family's fault pool applies depends on it.
    let wants_defect = rng.chance(defect_fraction);
    let defect = if wants_defect {
        if template.pure_logic {
            let detectable = cut.detectable_faults();
            let fault_index = detectable[rng.below(detectable.len())];
            let plans = &template.diagnosable;
            if plans.is_empty() {
                None
            } else {
                let plan = plans[rng.below(plans.len())];
                Some(DefectSeed {
                    fault_index,
                    ecu: blueprint.sessions[plan].ecu,
                    plan,
                    family: CutFamily::Logic,
                })
            }
        } else {
            let plans = &template.diagnosable;
            if plans.is_empty() {
                None
            } else {
                let plan = plans[rng.below(plans.len())];
                let family = blueprint.sessions[plan].family;
                let pool = match family {
                    CutFamily::Logic => cut.detectable_faults(),
                    CutFamily::Sram => ctx.sram.map_or(&[][..], MarchTest::detectable_faults),
                };
                if pool.is_empty() {
                    None
                } else {
                    let fault_index = pool[rng.below(pool.len())];
                    Some(DefectSeed {
                        fault_index,
                        ecu: blueprint.sessions[plan].ecu,
                        plan,
                        family,
                    })
                }
            }
        }
    } else {
        None
    };

    // A defective plan's work ends with the fail-data upload; passing
    // sessions upload nothing. Diagnosable plans are runnable by
    // definition, so the defective plan is always on the work list.
    let mut fail_bytes = 0u64;
    let mut upload_due: Option<(usize, f64)> = None; // (plan, upload seconds)
    let mut retransmitted_frames = 0u32;
    let mut retransmit_s = 0.0f64;
    let mut impairment = Impairment::NONE;
    if let Some(d) = defect {
        fail_bytes = match d.family {
            CutFamily::Logic => cut.fail_bytes(d.fault_index),
            CutFamily::Sram => ctx.sram.map_or(0, |s| s.fail_bytes(d.fault_index)),
        };
        let mut up = blueprint.sessions[d.plan].upload_s(fail_bytes);
        if let ChannelConfig::Noisy(noisy) = &blueprint.channel {
            // Channel draws come from a dedicated per-vehicle sub-stream
            // (domain-separated from the simulation stream), so threading
            // a noisy channel cannot shift any simulation draw. Pinned
            // order: the per-frame retransmission Bernoullis first, then
            // the payload impairment.
            let mut crng = noisy.vehicle_rng(ctx.campaign_seed, index);
            let frames = fail_bytes.div_ceil(CAN_FRAME_PAYLOAD_BYTES);
            let retx = noisy.retransmitted_frames(&mut crng, frames);
            impairment = noisy.impair(&mut crng, cap_entries(noisy.truncation_cap_bytes));
            if retx > 0 {
                // Each re-sent frame costs one frame payload of upload
                // time over the same mirrored schedule. The zero-
                // retransmission arm adds *nothing*, keeping zero-rate
                // channels bit-identical to `ChannelConfig::Clean`.
                retransmit_s = blueprint.sessions[d.plan].upload_s(retx * CAN_FRAME_PAYLOAD_BYTES);
                up += retransmit_s;
                retransmitted_frames = u32::try_from(retx).unwrap_or(u32::MAX);
            }
        }
        upload_due = Some((d.plan, up));
    }

    let work = &template.runnable[..];
    let budget_cap = blueprint.shutoff_budget_s;

    // Monomorphize the window loop on defect presence × window source:
    // ~98 % of vehicles carry no defect and run a tight instantiation
    // with no upload checks at all, and flat-budget fleets never touch
    // the schedule-carving state.
    let out = match (upload_due, plan_sched) {
        (None, None) => run_windows::<false, _>(work, None, budget_cap, rng, flat, horizon_s),
        (Some(_), None) => {
            run_windows::<true, _>(work, upload_due, budget_cap, rng, flat, horizon_s)
        }
        (None, Some(plan)) => {
            let source = TaskSchedule::new(flat, plan, horizon_s);
            run_windows::<false, _>(work, None, budget_cap, rng, source, horizon_s)
        }
        (Some(_), Some(plan)) => {
            let source = TaskSchedule::new(flat, plan, horizon_s);
            run_windows::<true, _>(work, upload_due, budget_cap, rng, source, horizon_s)
        }
    };

    let upload = match (defect, out.upload_time_s) {
        (Some(d), Some(time_s)) => Some(Upload {
            vehicle: index,
            ecu: d.ecu,
            fault_index: d.fault_index,
            family: d.family,
            time_s,
            fail_bytes,
            retransmitted_frames,
            retransmit_s,
            impairment,
        }),
        _ => None,
    };

    VehicleOutcome {
        vehicle: index,
        blueprint: blueprint_idx,
        defect,
        sessions_completed: out.sessions_completed,
        windows_used: out.windows_used,
        bist_time_s: out.bist_time_s,
        upload,
    }
}

/// What the shut-off window loop produced for one vehicle.
#[derive(Debug, Clone, Copy)]
struct WindowOutcome {
    sessions_completed: u32,
    windows_used: u32,
    bist_time_s: f64,
    /// Completion time of the defective session (upload included), when
    /// it finished within the horizon. Always `None` for `DEFECTIVE =
    /// false`.
    upload_time_s: Option<f64>,
}

/// The session at work-list position `i` including any upload tail — the
/// same `(transfer_s + session_s) + upload_s` float expression and
/// evaluation order the historical materialized queue used. Adding an
/// upload requires a defect, so the defect-free caller passes `None` and
/// the check folds away.
#[inline(always)]
fn session_work(work: &[(usize, f64)], upload_due: Option<(usize, f64)>, i: usize) -> f64 {
    let (plan, w) = work[i];
    match upload_due {
        Some((p, up)) if p == plan => w + up,
        _ => w,
    }
}

/// The shut-off window loop: pulls (gap, window) pairs from the window
/// source and consumes the work list until the horizon cuts the schedule
/// off or the work runs dry. All loop state lives in locals — the float
/// expressions and their evaluation order are the frozen-report
/// contract, and `DEFECTIVE` only strips the upload bookkeeping from the
/// defect-free instantiation; it never changes an arithmetic op. With
/// [`FlatBudget`] as the source the per-iteration draw sequence is
/// exactly the historical one (gap then window, two `unit()` draws); the
/// final iteration draws the window the historical loop skipped after
/// its horizon check, but the vehicle RNG is private and dies here, so
/// the extra draw cannot change any output bit.
#[inline(always)]
fn run_windows<const DEFECTIVE: bool, W: WindowSource>(
    work: &[(usize, f64)],
    upload_due: Option<(usize, f64)>,
    budget_cap: f64,
    mut rng: Rng,
    mut source: W,
    horizon_s: f64,
) -> WindowOutcome {
    let mut out = WindowOutcome {
        sessions_completed: 0,
        windows_used: 0,
        bist_time_s: 0.0,
        upload_time_s: None,
    };
    if budget_cap <= 0.0 || work.is_empty() {
        return out;
    }
    let mut idx = 0usize;
    let mut rem = session_work(work, upload_due, 0);
    let mut t = 0.0f64;
    loop {
        let (gap, window) = source.next_window(&mut rng);
        let start = t + gap;
        if start >= horizon_s {
            break;
        }
        t = start + window;
        let budget = window.min(budget_cap);
        let mut avail = budget;
        let mut done = false;
        // Inner step, dependency-minimal form of the historical
        // `step = min(avail, rem); rem -= step; avail -= step; rem > 0?`:
        // branching on `rem > avail` first lets each arm do a single
        // subtraction. Bit-identical — in the partial arm the historical
        // `avail - avail` is exactly `+0.0`, in the completion arm the
        // historical `rem - rem` is exactly `+0.0` and never read.
        loop {
            if rem > avail {
                // Window exhausted mid-session; the unfinished remainder
                // carries into the next window.
                rem -= avail;
                avail = 0.0;
                break;
            }
            avail -= rem;
            let finished_at = start + (budget - avail);
            let plan = work[idx].0;
            idx += 1;
            if finished_at <= horizon_s {
                out.sessions_completed += 1;
                if DEFECTIVE {
                    if let Some((upload_plan, _)) = upload_due {
                        if upload_plan == plan {
                            out.upload_time_s = Some(finished_at);
                        }
                    }
                }
            }
            if idx >= work.len() {
                done = true;
                break;
            }
            rem = session_work(work, if DEFECTIVE { upload_due } else { None }, idx);
            if avail <= 0.0 {
                break; // window exhausted exactly at a session boundary
            }
        }
        out.windows_used += 1;
        out.bist_time_s += budget - avail;
        if done {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::EcuSessionPlan;
    use crate::cut::{CutConfig, CutModel};
    use eea_model::ResourceId;

    fn run(
        index: u32,
        blueprints: &[VehicleBlueprint],
        cut: &CutModel,
        shutoff: &ShutoffModel,
        defect_fraction: f64,
        horizon_s: f64,
        seed: u64,
    ) -> VehicleOutcome {
        let ctx = SimContext::new(
            blueprints,
            cut,
            None,
            &[],
            *shutoff,
            defect_fraction,
            horizon_s,
            seed,
        );
        simulate_vehicle(index, &ctx, seed)
    }

    fn test_blueprint() -> VehicleBlueprint {
        VehicleBlueprint {
            implementation_index: 0,
            sessions: vec![EcuSessionPlan {
                ecu: ResourceId::from_index(3),
                profile_id: 1,
                coverage: 0.99,
                session_s: 0.005,
                transfer_s: 1200.0,
                local_storage: false,
                upload_bandwidth_bytes_per_s: 100.0,
                family: CutFamily::Logic,
            }],
            shutoff_budget_s: 2_000.0,
            transport: eea_can::TransportKind::MirroredCan,
            task_set: None,
            channel: ChannelConfig::Clean,
        }
    }

    #[test]
    fn fastmod_matches_hardware_remainder() {
        let edge_xs = [
            0u64,
            1,
            2,
            63,
            64,
            1 << 32,
            u64::MAX - 1,
            u64::MAX,
            0x9E37_79B9_7F4A_7C15,
        ];
        let mut rng = eea_moea::Rng::new(0xFA57);
        let mut divisors: Vec<u64> = vec![1, 2, 3, 5, 7, 10, 63, 64, 65, 1000, 1 << 33, u64::MAX];
        for _ in 0..200 {
            divisors.push(rng.next_u64() | 1);
        }
        for &d in &divisors {
            let fm = FastMod::new(d);
            for &x in &edge_xs {
                assert_eq!(fm.rem(x), x % d, "x={x} d={d}");
            }
            for _ in 0..100 {
                let x = rng.next_u64();
                assert_eq!(fm.rem(x), x % d, "x={x} d={d}");
            }
        }
    }

    #[test]
    fn work_resumes_across_windows() {
        let cut = CutModel::build(CutConfig::default()).expect("substrate builds");
        let blueprints = [test_blueprint()];
        let shutoff = ShutoffModel {
            min_gap_s: 100.0,
            max_gap_s: 100.0,
            min_window_s: 400.0,
            max_window_s: 400.0,
        };
        // defect_fraction 1.0: every vehicle with a diagnosable plan is
        // seeded; the 1200 s transfer needs three 400 s windows before the
        // 5 ms session and the upload can finish in the fourth.
        let o = run(0, &blueprints, &cut, &shutoff, 1.0, 1e6, 42);
        assert!(o.defect.is_some());
        assert_eq!(o.sessions_completed, 1);
        assert!(o.windows_used >= 4);
        let up = o.upload.expect("defect detected");
        assert!(up.time_s > 3.0 * 400.0, "transfer alone spans 3 windows");
        assert!(up.fail_bytes > 0);
    }

    #[test]
    fn horizon_cuts_off_detection() {
        let cut = CutModel::build(CutConfig::default()).expect("substrate builds");
        let blueprints = [test_blueprint()];
        let shutoff = ShutoffModel {
            min_gap_s: 100.0,
            max_gap_s: 100.0,
            min_window_s: 400.0,
            max_window_s: 400.0,
        };
        let o = run(0, &blueprints, &cut, &shutoff, 1.0, 800.0, 42);
        assert!(o.defect.is_some());
        assert_eq!(o.sessions_completed, 0);
        assert!(o.upload.is_none());
    }

    #[test]
    fn same_seed_same_outcome() {
        let cut = CutModel::build(CutConfig::default()).expect("substrate builds");
        let blueprints = [test_blueprint()];
        let shutoff = ShutoffModel::default();
        let a = run(5, &blueprints, &cut, &shutoff, 0.5, 1e6, 99);
        let b = run(5, &blueprints, &cut, &shutoff, 0.5, 1e6, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_budget_makes_no_progress() {
        let cut = CutModel::build(CutConfig::default()).expect("substrate builds");
        let mut b = test_blueprint();
        b.shutoff_budget_s = 0.0;
        let o = run(0, &[b], &cut, &ShutoffModel::default(), 0.0, 1e6, 1);
        assert_eq!(o.windows_used, 0);
        assert_eq!(o.sessions_completed, 0);
    }

    /// The equivalence oracle at the single-vehicle level: a zero-rate,
    /// uncapped noisy channel produces the bit-identical outcome of the
    /// structurally clean blueprint — upload time, retransmission fields
    /// and impairment descriptor included.
    #[test]
    fn zero_rate_noisy_channel_is_bit_identical_to_clean() {
        let cut = CutModel::build(CutConfig::default()).expect("substrate builds");
        let clean = [test_blueprint()];
        let mut noisy_bp = test_blueprint();
        noisy_bp.channel = ChannelConfig::Noisy(eea_can::NoisyChannel::default());
        let noisy = [noisy_bp];
        let shutoff = ShutoffModel::default();
        for seed in [1u64, 42, 99, 0xF1EE7] {
            let a = run(7, &clean, &cut, &shutoff, 1.0, 1e7, seed);
            let b = run(7, &noisy, &cut, &shutoff, 1.0, 1e7, seed);
            assert_eq!(a, b, "seed {seed}");
            if let Some(up) = a.upload {
                assert_eq!(up.retransmitted_frames, 0);
                assert_eq!(up.retransmit_s, 0.0);
                assert!(up.impairment.is_none());
            }
        }
    }

    /// A lossy channel delays the upload by exactly the retransmission
    /// overhead it reports, and the impairment draw is deterministic per
    /// `(campaign seed, vehicle)`.
    #[test]
    fn retransmissions_delay_the_upload_and_are_priced_exactly() {
        let cut = CutModel::build(CutConfig::default()).expect("substrate builds");
        let mut noisy_bp = test_blueprint();
        noisy_bp.channel = ChannelConfig::Noisy(eea_can::NoisyChannel {
            frame_error_rate: 0.45,
            ..eea_can::NoisyChannel::default()
        });
        let shutoff = ShutoffModel {
            min_gap_s: 100.0,
            max_gap_s: 100.0,
            min_window_s: 400.0,
            max_window_s: 400.0,
        };
        // Generous horizon so both variants finish their upload; seed 42
        // seeds a defect (see `work_resumes_across_windows`).
        let clean = run(0, &[test_blueprint()], &cut, &shutoff, 1.0, 1e7, 42);
        let lossy = run(0, &[noisy_bp.clone()], &cut, &shutoff, 1.0, 1e7, 42);
        let cup = clean.upload.expect("clean upload lands");
        let lup = lossy.upload.expect("lossy upload lands");
        assert!(
            lup.retransmitted_frames > 0,
            "45 % frame error rate over {} frames must hit",
            cup.fail_bytes.div_ceil(CAN_FRAME_PAYLOAD_BYTES)
        );
        assert!(lup.retransmit_s > 0.0);
        assert!(
            lup.time_s > cup.time_s,
            "retransmissions push the upload later: {} vs {}",
            lup.time_s,
            cup.time_s
        );
        // Deterministic: the same (campaign seed, vehicle) reproduces the
        // channel outcome bit for bit.
        let again = run(0, &[noisy_bp], &cut, &shutoff, 1.0, 1e7, 42);
        assert_eq!(again, lossy);
    }

    /// The channel byte cap converts to whole fail entries; `u64::MAX`
    /// means uncapped.
    #[test]
    fn cap_entries_rounds_down_and_saturates() {
        assert_eq!(cap_entries(u64::MAX), u16::MAX);
        assert_eq!(cap_entries(96), 8);
        assert_eq!(cap_entries(95), 7);
        assert_eq!(cap_entries(11), 0);
        assert_eq!(cap_entries(eea_bist::FAIL_DATA_BYTES), 53);
    }
}
