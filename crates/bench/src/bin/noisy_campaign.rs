//! Channel-impairment sweep: diagnosis quality on a noisy bus.
//!
//! Runs the frozen-contract blueprint trio (the exact fleet
//! `tests/fleet_frozen_report.rs` pins) over a clean channel and over a
//! grid of error-rate × truncation-cap points ([`eea_fleet::NoisyChannel`]).
//! Three guarantees are asserted before any number is reported:
//!
//! 1. **Clean bit-identity** — the clean baseline is bit-identical across
//!    the thread sweep, carries no robustness block, and (at the
//!    default 100 000-vehicle scale) reproduces the frozen report digest
//!    `0xC52D_7E52_A85B_1C99`.
//! 2. **Equivalence oracle** — a zero-rate, uncapped `NoisyChannel`
//!    (which owns and advances its dedicated per-vehicle RNG streams)
//!    reproduces the clean report bit-for-bit.
//! 3. **Impaired bit-identity** — every nonzero-impairment point is
//!    bit-identical across the same thread sweep, including the
//!    f64 retransmission-overhead accumulator and the rank CDF.
//!
//! Per point the `BENCH_fleet.json` entry records the robustness axis —
//! retransmission volume/overhead, window-lost / corrupted /
//! cap-truncated upload counts, localization-rank degradation vs. the
//! clean twin, and the impaired-vs-clean rank CDF — under a
//! `"noisy_campaign"` key cooperating with the `fleet_campaign`,
//! `sched_campaign` and `gateway_soak` sections.
//!
//! ```text
//! cargo run -p eea-bench --bin noisy_campaign --release
//! EEA_NOISY_VEHICLES=10000 cargo run -p eea-bench --bin noisy_campaign --release
//! EEA_OUT_DIR=target/exp cargo run -p eea-bench --bin noisy_campaign --release
//! ```

use std::time::Instant;

use eea_bench::{env_u64, env_usize, out_path};
use eea_dse::EeaError;
use eea_fleet::{
    Campaign, CampaignConfig, ChannelConfig, CutConfig, CutFamily, CutModel, EcuSessionPlan,
    FleetReport, NoisyChannel, RobustnessReport, TransportKind, VehicleBlueprint,
};
use eea_model::ResourceId;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Frame-error-rate grid; corruption and window-loss rates scale with it
/// (see [`noisy`]).
const ERROR_RATES: [f64; 3] = [0.002, 0.01, 0.05];
/// Truncation-cap grid: uncapped, and a tight 48-byte cap (4 fail-memory
/// entries) that truncates the larger fail memories.
const CAPS: [u64; 2] = [u64::MAX, 48];
/// Channel seed of the sweep (the campaign seed stays `EEA_SEED`).
const CHANNEL_SEED: u64 = 0x0B5E_55ED_CA4B_005E;
/// The one-shot 100 000-vehicle digest `tests/fleet_frozen_report.rs`
/// freezes — the clean baseline must reproduce it at default scale.
const FROZEN_DIGEST: u64 = 0xC52D_7E52_A85B_1C99;

/// The frozen-contract blueprint trio (local-storage fast path, gateway
/// streaming, never-completing first session), stamped with `channel`.
fn blueprints(channel: ChannelConfig) -> Vec<VehicleBlueprint> {
    let plan = |ecu: usize, transfer_s: f64, upload_bw: f64| EcuSessionPlan {
        ecu: ResourceId::from_index(ecu),
        profile_id: 1,
        coverage: 0.99,
        session_s: 0.005,
        transfer_s,
        local_storage: transfer_s == 0.0,
        upload_bandwidth_bytes_per_s: upload_bw,
        family: CutFamily::Logic,
    };
    vec![
        VehicleBlueprint {
            implementation_index: 0,
            sessions: vec![plan(0, 0.0, 400.0), plan(1, 0.0, 150.0)],
            shutoff_budget_s: 900.0,
            transport: TransportKind::MirroredCan,
            channel,
            task_set: None,
        },
        VehicleBlueprint {
            implementation_index: 1,
            sessions: vec![plan(2, 1_500.0, 80.0)],
            shutoff_budget_s: 4_000.0,
            transport: TransportKind::MirroredCan,
            channel,
            task_set: None,
        },
        VehicleBlueprint {
            implementation_index: 2,
            sessions: vec![plan(3, f64::INFINITY, 0.0), plan(4, 300.0, 60.0)],
            shutoff_budget_s: 2_000.0,
            transport: TransportKind::MirroredCan,
            channel,
            task_set: None,
        },
    ]
}

/// One sweep point: the frame-error rate is the axis value; payload
/// corruption fires at 4× and window loss at 2× that rate (payload events
/// are per-upload, frame errors per-frame, so the higher payload rates
/// keep both effects visible at the low end of the grid).
fn noisy(rate: f64, cap: u64) -> ChannelConfig {
    ChannelConfig::Noisy(NoisyChannel {
        frame_error_rate: rate,
        corruption_rate: (4.0 * rate).min(0.9),
        window_loss_rate: (2.0 * rate).min(0.9),
        truncation_cap_bytes: cap,
        seed: CHANNEL_SEED,
    })
}

/// FNV-1a 64 over the complete Debug rendering — the digest discipline of
/// `tests/fleet_frozen_report.rs`.
fn digest(report: &FleetReport) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in format!("{report:?}").bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Thread sweep of one channel point; asserts bit-identity and
/// returns the reference report plus the slowest-to-fastest timing line.
fn run_sweep(
    label: &str,
    cut: &CutModel,
    channel: ChannelConfig,
    config: &CampaignConfig,
) -> Result<FleetReport, EeaError> {
    let bp = blueprints(channel);
    let mut reference: Option<FleetReport> = None;
    for &threads in &THREAD_SWEEP {
        let cfg = CampaignConfig {
            threads,
            ..config.clone()
        };
        let campaign = Campaign::new(cut, &bp, cfg)?;
        let start = Instant::now();
        let report = campaign.run();
        let seconds = start.elapsed().as_secs_f64();
        eprintln!(
            "[{label}] threads={threads}: {} vehicles in {seconds:.3} s ({:.0} vehicles/s)",
            report.vehicles,
            f64::from(report.vehicles) / seconds,
        );
        match &reference {
            None => reference = Some(report),
            Some(r) => assert!(
                *r == report,
                "[{label}] fleet report diverged at {threads} threads — determinism broken"
            ),
        }
    }
    reference.ok_or_else(|| EeaError::Fleet("empty thread sweep".into()))
}

fn json_robustness(rob: &RobustnessReport) -> String {
    let cdf: Vec<String> = rob
        .rank_cdf
        .iter()
        .map(|p| {
            format!(
                "{{\"bound\": {}, \"impaired_le\": {}, \"clean_le\": {}}}",
                p.bound, p.impaired_le, p.clean_le
            )
        })
        .collect();
    format!(
        "\"robustness\": {{\"impaired_uploads\": {}, \"retransmitted_frames\": {}, \
\"retransmit_overhead_s\": {:.3}, \"window_lost_uploads\": {}, \"corrupted_uploads\": {}, \
\"cap_truncated_uploads\": {}, \"rejected_uploads\": {}, \"rank_degraded\": {}, \
\"rank_improved\": {}, \"delocalized\": {}, \"rank_cdf\": [{}]}}",
        rob.impaired_uploads,
        rob.retransmitted_frames,
        rob.retransmit_overhead_s,
        rob.window_lost_uploads,
        rob.corrupted_uploads,
        rob.cap_truncated_uploads,
        rob.rejected_uploads,
        rob.rank_degraded,
        rob.rank_improved,
        rob.delocalized,
        cdf.join(", "),
    )
}

fn main() -> Result<(), EeaError> {
    let vehicles = env_usize("EEA_NOISY_VEHICLES", 100_000) as u32;
    let seed = env_u64("EEA_SEED", 2014);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("machine: {cores} core(s); {vehicles} vehicles, seed {seed}");

    let cut = CutModel::build(CutConfig {
        gates: 100,
        patterns: 128,
        window: 16,
        ..CutConfig::default()
    })?;
    let config = CampaignConfig {
        vehicles,
        seed,
        ..CampaignConfig::default()
    };

    // Clean baseline: bit-identical across the sweep, no robustness
    // block, and at default scale the frozen one-shot digest.
    let clean = run_sweep("clean", &cut, ChannelConfig::Clean, &config)?;
    assert!(
        clean.robustness.is_none(),
        "clean campaign must not report a robustness axis"
    );
    let clean_digest = digest(&clean);
    let digest_frozen = vehicles == 100_000 && seed == 2014;
    if digest_frozen {
        assert_eq!(
            clean_digest, FROZEN_DIGEST,
            "clean channel must reproduce the frozen 100k digest"
        );
    }
    eprintln!("[clean] digest {clean_digest:#018X} (frozen contract checked: {digest_frozen})");

    // Equivalence oracle at bench scale: zero-rate noisy == clean.
    let zero = run_sweep(
        "zero-rate-noisy",
        &cut,
        ChannelConfig::Noisy(NoisyChannel {
            seed: CHANNEL_SEED,
            ..NoisyChannel::default()
        }),
        &config,
    )?;
    assert!(
        zero == clean,
        "zero-rate NoisyChannel must reproduce the Clean report bit-for-bit"
    );
    eprintln!("[zero-rate-noisy] bit-identical to clean: true");

    // The impairment grid.
    let mut points = Vec::new();
    let mut degraded_points = 0usize;
    for &cap in &CAPS {
        for &rate in &ERROR_RATES {
            let cap_label = if cap == u64::MAX {
                "uncapped".to_string()
            } else {
                format!("{cap} B")
            };
            let label = format!("rate {rate} / cap {cap_label}");
            let report = run_sweep(&label, &cut, noisy(rate, cap), &config)?;
            assert_eq!(
                report.detected,
                clean.detected,
                "[{label}] impairment degrades ranks, it must not drop detections"
            );
            let Some(rob) = &report.robustness else {
                return Err(EeaError::Fleet(format!(
                    "[{label}] nonzero rates must surface a robustness block"
                )));
            };
            degraded_points += usize::from(rob.rank_degraded > 0);
            eprintln!(
                "[{label}] impaired {} / retx frames {} (+{:.1} s) / degraded {} / \
delocalized {} / cap-truncated {}",
                rob.impaired_uploads,
                rob.retransmitted_frames,
                rob.retransmit_overhead_s,
                rob.rank_degraded,
                rob.delocalized,
                rob.cap_truncated_uploads,
            );
            points.push(format!(
                "    {{\"frame_error_rate\": {rate}, \"truncation_cap_bytes\": {}, \
\"bit_identical_across_sweep\": true, \"detected\": {}, \"localized\": {}, {}}}",
                if cap == u64::MAX {
                    "null".to_string()
                } else {
                    cap.to_string()
                },
                report.detected,
                report.localized,
                json_robustness(rob),
            ));
        }
    }
    assert!(
        degraded_points >= 3,
        "the sweep must show rank degradation at >= 3 points, got {degraded_points}"
    );

    let section = format!(
        "\"noisy_campaign\": {{\n    \"vehicles\": {vehicles}, \"seed\": {seed}, \
\"machine_cores\": {cores},\n    \"clean_digest\": \"{clean_digest:#018X}\", \
\"clean_digest_frozen_checked\": {digest_frozen},\n    \
\"clean_equals_zero_rate_noisy\": true,\n    \"points\": [\n{}\n    ]\n  }}",
        points.join(",\n")
    );
    let path = out_path("BENCH_fleet.json");
    let json = merge_section(std::fs::read_to_string(&path).ok().as_deref(), &section);
    println!("{json}");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    Ok(())
}

/// Splices the `"noisy_campaign"` section into an existing
/// `BENCH_fleet.json`, replacing a previous noisy section when re-run.
/// The section lands *before* the `sched_campaign` and `gateway_soak`
/// sections, preserving both binaries' own merge anchors. Plain string
/// surgery — the workspace has no JSON dependency by design.
fn merge_section(existing: Option<&str>, section: &str) -> String {
    const KEY: &str = ",\n  \"noisy_campaign\"";
    const TAILS: [&str; 2] = [",\n  \"sched_campaign\"", ",\n  \"gateway_soak\""];
    let fallback = || format!("{{\n  {section}\n}}\n");
    let Some(existing) = existing else {
        return fallback();
    };
    // Re-run: peel the previous noisy section, which ends at the first
    // tail key after it or at the document's closing brace.
    let cleaned: String = if let Some(at) = existing.find(KEY) {
        let rest = &existing[at + KEY.len()..];
        match TAILS.iter().filter_map(|t| rest.find(t)).min() {
            Some(rel) => {
                let tail_at = at + KEY.len() + rel;
                format!("{}{}", &existing[..at], &existing[tail_at..])
            }
            None => format!("{}\n}}\n", existing[..at].trim_end()),
        }
    } else {
        existing.to_string()
    };
    if let Some(at) = TAILS.iter().filter_map(|t| cleaned.find(t)).min() {
        return format!("{},\n  {section}{}", &cleaned[..at], &cleaned[at..]);
    }
    let Some(end) = cleaned.rfind('}') else {
        return fallback();
    };
    let body = cleaned[..end].trim_end();
    if body.is_empty() || !body.starts_with('{') {
        return fallback();
    }
    format!("{body},\n  {section}\n}}\n")
}

#[cfg(test)]
mod tests {
    use super::merge_section;

    #[test]
    fn merges_remerges_and_keeps_tail_sections_last() {
        let fresh = merge_section(None, "\"noisy_campaign\": {\"x\": 1}");
        assert_eq!(fresh, "{\n  \"noisy_campaign\": {\"x\": 1}\n}\n");

        let doc = "{\n  \"transports\": [\n    {}\n  ]\n}\n";
        let merged = merge_section(Some(doc), "\"noisy_campaign\": {\"x\": 1}");
        assert_eq!(
            merged,
            "{\n  \"transports\": [\n    {}\n  ],\n  \"noisy_campaign\": {\"x\": 1}\n}\n"
        );
        let remerged = merge_section(Some(&merged), "\"noisy_campaign\": {\"x\": 2}");
        assert_eq!(
            remerged,
            "{\n  \"transports\": [\n    {}\n  ],\n  \"noisy_campaign\": {\"x\": 2}\n}\n"
        );

        // With sched and soak sections present the noisy section lands
        // before both, and a re-merge leaves them untouched.
        let tail = "{\n  \"transports\": [],\n  \"sched_campaign\": {\"s\": 1},\n  \
\"gateway_soak\": {\"g\": 1}\n}\n";
        let merged = merge_section(Some(tail), "\"noisy_campaign\": {\"x\": 1}");
        assert_eq!(
            merged,
            "{\n  \"transports\": [],\n  \"noisy_campaign\": {\"x\": 1},\n  \
\"sched_campaign\": {\"s\": 1},\n  \"gateway_soak\": {\"g\": 1}\n}\n"
        );
        let remerged = merge_section(Some(&merged), "\"noisy_campaign\": {\"x\": 2}");
        assert_eq!(
            remerged,
            "{\n  \"transports\": [],\n  \"noisy_campaign\": {\"x\": 2},\n  \
\"sched_campaign\": {\"s\": 1},\n  \"gateway_soak\": {\"g\": 1}\n}\n"
        );

        assert_eq!(
            merge_section(Some("garbage"), "\"noisy_campaign\": {}"),
            "{\n  \"noisy_campaign\": {}\n}\n"
        );
    }
}
