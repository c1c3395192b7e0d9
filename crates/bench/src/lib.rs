//! Shared helpers of the experiment binaries and Criterion benches that
//! regenerate the paper's tables and figures.
//!
//! Every experiment is deterministic for fixed parameters; environment
//! variables scale the budgets:
//!
//! | variable | default | used by |
//! |---|---|---|
//! | `EEA_EVALS` | 10,000 | `dse_campaign` (paper: 100,000); `ablation_moea` and `sensitivity` default lower |
//! | `EEA_SEED` | 2014 | exploration and fleet-campaign seed |
//! | `EEA_CUT_GATES` | 1,500 | `table1` CUT size |
//! | `EEA_PRP_MAX` | 16,384 | `table1` largest PRP count (paper: 500,000) |
//! | `EEA_THREADS` | auto | worker threads for evaluation (results are bit-identical at any count) |
//! | `EEA_OUT_DIR` | `.` (repo root) | where `dse_campaign` and `fleet_campaign` write their CSV/JSON artifacts |
//! | `EEA_FLEET_VEHICLES` | 100,000 | `fleet_campaign` fleet size of the transport, schedule and noisy-channel sections (at most `u32::MAX`) |
//! | `EEA_FLEET_EVALS` | 2,000 | `fleet_campaign` exploration budget for the blueprint front |
//! | `EEA_FLEET_SCALE` | `100000,1000000,10000000` | `fleet_campaign` fleet sizes of the gateway soak and the scale sweep (comma-separated; empty disables both) |
//! | `EEA_TRANSPORTS` | per binary | comma-separated transport backends (`classic-can`, `can-fd`, `flexray`); `dse_campaign` defaults to `classic-can`, `fleet_campaign` to all three |

// Library targets are panic-free by policy (see DESIGN.md, "Error
// taxonomy"): unwrap/expect/panic! are denied outside test code, and a
// public function that can still panic documents it under `# Panics`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::missing_panics_doc
    )
)]

use eea_bist::paper_table1;
use eea_dse::{
    augment, explore, DiagSpec, DseConfig, DseResult, EeaError, TransportConfig, TransportKind,
};
use eea_fleet::{ChannelConfig, CutFamily, EcuSessionPlan, TaskSetConfig, VehicleBlueprint};
use eea_model::{paper_case_study, CaseStudy, ResourceId};
use eea_moea::hypervolume;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Reads a `usize` environment knob with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` environment knob with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads the `EEA_TRANSPORTS` knob: a comma-separated list of transport
/// labels (`classic-can`, `can-fd`, `flexray`, as printed by
/// [`TransportKind::label`]). Unknown labels are reported on stderr and
/// skipped; an unset variable — or one that yields no usable backend —
/// falls back to `default`.
pub fn env_transports(default: &[TransportKind]) -> Vec<TransportKind> {
    let Ok(raw) = std::env::var("EEA_TRANSPORTS") else {
        return default.to_vec();
    };
    let mut kinds = Vec::new();
    for label in raw.split(',').map(str::trim).filter(|l| !l.is_empty()) {
        match TransportKind::ALL.iter().find(|k| k.label() == label) {
            Some(&k) if !kinds.contains(&k) => kinds.push(k),
            Some(_) => {}
            None => eprintln!("EEA_TRANSPORTS: unknown backend {label:?} (skipped)"),
        }
    }
    if kinds.is_empty() {
        eprintln!("EEA_TRANSPORTS selected no backend; using the default set");
        return default.to_vec();
    }
    kinds
}

/// Reads a comma-separated `u64` list knob (`EEA_FLEET_SCALE`).
/// Unparsable entries are skipped; an unset variable falls back to
/// `default`; a set-but-empty (or all-garbage) variable yields an empty
/// list, which disables the sweeps it drives.
pub fn env_u64_list(name: &str, default: &[u64]) -> Vec<u64> {
    let Ok(raw) = std::env::var(name) else {
        return default.to_vec();
    };
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect()
}

/// Converts a fleet size read from the knob `knob` into a campaign's
/// `u32` vehicle count.
///
/// # Errors
///
/// A message naming `knob` when `vehicles` exceeds `u32::MAX` — an
/// unchecked cast would silently run a truncated fleet instead.
pub fn fleet_size(knob: &str, vehicles: u64) -> Result<u32, String> {
    u32::try_from(vehicles).map_err(|_| {
        format!(
            "{knob}: fleet size {vehicles} exceeds the largest campaign ({} vehicles)",
            u32::MAX
        )
    })
}

/// The process's peak resident-set size ("VmHWM" high-water mark) in KiB,
/// read from `/proc/self/status`. Returns `None` off Linux or when the
/// field is missing — callers report the value as unavailable rather than
/// failing the run. The mark only grows until [`reset_peak_rss`] lowers
/// it, so call that first for the peak of one section of a run.
pub fn peak_rss_kb() -> Option<u64> {
    status_kb("VmHWM:")
}

/// Resets the peak resident-set size to the current one by writing `5` to
/// `/proc/self/clear_refs`, and returns that current size ("VmRSS") in
/// KiB: a [`peak_rss_kb`] read afterwards is the peak since this call.
/// Best-effort like [`peak_rss_kb`]: `None` when the reset or the read
/// fails, in which case a later peak is the process's, not the section's.
pub fn reset_peak_rss() -> Option<u64> {
    std::fs::write("/proc/self/clear_refs", "5").ok()?;
    status_kb("VmRSS:")
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resolves where an experiment artifact (CSV/JSON) lands: inside
/// `$EEA_OUT_DIR` when the variable is set and non-empty (the directory is
/// created if missing), the current directory otherwise. Falls back to the
/// bare name when the directory cannot be created, so binaries keep
/// working in read-only-ish environments.
fn out_path(name: &str) -> PathBuf {
    match std::env::var("EEA_OUT_DIR") {
        Ok(dir) if !dir.is_empty() => {
            let dir = PathBuf::from(dir);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("EEA_OUT_DIR {}: {e}; writing to current dir", dir.display());
                return PathBuf::from(name);
            }
            dir.join(name)
        }
        _ => PathBuf::from(name),
    }
}

/// Writes the experiment artifact `name` into `$EEA_OUT_DIR` (created if
/// missing) or the current directory, and returns its path.
///
/// # Errors
///
/// The I/O error of the write, annotated with the path, so a binary that
/// propagates it exits non-zero instead of leaving a stale artifact.
pub fn write_artifact(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let path = out_path(name);
    std::fs::write(&path, contents)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok(path)
}

/// The paper's augmented case study: all 36 Table I profiles on all 15
/// ECUs.
///
/// # Errors
///
/// Propagates any [`EeaError`] from the augmentation (the paper case study
/// itself always augments cleanly).
pub fn paper_diag_spec() -> Result<(CaseStudy, DiagSpec), EeaError> {
    let case = paper_case_study();
    let diag = augment(&case, &paper_table1())?;
    Ok((case, diag))
}

/// Runs the case-study exploration with the standard experiment knobs.
/// The Eq. (5) shut-off objective prices its remote transfers through
/// `transport`, so fronts explored on different backends genuinely differ.
///
/// `threads = 0` means one worker per available CPU (overridable via
/// `EEA_THREADS`); the result is bit-identical at any thread count.
pub fn run_case_study_exploration(
    evaluations: usize,
    seed: u64,
    threads: usize,
    transport: TransportConfig,
) -> Result<(CaseStudy, DiagSpec, DseResult), EeaError> {
    let (case, diag) = paper_diag_spec()?;
    let cfg = DseConfig {
        nsga2: eea_moea::Nsga2Config {
            population: 100.min(evaluations.max(2)),
            evaluations,
            seed,
            ..eea_moea::Nsga2Config::default()
        },
        threads,
        transport,
    };
    let result = explore(&diag, &cfg, |evals, archive| {
        if evals % 2_000 < 100 {
            eprintln!("  {evals} evaluations, archive = {archive}");
        }
    });
    Ok((case, diag, result))
}

/// The hand-built blueprint trio of the fleet benches (the fleet the
/// determinism and frozen-report tests pin): one all-local fast
/// implementation, one gateway-streaming one, and one whose first session
/// never completes. `mixed` moves the sessions on ECUs 2 and 4 to the
/// SRAM family; `task_set` and `channel` are stamped on every blueprint.
pub fn trio(
    mixed: bool,
    task_set: Option<&TaskSetConfig>,
    channel: ChannelConfig,
) -> Vec<VehicleBlueprint> {
    let plan = |ecu: usize, transfer_s: f64, upload_bw: f64| EcuSessionPlan {
        ecu: ResourceId::from_index(ecu),
        profile_id: 1,
        coverage: 0.99,
        session_s: 0.005,
        transfer_s,
        local_storage: transfer_s == 0.0,
        upload_bandwidth_bytes_per_s: upload_bw,
        family: if mixed && (ecu == 2 || ecu == 4) {
            CutFamily::Sram
        } else {
            CutFamily::Logic
        },
    };
    let blueprint = |index: usize, sessions: Vec<EcuSessionPlan>, budget_s: f64| VehicleBlueprint {
        implementation_index: index,
        sessions,
        shutoff_budget_s: budget_s,
        transport: TransportKind::MirroredCan,
        channel,
        task_set: task_set.cloned(),
    };
    vec![
        blueprint(0, vec![plan(0, 0.0, 400.0), plan(1, 0.0, 150.0)], 900.0),
        blueprint(1, vec![plan(2, 1_500.0, 80.0)], 4_000.0),
        blueprint(
            2,
            vec![plan(3, f64::INFINITY, 0.0), plan(4, 300.0, 60.0)],
            2_000.0,
        ),
    ]
}

/// FNV-1a 64 over a value's complete `Debug` text: every f64 prints with
/// enough digits to round-trip, so digest equality is bit equality. Over
/// an [`eea_fleet::FleetReport`] it is the digest that
/// `tests/fleet_frozen_report.rs` freezes; over an explored front, the
/// front digest of `BENCH_dse.json`.
pub fn digest<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Bounds `(lo, hi)` of `[cost, −quality, shut-off s]`, as in the
/// `pipeline_bench` quality metric. Cost spans the functional optimum
/// (~404) and the dearest all-BIST design, shut-off the 86,400 s clamp.
const HV_BOUNDS: [(f64, f64); 3] = [(300.0, 900.0), (-1.0, 0.0), (0.0, 90_000.0)];

/// Reference point on every axis. It lies beyond 1 so a front with a
/// single quality value still spans a volume.
const HV_REFERENCE: f64 = 1.1;

/// Hypervolume of a front of minimised `[cost, −quality, shut-off s]`
/// vectors scaled to `[0, 1]` between cost 300–900, −quality −1–0 and
/// shut-off 0–90,000 s, against `(1.1, 1.1, 1.1)`: at most 1.331.
///
/// # Errors
///
/// A message naming the first point outside the bounds: clamping it
/// would silently flatten that axis.
pub fn normalized_hypervolume(front: &[Vec<f64>]) -> Result<f64, String> {
    let mut points = Vec::with_capacity(front.len());
    for p in front {
        let mut q = Vec::with_capacity(HV_BOUNDS.len());
        for (&x, &(lo, hi)) in p.iter().zip(&HV_BOUNDS) {
            if !(lo..=hi).contains(&x) {
                return Err(format!(
                    "point {p:?} lies outside the hypervolume bounds {HV_BOUNDS:?}"
                ));
            }
            q.push((x - lo) / (hi - lo));
        }
        points.push(q);
    }
    Ok(hypervolume(&points, &[HV_REFERENCE; 3]))
}

/// A JSON value for the committed bench records. The build is offline,
/// so there is no serde. Objects keep insertion order, so a regenerated
/// record diffs cleanly against the committed one.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An integer, printed exactly.
    Int(u64),
    /// A float in Rust's shortest round-trip form. NaN and the
    /// infinities have no JSON spelling and print as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The document indented by two spaces per level, ending in a
    /// newline. An array or object whose members are all scalars stays on
    /// one line, which keeps sweep points and counter blocks readable.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_json_str(out, s),
            Json::Arr(items) => {
                write_members(out, depth, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Json::Obj(pairs) => write_members(
                out,
                depth,
                ['{', '}'],
                pairs.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

fn write_members<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let inline = members
        .clone()
        .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * depth));
    };
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
            if inline {
                out.push(' ');
            }
        }
        if !inline {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            write_json_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !inline {
        newline(out, depth);
    }
    out.push(close);
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n.into())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        // Lossless: no supported target has a usize wider than 64 bits.
        Json::Int(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_parse() {
        std::env::remove_var("EEA_TEST_KNOB");
        assert_eq!(env_usize("EEA_TEST_KNOB", 7), 7);
        std::env::set_var("EEA_TEST_KNOB", "42");
        assert_eq!(env_usize("EEA_TEST_KNOB", 7), 42);
        assert_eq!(env_u64("EEA_TEST_KNOB", 7), 42);
        std::env::set_var("EEA_TEST_KNOB", "garbage");
        assert_eq!(env_usize("EEA_TEST_KNOB", 7), 7);
        std::env::remove_var("EEA_TEST_KNOB");
    }

    #[test]
    fn out_path_honors_env() {
        std::env::remove_var("EEA_OUT_DIR");
        assert_eq!(out_path("x.json"), PathBuf::from("x.json"));
        let dir = std::env::temp_dir().join("eea-out-test");
        std::env::set_var("EEA_OUT_DIR", &dir);
        assert_eq!(out_path("x.json"), dir.join("x.json"));
        assert!(dir.is_dir(), "out_path creates the directory");
        let written = write_artifact("x.json", "{}\n").expect("writable temp dir");
        assert_eq!(written, dir.join("x.json"));
        assert_eq!(
            std::fs::read_to_string(written).expect("just written"),
            "{}\n"
        );
        std::env::remove_var("EEA_OUT_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn transport_knob_parses() {
        std::env::remove_var("EEA_TRANSPORTS");
        assert_eq!(
            env_transports(&[TransportKind::MirroredCan]),
            vec![TransportKind::MirroredCan]
        );
        std::env::set_var("EEA_TRANSPORTS", "can-fd, flexray,can-fd,bogus");
        assert_eq!(
            env_transports(&[TransportKind::MirroredCan]),
            vec![TransportKind::CanFd, TransportKind::FlexRay]
        );
        std::env::set_var("EEA_TRANSPORTS", "bogus");
        assert_eq!(
            env_transports(&TransportKind::ALL),
            TransportKind::ALL.to_vec()
        );
        std::env::remove_var("EEA_TRANSPORTS");
    }

    #[test]
    fn scale_sweep_knob_parses() {
        std::env::remove_var("EEA_TEST_LIST");
        assert_eq!(env_u64_list("EEA_TEST_LIST", &[5, 6]), vec![5, 6]);
        std::env::set_var("EEA_TEST_LIST", "7, 8,bad");
        assert_eq!(env_u64_list("EEA_TEST_LIST", &[5, 6]), vec![7, 8]);
        std::env::set_var("EEA_TEST_LIST", "");
        assert_eq!(env_u64_list("EEA_TEST_LIST", &[5, 6]), Vec::<u64>::new());
        std::env::remove_var("EEA_TEST_LIST");
    }

    #[test]
    fn fleet_size_rejects_counts_beyond_u32() {
        assert_eq!(fleet_size("EEA_FLEET_VEHICLES", 100_000), Ok(100_000));
        assert_eq!(
            fleet_size("EEA_FLEET_VEHICLES", u64::from(u32::MAX)),
            Ok(u32::MAX)
        );
        // 5e9 wraps to 705,032,704 under an `as u32` cast.
        let err = fleet_size("EEA_FLEET_SCALE", 5_000_000_000).expect_err("exceeds u32");
        assert!(err.contains("EEA_FLEET_SCALE") && err.contains("5000000000"));
    }

    #[test]
    fn artifact_write_failure_is_an_error() {
        let err = write_artifact("eea-no-such-dir/x.json", "{}").expect_err("no such directory");
        assert!(err.to_string().contains("eea-no-such-dir"));
    }

    #[test]
    fn json_prints_exact_integers_escaped_strings_and_null_non_finites() {
        let doc = Json::obj([
            ("int", u64::MAX.into()),
            ("num", 0.1.into()),
            ("nan", f64::NAN.into()),
            ("inf", f64::NEG_INFINITY.into()),
            ("text", "a\"b\\c\n\u{1}".into()),
            ("none", Option::<u64>::None.into()),
            ("empty", Json::Arr(Vec::new())),
            (
                "points",
                Json::Arr(vec![Json::obj([
                    ("threads", 1usize.into()),
                    ("ok", true.into()),
                ])]),
            ),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"int\": 18446744073709551615,\n  \"num\": 0.1,\n  \"nan\": null,\n  \
\"inf\": null,\n  \"text\": \"a\\\"b\\\\c\\n\\u0001\",\n  \"none\": null,\n  \
\"empty\": [],\n  \"points\": [\n    {\"threads\": 1, \"ok\": true}\n  ]\n}\n"
        );
    }

    #[test]
    fn mixed_trio_moves_ecus_2_and_4_to_sram() {
        let sram_ecus = |bps: &[VehicleBlueprint]| -> Vec<usize> {
            bps.iter()
                .flat_map(|b| &b.sessions)
                .filter(|p| p.family == CutFamily::Sram)
                .map(|p| p.ecu.index())
                .collect()
        };
        assert_eq!(sram_ecus(&trio(true, None, ChannelConfig::Clean)), [2, 4]);
        assert!(sram_ecus(&trio(false, None, ChannelConfig::Clean)).is_empty());
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        // The helper is best-effort by contract, but on the Linux CI
        // machines it must produce a plausible nonzero figure.
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("VmHWM present on Linux");
            assert!(kb > 0);
        }
    }

    #[test]
    fn hypervolume_rejects_out_of_bounds_points() {
        let err = normalized_hypervolume(&[vec![400.0, -0.5, 10.0], vec![950.0, -0.5, 10.0]])
            .expect_err("cost 950 exceeds the bounds");
        assert!(err.contains("950.0"), "{err}");
        let corner = normalized_hypervolume(&[vec![300.0, -1.0, 0.0]]).expect("in bounds");
        assert!((corner - 1.331).abs() < 1e-9, "{corner}");
    }

    #[test]
    fn hypervolume_sees_cost() {
        // Explored fronts cost 404–484; these two differ only in cost.
        let cheap = normalized_hypervolume(&[vec![404.0, -0.98, 5.0]]).expect("in bounds");
        let dear = normalized_hypervolume(&[vec![484.0, -0.98, 5.0]]).expect("in bounds");
        assert!(cheap > dear, "{cheap} vs {dear}");
    }

    #[test]
    fn digest_is_fnv1a_of_the_debug_text() {
        // FNV-1a 64 of the one byte "7".
        assert_eq!(digest(&7u8), 0xAF63_AA4C_8601_9796);
        assert_eq!(digest(&[1.0f64, 2.0]), digest(&vec![1.0f64, 2.0]));
    }

    #[test]
    fn paper_spec_shape() {
        let (case, diag) = paper_diag_spec().expect("paper case study augments");
        assert_eq!(case.ecus().len(), 15);
        assert_eq!(diag.options.len(), 540);
    }

    #[test]
    fn tiny_exploration_runs() {
        let (_, _, res) = run_case_study_exploration(50, 1, 1, TransportConfig::MirroredCan)
            .expect("paper case study augments");
        assert_eq!(res.evaluations, 50);
        assert!(!res.front.is_empty());
    }
}
