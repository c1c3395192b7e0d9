//! Command-line entry point of the pipeline benchmark; see the library docs.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric as `name value unit (n samples)`, then the result
//! object as the last line of standard output. A traced run also writes
//! its spans to `.bench_traces/<workload>-<seed>.json`. Exit codes: 0 for
//! a correct run, 1 when an output check failed, 2 when no result could
//! be produced.

use std::process::ExitCode;

use eea_pipeline_bench::json::Value;
use eea_pipeline_bench::{run, RunSpec, Size};

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, RunSpec), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut spec = RunSpec {
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => spec.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                spec.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(spec.seconds.is_finite() && spec.seconds >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, spec))
}

fn main() -> ExitCode {
    let (workload, spec) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&workload, &spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{workload} seed {} ({} run, machine_cores {cores})",
        spec.seed,
        if spec.trace { "traced" } else { "untraced" }
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for m in &outcome.metrics {
        println!(
            "  {:<36} {:>16.6} {:<6} (n {})",
            m.name, m.value, m.unit, m.n
        );
    }
    for c in &outcome.checks {
        println!(
            "  check {:<34} {} — {}",
            c.name,
            if c.passed { "ok" } else { "FAILED" },
            c.detail
        );
    }
    if spec.trace {
        let path =
            std::path::Path::new(".bench_traces").join(format!("{workload}-{}.json", spec.seed));
        let doc = outcome.tracer.to_json(vec![
            ("workload", Value::from(workload.as_str())),
            ("seed", Value::from(spec.seed)),
        ]);
        let written = doc.pretty().map_err(|e| e.to_string()).and_then(|text| {
            std::fs::create_dir_all(".bench_traces").map_err(|e| e.to_string())?;
            std::fs::write(&path, text).map_err(|e| e.to_string())
        });
        match written {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    match outcome.result_json().to_compact() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("result not representable: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
