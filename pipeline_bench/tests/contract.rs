//! Contract between the benchmark and `BENCHMARK.json`: every workload,
//! run at its tiny size through the library entry point, emits exactly
//! the metrics the file declares, finite and in the declared unit, and
//! passes its output checks.

use eea_pipeline_bench::json::{parse, Value};
use eea_pipeline_bench::{run, RunSpec, Size, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a metric list.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{key}: {f}"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn check_workload(workload: &str) {
    let doc = benchmark_json();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let spec = RunSpec {
            seed: 7,
            seconds: 0.0,
            trace,
            size: Size::Tiny,
        };
        let outcome = run(workload, &spec).unwrap_or_else(|e| panic!("{workload}: {e}"));
        for c in &outcome.checks {
            assert!(
                c.passed,
                "{workload} (trace {trace}): check {} failed: {}",
                c.name, c.detail
            );
        }
        assert!(outcome.attempted >= 1);
        let emitted: Vec<(String, String)> = outcome
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                (m.name.to_string(), m.unit.to_string())
            })
            .collect();
        assert_eq!(
            emitted,
            declared(&doc, key),
            "{workload} (trace {trace}) vs {key}"
        );
        // The result line round-trips through the reader.
        let line = outcome.result_json().to_compact().expect("finite metrics");
        let back = parse(&line).expect("result line parses");
        for k in ["correct", "attempted", "failed", "metrics"] {
            assert!(back.get(k).is_some(), "result lacks {k}");
        }
    }
}

#[test]
fn declares_the_five_workloads() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
    let setup = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .and_then(|ms| {
            ms.iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        })
        .expect("setup_s declared");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
}

#[test]
fn dse_paper_emits_declared_metrics() {
    check_workload("dse_paper");
}

#[test]
fn dse_functional_emits_declared_metrics() {
    check_workload("dse_functional");
}

#[test]
fn fleet_clean_emits_declared_metrics() {
    check_workload("fleet_clean");
}

#[test]
fn fleet_sched_noisy_emits_declared_metrics() {
    check_workload("fleet_sched_noisy");
}

#[test]
fn gateway_stream_emits_declared_metrics() {
    check_workload("gateway_stream");
}
