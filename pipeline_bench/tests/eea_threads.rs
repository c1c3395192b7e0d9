//! A set `EEA_THREADS` would override every pinned thread count, so the
//! benchmark refuses to run. Its own test binary: the variable is
//! process-wide.

use eea_pipeline_bench::{run, BenchError, RunSpec, Size};

#[test]
fn set_eea_threads_aborts_the_run() {
    std::env::set_var("EEA_THREADS", "1");
    let spec = RunSpec {
        seed: 1,
        seconds: 0.0,
        trace: false,
        size: Size::Tiny,
    };
    let err = run("dse_functional", &spec).expect_err("EEA_THREADS must abort the run");
    assert!(matches!(err, BenchError::Config(_)), "{err}");
    std::env::remove_var("EEA_THREADS");
    assert!(run("no_such_workload", &spec).is_err());
}
