//! The parallel evaluation engine must be a pure performance knob: for a
//! fixed seed, an exploration at any thread count is byte-identical to the
//! single-threaded run — same front, same evaluation count, same
//! convergence trace. The lane scheme (see `eea_dse::EVAL_LANES`) is what
//! makes this hold despite per-solver learned-clause state.

use eea_bist::paper_table1;
use eea_dse::{augment, explore, DseConfig, DseResult};
use eea_model::paper_case_study;
use eea_moea::Nsga2Config;

fn run(threads: usize) -> DseResult {
    let case = paper_case_study();
    let diag = augment(&case, &paper_table1()[..4]).expect("gateway present");
    let cfg = DseConfig {
        nsga2: Nsga2Config {
            population: 24,
            evaluations: 600,
            seed: 0xD47E,
            ..Nsga2Config::default()
        },
        threads,
        ..DseConfig::default()
    };
    explore(&diag, &cfg, |_, _| {})
}

// A single test function: the `EEA_THREADS` check mutates process-global
// environment, so it must not run concurrently with the sweep.
#[test]
fn explore_is_bit_identical_at_any_thread_count() {
    std::env::remove_var("EEA_THREADS");
    let serial = run(1);
    for threads in [2, 4, 7] {
        let parallel = run(threads);
        assert_eq!(parallel.threads, threads);
        assert_eq!(
            parallel.evaluations, serial.evaluations,
            "threads {threads}"
        );
        assert_eq!(parallel.infeasible, serial.infeasible, "threads {threads}");
        assert_eq!(
            parallel.convergence, serial.convergence,
            "convergence trace diverged at threads {threads}"
        );
        assert_eq!(
            parallel.front.len(),
            serial.front.len(),
            "front size diverged at threads {threads}"
        );
        for (i, (p, s)) in parallel.front.iter().zip(&serial.front).enumerate() {
            assert_eq!(
                p.objectives, s.objectives,
                "objectives of front[{i}] diverged at threads {threads}"
            );
            assert_eq!(
                p.memory, s.memory,
                "memory summary of front[{i}] diverged at threads {threads}"
            );
            assert_eq!(
                p.implementation, s.implementation,
                "decoded implementation of front[{i}] diverged at threads {threads}"
            );
        }
    }

    // `EEA_THREADS` takes precedence over `DseConfig::threads`; the result
    // must still be identical (the knob only moves wall-clock time).
    std::env::set_var("EEA_THREADS", "3");
    let overridden = run(1);
    std::env::remove_var("EEA_THREADS");
    assert_eq!(overridden.threads, 3);
    assert_eq!(overridden.evaluations, serial.evaluations);
    assert_eq!(overridden.convergence, serial.convergence);
    assert_eq!(overridden.front.len(), serial.front.len());
    for (p, s) in overridden.front.iter().zip(&serial.front) {
        assert_eq!(p.objectives, s.objectives);
    }
}
