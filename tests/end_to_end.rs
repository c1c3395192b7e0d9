//! End-to-end exploration tests on the paper's case study.

use eea_bist::paper_table1;
use eea_dse::explore::baseline_cost;
use eea_dse::{
    augment, explore, fig5_points, fig6_rows, headline, DseConfig, SHUTOFF_MARKER_SPLIT_S,
};
use eea_model::paper_case_study;
use eea_moea::Nsga2Config;

fn run_exploration(profiles: usize, evaluations: usize, seed: u64) -> eea_dse::DseResult {
    let case = paper_case_study();
    let diag = augment(&case, &paper_table1()[..profiles]).expect("gateway present");
    let cfg = DseConfig {
        nsga2: Nsga2Config {
            population: 30,
            evaluations,
            seed,
            ..Nsga2Config::default()
        },
        threads: 1,
        ..DseConfig::default()
    };
    explore(&diag, &cfg, |_, _| {})
}

#[test]
fn front_reproduces_papers_tradeoff_structure() {
    let res = run_exploration(8, 5_000, 42);
    assert!(res.front.len() >= 10, "front = {}", res.front.len());
    assert_eq!(res.infeasible, 0);

    let points = fig5_points(&res.front);
    // Fig. 5 structure: both marker classes exist — some implementations
    // finish their sessions quickly (local storage), others trade memory
    // cost for long transfers (> 20 s, gateway storage).
    let fast = points.iter().filter(|p| p.fast_shutoff).count();
    let slow = points.len() - fast;
    assert!(fast > 0, "no fast-shutoff implementations found");
    assert!(slow > 0, "no slow-shutoff implementations found");

    // The high-quality cheap implementations are the slow ones (the paper:
    // "these are the implementations which have a high fault coverage with
    // only a minor increase in monetary costs, as their deterministic test
    // patterns are stored centrally at the gateway").
    let best_cheap_slow = points
        .iter()
        .filter(|p| !p.fast_shutoff)
        .map(|p| (p.cost, p.quality_pct))
        .fold(
            (f64::INFINITY, 0.0),
            |(c, q), (pc, pq)| {
                if pc < c {
                    (pc, pq)
                } else {
                    (c, q)
                }
            },
        );
    let best_cheap_fast = points
        .iter()
        .filter(|p| p.fast_shutoff && p.quality_pct > 0.0)
        .map(|p| p.cost)
        .fold(f64::INFINITY, f64::min);
    if best_cheap_fast.is_finite() {
        assert!(
            best_cheap_slow.0 <= best_cheap_fast,
            "gateway storage should reach quality cheaper ({} vs {})",
            best_cheap_slow.0,
            best_cheap_fast
        );
    }
}

#[test]
fn headline_quality_within_small_budget() {
    let res = run_exploration(8, 1_500, 7);
    let case = paper_case_study();
    let base = baseline_cost(&case, 800, 3, 1).expect("gateway present");
    let hl = headline(&res.front, Some(base)).expect("headline computable");
    // The paper reports 80.7 % quality within +3.7 % cost; our substrate's
    // exact number differs, but high quality at single-digit extra cost is
    // the reproduced claim.
    assert!(
        hl.best_quality_pct_in_budget > 50.0,
        "only {:.1} % within budget",
        hl.best_quality_pct_in_budget
    );
    assert!(hl.extra_cost_pct <= 3.7 + 1e-9);
}

#[test]
fn fig6_memory_split_tradeoff() {
    let res = run_exploration(8, 1_500, 42);
    let rows = fig6_rows(&res.front, 7);
    assert!(!rows.is_empty());
    // Shut-off correlates with the gateway share: the row with the largest
    // gateway fraction must have a longer shut-off than the row with the
    // largest local fraction.
    let most_gateway = rows
        .iter()
        .max_by_key(|r| r.gateway_bytes)
        .expect("nonempty");
    let most_local = rows
        .iter()
        .max_by_key(|r| r.distributed_bytes)
        .expect("nonempty");
    if most_gateway.gateway_bytes > 0 && most_local.distributed_bytes > most_local.gateway_bytes {
        assert!(
            most_gateway.shutoff_s >= most_local.shutoff_s
                || most_local.shutoff_s < SHUTOFF_MARKER_SPLIT_S,
            "gateway-heavy row should be slower: {:?} vs {:?}",
            most_gateway,
            most_local
        );
    }
}

#[test]
fn exploration_is_deterministic() {
    let a = run_exploration(4, 400, 99);
    let b = run_exploration(4, 400, 99);
    assert_eq!(a.front.len(), b.front.len());
    for (x, y) in a.front.iter().zip(&b.front) {
        assert_eq!(x.objectives.to_minimized(), y.objectives.to_minimized());
    }
}

#[test]
fn larger_budget_does_not_shrink_quality_range() {
    let small = run_exploration(4, 300, 5);
    let large = run_exploration(4, 1_200, 5);
    let best = |r: &eea_dse::DseResult| {
        r.front
            .iter()
            .map(|e| e.objectives.test_quality)
            .fold(0.0, f64::max)
    };
    assert!(best(&large) >= best(&small) - 0.02);
}
