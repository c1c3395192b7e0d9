//! Property tests: every decoded implementation satisfies the paper's
//! constraint families (2a)–(2h) and (3a)–(3b), for arbitrary genotypes.

use eea_bist::paper_table1;
use eea_dse::{augment, DiagSpec, DseProblem};
use eea_model::{paper_case_study, Implementation, ResourceKind};
use proptest::prelude::*;

fn quick_diag() -> DiagSpec {
    let case = paper_case_study();
    augment(&case, &paper_table1()[..3]).expect("gateway present")
}

/// Checks the paper's constraint families directly on a decoded
/// implementation (independent re-implementation of the semantics, not of
/// the encoding).
fn check_constraints(diag: &DiagSpec, x: &Implementation) {
    let spec = &diag.spec;
    let app = &spec.application;

    // Functional tasks bound exactly once; diagnostic at most once (2a).
    for t in app.task_ids() {
        let bound = x.binding_of(t).is_some();
        if app.task(t).kind.is_diagnostic() {
            // at most once is implied by the map structure; nothing to do
        } else {
            assert!(bound, "functional task {t} unbound");
        }
        if let Some(r) = x.binding_of(t) {
            assert!(
                spec.mapping_options(t).contains(&r),
                "illegal binding of {t}"
            );
        }
    }

    // (3a) at most one profile per ECU; (3b) data task iff test task.
    for ecu in diag.bist_ecus() {
        let selected = diag
            .options_of(ecu)
            .filter(|o| x.binding_of(o.test).is_some())
            .count();
        assert!(selected <= 1, "(3a) violated on {ecu}");
    }
    for o in &diag.options {
        assert_eq!(
            x.binding_of(o.test).is_some(),
            x.binding_of(o.data).is_some(),
            "(3b) violated"
        );
    }

    // (2h) no diagnosis-only resources.
    for o in &diag.options {
        for task in [o.test, o.data] {
            if let Some(r) = x.binding_of(task) {
                assert!(
                    x.tasks_on(r).any(|t| !app.task(t).kind.is_diagnostic()),
                    "(2h) violated: {r} hosts only diagnosis"
                );
            }
        }
    }

    // (2b)-(2g) summarised: structural route validation (connected route
    // containing sender and bound receivers) plus cycle-freedom.
    spec.validate_implementation(x)
        .expect("valid implementation");
    for route in x.routing.values() {
        let unique: std::collections::BTreeSet<_> = route.iter().collect();
        assert_eq!(unique.len(), route.len(), "(2d) violated: cycle in route");
    }

    // Messages of unbound (diagnostic) senders have no route.
    for m in app.message_ids() {
        let sender = app.message(m).sender;
        if x.binding_of(sender).is_none() {
            assert!(
                !x.routing.contains_key(&m),
                "route exists for inactive message {m}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary genotypes decode to implementations satisfying every
    /// constraint family.
    #[test]
    fn decoded_solutions_satisfy_all_constraints(seed in any::<u64>()) {
        let diag = quick_diag();
        let mut problem = DseProblem::new(&diag);
        let n = eea_moea::Problem::genotype_len(&problem);
        // Deterministic pseudo-random genotype from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let genotype: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = problem.decode(&genotype).expect("feasible decode");
        check_constraints(&diag, &x);
    }
}

/// The all-zero and all-one genotypes are valid corner cases.
#[test]
fn corner_genotypes_decode() {
    let diag = quick_diag();
    let mut problem = DseProblem::new(&diag);
    let n = eea_moea::Problem::genotype_len(&problem);
    for fill in [0.0, 1.0, 0.5] {
        let genotype = vec![fill; n];
        let x = problem.decode(&genotype).expect("feasible decode");
        check_constraints(&diag, &x);
    }
}

/// The gateway always hosts the mandatory collection task, so it is always
/// allocated — the precondition for gateway-stored test data.
#[test]
fn gateway_always_allocated() {
    let diag = quick_diag();
    let mut problem = DseProblem::new(&diag);
    let n = eea_moea::Problem::genotype_len(&problem);
    let x = problem.decode(&vec![0.25; n]).expect("feasible");
    assert_eq!(x.binding_of(diag.collect), Some(diag.gateway));
    assert!(x.allocation.contains(&diag.gateway));
    assert_eq!(
        diag.spec.architecture.resource(diag.gateway).kind,
        ResourceKind::Gateway
    );
}

/// Polarity genes steer BIST selection: all-true polarities select
/// strictly more sessions than all-false polarities.
#[test]
fn polarity_steers_bist_selection() {
    let diag = quick_diag();
    let mut problem = DseProblem::new(&diag);
    let n = eea_moea::Problem::genotype_len(&problem) / 2;

    let mut all_false = vec![0.9; 2 * n];
    for g in all_false.iter_mut().skip(n) {
        *g = 0.0;
    }
    let x0 = problem.decode(&all_false).expect("feasible");
    let selected0 = diag
        .options
        .iter()
        .filter(|o| x0.binding_of(o.test).is_some())
        .count();

    let mut all_true = vec![0.9; 2 * n];
    for g in all_true.iter_mut().skip(n) {
        *g = 1.0;
    }
    let x1 = problem.decode(&all_true).expect("feasible");
    let selected1 = diag
        .options
        .iter()
        .filter(|o| x1.binding_of(o.test).is_some())
        .count();

    assert_eq!(selected0, 0, "negative polarity selects no BIST");
    assert_eq!(
        selected1,
        diag.bist_ecus().len(),
        "positive polarity selects one session per ECU"
    );
}
