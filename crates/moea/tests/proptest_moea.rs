//! Property tests of the MOEA primitives: non-dominated sorting, crowding
//! distance, archive invariants and hypervolume monotonicity.

use eea_moea::{
    additive_epsilon, crowding_distances, dominates, hypervolume, non_dominated_ranks,
    ParetoArchive,
};
use proptest::prelude::*;

fn objective_vectors(n: usize, m: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..10.0, m..=m), 1..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rank 0 is exactly the non-dominated set, and ranks respect
    /// dominance (a dominating point never has a larger rank).
    #[test]
    fn ranks_characterise_dominance(objs in objective_vectors(24, 3)) {
        let ranks = non_dominated_ranks(&objs);
        for (i, a) in objs.iter().enumerate() {
            let dominated = objs.iter().any(|b| dominates(b, a));
            prop_assert_eq!(ranks[i] == 0, !dominated);
            for (j, b) in objs.iter().enumerate() {
                if dominates(a, b) {
                    prop_assert!(ranks[i] < ranks[j]);
                }
            }
        }
    }

    /// Crowding distances within a front: extreme points are infinite and
    /// all distances are non-negative.
    #[test]
    fn crowding_properties(objs in objective_vectors(16, 2)) {
        let ranks = non_dominated_ranks(&objs);
        let d = crowding_distances(&objs, &ranks);
        prop_assert!(d.iter().all(|&x| x >= 0.0));
        // In each front of size >= 3, at least two infinite entries
        // (the per-objective extremes).
        let max_rank = ranks.iter().copied().max().unwrap_or(0);
        for r in 0..=max_rank {
            let front: Vec<usize> = (0..objs.len()).filter(|&i| ranks[i] == r).collect();
            if front.len() >= 3 {
                let inf = front.iter().filter(|&&i| d[i].is_infinite()).count();
                prop_assert!(inf >= 2, "front {r} has {inf} infinite distances");
            }
        }
    }

    /// The archive accepts a vector iff it is not dominated by (nor equal
    /// to) the current content, and stays mutually non-dominated.
    #[test]
    fn archive_invariants(objs in objective_vectors(40, 3)) {
        let mut archive = ParetoArchive::new();
        for (k, o) in objs.iter().enumerate() {
            let dominated_or_dup = archive
                .entries()
                .iter()
                .any(|e| dominates(&e.objectives, o) || e.objectives == *o);
            let admitted = archive.offer(o.clone(), k);
            prop_assert_eq!(admitted, !dominated_or_dup);
        }
        for a in archive.entries() {
            for b in archive.entries() {
                prop_assert!(!dominates(&a.objectives, &b.objectives)
                    || std::ptr::eq(a, b));
            }
        }
    }

    /// Hypervolume grows (weakly) when a point is added and is invariant
    /// under adding dominated points.
    #[test]
    fn hypervolume_monotone(objs in objective_vectors(8, 2)) {
        let reference = vec![11.0, 11.0];
        let mut front: Vec<Vec<f64>> = Vec::new();
        let mut last = 0.0;
        for o in objs {
            front.push(o);
            let hv = hypervolume(&front, &reference);
            prop_assert!(hv >= last - 1e-9, "hv shrank: {hv} < {last}");
            last = hv;
        }
        // Adding a clearly dominated point changes nothing.
        front.push(vec![10.99, 10.99]);
        let hv = hypervolume(&front, &reference);
        prop_assert!((hv - last).abs() < 1e-9);
    }

    /// The additive epsilon indicator of a front against itself is zero,
    /// and against a translated copy equals the translation.
    #[test]
    fn epsilon_translation(objs in objective_vectors(6, 3), shift in 0.0f64..2.0) {
        prop_assert!(additive_epsilon(&objs, &objs).abs() < 1e-12);
        let shifted: Vec<Vec<f64>> = objs
            .iter()
            .map(|o| o.iter().map(|&v| v + shift).collect())
            .collect();
        let eps = additive_epsilon(&shifted, &objs);
        prop_assert!((eps - shift).abs() < 1e-9);
    }
}
