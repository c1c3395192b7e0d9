//! Quality indicators for Pareto front approximations.

use crate::dominance::dominates;

/// Hypervolume (minimisation) of `front` with respect to `reference`
/// (which must be dominated by every front point). Computed by the WFG-style
/// recursive slicing algorithm — exact for any dimension, efficient for the
/// small fronts (≤ a few hundred points) of this workspace.
///
/// # Panics
///
/// Panics if dimensions mismatch or a point does not dominate the
/// reference.
pub fn hypervolume(front: &[Vec<f64>], reference: &[f64]) -> f64 {
    if front.is_empty() {
        return 0.0;
    }
    let m = reference.len();
    for p in front {
        assert_eq!(p.len(), m, "dimension mismatch");
        assert!(
            p.iter().zip(reference).all(|(&x, &r)| x <= r),
            "front point must weakly dominate the reference"
        );
    }
    // Keep only the non-dominated subset (duplicates removed).
    let mut points: Vec<Vec<f64>> = Vec::new();
    for p in front {
        if points.iter().any(|q| dominates(q, p) || q == p) {
            continue;
        }
        points.retain(|q| !dominates(p, q));
        points.push(p.clone());
    }
    hv_recursive(&mut points, reference)
}

fn hv_recursive(points: &mut [Vec<f64>], reference: &[f64]) -> f64 {
    let m = reference.len();
    if points.is_empty() {
        return 0.0;
    }
    if m == 1 {
        let best = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
        return reference[0] - best;
    }
    // Slice along the last objective.
    points.sort_by(|a, b| a[m - 1].total_cmp(&b[m - 1]));
    let mut volume = 0.0;
    let mut i = 0;
    while i < points.len() {
        let z = points[i][m - 1];
        let next_z = if i + 1 < points.len() {
            points[i + 1][m - 1]
        } else {
            reference[m - 1]
        };
        let depth = next_z - z;
        if depth > 0.0 {
            // Project all points with last coordinate <= z.
            let mut projected: Vec<Vec<f64>> =
                points[..=i].iter().map(|p| p[..m - 1].to_vec()).collect();
            // Filter dominated projections.
            let mut kept: Vec<Vec<f64>> = Vec::new();
            for p in projected.drain(..) {
                if kept.iter().any(|q| dominates(q, &p) || *q == p) {
                    continue;
                }
                kept.retain(|q| !dominates(&p, q));
                kept.push(p);
            }
            volume += depth * hv_recursive(&mut kept, &reference[..m - 1]);
        }
        i += 1;
    }
    volume
}

/// Additive epsilon indicator: the smallest `eps` such that every point of
/// `reference_front` is weakly dominated by some point of `front` shifted
/// by `eps` (smaller is better; 0 means `front` covers the reference).
pub fn additive_epsilon(front: &[Vec<f64>], reference_front: &[Vec<f64>]) -> f64 {
    let mut eps = f64::NEG_INFINITY;
    for r in reference_front {
        let mut best = f64::INFINITY;
        for p in front {
            let worst_gap = p
                .iter()
                .zip(r)
                .map(|(&a, &b)| a - b)
                .fold(f64::NEG_INFINITY, f64::max);
            best = best.min(worst_gap);
        }
        eps = eps.max(best);
    }
    eps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hv_single_point_2d() {
        let front = vec![vec![1.0, 1.0]];
        assert!((hypervolume(&front, &[3.0, 3.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hv_two_points_2d() {
        let front = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        // Union of [1,3]x[2,3] and [2,3]x[1,3]: 2 + 2 - 1 = 3.
        assert!((hypervolume(&front, &[3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hv_3d_box_union() {
        let front = vec![vec![0.0, 0.0, 0.0]];
        assert!((hypervolume(&front, &[1.0, 2.0, 3.0]) - 6.0).abs() < 1e-12);
        let front2 = vec![vec![0.0, 0.0, 1.0], vec![0.5, 0.5, 0.0]];
        // box1: 1*1*(2-1)=... reference [1,1,2]:
        // p1 box: [0,1]x[0,1]x[1,2] vol 1; p2 box: [0.5,1]x[0.5,1]x[0,2]
        // vol 0.5*0.5*2 = 0.5; overlap: [0.5,1]x[0.5,1]x[1,2] = 0.25.
        let hv = hypervolume(&front2, &[1.0, 1.0, 2.0]);
        assert!((hv - 1.25).abs() < 1e-12, "hv = {hv}");
    }

    #[test]
    fn hv_dominated_point_ignored() {
        let a = hypervolume(&[vec![1.0, 1.0]], &[3.0, 3.0]);
        let b = hypervolume(&[vec![1.0, 1.0], vec![2.0, 2.0]], &[3.0, 3.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn hv_monotone_in_front_quality() {
        let worse = hypervolume(&[vec![2.0, 2.0]], &[4.0, 4.0]);
        let better = hypervolume(&[vec![1.0, 1.0]], &[4.0, 4.0]);
        assert!(better > worse);
    }

    #[test]
    #[should_panic(expected = "weakly dominate")]
    fn hv_rejects_bad_reference() {
        hypervolume(&[vec![5.0, 1.0]], &[3.0, 3.0]);
    }

    #[test]
    fn epsilon_zero_for_self() {
        let front = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        assert!(additive_epsilon(&front, &front).abs() < 1e-12);
    }

    #[test]
    fn epsilon_positive_for_worse_front() {
        let reference = vec![vec![0.0, 0.0]];
        let front = vec![vec![1.0, 0.5]];
        assert!((additive_epsilon(&front, &reference) - 1.0).abs() < 1e-12);
    }
}
