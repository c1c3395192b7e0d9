//! Pareto dominance for minimisation problems.

/// Whether objective vector `a` Pareto-dominates `b` (all objectives are
/// minimised): `a` is no worse everywhere and strictly better somewhere.
///
/// # Panics
///
/// Panics (in debug builds) if the vectors differ in length.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "objective dimension mismatch");
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Pairwise dominance relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// First vector dominates.
    Dominates,
    /// Second vector dominates.
    DominatedBy,
    /// Mutually non-dominated (or equal).
    Incomparable,
}

/// Classifies the dominance relation between `a` and `b`.
pub fn relation(a: &[f64], b: &[f64]) -> Relation {
    if dominates(a, b) {
        Relation::Dominates
    } else if dominates(b, a) {
        Relation::DominatedBy
    } else {
        Relation::Incomparable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_dominance() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]), "equal is not strict");
    }

    #[test]
    fn relations() {
        assert_eq!(relation(&[0.0], &[1.0]), Relation::Dominates);
        assert_eq!(relation(&[1.0], &[0.0]), Relation::DominatedBy);
        assert_eq!(relation(&[0.0, 1.0], &[1.0, 0.0]), Relation::Incomparable);
        assert_eq!(relation(&[1.0], &[1.0]), Relation::Incomparable);
    }
}
