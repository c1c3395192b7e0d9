//! Summary statistics of timing samples.

/// Percentiles a tail is reported at, lowest first.
const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median, quartiles and the highest percentile of [`TAIL_LADDER`] with at
/// least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`; `None` when fewer than 20 samples exist.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order). `None` for an empty set or one
    /// holding a NaN.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|x| x.is_nan()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAIL_LADDER
            .iter()
            .rev()
            .find(|&&p| beyond(n, p) >= TAIL_MIN_BEYOND)
            .map(|&p| (p, percentile_sorted(&sorted, p)));
        Some(Summary {
            n,
            median: percentile_sorted(&sorted, 50.0),
            q1: percentile_sorted(&sorted, 25.0),
            q3: percentile_sorted(&sorted, 75.0),
            tail,
        })
    }
}

/// Samples strictly beyond percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    // n·(100 − p)/100 rounded down, computed in hundredths of a percent so
    // 99.99 stays exact.
    let hundredths = (10_000.0 - p * 100.0).round() as usize;
    n * hundredths / 10_000
}

/// Percentile `p` (0–100) of ascending `sorted`, interpolating linearly
/// between the two closest ranks. Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Percentile `p` of unsorted samples; `0.0` for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order: the summary must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        for n in [9, 10] {
            let s = Summary::of(&ramp(n)).unwrap();
            assert_eq!(s.n, n);
            assert_eq!(s.median, (n as f64 + 1.0) / 2.0);
            assert_eq!(s.tail, None, "n = {n}");
        }
        let s = Summary::of(&ramp(9)).unwrap();
        assert_eq!((s.q1, s.q3), (3.0, 7.0));
    }

    #[test]
    fn eleven_samples() {
        let s = Summary::of(&ramp(11)).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (6.0, 3.5, 8.5));
        assert_eq!(s.tail, None);
    }

    #[test]
    fn hundred_samples_report_p90() {
        let s = Summary::of(&ramp(100)).unwrap();
        assert_eq!(s.median, 50.5);
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 90.0);
        assert!((v - 90.1).abs() < 1e-9);
        assert_eq!(ramp(100).iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn twenty_thousand_samples_report_p99_9() {
        let s = Summary::of(&ramp(20_000)).unwrap();
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 99.9);
        assert!(ramp(20_000).iter().filter(|&&x| x > v).count() >= TAIL_MIN_BEYOND);
        assert_eq!(s.median, 10_000.5);
    }

    #[test]
    fn boundaries_of_the_ladder() {
        assert_eq!(Summary::of(&ramp(20)).unwrap().tail.unwrap().0, 50.0);
        assert_eq!(Summary::of(&ramp(39)).unwrap().tail.unwrap().0, 50.0);
        assert_eq!(Summary::of(&ramp(40)).unwrap().tail.unwrap().0, 75.0);
        assert_eq!(Summary::of(&ramp(1_000)).unwrap().tail.unwrap().0, 99.0);
        assert_eq!(Summary::of(&ramp(100_000)).unwrap().tail.unwrap().0, 99.99);
    }

    #[test]
    fn empty_or_nan_has_no_summary() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
