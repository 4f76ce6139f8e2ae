//! Order statistics and the regression-bound comparison.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the benchmark driver computes
//! over the values this program prints; spreads derived here are therefore
//! directly comparable with the driver's.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice, so a metric without samples never reads as 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` by the exclusive method: the i-th cut point sits at
/// position `i·(m+1)/4` (1-based) of the sorted data, linearly interpolated
/// and clamped to the data's range. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let m = v.len();
    match m {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Linear-interpolated percentile `p` in `[0, 100]` of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it; `None` below 100 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per-mille, so the count beyond each cut is exact integer arithmetic.
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Share of `base` by which `new` is worse (positive) or better (negative).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Summary of one metric's samples, as printed by `--all`.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// `(p, value)` of the highest percentile the sample count supports.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, median, q3) = quartiles(values);
    Summary {
        n: values.len(),
        q1,
        median,
        q3,
        tail: highest_supported_percentile(values.len()).map(|p| (p, percentile(values, p))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 90.0), 46.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        let within = |better, base, new, bound| worse_by(better, base, new) <= bound;
        // Lower is better: 10% slower is within a 10% bound, 11% is not.
        assert!(within(Better::Lower, 100.0, 110.0, 0.10));
        assert!(!within(Better::Lower, 100.0, 111.0, 0.10));
        assert!(within(Better::Lower, 100.0, 50.0, 0.10));
        // Higher is better: the same numbers flip.
        assert!(within(Better::Higher, 100.0, 90.0, 0.10));
        assert!(!within(Better::Higher, 100.0, 89.0, 0.10));
        assert!(within(Better::Higher, 100.0, 150.0, 0.10));
        assert!((worse_by(Better::Higher, 200.0, 150.0) - 0.25).abs() < 1e-12);
    }
}
