//! Order statistics and means over measured samples.

/// Median; the mean of the two middle values when the count is even.
/// Panics on an empty slice (every caller measures at least one op).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it (`pct` in `(0, 100]`).
pub fn percentile_nearest_rank(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; 0 for no samples (a layer the workload never ran).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// [`median`], or 0 for no samples (a layer the workload never ran).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the exclusive quartile method Python's
/// `statistics.quantiles(values, n=4)` uses — the spread the benchmark
/// contract bounds. Needs at least two samples.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "spread needs two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quantile(3) - quantile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_two_middles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentile_picks_an_actual_sample() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&ten, 90.0), 9.0);
        assert_eq!(percentile_nearest_rank(&ten, 91.0), 10.0);
        assert_eq!(percentile_nearest_rank(&ten, 50.0), 5.0);
        assert_eq!(percentile_nearest_rank(&ten, 100.0), 10.0);
        // Two ops (compile-admm's shape in quick mode): p90 is the slower.
        assert_eq!(percentile_nearest_rank(&[5.0, 2.0], 90.0), 5.0);
        assert_eq!(percentile_nearest_rank(&[5.0], 1.0), 5.0);
    }

    #[test]
    fn geomean_is_the_exponential_of_the_mean_log() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_layers_read_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
