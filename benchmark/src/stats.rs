//! Order statistics over timing samples.
//!
//! Everything is nearest-rank: the reported value is always one of the
//! samples, so a median of whole nanoseconds stays a whole nanosecond and
//! two runs over the same samples agree exactly.

/// Nearest-rank quantile `q` in `(0, 1]` of `samples` (need not be
/// sorted). Returns `None` for an empty slice.
pub fn quantile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Nearest-rank median (the lower middle sample for even counts).
pub fn median(samples: &[u64]) -> Option<u64> {
    quantile(samples, 0.5)
}

/// Median of float values (used for the medians-of-medians in `--sets`).
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[(sorted.len() - 1) / 2])
}

/// Largest pairwise relative difference `(max - min) / min` of positive
/// values — the "how far apart can two same-code sets read" figure the
/// bounds in `BENCHMARK.json` are derived from.
pub fn worst_pairwise_diff(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.len() < 2 || lo <= 0.0 {
        return 0.0;
    }
    (hi - lo) / lo
}

/// `(Q3 - Q1) / median` with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method) —
/// the spread the driver accepts a benchmark on. `None` under four values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / quartile(2))
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_nearest_rank_on_known_vectors() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7]), Some(7));
        assert_eq!(median(&[3, 1]), Some(1), "even count: lower middle");
        assert_eq!(median(&[5, 1, 3]), Some(3));
        assert_eq!(median(&[4, 1, 3, 2]), Some(2));
        assert_eq!(median(&[9, 9, 1, 1, 5]), Some(5));
        // One wild outlier does not move it.
        assert_eq!(median(&[10, 11, 12, 13, 1_000_000]), Some(12));
    }

    #[test]
    fn quantile_ranks_match_the_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), Some(50));
        assert_eq!(quantile(&v, 0.90), Some(90));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&[8, 2], 0.01), Some(2), "rank clamps to 1");
    }

    #[test]
    fn quartile_spread_matches_pythons_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([2, 4, 4, 5, 10], n=4) == [3.0, 4.0, 7.5]
        let spread = quartile_spread(&[4.0, 10.0, 2.0, 5.0, 4.0]).unwrap();
        assert!((spread - 4.5 / 4.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert!((quartile_spread(&[1.0, 2.0, 3.0, 4.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn worst_pairwise_diff_is_relative_to_the_smallest() {
        assert_eq!(worst_pairwise_diff(&[100.0]), 0.0);
        assert!((worst_pairwise_diff(&[100.0, 110.0, 105.0]) - 0.10).abs() < 1e-12);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0]), Some(1.0));
    }
}
