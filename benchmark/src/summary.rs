//! Order statistics over exact samples: medians, quartile distances and the
//! percentile rule of the choosing-metrics guide.

/// Median of `values` (mean of the middle two for an even count). Panics on
/// an empty slice: every caller has at least one repetition or sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive method),
/// so this tool and the driver judge spread by the same number. Zero for
/// fewer than two values.
pub fn quartile_distance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // quantiles(): j = i*(n+1) div 4, clamped to [1, n-1]; linear
        // interpolation between v[j-1] and v[j].
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    cut(3) - cut(1)
}

/// The `q`-quantile (0 < q < 1) of ascending `sorted` by nearest rank, or
/// `None` when fewer than ten samples lie beyond it — a percentile the
/// sample cannot support is not reported.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((n as f64) * q).ceil() as usize; // 1-based nearest rank
    if rank == 0 || rank > n || n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of ascending `sorted` nanosecond samples, in microseconds.
pub fn p50_us(sorted: &[u64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let mid = sorted.len() / 2;
    let ns = if sorted.len() % 2 == 1 {
        sorted[mid] as f64
    } else {
        (sorted[mid - 1] + sorted[mid]) as f64 / 2.0
    };
    ns / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartile_distance_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_distance(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((quartile_distance(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5).abs() < 1e-12);
        assert_eq!(quartile_distance(&[7.0]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 samples is rank 990: exactly ten lie beyond.
        assert_eq!(percentile(&v, 0.99), Some(990));
        // One sample fewer and only nine lie beyond rank 990 (ceil(989.01)).
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..500], 0.99), None);
        // The median of 20 samples has ten beyond it, of 19 it does not.
        assert_eq!(percentile(&v[..20], 0.5), Some(10));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p50_in_microseconds() {
        assert_eq!(p50_us(&[1000, 2000, 9000]), 2.0);
        assert_eq!(p50_us(&[1000, 2000]), 1.5);
    }
}
