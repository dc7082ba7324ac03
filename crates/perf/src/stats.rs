//! Order statistics over host wall-clock samples.

/// Samples that must lie strictly beyond a reported percentile for it to
/// mean anything: with fewer, one outlier decides the value.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `0..=100`:
/// the smallest sample with at least `p`% of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (u64::from(p.min(100)) * sorted.len() as u64).div_ceil(100);
    Some(sorted[rank.max(1) as usize - 1])
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples.
pub fn tail_samples(n: usize, p: u32) -> usize {
    let rank = (u64::from(p.min(100)) * n as u64).div_ceil(100).max(1) as usize;
    n.saturating_sub(rank)
}

/// Whether `n` samples support reporting the `p`-th percentile: at least
/// [`MIN_TAIL_SAMPLES`] of them lie beyond it.
pub fn percentile_supported(n: usize, p: u32) -> bool {
    tail_samples(n, p) >= MIN_TAIL_SAMPLES
}

/// Interquartile range (nearest-rank p75 minus p25) of `sorted`.
pub fn iqr(sorted: &[f64]) -> Option<f64> {
    Some(percentile(sorted, 75)? - percentile(sorted, 25)?)
}

/// Median of unsorted samples (nearest-rank p50); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let ten = ramp(10);
        assert_eq!(percentile(&ten, 50), Some(5.0));
        assert_eq!(percentile(&ten, 51), Some(6.0));
        assert_eq!(percentile(&ten, 95), Some(10.0));
        assert_eq!(percentile(&ten, 100), Some(10.0));
        // p0 still returns a sample, the smallest.
        assert_eq!(percentile(&ten, 0), Some(1.0));
        let hundred = ramp(100);
        assert_eq!(percentile(&hundred, 95), Some(95.0));
        assert_eq!(percentile(&hundred, 1), Some(1.0));
        assert_eq!(percentile(&[7.5], 95), Some(7.5));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_range() {
        assert_eq!(iqr(&ramp(100)), Some(75.0 - 25.0));
        assert_eq!(iqr(&ramp(4)), Some(3.0 - 1.0));
        assert_eq!(iqr(&[2.0]), Some(0.0));
        assert_eq!(iqr(&[]), None);
    }

    #[test]
    fn sample_count_rule() {
        // 200 samples put exactly 10 beyond p95: the minimum.
        assert_eq!(tail_samples(200, 95), 10);
        assert!(percentile_supported(200, 95));
        assert_eq!(tail_samples(199, 95), 9);
        assert!(!percentile_supported(199, 95));
        // p50 needs only 20 samples.
        assert!(percentile_supported(20, 50));
        assert!(!percentile_supported(19, 50));
        assert_eq!(tail_samples(0, 95), 0);
        assert_eq!(tail_samples(5, 100), 0);
    }
}
