//! Order statistics over recorded samples.

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[quantile_rank(sorted.len(), q)]
}

/// Index of the nearest-rank `q` quantile among `len` samples.
pub fn quantile_rank(len: usize, q: f64) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// Median of a small set of measurements (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&samples, 0.5), 500);
        assert_eq!(quantile(&samples, 0.99), 990);
        // 10 samples lie beyond the p99 of 1000.
        assert_eq!(samples.len() - 1 - quantile_rank(samples.len(), 0.99), 10);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
