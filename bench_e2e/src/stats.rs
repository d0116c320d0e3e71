//! Order statistics used by every metric: medians over windows and the
//! nearest-rank percentile with its "ten samples beyond" validity rule.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// Panics on an empty slice: every caller has at least one window.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank `q`-quantile: the smallest sample with at least a `q`
/// share of the samples at or below it. It never interpolates between
/// two samples, so a window mix of cheap and spiking steps cannot land it
/// halfway between the two populations.
pub fn nearest_rank(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_ABOVE: usize = 10;

/// The nearest-rank `q`-quantile of `xs`, or `None` when fewer than
/// [`MIN_ABOVE`] samples lie strictly above it (it is then refused).
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let value = nearest_rank(xs, q);
    let above = xs.iter().filter(|&&x| x > value).count();
    (above >= MIN_ABOVE).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_windows() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One window stalled by the host does not move the median.
        assert_eq!(median(&[10.0, 10.2, 55.0, 9.9, 10.1]), 10.1);
    }

    #[test]
    fn nearest_rank_never_interpolates() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.9), 9.0);
        assert_eq!(nearest_rank(&xs, 0.5), 5.0);
        assert_eq!(nearest_rank(&xs, 1.0), 10.0);
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
    }

    #[test]
    fn p90_refused_below_ten_samples_above() {
        // 99 samples: rank ceil(89.1) = 90, so 9 lie above -> refused.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), None);
        // 100 samples: rank 90, 10 above -> reported.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), None);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
    }

    #[test]
    fn p90_counts_only_strictly_greater_samples() {
        // Ties at the percentile do not count as "above" it.
        let mut xs = vec![1.0; 80];
        xs.extend(vec![5.0; 30]);
        assert_eq!(percentile(&xs, 0.9), None);
        xs.extend((0..10).map(|i| 6.0 + f64::from(i)));
        assert_eq!(percentile(&xs, 0.9), Some(5.0));
    }

    #[test]
    fn percentile_of_nothing_is_refused() {
        assert_eq!(percentile(&[], 0.9), None);
    }
}
