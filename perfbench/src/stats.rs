//! Order statistics the benchmark reports: nearest-rank percentiles and the
//! "at least ten samples beyond" rule for tail percentiles.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `None` for an empty slice or a `p`
/// outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(sorted.len(), p);
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples that lie strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// Percentile `p`, but only when at least [`TAIL_SAMPLES_BEYOND`] samples
/// lie beyond it; a tail read off fewer samples is not reported.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(samples.len(), p) < TAIL_SAMPLES_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 5.0), Some(15.0));
        assert_eq!(percentile(&xs, 30.0), Some(20.0));
        assert_eq!(percentile(&xs, 40.0), Some(20.0));
        assert_eq!(percentile(&xs, 50.0), Some(35.0));
        assert_eq!(percentile(&xs, 100.0), Some(50.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0];
        let mut sorted = xs;
        sorted.sort_by(f64::total_cmp);
        for p in [1.0, 25.0, 50.0, 90.0, 99.0] {
            assert_eq!(percentile(&xs, p), percentile(&sorted, p));
        }
        assert_eq!(median(&xs), Some(3.0));
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn degenerate_inputs_have_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 0.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
        assert_eq!(percentile(&[1.0], f64::NAN), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&xs[..999], 99.0), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(0, 90.0), 0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90.0), Some(90.0));
    }
}
