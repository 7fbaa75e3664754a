//! Order statistics for latency samples and run-to-run comparisons.

/// A tail percentile needs at least this many samples beyond it before it
/// is told apart from noise.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`) of `samples` by the nearest-rank
/// method, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it
/// (the median needs 20 samples, p95 200, p99 1,000).
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    assert!(p > 0 && p < 100, "percentile {p} out of range");
    let n = samples.len();
    // Samples beyond the percentile are n·(100 − p)/100; compare in
    // hundredths so the rule stays exact in integers.
    if n * (100 - p as usize) < MIN_BEYOND * 100 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (n * p as usize).div_ceil(100);
    Some(sorted[rank.max(1) - 1])
}

/// Median of a small set of repetitions (no tail rule: these are whole-run
/// values, not latency samples). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads computed here match ones computed from the same numbers
/// elsewhere. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 95),
            None,
            "199 samples leave 9.95 beyond p95"
        );
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95), Some(190.0));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs[..999], 99), None);
        assert_eq!(percentile(&xs, 99), Some(990.0));
        assert_eq!(percentile(&xs[..19], 50), None);
        assert_eq!(percentile(&xs[..20], 50), Some(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=40).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 50), Some(20.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([7, 9], n=4) == [6.5, 8.0, 9.5]
        assert_eq!(quartiles(&[7.0, 9.0]), Some((6.5, 9.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
