//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! "exclusive" method), so a spread computed here matches one computed
//! from the printed values by the usual tooling.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); `None` when
/// there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, by the exclusive method.
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when clamping raised `j`: the first quartile of a
        // tiny sample extrapolates below its minimum, as Python's does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_iqr(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    Some(if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
}

/// Percentile levels a tail may be reported at, in per mille, highest
/// first.
const TAIL_LEVELS: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of [`TAIL_LEVELS`] with at least ten samples
/// above it, as `(level in percent, nearest-rank value)`. `None` when
/// even the median has fewer than ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    TAIL_LEVELS.iter().find_map(|&level| {
        let rank = (level * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (level as f64 / 10.0, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_scales_by_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_iqr(&xs), Some((8.25 - 2.75) / 5.5));
        assert_eq!(relative_iqr(&[0.0, 0.0]), Some(0.0));
    }

    #[test]
    fn tail_is_the_highest_level_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves one sample above; p99 (rank 990) leaves ten.
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 and p95 leave 1 and 5; p90 (rank 90) leaves ten.
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // p90 leaves four; p75 (rank 30) leaves ten.
        assert_eq!(tail(&xs), Some((75.0, 30.0)));
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }
}
