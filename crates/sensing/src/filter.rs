//! Signal conditioning: Hampel outlier rejection and moving averages.
//!
//! Raw per-ACK CSI carries impulsive measurement noise; WiFi-sensing
//! pipelines (WindTalker and friends) conventionally Hampel-filter and
//! then smooth before feature extraction. The `csi_pipeline` bench
//! ablates raw vs filtered input.

/// Median of a slice (by copy). Average of the middle pair for even
/// lengths.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in CSI"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation (unscaled).
pub fn mad(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

/// Hampel filter: replaces samples more than `n_sigma` scaled MADs from
/// the window median with the median. `half_window` samples are used on
/// each side.
pub fn hampel(series: &[f64], half_window: usize, n_sigma: f64) -> Vec<f64> {
    const MAD_TO_SIGMA: f64 = 1.4826;
    let n = series.len();
    let mut out = series.to_vec();
    for i in 0..n {
        let lo = i.saturating_sub(half_window);
        let hi = (i + half_window + 1).min(n);
        let window = &series[lo..hi];
        let med = median(window);
        let sigma = MAD_TO_SIGMA * mad(window);
        let deviation = (series[i] - med).abs();
        // sigma == 0 means the window is (near-)constant: any deviation at
        // all is then an outlier — the classic Hampel degenerate case.
        if deviation > n_sigma * sigma && deviation > f64::EPSILON {
            out[i] = med;
        }
    }
    out
}

/// Centred moving average with a window of `2*half_window + 1` samples
/// (shrinking at the edges).
pub fn moving_average(series: &[f64], half_window: usize) -> Vec<f64> {
    let n = series.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half_window);
        let hi = (i + half_window + 1).min(n);
        let sum: f64 = series[lo..hi].iter().sum();
        out.push(sum / (hi - lo) as f64);
    }
    out
}

/// The standard conditioning chain: Hampel (±5 samples, 3σ) then a
/// moving average (±2 samples). The Hampel stage runs the exact kernel
/// [`crate::batch::hampel_exact`]; the ±2 moving average keeps the
/// reference summation order (5 adds per output). Bit-identical to
/// [`condition_scalar`].
pub fn condition(series: &[f64]) -> Vec<f64> {
    moving_average(&crate::batch::hampel_exact(series, 5, 3.0), 2)
}

/// The scalar reference conditioning chain, kept verbatim as the test
/// oracle the batched kernels are pinned against.
pub fn condition_scalar(series: &[f64]) -> Vec<f64> {
    moving_average(&hampel(series, 5, 3.0), 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mad_of_constant_is_zero() {
        assert_eq!(mad(&[5.0; 10]), 0.0);
    }

    #[test]
    fn hampel_removes_single_spike() {
        let mut series = vec![1.0; 50];
        series[25] = 100.0;
        let filtered = hampel(&series, 5, 3.0);
        assert_eq!(filtered[25], 1.0);
        // Everything else untouched.
        assert!(filtered
            .iter()
            .enumerate()
            .all(|(i, &v)| i == 25 || v == 1.0));
    }

    #[test]
    fn hampel_preserves_genuine_steps() {
        // A sustained level change is signal, not an outlier.
        let mut series = vec![1.0; 30];
        series.extend(vec![5.0; 30]);
        let filtered = hampel(&series, 5, 3.0);
        assert_eq!(&filtered[40..50], &[5.0; 10]);
    }

    #[test]
    fn moving_average_smooths() {
        let series = [0.0, 10.0, 0.0, 10.0, 0.0, 10.0];
        let smooth = moving_average(&series, 1);
        // Interior points average to (10+0+10)/3 or (0+10+0)/3.
        assert!((smooth[2] - 20.0 / 3.0).abs() < 1e-9);
        assert!((smooth[3] - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn moving_average_identity_with_zero_window() {
        let series = [1.0, 2.0, 3.0];
        assert_eq!(moving_average(&series, 0), series.to_vec());
    }

    #[test]
    fn condition_reduces_variance_of_noisy_constant() {
        // Deterministic pseudo-noise.
        let series: Vec<f64> = (0..200)
            .map(|i| 5.0 + ((i * 2654435761u64 % 1000) as f64 / 1000.0 - 0.5) * 0.2)
            .collect();
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        let conditioned = condition(&series);
        assert!(var(&conditioned) < var(&series) * 0.6);
        assert_eq!(conditioned.len(), series.len());
    }

    #[test]
    fn empty_series_handled() {
        assert!(hampel(&[], 5, 3.0).is_empty());
        assert!(moving_average(&[], 3).is_empty());
        assert!(condition(&[]).is_empty());
    }

    #[test]
    fn condition_matches_scalar_reference() {
        let series: Vec<f64> = (0..300)
            .map(|i| 5.0 + ((i * 2654435761u64 % 1000) as f64 / 1000.0 - 0.5))
            .collect();
        assert_eq!(condition(&series), condition_scalar(&series));
    }
}
