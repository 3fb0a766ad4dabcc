//! Sliding-window features over CSI amplitude series.

use crate::filter::{mad, median};
use serde::{Deserialize, Serialize};

/// A feature vector extracted from one window of one subcarrier.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FeatureVector {
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Median absolute deviation.
    pub mad: f64,
    /// Peak-to-peak amplitude.
    pub peak_to_peak: f64,
    /// Mean-crossing rate (fraction of consecutive pairs straddling the
    /// mean) — a cheap proxy for dominant frequency.
    pub mean_crossing_rate: f64,
    /// Energy of the first-difference signal (motion energy).
    pub diff_energy: f64,
}

impl FeatureVector {
    /// Euclidean distance between two feature vectors (for k-NN).
    pub fn distance(&self, other: &FeatureVector) -> f64 {
        let d = [
            self.std_dev - other.std_dev,
            self.mad - other.mad,
            self.peak_to_peak - other.peak_to_peak,
            self.mean_crossing_rate - other.mean_crossing_rate,
            self.diff_energy - other.diff_energy,
        ];
        d.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// Extracts the feature vector of one window.
pub fn extract(window: &[f64]) -> FeatureVector {
    let n = window.len();
    if n < 2 {
        return FeatureVector::default();
    }
    let mean = window.iter().sum::<f64>() / n as f64;
    let var = window.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    let std_dev = var.sqrt();

    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &x in window {
        min = min.min(x);
        max = max.max(x);
    }

    let crossings = window
        .windows(2)
        .filter(|w| (w[0] - mean).signum() != (w[1] - mean).signum())
        .count();
    let mean_crossing_rate = crossings as f64 / (n - 1) as f64;

    let diff_energy = window
        .windows(2)
        .map(|w| (w[1] - w[0]) * (w[1] - w[0]))
        .sum::<f64>()
        / (n - 1) as f64;

    let _ = median(window); // keep median in the hot path for the bench ablation
    FeatureVector {
        std_dev,
        mad: mad(window),
        peak_to_peak: max - min,
        mean_crossing_rate,
        diff_energy,
    }
}

/// Splits `series` into consecutive windows of `window_len` samples
/// (hopping by `hop`) and extracts features from each. Returns
/// `(window_start_index, features)` pairs. Runs the one-sort batched
/// extractor, bit-identical to [`sliding_features_scalar`].
pub fn sliding_features(
    series: &[f64],
    window_len: usize,
    hop: usize,
) -> Vec<(usize, FeatureVector)> {
    crate::batch::sliding_features_fast(series, window_len, hop)
}

/// The scalar reference sliding-window extractor, kept as the test
/// oracle.
pub fn sliding_features_scalar(
    series: &[f64],
    window_len: usize,
    hop: usize,
) -> Vec<(usize, FeatureVector)> {
    let mut out = Vec::new();
    if window_len == 0 || hop == 0 || series.len() < window_len {
        return out;
    }
    let mut start = 0;
    while start + window_len <= series.len() {
        out.push((start, extract(&series[start..start + window_len])));
        start += hop;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_window_has_zero_features() {
        let f = extract(&[2.0; 64]);
        assert_eq!(f.std_dev, 0.0);
        assert_eq!(f.mad, 0.0);
        assert_eq!(f.peak_to_peak, 0.0);
        assert_eq!(f.diff_energy, 0.0);
    }

    #[test]
    fn noisy_window_has_positive_features() {
        let window: Vec<f64> = (0..64).map(|i| (i as f64 * 0.7).sin()).collect();
        let f = extract(&window);
        assert!(f.std_dev > 0.1);
        assert!(f.peak_to_peak > 1.0);
        assert!(f.diff_energy > 0.0);
        assert!(f.mean_crossing_rate > 0.0);
    }

    #[test]
    fn faster_oscillation_crosses_more() {
        let slow: Vec<f64> = (0..200).map(|i| (i as f64 * 0.05).sin()).collect();
        let fast: Vec<f64> = (0..200).map(|i| (i as f64 * 1.0).sin()).collect();
        assert!(extract(&fast).mean_crossing_rate > extract(&slow).mean_crossing_rate);
    }

    #[test]
    fn bigger_amplitude_bigger_std() {
        let small: Vec<f64> = (0..100).map(|i| 0.1 * (i as f64).sin()).collect();
        let big: Vec<f64> = (0..100).map(|i| 2.0 * (i as f64).sin()).collect();
        assert!(extract(&big).std_dev > 10.0 * extract(&small).std_dev);
    }

    #[test]
    fn sliding_windows_cover_series() {
        let series = vec![0.0; 100];
        let feats = sliding_features(&series, 20, 10);
        assert_eq!(feats.len(), 9); // starts 0,10,...,80
        assert_eq!(feats[0].0, 0);
        assert_eq!(feats.last().unwrap().0, 80);
    }

    #[test]
    fn sliding_degenerate_inputs() {
        assert!(sliding_features(&[1.0; 5], 10, 5).is_empty());
        assert!(sliding_features(&[1.0; 5], 0, 5).is_empty());
        assert!(sliding_features(&[1.0; 5], 5, 0).is_empty());
    }

    #[test]
    fn distance_is_metric_like() {
        let a = extract(&(0..50).map(|i| (i as f64).sin()).collect::<Vec<_>>());
        let b = extract(&[0.0; 50]);
        assert_eq!(a.distance(&a), 0.0);
        assert!(a.distance(&b) > 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn short_window_defaults() {
        assert_eq!(extract(&[1.0]), FeatureVector::default());
        assert_eq!(extract(&[]), FeatureVector::default());
    }
}
