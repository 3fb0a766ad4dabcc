//! Keystroke burst detection — the privacy threat of Section 4.1.
//!
//! WindTalker-style attacks recover *which* keys are pressed from CSI
//! waveform shapes; that last step needs per-victim training data the
//! paper explicitly leaves out of scope. What the paper demonstrates —
//! and what this module reproduces — is the upstream signal: individual
//! keystrokes are visible as short bursts in the ACK-CSI stream of an
//! unassociated victim.

use crate::filter;
use serde::{Deserialize, Serialize};

/// A detected keystroke event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeystrokeEvent {
    /// Sample index of the burst peak.
    pub index: usize,
    /// Peak burst score (first-difference magnitude, smoothed).
    pub score: f64,
}

/// Detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeystrokeDetectorConfig {
    /// Smoothing half-window applied to the burst score.
    pub smooth_half_window: usize,
    /// Score threshold as a multiple of the score's median.
    pub threshold_factor: f64,
    /// Minimum gap between detected keystrokes, in samples. At 150 Hz and
    /// ~4 keys/s this is ≈ 37 samples; default is deliberately tighter.
    pub refractory: usize,
}

impl Default for KeystrokeDetectorConfig {
    fn default() -> Self {
        KeystrokeDetectorConfig {
            smooth_half_window: 3,
            threshold_factor: 4.0,
            refractory: 20,
        }
    }
}

/// Detects keystroke bursts in a (typing-phase) CSI amplitude series.
pub fn detect_keystrokes(series: &[f64], config: &KeystrokeDetectorConfig) -> Vec<KeystrokeEvent> {
    if series.len() < 8 {
        return Vec::new();
    }
    // Burst score: smoothed magnitude of the first difference. The diff
    // uses the lane-chunked kernel (elementwise, exact) and the threshold
    // median is selected in O(n) instead of sorted — the same values as
    // the scalar chain.
    let conditioned = filter::condition(series);
    let diffs = crate::batch::abs_diff(&conditioned);
    let score = filter::moving_average(&diffs, config.smooth_half_window);
    let median = crate::batch::median_select(&score);
    let threshold = median.max(1e-9) * config.threshold_factor;

    // Peak-pick above threshold with a refractory period.
    let mut events = Vec::new();
    let mut i = 0;
    while i < score.len() {
        if score[i] >= threshold {
            // Find the local peak of this burst.
            let mut peak = i;
            let mut j = i;
            while j < score.len() && score[j] >= threshold {
                if score[j] > score[peak] {
                    peak = j;
                }
                j += 1;
            }
            events.push(KeystrokeEvent {
                index: peak,
                score: score[peak],
            });
            i = (peak + config.refractory).max(j);
        } else {
            i += 1;
        }
    }
    events
}

/// Scores detections against ground-truth keystroke sample indices:
/// a detection within `tolerance` samples of a truth index is a hit.
/// Returns `(hits, misses, false_alarms)`.
pub fn score_detections(
    detected: &[KeystrokeEvent],
    truth: &[usize],
    tolerance: usize,
) -> (usize, usize, usize) {
    let mut used = vec![false; detected.len()];
    let mut hits = 0;
    for &t in truth {
        let found = detected
            .iter()
            .enumerate()
            .position(|(i, e)| !used[i] && e.index.abs_diff(t) <= tolerance);
        if let Some(i) = found {
            used[i] = true;
            hits += 1;
        }
    }
    let misses = truth.len() - hits;
    let false_alarms = used.iter().filter(|&&u| !u).count();
    (hits, misses, false_alarms)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic noise in [-0.5, 0.5).
    fn noise(i: usize) -> f64 {
        ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0 - 0.5
    }

    /// A synthetic typing series: calm baseline with bursts at `keys`.
    fn typing_series(len: usize, keys: &[usize]) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let mut v = 5.0 + 0.01 * noise(i);
                for &k in keys {
                    if i >= k && i < k + 10 {
                        v += 0.9 * noise(i * 13 + k);
                    }
                }
                v
            })
            .collect()
    }

    #[test]
    fn detects_all_separated_keystrokes() {
        let keys = [100, 200, 300, 400, 500];
        let series = typing_series(700, &keys);
        let events = detect_keystrokes(&series, &KeystrokeDetectorConfig::default());
        let (hits, misses, fa) = score_detections(&events, &keys, 15);
        assert_eq!(misses, 0, "events: {events:?}");
        assert_eq!(hits, 5);
        assert!(fa <= 1, "false alarms {fa}");
    }

    #[test]
    fn quiet_series_yields_nothing_catastrophic() {
        let series: Vec<f64> = (0..500).map(|i| 5.0 + 0.01 * noise(i)).collect();
        let events = detect_keystrokes(&series, &KeystrokeDetectorConfig::default());
        // Pure noise may trip the relative threshold occasionally, but
        // should not produce anything like a typing cadence.
        assert!(events.len() <= 3, "events {}", events.len());
    }

    #[test]
    fn refractory_merges_double_peaks() {
        let keys = [100];
        let series = typing_series(300, &keys);
        let events = detect_keystrokes(&series, &KeystrokeDetectorConfig::default());
        assert!(events.len() <= 2, "one keystroke split into {events:?}");
    }

    #[test]
    fn scoring_counts_false_alarms() {
        let detected = vec![
            KeystrokeEvent {
                index: 100,
                score: 1.0,
            },
            KeystrokeEvent {
                index: 400,
                score: 1.0,
            },
        ];
        let truth = [102];
        let (hits, misses, fa) = score_detections(&detected, &truth, 10);
        assert_eq!((hits, misses, fa), (1, 0, 1));
    }

    #[test]
    fn short_series_is_safe() {
        assert!(detect_keystrokes(&[1.0; 4], &KeystrokeDetectorConfig::default()).is_empty());
    }
}
