//! Breathing-rate estimation from ACK CSI — one of the paper's explicit
//! open questions ("can an attacker estimate vital signs such as heart
//! rate and breathing rate of people from the CSI of their WiFi
//! devices?"), answered here for breathing on the synthetic channel.
//!
//! Breathing moves the chest a few millimetres at 0.1–0.5 Hz, which
//! shows up as a small periodic component in subcarrier amplitude. The
//! estimator detrends the series and scans that band with a Goertzel
//! single-bin DFT, picking the dominant spectral peak.

/// Result of a breathing-rate scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreathingEstimate {
    /// Estimated rate in breaths per minute.
    pub bpm: f64,
    /// Peak-to-mean spectral power ratio in the scanned band; values
    /// near 1 mean "no periodicity" (use [`BreathingEstimate::is_confident`]).
    pub confidence: f64,
}

polite_wifi_obs::impl_to_json! { BreathingEstimate { bpm, confidence } }

impl BreathingEstimate {
    /// Whether the spectral peak is pronounced enough to trust.
    ///
    /// On pure noise the maximum of ~45 exponentially-distributed
    /// Goertzel bins sits near 4–5× the mean, so the threshold lives
    /// comfortably above that.
    pub fn is_confident(&self) -> bool {
        self.confidence >= 8.0
    }
}

/// Goertzel power of `series` at `freq_hz` (single DFT bin).
pub fn goertzel_power(series: &[f64], sample_rate_hz: f64, freq_hz: f64) -> f64 {
    if series.len() < 2 || sample_rate_hz <= 0.0 {
        return 0.0;
    }
    let omega = 2.0 * std::f64::consts::PI * freq_hz / sample_rate_hz;
    let coeff = 2.0 * omega.cos();
    let mut s_prev = 0.0f64;
    let mut s_prev2 = 0.0f64;
    for &x in series {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    (s_prev2 * s_prev2 + s_prev * s_prev - coeff * s_prev * s_prev2) / series.len() as f64
}

/// Removes slow trends (and the DC term) with a long moving average, so
/// the breathing band stands alone.
fn detrend(series: &[f64], sample_rate_hz: f64) -> Vec<f64> {
    // ~4 s half-window: removes drift below ≈0.125 Hz poorly but the
    // band scan starts at 0.13 Hz, and DC is fully gone.
    let half = ((sample_rate_hz * 4.0) as usize).max(1);
    let trend = crate::filter::moving_average(series, half);
    series.iter().zip(&trend).map(|(x, t)| x - t).collect()
}

/// The motion envelope: smoothed magnitude of the first difference.
/// Breathing that modulates the channel *incoherently* (scattered-power
/// variance tracking chest motion) is invisible in the raw amplitude
/// spectrum but periodic in this envelope.
pub fn motion_envelope(series: &[f64], sample_rate_hz: f64) -> Vec<f64> {
    if series.len() < 2 {
        return Vec::new();
    }
    let diffs: Vec<f64> = series.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
    // ~0.25 s smoothing: well under a breathing half-period.
    let half = ((sample_rate_hz * 0.25) as usize).max(1);
    crate::filter::moving_average(&diffs, half)
}

/// Goertzel scan of one conditioned series over 8–30 breaths/min.
fn scan_band(series: &[f64], sample_rate_hz: f64) -> Option<BreathingEstimate> {
    let mut best_bpm = 0.0;
    let mut best_power = 0.0;
    let mut total_power = 0.0;
    let mut bins = 0usize;
    let mut bpm = 8.0;
    while bpm <= 30.0 {
        let p = goertzel_power(series, sample_rate_hz, bpm / 60.0);
        total_power += p;
        bins += 1;
        if p > best_power {
            best_power = p;
            best_bpm = bpm;
        }
        bpm += 0.5;
    }
    if bins == 0 || total_power <= 0.0 {
        return None;
    }
    let mean_power = total_power / bins as f64;
    Some(BreathingEstimate {
        bpm: best_bpm,
        confidence: best_power / mean_power.max(1e-30),
    })
}

/// Scans 8–30 breaths/min and returns the dominant rate.
///
/// Two views of the series are scanned and the more confident peak wins:
/// the detrended amplitude itself (coherent chest-displacement paths)
/// and its [`motion_envelope`] (incoherent variance modulation).
pub fn estimate_breathing_rate(series: &[f64], sample_rate_hz: f64) -> Option<BreathingEstimate> {
    // Need at least ~3 breathing periods to resolve anything.
    if series.len() as f64 / sample_rate_hz < 20.0 {
        return None;
    }
    let coherent = scan_band(&detrend(series, sample_rate_hz), sample_rate_hz);
    let envelope = motion_envelope(series, sample_rate_hz);
    let incoherent = scan_band(&detrend(&envelope, sample_rate_hz), sample_rate_hz);
    match (coherent, incoherent) {
        (Some(a), Some(b)) => Some(if a.confidence >= b.confidence { a } else { b }),
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breathing_series(bpm: f64, sample_rate_hz: f64, secs: f64, noise: f64) -> Vec<f64> {
        let n = (sample_rate_hz * secs) as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / sample_rate_hz;
                let pseudo = ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0 - 0.5;
                1.0 + 0.05 * (2.0 * std::f64::consts::PI * bpm / 60.0 * t).sin() + noise * pseudo
            })
            .collect()
    }

    #[test]
    fn recovers_known_rate() {
        for true_bpm in [10.0, 15.0, 22.0] {
            let s = breathing_series(true_bpm, 150.0, 60.0, 0.01);
            let est = estimate_breathing_rate(&s, 150.0).unwrap();
            assert!(
                (est.bpm - true_bpm).abs() <= 0.5,
                "true {true_bpm}, got {}",
                est.bpm
            );
            assert!(est.is_confident(), "confidence {}", est.confidence);
        }
    }

    #[test]
    fn noise_only_is_unconfident() {
        // Proper white noise (the hash-based pseudo-noise used elsewhere
        // has spectral structure that a sensitive estimator picks up).
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
        let s: Vec<f64> = (0..9000)
            .map(|_| 1.0 + 0.05 * (rng.gen::<f64>() - 0.5))
            .collect();
        let est = estimate_breathing_rate(&s, 150.0).unwrap();
        assert!(
            !est.is_confident(),
            "confidence {} on noise",
            est.confidence
        );
    }

    /// Heteroscedastic breathing: noise whose *power* tracks the chest
    /// motion (how the tapped-delay CSI model responds to breathing).
    fn incoherent_breathing_series(bpm: f64, sample_rate_hz: f64, secs: f64) -> Vec<f64> {
        let n = (sample_rate_hz * secs) as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / sample_rate_hz;
                let pseudo = ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0 - 0.5;
                let sigma = 0.02 + 0.015 * (2.0 * std::f64::consts::PI * bpm / 60.0 * t).sin();
                1.0 + sigma * pseudo
            })
            .collect()
    }

    #[test]
    fn recovers_rate_from_incoherent_modulation() {
        for true_bpm in [12.0, 18.0] {
            let s = incoherent_breathing_series(true_bpm, 150.0, 60.0);
            let est = estimate_breathing_rate(&s, 150.0).unwrap();
            assert!(
                (est.bpm - true_bpm).abs() <= 1.0,
                "true {true_bpm}, got {} (confidence {})",
                est.bpm,
                est.confidence
            );
        }
    }

    #[test]
    fn envelope_of_constant_is_flat() {
        let env = motion_envelope(&[5.0; 100], 150.0);
        assert!(env.iter().all(|&e| e == 0.0));
        assert!(motion_envelope(&[1.0], 150.0).is_empty());
    }

    #[test]
    fn short_series_rejected() {
        let s = breathing_series(15.0, 150.0, 10.0, 0.0);
        assert!(estimate_breathing_rate(&s, 150.0).is_none());
    }

    #[test]
    fn goertzel_matches_sinusoid() {
        let sr = 100.0;
        let f = 2.0;
        let s: Vec<f64> = (0..1000)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / sr).sin())
            .collect();
        let on_peak = goertzel_power(&s, sr, f);
        let off_peak = goertzel_power(&s, sr, f * 2.0);
        assert!(on_peak > 50.0 * off_peak, "{on_peak} vs {off_peak}");
    }

    #[test]
    fn goertzel_degenerate_inputs() {
        assert_eq!(goertzel_power(&[], 100.0, 1.0), 0.0);
        assert_eq!(goertzel_power(&[1.0], 100.0, 1.0), 0.0);
        assert_eq!(goertzel_power(&[1.0, 2.0], 0.0, 1.0), 0.0);
    }
}
