//! Capture-timestamp helpers for a CSI sample stream.

/// Mean sampling rate in Hz of ascending capture timestamps (the paper
/// injects at 150 fake frames/s, so a healthy attack yields ≈150 Hz).
pub fn sample_rate_hz(times_us: &[u64]) -> f64 {
    if times_us.len() < 2 {
        return 0.0;
    }
    let span_us = (times_us[times_us.len() - 1] - times_us[0]) as f64;
    if span_us <= 0.0 {
        return 0.0;
    }
    (times_us.len() - 1) as f64 * 1e6 / span_us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(n: usize, gap_us: u64) -> Vec<u64> {
        (0..n as u64).map(|i| i * gap_us).collect()
    }

    #[test]
    fn sample_rate_estimation() {
        // 150 Hz → 6667 µs gaps.
        let rate = sample_rate_hz(&times(151, 6_667));
        assert!((149.0..151.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn sample_rate_degenerate_cases() {
        assert_eq!(sample_rate_hz(&[]), 0.0);
        assert_eq!(sample_rate_hz(&times(1, 100)), 0.0);
        assert_eq!(sample_rate_hz(&[5, 5]), 0.0);
    }
}
