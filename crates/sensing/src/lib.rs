//! CSI processing and inference — the sensing side of Polite WiFi.
//!
//! Section 4.1 of the paper shows that the CSI of ACKs elicited by fake
//! frames cleanly separates human activities around the victim device
//! (Figure 5), and Section 4.3 argues the same mechanism powers practical
//! single-device WiFi sensing. This crate supplies that pipeline:
//!
//! * [`script`] — ground-truth motion timelines (the Figure 5 scenario,
//!   breathing, walking) that drive the PHY's CSI channel,
//! * [`series`] — sample-rate estimation from ACK capture timestamps,
//! * [`filter`] — Hampel outlier removal and moving-average smoothing,
//! * [`features`] — sliding-window statistics (std, MAD, peak-to-peak,
//!   mean-crossing rate, spectral energy),
//! * [`segment`] — hysteresis-based activity segmentation,
//! * [`classify`] — threshold and 1-NN activity classifiers,
//! * [`keystroke`] — typing-burst detection on the filtered series,
//!
//! * [`batch`] — batched SoA kernels, the production path (the scalar
//!   modules above stay the reference semantics and test oracle),
//!
//! plus two of the paper's explicitly-posed open questions, answered on
//! the synthetic channel:
//!
//! * [`breathing`] — vital-sign (breathing-rate) estimation, and
//! * [`occupancy`] — room-occupancy detection.

pub mod batch;
pub mod breathing;
pub mod classify;
pub mod dataset;
pub mod features;
pub mod filter;
pub mod keystroke;
pub mod occupancy;
pub mod script;
pub mod segment;
pub mod series;

pub use batch::SeriesBatch;
pub use breathing::{estimate_breathing_rate, BreathingEstimate};
pub use classify::{ActivityClass, KnnClassifier, ThresholdClassifier};
pub use occupancy::{detect_occupancy, OccupancyConfig, OccupancyInterval};
pub use script::{MotionScript, Phase};
pub use series::sample_rate_hz;

#[cfg(test)]
mod tests {
    use crate::filter;
    use crate::keystroke::{detect_keystrokes, KeystrokeDetectorConfig};
    use crate::segment::{segment, SegmenterConfig};
    use polite_wifi_phy::csi::CsiChannel;

    /// 45 s at 150 Hz of subcarrier 17, with a 30-sample burst every 100
    /// samples, through conditioning, keystroke detection and
    /// segmentation.
    #[test]
    fn pipeline_on_a_45_s_series_is_pinned() {
        let intensities: Vec<f64> = (0..6750)
            .map(|i| if i % 100 < 30 { 0.6 } else { 0.0 })
            .collect();
        let series = CsiChannel::new(1).sample_amplitudes(&intensities, 17);
        let conditioned = filter::condition(&series);
        let mean = conditioned.iter().sum::<f64>() / conditioned.len() as f64;
        assert_eq!((mean * 1e6).round(), 1_324_432.0);
        let keystrokes = detect_keystrokes(&conditioned, &KeystrokeDetectorConfig::default());
        assert_eq!(keystrokes.len(), 97);
        assert_eq!(segment(&conditioned, &SegmenterConfig::default()).len(), 17);
    }
}
