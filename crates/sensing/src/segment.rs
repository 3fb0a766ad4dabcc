//! Activity segmentation: where does motion start and stop?
//!
//! The sensing-hub experiment (§4.3) needs to locate the "sharp changes in
//! CSI amplitude at times 9 and 32" — this module finds such change
//! windows with a hysteresis threshold on the sliding standard deviation.

use crate::features::sliding_features;

/// A detected activity segment, in sample indices of the input series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First sample of the active region.
    pub start: usize,
    /// One past the last sample of the active region.
    pub end: usize,
}

/// Segmentation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmenterConfig {
    /// Window length in samples for the sliding std.
    pub window_len: usize,
    /// Hop between windows in samples.
    pub hop: usize,
    /// Std threshold (relative to the series' median window std) that
    /// *starts* a segment.
    pub on_factor: f64,
    /// Std threshold that *ends* a segment (hysteresis: lower than on).
    pub off_factor: f64,
    /// Minimum segment length in samples (shorter detections are noise).
    pub min_len: usize,
}

impl Default for SegmenterConfig {
    fn default() -> Self {
        SegmenterConfig {
            window_len: 30,
            hop: 10,
            on_factor: 4.0,
            off_factor: 2.0,
            min_len: 20,
        }
    }
}

/// Finds active segments in an amplitude series.
pub fn segment(series: &[f64], config: &SegmenterConfig) -> Vec<Segment> {
    let feats = sliding_features(series, config.window_len, config.hop);
    segment_from_features(&feats, series.len(), config)
}

/// Segments from already-extracted sliding features — the shared back
/// half of [`segment`], reused by the batched pipeline so features
/// computed over a [`crate::batch::SeriesBatch`] need not be recomputed.
pub fn segment_from_features(
    feats: &[(usize, crate::features::FeatureVector)],
    series_len: usize,
    config: &SegmenterConfig,
) -> Vec<Segment> {
    if feats.is_empty() {
        return Vec::new();
    }
    // Noise floor: median of the window stds.
    let mut stds: Vec<f64> = feats.iter().map(|(_, f)| f.std_dev).collect();
    stds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let floor = stds[stds.len() / 2].max(1e-9);

    let on = floor * config.on_factor;
    let off = floor * config.off_factor;

    let mut segments = Vec::new();
    let mut active_start: Option<usize> = None;
    for &(start, ref f) in feats {
        match active_start {
            None if f.std_dev >= on => active_start = Some(start),
            Some(s) if f.std_dev < off => {
                let end = start + config.window_len;
                if end - s >= config.min_len {
                    segments.push(Segment { start: s, end });
                }
                active_start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = active_start {
        let end = series_len;
        if end - s >= config.min_len {
            segments.push(Segment { start: s, end });
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic noise in [-0.5, 0.5).
    fn noise(i: usize) -> f64 {
        ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0 - 0.5
    }

    fn series_with_burst(len: usize, burst: std::ops::Range<usize>, scale: f64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let base = 5.0 + 0.02 * noise(i);
                if burst.contains(&i) {
                    base + scale * noise(i * 7 + 3)
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn single_burst_detected() {
        let series = series_with_burst(1000, 400..600, 2.0);
        let segs = segment(&series, &SegmenterConfig::default());
        assert_eq!(segs.len(), 1, "segments: {segs:?}");
        let s = segs[0];
        assert!((350..=450).contains(&s.start), "start {}", s.start);
        assert!((560..=680).contains(&s.end), "end {}", s.end);
    }

    #[test]
    fn two_bursts_detected_separately() {
        let mut series = series_with_burst(2000, 300..500, 2.0);
        for (i, v) in series_with_burst(2000, 1200..1400, 2.0)
            .into_iter()
            .enumerate()
        {
            if (1200..1400).contains(&i) {
                series[i] = v;
            }
        }
        let segs = segment(&series, &SegmenterConfig::default());
        assert_eq!(segs.len(), 2, "segments: {segs:?}");
        assert!(segs[0].end < segs[1].start);
    }

    #[test]
    fn quiet_series_has_no_segments() {
        let series: Vec<f64> = (0..1000).map(|i| 5.0 + 0.02 * noise(i)).collect();
        assert!(segment(&series, &SegmenterConfig::default()).is_empty());
    }

    #[test]
    fn burst_reaching_the_end_is_closed() {
        let series = series_with_burst(800, 600..800, 2.0);
        let segs = segment(&series, &SegmenterConfig::default());
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].end, 800);
    }

    #[test]
    fn tiny_blips_suppressed() {
        let mut series: Vec<f64> = (0..1000).map(|i| 5.0 + 0.02 * noise(i)).collect();
        series[500] += 3.0; // single-sample spike
        let cfg = SegmenterConfig::default();
        let segs = segment(&series, &cfg);
        // One spiked sample inflates at most a couple of windows; with
        // hysteresis + min_len this must not produce a segment longer than
        // the windows it touched.
        assert!(segs.iter().all(|s| s.end - s.start <= 3 * cfg.window_len));
    }

    #[test]
    fn empty_input() {
        assert!(segment(&[], &SegmenterConfig::default()).is_empty());
    }
}
