//! Property tests pinning the batched kernels — the production sensing
//! path — to the scalar reference: value-identical (`==`, no tolerance).

use polite_wifi_sensing::batch::{self, SeriesBatch};
use polite_wifi_sensing::features;
use polite_wifi_sensing::filter;
use polite_wifi_sensing::keystroke::{detect_keystrokes, KeystrokeDetectorConfig, KeystrokeEvent};
use polite_wifi_sensing::segment::{segment, segment_from_features, SegmenterConfig};
use proptest::prelude::*;

/// Amplitude-like series: positive baseline, bounded noise, occasional
/// large spikes so the Hampel branch actually fires.
fn arb_series(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    // The vendored prop_oneof! picks uniformly, so the common case is
    // listed several times: mostly baseline, some impulsive outliers
    // (firing the Hampel branch), some exact ties in the sort windows.
    proptest::collection::vec(
        prop_oneof![
            1.0f64..10.0,
            1.0f64..10.0,
            1.0f64..10.0,
            1.0f64..10.0,
            50.0f64..100.0,
            Just(5.0),
        ],
        0..max_len,
    )
}

/// The keystroke detector spelled out on the scalar reference stages:
/// `condition_scalar`, a `windows(2)` first difference, the moving
/// average and a sorted-median threshold, then the same peak picking.
fn scalar_keystrokes(series: &[f64], config: &KeystrokeDetectorConfig) -> Vec<KeystrokeEvent> {
    if series.len() < 8 {
        return Vec::new();
    }
    let conditioned = filter::condition_scalar(series);
    let diffs: Vec<f64> = conditioned
        .windows(2)
        .map(|w| (w[1] - w[0]).abs())
        .collect();
    let score = filter::moving_average(&diffs, config.smooth_half_window);
    let threshold = filter::median(&score).max(1e-9) * config.threshold_factor;
    let mut events = Vec::new();
    let mut i = 0;
    while i < score.len() {
        if score[i] < threshold {
            i += 1;
            continue;
        }
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
    }
    events
}

proptest! {
    #[test]
    fn hampel_exact_is_bit_identical(series in arb_series(200), hw in 0usize..8) {
        prop_assert_eq!(
            batch::hampel_exact(&series, hw, 3.0),
            filter::hampel(&series, hw, 3.0)
        );
    }

    #[test]
    fn median_select_is_value_identical(series in arb_series(150)) {
        prop_assert_eq!(batch::median_select(&series), filter::median(&series));
    }

    #[test]
    fn conditioning_matches_scalar(series in arb_series(300)) {
        prop_assert_eq!(filter::condition(&series), filter::condition_scalar(&series));
    }

    #[test]
    fn keystroke_detection_matches_scalar_chain(series in arb_series(300),
                                                smooth_half_window in 0usize..6,
                                                threshold_factor in 1.0f64..6.0,
                                                refractory in 0usize..40) {
        let config = KeystrokeDetectorConfig { smooth_half_window, threshold_factor, refractory };
        prop_assert_eq!(
            detect_keystrokes(&series, &config),
            scalar_keystrokes(&series, &config)
        );
    }

    #[test]
    fn feature_extraction_fast_is_bit_identical(series in arb_series(120)) {
        let mut scratch = Vec::new();
        prop_assert_eq!(
            batch::extract_fast(&series, &mut scratch),
            features::extract(&series)
        );
    }

    #[test]
    fn sliding_features_fast_matches_scalar(series in arb_series(250),
                                            window in 1usize..40,
                                            hop in 1usize..20) {
        prop_assert_eq!(
            batch::sliding_features_fast(&series, window, hop),
            features::sliding_features_scalar(&series, window, hop)
        );
    }

    #[test]
    fn segmentation_from_features_matches_direct(series in arb_series(400)) {
        let cfg = SegmenterConfig::default();
        let feats = features::sliding_features_scalar(&series, cfg.window_len, cfg.hop);
        prop_assert_eq!(
            segment_from_features(&feats, series.len(), &cfg),
            segment(&series, &cfg)
        );
    }

    #[test]
    fn batch_rows_match_per_row_pipeline(rows in proptest::collection::vec(arb_series(180), 1..6)) {
        // Pad to equal length (SeriesBatch rows are rectangular).
        let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut sb = SeriesBatch::new(cols);
        let padded: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| {
                let mut p = r.clone();
                p.resize(cols, 5.0);
                p
            })
            .collect();
        for p in &padded {
            sb.push_row(p);
        }
        let conditioned = batch::condition_batch(&sb);
        let cfg = SegmenterConfig::default();
        let segs = batch::segment_batch(&conditioned, &cfg);
        for (r, p) in padded.iter().enumerate() {
            let reference = filter::condition(p);
            prop_assert_eq!(conditioned.row(r), reference.as_slice());
            prop_assert_eq!(&segs[r], &segment(&reference, &cfg));
        }
    }
}
