//! Labelled CSI dataset generation and classifier evaluation.
//!
//! The paper stops at "the patterns are very distinct" (Figure 5); this
//! module carries the demonstration to its logical end: generate many
//! independent sessions per activity class on fresh channel realisations,
//! extract window features, and score a classifier with proper
//! train/test session separation (no window from a test session ever
//! appears in training).

use crate::batch::{condition_batch, sliding_features_batch, SeriesBatch};
use crate::classify::{ActivityClass, ConfusionMatrix, KnnClassifier};
use crate::features::FeatureVector;
use crate::filter;
use polite_wifi_phy::csi::CsiChannel;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One labelled feature window.
#[derive(Debug, Clone, Copy)]
pub struct LabelledWindow {
    /// Ground-truth class.
    pub class: ActivityClass,
    /// The extracted features.
    pub features: FeatureVector,
}

/// Generates one session's amplitude series (~150 Hz) for a class, on a
/// fresh channel realisation.
pub fn generate_session(
    class: ActivityClass,
    len_samples: usize,
    seed: u64,
    subcarrier: usize,
) -> Vec<f64> {
    filter::condition(&generate_session_raw(class, len_samples, seed, subcarrier))
}

/// The unconditioned series behind [`generate_session`] — the batched
/// dataset path conditions whole [`SeriesBatch`]es at once instead of one
/// session at a time.
fn generate_session_raw(
    class: ActivityClass,
    len_samples: usize,
    seed: u64,
    subcarrier: usize,
) -> Vec<f64> {
    // The intensity script draws from its own stream, so scripting the
    // whole session before rendering leaves every channel draw in place.
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4441_5441); // "DATA"
    let mut intensities = Vec::with_capacity(len_samples);
    // Typing burst state: keystrokes every ~30-60 samples, 10-14 long.
    let mut burst_left = 0usize;
    let mut until_burst = rng.gen_range(20..50usize);
    for _ in 0..len_samples {
        let intensity: f64 = match class {
            ActivityClass::Idle => 0.0,
            ActivityClass::Hold => 0.10 + rng.gen_range(-0.02..0.02),
            ActivityClass::Typing => {
                if burst_left > 0 {
                    burst_left -= 1;
                    0.72
                } else if until_burst == 0 {
                    burst_left = rng.gen_range(10..14);
                    until_burst = rng.gen_range(25..55);
                    0.72
                } else {
                    until_burst -= 1;
                    0.08
                }
            }
            ActivityClass::Motion => 0.75 + rng.gen_range(-0.2..0.25),
        };
        intensities.push(intensity.clamp(0.0, 1.0));
    }
    CsiChannel::new(seed).sample_amplitudes(&intensities, subcarrier)
}

/// Generates `sessions_per_class` sessions for every class and slices
/// them into labelled feature windows.
pub fn generate_dataset(
    sessions_per_class: usize,
    session_len: usize,
    window_len: usize,
    hop: usize,
    seed: u64,
    subcarrier: usize,
) -> Vec<Vec<LabelledWindow>> {
    // Outer vec: one entry per session (so callers can split by session).
    let specs: Vec<(ActivityClass, u64)> = ActivityClass::ALL
        .iter()
        .enumerate()
        .flat_map(|(ci, &class)| {
            (0..sessions_per_class)
                .map(move |s| (class, seed ^ ((ci as u64) << 32) ^ (s as u64 + 1)))
        })
        .collect();

    // Every session is a row of one SoA matrix, so conditioning and
    // feature extraction walk contiguous memory.
    let mut raw = SeriesBatch::with_capacity(session_len, specs.len());
    for &(class, session_seed) in &specs {
        raw.push_row(&generate_session_raw(
            class,
            session_len,
            session_seed,
            subcarrier,
        ));
    }
    let conditioned = condition_batch(&raw);
    sliding_features_batch(&conditioned, window_len, hop)
        .into_iter()
        .zip(&specs)
        .map(|(windows, &(class, _))| {
            windows
                .into_iter()
                .map(|(_, features)| LabelledWindow { class, features })
                .collect()
        })
        .collect()
}

/// Leave-sessions-out evaluation: trains a k-NN on `train_sessions` and
/// scores it on `test_sessions`.
pub fn evaluate_knn(
    train_sessions: &[Vec<LabelledWindow>],
    test_sessions: &[Vec<LabelledWindow>],
    k: usize,
) -> ConfusionMatrix {
    let mut knn = KnnClassifier::new();
    for session in train_sessions {
        for w in session {
            knn.add_example(w.class, w.features);
        }
    }
    let mut matrix = ConfusionMatrix::default();
    for session in test_sessions {
        for w in session {
            if let Some(predicted) = knn.classify(&w.features, k) {
                matrix.record(w.class, predicted);
            }
        }
    }
    matrix
}

/// Convenience: generates a dataset, splits sessions alternately into
/// train/test, and returns the test confusion matrix.
pub fn cross_session_accuracy(
    sessions_per_class: usize,
    session_len: usize,
    seed: u64,
) -> ConfusionMatrix {
    let sessions = generate_dataset(sessions_per_class, session_len, 45, 15, seed, 17);
    let (train, test): (Vec<_>, Vec<_>) = sessions
        .into_iter()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let train: Vec<Vec<LabelledWindow>> = train.into_iter().map(|(_, s)| s).collect();
    let test: Vec<Vec<LabelledWindow>> = test.into_iter().map(|(_, s)| s).collect();
    evaluate_knn(&train, &test, 5)
}

/// Mean feature check used by tests: the per-class window std ordering
/// that Figure 5 shows must hold on generated data too.
pub fn mean_std_of_class(sessions: &[Vec<LabelledWindow>], class: ActivityClass) -> f64 {
    let values: Vec<f64> = sessions
        .iter()
        .flatten()
        .filter(|w| w.class == class)
        .map(|w| w.features.std_dev)
        .collect();
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::sliding_features_scalar;

    #[test]
    fn class_variability_ordering_holds_on_generated_data() {
        let sessions = generate_dataset(3, 900, 45, 15, 7, 17);
        let idle = mean_std_of_class(&sessions, ActivityClass::Idle);
        let hold = mean_std_of_class(&sessions, ActivityClass::Hold);
        let typing = mean_std_of_class(&sessions, ActivityClass::Typing);
        let motion = mean_std_of_class(&sessions, ActivityClass::Motion);
        assert!(idle < hold, "{idle} < {hold}");
        assert!(hold < typing, "{hold} < {typing}");
        assert!(typing < motion, "{typing} < {motion}");
    }

    #[test]
    fn cross_session_knn_beats_chance_by_far() {
        let matrix = cross_session_accuracy(4, 900, 11);
        assert!(matrix.total() > 300, "total {}", matrix.total());
        let acc = matrix.accuracy();
        // Chance is 25%; the signal should carry this well past 80%.
        assert!(acc > 0.8, "accuracy {acc} ({matrix:?})");
    }

    #[test]
    fn sessions_are_independent_realisations() {
        let a = generate_session(ActivityClass::Typing, 300, 1, 17);
        let b = generate_session(ActivityClass::Typing, 300, 2, 17);
        assert_ne!(a, b);
        // Same seed reproduces.
        let c = generate_session(ActivityClass::Typing, 300, 1, 17);
        assert_eq!(a, c);
    }

    #[test]
    fn batched_dataset_is_bit_identical_to_per_session_reference() {
        // The batched path must not change a single bit versus the
        // scalar reference chain run one session at a time.
        let (spc, len, win, hop, seed, sc) = (3, 600, 45, 15, 9, 17);
        let got = generate_dataset(spc, len, win, hop, seed, sc);
        let mut want = Vec::new();
        for (ci, &class) in ActivityClass::ALL.iter().enumerate() {
            for s in 0..spc {
                let session_seed = seed ^ ((ci as u64) << 32) ^ (s as u64 + 1);
                let raw = generate_session_raw(class, len, session_seed, sc);
                let series = filter::condition_scalar(&raw);
                let windows: Vec<LabelledWindow> = sliding_features_scalar(&series, win, hop)
                    .into_iter()
                    .map(|(_, features)| LabelledWindow { class, features })
                    .collect();
                want.push(windows);
            }
        }
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.len(), w.len());
            for (a, b) in g.iter().zip(w) {
                assert_eq!(a.class, b.class);
                assert_eq!(a.features, b.features);
            }
        }
    }

    #[test]
    fn dataset_shape() {
        let sessions = generate_dataset(2, 300, 45, 15, 3, 17);
        assert_eq!(sessions.len(), 2 * ActivityClass::ALL.len());
        // (300 - 45) / 15 + 1 = 18 windows per session.
        assert!(sessions.iter().all(|s| s.len() == 18));
    }
}
