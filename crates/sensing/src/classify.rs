//! Activity classification from CSI features.

use crate::features::FeatureVector;

/// The activity classes of the Figure 5 scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityClass {
    /// Device untouched, nobody moving nearby.
    Idle,
    /// Device held (static grip micro-motion).
    Hold,
    /// Typing on the device.
    Typing,
    /// Gross motion (pick up / put down / walk past).
    Motion,
}

impl ActivityClass {
    /// All classes, for confusion-matrix indexing.
    pub const ALL: [ActivityClass; 4] = [
        ActivityClass::Idle,
        ActivityClass::Hold,
        ActivityClass::Typing,
        ActivityClass::Motion,
    ];

    /// Maps a ground-truth script label to a class.
    pub fn from_label(label: &str) -> ActivityClass {
        match label {
            "idle" => ActivityClass::Idle,
            "hold" => ActivityClass::Hold,
            "typing" => ActivityClass::Typing,
            _ => ActivityClass::Motion,
        }
    }
}

/// A simple interpretable classifier: thresholds on the window standard
/// deviation, calibrated from labelled data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdClassifier {
    /// Below this std: idle.
    pub idle_below: f64,
    /// Below this std (and above idle): hold.
    pub hold_below: f64,
    /// Below this std (and above hold): typing; above: motion.
    pub typing_below: f64,
}

impl ThresholdClassifier {
    /// Calibrates the three boundaries from labelled window stds: each
    /// boundary is the midpoint between the means of adjacent classes.
    pub fn calibrate(labelled: &[(ActivityClass, f64)]) -> ThresholdClassifier {
        let mean_of = |class: ActivityClass| -> f64 {
            let vals: Vec<f64> = labelled
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|(_, v)| *v)
                .collect();
            if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        let idle = mean_of(ActivityClass::Idle);
        let hold = mean_of(ActivityClass::Hold);
        let typing = mean_of(ActivityClass::Typing);
        let motion = mean_of(ActivityClass::Motion);
        ThresholdClassifier {
            idle_below: (idle + hold) / 2.0,
            hold_below: (hold + typing) / 2.0,
            typing_below: (typing + motion) / 2.0,
        }
    }

    /// Classifies one window by its standard deviation.
    pub fn classify(&self, std_dev: f64) -> ActivityClass {
        if std_dev < self.idle_below {
            ActivityClass::Idle
        } else if std_dev < self.hold_below {
            ActivityClass::Hold
        } else if std_dev < self.typing_below {
            ActivityClass::Typing
        } else {
            ActivityClass::Motion
        }
    }
}

/// 1-nearest-neighbour classifier over full feature vectors.
#[derive(Debug, Clone, Default)]
pub struct KnnClassifier {
    train: Vec<(ActivityClass, FeatureVector)>,
}

impl KnnClassifier {
    /// An empty classifier.
    pub fn new() -> KnnClassifier {
        KnnClassifier::default()
    }

    /// Adds a labelled example.
    pub fn add_example(&mut self, class: ActivityClass, features: FeatureVector) {
        self.train.push((class, features));
    }

    /// Number of stored examples.
    pub fn len(&self) -> usize {
        self.train.len()
    }

    /// True when no examples are stored.
    pub fn is_empty(&self) -> bool {
        self.train.is_empty()
    }

    /// Classifies by majority vote of the `k` nearest examples
    /// (ties broken by the nearer class).
    pub fn classify(&self, features: &FeatureVector, k: usize) -> Option<ActivityClass> {
        if self.train.is_empty() || k == 0 {
            return None;
        }
        let mut by_distance: Vec<(f64, ActivityClass)> = self
            .train
            .iter()
            .map(|(c, f)| (f.distance(features), *c))
            .collect();
        by_distance.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let k = k.min(by_distance.len());
        let mut votes: std::collections::HashMap<ActivityClass, usize> =
            std::collections::HashMap::new();
        for (_, c) in &by_distance[..k] {
            *votes.entry(*c).or_default() += 1;
        }
        let best = votes.values().copied().max().unwrap_or(0);
        // Nearest neighbour among the tied classes wins.
        by_distance[..k]
            .iter()
            .find(|(_, c)| votes[c] == best)
            .map(|(_, c)| *c)
    }
}

/// A confusion matrix over the four activity classes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// `counts[truth][predicted]`.
    pub counts: [[u64; 4]; 4],
}

impl ConfusionMatrix {
    fn index(class: ActivityClass) -> usize {
        ActivityClass::ALL.iter().position(|&c| c == class).unwrap()
    }

    /// Records one (truth, prediction) pair.
    pub fn record(&mut self, truth: ActivityClass, predicted: ActivityClass) {
        self.counts[Self::index(truth)][Self::index(predicted)] += 1;
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: u64 = (0..4).map(|i| self.counts[i][i]).sum();
        let total: u64 = self.counts.iter().flatten().sum();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;

    fn synth_window(scale: f64, seed: usize) -> Vec<f64> {
        (0..60)
            .map(|i| {
                let x = ((i + seed) as u64).wrapping_mul(2654435761) % 1000;
                5.0 + scale * (x as f64 / 1000.0 - 0.5)
            })
            .collect()
    }

    #[test]
    fn threshold_calibration_orders_boundaries() {
        let labelled = vec![
            (ActivityClass::Idle, 0.01),
            (ActivityClass::Idle, 0.02),
            (ActivityClass::Hold, 0.2),
            (ActivityClass::Hold, 0.25),
            (ActivityClass::Typing, 0.7),
            (ActivityClass::Typing, 0.8),
            (ActivityClass::Motion, 2.0),
            (ActivityClass::Motion, 2.4),
        ];
        let c = ThresholdClassifier::calibrate(&labelled);
        assert!(c.idle_below < c.hold_below);
        assert!(c.hold_below < c.typing_below);
        assert_eq!(c.classify(0.01), ActivityClass::Idle);
        assert_eq!(c.classify(0.22), ActivityClass::Hold);
        assert_eq!(c.classify(0.75), ActivityClass::Typing);
        assert_eq!(c.classify(3.0), ActivityClass::Motion);
    }

    #[test]
    fn knn_separates_scales() {
        let mut knn = KnnClassifier::new();
        for seed in 0..10 {
            knn.add_example(ActivityClass::Idle, extract(&synth_window(0.02, seed)));
            knn.add_example(
                ActivityClass::Motion,
                extract(&synth_window(3.0, seed + 100)),
            );
        }
        assert_eq!(knn.len(), 20);
        let idle_test = extract(&synth_window(0.02, 999));
        let motion_test = extract(&synth_window(3.0, 888));
        assert_eq!(knn.classify(&idle_test, 3), Some(ActivityClass::Idle));
        assert_eq!(knn.classify(&motion_test, 3), Some(ActivityClass::Motion));
    }

    #[test]
    fn knn_empty_and_zero_k() {
        let knn = KnnClassifier::new();
        assert!(knn.is_empty());
        assert_eq!(knn.classify(&FeatureVector::default(), 3), None);
        let mut knn = KnnClassifier::new();
        knn.add_example(ActivityClass::Idle, FeatureVector::default());
        assert_eq!(knn.classify(&FeatureVector::default(), 0), None);
    }

    #[test]
    fn confusion_matrix_accuracy() {
        let mut m = ConfusionMatrix::default();
        m.record(ActivityClass::Idle, ActivityClass::Idle);
        m.record(ActivityClass::Idle, ActivityClass::Idle);
        m.record(ActivityClass::Hold, ActivityClass::Typing);
        m.record(ActivityClass::Motion, ActivityClass::Motion);
        assert_eq!(m.total(), 4);
        assert!((m.accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn label_mapping() {
        assert_eq!(ActivityClass::from_label("idle"), ActivityClass::Idle);
        assert_eq!(ActivityClass::from_label("hold"), ActivityClass::Hold);
        assert_eq!(ActivityClass::from_label("typing"), ActivityClass::Typing);
        assert_eq!(ActivityClass::from_label("pickup"), ActivityClass::Motion);
        assert_eq!(ActivityClass::from_label("walk"), ActivityClass::Motion);
    }
}
