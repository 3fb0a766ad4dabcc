//! X4 — extension: from "the patterns are very distinct" to a scored
//! classifier.
//!
//! Figure 5 argues by eyeball; this experiment quantifies it. Many
//! independent sessions per activity class are generated on fresh channel
//! realisations, window features extracted, and a k-NN classifier scored
//! with session-held-out evaluation — the honest protocol (no window of a
//! test session in training).

use crate::spec::ScenarioSpec;
use crate::support::compare;
use polite_wifi_harness::{Experiment, RunArgs};
use polite_wifi_sensing::classify::ActivityClass;
use polite_wifi_sensing::dataset::{cross_session_accuracy, generate_dataset, mean_std_of_class};

struct ClassifierResult {
    sessions_per_class: usize,
    windows_scored: u64,
    accuracy: f64,
    confusion: Vec<Vec<u64>>,
    class_order: Vec<String>,
}

polite_wifi_obs::impl_to_json! { ClassifierResult {
    sessions_per_class, windows_scored, accuracy, confusion, class_order
} }

pub fn run(spec: &ScenarioSpec, args: RunArgs) -> std::io::Result<i32> {
    let mut exp = Experiment::start_with(&spec.name, &spec.paper_ref, args);

    if !exp.args().faults.is_clean() {
        println!(
            "\n(note: the classifier works on synthesised CSI series — `--faults {}` has no medium to degrade here)",
            exp.args().faults
        );
    }

    // Feature-separation sanity (the Figure 5 ordering).
    let sessions = generate_dataset(3, 900, 45, 15, 5, 17);
    println!("\nmean window std by class (Figure 5's ordering):");
    for class in ActivityClass::ALL {
        println!("  {:?}: {:.4}", class, mean_std_of_class(&sessions, class));
    }

    // Held-out evaluation.
    let sessions_per_class = 6;
    let matrix = cross_session_accuracy(sessions_per_class, 1350, exp.seed());
    let accuracy = matrix.accuracy();
    exp.metrics.record("accuracy", accuracy);
    exp.metrics.record("windows_scored", matrix.total() as f64);
    exp.obs.add("sensing.windows_scored", matrix.total());
    exp.obs.add(
        "sensing.windows_correct",
        (0..4).map(|i| matrix.counts[i][i]).sum(),
    );

    println!("\nconfusion matrix (rows = truth, cols = predicted):");
    println!(
        "{:>8} {:>6} {:>6} {:>6} {:>6}",
        "", "Idle", "Hold", "Typing", "Motion"
    );
    for (i, class) in ActivityClass::ALL.iter().enumerate() {
        print!("{:>8}", format!("{class:?}"));
        for j in 0..4 {
            print!(" {:>6}", matrix.counts[i][j]);
        }
        println!();
    }

    println!();
    compare(
        "activities separable from ACK CSI",
        "\"very distinct\" (by eye)",
        &format!(
            "{:.1}% held-out accuracy over {} windows (chance: 25%)",
            accuracy * 100.0,
            matrix.total()
        ),
    );
    assert!(accuracy > 0.8, "accuracy {accuracy}");
    assert!(matrix.total() > 500);

    exp.finish_with_status(
        &spec.slug,
        &ClassifierResult {
            sessions_per_class,
            windows_scored: matrix.total(),
            accuracy,
            confusion: matrix.counts.iter().map(|row| row.to_vec()).collect(),
            class_order: ActivityClass::ALL
                .iter()
                .map(|c| format!("{c:?}"))
                .collect(),
        },
    )
}
