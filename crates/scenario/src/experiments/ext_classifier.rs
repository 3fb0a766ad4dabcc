//! X4 — extension: from "the patterns are very distinct" to a scored
//! classifier.
//!
//! Figure 5 argues by eyeball; this experiment quantifies it. Many
//! independent sessions per activity class are generated on fresh channel
//! realisations, window features extracted, and a k-NN classifier scored
//! with session-held-out evaluation — the honest protocol (no window of a
//! test session in training). The spec bounds the held-out `accuracy`
//! (chance is 25%) and the `windows_scored`. Each trial draws its
//! sessions from its own seed; the payload is the first trial's.

use super::run_trials;
use crate::registry::Output;
use crate::spec::ScenarioSpec;
use polite_wifi_harness::{Experiment, MetricsLedger};
use polite_wifi_obs::Obs;
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

pub fn run(_: &ScenarioSpec, exp: &mut Experiment) -> std::io::Result<Output> {
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

    // Held-out evaluation, on fresh sessions drawn from each trial's seed.
    Ok(run_trials(
        exp,
        |t| {
            let sessions_per_class = 6;
            let matrix = cross_session_accuracy(sessions_per_class, 1350, t.seed);
            let (mut ledger, mut obs) = (MetricsLedger::new(), Obs::new());
            let accuracy = matrix.accuracy();
            ledger.record("accuracy", accuracy);
            ledger.record("windows_scored", matrix.total() as f64);
            obs.add("sensing.windows_scored", matrix.total());
            let correct = (0..4).map(|i| matrix.counts[i][i]).sum();
            obs.add("sensing.windows_correct", correct);
            let payload = ClassifierResult {
                sessions_per_class,
                windows_scored: matrix.total(),
                accuracy,
                confusion: matrix.counts.iter().map(|row| row.to_vec()).collect(),
                class_order: (ActivityClass::ALL.iter())
                    .map(|c| format!("{c:?}"))
                    .collect(),
            };
            (payload, ledger, obs)
        },
        |first| {
            println!("\nconfusion matrix (rows = truth, cols = predicted):");
            println!(
                "{:>8} {:>6} {:>6} {:>6} {:>6}",
                "", "Idle", "Hold", "Typing", "Motion"
            );
            for (class, row) in first.class_order.iter().zip(&first.confusion) {
                print!("{class:>8}");
                for count in row {
                    print!(" {count:>6}");
                }
                println!();
            }
        },
    ))
}
