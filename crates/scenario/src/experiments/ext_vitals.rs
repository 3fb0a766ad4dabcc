//! X1 — extension: the paper's open questions of §4.1, answered on the
//! synthetic channel — breathing-rate estimation and occupancy detection
//! from elicited ACK CSI. Each subject records its `bpm_abs_error`
//! (`breathing_estimates_missing` counts series too short to estimate),
//! and `occupancy_misclassified` counts the intervals the detector got
//! wrong. A trial runs the three subjects at its own seed (plus the
//! subject's index), fanned over its workers; occupancy runs once, on a
//! channel of its own fixed seed. The payload is the first trial's.

use super::run_trials;
use crate::registry::Output;
use crate::spec::ScenarioSpec;
use polite_wifi_core::VitalSignsAttack;
use polite_wifi_harness::{Experiment, MetricsLedger, Runner};
use polite_wifi_obs::Obs;
use polite_wifi_phy::csi::CsiChannel;
use polite_wifi_sensing::occupancy::{detect_occupancy, OccupancyConfig};
use polite_wifi_sensing::MotionScript;

struct VitalsJson {
    breathing: Vec<polite_wifi_core::VitalSignsResult>,
    occupancy_truth: Vec<bool>,
    occupancy_detected: Vec<bool>,
}

polite_wifi_obs::impl_to_json! { VitalsJson { breathing, occupancy_truth, occupancy_detected } }

/// The three subjects' true breathing rates, in bpm.
const SUBJECTS_BPM: [f64; 3] = [12.0, 16.0, 22.0];

pub fn run(_: &ScenarioSpec, exp: &mut Experiment) -> std::io::Result<Output> {
    let faults = exp.args().faults;
    let (truth, detected) = occupancy();
    let wrong = truth.iter().zip(&detected).filter(|(t, d)| t != d).count();
    Ok(run_trials(
        exp,
        |t| {
            // Three independent subjects, fanned over the trial's workers.
            let breathing = Runner::new(t.workers).run_indexed(SUBJECTS_BPM.len(), |i| {
                VitalSignsAttack {
                    true_bpm: SUBJECTS_BPM[i],
                    duration_us: 60_000_000,
                    seed: t.seed.wrapping_add(i as u64),
                    faults,
                    ..VitalSignsAttack::default()
                }
                .run()
            });
            let (mut ledger, mut obs) = (MetricsLedger::new(), Obs::new());
            let mut missing = 0u64;
            for (true_bpm, result) in SUBJECTS_BPM.iter().zip(&breathing) {
                obs.add("sensing.csi_samples", result.samples as u64);
                match &result.estimate {
                    Some(est) => ledger.record("bpm_abs_error", (est.bpm - true_bpm).abs()),
                    None => missing += 1,
                }
            }
            ledger.count("breathing_estimates_missing", missing);
            ledger.count("occupancy_misclassified", wrong as u64);
            let payload = VitalsJson {
                breathing,
                occupancy_truth: truth.clone(),
                occupancy_detected: detected.clone(),
            };
            (payload, ledger, obs)
        },
        |first| {
            println!("\n-- breathing-rate recovery from a victim's ACK stream --\n");
            for (true_bpm, result) in SUBJECTS_BPM.iter().zip(&first.breathing) {
                let samples = result.samples;
                match &result.estimate {
                    Some(est) => println!(
                        "true {true_bpm:>5.1} bpm → estimated {:>5.1} bpm (confidence {:>5.1}, {samples} samples)",
                        est.bpm, est.confidence
                    ),
                    None => println!("true {true_bpm:>5.1} bpm → no estimate ({samples} samples)"),
                }
            }
        },
    ))
}

/// Occupancy detection on its own channel (seed 77), the same in every
/// trial: each interval's truth and verdict, printed as they are found.
fn occupancy() -> (Vec<bool>, Vec<bool>) {
    println!("\n-- occupancy detection near an unmodified device --\n");
    // 40 s: empty (0–16 s), occupied (16–32 s), empty again.
    let duration = 40_000_000u64;
    let mut script = MotionScript::walk_by(duration, 16_000_000, 32_000_000);
    script.phases[1].intensity = 0.5;
    // 150 Hz CSI stream for the script.
    let intensities: Vec<f64> = (0..duration)
        .step_by(6_667)
        .map(|t| script.intensity_at(t))
        .collect();
    let amplitudes = CsiChannel::new(77).sample_amplitudes(&intensities, 17);
    let intervals = detect_occupancy(&amplitudes, &OccupancyConfig::default());
    let mut truth = Vec::new();
    let mut detected = Vec::new();
    for iv in &intervals {
        let mid_us = (iv.start as u64 + (iv.end - iv.start) as u64 / 2) * 6_667;
        let occupied_truth = script.intensity_at(mid_us) > 0.1;
        truth.push(occupied_truth);
        detected.push(iv.occupied);
        println!(
            "{:>5.1}–{:<5.1}s  activity {:>5.1}%  → {:<8}  (truth: {})",
            iv.start as f64 * 6.667e-3,
            iv.end as f64 * 6.667e-3,
            iv.activity_fraction * 100.0,
            if iv.occupied { "OCCUPIED" } else { "vacant" },
            if occupied_truth { "occupied" } else { "vacant" }
        );
    }
    (truth, detected)
}
