//! X1 — extension: the paper's open questions of §4.1, answered on the
//! synthetic channel — breathing-rate estimation and occupancy detection
//! from elicited ACK CSI.

use crate::spec::ScenarioSpec;
use crate::support::compare;
use polite_wifi_core::VitalSignsAttack;
use polite_wifi_harness::{Experiment, RunArgs};
use polite_wifi_phy::csi::CsiChannel;
use polite_wifi_sensing::occupancy::{detect_occupancy, OccupancyConfig};
use polite_wifi_sensing::MotionScript;

struct VitalsJson {
    breathing: Vec<polite_wifi_core::VitalSignsResult>,
    occupancy_truth: Vec<bool>,
    occupancy_detected: Vec<bool>,
}

polite_wifi_obs::impl_to_json! { VitalsJson { breathing, occupancy_truth, occupancy_detected } }

pub fn run(spec: &ScenarioSpec, args: RunArgs) -> std::io::Result<i32> {
    let mut exp = Experiment::start_with(&spec.name, &spec.paper_ref, args);

    // --- Breathing --- (three independent subjects, fanned over the pool)
    println!("\n-- breathing-rate recovery from a victim's ACK stream --\n");
    let seed = exp.seed();
    let faults = exp.args().faults;
    let cases = [12.0f64, 16.0, 22.0];
    let breathing = exp.runner().run_indexed(cases.len(), |i| {
        VitalSignsAttack {
            true_bpm: cases[i],
            duration_us: 60_000_000,
            seed: seed + i as u64,
            faults,
            ..VitalSignsAttack::default()
        }
        .run()
    });
    for result in &breathing {
        exp.obs.add("sensing.csi_samples", result.samples as u64);
    }
    for (true_bpm, result) in cases.iter().zip(&breathing) {
        let Some(est) = result.estimate.as_ref() else {
            assert!(!faults.is_clean(), "clean series must be long enough");
            println!(
                "true {true_bpm:>5.1} bpm → no estimate ({} samples under faults)",
                result.samples
            );
            continue;
        };
        println!(
            "true {true_bpm:>5.1} bpm → estimated {:>5.1} bpm (confidence {:>5.1}, {} samples)",
            est.bpm, est.confidence, result.samples
        );
        if faults.is_clean() {
            assert!((est.bpm - true_bpm).abs() <= 1.0, "estimate off: {est:?}");
        }
        exp.metrics
            .record("bpm_abs_error", (est.bpm - true_bpm).abs());
    }
    compare(
        "breathing rate recoverable",
        "open question",
        "yes, ±0.5 bpm on this channel",
    );

    // --- Occupancy ---
    println!("\n-- occupancy detection near an unmodified device --\n");
    // 40 s: empty (0–16 s), occupied (16–32 s), empty again.
    let duration = 40_000_000u64;
    let mut script = MotionScript::idle(duration);
    script.phases = vec![
        polite_wifi_sensing::Phase {
            start_us: 0,
            end_us: 16_000_000,
            label: "idle".into(),
            intensity: 0.0,
        },
        polite_wifi_sensing::Phase {
            start_us: 16_000_000,
            end_us: 32_000_000,
            label: "walk".into(),
            intensity: 0.5,
        },
        polite_wifi_sensing::Phase {
            start_us: 32_000_000,
            end_us: duration,
            label: "idle".into(),
            intensity: 0.0,
        },
    ];
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
    let correct = truth.iter().zip(&detected).filter(|(t, d)| t == d).count();
    println!();
    compare(
        "occupancy detectable",
        "open question",
        &format!("{correct}/{} intervals correct", truth.len()),
    );
    assert_eq!(correct, truth.len(), "occupancy misclassification");

    exp.finish_with_status(
        &spec.slug,
        &VitalsJson {
            breathing,
            occupancy_truth: truth,
            occupancy_detected: detected,
        },
    )
}
