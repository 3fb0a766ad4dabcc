//! E9 — §4.3: single-device sensing. One modified hub, several
//! unmodified neighbours, motion events recovered at their scripted
//! times (the Figure 5 caption's "sharp changes at times 9 and 32"),
//! recorded per target as `target{i}_motion_windows`. Each trial runs
//! the hub at its own seed; the payload is the first trial's report.

use super::run_trials;
use crate::registry::Output;
use crate::spec::ScenarioSpec;
use polite_wifi_core::SensingHub;
use polite_wifi_harness::{Experiment, MetricsLedger};
use polite_wifi_obs::Obs;
use polite_wifi_sensing::MotionScript;

pub fn run(_: &ScenarioSpec, exp: &mut Experiment) -> std::io::Result<Output> {
    // One target with motion at 9 s and 32 s, two more targets with
    // their own ground truth, all sensed by a single modified hub.
    let duration = 40_000_000u64;
    // Walks at 9–11 s and 32–34 s: the first walk-by up to its walk,
    // then the second's phases, its idle lead-in starting at 11 s.
    let mut fig5_caption = MotionScript::walk_by(duration, 9_000_000, 11_000_000);
    let mut second = MotionScript::walk_by(duration, 32_000_000, 34_000_000).phases;
    second[0].start_us = 11_000_000;
    fig5_caption.phases.truncate(2);
    fig5_caption.phases.extend(second);
    let scripts = vec![
        fig5_caption,
        MotionScript::idle(duration),
        MotionScript::walk_by(duration, 20_000_000, 23_000_000),
    ];

    let hub = SensingHub {
        faults: exp.args().faults,
        ..SensingHub::default()
    };
    Ok(run_trials(
        exp,
        |t| {
            let report = SensingHub {
                seed: t.seed,
                ..hub
            }
            .run(&scripts);
            let (mut ledger, mut obs) = (MetricsLedger::new(), Obs::new());
            for (i, target) in report.targets.iter().enumerate() {
                ledger.record("samples_per_target", target.samples as f64);
                let windows = target.motion_windows_us.len() as u64;
                ledger.count(&format!("target{i}_motion_windows"), windows);
                obs.add("sensing.csi_samples", target.samples as u64);
                obs.add("sensing.motion_windows", windows);
            }
            (report, ledger, obs)
        },
        |report| {
            println!(
                "\ndevices modified: {}   participating: {}   rate per target: {} pps\n",
                report.devices_modified, report.devices_participating, hub.rate_pps_per_target
            );
            for (i, t) in report.targets.iter().enumerate() {
                let spans: Vec<String> = (t.motion_windows_us.iter())
                    .map(|(s, e)| format!("{:.1}–{:.1}s", *s as f64 / 1e6, *e as f64 / 1e6))
                    .collect();
                println!(
                    "target {i} ({})  {:>5} samples  motion: {}",
                    t.target,
                    t.samples,
                    if spans.is_empty() {
                        "none".into()
                    } else {
                        spans.join(", ")
                    }
                );
            }
        },
    ))
}
