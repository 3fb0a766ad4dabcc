//! E6 — Figure 5: CSI amplitude of ACKs reveals activity and keystrokes.
//!
//! 150 fake frames/s for 45 s against a tablet; subcarrier-17 amplitude
//! separates ground / pickup / hold / typing, and keystroke bursts are
//! individually detectable. The claims are recorded as margins of the
//! phases' standard deviations (`pickup_std_minus_10x_idle`,
//! `typing_std_minus_1_3x_hold`: positive when the phases separate) and
//! the `keystroke_hit_share` of scripted keystrokes detected. Each trial
//! runs the attack at its own seed; the payload is the first trial's.

use super::run_trials;
use crate::registry::Output;
use crate::spec::ScenarioSpec;
use crate::support::bar;
use polite_wifi_core::keystroke::PhaseStat;
use polite_wifi_core::KeystrokeAttack;
use polite_wifi_harness::{Experiment, MetricsLedger};
use polite_wifi_obs::Obs;

/// The payload: phase stats and score, without the raw series.
struct Fig5Json {
    /// Printed, not written.
    fakes_sent: u64,
    acks_measured: u64,
    sample_rate_hz: f64,
    phase_stats: Vec<PhaseStat>,
    keystroke_score: (usize, usize, usize),
    keystrokes_truth: usize,
}

polite_wifi_obs::impl_to_json! { Fig5Json {
    acks_measured, sample_rate_hz, phase_stats, keystroke_score, keystrokes_truth
} }

pub fn run(_: &ScenarioSpec, exp: &mut Experiment) -> std::io::Result<Output> {
    let faults = exp.args().faults;
    Ok(run_trials(
        exp,
        |t| {
            let result = KeystrokeAttack {
                faults,
                ..KeystrokeAttack::figure5(t.seed)
            }
            .run();
            let (mut ledger, mut obs) = (MetricsLedger::new(), Obs::new());
            ledger.record("acks_measured", result.acks_measured as f64);
            ledger.record("sample_rate_hz", result.sample_rate_hz);
            obs.add("sim.acks_received", result.acks_measured);
            let (hits, _, false_alarms) = result.keystroke_score;
            obs.add("sensing.keystrokes_detected", hits as u64);
            obs.add("sensing.keystroke_false_alarms", false_alarms as u64);

            // Figure 5 as numbers: per-phase variability of subcarrier 17.
            let std_of = |label: &str| {
                (result.phase_stats.iter())
                    .filter(|p| p.label == label)
                    .map(|p| p.std_dev)
                    .fold(0.0, f64::max)
            };
            let (idle, pickup) = (std_of("idle"), std_of("pickup"));
            let (hold, typing) = (std_of("hold"), std_of("typing"));
            ledger.record("pickup_std_minus_10x_idle", pickup - 10.0 * idle);
            ledger.record("typing_std_minus_1_3x_hold", typing - 1.3 * hold);
            let share = hits as f64 / result.keystrokes_truth as f64;
            ledger.record("keystroke_hit_share", share);
            let payload = Fig5Json {
                fakes_sent: result.fakes_sent,
                acks_measured: result.acks_measured,
                sample_rate_hz: result.sample_rate_hz,
                phase_stats: result.phase_stats,
                keystroke_score: result.keystroke_score,
                keystrokes_truth: result.keystrokes_truth,
            };
            (payload, ledger, obs)
        },
        |first| {
            println!(
                "\nfakes: {}   ACKs measured: {}   CSI rate: {:.1} Hz (paper: 150/s)\n",
                first.fakes_sent, first.acks_measured, first.sample_rate_hz
            );
            let stats = &first.phase_stats;
            let max_std = stats.iter().map(|p| p.std_dev).fold(1e-9, f64::max);
            println!(
                "{:<10} {:>7}..{:<5} {:>9}  variability",
                "phase", "start", "end", "std"
            );
            for p in stats {
                println!(
                    "{:<10} {:>6.1}s..{:<4.1}s {:>9.4}  {}",
                    p.label,
                    p.start_us as f64 / 1e6,
                    p.end_us as f64 / 1e6,
                    p.std_dev,
                    bar(p.std_dev, max_std, 32)
                );
            }
        },
    ))
}
