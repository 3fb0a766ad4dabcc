//! E6 — Figure 5: CSI amplitude of ACKs reveals activity and keystrokes.
//!
//! 150 fake frames/s for 45 s against a tablet; subcarrier-17 amplitude
//! separates ground / pickup / hold / typing, and keystroke bursts are
//! individually detectable. The claims are recorded as margins of the
//! phases' standard deviations (`pickup_std_minus_10x_idle`,
//! `typing_std_minus_1_3x_hold`: positive when the phases separate) and
//! the `keystroke_hit_share` of scripted keystrokes detected.

use crate::registry::Output;
use crate::spec::ScenarioSpec;
use crate::support::bar;
use polite_wifi_core::KeystrokeAttack;
use polite_wifi_harness::Experiment;

pub fn run(_: &ScenarioSpec, exp: &mut Experiment) -> std::io::Result<Output> {
    let args = exp.args();
    let attack = KeystrokeAttack {
        faults: args.faults,
        ..KeystrokeAttack::figure5(exp.seed())
    };
    let result = attack.run();

    println!(
        "\nfakes: {}   ACKs measured: {}   CSI rate: {:.1} Hz (paper: 150/s)\n",
        result.fakes_sent, result.acks_measured, result.sample_rate_hz
    );
    exp.metrics
        .record("acks_measured", result.acks_measured as f64);
    exp.metrics.record("sample_rate_hz", result.sample_rate_hz);
    exp.obs.add("sim.acks_received", result.acks_measured);
    exp.obs.add(
        "sensing.keystrokes_detected",
        result.keystroke_score.0 as u64,
    );
    exp.obs.add(
        "sensing.keystroke_false_alarms",
        result.keystroke_score.2 as u64,
    );

    // Figure 5 as numbers: per-phase variability of subcarrier 17.
    let max_std = result
        .phase_stats
        .iter()
        .map(|p| p.std_dev)
        .fold(1e-9, f64::max);
    println!(
        "{:<10} {:>7}..{:<5} {:>9}  variability",
        "phase", "start", "end", "std"
    );
    for p in &result.phase_stats {
        println!(
            "{:<10} {:>6.1}s..{:<4.1}s {:>9.4}  {}",
            p.label,
            p.start_us as f64 / 1e6,
            p.end_us as f64 / 1e6,
            p.std_dev,
            bar(p.std_dev, max_std, 32)
        );
    }

    let std_of = |label: &str| {
        result
            .phase_stats
            .iter()
            .filter(|p| p.label == label)
            .map(|p| p.std_dev)
            .fold(0.0, f64::max)
    };
    let idle = std_of("idle");
    let pickup = std_of("pickup");
    let hold = std_of("hold");
    let typing = std_of("typing");

    exp.metrics
        .record("pickup_std_minus_10x_idle", pickup - 10.0 * idle);
    exp.metrics
        .record("typing_std_minus_1_3x_hold", typing - 1.3 * hold);
    let hits = result.keystroke_score.0;
    let share = hits as f64 / result.keystrokes_truth as f64;
    exp.metrics.record("keystroke_hit_share", share);

    // Keep the JSON small: drop the raw series, keep phase stats + score.
    struct Fig5Json {
        acks_measured: u64,
        sample_rate_hz: f64,
        phase_stats: Vec<polite_wifi_core::keystroke::PhaseStat>,
        keystroke_score: (usize, usize, usize),
        keystrokes_truth: usize,
    }
    polite_wifi_obs::impl_to_json! { Fig5Json {
        acks_measured, sample_rate_hz, phase_stats, keystroke_score, keystrokes_truth
    } }
    Ok(Output::new(Fig5Json {
        acks_measured: result.acks_measured,
        sample_rate_hz: result.sample_rate_hz,
        phase_stats: result.phase_stats,
        keystroke_score: result.keystroke_score,
        keystrokes_truth: result.keystrokes_truth,
    }))
}
