//! E8 — §4.2's battery-life projections: the Logitech Circle 2 and
//! Amazon Blink XT2 under a 900 pps attack, recorded as
//! `circle2_attacked_life_h` and `blink_xt2_attacked_life_h` (the paper:
//! ~6.7 h and ~16.7 h). With `--trials N` the measurement repeats on N
//! derived seeds; `power_mw_at_900pps` is the Monte-Carlo mean, and the
//! projections use the first trial.

use crate::registry::Output;
use crate::spec::ScenarioSpec;
use polite_wifi_core::BatteryDrainAttack;
use polite_wifi_harness::Experiment;

pub fn run(_: &ScenarioSpec, exp: &mut Experiment) -> std::io::Result<Output> {
    let args = exp.args();

    let measurements: Vec<_> = exp
        .run_trials(|t| {
            BatteryDrainAttack {
                rate_pps: 900,
                seed: t.seed,
                faults: args.faults,
                ..BatteryDrainAttack::default()
            }
            .run()
        })
        .into_iter()
        .flatten()
        .collect();
    if measurements.is_empty() {
        println!("\n(every trial degraded — writing a failure-only envelope)");
        return Ok(Output::new(Vec::<polite_wifi_power::DrainProjection>::new()));
    }
    for m in &measurements {
        exp.obs.add("sim.acks_received", m.acks_sent);
        polite_wifi_power::observe::record_state_durations(
            &mut exp.obs,
            "power.victim",
            &m.durations,
        );
        polite_wifi_power::observe::record_power(
            &mut exp.obs,
            "power.victim",
            &polite_wifi_power::PowerProfile::esp8266(),
            &m.durations,
        );
    }
    let mean_mw =
        measurements.iter().map(|m| m.average_power_mw).sum::<f64>() / measurements.len() as f64;
    println!(
        "\nmeasured victim power at 900 pps: {:.1} mW over {} trial(s) (paper: ~360 mW)\n",
        mean_mw,
        measurements.len()
    );
    exp.metrics.record("power_mw_at_900pps", mean_mw);

    let m = &measurements[0];
    let projections = BatteryDrainAttack::project_batteries(m);
    println!(
        "{:<20} {:>9} {:>14} {:>13} {:>9}",
        "device", "mWh", "advertised", "under attack", "speedup"
    );
    for p in &projections {
        println!(
            "{:<20} {:>9.0} {:>12.0} h {:>11.1} h {:>8.0}x",
            p.battery.name,
            p.battery.capacity_mwh,
            p.battery.advertised_life_hours,
            p.attacked_life_hours,
            p.speedup
        );
    }

    exp.metrics.record(
        "circle2_attacked_life_h",
        projections[0].attacked_life_hours,
    );
    exp.metrics.record(
        "blink_xt2_attacked_life_h",
        projections[1].attacked_life_hours,
    );
    Ok(Output::new(projections))
}
