//! E7 — Figure 6: power consumption vs fake-frame rate.
//!
//! Sweeps injection rates against an ESP8266 in power-save mode and
//! records the paper's three anchors as `power_mw_at_{0,20,900}pps`
//! (~10 mW idle, ~230 mW past the 10 pps knee, ~360 mW at 900 pps),
//! the 900 pps / idle `increase_factor` (35× in the paper) and the
//! `slope_gap_mw_per_pps` between the 100–500 and 500–900 pps slopes.
//! The spec's assertions bound them. With `--trials N` the sweep
//! repeats on N derived seeds (fanned over the worker pool) and every
//! anchor is taken from the Monte-Carlo means.

use crate::registry::Output;
use crate::spec::ScenarioSpec;
use crate::support::bar;
use polite_wifi_core::{BatteryDrainAttack, DrainMeasurement};
use polite_wifi_harness::Experiment;

struct Fig6Json {
    rates_pps: Vec<u32>,
    mean_power_mw: Vec<f64>,
    mean_sleep_fraction: Vec<f64>,
    first_trial: Vec<DrainMeasurement>,
}

polite_wifi_obs::impl_to_json! { Fig6Json {
    rates_pps, mean_power_mw, mean_sleep_fraction, first_trial
} }

pub fn run(_: &ScenarioSpec, exp: &mut Experiment) -> std::io::Result<Output> {
    let args = exp.args();

    let rates = [
        0u32, 1, 2, 5, 8, 10, 15, 20, 50, 100, 200, 300, 500, 700, 900,
    ];
    let sweeps: Vec<_> = exp
        .run_trials(|t| BatteryDrainAttack::sweep_with_faults(&rates, t.seed, args.faults))
        .into_iter()
        .flatten()
        .collect();
    if sweeps.is_empty() {
        println!("\n(every trial degraded — writing a failure-only envelope)");
        return Ok(Output::new(Fig6Json {
            rates_pps: rates.to_vec(),
            mean_power_mw: Vec::new(),
            mean_sleep_fraction: Vec::new(),
            first_trial: Vec::new(),
        }));
    }

    for sweep in &sweeps {
        for m in sweep {
            exp.obs.add("sim.acks_received", m.acks_sent);
            polite_wifi_power::observe::record_state_durations(
                &mut exp.obs,
                "power.victim",
                &m.durations,
            );
        }
    }
    let n = sweeps.len() as f64;
    let mean_power: Vec<f64> = (0..rates.len())
        .map(|ri| sweeps.iter().map(|s| s[ri].average_power_mw).sum::<f64>() / n)
        .collect();
    let mean_sleep: Vec<f64> = (0..rates.len())
        .map(|ri| sweeps.iter().map(|s| s[ri].sleep_fraction).sum::<f64>() / n)
        .collect();
    for (ri, &rate) in rates.iter().enumerate() {
        exp.metrics
            .record(&format!("power_mw_at_{rate}pps"), mean_power[ri]);
    }

    println!("\n{:>8} {:>10} {:>8}  power", "pps", "mW", "sleep%");
    for (ri, &rate) in rates.iter().enumerate() {
        println!(
            "{:>8} {:>10.1} {:>8.1}  {}",
            rate,
            mean_power[ri],
            mean_sleep[ri] * 100.0,
            bar(mean_power[ri], 400.0, 36)
        );
    }

    let at = |pps: u32| {
        let ri = rates.iter().position(|&r| r == pps).expect("rate measured");
        mean_power[ri]
    };
    exp.metrics.record("increase_factor", at(900) / at(0));
    // Linearity above the knee, as the paper notes.
    let slope1 = (at(500) - at(100)) / 400.0;
    let slope2 = (at(900) - at(500)) / 400.0;
    exp.metrics
        .record("slope_gap_mw_per_pps", (slope1 - slope2).abs());

    let first_trial = sweeps.into_iter().next().expect("at least one trial");
    Ok(Output::new(Fig6Json {
        rates_pps: rates.to_vec(),
        mean_power_mw: mean_power,
        mean_sleep_fraction: mean_sleep,
        first_trial,
    }))
}
