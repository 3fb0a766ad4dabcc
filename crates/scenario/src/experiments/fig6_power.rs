//! E7 — Figure 6: power consumption vs fake-frame rate.
//!
//! Sweeps injection rates against an ESP8266 in power-save mode and
//! records the paper's three anchors as `power_mw_at_{0,20,900}pps`
//! (~10 mW idle, ~230 mW past the 10 pps knee, ~360 mW at 900 pps),
//! the 900 pps / idle `increase_factor` (35× in the paper) and the
//! `slope_gap_mw_per_pps` between the 100–500 and 500–900 pps slopes.
//! The spec's assertions bound them. One trial sweeps every rate at the
//! trial's seed, fanned over the trial's workers; with `--trials N` each
//! metric is the mean of the N trials' values, and the payload is the
//! first trial's sweep.

use super::run_trials;
use crate::registry::Output;
use crate::spec::ScenarioSpec;
use crate::support::bar;
use polite_wifi_core::{BatteryDrainAttack, DrainMeasurement};
use polite_wifi_harness::{Experiment, MetricsLedger, Runner};
use polite_wifi_obs::Obs;
use polite_wifi_power::observe;

const RATES: [u32; 15] = [0, 1, 2, 5, 8, 10, 15, 20, 50, 100, 200, 300, 500, 700, 900];

/// The first trial's sweep: per rate, the victim's power and sleep
/// fraction averaged over the measurement window, then each raw
/// measurement.
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
    let faults = exp.args().faults;
    Ok(run_trials(
        exp,
        |t| {
            // The rates are independent, so they fan out; the sweep
            // comes back in rate order whatever the worker count.
            let sweep = Runner::new(t.workers).run_indexed(RATES.len(), |i| {
                BatteryDrainAttack {
                    rate_pps: RATES[i],
                    seed: t.seed,
                    faults,
                    ..BatteryDrainAttack::default()
                }
                .run()
            });
            let (mut ledger, mut obs) = (MetricsLedger::new(), Obs::new());
            for m in &sweep {
                obs.add("sim.acks_received", m.acks_sent);
                observe::record_state_durations(&mut obs, "power.victim", &m.durations);
                let metric = format!("power_mw_at_{}pps", m.rate_pps);
                ledger.record(&metric, m.average_power_mw);
            }
            let at = |pps: u32| {
                let m = sweep.iter().find(|m| m.rate_pps == pps);
                m.expect("rate measured").average_power_mw
            };
            ledger.record("increase_factor", at(900) / at(0));
            // Linearity above the knee, as the paper notes.
            let slope1 = (at(500) - at(100)) / 400.0;
            let slope2 = (at(900) - at(500)) / 400.0;
            ledger.record("slope_gap_mw_per_pps", (slope1 - slope2).abs());
            let payload = Fig6Json {
                rates_pps: RATES.to_vec(),
                mean_power_mw: sweep.iter().map(|m| m.average_power_mw).collect(),
                mean_sleep_fraction: sweep.iter().map(|m| m.sleep_fraction).collect(),
                first_trial: sweep,
            };
            (payload, ledger, obs)
        },
        |first| {
            println!("\n{:>8} {:>10} {:>8}  power", "pps", "mW", "sleep%");
            for m in &first.first_trial {
                println!(
                    "{:>8} {:>10.1} {:>8.1}  {}",
                    m.rate_pps,
                    m.average_power_mw,
                    m.sleep_fraction * 100.0,
                    bar(m.average_power_mw, 400.0, 36)
                );
            }
        },
    ))
}
