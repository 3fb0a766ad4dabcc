//! E8 — §4.2's battery-life projections: the Logitech Circle 2 and
//! Amazon Blink XT2 under a 900 pps attack, recorded as
//! `circle2_attacked_life_h` and `blink_xt2_attacked_life_h` (the paper:
//! ~6.7 h and ~16.7 h). One trial measures the victim at the trial's
//! seed and projects both batteries from that measurement; with
//! `--trials N` each metric is the mean of the N trials' values, and the
//! payload is the first trial's projections.

use super::run_trials;
use crate::registry::Output;
use crate::spec::ScenarioSpec;
use polite_wifi_core::BatteryDrainAttack;
use polite_wifi_harness::{Experiment, MetricsLedger};
use polite_wifi_obs::Obs;
use polite_wifi_power::{observe, PowerProfile};

pub fn run(_: &ScenarioSpec, exp: &mut Experiment) -> std::io::Result<Output> {
    let faults = exp.args().faults;
    Ok(run_trials(
        exp,
        |t| {
            let m = BatteryDrainAttack {
                rate_pps: 900,
                seed: t.seed,
                faults,
                ..BatteryDrainAttack::default()
            }
            .run();
            let (mut ledger, mut obs) = (MetricsLedger::new(), Obs::new());
            obs.add("sim.acks_received", m.acks_sent);
            observe::record_state_durations(&mut obs, "power.victim", &m.durations);
            let esp8266 = PowerProfile::esp8266();
            observe::record_power(&mut obs, "power.victim", &esp8266, &m.durations);
            ledger.record("power_mw_at_900pps", m.average_power_mw);
            let projections = BatteryDrainAttack::project_batteries(&m);
            let life = |i: usize| projections[i].attacked_life_hours;
            ledger.record("circle2_attacked_life_h", life(0));
            ledger.record("blink_xt2_attacked_life_h", life(1));
            (projections, ledger, obs)
        },
        |projections| {
            println!(
                "\nmeasured victim power at 900 pps: {:.1} mW (paper: ~360 mW)\n",
                projections[0].attacked_mw
            );
            println!(
                "{:<20} {:>9} {:>14} {:>13} {:>9}",
                "device", "mWh", "advertised", "under attack", "speedup"
            );
            for p in projections {
                println!(
                    "{:<20} {:>9.0} {:>12.0} h {:>11.1} h {:>8.0}x",
                    p.battery.name,
                    p.battery.capacity_mwh,
                    p.battery.advertised_life_hours,
                    p.attacked_life_hours,
                    p.speedup
                );
            }
        },
    ))
}
