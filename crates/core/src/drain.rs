//! The battery-drain attack (paper §4.2, Figure 6).
//!
//! An ESP8266-class power-save victim associates with an AP and dozes.
//! The attacker bombards it with fake frames: every received fake resets
//! the victim's doze timer and costs RX + ACK-TX energy. Above ~10
//! packets/s the radio never sleeps again.

use crate::attack::Attack;
use crate::injector::{InjectionKind, InjectionPlan};
use polite_wifi_frame::MacAddr;
use polite_wifi_harness::ScenarioBuilder;
use polite_wifi_mac::{Behavior, StationConfig};
use polite_wifi_phy::rate::BitRate;
use polite_wifi_power::{Battery, DrainProjection, PowerProfile, StateDurations};
use polite_wifi_sim::FaultProfile;

/// Configuration of one drain measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryDrainAttack {
    /// Fake-frame rate in packets per second (0 = no attack).
    pub rate_pps: u32,
    /// Frame kind: null data (ACK drain) or RTS (CTS drain — works even
    /// against a hypothetical validating MAC, per §2.2).
    pub kind: InjectionKind,
    /// Warm-up before measurement starts, µs (lets transients settle).
    pub warmup_us: u64,
    /// Measurement duration, µs.
    pub measure_us: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Channel/device fault profile the scenario runs under.
    pub faults: FaultProfile,
}

impl Default for BatteryDrainAttack {
    fn default() -> Self {
        BatteryDrainAttack {
            rate_pps: 900,
            kind: InjectionKind::NullData,
            warmup_us: 3_000_000,
            measure_us: 10_000_000,
            seed: 42,
            faults: FaultProfile::Clean,
        }
    }
}

/// The outcome of one drain measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainMeasurement {
    /// Attack rate.
    pub rate_pps: u32,
    /// Victim radio-state durations over the measurement window.
    pub durations: StateDurations,
    /// Average power under the ESP8266 profile, mW.
    pub average_power_mw: f64,
    /// Fraction of the window the victim slept.
    pub sleep_fraction: f64,
    /// ACKs the victim transmitted during the whole run.
    pub acks_sent: u64,
}

polite_wifi_obs::impl_to_json! { DrainMeasurement {
    rate_pps, durations, average_power_mw, sleep_fraction, acks_sent
} }

impl BatteryDrainAttack {
    /// Runs the attack scenario and measures the victim.
    pub fn run(&self) -> DrainMeasurement {
        let victim_mac: MacAddr = "24:0a:c4:00:00:01".parse().unwrap(); // Espressif OUI
        let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();

        let mut sb = ScenarioBuilder::new().faults(self.faults);
        let ap = sb.access_point(ap_mac, "HomeNet", (0.0, 0.0));
        let mut victim_cfg = StationConfig::client(victim_mac);
        victim_cfg.behavior = Behavior::iot_power_save();
        let victim = sb.station(victim_cfg, (3.0, 0.0));
        sb.link(victim, ap);
        let attacker = sb.client(MacAddr::FAKE, (8.0, 0.0));
        sb.retries(attacker, false);
        let mut sim = sb.build_with_seed(self.seed).sim;
        let plan = InjectionPlan {
            victim: victim_mac,
            forged_ta: MacAddr::FAKE,
            kind: self.kind,
            rate_pps: self.rate_pps,
            start_us: 0,
            duration_us: self.warmup_us + self.measure_us,
            bitrate: BitRate::Mbps1,
        };
        plan.launch(&mut sim, attacker);

        sim.run_until(self.warmup_us);
        let before = sim.node(victim).ledger.snapshot(sim.now_us());
        sim.run_until(self.warmup_us + self.measure_us);
        let after = sim.node(victim).ledger.snapshot(sim.now_us());

        let durations = StateDurations {
            sleep_us: after.sleep_us - before.sleep_us,
            idle_us: after.idle_us - before.idle_us,
            rx_us: after.rx_us - before.rx_us,
            tx_us: after.tx_us - before.tx_us,
        };
        let profile = PowerProfile::esp8266();
        DrainMeasurement {
            rate_pps: self.rate_pps,
            durations,
            average_power_mw: profile.average_power_mw(&durations),
            sleep_fraction: durations.sleep_us as f64 / durations.total_us().max(1) as f64,
            acks_sent: sim.station(victim).stats.acks_sent + sim.station(victim).stats.cts_sent,
        }
    }

    /// Projects the §4.2 battery-life numbers for a measured power draw.
    pub fn project_batteries(measurement: &DrainMeasurement) -> Vec<DrainProjection> {
        vec![
            Battery::logitech_circle2().project(measurement.average_power_mw),
            Battery::blink_xt2().project(measurement.average_power_mw),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(rate_pps: u32) -> DrainMeasurement {
        BatteryDrainAttack {
            rate_pps,
            warmup_us: 2_000_000,
            measure_us: 5_000_000,
            seed: 1,
            ..BatteryDrainAttack::default()
        }
        .run()
    }

    #[test]
    fn baseline_is_about_10mw() {
        let m = quick(0);
        assert!(
            (5.0..15.0).contains(&m.average_power_mw),
            "baseline {} mW",
            m.average_power_mw
        );
        assert!(m.sleep_fraction > 0.9);
        assert_eq!(m.acks_sent, 0);
    }

    #[test]
    fn fifty_pps_pins_radio_awake() {
        let m = quick(50);
        assert!(
            m.average_power_mw > 200.0,
            "50 pps gives {} mW",
            m.average_power_mw
        );
        assert!(m.sleep_fraction < 0.05, "slept {}", m.sleep_fraction);
        assert!(m.acks_sent > 200);
    }

    #[test]
    fn power_grows_with_rate_once_awake() {
        let low = quick(50);
        let high = quick(600);
        assert!(
            high.average_power_mw > low.average_power_mw + 30.0,
            "{} vs {}",
            high.average_power_mw,
            low.average_power_mw
        );
    }

    #[test]
    fn low_rate_mostly_misses_the_dozing_victim() {
        let m = quick(2);
        assert!(
            m.average_power_mw < 60.0,
            "2 pps gives {} mW",
            m.average_power_mw
        );
        assert!(m.sleep_fraction > 0.6, "slept {}", m.sleep_fraction);
    }

    #[test]
    fn rts_drain_works_like_null_drain() {
        // §2.2's fallback: CTS elicitation drains the battery the same
        // way, and would survive even a validating MAC.
        let m = BatteryDrainAttack {
            rate_pps: 50,
            kind: InjectionKind::Rts { nav_us: 248 },
            warmup_us: 2_000_000,
            measure_us: 5_000_000,
            seed: 1,
            faults: FaultProfile::Clean,
        }
        .run();
        assert!(
            m.average_power_mw > 200.0,
            "RTS drain gives {} mW",
            m.average_power_mw
        );
        assert!(m.sleep_fraction < 0.05);
        assert!(m.acks_sent > 200, "CTS count {}", m.acks_sent);
    }

    #[test]
    fn congested_channel_weakens_but_does_not_stop_the_drain() {
        let clean = quick(50);
        let faulty = BatteryDrainAttack {
            rate_pps: 50,
            warmup_us: 2_000_000,
            measure_us: 5_000_000,
            seed: 1,
            faults: FaultProfile::Congested,
            ..BatteryDrainAttack::default()
        }
        .run();
        // Burst loss eats some fakes and some ACKs, so the victim both
        // sleeps a little more and ACKs less — but the attack still
        // lands (the paper's point survives a bad channel).
        assert!(faulty.acks_sent < clean.acks_sent, "{faulty:?}");
        assert!(faulty.acks_sent > clean.acks_sent / 4, "{faulty:?}");
        // And the injected faults never leak into a clean rerun.
        assert_eq!(quick(50), clean);
    }

    #[test]
    fn battery_projection_uses_measured_power() {
        let m = quick(50);
        let projections = BatteryDrainAttack::project_batteries(&m);
        assert_eq!(projections.len(), 2);
        let circle2 = &projections[0];
        assert!((circle2.battery.capacity_mwh - 2400.0).abs() < 1e-9);
        assert!((circle2.attacked_life_hours - 2400.0 / m.average_power_mw).abs() < 1e-9);
    }
}
