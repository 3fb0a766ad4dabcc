//! Radio power profiles and energy integration.

/// Time spent in each radio state (mirrors the simulator's ledger totals;
/// kept as its own type so this crate stays independent of the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateDurations {
    /// Microseconds asleep.
    pub sleep_us: u64,
    /// Microseconds awake and idle.
    pub idle_us: u64,
    /// Microseconds receiving.
    pub rx_us: u64,
    /// Microseconds transmitting.
    pub tx_us: u64,
}

polite_wifi_obs::impl_to_json! { StateDurations { sleep_us, idle_us, rx_us, tx_us } }

impl StateDurations {
    /// Total covered time.
    pub fn total_us(&self) -> u64 {
        self.sleep_us + self.idle_us + self.rx_us + self.tx_us
    }
}

/// Power draw per radio state, in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Power while dozing.
    pub sleep_mw: f64,
    /// Power while awake and idle (radio on, listening).
    pub idle_mw: f64,
    /// Power while receiving.
    pub rx_mw: f64,
    /// Power while transmitting.
    pub tx_mw: f64,
}

impl PowerProfile {
    /// An ESP8266-class low-power WiFi module in modem-sleep power save —
    /// the target device of the paper's drain experiment. Values derive
    /// from the ESP8266EX datasheet operating currents at 3.3 V (modem
    /// sleep ≈ 1 mA, RX ≈ 56 mA, TX ≈ 170–215 mA) with the idle/beacon
    /// duty folded in so the simulated Figure 6 lands on the paper's
    /// 10 / 230 / 360 mW anchors.
    pub fn esp8266() -> PowerProfile {
        PowerProfile {
            name: "ESP8266 (modem-sleep)",
            sleep_mw: 3.0,
            idle_mw: 230.0,
            rx_mw: 260.0,
            tx_mw: 660.0,
        }
    }

    /// A generic always-on AP radio (no power save), for contrast.
    pub fn always_on_ap() -> PowerProfile {
        PowerProfile {
            name: "always-on AP",
            sleep_mw: 1000.0, // APs do not sleep; keep the field sane
            idle_mw: 1000.0,
            rx_mw: 1100.0,
            tx_mw: 1800.0,
        }
    }

    /// Energy consumed over the given durations, in milliwatt-hours.
    pub fn energy_mwh(&self, d: &StateDurations) -> f64 {
        let us_to_h = 1.0 / 3_600e6;
        (self.sleep_mw * d.sleep_us as f64
            + self.idle_mw * d.idle_us as f64
            + self.rx_mw * d.rx_us as f64
            + self.tx_mw * d.tx_us as f64)
            * us_to_h
    }

    /// Average power over the given durations, in milliwatts.
    pub fn average_power_mw(&self, d: &StateDurations) -> f64 {
        let total = d.total_us();
        if total == 0 {
            return 0.0;
        }
        (self.sleep_mw * d.sleep_us as f64
            + self.idle_mw * d.idle_us as f64
            + self.rx_mw * d.rx_us as f64
            + self.tx_mw * d.tx_us as f64)
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_second(sleep: u64, idle: u64, rx: u64, tx: u64) -> StateDurations {
        let d = StateDurations {
            sleep_us: sleep,
            idle_us: idle,
            rx_us: rx,
            tx_us: tx,
        };
        assert_eq!(d.total_us(), 1_000_000);
        d
    }

    #[test]
    fn sleeping_second_costs_sleep_power() {
        let p = PowerProfile::esp8266();
        let d = one_second(1_000_000, 0, 0, 0);
        assert!((p.average_power_mw(&d) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn beacon_duty_cycle_yields_paper_baseline() {
        // Steady-state power save: ~3 ms beacon window per 102.4 ms.
        let p = PowerProfile::esp8266();
        let awake = 1_000_000 * 3 / 102; // ≈ 29,411 µs
        let d = one_second(1_000_000 - awake, awake, 0, 0);
        let avg = p.average_power_mw(&d);
        assert!(
            (8.0..12.0).contains(&avg),
            "baseline {avg} mW should be ≈10 mW"
        );
    }

    #[test]
    fn radio_pinned_awake_costs_about_230mw() {
        let p = PowerProfile::esp8266();
        let d = one_second(0, 1_000_000, 0, 0);
        assert!((p.average_power_mw(&d) - 230.0).abs() < 1e-9);
    }

    #[test]
    fn nine_hundred_pps_costs_about_360mw() {
        // 900 exchanges/s: fake frame RX (416 µs) + ACK TX (304 µs) each.
        let p = PowerProfile::esp8266();
        let rx = 900 * 416;
        let tx = 900 * 304;
        let d = one_second(0, 1_000_000 - rx - tx, rx, tx);
        let avg = p.average_power_mw(&d);
        assert!(
            (345.0..375.0).contains(&avg),
            "900 pps gives {avg} mW, expected ≈360"
        );
    }

    #[test]
    fn thirty_five_x_increase_reproduced() {
        let p = PowerProfile::esp8266();
        let awake = 1_000_000 * 3 / 102;
        let baseline = p.average_power_mw(&one_second(1_000_000 - awake, awake, 0, 0));
        let rx = 900 * 416;
        let tx = 900 * 304;
        let attacked = p.average_power_mw(&one_second(0, 1_000_000 - rx - tx, rx, tx));
        let factor = attacked / baseline;
        assert!(
            (30.0..40.0).contains(&factor),
            "drain factor {factor}, paper says 35x"
        );
    }

    #[test]
    fn energy_matches_power_times_time() {
        let p = PowerProfile::esp8266();
        let d = StateDurations {
            sleep_us: 0,
            idle_us: 3_600e6 as u64, // one hour idle
            rx_us: 0,
            tx_us: 0,
        };
        assert!((p.energy_mwh(&d) - 230.0).abs() < 1e-6);
    }

    #[test]
    fn empty_durations_are_zero() {
        let p = PowerProfile::esp8266();
        assert_eq!(p.average_power_mw(&StateDurations::default()), 0.0);
        assert_eq!(p.energy_mwh(&StateDurations::default()), 0.0);
    }

    #[test]
    fn power_ordering_within_profile() {
        for p in [PowerProfile::esp8266(), PowerProfile::always_on_ap()] {
            assert!(p.sleep_mw <= p.idle_mw);
            assert!(p.idle_mw <= p.rx_mw);
            assert!(p.rx_mw <= p.tx_mw);
        }
    }
}
