//! Battery life under attack — the §4.2 projections.

/// A battery-operated WiFi product.
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    /// Product name.
    pub name: String,
    /// Battery capacity in milliwatt-hours.
    pub capacity_mwh: f64,
    /// The vendor's advertised battery life in hours (for contrast).
    pub advertised_life_hours: f64,
}

polite_wifi_obs::impl_to_json! { Battery { name, capacity_mwh, advertised_life_hours } }

impl Battery {
    /// Logitech Circle 2 wireless security camera: 2400 mWh, advertised
    /// "up to 3 months".
    pub fn logitech_circle2() -> Battery {
        Battery {
            name: "Logitech Circle 2".into(),
            capacity_mwh: 2400.0,
            advertised_life_hours: 3.0 * 30.0 * 24.0,
        }
    }

    /// Amazon Blink XT2 security camera: 6000 mWh, advertised "up to
    /// 2 years".
    pub fn blink_xt2() -> Battery {
        Battery {
            name: "Amazon Blink XT2".into(),
            capacity_mwh: 6000.0,
            advertised_life_hours: 2.0 * 365.0 * 24.0,
        }
    }

    /// Hours until empty at a sustained average power draw.
    pub fn life_hours(&self, average_power_mw: f64) -> f64 {
        if average_power_mw <= 0.0 {
            return f64::INFINITY;
        }
        self.capacity_mwh / average_power_mw
    }

    /// Projects the impact of an attack drawing `attacked_mw` on this
    /// battery.
    pub fn project(&self, attacked_mw: f64) -> DrainProjection {
        let attacked_life_hours = self.life_hours(attacked_mw);
        DrainProjection {
            battery: self.clone(),
            attacked_mw,
            attacked_life_hours,
            speedup: self.advertised_life_hours / attacked_life_hours,
        }
    }
}

/// The outcome of a battery-drain projection.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainProjection {
    /// The product attacked.
    pub battery: Battery,
    /// Sustained power under attack, mW.
    pub attacked_mw: f64,
    /// Hours until the battery is empty under attack.
    pub attacked_life_hours: f64,
    /// How many times faster the battery drains than advertised.
    pub speedup: f64,
}

polite_wifi_obs::impl_to_json! { DrainProjection {
    battery, attacked_mw, attacked_life_hours, speedup
} }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle2_drains_in_about_6_7_hours_at_360mw() {
        // The paper's §4.2 numbers: 2400 mWh / 360 mW ≈ 6.7 h.
        let life = Battery::logitech_circle2().life_hours(360.0);
        assert!((6.6..6.8).contains(&life), "life {life} h");
    }

    #[test]
    fn blink_xt2_drains_in_about_16_7_hours_at_360mw() {
        // 6000 mWh / 360 mW ≈ 16.7 h.
        let life = Battery::blink_xt2().life_hours(360.0);
        assert!((16.6..16.8).contains(&life), "life {life} h");
    }

    #[test]
    fn projection_speedup_is_dramatic() {
        let p = Battery::blink_xt2().project(360.0);
        // Advertised 2 years vs ~17 hours: three orders of magnitude.
        assert!(p.speedup > 1000.0, "speedup {}", p.speedup);
        assert_eq!(p.battery.name, "Amazon Blink XT2");
    }

    #[test]
    fn zero_power_is_infinite_life() {
        assert!(Battery::logitech_circle2().life_hours(0.0).is_infinite());
    }

    #[test]
    fn life_scales_inversely_with_power() {
        let b = Battery::logitech_circle2();
        assert!((b.life_hours(100.0) / b.life_hours(200.0) - 2.0).abs() < 1e-9);
    }
}
