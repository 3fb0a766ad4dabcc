//! Per-device profiles, including the Table 1 test matrix.

use polite_wifi_mac::{Behavior, Role};
use polite_wifi_phy::band::Band;

/// The 802.11 amendment a device speaks (as Table 1 lists it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WifiStandard {
    /// 802.11n.
    N,
    /// 802.11ac.
    Ac,
}

impl WifiStandard {
    /// The label the paper's table uses.
    pub fn label(self) -> &'static str {
        match self {
            WifiStandard::N => "11n",
            WifiStandard::Ac => "11ac",
        }
    }
}

/// A concrete device profile: what the survey knows about one node.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Marketing/device name.
    pub device: String,
    /// WiFi chipset/module.
    pub chipset: String,
    /// Vendor name (for Table 2 attribution).
    pub vendor: String,
    /// 802.11 standard.
    pub standard: WifiStandard,
    /// Operating band.
    pub band: Band,
    /// Client or AP.
    pub role: Role,
    /// MAC behaviour quirks.
    pub behavior: Behavior,
}

/// The five devices of Table 1 (plus the tablet victim of Section 2's
/// first experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table1Device {
    /// MSI GE62 laptop — Intel AC 3160, 11ac.
    MsiGe62Laptop,
    /// Ecobee3 thermostat — Atheros, 11n.
    Ecobee3Thermostat,
    /// Surface Pro 2017 — Marvell 88W8897, 11ac.
    SurfacePro2017,
    /// Samsung Galaxy S8 — Murata KM5D18098, 11ac.
    GalaxyS8,
    /// Google Wifi AP — Qualcomm IPQ 4019, 11ac.
    GoogleWifiAp,
}

impl Table1Device {
    /// All five rows of Table 1, in the paper's order.
    pub const ALL: [Table1Device; 5] = [
        Table1Device::MsiGe62Laptop,
        Table1Device::Ecobee3Thermostat,
        Table1Device::SurfacePro2017,
        Table1Device::GalaxyS8,
        Table1Device::GoogleWifiAp,
    ];

    /// The full profile for this row.
    pub fn profile(self) -> DeviceProfile {
        match self {
            Table1Device::MsiGe62Laptop => DeviceProfile {
                device: "MSI GE62 laptop".into(),
                chipset: "Intel AC 3160".into(),
                vendor: "Intel".into(),
                standard: WifiStandard::Ac,
                band: Band::Ghz5,
                role: Role::Client,
                behavior: Behavior::client(),
            },
            Table1Device::Ecobee3Thermostat => DeviceProfile {
                device: "Ecobee3 thermostat".into(),
                chipset: "Atheros".into(),
                vendor: "ecobee".into(),
                standard: WifiStandard::N,
                band: Band::Ghz2,
                role: Role::Client,
                behavior: Behavior::iot_power_save(),
            },
            Table1Device::SurfacePro2017 => DeviceProfile {
                device: "Surface Pro 2017".into(),
                chipset: "Marvell 88W8897".into(),
                vendor: "Microsoft".into(),
                standard: WifiStandard::Ac,
                band: Band::Ghz5,
                role: Role::Client,
                behavior: Behavior::client(),
            },
            Table1Device::GalaxyS8 => DeviceProfile {
                device: "Samsung Galaxy S8".into(),
                chipset: "Murata KM5D18098".into(),
                vendor: "Samsung".into(),
                standard: WifiStandard::Ac,
                band: Band::Ghz5,
                role: Role::Client,
                behavior: Behavior::client(),
            },
            Table1Device::GoogleWifiAp => DeviceProfile {
                device: "Google Wifi AP".into(),
                chipset: "Qualcomm IPQ 4019".into(),
                vendor: "Google".into(),
                standard: WifiStandard::Ac,
                band: Band::Ghz5,
                role: Role::AccessPoint,
                behavior: Behavior::deauthing_ap(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_rows() {
        let rows: Vec<(String, String, &str)> = Table1Device::ALL
            .iter()
            .map(|d| {
                let p = d.profile();
                (p.device.clone(), p.chipset.clone(), p.standard.label())
            })
            .collect();
        assert_eq!(
            rows[0],
            (
                "MSI GE62 laptop".to_string(),
                "Intel AC 3160".to_string(),
                "11ac"
            )
        );
        assert_eq!(
            rows[1],
            (
                "Ecobee3 thermostat".to_string(),
                "Atheros".to_string(),
                "11n"
            )
        );
        assert_eq!(
            rows[2],
            (
                "Surface Pro 2017".to_string(),
                "Marvell 88W8897".to_string(),
                "11ac"
            )
        );
        assert_eq!(
            rows[3],
            (
                "Samsung Galaxy S8".to_string(),
                "Murata KM5D18098".to_string(),
                "11ac"
            )
        );
        assert_eq!(
            rows[4],
            (
                "Google Wifi AP".to_string(),
                "Qualcomm IPQ 4019".to_string(),
                "11ac"
            )
        );
    }

    #[test]
    fn only_the_google_wifi_is_an_ap() {
        for d in Table1Device::ALL {
            let p = d.profile();
            if d == Table1Device::GoogleWifiAp {
                assert_eq!(p.role, Role::AccessPoint);
            } else {
                assert_eq!(p.role, Role::Client);
            }
        }
    }

    #[test]
    fn thermostat_is_a_power_save_iot_device() {
        let p = Table1Device::Ecobee3Thermostat.profile();
        assert!(p.behavior.power_save.is_some());
        assert_eq!(p.band, Band::Ghz2);
    }

    #[test]
    fn standard_labels() {
        assert_eq!(WifiStandard::N.label(), "11n");
        assert_eq!(WifiStandard::Ac.label(), "11ac");
    }
}
