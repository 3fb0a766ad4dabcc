//! The synthetic city: a device population whose vendor marginals match
//! Table 2 exactly.

use crate::oui::OuiRegistry;
use polite_wifi_frame::MacAddr;
use polite_wifi_mac::{Behavior, Role};
use polite_wifi_phy::band::Band;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Table 2, left half: the top-20 client-device vendors and their counts.
pub const TABLE2_CLIENTS: &[(&str, u32)] = &[
    ("Apple", 143),
    ("Google", 102),
    ("Intel", 66),
    ("Hitron", 65),
    ("HP", 63),
    ("Samsung", 56),
    ("Espressif", 47),
    ("Hon Hai", 46),
    ("Amazon", 41),
    ("Sagemcom", 38),
    ("Liteon", 33),
    ("AzureWave", 30),
    ("Sonos", 30),
    ("Nest Labs", 27),
    ("Murata", 24),
    ("Belkin", 20),
    ("TP-LINK", 20),
    ("Cisco", 16),
    ("ecobee", 13),
    ("Microsoft", 13),
];

/// Table 2, right half: the top-20 AP vendors and their counts.
pub const TABLE2_APS: &[(&str, u32)] = &[
    ("Hitron", 723),
    ("Sagemcom", 601),
    ("Technicolor", 410),
    ("eero", 195),
    ("Extreme N.", 188),
    ("Cisco", 156),
    ("HP", 104),
    ("TP-LINK", 101),
    ("Google", 80),
    ("D-Link", 75),
    ("NETGEAR", 69),
    ("ASUSTek", 51),
    ("Aruba", 46),
    ("SmartRG", 44),
    ("Ubiquiti N.", 35),
    ("Zebra", 35),
    ("Pegatron", 28),
    ("Belkin", 25),
    ("Mitsumi", 25),
    ("Apple", 19),
];

/// Paper totals: 1,523 clients from 147 vendors; 3,805 APs from 94
/// vendors; 186 distinct vendors overall; 5,328 devices.
pub const TOTAL_CLIENTS: u32 = 1523;
/// See [`TOTAL_CLIENTS`].
pub const TOTAL_APS: u32 = 3805;
/// Distinct client vendors.
pub const CLIENT_VENDORS: u32 = 147;
/// Distinct AP vendors.
pub const AP_VENDORS: u32 = 94;
/// Distinct vendors overall.
pub const TOTAL_VENDORS: u32 = 186;

/// One device in the city.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// The device's MAC address (OUI attributes it to its vendor).
    pub mac: MacAddr,
    /// Vendor name.
    pub vendor: String,
    /// Client or AP.
    pub role: Role,
    /// Operating band.
    pub band: Band,
    /// Channel within the band.
    pub channel: u8,
    /// MAC behaviour.
    pub behavior: Behavior,
    /// SSID (APs only; empty for clients).
    pub ssid: String,
}

/// The synthetic city population.
#[derive(Debug, Clone)]
pub struct CityPopulation {
    /// All devices: clients then APs.
    pub devices: Vec<DeviceSpec>,
    /// OUI registry covering every vendor in the population.
    pub registry: OuiRegistry,
}

impl CityPopulation {
    /// Generates the full Table 2 population, deterministically from a
    /// seed. The per-vendor counts are *exact*; behaviours, channels and
    /// bands are sampled.
    pub fn table2(seed: u64) -> CityPopulation {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut registry = OuiRegistry::with_known_vendors();
        let mut devices = Vec::with_capacity((TOTAL_CLIENTS + TOTAL_APS) as usize);
        let mut next_suffix: u32 = 1;

        // Long-tail vendors: 47 are shared between the client and AP
        // sides (so distinct totals land on 147 + 94 - 8 named-overlap -
        // 47 synthetic-overlap = 186), the rest are side-exclusive.
        let shared: Vec<String> = (1..=47).map(|i| format!("Shared-{i:03}")).collect();
        let client_only: Vec<String> = (48..=127).map(|i| format!("ClientVendor-{i:03}")).collect();
        let ap_only: Vec<String> = (48..=74).map(|i| format!("ApVendor-{i:03}")).collect();
        let mut synth_oui_counter: u32 = 0;
        let mut synth_oui = |registry: &mut OuiRegistry, vendor: &str| {
            if registry.oui_of(vendor).is_none() {
                synth_oui_counter += 1;
                // Locally-administered prefix keeps synthetic OUIs out of
                // real vendors' space.
                let oui = [
                    0x02,
                    (synth_oui_counter >> 8) as u8,
                    synth_oui_counter as u8,
                ];
                registry.register(oui, vendor);
            }
        };

        // --- Clients ---
        let named_client_total: u32 = TABLE2_CLIENTS.iter().map(|(_, c)| c).sum();
        let other_client_total = TOTAL_CLIENTS - named_client_total;
        let client_tail: Vec<&String> = shared.iter().chain(client_only.iter()).collect();
        assert_eq!(client_tail.len() as u32, CLIENT_VENDORS - 20);
        let mut client_counts: Vec<(String, u32)> = TABLE2_CLIENTS
            .iter()
            .map(|(v, c)| (v.to_string(), *c))
            .collect();
        client_counts.extend(spread(other_client_total, &client_tail));

        for (vendor, count) in &client_counts {
            synth_oui(&mut registry, vendor);
            let oui = registry.oui_of(vendor).expect("registered");
            for _ in 0..*count {
                let mac = MacAddr::from_oui(oui, next_suffix);
                next_suffix += 1;
                devices.push(client_spec(vendor, mac, &mut rng));
            }
        }

        // --- APs ---
        let named_ap_total: u32 = TABLE2_APS.iter().map(|(_, c)| c).sum();
        let other_ap_total = TOTAL_APS - named_ap_total;
        let ap_tail: Vec<&String> = shared.iter().chain(ap_only.iter()).collect();
        assert_eq!(ap_tail.len() as u32, AP_VENDORS - 20);
        let mut ap_counts: Vec<(String, u32)> = TABLE2_APS
            .iter()
            .map(|(v, c)| (v.to_string(), *c))
            .collect();
        ap_counts.extend(spread(other_ap_total, &ap_tail));

        for (vendor, count) in &ap_counts {
            synth_oui(&mut registry, vendor);
            let oui = registry.oui_of(vendor).expect("registered");
            for i in 0..*count {
                let mac = MacAddr::from_oui(oui, next_suffix);
                next_suffix += 1;
                devices.push(ap_spec(vendor, mac, i, &mut rng));
            }
        }

        CityPopulation { devices, registry }
    }

    /// Client devices only.
    pub fn clients(&self) -> impl Iterator<Item = &DeviceSpec> {
        self.devices.iter().filter(|d| d.role == Role::Client)
    }

    /// Access points only.
    pub fn aps(&self) -> impl Iterator<Item = &DeviceSpec> {
        self.devices.iter().filter(|d| d.role == Role::AccessPoint)
    }

    /// Vendor → device count for one role, sorted descending by count
    /// then name (Table 2's presentation order).
    pub fn vendor_counts(&self, role: Role) -> Vec<(String, u32)> {
        let mut map: HashMap<&str, u32> = HashMap::new();
        for d in self.devices.iter().filter(|d| d.role == role) {
            *map.entry(d.vendor.as_str()).or_default() += 1;
        }
        let mut counts: Vec<(String, u32)> =
            map.into_iter().map(|(v, c)| (v.to_string(), c)).collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        counts
    }

    /// Distinct vendors across the whole population.
    pub fn distinct_vendor_count(&self) -> usize {
        let set: std::collections::HashSet<&str> =
            self.devices.iter().map(|d| d.vendor.as_str()).collect();
        set.len()
    }

    /// Generates an `n`-device synthetic city for the scale benchmarks —
    /// the population the 100k/1M wardrive drives through.
    ///
    /// Unlike [`table2`](Self::table2), which pins the paper's exact
    /// 5,328-device vendor marginals, this generator trades census
    /// fidelity for volume: every 10th-block of devices is 30% clients /
    /// 70% APs (the paper's city skewed the same way), vendors cycle
    /// through the Table 2 top-20 lists, every 20th client is an IoT
    /// power-save device, and APs are quiet (no deauth reflex) so the
    /// event load is dominated by beacons, probes and the attacker's
    /// fakes. MAC addresses stay globally unique via one suffix counter,
    /// so `n` may go up to 2^24 − 1 (16.7M) devices.
    ///
    /// Bands and channels are sampled from `seed` with the same
    /// marginals as the census generator, which is what spreads the city
    /// across co-channel interference cells.
    pub fn synthetic_city(n: usize, seed: u64) -> CityPopulation {
        assert!(n < (1 << 24), "suffix counter is 24-bit");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x43495459); // "CITY"
        let registry = OuiRegistry::with_known_vendors();
        let client_ouis: Vec<([u8; 3], &str)> = TABLE2_CLIENTS
            .iter()
            .map(|(v, _)| (registry.oui_of(v).expect("known vendor"), *v))
            .collect();
        let ap_ouis: Vec<([u8; 3], &str)> = TABLE2_APS
            .iter()
            .map(|(v, _)| (registry.oui_of(v).expect("known vendor"), *v))
            .collect();

        let mut devices = Vec::with_capacity(n);
        let mut clients = 0usize;
        let mut aps = 0usize;
        for i in 0..n {
            let suffix = (i + 1) as u32;
            if i % 10 < 3 {
                let (oui, vendor) = client_ouis[clients % client_ouis.len()];
                let mac = MacAddr::from_oui(oui, suffix);
                let mut spec = client_spec(vendor, mac, &mut rng);
                // Behavior is fixed by position, not vendor: exactly every
                // 20th client dozes, so the power-save share stays at 5%
                // however the vendor cycle lines up with IOT_VENDORS.
                spec.behavior = if clients % 20 == 0 {
                    Behavior::iot_power_save()
                } else {
                    Behavior::client()
                };
                clients += 1;
                devices.push(spec);
            } else {
                let (oui, vendor) = ap_ouis[aps % ap_ouis.len()];
                let mac = MacAddr::from_oui(oui, suffix);
                let mut spec = ap_spec(vendor, mac, aps as u32, &mut rng);
                spec.behavior = Behavior::quiet_ap();
                aps += 1;
                devices.push(spec);
            }
        }

        CityPopulation { devices, registry }
    }

    /// Derives a population where a `fraction` of phone-vendor clients
    /// use locally-administered *randomised* MAC addresses — the privacy
    /// feature modern mobile OSes apply to probe requests and
    /// unassociated traffic. Randomised MACs carry no registered OUI, so
    /// a survey attributes those devices to "Unknown"; the paper's 2020
    /// counts predate widespread randomisation, which this knob lets you
    /// study (it changes *attribution*, never the ACK behaviour).
    pub fn with_randomized_client_macs(mut self, fraction: f64, seed: u64) -> CityPopulation {
        const PHONE_VENDORS: &[&str] = &["Apple", "Google", "Samsung", "Microsoft"];
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x52414e44); // "RAND"
        let mut counter: u32 = 0;
        for d in &mut self.devices {
            if d.role == Role::Client
                && PHONE_VENDORS.contains(&d.vendor.as_str())
                && rng.gen_bool(fraction.clamp(0.0, 1.0))
            {
                counter += 1;
                // 0x06 prefix: locally administered, unicast, and outside
                // the 0x02 space the synthetic long-tail OUIs live in.
                d.mac = MacAddr::new([
                    0x06,
                    rng.gen(),
                    rng.gen(),
                    (counter >> 16) as u8,
                    (counter >> 8) as u8,
                    counter as u8,
                ]);
            }
        }
        self
    }
}

/// Distributes `total` devices across `vendors` as evenly as possible
/// (earlier vendors absorb the remainder), guaranteeing every vendor gets
/// at least one device.
fn spread(total: u32, vendors: &[&String]) -> Vec<(String, u32)> {
    let n = vendors.len() as u32;
    assert!(total >= n, "not enough devices to give each vendor one");
    let base = total / n;
    let extra = total % n;
    vendors
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let c = base + u32::from((i as u32) < extra);
            ((*v).clone(), c)
        })
        .collect()
}

/// IoT vendors whose clients run battery power save.
const IOT_VENDORS: &[&str] = &[
    "Espressif",
    "ecobee",
    "Nest Labs",
    "Amazon",
    "Sonos",
    "Belkin",
];

fn client_spec(vendor: &str, mac: MacAddr, rng: &mut ChaCha8Rng) -> DeviceSpec {
    let behavior = if IOT_VENDORS.contains(&vendor) {
        Behavior::iot_power_save()
    } else {
        Behavior::client()
    };
    let band = if rng.gen_bool(0.6) {
        Band::Ghz2
    } else {
        Band::Ghz5
    };
    DeviceSpec {
        mac,
        vendor: vendor.to_string(),
        role: Role::Client,
        band,
        channel: band.default_channel(),
        behavior,
        ssid: String::new(),
    }
}

fn ap_spec(vendor: &str, mac: MacAddr, index: u32, rng: &mut ChaCha8Rng) -> DeviceSpec {
    // The paper observed *some* APs deauth on fakes; give ~20% that
    // reflex, and ~10% 802.11w (PMF). Neither stops the ACK.
    let mut behavior = if rng.gen_bool(0.2) {
        Behavior::deauthing_ap()
    } else {
        Behavior::quiet_ap()
    };
    if rng.gen_bool(0.1) {
        behavior.pmf = true;
    }
    let band = if rng.gen_bool(0.5) {
        Band::Ghz2
    } else {
        Band::Ghz5
    };
    let channel = match band {
        Band::Ghz2 => *[1u8, 6, 11].get(rng.gen_range(0..3usize)).unwrap(),
        Band::Ghz5 => *[36u8, 40, 149, 153].get(rng.gen_range(0..4usize)).unwrap(),
    };
    DeviceSpec {
        mac,
        vendor: vendor.to_string(),
        role: Role::AccessPoint,
        band,
        channel,
        behavior,
        ssid: format!("{vendor}-{index:04}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_the_paper_exactly() {
        let pop = CityPopulation::table2(1);
        assert_eq!(pop.clients().count() as u32, TOTAL_CLIENTS);
        assert_eq!(pop.aps().count() as u32, TOTAL_APS);
        assert_eq!(pop.devices.len() as u32, 5328);
    }

    #[test]
    fn vendor_counts_match_table2_top20() {
        let pop = CityPopulation::table2(1);
        let clients = pop.vendor_counts(Role::Client);
        for (vendor, count) in TABLE2_CLIENTS {
            let found = clients.iter().find(|(v, _)| v == vendor);
            assert_eq!(found.map(|(_, c)| *c), Some(*count), "client {vendor}");
        }
        let aps = pop.vendor_counts(Role::AccessPoint);
        for (vendor, count) in TABLE2_APS {
            let found = aps.iter().find(|(v, _)| v == vendor);
            assert_eq!(found.map(|(_, c)| *c), Some(*count), "AP {vendor}");
        }
    }

    #[test]
    fn top20_really_are_the_top20() {
        // The long tail must not out-rank any named vendor on its side.
        let pop = CityPopulation::table2(1);
        let clients = pop.vendor_counts(Role::Client);
        let named: std::collections::HashSet<&str> =
            TABLE2_CLIENTS.iter().map(|(v, _)| *v).collect();
        for (v, _) in clients.iter().take(20) {
            assert!(named.contains(v.as_str()), "{v} intruded into the top-20");
        }
    }

    #[test]
    fn vendor_cardinalities_match() {
        let pop = CityPopulation::table2(1);
        assert_eq!(pop.vendor_counts(Role::Client).len() as u32, CLIENT_VENDORS);
        assert_eq!(
            pop.vendor_counts(Role::AccessPoint).len() as u32,
            AP_VENDORS
        );
        assert_eq!(pop.distinct_vendor_count() as u32, TOTAL_VENDORS);
    }

    #[test]
    fn macs_unique_and_attributable() {
        let pop = CityPopulation::table2(1);
        let mut seen = std::collections::HashSet::new();
        for d in &pop.devices {
            assert!(seen.insert(d.mac), "duplicate MAC {}", d.mac);
            assert_eq!(
                pop.registry.vendor_of(d.mac),
                Some(d.vendor.as_str()),
                "attribution failed for {}",
                d.mac
            );
        }
    }

    #[test]
    fn espressif_clients_are_iot_power_save() {
        // The paper: "we found 47 IoT devices that utilize Espressif WiFi
        // chipsets" — all power-save candidates for the drain attack.
        let pop = CityPopulation::table2(1);
        let esp: Vec<&DeviceSpec> = pop.clients().filter(|d| d.vendor == "Espressif").collect();
        assert_eq!(esp.len(), 47);
        assert!(esp.iter().all(|d| d.behavior.power_save.is_some()));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = CityPopulation::table2(7);
        let b = CityPopulation::table2(7);
        assert_eq!(a.devices, b.devices);
        let c = CityPopulation::table2(8);
        // Counts identical, sampled details may differ.
        assert_eq!(a.devices.len(), c.devices.len());
    }

    #[test]
    fn aps_have_ssids_clients_do_not() {
        let pop = CityPopulation::table2(2);
        assert!(pop.aps().all(|d| !d.ssid.is_empty()));
        assert!(pop.clients().all(|d| d.ssid.is_empty()));
    }

    #[test]
    fn some_aps_deauth_and_some_have_pmf() {
        let pop = CityPopulation::table2(3);
        let deauthers = pop.aps().filter(|d| d.behavior.deauth_on_fake).count();
        let pmf = pop.aps().filter(|d| d.behavior.pmf).count();
        let total = pop.aps().count();
        assert!(deauthers > total / 10 && deauthers < total / 3);
        assert!(pmf > total / 20 && pmf < total / 5);
    }

    #[test]
    fn randomized_macs_lose_vendor_attribution() {
        let pop = CityPopulation::table2(1).with_randomized_client_macs(0.5, 9);
        let apple_randomized = pop
            .clients()
            .filter(|d| d.vendor == "Apple" && pop.registry.vendor_of(d.mac).is_none())
            .count();
        // ~50% of 143 Apple clients lose their OUI.
        assert!(
            (40..=110).contains(&apple_randomized),
            "randomised {apple_randomized}"
        );
        // Randomised MACs are locally administered and unique.
        let mut seen = std::collections::HashSet::new();
        for d in &pop.devices {
            assert!(seen.insert(d.mac));
            if pop.registry.vendor_of(d.mac).is_none() {
                assert!(d.mac.is_locally_administered());
                assert!(d.mac.is_unicast());
            }
        }
        // APs and non-phone vendors untouched.
        assert!(pop.aps().all(|d| pop.registry.vendor_of(d.mac).is_some()));
        assert!(pop
            .clients()
            .filter(|d| d.vendor == "Espressif")
            .all(|d| pop.registry.vendor_of(d.mac).is_some()));
    }

    #[test]
    fn randomization_fraction_zero_is_identity() {
        let a = CityPopulation::table2(4);
        let b = CityPopulation::table2(4).with_randomized_client_macs(0.0, 9);
        assert_eq!(a.devices, b.devices);
    }

    #[test]
    fn synthetic_city_mixes_roles_and_keeps_macs_unique() {
        let pop = CityPopulation::synthetic_city(1000, 7);
        assert_eq!(pop.devices.len(), 1000);
        assert_eq!(pop.clients().count(), 300);
        assert_eq!(pop.aps().count(), 700);
        let mut seen = std::collections::HashSet::new();
        for d in &pop.devices {
            assert!(seen.insert(d.mac), "duplicate MAC {}", d.mac);
            assert_eq!(pop.registry.vendor_of(d.mac), Some(d.vendor.as_str()));
        }
        // ~5% of clients run IoT power save; APs are all quiet.
        let ps = pop.clients().filter(|d| d.behavior.power_save.is_some());
        assert_eq!(ps.count(), 15);
        assert!(pop.aps().all(|d| !d.behavior.deauth_on_fake));
    }

    #[test]
    fn synthetic_city_is_deterministic_and_seed_sensitive() {
        let a = CityPopulation::synthetic_city(500, 3);
        let b = CityPopulation::synthetic_city(500, 3);
        assert_eq!(a.devices, b.devices);
        let c = CityPopulation::synthetic_city(500, 4);
        assert_ne!(a.devices, c.devices);
    }

    #[test]
    fn spread_is_exact_and_minimum_one() {
        let names: Vec<String> = (0..10).map(|i| format!("v{i}")).collect();
        let refs: Vec<&String> = names.iter().collect();
        let out = spread(23, &refs);
        assert_eq!(out.iter().map(|(_, c)| c).sum::<u32>(), 23);
        assert!(out.iter().all(|(_, c)| *c >= 1));
        assert_eq!(out[0].1, 3); // 23 = 10*2 + 3 → first three get 3
        assert_eq!(out[3].1, 2);
    }
}
