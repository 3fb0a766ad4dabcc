//! # polite-wifi
//!
//! A full reproduction of **"WiFi Says 'Hi!' Back to Strangers!"**
//! (Abedi & Abari, HotNets 2020) as a Rust workspace: the *Polite WiFi*
//! behaviour — every 802.11 device acknowledges any frame addressed to
//! it, even unauthenticated fakes from strangers — together with the
//! attacks and sensing opportunities the paper builds on top of it, all
//! running on an in-crate 802.11 MAC/PHY discrete-event simulation
//! substrate (no radio hardware required).
//!
//! This crate is the facade: it re-exports every workspace crate under
//! one roof. See the README for a tour and `DESIGN.md` for the
//! paper-to-module map.
//!
//! ```
//! use polite_wifi::frame::{builder, MacAddr};
//! use polite_wifi::harness::ScenarioBuilder;
//! use polite_wifi::phy::rate::BitRate;
//!
//! // A WPA2 "victim" and a stranger with no credentials whatsoever.
//! let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
//! let mut sb = ScenarioBuilder::new();
//! let victim = sb.client(victim_mac, (0.0, 0.0));
//! let attacker = sb.client(MacAddr::FAKE, (5.0, 0.0));
//! let mut sim = sb.build_with_seed(1).sim;
//!
//! sim.inject(0, attacker, builder::fake_null_frame(victim_mac, MacAddr::FAKE), BitRate::Mbps1);
//! sim.run_until(10_000);
//!
//! // WiFi says "Hi!" back.
//! assert_eq!(sim.station(victim).stats.acks_sent, 1);
//! ```

/// 802.11 frame model and byte codec.
pub use polite_wifi_frame as frame;

/// Radiotap capture headers.
pub use polite_wifi_radiotap as radiotap;

/// pcap capture files and Wireshark-style traces.
pub use polite_wifi_pcap as pcap;

/// PHY substrate: timing, rates, propagation, link model, CSI.
pub use polite_wifi_phy as phy;

/// MAC state machines (the Polite WiFi receive path lives here).
pub use polite_wifi_mac as mac;

/// Discrete-event radio simulator.
pub use polite_wifi_sim as sim;

/// CSI processing and inference.
pub use polite_wifi_sensing as sensing;

/// Energy model and battery projections.
pub use polite_wifi_power as power;

/// OUI registry, device profiles, Table 2 population.
pub use polite_wifi_devices as devices;

/// Experiment lifecycle: scenario builder, metrics ledger, parallel
/// deterministic runner, unified JSON results.
pub use polite_wifi_harness as harness;

/// Structured tracing and metrics (spans, counters, histograms, the
/// Chrome-trace exporter).
pub use polite_wifi_obs as obs;

/// The Polite WiFi toolkit: injector, scanner, attacks, sensing hub.
pub use polite_wifi_core as core;
