//! E2 — Table 1: the five tested chipsets/devices all exhibit Polite WiFi.
//!
//! Reconstructs each Table 1 device as a simulated station with its
//! band/standard/behaviour profile and verifies that fake frames are
//! acknowledged by every one of them. The five device scenarios are
//! independent, so they fan out over the harness worker pool.

use crate::spec::ScenarioSpec;
use crate::support::compare;
use polite_wifi_core::{AckVerifier, FakeFrameInjector, InjectionKind, InjectionPlan};
use polite_wifi_devices::Table1Device;
use polite_wifi_frame::MacAddr;
use polite_wifi_harness::{derive_trial_seed, Experiment, RunArgs, ScenarioBuilder};
use polite_wifi_mac::{Role, StationConfig};
use polite_wifi_phy::rate::BitRate;

struct DeviceRow {
    device: String,
    chipset: String,
    standard: String,
    fakes: u64,
    acks: usize,
    responds: bool,
}

polite_wifi_obs::impl_to_json! { DeviceRow { device, chipset, standard, fakes, acks, responds } }

fn device_row(
    i: usize,
    base_seed: u64,
    faults: polite_wifi_sim::FaultProfile,
) -> (DeviceRow, polite_wifi_obs::Obs) {
    let profile = Table1Device::ALL[i].profile();
    let victim_mac = MacAddr::new([0x02, 0xd1, 0x00, 0x00, 0x00, i as u8 + 1]);

    let mut sb = ScenarioBuilder::new().duration_us(3_000_000).faults(faults);
    let mut cfg = StationConfig::client(victim_mac);
    cfg.role = profile.role;
    cfg.band = profile.band;
    cfg.channel = profile.band.default_channel();
    cfg.behavior = profile.behavior;
    if profile.role == Role::AccessPoint {
        cfg.ssid = "GoogleWifi".into();
        cfg.beacon_interval_us = Some(102_400);
    }
    let _victim = sb.station(cfg, (0.0, 0.0));
    // The dongle tunes to the victim's band/channel.
    let mut attacker_cfg = StationConfig::client(MacAddr::FAKE);
    attacker_cfg.band = profile.band;
    attacker_cfg.channel = profile.band.default_channel();
    let attacker = sb.station(attacker_cfg, (5.0, 0.0));
    sb.set_monitor(attacker);
    let mut scenario = sb.build_with_seed(derive_trial_seed(base_seed, i as u64));

    // 20 fakes over 2 s; power-save devices may doze so we expect the
    // injector to land at least a solid majority, and ≥1 suffices to
    // demonstrate the behaviour (the paper's criterion).
    let plan = InjectionPlan {
        victim: victim_mac,
        forged_ta: MacAddr::FAKE,
        kind: InjectionKind::NullData,
        rate_pps: 20,
        start_us: 10_000,
        duration_us: 2_000_000,
        bitrate: if profile.band == polite_wifi_phy::band::Band::Ghz5 {
            BitRate::Mbps6 // no DSSS rates on 5 GHz
        } else {
            BitRate::Mbps1
        },
    };
    let fakes = FakeFrameInjector::new(attacker).execute(&mut scenario.sim, &plan);
    let sim = scenario.run();

    let acks = AckVerifier::new(MacAddr::FAKE)
        .verify(&sim.node(attacker).capture)
        .len();
    let row = DeviceRow {
        device: profile.device,
        chipset: profile.chipset,
        standard: profile.standard.label().to_string(),
        fakes,
        acks,
        responds: acks > 0,
    };
    (row, scenario.sim.take_obs())
}

pub fn run(spec: &ScenarioSpec, args: RunArgs) -> std::io::Result<i32> {
    let mut exp = Experiment::start_with(&spec.name, &spec.paper_ref, args);

    let seed = exp.seed();
    let faults = exp.args().faults;
    let results = exp
        .runner()
        .run_indexed(Table1Device::ALL.len(), |i| device_row(i, seed, faults));
    let mut rows = Vec::with_capacity(results.len());
    for (row, obs) in results {
        exp.absorb_obs(obs);
        rows.push(row);
    }

    println!(
        "\n{:<22} {:<18} {:<8} {:>6} {:>6}  verdict",
        "Device", "WiFi module", "Std", "fakes", "ACKs"
    );
    for r in &rows {
        println!(
            "{:<22} {:<18} {:<8} {:>6} {:>6}  {}",
            r.device,
            r.chipset,
            r.standard,
            r.fakes,
            r.acks,
            if r.responds { "POLITE" } else { "silent" }
        );
        exp.metrics.record("acks_per_device", r.acks as f64);
    }

    println!();
    compare(
        "devices responding to fake frames",
        "5/5",
        &format!("{}/5", rows.iter().filter(|r| r.responds).count()),
    );
    if faults.is_clean() {
        assert!(rows.iter().all(|r| r.responds), "a device went impolite");
    }
    exp.finish_with_status(&spec.slug, &rows)
}
