//! The substrate behind §4.2, end to end: a battery device joins a
//! network over the air, negotiates power save, has its downlink traffic
//! buffered and TIM-advertised while dozing — and then an attacker
//! demonstrates why none of that machinery survives fake frames.
//!
//! ```sh
//! cargo run --release --example join_and_powersave
//! ```

use polite_wifi::core::{Attack, InjectionKind, InjectionPlan};
use polite_wifi::frame::{builder, MacAddr};
use polite_wifi::harness::ScenarioBuilder;
use polite_wifi::mac::{Behavior, JoinState, StationConfig};
use polite_wifi::phy::rate::BitRate;
use polite_wifi::power::{PowerProfile, StateDurations};

fn main() {
    let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
    let iot_mac: MacAddr = "24:0a:c4:00:00:07".parse().unwrap(); // Espressif OUI

    let mut sb = ScenarioBuilder::new();
    let ap = sb.access_point(ap_mac, "HomeNet", (0.0, 0.0));
    let mut iot_cfg = StationConfig::client(iot_mac);
    iot_cfg.behavior = Behavior::iot_power_save();
    let iot = sb.station(iot_cfg, (4.0, 0.0));
    let mut sim = sb.build_with_seed(2020).sim;

    // 1. The real join sequence: authentication → association.
    sim.start_join(iot, ap_mac);
    sim.run_until(500_000);
    let JoinState::Joined { aid, .. } = sim.station(iot).join_state() else {
        panic!("join failed");
    };
    println!("IoT device joined HomeNet over the air (AID {aid}).");

    // 2. It idles out, announces power save (PM=1 null), and dozes.
    sim.run_until(2_000_000);
    assert!(!sim.station(iot).is_awake());
    assert!(sim.station(ap).in_ps_mode(iot_mac));
    println!("Device dozing; AP knows (PM bit) and will buffer its downlink.");

    // 3. Downlink arrives while it sleeps: buffered, TIM-advertised,
    //    fetched with PS-Poll on the next beacon — standard 802.11.
    let downlink = builder::protected_qos_data(iot_mac, ap_mac, ap_mac, 400, 120);
    let actions = sim
        .station_mut(ap)
        .submit_downlink(downlink, BitRate::Mbps11);
    assert!(actions.is_empty(), "buffered, not transmitted");
    println!(
        "AP buffered 1 frame for the sleeper ({} in its queue).",
        sim.station(ap).buffered_for(iot_mac)
    );
    let delivered_before = sim.station(iot).stats.delivered;
    sim.run_until(3_000_000);
    assert_eq!(sim.station(ap).buffered_for(iot_mac), 0);
    assert!(sim.station(iot).stats.delivered > delivered_before);
    println!("Next beacon's TIM woke it; PS-Poll fetched the frame. Textbook.");

    // 4. Measure the healthy duty cycle over three quiet seconds.
    let t0 = sim.now_us();
    let before = sim.node(iot).ledger.snapshot(t0);
    sim.run_until(t0 + 3_000_000);
    let after = sim.node(iot).ledger.snapshot(sim.now_us());
    let healthy = StateDurations {
        sleep_us: after.sleep_us - before.sleep_us,
        idle_us: after.idle_us - before.idle_us,
        rx_us: after.rx_us - before.rx_us,
        tx_us: after.tx_us - before.tx_us,
    };
    let profile = PowerProfile::esp8266();
    println!(
        "Healthy power save: {:.1} mW average ({:.1}% asleep).",
        profile.average_power_mw(&healthy),
        100.0 * healthy.sleep_us as f64 / healthy.total_us() as f64
    );

    // 5. Enter the attacker. All that machinery — PM bits, TIM, PS-Poll —
    //    is voided by fake frames the device must wake to ACK.
    let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (9.0, 0.0));
    sim.set_retries(attacker, false);
    let t1 = sim.now_us();
    let fakes = InjectionPlan {
        victim: iot_mac,
        forged_ta: MacAddr::FAKE,
        kind: InjectionKind::NullData,
        rate_pps: 50,
        start_us: t1,
        duration_us: 6_000_000,
        bitrate: BitRate::Mbps1,
    };
    fakes.launch(&mut sim, attacker);
    let before = sim.node(iot).ledger.snapshot(t1);
    sim.run_until(t1 + 6_000_000);
    let after = sim.node(iot).ledger.snapshot(sim.now_us());
    let attacked = StateDurations {
        sleep_us: after.sleep_us - before.sleep_us,
        idle_us: after.idle_us - before.idle_us,
        rx_us: after.rx_us - before.rx_us,
        tx_us: after.tx_us - before.tx_us,
    };
    println!(
        "Under 50 fake pps: {:.1} mW average ({:.1}% asleep) — power save defeated.",
        profile.average_power_mw(&attacked),
        100.0 * attacked.sleep_us as f64 / attacked.total_us() as f64
    );
    assert!(profile.average_power_mw(&attacked) > 15.0 * profile.average_power_mw(&healthy));

    let _ = ap;
}
