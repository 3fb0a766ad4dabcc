//! Quickstart: the paper's core observation in thirty lines.
//!
//! A victim client sits on a WPA2 network. A stranger with no key
//! material sends it a fake, unencrypted null-function frame — and the
//! victim politely acknowledges. Run with:
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use polite_wifi::frame::{builder, MacAddr};
use polite_wifi::harness::ScenarioBuilder;
use polite_wifi::pcap::{trace, LinkType};
use polite_wifi::phy::rate::BitRate;

fn main() {
    let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
    let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();

    let mut sb = ScenarioBuilder::new();

    // A private WPA2 network: AP + associated client.
    let ap = sb.access_point(ap_mac, "PrivateNet", (2.0, 0.0));
    let victim = sb.client(victim_mac, (0.0, 0.0));
    sb.link(victim, ap);

    // The attacker: $12 dongle, forged MAC, no credentials.
    let attacker = sb.monitor(MacAddr::FAKE, (6.0, 0.0));
    sb.retries(attacker, false);
    let mut sim = sb.build_with_seed(2020).sim;

    // Send one fake frame; the only valid field is the victim's address.
    let fake = builder::fake_null_frame(victim_mac, MacAddr::FAKE);
    sim.inject(50_000, attacker, fake, BitRate::Mbps1);
    sim.run_until(200_000);

    println!("== What the attacker's monitor-mode radio captured ==\n");
    println!("{}", trace::format_capture(&sim.node(attacker).capture));

    println!(
        "victim ACKs sent: {}   (frame was discarded above the MAC: {})",
        sim.station(victim).stats.acks_sent,
        sim.station(victim).stats.discarded_after_ack,
    );
    assert_eq!(sim.station(victim).stats.acks_sent, 1);

    // Save a Wireshark-compatible pcap of the exchange.
    let path = std::env::temp_dir().join("polite_wifi_quickstart.pcap");
    sim.node(attacker)
        .capture
        .write_pcap_file(&path, LinkType::Ieee80211Radiotap)
        .expect("write pcap");
    println!(
        "\npcap written to {} — open it in Wireshark.",
        path.display()
    );
}
