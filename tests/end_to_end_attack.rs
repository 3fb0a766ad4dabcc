//! Cross-crate integration: the full attack loop from frame bytes to
//! pcap and back.
//!
//! frame codec → simulator → MAC state machines → capture → pcap file →
//! reparse → verification. If any layer disagrees about the byte format
//! or the timing, this test catches it.

use polite_wifi::core::{AckVerifier, Attack, InjectionKind, InjectionPlan};
use polite_wifi::frame::{builder, ControlFrame, Frame, MacAddr};
use polite_wifi::mac::{Behavior, StationConfig};
use polite_wifi::pcap::capture::decode_capture;
use polite_wifi::pcap::LinkType;
use polite_wifi::phy::rate::BitRate;
use polite_wifi::sim::{SimConfig, Simulator};

fn victim_mac() -> MacAddr {
    "f2:6e:0b:11:22:33".parse().unwrap()
}

/// The complete Figure 2 loop, ending in a byte-identical pcap round trip.
#[test]
fn inject_ack_capture_pcap_reparse() {
    let mut sim = Simulator::new(SimConfig::default(), 1);
    let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
    let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
    sim.set_monitor(attacker, true);
    sim.set_retries(attacker, false);

    let plan = InjectionPlan {
        victim: victim_mac(),
        forged_ta: MacAddr::FAKE,
        kind: InjectionKind::NullData,
        rate_pps: 10,
        start_us: 0,
        duration_us: 1_000_000,
        bitrate: BitRate::Mbps1,
    };
    plan.launch(&mut sim, attacker);
    sim.run_until(2_000_000);

    assert_eq!(sim.station(victim).stats.acks_sent, 10);

    // Capture → pcap bytes → decode: frames survive both link types.
    for link in [LinkType::Ieee80211, LinkType::Ieee80211Radiotap] {
        let bytes = sim.node(attacker).capture.to_pcap_bytes(link);
        let decoded = decode_capture(&bytes).expect("pcap decodes");
        assert_eq!(decoded.len(), sim.node(attacker).capture.len());
        let acks = decoded
            .iter()
            .filter(
                |(_, f)| matches!(f, Frame::Ctrl(ControlFrame::Ack { ra }) if *ra == MacAddr::FAKE),
            )
            .count();
        assert_eq!(acks, 10, "{link:?}");
    }

    // The verifier agrees with the victim's own counter.
    let exchanges = AckVerifier::new(MacAddr::FAKE).verify(&sim.node(attacker).capture);
    assert_eq!(exchanges.len(), 10);
    // Every exchange completes within SIFS + ACK airtime (314 µs) exactly.
    assert!(exchanges.iter().all(|e| e.ack_ts_us - e.fake_ts_us == 314));
}

/// The Figure 3 storyline, across crates: deauth bursts captured in the
/// attacker's pcap, ACKs throughout, blocklist irrelevant.
#[test]
fn deauthing_blocklisting_ap_still_acks_through_the_whole_stack() {
    let ap_mac: MacAddr = "f2:6e:0b:aa:00:01".parse().unwrap();
    let mut sim = Simulator::new(SimConfig::default(), 2);
    let mut cfg = StationConfig::access_point(ap_mac, "PrivateNet");
    cfg.behavior = Behavior::deauthing_ap();
    let ap = sim.add_node(cfg, (0.0, 0.0));
    sim.station_mut(ap).block_mac(MacAddr::FAKE);
    let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
    sim.set_monitor(attacker, true);
    sim.set_retries(attacker, false);

    for i in 0..4u64 {
        sim.inject(
            i * 120_000,
            attacker,
            builder::fake_null_frame(ap_mac, MacAddr::FAKE),
            BitRate::Mbps1,
        );
    }
    sim.run_until(1_500_000);

    assert_eq!(
        sim.station(ap).stats.acks_sent,
        4,
        "blocklist must not matter"
    );
    assert!(sim.station(ap).stats.deauths_sent >= 3);

    // Both the deauth frames and our ACKs are in the monitor capture.
    let decoded = decode_capture(
        &sim.node(attacker)
            .capture
            .to_pcap_bytes(LinkType::Ieee80211),
    )
    .unwrap();
    let deauths = decoded
        .iter()
        .filter(|(_, f)| f.info_column().starts_with("Deauthentication"))
        .count();
    assert!(deauths >= 3);
}

/// CTS elicitation through the whole stack, with a PMF victim.
#[test]
fn rts_cts_pipeline_with_pmf_victim() {
    let mut sim = Simulator::new(SimConfig::default(), 3);
    let mut cfg = StationConfig::client(victim_mac());
    cfg.behavior = Behavior::pmf_client();
    let victim = sim.add_node(cfg, (0.0, 0.0));
    let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (4.0, 0.0));
    sim.set_monitor(attacker, true);
    sim.set_retries(attacker, false);

    let plan = InjectionPlan {
        victim: victim_mac(),
        forged_ta: MacAddr::FAKE,
        kind: InjectionKind::Rts { nav_us: 248 },
        rate_pps: 25,
        start_us: 0,
        duration_us: 1_000_000,
        bitrate: BitRate::Mbps11,
    };
    plan.launch(&mut sim, attacker);
    sim.run_until(2_000_000);

    assert_eq!(sim.station(victim).stats.cts_sent, 25);
    let exchanges = AckVerifier::new(MacAddr::FAKE).verify(&sim.node(attacker).capture);
    assert_eq!(exchanges.len(), 25);
}

/// The attacker needs no keys: protected traffic on the network is
/// opaque to it, yet the ACK channel works regardless.
#[test]
fn attack_coexists_with_encrypted_network_traffic() {
    let ap_mac: MacAddr = "68:02:b8:00:00:07".parse().unwrap();
    let mut sim = Simulator::new(SimConfig::default(), 4);
    let ap = sim.add_node(
        StationConfig::access_point(ap_mac, "PrivateNet"),
        (1.0, 1.0),
    );
    let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
    sim.station_mut(victim).associate(ap_mac);
    sim.station_mut(ap).associate(victim_mac());
    let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (6.0, 0.0));
    sim.set_monitor(attacker, true);

    // Legitimate encrypted downlink traffic...
    for i in 0..20u64 {
        sim.inject(
            i * 40_000,
            ap,
            builder::protected_qos_data(victim_mac(), ap_mac, ap_mac, 100 + i as u16, 400),
            BitRate::Mbps54,
        );
    }
    // ...interleaved with the attack.
    for i in 0..20u64 {
        sim.inject(
            20_000 + i * 40_000,
            attacker,
            builder::fake_null_frame(victim_mac(), MacAddr::FAKE),
            BitRate::Mbps1,
        );
    }
    sim.run_until(2_000_000);

    // The victim acknowledged both the real and the fake traffic.
    assert_eq!(sim.station(victim).stats.acks_sent, 40);
    // And the fake-frame exchanges verify cleanly despite interleaving.
    let exchanges = AckVerifier::new(MacAddr::FAKE).verify(&sim.node(attacker).capture);
    assert_eq!(exchanges.len(), 20);
}
