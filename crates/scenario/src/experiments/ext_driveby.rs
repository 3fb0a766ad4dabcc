//! X6 — extension: a continuous drive-by survey with real mobility.
//!
//! The Table 2 regenerator scans the city in neighbourhood segments; this
//! experiment does the §3 setup literally: a car carrying the injector
//! drives down a street of houses at constant speed, discovering devices
//! as they come into range, injecting at them while in range, and
//! verifying their ACKs — one continuous simulation, no teleporting.
//! Discovery and fake→ACK pairing are the survey rig's own
//! ([`Sniffer`] and [`AckVerifier::pairing`]); only the street, the
//! drive and the one-fake-per-target schedule are this experiment's.

use crate::spec::ScenarioSpec;
use crate::support::compare;
use polite_wifi_core::{AckVerifier, Sniffer};
use polite_wifi_frame::{builder, ControlFrame, Frame, MacAddr};
use polite_wifi_harness::{Experiment, RunArgs, ScenarioBuilder};
use polite_wifi_mac::StationConfig;
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sim::NodeId;
use std::collections::{BTreeSet, HashSet};

struct DriveByResult {
    houses: usize,
    devices: usize,
    discovered: usize,
    verified: usize,
    drive_seconds: u64,
    speed_mps: f64,
}

polite_wifi_obs::impl_to_json! { DriveByResult {
    houses, devices, discovered, verified, drive_seconds, speed_mps
} }

pub fn run(spec: &ScenarioSpec, args: RunArgs) -> std::io::Result<i32> {
    let mut exp = Experiment::start_with(&spec.name, &spec.paper_ref, args);

    let houses = 14usize;
    let spacing = 40.0; // metres between houses
    let speed = 12.0; // m/s ≈ 43 km/h
    let street_len = houses as f64 * spacing;
    let drive_seconds = (street_len / speed) as u64 + 10;

    let mut sb = ScenarioBuilder::new()
        .duration_us(drive_seconds * 1_000_000)
        .faults(exp.args().faults);
    // The car: monitor-mode injector moving east along y = 0.
    let car = sb.monitor(MacAddr::FAKE, (-60.0, 0.0));
    sb.retries(car, false);
    sb.velocity(car, (speed, 0.0));

    // Houses along the street, 18 m back from the kerb: an AP plus two
    // clients each, everyone on channel 6 (the car's tune).
    let mut members: Vec<MacAddr> = Vec::new();
    let mut probers: Vec<(NodeId, MacAddr, u64)> = Vec::new();
    for h in 0..houses {
        let x = h as f64 * spacing;
        let ap_mac = MacAddr::new([0x68, 0x02, 0xb8, 0x10, 0, h as u8]);
        sb.station(
            StationConfig::access_point(ap_mac, &format!("House-{h}")),
            (x, 18.0),
        );
        members.push(ap_mac);
        for c in 0..2u8 {
            let mac = MacAddr::new([0xf0, 0x18, 0x98, 0x10, c, h as u8]);
            let id = sb.client(mac, (x + 3.0, 21.0 + c as f64));
            members.push(mac);
            probers.push((id, mac, (h as u64 * 137 + c as u64 * 313) * 1_000));
        }
    }
    let mut scenario = sb.build_with_seed(exp.seed());
    let sim = &mut scenario.sim;

    // Clients probe every ~700 ms throughout.
    for (id, mac, start_us) in &probers {
        let mut t = *start_us;
        let mut seq = 0u16;
        while t < drive_seconds * 1_000_000 {
            sim.inject(t, *id, builder::probe_request(*mac, seq), BitRate::Mbps1);
            seq = seq.wrapping_add(1);
            t += 700_000;
        }
    }
    let member_set: HashSet<MacAddr> = members.iter().copied().collect();

    // Drive: every 250 ms, pump the car's new capture through thread 1
    // (discovery) and thread 3 (pairing), then keep injecting at
    // discovered-but-unverified devices. MAC-ordered sets so the
    // injection schedule is deterministic.
    let verifier = AckVerifier::new(MacAddr::FAKE);
    let mut sniffer = Sniffer::new(MacAddr::FAKE);
    let mut pairing = verifier.pairing();
    let mut discovered: BTreeSet<MacAddr> = BTreeSet::new();
    let mut verified: BTreeSet<MacAddr> = BTreeSet::new();
    let mut offset = 0usize;
    let mut now = 0u64;
    while now < drive_seconds * 1_000_000 {
        now += 250_000;
        sim.run_until(now);
        let frames = sim.node(car).capture.frames();
        for cf in &frames[offset..] {
            if let Some((mac, _, _)) = sniffer.observe(&cf.frame) {
                if member_set.contains(&mac) {
                    discovered.insert(mac);
                }
            }
            if let Some(exchange) = pairing.observe(cf.ts_us, &cf.frame) {
                verified.insert(exchange.victim);
            }
        }
        offset = frames.len();
        // Thread 2: keep injecting at discovered-but-unverified targets.
        for (i, mac) in discovered.difference(&verified).enumerate() {
            sim.inject(
                now + 3_000 + i as u64 * 2_000,
                car,
                builder::fake_null_frame(*mac, MacAddr::FAKE),
                BitRate::Mbps1,
            );
        }
    }

    // The streamed pairing must agree with a pass over the whole capture.
    let verified_check: BTreeSet<MacAddr> = verifier
        .responding_victims(&sim.node(car).capture)
        .into_iter()
        .collect();
    assert_eq!(
        verified, verified_check,
        "streamed pairing disagrees with the whole-capture pass"
    );
    let acks_heard = sim
        .node(car)
        .capture
        .frames()
        .iter()
        .filter(
            |cf| matches!(&cf.frame, Frame::Ctrl(ControlFrame::Ack { ra }) if *ra == MacAddr::FAKE),
        )
        .count();
    exp.metrics.record("discovered", discovered.len() as f64);
    exp.metrics.record("verified", verified.len() as f64);
    exp.metrics.record("acks_heard", acks_heard as f64);

    println!(
        "\nstreet: {houses} houses, {} devices; drive: {:.0} m at {speed} m/s ({drive_seconds} s)",
        members.len(),
        street_len
    );
    println!(
        "discovered {} / verified {} devices; {} ACKs heard from the kerb",
        discovered.len(),
        verified.len(),
        acks_heard
    );

    compare(
        "every device passed is discovered and verified",
        "all respond (§3)",
        &format!("{}/{}", verified.len(), members.len()),
    );

    if exp.args().faults.is_clean() {
        assert_eq!(discovered.len(), members.len(), "missed a device");
        assert_eq!(verified.len(), members.len(), "a device failed to verify");
    }
    scenario.observe_activity(car, "power.car");
    let snapshot = scenario.sim.take_obs();
    exp.absorb_obs(snapshot);
    exp.finish_with_status(
        &spec.slug,
        &DriveByResult {
            houses,
            devices: members.len(),
            discovered: discovered.len(),
            verified: verified.len(),
            drive_seconds,
            speed_mps: speed,
        },
    )
}
