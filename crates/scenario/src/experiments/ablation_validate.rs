//! A1 — ablation: what if devices *did* validate before ACKing?
//!
//! DESIGN.md §5's first ablation, run live: a hypothetical MAC that
//! delays its ACK by the WPA2 decode time (200–700 µs). The transmitter's
//! ACK timeout expires long before the validated ACK arrives, so every
//! frame is retransmitted to the retry limit and finally reported lost —
//! breaking WiFi for *legitimate* traffic, which is exactly why the
//! standard cannot adopt validate-then-ACK. The four MAC variants are
//! independent scenarios, fanned over the harness worker pool.

use crate::spec::ScenarioSpec;
use crate::support::compare;
use polite_wifi_core::{Attack, InjectionKind, InjectionPlan};
use polite_wifi_frame::MacAddr;
use polite_wifi_harness::{Experiment, RunArgs, ScenarioBuilder};
use polite_wifi_mac::{Behavior, StationConfig};
use polite_wifi_phy::rate::BitRate;

#[derive(Debug)]
struct AblationRow {
    decode_us: Option<u32>,
    frames_offered: u64,
    transmissions: u64,
    confirmed: u64,
    reported_lost: u64,
    retry_amplification: f64,
}

polite_wifi_obs::impl_to_json! { AblationRow {
    decode_us, frames_offered, transmissions, confirmed, reported_lost, retry_amplification
} }

fn run_case(
    decode_us: Option<u32>,
    seed: u64,
    faults: polite_wifi_sim::FaultProfile,
) -> (AblationRow, polite_wifi_obs::Obs) {
    let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
    let peer_mac: MacAddr = "02:00:00:00:00:42".parse().unwrap();

    let mut sb = ScenarioBuilder::new()
        .duration_us(60_000_000)
        .faults(faults);
    let mut cfg = StationConfig::client(victim_mac);
    if let Some(us) = decode_us {
        cfg.behavior = Behavior::hypothetical_validating(us);
    }
    let victim = sb.station(cfg, (0.0, 0.0));
    // A *legitimate* peer this time — the ablation hurts friends, not
    // just attackers.
    let peer = sb.client(peer_mac, (4.0, 0.0));
    sb.associate(victim, peer_mac);
    let mut scenario = sb.build_with_seed(seed);

    // 50 frames, one every 20 ms.
    let traffic = InjectionPlan {
        victim: victim_mac,
        forged_ta: peer_mac,
        kind: InjectionKind::QosData { payload_len: 200 },
        rate_pps: 50,
        start_us: 0,
        duration_us: 1_000_000,
        bitrate: BitRate::Mbps24,
    };
    let frames_offered = traffic.launch(&mut scenario.sim, peer);
    let sim = scenario.run();

    let node = sim.node(peer);
    let row = AblationRow {
        decode_us,
        frames_offered,
        transmissions: node.tx_count,
        confirmed: node.acks_received,
        reported_lost: node.tx_failures,
        retry_amplification: node.tx_count as f64 / frames_offered as f64,
    };
    (row, scenario.sim.take_obs())
}

pub fn run(spec: &ScenarioSpec, args: RunArgs) -> std::io::Result<i32> {
    let mut exp = Experiment::start_with(&spec.name, &spec.paper_ref, args);

    let seed = exp.seed();
    let faults = exp.args().faults;
    let variants = [None, Some(200), Some(450), Some(700)];
    let results = exp
        .runner()
        .run_indexed(variants.len(), |i| run_case(variants[i], seed, faults));
    let mut rows = Vec::with_capacity(results.len());
    for (row, obs) in results {
        exp.absorb_obs(obs);
        rows.push(row);
    }
    println!(
        "\n{:<26} {:>8} {:>8} {:>10} {:>8} {:>8}",
        "MAC design", "offered", "tx'd", "confirmed", "lost", "amplif."
    );
    for r in &rows {
        let label = match r.decode_us {
            None => "real 802.11 (ACK at SIFS)".to_string(),
            Some(us) => format!("validate first ({us} µs)"),
        };
        println!(
            "{:<26} {:>8} {:>8} {:>10} {:>8} {:>7.1}x",
            label,
            r.frames_offered,
            r.transmissions,
            r.confirmed,
            r.reported_lost,
            r.retry_amplification
        );
        exp.metrics
            .record("retry_amplification", r.retry_amplification);
    }

    println!();
    compare(
        "compliant MAC: one transmission per frame, nothing lost",
        "-",
        &format!(
            "{} tx, {} lost",
            rows[0].transmissions, rows[0].reported_lost
        ),
    );
    compare(
        "validating MAC: retry amplification",
        "ACK never in time → retries",
        &format!("{:.1}x the airtime", rows[1].retry_amplification),
    );
    compare(
        "validating MAC: frames reported lost",
        "most (late ACKs mis-credit retries)",
        &format!("{}/50", rows[1].reported_lost),
    );
    println!(
        "\nNote: the 'confirmed' column counts late ACKs the transmitter\n\
         cannot distinguish from timely ones — they arrive during *later*\n\
         retries and get mis-credited, which is itself a correctness bug\n\
         a validating MAC would introduce."
    );

    if faults.is_clean() {
        // Compliant baseline: clean.
        assert_eq!(rows[0].transmissions, rows[0].frames_offered);
        assert_eq!(rows[0].confirmed, 50);
        assert_eq!(rows[0].reported_lost, 0);
        // Every validating variant: massive retry amplification and most
        // frames eventually declared lost despite having been received.
        for r in &rows[1..] {
            assert!(r.retry_amplification > 5.0, "{r:?}");
            assert!(
                r.reported_lost * 10 >= r.frames_offered * 8,
                "expected ≥80% reported lost, got {}/{}",
                r.reported_lost,
                r.frames_offered
            );
        }
    }
    exp.finish_with_status(&spec.slug, &rows)
}
