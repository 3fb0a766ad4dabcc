//! E1 — Figure 2: the frames exchanged between attacker and victim.
//!
//! One fake null-function frame from `aa:bb:bb:bb:bb:bb` to the victim;
//! the victim answers with an ACK addressed back to the forged MAC.
//! Prints the Wireshark-style rows and writes the pcap.
//!
//! Fully spec-driven: topology (AP + victim + monitor, linked) and the
//! null-flood parameters come from `scenarios/fig2_trace.json`, not
//! code — the template for writing your own scenario (README has the
//! walkthrough).

use crate::spec::{bitrate_from_label, AttackSpec, ScenarioSpec};
use crate::support::{compare, ensure_results_dir};
use polite_wifi_core::{AckVerifier, FakeFrameInjector, InjectionKind, InjectionPlan};
use polite_wifi_harness::{Experiment, RunArgs};
use polite_wifi_pcap::{trace, LinkType};

struct Fig2Result {
    fakes_sent: u64,
    acks_elicited: usize,
    ack_latency_us: Vec<u64>,
    trace_rows: Vec<[String; 4]>,
}

polite_wifi_obs::impl_to_json! { Fig2Result {
    fakes_sent, acks_elicited, ack_latency_us, trace_rows
} }

pub fn run(spec: &ScenarioSpec, args: RunArgs) -> std::io::Result<i32> {
    let mut exp = Experiment::start_with(&spec.name, &spec.paper_ref, args);

    let topo = spec
        .topology
        .as_ref()
        .expect("fig2_trace spec has a topology");
    let (sb, ids) = topo.builder(exp.args().faults);
    let (victim, attacker) = (ids["victim"], ids["attacker"]);
    let attacker_mac = topo.mac_of("attacker");
    let mut scenario = sb.build_with_seed(exp.seed());

    let Some(AttackSpec::NullFlood {
        victim: flood_victim,
        rate_pps,
        start_us,
        duration_us,
        bitrate,
        ..
    }) = spec.attacks.first()
    else {
        panic!("fig2_trace spec declares a null-flood attack");
    };
    let plan = InjectionPlan {
        victim: topo.mac_of(flood_victim),
        forged_ta: attacker_mac,
        kind: InjectionKind::NullData,
        rate_pps: *rate_pps,
        start_us: *start_us,
        duration_us: *duration_us,
        bitrate: bitrate_from_label(bitrate).expect("validated at parse time"),
    };
    let fakes = FakeFrameInjector::new(attacker).execute(&mut scenario.sim, &plan);
    let sim = scenario.run();

    // Print the attack exchange only (beacons elided, like the figure).
    let rows: Vec<_> = trace::rows(&sim.node(attacker).capture)
        .into_iter()
        .filter(|r| !r.info.starts_with("Beacon"))
        .collect();
    println!("\nSource             Destination        Info");
    for r in &rows {
        println!("{:<18} {:<18} {}", r.source, r.destination, r.info);
    }

    let exchanges = AckVerifier::new(attacker_mac).verify(&sim.node(attacker).capture);
    let latencies: Vec<u64> = exchanges
        .iter()
        .map(|e| e.ack_ts_us - e.fake_ts_us)
        .collect();
    exp.metrics.record("fakes_sent", fakes as f64);
    exp.metrics.record("acks_elicited", exchanges.len() as f64);
    for l in &latencies {
        exp.metrics.record("ack_latency_us", *l as f64);
    }

    println!();
    compare(
        "victim ACKs every fake frame",
        "yes",
        if exchanges.len() as u64 == fakes {
            "yes"
        } else {
            "NO"
        },
    );
    compare(
        "ACK destination is the forged MAC",
        "aa:bb:bb:bb:bb:bb",
        &rows
            .iter()
            .find(|r| r.info.starts_with("Acknowledgement"))
            .map(|r| r.destination.clone())
            .unwrap_or_default(),
    );
    compare(
        "ACK latency after frame end (SIFS + ACK airtime)",
        "10 µs SIFS",
        &format!("{} µs total", latencies.first().copied().unwrap_or(0)),
    );

    let path = ensure_results_dir()?.join(format!("{}.pcap", spec.slug));
    sim.node(attacker)
        .capture
        .write_pcap_file(&path, LinkType::Ieee80211Radiotap)?;
    println!("\npcap written to {}", path.display());

    scenario.observe_activity(victim, "power.victim");
    let snapshot = scenario.sim.take_obs();
    exp.absorb_obs(snapshot);

    if exp.args().faults.is_clean() {
        assert_eq!(exchanges.len() as u64, fakes, "every fake must be ACKed");
    }
    exp.finish_with_status(
        &spec.slug,
        &Fig2Result {
            fakes_sent: fakes,
            acks_elicited: exchanges.len(),
            ack_latency_us: latencies,
            trace_rows: rows
                .iter()
                .map(|r| {
                    [
                        r.time.clone(),
                        r.source.clone(),
                        r.destination.clone(),
                        r.info.clone(),
                    ]
                })
                .collect(),
        },
    )
}
