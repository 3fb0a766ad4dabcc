//! E3 — Figure 3: the attacked AP sends deauthentication bursts at the
//! attacker — and still ACKs the fake frames. A manual MAC blocklist on
//! the AP changes nothing.

use crate::spec::ScenarioSpec;
use crate::support::{compare, ensure_results_dir};
use polite_wifi_core::AckVerifier;
use polite_wifi_frame::{builder, MacAddr};
use polite_wifi_harness::{derive_trial_seed, Experiment, RunArgs, ScenarioBuilder};
use polite_wifi_mac::{Behavior, StationConfig};
use polite_wifi_pcap::{trace, LinkType};
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sim::{NodeId, Simulator};

struct Fig3Result {
    phase1_acks: usize,
    phase1_deauths: usize,
    deauth_burst_shares_sequence_number: bool,
    phase2_blocklisted_acks: usize,
    trace_rows: Vec<[String; 4]>,
}

polite_wifi_obs::impl_to_json! { Fig3Result {
    phase1_acks, phase1_deauths, deauth_burst_shares_sequence_number, phase2_blocklisted_acks,
    trace_rows
} }

fn run_phase(
    seed: u64,
    blocklist: bool,
    faults: polite_wifi_sim::FaultProfile,
) -> (Simulator, NodeId, NodeId) {
    let ap_mac: MacAddr = "f2:6e:0b:aa:00:01".parse().unwrap();
    let mut sb = ScenarioBuilder::new().duration_us(1_000_000).faults(faults);
    let mut ap_cfg = StationConfig::access_point(ap_mac, "PrivateNet");
    ap_cfg.behavior = Behavior::deauthing_ap();
    ap_cfg.beacon_interval_us = None; // keep the figure's trace clean
    let ap = sb.station(ap_cfg, (0.0, 0.0));
    let attacker = sb.monitor(MacAddr::FAKE, (5.0, 0.0));
    sb.retries(attacker, false);

    let mut scenario = sb.build_with_seed(seed);
    if blocklist {
        scenario.sim.station_mut(ap).block_mac(MacAddr::FAKE);
    }
    for i in 0..5u64 {
        scenario.sim.inject(
            10_000 + i * 100_000,
            attacker,
            builder::fake_null_frame(ap_mac, MacAddr::FAKE),
            BitRate::Mbps1,
        );
    }
    scenario.run();
    (scenario.sim, ap, attacker)
}

pub fn run(spec: &ScenarioSpec, args: RunArgs) -> std::io::Result<i32> {
    let mut exp = Experiment::start_with(&spec.name, &spec.paper_ref, args);

    let faults = exp.args().faults;

    // Phase 1: plain deauthing AP.
    let (mut sim, ap, attacker) = run_phase(derive_trial_seed(exp.seed(), 0), false, faults);
    let rows: Vec<_> = trace::rows(&sim.node(attacker).capture);
    println!("\nSource             Destination        Info");
    for r in rows.iter().take(12) {
        println!("{:<18} {:<18} {}", r.source, r.destination, r.info);
    }

    let acks = AckVerifier::new(MacAddr::FAKE)
        .verify(&sim.node(attacker).capture)
        .len();
    let deauths = sim.station(ap).stats.deauths_sent as usize;

    // Burst retries share one sequence number, as the figure shows
    // (SN=3275 three times, then SN=3281).
    let deauth_sns: Vec<u16> = sim
        .global_capture()
        .frames()
        .iter()
        .filter_map(|cf| match &cf.frame {
            polite_wifi_frame::Frame::Mgmt(m)
                if matches!(
                    m.body,
                    polite_wifi_frame::ManagementBody::Deauthentication { .. }
                ) =>
            {
                Some(m.seq.sequence)
            }
            _ => None,
        })
        .collect();
    let shares_sn = deauth_sns.chunks(3).all(|c| c.iter().all(|&s| s == c[0]));

    // Phase 2: administrator blocks the attacker's MAC. "This experiment
    // destroyed the last hope of preventing this attack."
    let (mut sim2, _ap2, attacker2) = run_phase(derive_trial_seed(exp.seed(), 1), true, faults);
    let blocked_acks = AckVerifier::new(MacAddr::FAKE)
        .verify(&sim2.node(attacker2).capture)
        .len();

    exp.metrics.record("phase1_acks", acks as f64);
    exp.metrics.record("phase1_deauths", deauths as f64);
    exp.metrics
        .record("phase2_blocklisted_acks", blocked_acks as f64);

    println!();
    compare(
        "AP deauths the never-associated attacker",
        "yes",
        if deauths > 0 { "yes" } else { "no" },
    );
    compare(
        "deauth burst repeats one sequence number",
        "yes (SN=3275 ×3)",
        if shares_sn { "yes" } else { "no" },
    );
    compare("AP still ACKs the fake frames", "yes", &format!("{acks}/5"));
    compare(
        "ACKs after blocklisting attacker MAC",
        "still yes",
        &format!("{blocked_acks}/5"),
    );

    if faults.is_clean() {
        assert_eq!(acks, 5);
        assert_eq!(blocked_acks, 5);
        assert!(deauths >= 3);
    }

    let path = ensure_results_dir()?.join("fig3_deauth.pcap");
    sim.node(attacker)
        .capture
        .write_pcap_file(&path, LinkType::Ieee80211Radiotap)?;
    println!("pcap written to {}", path.display());

    exp.absorb_obs(sim.take_obs());
    exp.absorb_obs(sim2.take_obs());
    exp.finish_with_status(
        &spec.slug,
        &Fig3Result {
            phase1_acks: acks,
            phase1_deauths: deauths,
            deauth_burst_shares_sequence_number: shares_sn,
            phase2_blocklisted_acks: blocked_acks,
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
