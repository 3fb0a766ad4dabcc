//! E4 — §2.2: why Polite WiFi is not preventable.
//!
//! Part 1: the SIFS deadline (10/16 µs) versus measured WPA2 frame
//! processing (200–700 µs) — a validating MAC misses the deadline by one
//! to two orders of magnitude, so the transmitter retransmits long before
//! a "validated ACK" could exist.
//!
//! Part 2: even granting an infinitely fast decoder, a PMF-protected
//! victim still answers a forged RTS with a CTS, because control frames
//! cannot be encrypted.

use crate::spec::ScenarioSpec;
use crate::support::{bar, compare};
use polite_wifi_core::analysis;
use polite_wifi_frame::{builder, MacAddr};
use polite_wifi_harness::{Experiment, RunArgs, ScenarioBuilder};
use polite_wifi_mac::{Behavior, StationConfig};
use polite_wifi_phy::rate::BitRate;
use polite_wifi_phy::timing::{WPA2_DECODE_MAX_US, WPA2_DECODE_MIN_US};

struct SifsResult {
    report: polite_wifi_core::analysis::SifsReport,
    worst_case_overrun: f64,
    pmf_victim_cts_count: u64,
    pmf_victim_ack_count: u64,
}

polite_wifi_obs::impl_to_json! { SifsResult {
    report, worst_case_overrun, pmf_victim_cts_count, pmf_victim_ack_count
} }

pub fn run(spec: &ScenarioSpec, args: RunArgs) -> std::io::Result<i32> {
    let mut exp = Experiment::start_with(&spec.name, &spec.paper_ref, args);

    let report = analysis::sifs_report();
    println!("\n-- Part 1: validate-then-ACK misses the SIFS deadline --\n");
    for (band, sweep) in &report.sweeps {
        println!("{band}:");
        for f in sweep {
            let label = if f.ack_ready_us == f.deadline_us {
                "FCS-only ACK (real 802.11)".to_string()
            } else {
                format!("validate first ({} µs decode)", f.ack_ready_us)
            };
            println!(
                "  {:<34} ready at {:>4} µs vs {:>2} µs budget  {}  {}",
                label,
                f.ack_ready_us,
                f.deadline_us,
                bar(f.ack_ready_us as f64, 700.0, 28),
                if f.misses_deadline {
                    "MISSES — frame retransmitted"
                } else {
                    "on time"
                }
            );
        }
        println!();
    }
    compare(
        "WPA2 decode latency (cited prior work)",
        "200–700 µs",
        &format!("{WPA2_DECODE_MIN_US}–{WPA2_DECODE_MAX_US} µs (modelled)"),
    );
    compare(
        "overrun vs SIFS",
        "orders of magnitude",
        &format!("up to {:.0}x", analysis::worst_case_overrun()),
    );
    for (band, speedup) in &report.required_speedup {
        compare(
            &format!("decoder speedup needed on {band}"),
            ">10x",
            &format!("{speedup:.0}x"),
        );
    }

    println!("\n-- Part 2: the RTS/CTS fallback defeats even a fast decoder --\n");
    let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
    let mut sb = ScenarioBuilder::new()
        .duration_us(1_000_000)
        .faults(exp.args().faults);
    let mut cfg = StationConfig::client(victim_mac);
    cfg.behavior = Behavior::pmf_client(); // 802.11w enabled
    let victim = sb.station(cfg, (0.0, 0.0));
    let attacker = sb.client(MacAddr::FAKE, (5.0, 0.0));
    let mut scenario = sb.build_with_seed(exp.seed());
    for i in 0..10u64 {
        scenario.sim.inject(
            i * 50_000,
            attacker,
            builder::fake_rts(victim_mac, MacAddr::FAKE, 248),
            BitRate::Mbps11,
        );
    }
    let sim = scenario.run();
    let cts = sim.station(victim).stats.cts_sent;
    compare(
        "PMF victim answers forged RTS with CTS",
        "10/10",
        &format!("{cts}/10"),
    );
    if exp.args().faults.is_clean() {
        assert_eq!(cts, 10);
    }
    exp.metrics.record("pmf_victim_cts", cts as f64);

    let ack_count = sim.station(victim).stats.acks_sent;
    let snapshot = scenario.sim.take_obs();
    exp.absorb_obs(snapshot);
    exp.finish_with_status(
        &spec.slug,
        &SifsResult {
            worst_case_overrun: analysis::worst_case_overrun(),
            pmf_victim_cts_count: cts,
            pmf_victim_ack_count: ack_count,
            report,
        },
    )
}
