//! X5 — extension: channel-reservation denial of service via automatic
//! CTS.
//!
//! The paper's attacker *minimises* the NAV on its fakes to keep the
//! channel usable for measurement. This experiment flips the knob: forged
//! RTS frames with maximal Duration make the victim answer CTS — and
//! every station honouring virtual carrier sense, including stations
//! that cannot hear the attacker at all, defers for the advertised time.
//! A classic DoS, powered by the same unauthenticated response behaviour.
//! The five attack configurations are independent simulations, fanned
//! over the harness worker pool.

use crate::spec::ScenarioSpec;
use crate::support::{bar, compare};
use polite_wifi_core::{Attack, InjectionKind, InjectionPlan};
use polite_wifi_frame::MacAddr;
use polite_wifi_harness::{Experiment, RunArgs, ScenarioBuilder};
use polite_wifi_phy::rate::BitRate;

#[derive(Debug)]
struct NavDosRow {
    rts_per_second: u32,
    nav_us: u16,
    delivered_per_second: f64,
    throughput_fraction: f64,
}

polite_wifi_obs::impl_to_json! { NavDosRow {
    rts_per_second, nav_us, delivered_per_second, throughput_fraction
} }

/// Runs a legitimate pair offering 200 frames/s for 5 s while the
/// attacker fires `rts_pps` forged RTS at the victim with `nav_us`.
fn run_case(
    rts_pps: u32,
    nav_us: u16,
    seed: u64,
    faults: polite_wifi_sim::FaultProfile,
) -> (NavDosRow, polite_wifi_obs::Obs) {
    let a_mac: MacAddr = "02:00:00:00:00:0a".parse().unwrap();
    let b_mac: MacAddr = "02:00:00:00:00:0b".parse().unwrap();

    let seconds = 5u64;
    let mut sb = ScenarioBuilder::new()
        .duration_us(seconds * 1_000_000)
        .faults(faults);
    let a = sb.client(a_mac, (0.0, 0.0));
    let b = sb.client(b_mac, (10.0, 0.0));
    sb.associate(b, a_mac);
    let attacker = sb.client(MacAddr::FAKE, (20.0, 0.0));
    sb.retries(attacker, false);
    let mut scenario = sb.build_with_seed(seed);

    // Legitimate offered load: 200 small frames/s from A to B.
    let load = InjectionPlan {
        victim: b_mac,
        forged_ta: a_mac,
        kind: InjectionKind::QosData { payload_len: 200 },
        rate_pps: 200,
        start_us: 0,
        duration_us: seconds * 1_000_000,
        bitrate: BitRate::Mbps24,
    };
    load.launch(&mut scenario.sim, a);
    // The attack: forged RTS at the victim B with a chosen NAV, kept up
    // slightly past the measurement window (the DoS suppresses delivery
    // *while it runs*; a backlog flush afterwards is not throughput).
    let flood = InjectionPlan {
        victim: b_mac,
        forged_ta: MacAddr::FAKE,
        kind: InjectionKind::Rts { nav_us },
        rate_pps: rts_pps,
        start_us: 0,
        duration_us: (seconds + 1) * 1_000_000,
        bitrate: BitRate::Mbps1,
    };
    flood.launch(&mut scenario.sim, attacker);
    let sim = scenario.run();

    let delivered = sim.node(a).acks_received as f64 / seconds as f64;
    let row = NavDosRow {
        rts_per_second: rts_pps,
        nav_us,
        delivered_per_second: delivered,
        throughput_fraction: delivered / 200.0,
    };
    (row, scenario.sim.take_obs())
}

pub fn run(spec: &ScenarioSpec, args: RunArgs) -> std::io::Result<i32> {
    let mut exp = Experiment::start_with(&spec.name, &spec.paper_ref, args);

    let seed = exp.seed();
    let configs = [
        (0u32, 0u16),
        (10, 5_000),
        (30, 30_000),
        (40, 32_767),
        (60, 32_767),
    ];
    let faults = exp.args().faults;
    let results = exp.runner().run_indexed(configs.len(), |i| {
        run_case(configs[i].0, configs[i].1, seed, faults)
    });
    let mut rows = Vec::with_capacity(results.len());
    for (row, obs) in results {
        exp.absorb_obs(obs);
        rows.push(row);
    }

    println!(
        "\nlegitimate pair without attack: {:.0} frames/s delivered\n",
        rows[0].delivered_per_second
    );
    println!(
        "{:>8} {:>9} {:>13} {:>9}  throughput",
        "RTS/s", "NAV µs", "delivered/s", "fraction"
    );
    for row in &rows[1..] {
        println!(
            "{:>8} {:>9} {:>13.0} {:>8.0}%  {}",
            row.rts_per_second,
            row.nav_us,
            row.delivered_per_second,
            row.throughput_fraction * 100.0,
            bar(row.throughput_fraction, 1.0, 30)
        );
    }
    for row in &rows {
        exp.metrics
            .record("throughput_fraction", row.throughput_fraction);
    }

    println!();
    compare(
        "40 RTS/s with max NAV (NAV x rate > 1) strangles the channel",
        "-",
        &format!(
            "{:.0}% of baseline throughput",
            rows[3].throughput_fraction * 100.0
        ),
    );
    compare(
        "below the NAV x rate = 1 threshold the channel survives",
        "-",
        &format!(
            "{:.0}% at 30 RTS/s x 30 ms",
            rows[2].throughput_fraction * 100.0
        ),
    );
    compare(
        "attack bandwidth",
        "negligible",
        "≈0.7% airtime of forged 20-byte control frames",
    );

    if faults.is_clean() {
        assert!(rows[0].throughput_fraction > 0.95, "{rows:?}");
        assert!(
            rows[3].throughput_fraction < 0.15,
            "max-NAV attack left {}",
            rows[3].throughput_fraction
        );
        // More aggressive ≤ less throughput, monotonically.
        assert!(rows[4].throughput_fraction <= rows[3].throughput_fraction + 0.05);
    }
    exp.finish_with_status(&spec.slug, &rows)
}
