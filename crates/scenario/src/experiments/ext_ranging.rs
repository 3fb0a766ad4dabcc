//! X2 — extension: RSSI ranging to an unassociated victim (the Wi-Peep
//! direction). The attacker elicits as many ACKs as it wants, so the
//! estimate sharpens with sample count — quantified here. The per-distance
//! measurements are independent, so they fan out over the worker pool.

use crate::spec::ScenarioSpec;
use crate::support::compare;
use polite_wifi_core::{estimate_range, FakeFrameInjector, InjectionKind, InjectionPlan};
use polite_wifi_frame::MacAddr;
use polite_wifi_harness::{Experiment, RunArgs, ScenarioBuilder};
use polite_wifi_phy::rate::BitRate;

#[derive(Debug)]
struct RangeRow {
    true_distance_m: f64,
    samples: usize,
    median_rssi_dbm: f64,
    estimated_m: f64,
    relative_error: f64,
}

polite_wifi_obs::impl_to_json! { RangeRow {
    true_distance_m, samples, median_rssi_dbm, estimated_m, relative_error
} }

fn measure(
    true_distance: f64,
    rate_pps: u32,
    duration_us: u64,
    seed: u64,
    faults: polite_wifi_sim::FaultProfile,
) -> (RangeRow, polite_wifi_obs::Obs) {
    let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
    let mut sb = ScenarioBuilder::new()
        .duration_us(duration_us + 500_000)
        .faults(faults);
    let _v = sb.client(victim_mac, (true_distance, 0.0));
    let attacker = sb.monitor(MacAddr::FAKE, (0.0, 0.0));
    let mut scenario = sb.build_with_seed(seed);
    let plan = InjectionPlan {
        victim: victim_mac,
        forged_ta: MacAddr::FAKE,
        kind: InjectionKind::NullData,
        rate_pps,
        start_us: 0,
        duration_us,
        bitrate: BitRate::Mbps1,
    };
    FakeFrameInjector::new(attacker).execute(&mut scenario.sim, &plan);
    let sim = scenario.run();
    let model = sim.path_loss();
    let est = estimate_range(&sim.node(attacker).capture, MacAddr::FAKE, 20.0, &model)
        .expect("ACKs collected");
    let row = RangeRow {
        true_distance_m: true_distance,
        samples: est.samples,
        median_rssi_dbm: est.median_rssi_dbm,
        estimated_m: est.distance_m,
        relative_error: (est.distance_m - true_distance).abs() / true_distance,
    };
    (row, scenario.sim.take_obs())
}

pub fn run(spec: &ScenarioSpec, args: RunArgs) -> std::io::Result<i32> {
    let mut exp = Experiment::start_with(&spec.name, &spec.paper_ref, args);

    let seed = exp.seed();
    let faults = exp.args().faults;
    let distances = [2.0f64, 5.0, 10.0, 20.0];
    let results = exp.runner().run_indexed(distances.len(), |i| {
        measure(distances[i], 200, 3_000_000, seed + i as u64, faults)
    });
    let mut rows = Vec::with_capacity(results.len());
    for (row, obs) in results {
        exp.absorb_obs(obs);
        rows.push(row);
    }
    println!(
        "\n{:>8} {:>8} {:>10} {:>10} {:>8}",
        "true m", "samples", "RSSI dBm", "est. m", "err %"
    );
    for row in &rows {
        println!(
            "{:>8.1} {:>8} {:>10.1} {:>10.2} {:>7.1}%",
            row.true_distance_m,
            row.samples,
            row.median_rssi_dbm,
            row.estimated_m,
            row.relative_error * 100.0
        );
        exp.metrics.record("relative_error", row.relative_error);
    }

    // More elicited samples → tighter estimate (the Polite WiFi lever).
    let (short, short_obs) = measure(10.0, 50, 400_000, seed + 8, faults); // ~20 samples
    let (long, long_obs) = measure(10.0, 200, 10_000_000, seed + 8, faults); // ~2000 samples
    exp.absorb_obs(short_obs);
    exp.absorb_obs(long_obs);
    println!();
    compare(
        "estimate sharpens with elicited sample count",
        "-",
        &format!(
            "{:.0}% err @ {} samples vs {:.0}% err @ {} samples",
            short.relative_error * 100.0,
            short.samples,
            long.relative_error * 100.0,
            long.samples
        ),
    );
    compare(
        "ordering preserved across distances",
        "-",
        if rows.windows(2).all(|w| w[1].estimated_m > w[0].estimated_m) {
            "yes"
        } else {
            "no"
        },
    );

    if faults.is_clean() {
        assert!(rows.iter().all(|r| r.relative_error < 0.45), "{rows:?}");
        assert!(rows.windows(2).all(|w| w[1].estimated_m > w[0].estimated_m));
    }
    exp.finish_with_status(&spec.slug, &rows)
}
