//! X2 — extension: RSSI ranging to an unassociated victim (the Wi-Peep
//! direction). The attacker elicits as many ACKs as it wants, so the
//! estimate sharpens with sample count — quantified here as the
//! `short_run_*` and `long_run_*` metrics. The per-distance measurements
//! are independent, so they fan out over the worker pool; each records
//! its `relative_error`, and `ordering_violations` counts neighbouring
//! distances whose estimates do not increase.

use crate::registry::Output;
use crate::spec::ScenarioSpec;
use polite_wifi_core::elicit::null_flood;
use polite_wifi_core::estimate_range;
use polite_wifi_frame::MacAddr;
use polite_wifi_harness::Experiment;

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
    let (mut sim, attacker) = null_flood(
        victim_mac,
        (true_distance, 0.0),
        (0.0, 0.0),
        rate_pps,
        duration_us,
        seed,
        faults,
    );
    sim.run_until(duration_us + 500_000);
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
    (row, sim.take_obs())
}

pub fn run(_: &ScenarioSpec, exp: &mut Experiment) -> std::io::Result<Output> {
    let seed = exp.seed();
    let faults = exp.args().faults;
    let distances = [2.0f64, 5.0, 10.0, 20.0];
    let results = exp.runner().run_indexed(distances.len(), |i| {
        let d = distances[i];
        measure(d, 200, 3_000_000, seed.wrapping_add(i as u64), faults)
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
    let seed = seed.wrapping_add(8);
    let (short, short_obs) = measure(10.0, 50, 400_000, seed, faults); // ~20 samples
    let (long, long_obs) = measure(10.0, 200, 10_000_000, seed, faults); // ~2000 samples
    exp.absorb_obs(short_obs);
    exp.absorb_obs(long_obs);
    let rising = (rows.windows(2))
        .filter(|w| w[1].estimated_m > w[0].estimated_m)
        .count();
    let violations = rows.len() - 1 - rising;
    exp.metrics.record("ordering_violations", violations as f64);
    for (run, row) in [("short_run", &short), ("long_run", &long)] {
        exp.metrics
            .record(&format!("{run}_relative_error"), row.relative_error);
        exp.metrics
            .record(&format!("{run}_samples"), row.samples as f64);
    }
    Ok(Output::new(rows))
}
