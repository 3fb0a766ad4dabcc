//! X2 — extension: RSSI ranging to an unassociated victim (the Wi-Peep
//! direction). The attacker elicits as many ACKs as it wants, so the
//! estimate sharpens with sample count — quantified here as the
//! `short_run_*` and `long_run_*` metrics. The six measurements of a
//! trial are independent, so they fan out over the trial's workers; each
//! distance records its `relative_error`, and `ordering_violations`
//! counts neighbouring distances whose estimates do not increase. The
//! payload is the first trial's distance rows.

use super::run_trials;
use crate::registry::Output;
use crate::spec::ScenarioSpec;
use polite_wifi_core::elicit::null_flood;
use polite_wifi_core::estimate_range;
use polite_wifi_frame::MacAddr;
use polite_wifi_harness::{Experiment, MetricsLedger, Runner};
use polite_wifi_obs::Obs;

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

/// One null flood at `true_distance` m, `rate_pps` for `duration_us`,
/// under `seed` plus `offset`.
fn measure(
    (true_distance, rate_pps, duration_us, offset): (f64, u32, u64, u64),
    seed: u64,
    faults: polite_wifi_sim::FaultProfile,
) -> (RangeRow, Obs) {
    let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
    let (mut sim, attacker) = null_flood(
        victim_mac,
        (true_distance, 0.0),
        (0.0, 0.0),
        rate_pps,
        duration_us,
        seed.wrapping_add(offset),
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
    let faults = exp.args().faults;
    Ok(run_trials(
        exp,
        |t| {
            // (true distance m, pps, duration µs, seed offset): the four
            // distances, then ~20 and ~2000 samples at 10 m, where more
            // elicited samples give a tighter estimate (the Polite WiFi
            // lever). The six are independent, so they fan out.
            let runs = [
                (2.0, 200, 3_000_000, 0),
                (5.0, 200, 3_000_000, 1),
                (10.0, 200, 3_000_000, 2),
                (20.0, 200, 3_000_000, 3),
                (10.0, 50, 400_000, 8),
                (10.0, 200, 10_000_000, 8),
            ];
            let results = Runner::new(t.workers)
                .run_indexed(runs.len(), |i| measure(runs[i], t.seed, faults));
            let (mut ledger, mut obs) = (MetricsLedger::new(), Obs::new());
            let mut rows = Vec::with_capacity(results.len());
            for (row, sim_obs) in results {
                obs.absorb(&sim_obs, 0);
                rows.push(row);
            }
            let long = rows.pop().expect("six runs");
            let short = rows.pop().expect("six runs");
            for row in &rows {
                ledger.record("relative_error", row.relative_error);
            }
            let rising = (rows.windows(2))
                .filter(|w| w[1].estimated_m > w[0].estimated_m)
                .count();
            let violations = rows.len() - 1 - rising;
            ledger.record("ordering_violations", violations as f64);
            for (run, row) in [("short_run", &short), ("long_run", &long)] {
                ledger.record(&format!("{run}_relative_error"), row.relative_error);
                ledger.record(&format!("{run}_samples"), row.samples as f64);
            }
            (rows, ledger, obs)
        },
        |rows| {
            println!(
                "\n{:>8} {:>8} {:>10} {:>10} {:>8}",
                "true m", "samples", "RSSI dBm", "est. m", "err %"
            );
            for row in rows {
                println!(
                    "{:>8.1} {:>8} {:>10.1} {:>10.2} {:>7.1}%",
                    row.true_distance_m,
                    row.samples,
                    row.median_rssi_dbm,
                    row.estimated_m,
                    row.relative_error * 100.0
                );
            }
        },
    ))
}
