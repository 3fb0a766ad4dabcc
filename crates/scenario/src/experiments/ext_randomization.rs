//! X3 — extension: MAC randomisation vs the survey.
//!
//! The paper's 2020 survey attributed every responder to a vendor by its
//! OUI. Modern phones randomise their MAC addresses, which hides the
//! vendor — but, as this experiment shows, does nothing about the ACK:
//! every randomised device still answers fake frames. Attribution
//! degrades; the attack surface does not. Each randomised fraction
//! records its `unverified` count (its maximum must stay 0), and the
//! 0% and 100% rows their vendor attribution.

use crate::registry::Output;
use crate::spec::ScenarioSpec;
use polite_wifi_core::WardriveScanner;
use polite_wifi_devices::{CityPopulation, DeviceSpec};
use polite_wifi_harness::Experiment;

struct RandomizationResult {
    fraction: f64,
    discovered: usize,
    verified: usize,
    unknown_clients: u32,
    apple_clients_attributed: u32,
}

polite_wifi_obs::impl_to_json! { RandomizationResult {
    fraction, discovered, verified, unknown_clients, apple_clients_attributed
} }

pub fn run(_: &ScenarioSpec, exp: &mut Experiment) -> std::io::Result<Output> {
    let args = exp.args();

    // A phone-heavy slice of the city: Apple/Google/Samsung clients + APs.
    let full = CityPopulation::table2(30);
    let mut base: Vec<DeviceSpec> = full
        .clients()
        .filter(|d| ["Apple", "Google", "Samsung"].contains(&d.vendor.as_str()))
        .take(90)
        .cloned()
        .collect();
    base.extend(full.aps().take(30).cloned());

    println!(
        "\nslice: {} devices (90 phone clients, 30 APs)\n",
        base.len()
    );
    println!(
        "{:>10} {:>11} {:>9} {:>9} {:>16}",
        "randomised", "discovered", "verified", "unknown", "Apple attributed"
    );

    let mut rows = Vec::new();
    for fraction in [0.0, 0.5, 1.0] {
        let slice = CityPopulation {
            devices: base.clone(),
            registry: full.registry.clone(),
        }
        .with_randomized_client_macs(fraction, 7);
        let report = WardriveScanner {
            segment_size: 40,
            dwell_us: 2_500_000,
            seed: exp.seed(),
            faults: args.faults,
            ..WardriveScanner::default()
        }
        .run_observed(&slice, args.workers, &mut exp.obs);
        exp.note_quarantined(report.quarantined as u64);
        let unknown = report
            .client_counts
            .iter()
            .find(|(v, _)| v.starts_with("Unknown"))
            .map(|(_, c)| *c)
            .unwrap_or(0);
        let apple = report
            .client_counts
            .iter()
            .find(|(v, _)| v == "Apple")
            .map(|(_, c)| *c)
            .unwrap_or(0);
        println!(
            "{:>9.0}% {:>11} {:>9} {:>9} {:>16}",
            fraction * 100.0,
            report.discovered,
            report.verified,
            unknown,
            apple
        );
        exp.metrics.record("verified", report.verified as f64);
        let unverified = report.discovered.abs_diff(report.verified);
        exp.metrics.record("unverified", unverified as f64);
        exp.obs.add("wardrive.discovered", report.discovered as u64);
        exp.obs.add("wardrive.verified", report.verified as u64);
        rows.push(RandomizationResult {
            fraction,
            discovered: report.discovered,
            verified: report.verified,
            unknown_clients: unknown,
            apple_clients_attributed: apple,
        });
    }

    exp.metrics
        .record("unknown_clients_0pct", rows[0].unknown_clients as f64);
    exp.metrics
        .record("unknown_clients_100pct", rows[2].unknown_clients as f64);
    exp.metrics.record(
        "apple_attributed_100pct",
        rows[2].apple_clients_attributed as f64,
    );
    Ok(Output::new(rows))
}
