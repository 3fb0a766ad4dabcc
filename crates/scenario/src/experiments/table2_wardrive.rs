//! E5 — Table 2: the 5,328-device wardriving survey.
//!
//! Generates the synthetic city whose vendor marginals match Table 2
//! exactly, drives the three-stage discover/inject/verify pipeline
//! through it, and prints the top-20 vendor tables next to the paper's.
//!
//! This is the heavyweight experiment (full city ≈ a couple of minutes
//! single-threaded). The city's per-channel segments are independent, so
//! `--workers N` fans them over the harness worker pool — the report is
//! byte-identical for every worker count. Pass `--quick` to survey a
//! 500-device slice instead (its envelope is `<slug>_quick`).
//!
//! The paper's claims are recorded as `unverified` (discovered devices
//! that never ACKed: the paper found none) and `undiscovered_clients` /
//! `undiscovered_aps` (devices of the surveyed population the survey
//! never attributed); the spec's assertions bound them.

use crate::registry::Output;
use crate::spec::ScenarioSpec;
use polite_wifi_core::WardriveScanner;
use polite_wifi_devices::population::{TABLE2_APS, TABLE2_CLIENTS};
use polite_wifi_devices::CityPopulation;
use polite_wifi_harness::Experiment;

pub fn run(_: &ScenarioSpec, exp: &mut Experiment) -> std::io::Result<Output> {
    let args = exp.args();

    let mut population = CityPopulation::table2(2020);
    if args.quick {
        population.devices.truncate(500);
        println!("\n(--quick: surveying the first 500 devices only)");
    }
    let n_devices = population.devices.len();
    println!(
        "\ncity: {} devices ({} clients, {} APs, {} vendors)",
        n_devices,
        population.clients().count(),
        population.aps().count(),
        population.distinct_vendor_count()
    );

    let scanner = WardriveScanner {
        seed: exp.seed(),
        faults: args.faults,
        ..WardriveScanner::default()
    };
    println!(
        "scanning in segments of {} devices, {} ms dwell each, {} worker(s)...",
        scanner.segment_size,
        scanner.dwell_us / 1000,
        args.workers
    );
    let start = std::time::Instant::now();
    let report = scanner.run_observed(&population, args.workers, &mut exp.obs);
    let wall_s = start.elapsed().as_secs_f64();
    exp.note_quarantined(report.quarantined as u64);
    println!(
        "survey done in {:.1} s wall / {:.0} s simulated\n",
        wall_s,
        report.survey_time_us as f64 / 1e6
    );
    exp.metrics.record("wall_seconds", wall_s);
    exp.metrics.record("discovered", report.discovered as f64);
    exp.metrics.record("verified", report.verified as f64);
    exp.obs.add("wardrive.discovered", report.discovered as u64);
    exp.obs.add("wardrive.verified", report.verified as u64);
    exp.obs.add("wardrive.clients", report.total_clients as u64);
    exp.obs.add("wardrive.aps", report.total_aps as u64);
    exp.metrics
        .record("survey_time_s", report.survey_time_us as f64 / 1e6);

    // Table 2, side by side with the paper.
    println!(
        "{:<16} {:>6} {:>6}   {:<16} {:>6} {:>6}",
        "Client vendor", "paper", "ours", "AP vendor", "paper", "ours"
    );
    let ours_client = |v: &str| {
        report
            .client_counts
            .iter()
            .find(|(name, _)| name == v)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    let ours_ap = |v: &str| {
        report
            .ap_counts
            .iter()
            .find(|(name, _)| name == v)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    for i in 0..20 {
        let (cv, cc) = TABLE2_CLIENTS[i];
        let (av, ac) = TABLE2_APS[i];
        println!(
            "{:<16} {:>6} {:>6}   {:<16} {:>6} {:>6}",
            cv,
            cc,
            ours_client(cv),
            av,
            ac,
            ours_ap(av)
        );
    }
    let named_c: u32 = TABLE2_CLIENTS.iter().map(|(_, c)| c).sum();
    let named_a: u32 = TABLE2_APS.iter().map(|(_, c)| c).sum();
    println!(
        "{:<16} {:>6} {:>6}   {:<16} {:>6} {:>6}",
        "Others",
        1523 - named_c,
        report.total_clients.saturating_sub(
            TABLE2_CLIENTS
                .iter()
                .map(|(v, _)| ours_client(v))
                .sum::<u32>()
        ),
        "Others",
        3805 - named_a,
        report
            .total_aps
            .saturating_sub(TABLE2_APS.iter().map(|(v, _)| ours_ap(v)).sum::<u32>())
    );
    println!(
        "{:<16} {:>6} {:>6}   {:<16} {:>6} {:>6}\n",
        "Total", 1523, report.total_clients, "Total", 3805, report.total_aps
    );

    let unverified = report.discovered.abs_diff(report.verified);
    exp.metrics.record("unverified", unverified as f64);
    let missed = |population: usize, found: u32| population as f64 - found as f64;
    exp.metrics.record(
        "undiscovered_clients",
        missed(population.clients().count(), report.total_clients),
    );
    exp.metrics.record(
        "undiscovered_aps",
        missed(population.aps().count(), report.total_aps),
    );
    exp.metrics
        .record("client_vendors", report.client_vendor_count as f64);
    exp.metrics
        .record("ap_vendors", report.ap_vendor_count as f64);
    exp.metrics
        .record("vendors", report.distinct_vendor_count as f64);
    exp.metrics.record("pmf_aps", report.pmf_aps as f64);
    if report.quarantined > 0 {
        println!(
            "({} target(s) quarantined under the `{}` fault profile)",
            report.quarantined, args.faults
        );
    }
    Ok(Output {
        quick_slug: true,
        ..Output::new(report)
    })
}
