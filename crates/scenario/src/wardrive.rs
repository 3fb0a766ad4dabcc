//! The segment-drive runner (`"runner": "wardrive"`): the paper's §3
//! survey over the population a spec's `wardrive` section declares, on
//! `polite-wifi-core`'s one segment engine. Table 2 (E5), the city drive
//! (E10) and MAC randomisation (X3, one case per fraction) are data.
//! Trial `t` drives case `t mod n` and folds like the generic runner's
//! (`generic::fold`). Its segments fan over the trial's
//! [`TrialCtx::workers`](polite_wifi_harness::TrialCtx::workers): the
//! whole pool for a lone trial, one worker when several trials fan over
//! the pool instead. Segments merge in order,
//! so the envelope is byte-identical at any worker count. Wall time is
//! printed, never recorded.

use crate::generic::fold;
use crate::registry::Output;
use crate::spec::{Drive, PopulationSpec, ScenarioSpec, WardriveSpec};
use polite_wifi_core::{CityReport, CityWardrive, ScanReport, WardriveScanner};
use polite_wifi_devices::population::{TABLE2_APS, TABLE2_CLIENTS};
use polite_wifi_devices::CityPopulation;
use polite_wifi_harness::{Experiment, MetricsLedger, RunArgs, TrialCtx};
use polite_wifi_obs::json::{JsonWriter, ToJson};
use polite_wifi_obs::Obs;
use std::io;
use std::time::Instant;

/// What one drive reports.
enum Report {
    Parked(ScanReport),
    DriveThrough(CityReport),
}

impl ToJson for Report {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Report::Parked(report) => report.write_json(w),
            Report::DriveThrough(report) => report.write_json(w),
        }
    }
}

/// One trial's row in the payload of a spec that declares `cases`.
struct CaseRow {
    name: String,
    report: Report,
}

polite_wifi_obs::impl_to_json! { CaseRow { name, report } }

/// Runs every trial's drive. The payload lists each completed trial's
/// report, in its case's row when the spec declares cases.
pub fn run(spec: &ScenarioSpec, exp: &mut Experiment) -> io::Result<Output> {
    let args = exp.args();
    let cases = spec.resolved_cases();
    let seed_of = |t| (spec.run.case_seed).trial_seed(t, cases.len(), args.seed);
    let results = exp.run_trials_seeded(seed_of, |ctx| {
        let case = cases[ctx.index % cases.len()];
        let (report, ledger, obs) = drive(case.wardrive.expect("validated"), &args, ctx);
        let name = case.name.to_string();
        (CaseRow { name, report }, ledger, obs)
    });

    let names: Vec<&str> = cases.iter().map(|c| c.name).collect();
    let (rows, by_case) = fold(exp, &names, results);
    for row in &rows {
        if let Report::Parked(report) = &row.report {
            exp.note_quarantined(report.quarantined as u64);
        }
    }
    let payload: Box<dyn ToJson> = match spec.cases.is_empty() {
        true => Box::new(rows.into_iter().map(|r| r.report).collect::<Vec<_>>()),
        false => Box::new(rows),
    };
    Ok(Output { payload, by_case })
}

/// One trial's drive under its seed, its segments fanned over its
/// workers: its report, metrics and segments' observability.
fn drive(section: &WardriveSpec, args: &RunArgs, trial: TrialCtx) -> (Report, MetricsLedger, Obs) {
    let (mut ledger, mut obs) = (MetricsLedger::new(), Obs::new());
    let TrialCtx { seed, workers, .. } = trial;
    let devices = section.quick_devices.filter(|_| args.quick);
    let dwell_us = (section.quick_dwell_us.filter(|_| args.quick)).unwrap_or(section.dwell_us);
    let start = Instant::now();
    let (report, devices) = match section.drive {
        Drive::DriveThrough => {
            let PopulationSpec::City { devices: city } = section.population else {
                unreachable!("validated: a drive-through drives a city");
            };
            let drive = CityWardrive {
                seed,
                devices: devices.unwrap_or(city),
                segment_size: section.segment_size,
                dwell_us,
                faults: args.faults,
                ..CityWardrive::default()
            };
            let report = drive.run_observed(workers, &mut obs);
            record_city(&report, &mut ledger, &mut obs);
            (Report::DriveThrough(report), drive.devices)
        }
        Drive::Parked => {
            let mut population = population(&section.population, seed);
            population.devices.truncate(devices.unwrap_or(usize::MAX));
            if let (Some(fraction), Some(mac_seed)) = (section.randomized, section.mac_seed) {
                population = population.with_randomized_client_macs(fraction, mac_seed);
            }
            let scanner = WardriveScanner {
                seed,
                segment_size: section.segment_size,
                dwell_us,
                faults: args.faults,
                ..WardriveScanner::default()
            };
            let report = scanner.run_observed(&population, workers, &mut obs);
            record_survey(&report, &population, &mut ledger, &mut obs);
            if let PopulationSpec::Table2 { .. } = section.population {
                print_table2(&report);
            }
            (Report::Parked(report), population.devices.len())
        }
    };
    println!(
        "\n{:?} drive: {devices} devices, segments of {}, {} ms dwell, {workers} worker(s): {:.1} s",
        section.drive,
        section.segment_size,
        dwell_us / 1000,
        start.elapsed().as_secs_f64()
    );
    (report, ledger, obs)
}

/// The population a parked drive surveys; a city is generated from the
/// trial's `seed`.
fn population(spec: &PopulationSpec, seed: u64) -> CityPopulation {
    match spec {
        PopulationSpec::Table2 { seed } => CityPopulation::table2(*seed),
        PopulationSpec::Table2Slice {
            seed,
            vendors,
            clients,
            aps,
        } => {
            let full = CityPopulation::table2(*seed);
            let kept = (full.clients())
                .filter(|d| vendors.contains(&d.vendor))
                .take(*clients);
            let devices = kept.chain(full.aps().take(*aps)).cloned().collect();
            CityPopulation {
                devices,
                registry: full.registry.clone(),
            }
        }
        PopulationSpec::City { devices } => CityPopulation::synthetic_city(*devices, seed),
    }
}

/// The verified count of the first vendor `vendor` accepts, or 0.
fn count(counts: &[(String, u32)], vendor: impl Fn(&str) -> bool) -> u32 {
    (counts.iter())
        .find(|(name, _)| vendor(name))
        .map_or(0, |(_, c)| *c)
}

/// A parked survey's metrics (`unverified`: discovered devices that
/// never ACKed; `unknown_clients`: verified clients no OUI attributes)
/// and counters.
fn record_survey(r: &ScanReport, pop: &CityPopulation, ledger: &mut MetricsLedger, obs: &mut Obs) {
    let (clients, aps) = (pop.clients().count() as f64, pop.aps().count() as f64);
    let unknown = count(&r.client_counts, |v| v.starts_with("Unknown"));
    let apple = count(&r.client_counts, |v| v == "Apple");
    for (name, value) in [
        ("discovered", r.discovered as f64),
        ("verified", r.verified as f64),
        ("survey_time_s", r.survey_time_us as f64 / 1e6),
        ("unverified", r.discovered.abs_diff(r.verified) as f64),
        ("undiscovered_clients", clients - r.total_clients as f64),
        ("undiscovered_aps", aps - r.total_aps as f64),
        ("client_vendors", r.client_vendor_count as f64),
        ("ap_vendors", r.ap_vendor_count as f64),
        ("vendors", r.distinct_vendor_count as f64),
        ("pmf_aps", r.pmf_aps as f64),
        ("unknown_clients", unknown as f64),
        ("apple_attributed", apple as f64),
    ] {
        ledger.record(name, value);
    }
    obs.add("wardrive.discovered", r.discovered as u64);
    obs.add("wardrive.verified", r.verified as u64);
    obs.add("wardrive.clients", r.total_clients as u64);
    obs.add("wardrive.aps", r.total_aps as u64);
}

/// A drive-through's metrics and counters.
fn record_city(r: &CityReport, ledger: &mut MetricsLedger, obs: &mut Obs) {
    for (name, value) in [
        ("devices", r.devices as f64),
        ("segments", r.segments as f64),
        ("discovered", r.discovered as f64),
        ("verified", r.verified as f64),
        ("events_dispatched", r.events_dispatched as f64),
        ("occupied_cells", r.occupied_cells as f64),
        ("survey_time_s", r.survey_time_us as f64 / 1e6),
    ] {
        ledger.record(name, value);
    }
    obs.add("wardrive.discovered", r.discovered as u64);
    obs.add("wardrive.verified", r.verified as u64);
}

/// Table 2's top-20 vendor rows and totals, side by side with the
/// paper's.
fn print_table2(r: &ScanReport) {
    let row = |a: &str, pa: u32, oa: u32, b: &str, pb: u32, ob: u32| {
        println!("{a:<16} {pa:>6} {oa:>6}   {b:<16} {pb:>6} {ob:>6}");
    };
    let ours = |counts: &[(String, u32)], vendor: &str| count(counts, |name| name == vendor);
    println!("\nClient vendor     paper   ours   AP vendor         paper   ours");
    for ((cv, cc), (av, ac)) in TABLE2_CLIENTS.iter().zip(TABLE2_APS).take(20) {
        let (oc, oa) = (ours(&r.client_counts, cv), ours(&r.ap_counts, av));
        row(cv, *cc, oc, av, *ac, oa);
    }
    row("Total", 1523, r.total_clients, "Total", 3805, r.total_aps);
}
