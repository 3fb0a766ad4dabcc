//! E10 — the city-scale wardrive: 100k (or 1M) synthetic devices on the
//! spatial-cell simulator core.
//!
//! Where E5 reproduces Table 2's exact 5,328-device census, this
//! experiment answers the scale question the paper's §5 gestures at:
//! what does the survey cost at city volume? A synthetic population is
//! scattered over a 3 km × 3 km square, partitioned into per-channel
//! neighbourhood segments, and driven through with the interference-cell
//! grid and calendar-queue scheduler (DESIGN.md §11).
//!
//! Scale knobs:
//!
//! - `"params": {"devices": 1000000}` in the spec overrides the
//!   100,000-device default (the million-device run). The param is part
//!   of the hashed canonical spec, so the daemon's cache keys on it.
//! - `--quick` shrinks the per-segment dwell, **not** the device count —
//!   the city stays city-sized, each neighbourhood is just visited more
//!   briefly.
//! - `--workers N` fans segments over the worker pool; the result
//!   envelope is byte-identical at every worker count (nothing
//!   wall-clock-dependent is recorded in it).
//!
//! The drive only hears what transmits within the 150 m cutoff of its
//! path, so discovery is sparse by design; the spec asserts that it
//! `discovered`, `verified` and `occupied_cells` are non-zero (a silent
//! city means the propagation plumbing broke).

use crate::registry::Output;
use crate::spec::ScenarioSpec;
use polite_wifi_core::CityWardrive;
use polite_wifi_harness::Experiment;
use polite_wifi_obs::Obs;
use std::io;

/// The city size when the spec sets no `params.devices`.
const DEFAULT_DEVICES: usize = 100_000;
/// The largest documented run.
const MAX_DEVICES: usize = 1_000_000;

/// The spec's `params.devices`, or [`DEFAULT_DEVICES`]. Specs arrive
/// from outside (the daemon), so a bad value is an `InvalidInput` error,
/// not a panic.
fn devices(spec: &ScenarioSpec) -> io::Result<usize> {
    let set = spec.params.iter().any(|(k, _)| k == "devices");
    match spec.param_num("devices") {
        Some(n) if n.fract() == 0.0 && (1.0..=MAX_DEVICES as f64).contains(&n) => Ok(n as usize),
        None if !set => Ok(DEFAULT_DEVICES),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("`params.devices` must be a whole number in 1..={MAX_DEVICES}"),
        )),
    }
}

pub fn run(spec: &ScenarioSpec, exp: &mut Experiment) -> io::Result<Output> {
    let devices = devices(spec)?;
    let args = exp.args();

    let drive = CityWardrive {
        seed: exp.seed(),
        devices,
        dwell_us: if args.quick { 500_000 } else { 1_000_000 },
        faults: args.faults,
        ..CityWardrive::default()
    };
    println!(
        "\ncity: {} devices over {:.1} km², segments of {}, {} ms dwell, {} worker(s)",
        drive.devices,
        (drive.area_m / 1000.0) * (drive.area_m / 1000.0),
        drive.segment_size,
        drive.dwell_us / 1000,
        args.workers
    );

    let start = std::time::Instant::now();
    let mut obs = Obs::new();
    let report = drive.run_observed(args.workers, &mut obs);
    let wall_s = start.elapsed().as_secs_f64();
    exp.absorb_obs(obs);

    let events_per_sec = report.events_dispatched as f64 / wall_s.max(1e-9);
    println!(
        "drive done in {:.1} s wall / {:.0} s simulated — {} events at {:.2} M events/s \
         across {} worker(s)",
        wall_s,
        report.survey_time_us as f64 / 1e6,
        report.events_dispatched,
        events_per_sec / 1e6,
        args.workers
    );

    // Only deterministic quantities go into the envelope (wall time and
    // events/s are printed above instead), so the result JSON stays
    // byte-identical at workers 1, 4 and 8.
    exp.metrics.record("devices", report.devices as f64);
    exp.metrics.record("segments", report.segments as f64);
    exp.metrics.record("discovered", report.discovered as f64);
    exp.metrics.record("verified", report.verified as f64);
    exp.metrics
        .record("events_dispatched", report.events_dispatched as f64);
    exp.metrics
        .record("occupied_cells", report.occupied_cells as f64);
    exp.metrics
        .record("survey_time_s", report.survey_time_us as f64 / 1e6);
    exp.obs.add("wardrive.discovered", report.discovered as u64);
    exp.obs.add("wardrive.verified", report.verified as u64);

    Ok(Output {
        quick_slug: true,
        ..Output::new(report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city(params: &str) -> ScenarioSpec {
        ScenarioSpec::parse(&format!(
            r#"{{"name": "C", "paper_ref": "ref", "slug": "c", "runner": "city_wardrive",
                "run": {{"seed": 1, "trials": 1, "workers": 1}}{params}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn devices_param_sizes_the_city_and_the_cache_key() {
        let default = city("");
        let million = city(r#", "params": {"devices": 1000000}"#);
        assert_eq!(devices(&default).unwrap(), DEFAULT_DEVICES);
        assert_eq!(devices(&million).unwrap(), 1_000_000);
        assert_ne!(default.canonical_hash(), million.canonical_hash());
    }

    #[test]
    fn bad_devices_are_rejected_not_panicked_on() {
        for bad in ["0", "1.5", "2000000", "-3", "\"many\""] {
            let spec = city(&format!(r#", "params": {{"devices": {bad}}}"#));
            let err = devices(&spec).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad}");
        }
    }
}
