//! Maps a spec's `runner` field to the code that executes it.

use crate::spec::ScenarioSpec;
use polite_wifi_harness::RunArgs;
use std::io;

type RunnerFn = fn(&ScenarioSpec, RunArgs) -> io::Result<i32>;

/// Every registered runner, name → entry point. `generic` interprets
/// the spec alone; the rest are the ported paper experiments.
const RUNNERS: &[(&str, RunnerFn)] = &[
    ("generic", crate::generic::run),
    (
        "ablation_validate",
        crate::experiments::ablation_validate::run,
    ),
    ("battery_life", crate::experiments::battery_life::run),
    ("city_wardrive", crate::experiments::city_wardrive::run),
    ("ext_classifier", crate::experiments::ext_classifier::run),
    ("ext_driveby", crate::experiments::ext_driveby::run),
    ("ext_nav_dos", crate::experiments::ext_nav_dos::run),
    (
        "ext_randomization",
        crate::experiments::ext_randomization::run,
    ),
    ("ext_ranging", crate::experiments::ext_ranging::run),
    ("ext_vitals", crate::experiments::ext_vitals::run),
    ("fig5_keystroke", crate::experiments::fig5_keystroke::run),
    ("fig6_power", crate::experiments::fig6_power::run),
    ("sensing_hub", crate::experiments::sensing_hub::run),
    ("sifs_timing", crate::experiments::sifs_timing::run),
    ("table2_wardrive", crate::experiments::table2_wardrive::run),
];

/// All registered runner names (for `exp_run --list` and diagnostics).
pub fn runner_names() -> Vec<&'static str> {
    RUNNERS.iter().map(|(name, _)| *name).collect()
}

/// Dispatches a parsed spec to its runner. Errors if the spec names a
/// runner this build doesn't know.
pub fn run_spec(spec: &ScenarioSpec, args: RunArgs) -> io::Result<i32> {
    match RUNNERS.iter().find(|(name, _)| *name == spec.runner) {
        Some((_, run)) => run(spec, args),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "scenario names unknown runner `{}` (known: {})",
                spec.runner,
                runner_names().join(", ")
            ),
        )),
    }
}
