//! Maps a spec's `runner` field to the code that executes it, and to
//! the spec sections that code reads.

use crate::experiments::{
    battery_life, city_wardrive, ext_classifier, ext_driveby, ext_randomization, ext_ranging,
    ext_vitals, fig5_keystroke, fig6_power, sensing_hub, table2_wardrive,
};
use crate::spec::ScenarioSpec;
use polite_wifi_harness::RunArgs;
use std::io;

type RunnerFn = fn(&ScenarioSpec, RunArgs) -> io::Result<i32>;

/// The optional sections the generic runner reads: all but `params`.
const GENERIC: &[&str] = &[
    "run",
    "topology",
    "attacks",
    "probes",
    "cases",
    "assertions",
];
/// The optional section a bespoke runner reads.
const BESPOKE: &[&str] = &["run"];

/// Every registered runner: name → entry point and the optional spec
/// sections it reads (any other is a parse error). `generic` interprets
/// the spec alone; the rest are the ported paper experiments.
pub(crate) const RUNNERS: &[(&str, RunnerFn, &[&str])] = &[
    ("generic", crate::generic::run, GENERIC),
    ("battery_life", battery_life::run, BESPOKE),
    ("city_wardrive", city_wardrive::run, &["run", "params"]),
    ("ext_classifier", ext_classifier::run, BESPOKE),
    ("ext_driveby", ext_driveby::run, BESPOKE),
    ("ext_randomization", ext_randomization::run, BESPOKE),
    ("ext_ranging", ext_ranging::run, BESPOKE),
    ("ext_vitals", ext_vitals::run, BESPOKE),
    ("fig5_keystroke", fig5_keystroke::run, BESPOKE),
    ("fig6_power", fig6_power::run, BESPOKE),
    ("sensing_hub", sensing_hub::run, BESPOKE),
    ("table2_wardrive", table2_wardrive::run, BESPOKE),
];

/// All registered runner names (for `exp_run --list` and diagnostics).
pub fn runner_names() -> Vec<&'static str> {
    RUNNERS.iter().map(|(name, ..)| *name).collect()
}

/// Dispatches a parsed spec to its runner. Errors if the spec names a
/// runner this build doesn't know.
pub fn run_spec(spec: &ScenarioSpec, args: RunArgs) -> io::Result<i32> {
    match RUNNERS.iter().find(|(name, ..)| *name == spec.runner) {
        Some((_, run, _)) => run(spec, args),
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
