//! The bespoke runners: experiments whose logic neither the generic nor
//! the wardrive runner can express as data (parameter sweeps,
//! classifiers, the continuous drive-by). Each `run(spec, exp)` writes
//! its logic as one trial, a function of the [`TrialCtx`] returning the
//! trial's payload, metrics and observability, and hands it to
//! `run_trials`, the trial path every runner shares: trial `t` runs
//! under `derive_trial_seed(seed, t)` (trial 0 under `seed` itself),
//! `--inject-trial-panic` and cancellation reach it, and a trial's
//! independent sub-units fan over [`TrialCtx::workers`]. Metrics hold
//! one sample per completed trial, and the payload is the first
//! completed trial's. The spec supplies identity, run defaults and the
//! assertions [`run_spec`](crate::run_spec) checks over those metrics.

use crate::generic::fold;
use crate::registry::Output;
use polite_wifi_harness::{Experiment, MetricsLedger, TrialCtx};
use polite_wifi_obs::json::ToJson;
use polite_wifi_obs::Obs;

pub mod battery_life;
pub mod ext_classifier;
pub mod ext_driveby;
pub mod ext_ranging;
pub mod ext_vitals;
pub mod fig5_keystroke;
pub mod fig6_power;
pub mod sensing_hub;

/// Runs `trial` once per trial through [`Experiment::run_trials`] and
/// folds the completed ones into the experiment (`generic::fold`).
/// `show` prints the first completed trial's payload, which becomes the
/// envelope's; when every trial failed the payload is `null`.
pub(crate) fn run_trials<P: ToJson + Send + 'static>(
    exp: &mut Experiment,
    trial: impl Fn(TrialCtx) -> (P, MetricsLedger, Obs) + Sync,
    show: impl FnOnce(&P),
) -> Output {
    let results = exp.run_trials(trial);
    let (trials, _) = fold(exp, &[""], results);
    match trials.into_iter().next() {
        Some(first) => {
            show(&first);
            Output::new(first)
        }
        None => {
            println!("\n(every trial degraded — writing a failure-only envelope)");
            Output::new(Option::<u64>::None)
        }
    }
}
