//! Experiment lifecycle layer for the Polite WiFi reproduction.
//!
//! Every paper experiment used to hand-roll the same four things:
//! simulator setup, seed plumbing, metric accumulation, and JSON result
//! output. This crate owns that lifecycle end to end:
//!
//! * [`scenario`] — a [`ScenarioBuilder`] that declares a
//!   population/topology once and can stamp out a fresh deterministic
//!   [`Simulator`](polite_wifi_sim::Simulator) per trial;
//! * [`ledger`] — a typed [`MetricsLedger`] accumulating named samples
//!   with mean/min/max summaries;
//! * [`runner`] — a [`Runner`] that fans independent trials across a
//!   scoped worker pool with deterministic per-trial seed derivation
//!   ([`derive_trial_seed`]); results merge in trial order, so 1-worker
//!   and N-worker runs are byte-identical;
//! * [`report`] — the [`Experiment`] facade and the unified JSON result
//!   schema written under `results/`.
//!
//! ```
//! use polite_wifi_harness::prelude::*;
//!
//! let runner = Runner::new(4);
//! let means: Vec<f64> = runner.run_trials(42, 8, |trial| {
//!     // `trial.rng` is seeded from `derive_trial_seed(42, trial.index)`,
//!     // so this is reproducible regardless of worker count.
//!     let mut ledger = MetricsLedger::new();
//!     ledger.record("noise_db", trial.seed as f64 % 7.0);
//!     ledger.mean("noise_db").unwrap()
//! });
//! assert_eq!(means.len(), 8);
//! ```

pub mod cancel;
pub mod ledger;
pub mod progress;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sink;

pub use cancel::CancelToken;
pub use ledger::{MetricSummary, MetricsLedger};
pub use progress::{
    set_thread_progress_sink, ChannelProgress, ProgressSample, ProgressSink, StderrProgress,
};
pub use report::{
    results_dir, set_thread_results_dir, write_json, write_text, AssertionOutcome, Experiment,
};
pub use runner::{derive_trial_seed, RunArgs, Runner, TrialCtx, TrialFailure};
pub use scenario::{Scenario, ScenarioBuilder};
pub use sink::Heartbeat;

/// The common imports experiment binaries need.
pub mod prelude {
    pub use crate::ledger::{MetricSummary, MetricsLedger};
    pub use crate::report::{results_dir, write_json, Experiment};
    pub use crate::runner::{derive_trial_seed, RunArgs, Runner, TrialCtx, TrialFailure};
    pub use crate::scenario::{Scenario, ScenarioBuilder};
    pub use polite_wifi_sim::FaultProfile;
}
