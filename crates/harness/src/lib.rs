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
//!   schema written under `results/`;
//! * [`flags`] — the one command-line parser: each binary declares its
//!   value flags, switches and positionals in a [`FlagSpec`], and every
//!   usage problem comes back in one message (callers exit 2).
//!   [`RunArgs`], the experiment flags, is one such declaration.
//!
//! ```
//! use polite_wifi_harness::prelude::*;
//!
//! let runner = Runner::new(4);
//! let seed_of = |t| derive_trial_seed(42, t as u64);
//! let (means, failures) = runner.run_trials_checked(8, seed_of, |trial| {
//!     // Trial `t` runs under `derive_trial_seed(42, t)` whichever
//!     // worker runs it, so this is reproducible at any worker count.
//!     // Eight trials fan over the pool, so each gets one worker.
//!     assert_eq!(trial.workers, 1);
//!     let mut ledger = MetricsLedger::new();
//!     ledger.record("noise_db", trial.seed as f64 % 7.0);
//!     ledger.mean("noise_db").unwrap()
//! });
//! assert_eq!(means.len(), 8);
//! assert!(failures.is_empty());
//! ```
//!
//! Experiments run their trials through
//! [`Experiment::run_trials`](report::Experiment::run_trials), which adds
//! `--inject-trial-panic`, cancellation and progress reporting on top.

pub mod cancel;
pub mod flags;
pub mod ledger;
pub mod progress;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sink;

pub use cancel::CancelToken;
pub use flags::{FlagSpec, Flags};
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
