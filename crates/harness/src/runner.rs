//! Deterministic parallel trial execution.
//!
//! The [`Runner`] fans independent units of work across a scoped worker
//! pool. Two properties make parallelism invisible to results:
//!
//! 1. every unit derives its own seed from the base seed and its index
//!    ([`derive_trial_seed`]), never from shared RNG state, and
//! 2. results are merged **in index order** after all workers join,
//!
//! so a 1-worker run and an N-worker run of the same base seed produce
//! byte-identical reports.

use crate::flags::{FlagSpec, Flags};
use polite_wifi_sim::FaultProfile;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Derives the seed for one trial (or shard) from the experiment's base
/// seed. XOR with the index is injective for a fixed base, so no two
/// trials of a run ever share a seed.
pub fn derive_trial_seed(base_seed: u64, index: u64) -> u64 {
    base_seed ^ index
}

/// One trial that panicked (or was otherwise lost) and degraded
/// gracefully: the run continued, and this record landed in the result
/// envelope instead of a process abort.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialFailure {
    /// Trial index in `0..trials`.
    pub trial: u64,
    /// The derived seed the trial ran under — enough to replay it alone.
    pub seed: u64,
    /// Failure class (currently always `"panic"`).
    pub kind: String,
    /// The panic payload, when it was a string.
    pub detail: String,
}

polite_wifi_obs::impl_to_json! { TrialFailure { trial, seed, kind, detail } }

/// Renders a panic payload as text for a [`TrialFailure`].
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = err.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = err.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-trial context handed to the trial closure.
#[derive(Debug, Clone, Copy)]
pub struct TrialCtx {
    /// Trial index in `0..trials`.
    pub index: usize,
    /// This trial's derived seed; feed it to anything seedable.
    pub seed: u64,
    /// The workers this trial may fan its own sub-units over: the whole
    /// pool when the run is one trial, else 1, since the trials already
    /// fan over the pool. One pool, never workers × workers threads.
    pub workers: usize,
}

/// A scoped worker pool executing independent units of work.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    workers: usize,
}

impl Runner {
    /// A runner with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Runner {
        Runner {
            workers: workers.max(1),
        }
    }

    /// Worker count this runner fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `count` units of work, calling `work(index)` for each, and
    /// returns the results in index order regardless of which worker
    /// ran which unit or in what order they finished.
    pub fn run_indexed<T, F>(&self, count: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        if self.workers == 1 || count == 1 {
            return (0..count).map(&work).collect();
        }

        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
        let threads = self.workers.min(count);
        // Cancellation is thread-local; carry the spawning thread's
        // token into every scoped worker so a supervisor raising it
        // reaches trials wherever they run.
        let token = crate::cancel::current_token();

        // A worker panic resurfaces here, on the spawning thread, once
        // every worker has stopped.
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let prev = crate::cancel::install_token(token.clone());
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= count {
                            break;
                        }
                        local.push((idx, work(idx)));
                    }
                    collected.lock().unwrap().extend(local);
                    let _ = crate::cancel::install_token(prev);
                });
            }
        });

        let mut results = collected.into_inner().unwrap();
        results.sort_by_key(|(idx, _)| *idx);
        debug_assert_eq!(results.len(), count);
        results.into_iter().map(|(_, value)| value).collect()
    }

    /// Runs `trials` independent trials, trial `t` seeded `seed_of(t)`,
    /// with graceful degradation: each trial runs under `catch_unwind`,
    /// and a panicking one yields `None` in its slot plus a structured
    /// [`TrialFailure`] (carrying its seed for solo replay) while every
    /// other trial still completes. Both vectors are in trial order, so
    /// the worker-invariance guarantee extends to failures.
    pub fn run_trials_checked<T, F>(
        &self,
        trials: usize,
        seed_of: impl Fn(usize) -> u64 + Sync,
        trial: F,
    ) -> (Vec<Option<T>>, Vec<TrialFailure>)
    where
        T: Send,
        F: Fn(TrialCtx) -> T + Sync,
    {
        let workers = if trials == 1 { self.workers } else { 1 };
        let raw = self.run_indexed(trials, |index| {
            let ctx = TrialCtx {
                index,
                seed: seed_of(index),
                workers,
            };
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| trial(ctx)))
        });
        let mut results = Vec::with_capacity(trials);
        let mut failures = Vec::new();
        for (index, outcome) in raw.into_iter().enumerate() {
            match outcome {
                Ok(value) => results.push(Some(value)),
                Err(err) => {
                    results.push(None);
                    failures.push(TrialFailure {
                        trial: index as u64,
                        seed: seed_of(index),
                        kind: "panic".to_string(),
                        detail: panic_message(err),
                    });
                }
            }
        }
        (results, failures)
    }
}

/// Command-line arguments shared by every experiment binary.
///
/// Recognised flags: `--trials N`, `--workers M`, `--seed S`, `--quick`,
/// `--faults PROFILE`, `--max-trial-failures N`, `--allow-partial`,
/// `--trace-out FILE`, `--inject-trial-panic N`, `--progress`,
/// `--quiet`, declared over the shared [`crate::flags`] parser, so
/// *all* problems (unknown flags, duplicates, bad values, out-of-range
/// numbers) are reported in one aggregated message, and a typo'd
/// invocation is fixed in one round trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    pub trials: usize,
    pub workers: usize,
    pub seed: u64,
    pub quick: bool,
    /// Where to write the Chrome-trace span dump, if anywhere. Setting
    /// this also turns span recording on for the whole run.
    pub trace_out: Option<std::path::PathBuf>,
    /// Fault profile every scenario of the run is simulated under.
    pub faults: FaultProfile,
    /// Hard budget on gracefully-degraded trials: exceeding it fails the
    /// run even under `--allow-partial`. `None` = unbounded.
    pub max_trial_failures: Option<usize>,
    /// Exit 0 despite degraded trials or quarantined targets (as long
    /// as the `--max-trial-failures` budget holds).
    pub allow_partial: bool,
    /// Test hook: panic inside trial N to exercise graceful degradation
    /// end-to-end. The panic message is deterministic, so envelopes
    /// containing the failure stay byte-identical across worker counts.
    pub inject_trial_panic: Option<usize>,
    /// Emit a rate-limited progress heartbeat on stderr (trials done,
    /// frames/s, frame-fate counters).
    pub progress: bool,
    /// Silence advisory stderr diagnostics (see [`crate::sink`]).
    pub quiet: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            trials: 1,
            workers: 1,
            seed: 7,
            quick: false,
            trace_out: None,
            faults: FaultProfile::Clean,
            max_trial_failures: None,
            allow_partial: false,
            inject_trial_panic: None,
            progress: false,
            quiet: false,
        }
    }
}

const USAGE: &str = "usage: [--trials N] [--workers M] [--seed S] [--quick] \
[--faults clean|urban-drive|congested|flaky-dongle] [--max-trial-failures N] \
[--allow-partial] [--trace-out FILE] [--inject-trial-panic N] [--progress] \
[--quiet]";

const FLAGS: FlagSpec = FlagSpec {
    values: &[
        ("--trials", "a number"),
        ("--workers", "a number"),
        ("--seed", "a number"),
        ("--faults", "a fault profile"),
        ("--max-trial-failures", "a number"),
        ("--trace-out", "a file path"),
        ("--inject-trial-panic", "a number"),
    ],
    switches: &["--quick", "--allow-partial", "--progress", "--quiet"],
    positionals: false,
    usage: USAGE,
};

impl RunArgs {
    /// Parses flags (program name already stripped) over `defaults`,
    /// with one aggregated error message covering every problem.
    pub fn parse<I: Iterator<Item = String>>(
        args: I,
        defaults: RunArgs,
    ) -> Result<RunArgs, String> {
        let mut flags = Flags::parse(&FLAGS, args);
        let d = defaults;
        let out = RunArgs {
            trials: flags.value("--trials").unwrap_or(d.trials),
            workers: flags.value("--workers").unwrap_or(d.workers),
            seed: flags.value("--seed").unwrap_or(d.seed),
            quick: d.quick || flags.switch("--quick"),
            trace_out: flags.value("--trace-out").or(d.trace_out),
            faults: flags.value("--faults").unwrap_or(d.faults),
            max_trial_failures: flags.value("--max-trial-failures").or(d.max_trial_failures),
            allow_partial: d.allow_partial || flags.switch("--allow-partial"),
            inject_trial_panic: flags.value("--inject-trial-panic").or(d.inject_trial_panic),
            progress: d.progress || flags.switch("--progress"),
            quiet: d.quiet || flags.switch("--quiet"),
        };
        if out.trials == 0 {
            flags.problem("--trials must be at least 1");
        }
        if out.workers == 0 {
            flags.problem("--workers must be at least 1");
        }
        if let Some(n) = out.inject_trial_panic.filter(|&n| n >= out.trials) {
            flags.problem(format!(
                "--inject-trial-panic {n} is outside the run's 0..{} trial range",
                out.trials
            ));
        }
        flags.finish()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 4, 7] {
            let runner = Runner::new(workers);
            let out = runner.run_indexed(23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn trial_streams_are_scheduling_independent() {
        let sample = |workers: usize| -> Vec<Option<u64>> {
            let seed_of = |t| derive_trial_seed(99, t as u64);
            let (draws, _) = Runner::new(workers).run_trials_checked(16, seed_of, |trial| {
                ChaCha8Rng::seed_from_u64(trial.seed).gen::<u64>()
            });
            draws
        };
        let one = sample(1);
        assert_eq!(one, sample(4));
        assert_eq!(one, sample(16));
        // Distinct trials see distinct streams.
        assert!(one.windows(2).any(|w| w[0] != w[1]));
    }

    /// One pool: a lone trial may fan its sub-units over the whole
    /// pool, while several trials fan over it and get one worker each.
    #[test]
    fn a_lone_trial_gets_the_pool_and_several_get_one_worker_each() {
        for workers in [1, 2] {
            let runner = Runner::new(workers);
            let trial_workers = |trials| {
                runner
                    .run_trials_checked(trials, |t| t as u64, |t| t.workers)
                    .0
            };
            assert_eq!(trial_workers(1), [Some(workers)]);
            assert_eq!(trial_workers(3), [Some(1); 3]);
        }
    }

    #[test]
    fn derive_trial_seed_is_injective_per_base() {
        let base = 0xDEAD_BEEF;
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(derive_trial_seed(base, i)));
        }
    }

    #[test]
    fn parse_run_args() {
        let parse =
            |argv: &[&str]| RunArgs::parse(argv.iter().map(|s| s.to_string()), RunArgs::default());
        assert_eq!(
            parse(&["--trials", "8", "--workers", "4", "--seed", "3", "--quick"]).unwrap(),
            RunArgs {
                trials: 8,
                workers: 4,
                seed: 3,
                quick: true,
                ..RunArgs::default()
            }
        );
        assert_eq!(parse(&[]).unwrap(), RunArgs::default());
        assert!(parse(&["--trials"]).is_err());
        assert!(parse(&["--trials", "zero"]).is_err());
        assert!(parse(&["--workers", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert_eq!(
            parse(&["--trace-out", "/tmp/t.json"]).unwrap().trace_out,
            Some(std::path::PathBuf::from("/tmp/t.json"))
        );
        assert!(parse(&["--trace-out"]).is_err());
    }

    #[test]
    fn parse_fault_and_degradation_flags() {
        let parse =
            |argv: &[&str]| RunArgs::parse(argv.iter().map(|s| s.to_string()), RunArgs::default());
        let args = parse(&[
            "--faults",
            "urban-drive",
            "--trials",
            "4",
            "--max-trial-failures",
            "2",
            "--allow-partial",
            "--inject-trial-panic",
            "1",
        ])
        .unwrap();
        assert_eq!(args.faults, FaultProfile::UrbanDrive);
        assert_eq!(args.max_trial_failures, Some(2));
        assert!(args.allow_partial);
        assert_eq!(args.inject_trial_panic, Some(1));
        assert!(parse(&["--faults", "warp-drive"]).is_err());
        assert!(parse(&["--faults"]).is_err());
        let args = parse(&["--progress", "--quiet"]).unwrap();
        assert!(args.progress);
        assert!(args.quiet);
        assert!(parse(&["--quiet", "--quiet"]).is_err());
        // An injected panic must land inside the run.
        let err = parse(&["--inject-trial-panic", "3"]).unwrap_err();
        assert!(err.contains("--inject-trial-panic 3"), "{err}");
    }

    #[test]
    fn parse_rejects_duplicates_and_bad_ranges_in_one_message() {
        let parse =
            |argv: &[&str]| RunArgs::parse(argv.iter().map(|s| s.to_string()), RunArgs::default());
        let err = parse(&[
            "--frobnicate",
            "--seed",
            "1",
            "--seed",
            "2",
            "--workers",
            "0",
        ])
        .unwrap_err();
        // One aggregated message, unknown flags first (matching the
        // existing unknown-flag contract), then the rest.
        assert!(err.starts_with("unknown flag `--frobnicate`"), "{err}");
        assert!(err.contains("duplicate flag --seed"), "{err}");
        assert!(err.contains("--workers must be at least 1"), "{err}");
        assert!(err.ends_with("(try --help)"), "{err}");
        // Duplicates alone are also fatal.
        let err = parse(&["--quick", "--quick"]).unwrap_err();
        assert!(err.starts_with("duplicate flag --quick"), "{err}");
    }

    #[test]
    fn checked_trials_degrade_gracefully_and_stay_ordered() {
        for workers in [1, 3] {
            let seed_of = |t| derive_trial_seed(7, t as u64);
            let (results, failures) =
                Runner::new(workers).run_trials_checked(8, seed_of, |trial| {
                    if trial.index == 2 || trial.index == 5 {
                        panic!("boom at {}", trial.index);
                    }
                    trial.index * 10
                });
            assert_eq!(results.len(), 8);
            assert_eq!(results[2], None);
            assert_eq!(results[5], None);
            assert_eq!(results[0], Some(0));
            assert_eq!(results[7], Some(70));
            assert_eq!(failures.len(), 2);
            assert_eq!(failures[0].trial, 2);
            assert_eq!(failures[0].seed, derive_trial_seed(7, 2));
            assert_eq!(failures[0].kind, "panic");
            assert_eq!(failures[0].detail, "boom at 2");
            assert_eq!(failures[1].trial, 5);
        }
    }

    #[test]
    fn parse_reports_all_unknown_flags_at_once() {
        let parse =
            |argv: &[&str]| RunArgs::parse(argv.iter().map(|s| s.to_string()), RunArgs::default());
        let err = parse(&["--frobnicate", "--trials", "3", "--wrokers", "2"]).unwrap_err();
        assert!(err.contains("`--frobnicate`"), "{err}");
        assert!(err.contains("`--wrokers`"), "{err}");
        assert!(err.contains("`2`"), "{err}"); // --wrokers ate no value
        assert!(err.starts_with("unknown flags"), "{err}");
        // A single unknown flag stays singular.
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.starts_with("unknown flag `--frobnicate`"), "{err}");
    }

    #[test]
    fn work_actually_fans_out_across_os_threads() {
        // A barrier with as many parties as workers can only release if
        // every unit runs on its own thread concurrently — so this hangs
        // (and the harness timeout fails it) unless the fan-out is real.
        // Wall-clock speedup depends on the host's core count; thread
        // fan-out does not, so this is the portable half of the claim.
        let workers = 4;
        let barrier = std::sync::Barrier::new(workers);
        let ids = Runner::new(workers).run_indexed(workers, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert_eq!(distinct.len(), workers);
    }

    #[test]
    fn panicking_work_unit_propagates() {
        let result = std::panic::catch_unwind(|| {
            Runner::new(3).run_indexed(8, |i| {
                if i == 5 {
                    panic!("unit failed");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
