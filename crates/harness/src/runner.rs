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

use polite_wifi_sim::FaultProfile;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
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
pub struct TrialCtx {
    /// Trial index in `0..trials`.
    pub index: usize,
    /// This trial's derived seed; feed it to anything seedable.
    pub seed: u64,
    /// A ChaCha8 stream seeded from [`TrialCtx::seed`], for trial-local
    /// randomness (positions, jitter) that must not depend on scheduling.
    pub rng: ChaCha8Rng,
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

        crossbeam::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| {
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
        })
        .expect("runner worker panicked");

        let mut results = collected.into_inner().unwrap();
        results.sort_by_key(|(idx, _)| *idx);
        debug_assert_eq!(results.len(), count);
        results.into_iter().map(|(_, value)| value).collect()
    }

    /// Runs `trials` independent trials of an experiment. Each trial
    /// gets a [`TrialCtx`] with its derived seed and a fresh ChaCha8
    /// stream; results come back in trial order.
    pub fn run_trials<T, F>(&self, base_seed: u64, trials: usize, trial: F) -> Vec<T>
    where
        T: Send,
        F: Fn(TrialCtx) -> T + Sync,
    {
        self.run_indexed(trials, |index| {
            let seed = derive_trial_seed(base_seed, index as u64);
            trial(TrialCtx {
                index,
                seed,
                rng: ChaCha8Rng::seed_from_u64(seed),
            })
        })
    }

    /// [`run_indexed`](Self::run_indexed) with graceful degradation:
    /// each unit runs under `catch_unwind`, a panicking unit yields
    /// `None` in its slot plus an `(index, message)` record, and every
    /// other unit still completes. Both vectors are in index order, so
    /// the worker-invariance guarantee extends to failures.
    pub fn run_indexed_checked<T, F>(
        &self,
        count: usize,
        work: F,
    ) -> (Vec<Option<T>>, Vec<(usize, String)>)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let raw: Vec<Result<T, String>> = self.run_indexed(count, |index| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(index)))
                .map_err(panic_message)
        });
        let mut results = Vec::with_capacity(count);
        let mut failures = Vec::new();
        for (index, outcome) in raw.into_iter().enumerate() {
            match outcome {
                Ok(value) => results.push(Some(value)),
                Err(message) => {
                    results.push(None);
                    failures.push((index, message));
                }
            }
        }
        (results, failures)
    }

    /// [`run_trials`](Self::run_trials) with graceful degradation: a
    /// panicking trial becomes a structured [`TrialFailure`] (carrying
    /// its derived seed for solo replay) instead of killing the run.
    pub fn run_trials_checked<T, F>(
        &self,
        base_seed: u64,
        trials: usize,
        trial: F,
    ) -> (Vec<Option<T>>, Vec<TrialFailure>)
    where
        T: Send,
        F: Fn(TrialCtx) -> T + Sync,
    {
        let (results, raw) = self.run_indexed_checked(trials, |index| {
            let seed = derive_trial_seed(base_seed, index as u64);
            trial(TrialCtx {
                index,
                seed,
                rng: ChaCha8Rng::seed_from_u64(seed),
            })
        });
        let failures = raw
            .into_iter()
            .map(|(index, detail)| TrialFailure {
                trial: index as u64,
                seed: derive_trial_seed(base_seed, index as u64),
                kind: "panic".to_string(),
                detail,
            })
            .collect();
        (results, failures)
    }
}

/// Command-line arguments shared by every experiment binary.
///
/// Recognised flags: `--trials N`, `--workers M`, `--seed S`, `--quick`,
/// `--faults PROFILE`, `--max-trial-failures N`, `--allow-partial`,
/// `--trace-out FILE`, `--inject-trial-panic N`, `--progress`,
/// `--quiet`. Malformed invocations
/// abort with a usage message rather than being silently accepted — and
/// *all* problems (unknown flags, duplicates, bad values, out-of-range
/// numbers) are reported in one aggregated message, so a typo'd
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

impl RunArgs {
    /// Parses flags from an iterator (first element must already be
    /// stripped of the program name). Returns one aggregated error
    /// message covering every problem on malformed input.
    pub fn parse<I: Iterator<Item = String>>(
        mut args: I,
        defaults: RunArgs,
    ) -> Result<RunArgs, String> {
        let mut out = defaults;
        let mut unknown: Vec<String> = Vec::new();
        let mut problems: Vec<String> = Vec::new();
        let mut seen: Vec<&'static str> = Vec::new();
        while let Some(arg) = args.next() {
            // Flags are single-occurrence: a duplicate almost always
            // means a mangled command line, so it is an error, not a
            // silent last-one-wins.
            let mut once = |flag: &'static str, problems: &mut Vec<String>| {
                if seen.contains(&flag) {
                    problems.push(format!("duplicate flag {flag}"));
                } else {
                    seen.push(flag);
                }
            };
            match arg.as_str() {
                "--trials" => {
                    once("--trials", &mut problems);
                    match next_value(&mut args, "--trials") {
                        Ok(v) => out.trials = v,
                        Err(e) => problems.push(e),
                    }
                }
                "--workers" => {
                    once("--workers", &mut problems);
                    match next_value(&mut args, "--workers") {
                        Ok(v) => out.workers = v,
                        Err(e) => problems.push(e),
                    }
                }
                "--seed" => {
                    once("--seed", &mut problems);
                    match next_value(&mut args, "--seed") {
                        Ok(v) => out.seed = v,
                        Err(e) => problems.push(e),
                    }
                }
                "--quick" => {
                    once("--quick", &mut problems);
                    out.quick = true;
                }
                "--allow-partial" => {
                    once("--allow-partial", &mut problems);
                    out.allow_partial = true;
                }
                "--progress" => {
                    once("--progress", &mut problems);
                    out.progress = true;
                }
                "--quiet" => {
                    once("--quiet", &mut problems);
                    out.quiet = true;
                }
                "--faults" => {
                    once("--faults", &mut problems);
                    match next_value::<FaultProfile, _>(&mut args, "--faults") {
                        Ok(v) => out.faults = v,
                        Err(e) => problems.push(e),
                    }
                }
                "--max-trial-failures" => {
                    once("--max-trial-failures", &mut problems);
                    match next_value(&mut args, "--max-trial-failures") {
                        Ok(v) => out.max_trial_failures = Some(v),
                        Err(e) => problems.push(e),
                    }
                }
                "--inject-trial-panic" => {
                    once("--inject-trial-panic", &mut problems);
                    match next_value(&mut args, "--inject-trial-panic") {
                        Ok(v) => out.inject_trial_panic = Some(v),
                        Err(e) => problems.push(e),
                    }
                }
                "--trace-out" => {
                    once("--trace-out", &mut problems);
                    match args.next() {
                        Some(raw) => out.trace_out = Some(std::path::PathBuf::from(raw)),
                        None => problems.push("--trace-out needs a value".to_string()),
                    }
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => unknown.push(format!("`{other}`")),
            }
        }
        if out.trials == 0 {
            problems.push("--trials must be at least 1".to_string());
        }
        if out.workers == 0 {
            problems.push("--workers must be at least 1".to_string());
        }
        if let Some(n) = out.inject_trial_panic {
            if n >= out.trials {
                problems.push(format!(
                    "--inject-trial-panic {n} is outside the run's 0..{} trial range",
                    out.trials
                ));
            }
        }
        if unknown.is_empty() && problems.is_empty() {
            return Ok(out);
        }
        let mut message = String::new();
        if !unknown.is_empty() {
            let plural = if unknown.len() == 1 { "" } else { "s" };
            message = format!("unknown flag{plural} {}", unknown.join(", "));
        }
        for problem in problems {
            if !message.is_empty() {
                message.push_str("; ");
            }
            message.push_str(&problem);
        }
        message.push_str(" (try --help)");
        Err(message)
    }

    /// Parses the process's own arguments, exiting with a message on
    /// malformed input.
    pub fn from_env(defaults: RunArgs) -> RunArgs {
        match Self::parse(std::env::args().skip(1), defaults) {
            Ok(args) => args,
            Err(msg) => {
                // Usage errors must print even under --quiet (the flag
                // may not even have parsed), so this is an alert.
                crate::sink::alert(&msg);
                std::process::exit(2);
            }
        }
    }

    /// A runner sized to these arguments.
    pub fn runner(&self) -> Runner {
        Runner::new(self.workers)
    }
}

fn next_value<T: std::str::FromStr, I: Iterator<Item = String>>(
    args: &mut I,
    flag: &str,
) -> Result<T, String> {
    let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: invalid value `{raw}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

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
        let sample = |workers: usize| -> Vec<u64> {
            Runner::new(workers).run_trials(99, 16, |mut trial| trial.rng.gen::<u64>())
        };
        let one = sample(1);
        assert_eq!(one, sample(4));
        assert_eq!(one, sample(16));
        // Distinct trials see distinct streams.
        assert!(one.windows(2).any(|w| w[0] != w[1]));
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
            let (results, failures) = Runner::new(workers).run_trials_checked(7, 8, |trial| {
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
