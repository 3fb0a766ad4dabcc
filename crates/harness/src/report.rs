//! The experiment facade and unified result schema.
//!
//! Every experiment follows the same lifecycle:
//!
//! ```text
//! let mut exp = Experiment::start_with("E1: ...", "Figure 2 of ...", args);
//! // ... run trials via exp.run_trials(..), record into exp.metrics ...
//! exp.set_assertions(outcomes);                         // when the spec declares claims
//! let status = exp.finish_with_status("fig2_trace", &payload)?;   // writes results/fig2_trace.json
//! ```
//!
//! [`Experiment::finish_with_status`] writes one JSON document with a fixed
//! envelope — experiment name, paper reference, seed, trial/worker
//! counts, metric summaries, checked claims and their verdict — and the
//! experiment-specific payload under `payload`. Consumers
//! (EXPERIMENTS.md tooling, plots) can rely on the envelope without
//! knowing any experiment's payload shape.

use crate::ledger::MetricsLedger;
use crate::progress::{self, ProgressSample, ProgressSink, StderrProgress};
use crate::runner::{derive_trial_seed, RunArgs, Runner, TrialCtx, TrialFailure};
use crate::sink;
use polite_wifi_obs::json::{self, JsonWriter, ToJson};
use polite_wifi_obs::{names, Obs, ObsConfig};
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// Per-thread results-directory override. The daemon runs many jobs
    /// in one process; a process-wide env var would race, so each job
    /// thread redirects its own envelope writes instead.
    static RESULTS_DIR_OVERRIDE: std::cell::RefCell<Option<PathBuf>> =
        const { std::cell::RefCell::new(None) };
}

/// Redirects (or, with `None`, stops redirecting) this thread's result
/// writes to `dir`. Returns the previous override so scoped callers can
/// restore it. Trial closures never write results, so overriding on the
/// thread that calls [`Experiment::finish_with_status`] is sufficient.
pub fn set_thread_results_dir(dir: Option<PathBuf>) -> Option<PathBuf> {
    RESULTS_DIR_OVERRIDE.with(|cell| std::mem::replace(&mut *cell.borrow_mut(), dir))
}

/// Directory experiment JSON results are written to: the thread-local
/// override ([`set_thread_results_dir`]) if installed, else the
/// `POLITE_WIFI_RESULTS` env var, else `results/`. Created on demand by
/// [`write_json`].
pub fn results_dir() -> PathBuf {
    if let Some(dir) = RESULTS_DIR_OVERRIDE.with(|cell| cell.borrow().clone()) {
        return dir;
    }
    std::env::var("POLITE_WIFI_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Writes a value, pretty-printed, to `results/<name>.json` through
/// [`write_text`]. Returns the path written.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) -> io::Result<PathBuf> {
    write_text(name, &json::to_string_pretty(value))
}

/// Writes already-rendered JSON text to `results/<name>.json`, creating
/// the directory if needed. Returns the path written.
///
/// The write is atomic (temp file in the same directory, then rename):
/// a run killed mid-write — or two runs racing on the same slug — never
/// leaves a truncated half-document where consumers expect JSON.
pub fn write_text(name: &str, text: &str) -> io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let tmp = dir.join(format!(".{name}.{}.tmp", std::process::id()));
    std::fs::write(&tmp, text)?;
    match std::fs::rename(&tmp, &path) {
        Ok(()) => Ok(path),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// One checked claim, as the envelope's `assertions` list records it.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionOutcome {
    /// The claim as written, e.g. `max(relative_error) < 0.45`.
    pub check: String,
    /// The summary compared, if its metric was recorded.
    pub measured: Option<f64>,
    /// Whether the claim held.
    pub pass: bool,
}

polite_wifi_obs::impl_to_json! { AssertionOutcome { check, measured, pass } }

/// Lifecycle handle for one experiment run.
pub struct Experiment {
    name: String,
    paper_ref: String,
    args: RunArgs,
    /// Experiment-level metric accumulators, summarised into the JSON
    /// envelope on [`finish_with_status`](Self::finish_with_status).
    pub metrics: MetricsLedger,
    /// The experiment's merged observability scope: per-trial snapshots
    /// [`absorb_obs`](Self::absorb_obs)ed in trial order plus anything
    /// recorded directly. Embedded in the envelope and, when
    /// `--trace-out` was given, exported as a Chrome trace on finish.
    pub obs: Obs,
    absorbed: u64,
    started: Instant,
    /// Progress consumers driven at trial boundaries: always the
    /// stderr sink (byte-exact `--progress` behaviour), plus this
    /// thread's installed sink when the daemon (or a test) registered
    /// one via [`progress::set_thread_progress_sink`] before start.
    sinks: Vec<Arc<dyn ProgressSink>>,
    trial_failures: Vec<TrialFailure>,
    quarantined: u64,
    assertions: Option<Vec<AssertionOutcome>>,
}

impl Experiment {
    /// Starts an experiment with parsed arguments (see
    /// [`RunArgs::parse`]) and prints the standard header.
    pub fn start_with(name: &str, paper_ref: &str, args: RunArgs) -> Experiment {
        // Span recording costs memory; only turn it on when the run will
        // actually export a trace. First install wins process-wide (so a
        // test driving several experiments keeps one consistent config).
        polite_wifi_obs::install(ObsConfig {
            spans: args.trace_out.is_some(),
        });
        println!("{}", "=".repeat(72));
        println!("{name}");
        println!("reproduces: {paper_ref}");
        println!(
            "seed {}   trials {}   workers {}   faults {}{}",
            args.seed,
            args.trials,
            args.workers,
            args.faults,
            if args.quick { "   (quick)" } else { "" }
        );
        println!("{}", "=".repeat(72));
        let mut sinks: Vec<Arc<dyn ProgressSink>> =
            vec![Arc::new(StderrProgress::new(args.progress))];
        if let Some(sink) = progress::thread_progress_sink() {
            sinks.push(sink);
        }
        Experiment {
            name: name.to_string(),
            paper_ref: paper_ref.to_string(),
            args,
            metrics: MetricsLedger::new(),
            obs: Obs::new(),
            absorbed: 0,
            started: Instant::now(),
            sinks,
            trial_failures: Vec::new(),
            quarantined: 0,
            assertions: None,
        }
    }

    /// The parsed run arguments.
    pub fn args(&self) -> RunArgs {
        self.args.clone()
    }

    /// Folds one trial's observability snapshot (usually
    /// `scenario.sim.take_obs()`) into the experiment scope, tagging its
    /// spans with the absorb index. **Call in trial order** — the runner
    /// returns per-trial results index-sorted, so iterating those and
    /// absorbing as you go preserves the byte-identical-across-workers
    /// guarantee.
    pub fn absorb_obs(&mut self, snapshot: Obs) {
        self.obs.absorb(&snapshot, self.absorbed);
        self.absorbed += 1;
        let elapsed = self.started.elapsed().as_secs_f64();
        let (obs, absorbed) = (&self.obs, self.absorbed);
        let render = || {
            let per_sec = |n: u64| {
                if elapsed > 0.0 {
                    n as f64 / elapsed
                } else {
                    0.0
                }
            };
            ProgressSample {
                trials_absorbed: absorbed,
                frames_per_sec: per_sec(obs.counters.get("sim.frames_txed")),
                events_per_sec: per_sec(obs.counters.get(names::SIM_EVENTS_DISPATCHED)),
                cells_occupied: obs.counters.get(names::SIM_CELLS_OCCUPIED),
                delivered: obs.counters.get(names::FRAME_FATE_DELIVERED),
                fer_dropped: obs.counters.get(names::FRAME_FATE_FER_DROPPED),
                collided: obs.counters.get(names::FRAME_FATE_COLLIDED),
                stalled: obs.counters.get(names::FRAME_FATE_STALL_SWALLOWED),
            }
        };
        for sink in &self.sinks {
            sink.sample(&render);
        }
    }

    /// Runs this experiment's `--trials` trials across its `--workers`
    /// pool with graceful degradation: a panicking trial yields `None`
    /// in its slot and a recorded [`TrialFailure`] instead of killing
    /// the run. Honours `--inject-trial-panic` (the deterministic chaos
    /// hook the degradation tests drive). Trial `t` is seeded
    /// `derive_trial_seed(seed, t)`, so a one-trial run is seeded
    /// `seed` itself; [`TrialCtx::workers`] says how many workers the
    /// trial may fan its own sub-units over.
    pub fn run_trials<T, F>(&mut self, trial: F) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(TrialCtx) -> T + Sync,
    {
        let seed = self.args.seed;
        self.run_trials_seeded(|t| derive_trial_seed(seed, t as u64), trial)
    }

    /// [`run_trials`](Self::run_trials), with trial `t` seeded
    /// `seed_of(t)`; a failed trial records that seed.
    pub fn run_trials_seeded<T, F>(
        &mut self,
        seed_of: impl Fn(usize) -> u64 + Sync,
        trial: F,
    ) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(TrialCtx) -> T + Sync,
    {
        let inject = self.args.inject_trial_panic;
        let total = self.args.trials;
        let done = Mutex::new(0usize);
        let sinks = &self.sinks;
        let (results, failures) =
            Runner::new(self.args.workers).run_trials_checked(self.args.trials, seed_of, |ctx| {
                // Cooperative cancellation checkpoint: a raised
                // token degrades the remaining trials into
                // deterministic TrialFailures instead of letting a
                // timed-out job run to the bitter end.
                crate::cancel::check_cancelled();
                for sink in sinks {
                    sink.trial_started(ctx.index, total);
                }
                if Some(ctx.index) == inject {
                    panic!("injected trial panic (--inject-trial-panic {})", ctx.index);
                }
                let out = trial(ctx);
                // Count and report under one lock, so sinks see
                // completions in `done` order and the last report
                // carries the final count. A plain counter is valid
                // after any panic, so a poisoned lock is recovered.
                let mut finished = done.lock().unwrap_or_else(|e| e.into_inner());
                *finished += 1;
                for sink in sinks {
                    sink.trial_finished(*finished, total);
                }
                out
            });
        self.note_trial_failures(failures);
        results
    }

    /// Records trials that degraded gracefully (for experiments driving
    /// [`Runner::run_trials_checked`] themselves). Counted into the obs
    /// scope and listed in the envelope's `trial_failures`.
    pub fn note_trial_failures(&mut self, failures: Vec<TrialFailure>) {
        if failures.is_empty() {
            return;
        }
        self.obs
            .add(names::HARNESS_TRIAL_FAILURES, failures.len() as u64);
        for failure in &failures {
            self.diag(&format!(
                "[trial {} (seed {}) degraded: {}]",
                failure.trial, failure.seed, failure.detail
            ));
            for sink in &self.sinks {
                sink.trial_failed(failure.trial as usize, &failure.detail);
            }
        }
        self.trial_failures.extend(failures);
    }

    /// Records quarantined targets (e.g. [`ScanReport::quarantined`]
    /// from the wardrive pipeline — the scanner counts them, the
    /// harness owns the exit policy).
    ///
    /// [`ScanReport::quarantined`]: https://docs.rs/polite-wifi-core
    pub fn note_quarantined(&mut self, count: u64) {
        self.quarantined += count;
    }

    /// Records the claims checked against this run: the envelope lists
    /// them under `assertions`, next to a `verdict` — `fail` when one
    /// failed (the exit status is then 1), `unchecked` when the list is
    /// empty (the spec declares claims, but the fault profile enforced
    /// none), `pass` otherwise. Without this call the envelope carries
    /// neither key.
    pub fn set_assertions(&mut self, outcomes: Vec<AssertionOutcome>) {
        self.assertions = Some(outcomes);
    }

    /// Writes an advisory diagnostic line to stderr unless this run is
    /// `--quiet`.
    fn diag(&self, msg: &str) {
        if !self.args.quiet {
            sink::alert(msg);
        }
    }

    /// The trial failures recorded so far.
    pub fn trial_failures(&self) -> &[TrialFailure] {
        &self.trial_failures
    }

    /// Finishes the experiment: merges the payload into the unified
    /// envelope, writes `results/<slug>.json`, prints where, and
    /// returns the process exit status the degradation contract calls
    /// for — `0` for a full result, `1` when a claim failed, when trial
    /// failures exceed the `--max-trial-failures` budget (always fatal),
    /// or when anything degraded (failed trials, quarantined targets)
    /// without `--allow-partial`.
    pub fn finish_with_status<T: ToJson + ?Sized>(
        self,
        slug: &str,
        payload: &T,
    ) -> io::Result<i32> {
        // The fixed envelope every experiment result is written in. The
        // `obs` block carries counters, histograms, the profiler's
        // virtual-time half and the sampled frame traces; wall-clock
        // stats stay out (they surface on stderr below), so the envelope
        // is byte-identical across worker counts.
        let mut w = JsonWriter::pretty();
        w.begin_object()
            .key("experiment")
            .string(&self.name)
            .key("paper_ref")
            .string(&self.paper_ref)
            .key("seed")
            .u64(self.args.seed)
            .key("trials")
            .u64(self.args.trials as u64)
            .key("workers")
            .u64(self.args.workers as u64)
            .key("quick")
            .bool(self.args.quick)
            .key("faults")
            .string(self.args.faults.name())
            .key("metrics")
            .value(&self.metrics.summaries())
            .key("trial_failures")
            .value(&self.trial_failures);
        let claims_failed = (self.assertions.iter().flatten()).any(|o| !o.pass);
        if let Some(outcomes) = &self.assertions {
            let verdict = match claims_failed {
                true => "fail",
                false if outcomes.is_empty() => "unchecked",
                false => "pass",
            };
            w.key("assertions")
                .value(outcomes)
                .key("verdict")
                .string(verdict);
        }
        w.key("obs")
            .value(&self.obs)
            .key("payload")
            .value(payload)
            .end_object();
        let path = write_text(slug, &w.finish())?;
        if let Some(trace_path) = &self.args.trace_out {
            if let Some(dir) = trace_path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(trace_path, self.obs.chrome_trace_json())?;
            println!(
                "[chrome trace written to {} — open in chrome://tracing or ui.perfetto.dev]",
                trace_path.display()
            );
        }
        println!(
            "\n[result JSON written to {} in {:.2}s]",
            path.display(),
            self.started.elapsed().as_secs_f64()
        );

        // End-of-run self-profile: where the scheduler's *wall* time went.
        // Stderr-only by design — wall numbers are machine-dependent and
        // must never leak into the canonical envelope above.
        if !self.obs.profiler.is_empty() {
            let mut entries: Vec<_> = self.obs.profiler.sorted();
            entries.sort_by_key(|e| std::cmp::Reverse(e.1.wall_total_ns));
            let mut line = String::from("[self-profile, wall]");
            for (kind, stat) in entries.iter().take(5) {
                line.push_str(&format!(
                    " {kind} {:.1}ms/{}ev",
                    stat.wall_total_ns as f64 / 1e6,
                    stat.count
                ));
            }
            self.diag(&line);
        }

        let failures = self.trial_failures.len();
        let over_budget = self
            .args
            .max_trial_failures
            .is_some_and(|budget| failures > budget);
        let degraded = failures > 0 || self.quarantined > 0;
        if over_budget {
            // A budget violation fails the run; it must print even
            // under --quiet.
            sink::alert(&format!(
                "[{failures} trial failure(s) exceed --max-trial-failures {}]",
                self.args.max_trial_failures.unwrap_or(0)
            ));
            return Ok(1);
        }
        if degraded {
            let msg = format!(
                "[partial result: {failures} trial failure(s), {} quarantined target(s){}]",
                self.quarantined,
                if self.args.allow_partial {
                    " — accepted by --allow-partial"
                } else {
                    " — pass --allow-partial to accept"
                }
            );
            if self.args.allow_partial {
                self.diag(&msg);
            } else {
                sink::alert(&msg);
                return Ok(1);
            }
        }
        Ok(claims_failed as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::derive_trial_seed;
    use polite_wifi_sim::FaultProfile;

    struct Payload {
        acks: u64,
    }
    polite_wifi_obs::impl_to_json! { Payload { acks } }

    struct Pinned {
        absent: Option<u64>,
        present: Option<f64>,
        nested: Vec<Vec<u32>>,
        pair: (String, u64),
        empty: Vec<u64>,
        note: String,
    }
    polite_wifi_obs::impl_to_json! { Pinned { absent, present, nested, pair, empty, note } }

    /// The exact bytes of a small envelope, as the pretty writer must
    /// produce them: a change here changes every committed result file.
    const PINNED_ENVELOPE: &str = r#"{
  "experiment": "E0: pinned",
  "paper_ref": "none",
  "seed": 5,
  "trials": 2,
  "workers": 1,
  "quick": true,
  "faults": "clean",
  "metrics": [
    {
      "name": "acks",
      "samples": 2,
      "mean": 1.75,
      "min": 1.5,
      "max": 2.0,
      "total": 3.5
    }
  ],
  "trial_failures": [
    {
      "trial": 1,
      "seed": 9,
      "kind": "panic",
      "detail": "boom \"x\""
    }
  ],
  "obs": {
    "counters": {
      "harness.trial_failures": 1,
      "sim.frames_injected": 4
    },
    "histograms": {
      "mac.ack_turnaround_us": {
        "count": 1,
        "sum": 10,
        "min": 10,
        "max": 10,
        "buckets": {
          "4": 1
        }
      }
    },
    "profiler": {
      "arrival": {
        "count": 1,
        "virt_total_us": 3,
        "virt_max_us": 3
      }
    },
    "frame_traces": [],
    "spans_dropped": 0,
    "events_evicted": 0,
    "traces_dropped": 0,
    "hops_dropped": 0
  },
  "payload": {
    "absent": null,
    "present": 2.0,
    "nested": [
      [
        1,
        2
      ],
      []
    ],
    "pair": [
      "ap",
      3
    ],
    "empty": [],
    "note": "say \"hi\""
  }
}"#;

    #[test]
    fn envelope_bytes_are_pinned() {
        let dir = std::env::temp_dir().join("polite-wifi-harness-pinned-test");
        let _ = std::fs::remove_dir_all(&dir);
        set_thread_results_dir(Some(dir.clone()));

        let args = RunArgs {
            trials: 2,
            workers: 1,
            seed: 5,
            quick: true,
            ..RunArgs::default()
        };
        let mut exp = Experiment::start_with("E0: pinned", "none", args);
        exp.metrics.record("acks", 1.5);
        exp.metrics.record("acks", 2.0);
        exp.obs.add("sim.frames_injected", 4);
        exp.obs.observe("mac.ack_turnaround_us", 10);
        exp.obs.profiler.record("arrival", 3, 100);
        exp.note_trial_failures(vec![TrialFailure {
            trial: 1,
            seed: 9,
            kind: "panic".into(),
            detail: "boom \"x\"".into(),
        }]);
        let payload = Pinned {
            absent: None,
            present: Some(2.0),
            nested: vec![vec![1, 2], vec![]],
            pair: ("ap".into(), 3),
            empty: vec![],
            note: "say \"hi\"".into(),
        };
        exp.finish_with_status("pinned", &payload).unwrap();

        let written = std::fs::read_to_string(dir.join("pinned.json")).unwrap();
        assert_eq!(written, PINNED_ENVELOPE);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checked claims land right after `trial_failures`, with a
    /// verdict; one failed claim makes the exit status 1, and an empty
    /// list (no claim enforced) is `unchecked` with status 0.
    #[test]
    fn claims_follow_trial_failures_and_set_the_exit_status() {
        let dir = std::env::temp_dir().join("polite-wifi-harness-claims-test");
        let _ = std::fs::remove_dir_all(&dir);
        set_thread_results_dir(Some(dir.clone()));
        let outcome = |pass| AssertionOutcome {
            check: "acks > 4".into(),
            measured: Some(5.0),
            pass,
        };
        let mut texts = Vec::new();
        for (outcomes, expected) in [
            (vec![outcome(true)], 0),
            (vec![outcome(false)], 1),
            (vec![], 0),
        ] {
            let mut exp = Experiment::start_with("E0: claims", "none", RunArgs::default());
            exp.set_assertions(outcomes);
            let status = exp.finish_with_status("claims", &Payload { acks: 5 });
            assert_eq!(status.unwrap(), expected);
            texts.push(std::fs::read_to_string(dir.join("claims.json")).unwrap());
        }
        set_thread_results_dir(None);
        let rows = "\"trial_failures\": [],\n  \"assertions\": [\n    {\n      \
                    \"check\": \"acks > 4\",\n      \"measured\": 5.0,\n      \"pass\": ";
        for (text, verdict) in texts.iter().zip(["true", "false"]) {
            assert!(text.contains(&format!("{rows}{verdict}\n")), "{text}");
        }
        assert!(texts[0].contains("],\n  \"verdict\": \"pass\",\n  \"obs\""));
        assert!(texts[1].contains("\"verdict\": \"fail\""));
        let unchecked =
            "\"trial_failures\": [],\n  \"assertions\": [],\n  \"verdict\": \"unchecked\"";
        assert!(texts[2].contains(unchecked), "{}", texts[2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_writes_unified_envelope() {
        let dir = std::env::temp_dir().join("polite-wifi-harness-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        set_thread_results_dir(Some(dir.clone()));

        let args = RunArgs {
            trials: 3,
            workers: 2,
            seed: 11,
            quick: true,
            ..RunArgs::default()
        };
        let mut exp = Experiment::start_with("E0: smoke", "none", args);
        exp.metrics.record("acks", 5.0);
        exp.obs.add("sim.frames_injected", 9);
        exp.obs.observe("mac.ack_turnaround_us", 10);
        assert_eq!(
            exp.finish_with_status("smoke", &Payload { acks: 5 })
                .unwrap(),
            0
        );

        let written = std::fs::read_to_string(dir.join("smoke.json")).unwrap();
        for needle in [
            "\"experiment\": \"E0: smoke\"",
            "\"seed\": 11",
            "\"trials\": 3",
            "\"workers\": 2",
            "\"quick\": true",
            "\"faults\": \"clean\"",
            "\"trial_failures\": []",
            "\"name\": \"acks\"",
            "\"obs\": {",
            "\"sim.frames_injected\": 9",
            "\"mac.ack_turnaround_us\": {",
            "\"payload\": {",
            "\"acks\": 5",
        ] {
            assert!(written.contains(needle), "missing {needle} in:\n{written}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_panic_degrades_into_the_envelope_and_exit_status() {
        let dir = std::env::temp_dir().join("polite-wifi-harness-degrade-test");
        let _ = std::fs::remove_dir_all(&dir);
        set_thread_results_dir(Some(dir.clone()));

        let run = |allow_partial: bool, max_trial_failures: Option<usize>| {
            let args = RunArgs {
                trials: 4,
                workers: 2,
                seed: 77,
                faults: FaultProfile::UrbanDrive,
                inject_trial_panic: Some(2),
                allow_partial,
                max_trial_failures,
                ..RunArgs::default()
            };
            let mut exp = Experiment::start_with("E0: degrade", "none", args);
            let results = exp.run_trials(|ctx| ctx.index as u64);
            assert_eq!(results, vec![Some(0), Some(1), None, Some(3)]);
            assert_eq!(exp.trial_failures().len(), 1);
            assert_eq!(exp.trial_failures()[0].trial, 2);
            assert_eq!(exp.trial_failures()[0].seed, derive_trial_seed(77, 2));
            assert!(exp.trial_failures()[0]
                .detail
                .contains("injected trial panic (--inject-trial-panic 2)"));
            assert_eq!(exp.obs.counters.get(names::HARNESS_TRIAL_FAILURES), 1);
            exp.finish_with_status("degrade", &Payload { acks: 0 })
                .unwrap()
        };

        // A failed trial without --allow-partial is an error exit...
        assert_eq!(run(false, None), 1);
        // ...accepted with --allow-partial while within budget...
        assert_eq!(run(true, None), 0);
        assert_eq!(run(true, Some(1)), 0);
        // ...but a blown --max-trial-failures budget is always fatal.
        assert_eq!(run(true, Some(0)), 1);

        // The failure is recorded in the envelope, not just the status.
        let written = std::fs::read_to_string(dir.join("degrade.json")).unwrap();
        for needle in [
            "\"faults\": \"urban-drive\"",
            "\"trial\": 2",
            "\"kind\": \"panic\"",
            "injected trial panic (--inject-trial-panic 2)",
        ] {
            assert!(written.contains(needle), "missing {needle} in:\n{written}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_targets_fail_the_run_unless_partial_is_allowed() {
        let dir = std::env::temp_dir().join("polite-wifi-harness-quarantine-test");
        let _ = std::fs::remove_dir_all(&dir);
        set_thread_results_dir(Some(dir.clone()));

        let run = |allow_partial: bool, quarantined: u64| {
            let args = RunArgs {
                allow_partial,
                ..RunArgs::default()
            };
            let mut exp = Experiment::start_with("E0: quarantine", "none", args);
            exp.note_quarantined(quarantined);
            exp.finish_with_status("quarantine", &Payload { acks: 0 })
                .unwrap()
        };
        assert_eq!(run(false, 0), 0);
        assert_eq!(run(false, 3), 1);
        assert_eq!(run(true, 3), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_json_leaves_no_tmp_files_behind() {
        let dir = std::env::temp_dir().join("polite-wifi-harness-atomic-test");
        let _ = std::fs::remove_dir_all(&dir);
        set_thread_results_dir(Some(dir.clone()));

        write_json("atomic", &Payload { acks: 1 }).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["atomic.json".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absorb_obs_merges_in_trial_order() {
        let mut exp = Experiment::start_with("E0: obs", "none", RunArgs::default());
        let mut t0 = Obs::new();
        t0.add("sim.acks_received", 2);
        let mut t1 = Obs::new();
        t1.add("sim.acks_received", 3);
        t1.observe("sim.exchange_rtt_us", 730);
        exp.absorb_obs(t0);
        exp.absorb_obs(t1);
        assert_eq!(exp.obs.counters.get("sim.acks_received"), 5);
        assert_eq!(
            exp.obs.histograms.get("sim.exchange_rtt_us").unwrap().count,
            1
        );
    }

    #[test]
    fn trace_out_writes_a_chrome_trace() {
        let dir = std::env::temp_dir().join("polite-wifi-harness-trace-test");
        let _ = std::fs::remove_dir_all(&dir);
        set_thread_results_dir(Some(dir.clone()));
        let trace_path = dir.join("trace.json");

        let args = RunArgs {
            trace_out: Some(trace_path.clone()),
            ..RunArgs::default()
        };
        let mut exp = Experiment::start_with("E0: trace", "none", args);
        // Span recording may be off process-wide (another test installed
        // the default config first), but the trace file must exist and
        // be valid either way.
        exp.obs.add("sim.frames_injected", 1);
        assert_eq!(
            exp.finish_with_status("trace_smoke", &Payload { acks: 0 })
                .unwrap(),
            0
        );

        let written = std::fs::read_to_string(&trace_path).unwrap();
        let parsed = polite_wifi_obs::json::parse(&written).unwrap();
        assert!(parsed.get("traceEvents").unwrap().as_array().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
