//! The job table and its state machine.
//!
//! ```text
//!            ┌────────────────── retry (bounded) ──────────────┐
//!            ▼                                                 │
//! submit → Queued → Running → Done                             │
//!                       │                                      │
//!                       ├─ exit ≠ 0 / panic / io ──→ Failed ───┘
//!                       └─ deadline, token raised ──→ TimedOut
//! ```
//!
//! Done, Failed and TimedOut are terminal (TimedOut and a job that has
//! exhausted its retry budget never re-enter the queue). Every
//! transition happens under the daemon's single state lock, and every
//! terminal transition notifies the condvar so `wait=1` submitters and
//! the drain loop wake up.

use polite_wifi_harness::{CancelToken, ChannelProgress};
use polite_wifi_obs::json;
use std::sync::Arc;
use std::time::Instant;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    TimedOut,
}

impl JobState {
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::TimedOut => "timed_out",
        }
    }

    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::TimedOut)
    }
}

/// One submitted scenario run.
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    /// Content address: `canonical_hash()` of the submitted spec.
    pub key: String,
    pub slug: String,
    pub runner: String,
    /// The canonical spec text (re-parsed by the worker that runs it).
    pub spec_json: String,
    pub state: JobState,
    /// Execution attempts started so far (1 on the first run).
    pub attempts: u32,
    /// `--inject-trial-panic` passthrough; set ⇒ the result is
    /// deliberately degraded and must never be cached or coalesced.
    pub inject_trial_panic: Option<usize>,
    /// Whether this job's result was served from / stored to the cache.
    pub cached: bool,
    /// Human-readable failure or timeout diagnostics.
    pub detail: String,
    pub submitted_at: Instant,
    pub started_at: Option<Instant>,
    pub finished_at: Option<Instant>,
    /// Raised by the supervisor when the job overruns its deadline; the
    /// harness's trial loop observes it cooperatively.
    pub token: Option<CancelToken>,
    /// Deadline for the current attempt (set when the attempt starts).
    pub deadline: Option<Instant>,
    /// Delayed-retry gate: not eligible to run again before this.
    pub not_before: Option<Instant>,
    /// Run parameters echoed into status (heartbeat-style fields).
    pub trials: u64,
    pub workers: u64,
    pub seed: u64,
    /// The per-job flight recorder: every lifecycle and trial-boundary
    /// event this job emits, journaled (bounded) and subscribable via
    /// `/watch/<id>`. Survives retries — the journal tells the whole
    /// story of the job, not one attempt.
    pub recorder: Arc<ChannelProgress>,
    /// Supervisor bookkeeping: when the last `deadline_remaining`
    /// event was published, so the 2ms tick doesn't flood the journal.
    pub last_deadline_event: Option<Instant>,
}

impl Job {
    /// Milliseconds the job has been executing (current attempt's start
    /// to finish-or-now). 0 while queued.
    pub fn elapsed_ms(&self, now: Instant) -> u64 {
        match self.started_at {
            Some(start) => {
                let end = self.finished_at.unwrap_or(now);
                end.saturating_duration_since(start).as_millis() as u64
            }
            None => 0,
        }
    }

    /// The `/jobs/<id>` status document: state + the PR 5
    /// `--progress`-style heartbeat fields (attempts, elapsed, run
    /// shape), live trial progress pulled from the flight recorder,
    /// and — for queued jobs — the position in line (`queue_position`,
    /// 0 = next to run), so a poller can see liveness without scraping
    /// stdout.
    pub fn status_json(&self, now: Instant, queue_position: Option<u64>) -> String {
        let position = match queue_position {
            Some(p) => format!("\"queue_position\": {p}, "),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\"id\": {}, \"state\": \"{}\", \"key\": \"{}\", \"slug\": \"{}\", ",
                "\"runner\": \"{}\", \"attempts\": {}, \"cached\": {}, ",
                "\"elapsed_ms\": {}, \"trials\": {}, \"trials_done\": {}, ",
                "\"workers\": {}, \"seed\": {}, \"events\": {}, {}\"detail\": {}}}"
            ),
            self.id,
            self.state.name(),
            self.key,
            self.slug,
            self.runner,
            self.attempts,
            self.cached,
            self.elapsed_ms(now),
            self.trials,
            self.recorder.trials_done(),
            self.workers,
            self.seed,
            self.recorder.hub().published(),
            position,
            json::to_string(self.detail.as_str()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job {
            id: 7,
            key: "00112233aabbccdd".to_string(),
            slug: "t".to_string(),
            runner: "generic".to_string(),
            spec_json: String::new(),
            state: JobState::Queued,
            attempts: 0,
            inject_trial_panic: None,
            cached: false,
            detail: String::new(),
            submitted_at: Instant::now(),
            started_at: None,
            finished_at: None,
            token: None,
            deadline: None,
            not_before: None,
            trials: 3,
            workers: 1,
            seed: 2,
            recorder: Arc::new(ChannelProgress::new(64)),
            last_deadline_event: None,
        }
    }

    #[test]
    fn terminal_states_are_exactly_done_failed_timed_out() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::TimedOut.is_terminal());
    }

    #[test]
    fn status_json_carries_heartbeat_fields_and_escapes_detail() {
        let mut j = job();
        j.state = JobState::Failed;
        j.attempts = 2;
        j.detail = "exit status 1: \"assertion\"\nline2".to_string();
        let json = j.status_json(Instant::now(), None);
        for needle in [
            "\"id\": 7",
            "\"state\": \"failed\"",
            "\"attempts\": 2",
            "\"elapsed_ms\": 0",
            "\"trials\": 3",
            "\"trials_done\": 0",
            "\"workers\": 1",
            "\"seed\": 2",
            "\"events\": 0",
            "\\\"assertion\\\"\\nline2",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(!json.contains("queue_position"));
    }

    #[test]
    fn status_json_reports_queue_position_and_recorder_progress() {
        use polite_wifi_harness::ProgressSink;
        let j = job();
        j.recorder.trial_finished(2, 3);
        let json = j.status_json(Instant::now(), Some(4));
        for needle in [
            "\"queue_position\": 4",
            "\"trials_done\": 2",
            "\"events\": 1",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn elapsed_uses_finish_time_once_terminal() {
        let mut j = job();
        let t0 = Instant::now();
        j.started_at = Some(t0);
        j.finished_at = Some(t0 + std::time::Duration::from_millis(250));
        assert_eq!(j.elapsed_ms(t0 + std::time::Duration::from_secs(60)), 250);
    }
}
