//! Progress sinks: where trial-boundary telemetry goes.
//!
//! PR 9's daemon exposed the problem with a stderr-only heartbeat: a
//! job running inside `polite-wifi-d` has no terminal to print to, and
//! an operator watching `/watch/<id>` needs *structured* events, not
//! scraped log lines. This module splits the reporting path from the
//! rendering:
//!
//! * [`ProgressSink`] — the trait the runner drives at trial
//!   boundaries (started/finished/failed) and at each absorbed trial
//!   scope ([`sample`](ProgressSink::sample), carrying throughput and
//!   frame-fate totals). Samples are **lazily rendered**: the sink
//!   receives a closure, so a rate-limited or disabled sink never pays
//!   for building the snapshot.
//! * [`StderrProgress`] — wraps the existing [`Heartbeat`] and
//!   reproduces today's `--progress` stderr lines byte-for-byte.
//! * [`ChannelProgress`] — publishes [`ProgressEvent`]s into a bounded
//!   [`EventHub`] for subscribers (the daemon's per-job flight
//!   recorder). Publishing never blocks: with no subscriber, or a slow
//!   one, the hub's ring sheds its oldest events and the job proceeds.
//!
//! Everything here is wall-clock, operational telemetry. None of it is
//! written into canonical result envelopes, so the byte-identical-
//! across-workers contract is untouched — same split as the PR 5
//! profiler's wall-time half.

use crate::sink::Heartbeat;
use polite_wifi_obs::events::{EventHub, ProgressEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point-in-time progress snapshot, built lazily when a sink decides
/// it will actually report (see [`ProgressSink::sample`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSample {
    /// Trial scopes absorbed into the experiment so far.
    pub trials_absorbed: u64,
    /// Frames transmitted per wall-clock second since the run started.
    pub frames_per_sec: f64,
    /// Scheduler events dispatched per wall-clock second.
    pub events_per_sec: f64,
    /// Interference-grid cells occupied (0 under all-pairs propagation).
    pub cells_occupied: u64,
    /// Frame-fate totals so far.
    pub delivered: u64,
    /// Frames lost to FER draws or injected burst loss.
    pub fer_dropped: u64,
    /// Frames corrupted by overlapping transmissions.
    pub collided: u64,
    /// Frames swallowed by stalled firmware.
    pub stalled: u64,
}

/// A consumer of trial-boundary progress. All methods default to
/// no-ops so a sink only implements the signals it cares about; every
/// method must be cheap and non-blocking — sinks are called from
/// runner worker threads mid-run.
pub trait ProgressSink: Send + Sync {
    /// A trial is about to run (0-based index).
    fn trial_started(&self, _trial: usize, _total: usize) {}

    /// A trial completed; `done` counts completions so far.
    fn trial_finished(&self, _done: usize, _total: usize) {}

    /// A trial degraded into a structured failure.
    fn trial_failed(&self, _trial: usize, _detail: &str) {}

    /// A trial scope was absorbed. `render` builds the snapshot; call
    /// it only when this sink will actually report, so a suppressed
    /// sample costs nothing.
    fn sample(&self, _render: &dyn Fn() -> ProgressSample) {}
}

thread_local! {
    /// Per-thread sink override. The daemon runs many jobs in one
    /// process; a process-wide registration would cross-wire their
    /// flight recorders, so each job thread installs its own (the same
    /// pattern as `set_thread_results_dir`).
    static PROGRESS_SINK: std::cell::RefCell<Option<Arc<dyn ProgressSink>>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs (or, with `None`, removes) this thread's progress sink.
/// Returns the previous sink so scoped callers can restore it.
/// [`Experiment::start_with`](crate::report::Experiment::start_with)
/// picks the installed sink up, so install **before** starting the
/// experiment on the same thread.
pub fn set_thread_progress_sink(
    sink: Option<Arc<dyn ProgressSink>>,
) -> Option<Arc<dyn ProgressSink>> {
    PROGRESS_SINK.with(|cell| std::mem::replace(&mut *cell.borrow_mut(), sink))
}

/// This thread's installed progress sink, if any.
pub fn thread_progress_sink() -> Option<Arc<dyn ProgressSink>> {
    PROGRESS_SINK.with(|cell| cell.borrow().clone())
}

/// The classic `--progress` stderr reporter, now as a sink.
///
/// Byte-compatibility contract: with `--progress` on, this sink writes
/// exactly the lines the pre-sink `Heartbeat` path wrote — same
/// format, same shared rate limit across trial and sample ticks.
pub struct StderrProgress {
    heartbeat: Heartbeat,
}

impl StderrProgress {
    /// A stderr sink printing at most twice a second when enabled
    /// (`--progress`).
    pub fn new(enabled: bool) -> StderrProgress {
        StderrProgress {
            heartbeat: Heartbeat::new(enabled),
        }
    }

    /// A stderr sink with an explicit rate limit (tests use zero).
    pub fn with_heartbeat(heartbeat: Heartbeat) -> StderrProgress {
        StderrProgress { heartbeat }
    }
}

impl ProgressSink for StderrProgress {
    fn trial_finished(&self, done: usize, total: usize) {
        self.heartbeat
            .tick(|| format!("[progress] {done}/{total} trials done"));
    }

    fn sample(&self, render: &dyn Fn() -> ProgressSample) {
        self.heartbeat.tick(|| {
            let s = render();
            let cells = if s.cells_occupied > 0 {
                format!(", {} cells occupied", s.cells_occupied)
            } else {
                String::new()
            };
            format!(
                "[progress] {} trial scope(s) absorbed — {:.0} frames/s, \
                 {:.0} events/s{cells}; \
                 fates: delivered {}, fer_dropped {}, collided {}, stalled {}",
                s.trials_absorbed,
                s.frames_per_sec,
                s.events_per_sec,
                s.delivered,
                s.fer_dropped,
                s.collided,
                s.stalled,
            )
        });
    }
}

/// A sink that publishes structured [`ProgressEvent`]s into a bounded
/// [`EventHub`] — the daemon's per-job flight recorder.
///
/// Publishing never blocks and never fails: overflow sheds the oldest
/// journal entries (counted, queryable via [`EventHub::shed`]), so a
/// disconnected or slow subscriber can never stall or fail the job.
pub struct ChannelProgress {
    hub: Arc<EventHub>,
    done: AtomicU64,
    total: AtomicU64,
}

impl std::fmt::Debug for ChannelProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelProgress")
            .field("done", &self.done.load(Ordering::Relaxed))
            .field("total", &self.total.load(Ordering::Relaxed))
            .field("hub", &self.hub)
            .finish()
    }
}

impl ChannelProgress {
    /// A channel sink whose journal holds at most `capacity` events.
    pub fn new(capacity: usize) -> ChannelProgress {
        ChannelProgress {
            hub: Arc::new(EventHub::new(capacity)),
            done: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// The hub subscribers read from.
    pub fn hub(&self) -> Arc<EventHub> {
        Arc::clone(&self.hub)
    }

    /// Publishes a lifecycle event (job accepted/started/retried/…)
    /// directly — callers above the trial layer use this for events the
    /// runner cannot see. Returns the assigned sequence number.
    pub fn publish(&self, event: ProgressEvent) -> u64 {
        self.hub.publish(event)
    }

    /// Trials completed so far, as reported at trial boundaries.
    pub fn trials_done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Total trials, 0 until the first trial boundary reports it.
    pub fn trials_total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

impl ProgressSink for ChannelProgress {
    fn trial_started(&self, trial: usize, total: usize) {
        self.total.store(total as u64, Ordering::Relaxed);
        self.hub.publish(
            ProgressEvent::new("trial_started")
                .with("trial", trial as u64)
                .with("total", total as u64),
        );
    }

    fn trial_finished(&self, done: usize, total: usize) {
        self.done.store(done as u64, Ordering::Relaxed);
        self.total.store(total as u64, Ordering::Relaxed);
        self.hub.publish(
            ProgressEvent::new("trial_finished")
                .with("done", done as u64)
                .with("total", total as u64),
        );
    }

    fn trial_failed(&self, trial: usize, detail: &str) {
        self.hub.publish(
            ProgressEvent::new("trial_failed")
                .with_detail(detail)
                .with("trial", trial as u64),
        );
    }

    fn sample(&self, render: &dyn Fn() -> ProgressSample) {
        let s = render();
        self.hub.publish(
            ProgressEvent::new("sample")
                .with("trials_absorbed", s.trials_absorbed)
                .with("frames_per_sec", s.frames_per_sec.round() as u64)
                .with("events_per_sec", s.events_per_sec.round() as u64)
                .with("cells_occupied", s.cells_occupied)
                .with("delivered", s.delivered)
                .with("fer_dropped", s.fer_dropped)
                .with("collided", s.collided)
                .with("stalled", s.stalled),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stderr_sink_rate_limit_suppresses_render_lazily() {
        // An hour-long interval: the first sample renders, the second
        // must be suppressed WITHOUT calling the render closure.
        let sink = StderrProgress::with_heartbeat(Heartbeat::with_interval(
            true,
            Duration::from_secs(3600),
        ));
        let rendered = AtomicU64::new(0);
        let render = || {
            rendered.fetch_add(1, Ordering::Relaxed);
            ProgressSample {
                trials_absorbed: 1,
                frames_per_sec: 0.0,
                events_per_sec: 0.0,
                cells_occupied: 0,
                delivered: 0,
                fer_dropped: 0,
                collided: 0,
                stalled: 0,
            }
        };
        sink.sample(&render);
        sink.sample(&render);
        assert_eq!(rendered.load(Ordering::Relaxed), 1);

        // A disabled sink never renders at all.
        let off = StderrProgress::new(false);
        off.sample(&|| -> ProgressSample { panic!("disabled sink must not render") });
    }

    #[test]
    fn channel_sink_records_trial_boundaries_and_samples() {
        let sink = ChannelProgress::new(64);
        sink.trial_started(0, 2);
        sink.trial_finished(1, 2);
        sink.trial_failed(1, "injected trial panic");
        sink.sample(&|| ProgressSample {
            trials_absorbed: 2,
            frames_per_sec: 1234.6,
            events_per_sec: 99.2,
            cells_occupied: 3,
            delivered: 10,
            fer_dropped: 1,
            collided: 2,
            stalled: 0,
        });
        assert_eq!(sink.trials_done(), 1);
        assert_eq!(sink.trials_total(), 2);

        let d = sink.hub().snapshot_since(0);
        let kinds: Vec<&str> = d.events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            vec!["trial_started", "trial_finished", "trial_failed", "sample"]
        );
        let seqs: Vec<u64> = d.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(d.events[2].detail, "injected trial panic");
        assert_eq!(d.events[3].field("frames_per_sec"), Some(1235));
        assert_eq!(d.events[3].field("stalled"), Some(0));
    }

    #[test]
    fn thread_sink_install_is_scoped_and_restorable() {
        let sink: Arc<dyn ProgressSink> = Arc::new(ChannelProgress::new(8));
        assert!(thread_progress_sink().is_none());
        let prev = set_thread_progress_sink(Some(Arc::clone(&sink)));
        assert!(prev.is_none());
        assert!(thread_progress_sink().is_some());
        let prev = set_thread_progress_sink(None);
        assert!(prev.is_some());
        assert!(thread_progress_sink().is_none());
    }
}
