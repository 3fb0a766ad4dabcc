//! Canonical metric names — the registry every runtime-emitted counter
//! and histogram name must appear in.
//!
//! The observability vocabulary spans five crates — the simulator, the
//! MAC layer, the attack pipeline, the experiment binaries and the
//! harness — so names are pinned here once and asserted at runtime by
//! `tests/metric_names.rs`: any counter or histogram a scenario emits
//! must satisfy [`is_registered`], or the test names the stray. That
//! keeps `trace_query`, the Prometheus exporter and CI greps working
//! against a closed vocabulary instead of ad-hoc strings.
//!
//! Naming scheme: `sim.*` for event-loop outcomes, `mac.*` for MAC
//! decisions, `power.*` for radio power accounting, `frame.fate.*` for
//! the per-frame medium-fate taxonomy (DESIGN.md §10), `fault.*` for
//! injected impairments, `retry.*` for the attacker-side recovery loop,
//! `wardrive.*`/`sensing.*` for experiment-level tallies, `hub.*` for
//! the batched sensing hub's link/batch accounting, `harness.*` for
//! trial bookkeeping, and `daemon.*` for the `polite-wifi-d` serving
//! layer (admission, cache, job outcomes, drain).

/// Counter: frames that would have decoded but were corrupted by
/// injected burst loss (Gilbert–Elliott).
pub const FAULT_MEDIUM_FRAMES_DROPPED: &str = "fault.medium.frames_dropped";

/// Counter: fault-injected device stalls that fired.
pub const FAULT_DEVICE_STALLS: &str = "fault.device.stalls";

/// Histogram: duration of each injected stall, µs.
pub const FAULT_DEVICE_STALL_US: &str = "fault.device.stall_us";

/// Counter: stalls that ended in a cold boot.
pub const FAULT_DEVICE_REBOOTS: &str = "fault.device.reboots";

/// Counter: SIFS-timed responses (ACK/CTS) a stalled device never sent.
pub const FAULT_DEVICE_RESPONSES_SUPPRESSED: &str = "fault.device.responses_suppressed";

/// Counter: frames that arrived while the receiver was stalled.
pub const FAULT_DEVICE_RX_DROPPED_STALLED: &str = "fault.device.rx_dropped_stalled";

/// Counter: attacker-side retry injections beyond the first attempt.
pub const RETRY_ATTEMPTS: &str = "retry.attempts";

/// Histogram: deterministic jittered backoff delays applied between
/// retries, µs.
pub const RETRY_BACKOFF_US: &str = "retry.backoff_us";

/// Counter: targets quarantined after exhausting the retry budget or
/// the per-target verify timeout.
pub const RETRY_QUARANTINED: &str = "retry.quarantined";

/// Counter: trials that panicked or aborted and were recorded as
/// structured failures instead of killing the run.
pub const HARNESS_TRIAL_FAILURES: &str = "harness.trial_failures";

/// Counter: addressed frames that decoded cleanly at their receiver.
pub const FRAME_FATE_DELIVERED: &str = "frame.fate.delivered";

/// Counter: addressed frames lost to a frame-error drop — the channel's
/// intrinsic FER draw or the injected burst-loss fault.
pub const FRAME_FATE_FER_DROPPED: &str = "frame.fate.fer_dropped";

/// Counter: addressed frames corrupted by an overlapping transmission
/// (including the receiver's own half-duplex transmission).
pub const FRAME_FATE_COLLIDED: &str = "frame.fate.collided";

/// Counter: addressed frames that arrived while the receiver's firmware
/// was stalled (deaf).
pub const FRAME_FATE_STALL_SWALLOWED: &str = "frame.fate.stall_swallowed";

/// Counter: SIFS responses a stall swallowed before they aired.
pub const FRAME_FATE_FAULT_SUPPRESSED: &str = "frame.fate.fault_suppressed";

/// Counter: addressed frames below the receiver's detection threshold.
pub const FRAME_FATE_UNDETECTED: &str = "frame.fate.undetected";

/// Counter: addressed frames missed because the receiver's power-save
/// radio was dozing.
pub const FRAME_FATE_DOZING: &str = "frame.fate.dozing";

/// Histogram: MAC-level retries a frame needed before its exchange
/// completed or it was dropped (0 = first attempt succeeded).
pub const SIM_RETRY_CHAIN_DEPTH: &str = "sim.retry_chain_depth";

/// Counter: events popped and dispatched by the simulator's scheduler —
/// the denominator of the events/s throughput figure the city-scale
/// benchmarks report.
pub const SIM_EVENTS_DISPATCHED: &str = "sim.events_dispatched";

/// Counter: interference-grid cells holding at least one static node,
/// sampled once per wardrive segment (0 under all-pairs propagation).
pub const SIM_CELLS_OCCUPIED: &str = "sim.cells_occupied";

/// Counter: CSI samples rendered by a sensing scenario.
pub const SENSING_CSI_SAMPLES: &str = "sensing.csi_samples";

/// Counter: motion windows a sensing scenario detected.
pub const SENSING_MOTION_WINDOWS: &str = "sensing.motion_windows";

/// Counter: links the batched sensing hub multiplexed.
pub const HUB_LINKS: &str = "hub.links";

/// Counter: kernel batches (one `SeriesBatch` pass each) the batched
/// sensing hub processed.
pub const HUB_BATCHES: &str = "hub.batches";

/// Counter: scenario submissions the daemon accepted for execution
/// (cache hits and coalesced duplicates are counted separately).
pub const DAEMON_SUBMIT_TOTAL: &str = "daemon.submit.total";

/// Counter: submissions that coalesced onto an identical in-flight job
/// instead of spawning a second run.
pub const DAEMON_SUBMIT_COALESCED: &str = "daemon.submit.coalesced";

/// Counter: submissions bounced by admission control (full queue or
/// drain in progress) with a 429/503-style response.
pub const DAEMON_ADMISSION_REJECTED: &str = "daemon.admission.rejected";

/// Counter: submissions answered straight from the content-addressed
/// result store, no re-simulation.
pub const DAEMON_CACHE_HIT: &str = "daemon.cache.hit";

/// Counter: cacheable submissions that had to simulate.
pub const DAEMON_CACHE_MISS: &str = "daemon.cache.miss";

/// Counter: cache entries that failed integrity verification on read
/// and were recomputed and overwritten.
pub const DAEMON_CACHE_CORRUPT: &str = "daemon.cache.corrupt";

/// Counter: jobs that ran to completion with exit status 0.
pub const DAEMON_JOBS_COMPLETED: &str = "daemon.jobs.completed";

/// Counter: jobs recorded as failed (panic, nonzero exit, unreadable
/// envelope).
pub const DAEMON_JOBS_FAILED: &str = "daemon.jobs.failed";

/// Counter: jobs cancelled by the per-job wall-clock deadline.
pub const DAEMON_JOBS_TIMED_OUT: &str = "daemon.jobs.timed_out";

/// Histogram: admission-queue depth observed at each enqueue.
pub const DAEMON_QUEUE_DEPTH: &str = "daemon.queue.depth";

/// Histogram: wall-clock milliseconds a graceful drain took. Wall time
/// is fine here: daemon metrics are operational and never enter a
/// canonical result envelope.
pub const DAEMON_DRAIN_WALL_MS: &str = "daemon.drain.wall_ms";

/// Counter: progress events published into a job's flight recorder
/// (lifecycle, trial boundaries, samples). Operational-plane only.
pub const PROGRESS_EVENTS: &str = "progress.events";

/// Counter: progress events shed by flight-recorder ring overflow —
/// the journal is bounded, so a long job keeps only its newest events.
pub const PROGRESS_EVENTS_SHED: &str = "progress.events_shed";

/// Counter: `/watch/<id>` subscriptions accepted (initial + resumed).
pub const DAEMON_WATCH_SUBSCRIBED: &str = "daemon.watch.subscribed";

/// Counter: `/watch/<id>` subscriptions that resumed from a non-zero
/// `Last-Event-ID` / `?from=` position.
pub const DAEMON_WATCH_RESUMED: &str = "daemon.watch.resumed";

/// Counter: SSE events written to `/watch` subscribers.
pub const DAEMON_WATCH_EVENTS_STREAMED: &str = "daemon.watch.events_streamed";

/// Counter: events a `/watch` subscriber missed because the journal
/// ring shed them before the subscriber caught up (slow-subscriber
/// shedding — the job never waits for the stream).
pub const DAEMON_WATCH_EVENTS_SHED: &str = "daemon.watch.events_shed";

/// Counter: `/watch` subscribers that hung up (or errored) before the
/// stream reached its terminal `job_finished` event.
pub const DAEMON_WATCH_DISCONNECTED: &str = "daemon.watch.disconnected";

/// Counter: per-job flight-recorder journals persisted to the state
/// dir during a graceful drain.
pub const DAEMON_JOURNAL_PERSISTED: &str = "daemon.journal.persisted";

/// Counter: time-series windows sampled into the `/metrics/history`
/// ring by the supervisor.
pub const DAEMON_HISTORY_SAMPLES: &str = "daemon.history.samples";

/// Every exact runtime-emitted counter/histogram name.
pub const REGISTERED: &[&str] = &[
    // sim.* — event-loop outcomes.
    "sim.frames_injected",
    "sim.frames_txed",
    "sim.ack_timeouts",
    "sim.tx_retries",
    "sim.tx_drops",
    "sim.acks_received",
    "sim.cts_received",
    "sim.exchange_rtt_us",
    SIM_RETRY_CHAIN_DEPTH,
    SIM_EVENTS_DISPATCHED,
    SIM_CELLS_OCCUPIED,
    // mac.* — MAC decisions.
    "mac.csma_defer_us",
    "mac.csma_busy_backoffs",
    "mac.csma_backoff_us",
    "mac.acks_scheduled",
    "mac.cts_scheduled",
    "mac.responses_scheduled",
    "mac.ack_turnaround_us",
    "mac.cts_turnaround_us",
    "mac.response_turnaround_us",
    "mac.sifs_deadline_met",
    "mac.sifs_deadline_missed",
    "mac.enqueued",
    "mac.delivered",
    // power.* — radio power accounting.
    "power.dwell_sleep_us",
    "power.dwell_awake_us",
    "power.transitions",
    // frame.fate.* — per-frame medium-fate taxonomy.
    FRAME_FATE_DELIVERED,
    FRAME_FATE_FER_DROPPED,
    FRAME_FATE_COLLIDED,
    FRAME_FATE_STALL_SWALLOWED,
    FRAME_FATE_FAULT_SUPPRESSED,
    FRAME_FATE_UNDETECTED,
    FRAME_FATE_DOZING,
    // fault.* / retry.* / harness.* — fault layer and bookkeeping.
    FAULT_MEDIUM_FRAMES_DROPPED,
    FAULT_DEVICE_STALLS,
    FAULT_DEVICE_STALL_US,
    FAULT_DEVICE_REBOOTS,
    FAULT_DEVICE_RESPONSES_SUPPRESSED,
    FAULT_DEVICE_RX_DROPPED_STALLED,
    RETRY_ATTEMPTS,
    RETRY_BACKOFF_US,
    RETRY_QUARANTINED,
    HARNESS_TRIAL_FAILURES,
    // wardrive.* / sensing.* / hub.* — experiment-level tallies.
    "wardrive.discovered",
    "wardrive.verified",
    "wardrive.clients",
    "wardrive.aps",
    SENSING_CSI_SAMPLES,
    SENSING_MOTION_WINDOWS,
    "sensing.windows_scored",
    HUB_LINKS,
    HUB_BATCHES,
    // daemon.* — the polite-wifi-d serving layer.
    DAEMON_SUBMIT_TOTAL,
    DAEMON_SUBMIT_COALESCED,
    DAEMON_ADMISSION_REJECTED,
    DAEMON_CACHE_HIT,
    DAEMON_CACHE_MISS,
    DAEMON_CACHE_CORRUPT,
    DAEMON_JOBS_COMPLETED,
    DAEMON_JOBS_FAILED,
    DAEMON_JOBS_TIMED_OUT,
    DAEMON_QUEUE_DEPTH,
    DAEMON_DRAIN_WALL_MS,
    // progress.* / daemon.watch.* — the live telemetry plane.
    PROGRESS_EVENTS,
    PROGRESS_EVENTS_SHED,
    DAEMON_WATCH_SUBSCRIBED,
    DAEMON_WATCH_RESUMED,
    DAEMON_WATCH_EVENTS_STREAMED,
    DAEMON_WATCH_EVENTS_SHED,
    DAEMON_WATCH_DISCONNECTED,
    DAEMON_JOURNAL_PERSISTED,
    DAEMON_HISTORY_SAMPLES,
];

/// Registered name families with a dynamic final segment: per-reason
/// discard counters and per-device-class turnaround histograms.
pub const REGISTERED_PREFIXES: &[&str] = &[
    "mac.discard.",
    "mac.ack_turnaround_us.",
    "mac.cts_turnaround_us.",
    "mac.response_turnaround_us.",
];

/// True when a runtime-emitted metric name is part of the registry —
/// either an exact [`REGISTERED`] entry or a member of a
/// [`REGISTERED_PREFIXES`] family.
pub fn is_registered(name: &str) -> bool {
    REGISTERED.contains(&name)
        || REGISTERED_PREFIXES
            .iter()
            .any(|p| name.len() > p.len() && name.starts_with(p))
}

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_distinct() {
        let set: std::collections::HashSet<_> = super::REGISTERED.iter().collect();
        assert_eq!(set.len(), super::REGISTERED.len());
    }

    #[test]
    fn registry_lookup_covers_exact_and_prefixed_names() {
        assert!(super::is_registered("sim.frames_injected"));
        assert!(super::is_registered(super::RETRY_BACKOFF_US));
        assert!(super::is_registered("mac.discard.not_associated"));
        assert!(super::is_registered("mac.ack_turnaround_us.ghz2"));
        assert!(!super::is_registered("mac.discard."));
        assert!(!super::is_registered("sim.made_up"));
        assert!(!super::is_registered("totally.unknown"));
    }
}
