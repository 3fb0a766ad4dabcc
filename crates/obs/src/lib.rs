//! Zero-dependency structured tracing and metrics for polite-wifi.
//!
//! The paper's claims are timing claims — ACKs returned at SIFS before
//! any credential check could run, battery drain scaling with fake-frame
//! rate — so the simulator needs to observe its own internal timing, not
//! just final report numbers. This crate is that instrument:
//!
//! * **Counters** and **log2 histograms** ([`metrics`]) — typed, named,
//!   merge by addition, exported in sorted order so snapshots are
//!   byte-identical however many workers produced them.
//! * **Spans** ([`span`]) — named virtual-time intervals (frame
//!   exchanges, trials) on per-node tracks, bounded in memory.
//! * A **ring-buffered event recorder** ([`ring`]) holding the most
//!   recent point events in bounded memory.
//! * Two exporters: a canonical JSON metrics snapshot (the [`Obs`]
//!   [`ToJson`](json::ToJson) impl) embedded in the harness result envelope,
//!   and a Chrome-trace / Perfetto span dump ([`Obs::chrome_trace_json`])
//!   behind the shared `--trace-out` flag.
//!
//! Span and ring recording are off unless enabled — via [`install`]
//! (process-wide, what `--trace-out` does) or [`Obs::with_config`] —
//! so steady-state simulation pays one branch per would-be span.
//!
//! ```
//! use polite_wifi_obs::{Obs, ObsConfig};
//!
//! let mut trial = Obs::with_config(ObsConfig::tracing());
//! trial.add("frames.injected", 3);
//! trial.observe("mac.ack_turnaround_us", 10);
//! trial.span("frame.exchange", 2, 10_000, 358);
//!
//! let mut merged = Obs::with_config(ObsConfig::tracing());
//! merged.absorb(&trial, 0); // group 0 = trial index 0
//! assert_eq!(merged.counters.get("frames.injected"), 3);
//! assert!(merged.chrome_trace_json().contains("\"ph\":\"X\""));
//! ```

pub mod events;
pub mod frametrace;
pub mod json;
pub mod metrics;
pub mod names;
pub mod openmetrics;
pub mod profiler;
pub mod ring;
pub mod span;
pub mod trace;

pub use events::{Delivery, EventHub, EventJournal, ProgressEvent, TimeSeries};
pub use frametrace::{FrameTrace, HopRecord, TraceLog};
pub use metrics::{Counters, Histogram, Histograms, HISTOGRAM_BUCKETS};
pub use openmetrics::OpenMetricsWriter;
pub use profiler::{ProfStat, Profiler};
pub use ring::{EventRecord, RingLog};
pub use span::{SpanLog, SpanRecord};

use std::sync::OnceLock;

/// What an [`Obs`] records. Counters and histograms are always on (they
/// are the cheap, always-useful part); spans and ring events are opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record spans (and ring events + frame traces). Enabled by
    /// `--trace-out`.
    pub spans: bool,
    /// Span-log bound; spans past it are counted, not stored.
    pub max_spans: usize,
    /// Ring-buffer capacity for point events when `spans` is on.
    pub ring_capacity: usize,
    /// Frame-trace sampling rate, per mille of injected frames (1000 =
    /// every frame, subject to `max_traces`). The decision is the pure
    /// function [`frametrace::sampled`] of `(trial seed, trace id)`.
    pub trace_sample_permille: u32,
    /// Frame-trace store bound; traces past it are counted, not stored.
    pub max_traces: usize,
    /// Per-trace hop bound; hops past it are counted, not stored.
    pub max_hops: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            spans: false,
            max_spans: 200_000,
            ring_capacity: 4096,
            trace_sample_permille: 1000,
            max_traces: 2048,
            max_hops: 32,
        }
    }
}

impl ObsConfig {
    /// The config `--trace-out` installs: spans and ring recording on.
    pub fn tracing() -> ObsConfig {
        ObsConfig {
            spans: true,
            ..ObsConfig::default()
        }
    }
}

static CONFIG: OnceLock<ObsConfig> = OnceLock::new();

/// Installs the process-wide config new [`Obs`] instances pick up.
/// First caller wins (like a tracing subscriber); returns whether this
/// call installed it.
pub fn install(config: ObsConfig) -> bool {
    CONFIG.set(config).is_ok()
}

/// The installed process-wide config, or the default when none was
/// installed.
pub fn config() -> ObsConfig {
    CONFIG.get().copied().unwrap_or_default()
}

/// One observability scope: a bundle of counters, histograms, a span
/// log and an event ring.
///
/// The simulator owns one per instance; the harness owns one per
/// experiment and [`absorb`](Obs::absorb)s per-trial scopes **in trial
/// order**, which keeps every export byte-identical across `--workers`
/// counts (the same contract `MetricsLedger` follows).
#[derive(Debug, Clone)]
pub struct Obs {
    /// Named monotonic counters.
    pub counters: Counters,
    /// Named log2 histograms.
    pub histograms: Histograms,
    /// Completed spans (bounded).
    pub spans: SpanLog,
    /// Most recent point events (bounded).
    pub ring: RingLog,
    /// Sampled causal frame timelines (bounded).
    pub traces: TraceLog,
    /// Per-event-kind scheduler self-profile (always on; the
    /// deterministic half is exported, wall-clock stays out of
    /// canonical documents).
    pub profiler: Profiler,
    enabled: bool,
    trace_sample_permille: u32,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// An observability scope using the process-wide [`config`].
    pub fn new() -> Obs {
        Obs::with_config(config())
    }

    /// An observability scope with an explicit config (tests, tools).
    pub fn with_config(cfg: ObsConfig) -> Obs {
        Obs {
            counters: Counters::new(),
            histograms: Histograms::new(),
            spans: SpanLog::new(if cfg.spans { cfg.max_spans } else { 0 }),
            ring: RingLog::new(if cfg.spans { cfg.ring_capacity } else { 0 }),
            traces: TraceLog::new(if cfg.spans { cfg.max_traces } else { 0 }, cfg.max_hops),
            profiler: Profiler::new(),
            enabled: cfg.spans,
            trace_sample_permille: cfg.trace_sample_permille,
        }
    }

    /// True when span/ring recording is enabled for this scope.
    pub fn tracing_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, name: &str, n: u64) {
        self.counters.add(name, n);
    }

    /// Adds 1 to a counter.
    pub fn incr(&mut self, name: &str) {
        self.counters.add(name, 1);
    }

    /// Records one observation into a named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.observe(name, value);
    }

    /// Records a completed span (no-op unless tracing is enabled).
    pub fn span(&mut self, name: &str, track: u64, start_us: u64, dur_us: u64) {
        if self.enabled {
            self.spans.push(SpanRecord {
                name: name.to_string(),
                track,
                group: 0,
                start_us,
                dur_us,
            });
        }
    }

    /// Records a point event into the ring (no-op unless tracing is
    /// enabled).
    pub fn event(&mut self, ts_us: u64, track: u64, label: &str) {
        if self.enabled {
            self.ring.record(ts_us, track, label);
        }
    }

    /// The deterministic frame-trace sampling decision for this scope:
    /// false unless tracing is enabled, otherwise the pure function
    /// [`frametrace::sampled`] of `(seed, trace_id)` at the configured
    /// per-mille rate.
    pub fn trace_sampled(&self, seed: u64, trace_id: u64) -> bool {
        self.enabled && frametrace::sampled(seed, trace_id, self.trace_sample_permille)
    }

    /// Opens a frame trace (no-op unless tracing is enabled).
    pub fn trace_begin(&mut self, trace_id: u64) {
        if self.enabled {
            self.traces.begin(trace_id);
        }
    }

    /// Appends a hop to a frame trace (no-op unless tracing is enabled).
    pub fn trace_hop(&mut self, trace_id: u64, ts_us: u64, node: u64, kind: &str, arg: u64) {
        if self.enabled {
            self.traces.hop(trace_id, ts_us, node, kind, arg);
        }
    }

    /// Attributes one handled scheduler event to the self-profiler.
    pub fn prof(&mut self, kind: &str, virt_us: u64, wall_ns: u64) {
        self.profiler.record(kind, virt_us, wall_ns);
    }

    /// Folds another scope into this one, tagging its spans with
    /// `group` (the absorbing side's trial index). Must be called in
    /// trial-index order for deterministic exports.
    pub fn absorb(&mut self, other: &Obs, group: u64) {
        self.counters.merge(&other.counters);
        self.histograms.merge(&other.histograms);
        self.profiler.merge(&other.profiler);
        if self.enabled {
            self.spans.absorb(&other.spans, group);
            for event in other.ring.events() {
                self.ring.record(event.ts_us, event.track, &event.label);
            }
            self.ring.evicted += other.ring.evicted;
            self.traces.absorb(&other.traces, group);
        }
    }

    /// True when nothing at all has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.ring.is_empty()
            && self.traces.is_empty()
            && self.profiler.is_empty()
    }

    /// [`ToJson`](json::ToJson) rendered compact: the canonical
    /// metrics snapshot the result envelope embeds as `obs`.
    pub fn metrics_json(&self) -> String {
        json::to_string(self)
    }

    /// Canonical JSON array of the sampled frame timelines (see
    /// [`TraceLog`]).
    pub fn frame_traces_json(&self) -> String {
        json::to_string(&self.traces)
    }

    /// Renders the span log and event ring as a Chrome-trace document
    /// (open in `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn chrome_trace_json(&self) -> String {
        trace::chrome_trace_json(&self.spans, &self.ring)
    }
}

/// The canonical metrics snapshot: counters and histograms in
/// sorted-name order (buckets keyed by log2 index, non-zero only), the
/// profiler's deterministic half, the sampled frame timelines and the
/// drop counts. Two scopes with equal contents render byte-identically,
/// which is exactly the property the worker-invariance tests pin.
impl json::ToJson for Obs {
    fn write_json(&self, w: &mut json::JsonWriter) {
        w.begin_object().key("counters").begin_object();
        for (name, value) in self.counters.sorted() {
            w.key(name).u64(value);
        }
        w.end_object().key("histograms").begin_object();
        for (name, hist) in self.histograms.sorted() {
            w.key(name)
                .begin_object()
                .key("count")
                .u64(hist.count)
                .key("sum")
                .u64(hist.sum)
                .key("min")
                .u64(if hist.count == 0 { 0 } else { hist.min })
                .key("max")
                .u64(hist.max)
                .key("buckets")
                .begin_object();
            for (idx, n) in hist.buckets.iter().enumerate() {
                if *n > 0 {
                    w.key(&idx.to_string()).u64(*n);
                }
            }
            w.end_object().end_object();
        }
        w.end_object()
            .key("profiler")
            .value(&self.profiler)
            .key("frame_traces")
            .value(&self.traces)
            .key("spans_dropped")
            .u64(self.spans.dropped)
            .key("events_evicted")
            .u64(self.ring.evicted)
            .key("traces_dropped")
            .u64(self.traces.dropped_traces)
            .key("hops_dropped")
            .u64(self.traces.dropped_hops)
            .end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scope_skips_spans_but_keeps_metrics() {
        let mut obs = Obs::with_config(ObsConfig::default());
        obs.incr("frames.injected");
        obs.observe("lat", 10);
        obs.span("frame.exchange", 1, 0, 5);
        obs.event(3, 1, "ack.timeout");
        assert!(!obs.tracing_enabled());
        assert_eq!(obs.counters.get("frames.injected"), 1);
        assert!(obs.spans.is_empty());
        assert!(obs.ring.is_empty());
        assert_eq!(obs.spans.dropped, 0);
    }

    #[test]
    fn tracing_scope_records_spans() {
        let mut obs = Obs::with_config(ObsConfig::tracing());
        obs.span("frame.exchange", 1, 100, 358);
        obs.event(500, 1, "ack.timeout");
        assert_eq!(obs.spans.len(), 1);
        assert_eq!(obs.ring.len(), 1);
    }

    #[test]
    fn absorb_merges_and_retags() {
        let mut t0 = Obs::with_config(ObsConfig::tracing());
        t0.add("acks", 2);
        t0.observe("lat", 10);
        t0.span("trial", 0, 0, 100);
        let mut t1 = Obs::with_config(ObsConfig::tracing());
        t1.add("acks", 3);
        t1.observe("lat", 12);

        let mut merged = Obs::with_config(ObsConfig::tracing());
        merged.absorb(&t0, 0);
        merged.absorb(&t1, 1);
        assert_eq!(merged.counters.get("acks"), 5);
        assert_eq!(merged.histograms.get("lat").unwrap().count, 2);
        assert_eq!(merged.spans.spans()[0].group, 0);
    }

    #[test]
    fn metrics_json_is_canonical() {
        // Same contents recorded in different orders → identical bytes.
        let mut a = Obs::with_config(ObsConfig::default());
        a.add("b.count", 1);
        a.add("a.count", 2);
        a.observe("z.lat", 10);
        a.observe("y.lat", 20);
        let mut b = Obs::with_config(ObsConfig::default());
        b.observe("y.lat", 20);
        b.observe("z.lat", 10);
        b.add("a.count", 2);
        b.add("b.count", 1);
        assert_eq!(a.metrics_json(), b.metrics_json());
        let doc = json::parse(&a.metrics_json()).unwrap();
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("a.count")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn install_is_first_wins() {
        // Note: other tests in this binary may race to install first;
        // only the stability of the outcome is asserted.
        let first = config();
        install(ObsConfig::tracing());
        let second = config();
        install(ObsConfig::default());
        assert_eq!(second, config());
        let _ = first;
    }
}
