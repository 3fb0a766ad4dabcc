//! The live telemetry plane: typed progress events, a bounded per-job
//! event journal, a subscriber hub and a counter time-series ring.
//!
//! Everything in this module is **operational** telemetry — it exists so
//! an operator (or `trace_query --follow`) can watch a long run while it
//! happens. Nothing here ever reaches a canonical result envelope:
//! wall-clock timestamps are supplied by the caller (the daemon stamps
//! its own uptime), and the event stream is an observation channel, not
//! a result channel, so the byte-identical-across-workers contract on
//! envelopes is untouched (same split as the PR 5 profiler's wall half).
//!
//! Three layers:
//!
//! * [`ProgressEvent`] — one typed event (`job_accepted`,
//!   `trial_finished`, `sample`, `deadline_remaining`, …) with a
//!   journal-assigned, strictly-increasing sequence number, a free-text
//!   detail and an ordered numeric field list;
//! * [`EventJournal`] — a fixed-capacity ring of events (the per-job
//!   *flight recorder*): pushes assign `seq`, overflow sheds the oldest
//!   events but keeps counting them, and [`since`](EventJournal::since)
//!   answers resume-from-N queries;
//! * [`EventHub`] — an [`EventJournal`] behind a mutex + condvar with a
//!   terminal `close()`, so subscribers can block on
//!   [`wait_since`](EventHub::wait_since) while producers never block on
//!   subscribers (a slow or vanished subscriber costs shed events, never
//!   job progress);
//! * [`TimeSeries`] — a fixed-capacity ring of per-window counter
//!   deltas, sampled from a [`Counters`] scope, for `/metrics/history`.

use crate::json::JsonWriter;
use crate::metrics::Counters;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One progress event. `seq` is assigned by the journal the event is
/// pushed into and is strictly increasing per journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressEvent {
    /// Journal-assigned sequence number (0-based, strictly increasing).
    pub seq: u64,
    /// Event kind: `job_accepted`, `job_started`, `trial_started`,
    /// `trial_finished`, `trial_failed`, `sample`,
    /// `cache_hit`, `deadline_remaining`, `job_finished`, …
    pub kind: String,
    /// Free-text detail (panic message, terminal state); `""` when none.
    pub detail: String,
    /// Ordered numeric payload, e.g. `[("done", 3), ("total", 8)]`.
    pub fields: Vec<(String, u64)>,
}

impl ProgressEvent {
    /// An event of `kind` with no detail or fields yet.
    pub fn new(kind: &str) -> ProgressEvent {
        ProgressEvent {
            seq: 0,
            kind: kind.to_string(),
            detail: String::new(),
            fields: Vec::new(),
        }
    }

    /// Adds a numeric field (builder style, order preserved).
    pub fn with(mut self, name: &str, value: u64) -> ProgressEvent {
        self.fields.push((name.to_string(), value));
        self
    }

    /// Sets the free-text detail (builder style).
    pub fn with_detail(mut self, detail: &str) -> ProgressEvent {
        self.detail = detail.to_string();
        self
    }

    /// The value of a named field, if present.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Canonical JSON: `seq`, `kind`, `detail` (only when non-empty),
    /// then the fields in recorded order.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("seq").u64(self.seq).key("kind");
        w.string(&self.kind);
        if !self.detail.is_empty() {
            w.key("detail").string(&self.detail);
        }
        for (name, value) in &self.fields {
            w.key(name).u64(*value);
        }
        w.end_object();
        w.finish()
    }
}

/// A fixed-capacity event journal — the per-job flight recorder.
///
/// Pushes assign strictly-increasing sequence numbers. When the ring is
/// full the oldest event is shed (and counted in
/// [`shed`](EventJournal::shed)); the journal never blocks and never
/// grows past its capacity, so a runaway job cannot exhaust memory and
/// a slow reader cannot stall a writer.
#[derive(Debug)]
pub struct EventJournal {
    events: VecDeque<ProgressEvent>,
    capacity: usize,
    next_seq: u64,
    /// Events shed from the head of the ring by overflow.
    pub shed: u64,
}

impl EventJournal {
    /// An empty journal holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventJournal {
        EventJournal {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
            shed: 0,
        }
    }

    /// Appends an event, assigning and returning its sequence number.
    pub fn push(&mut self, mut event: ProgressEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        event.seq = seq;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.shed += 1;
        }
        self.events.push_back(event);
        seq
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event is held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The sequence number the next push will get (also the total number
    /// of events ever pushed).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The oldest sequence number still held (== `next_seq` when empty).
    pub fn first_seq(&self) -> u64 {
        self.events.front().map_or(self.next_seq, |e| e.seq)
    }

    /// All held events with `seq >= from`, in sequence order. A `from`
    /// older than [`first_seq`](Self::first_seq) silently starts at the
    /// oldest held event — the caller can detect the gap by comparing.
    pub fn since(&self, from: u64) -> Vec<ProgressEvent> {
        self.events
            .iter()
            .filter(|e| e.seq >= from)
            .cloned()
            .collect()
    }

    /// The whole journal as a canonical JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event.to_json());
        }
        out.push(']');
        out
    }
}

/// What one [`EventHub::wait_since`] / [`EventHub::snapshot_since`]
/// delivered.
#[derive(Debug)]
pub struct Delivery {
    /// Events with `seq >= from`, in sequence order (possibly empty).
    pub events: Vec<ProgressEvent>,
    /// Whether the hub has been closed (no further events will arrive).
    pub closed: bool,
    /// Oldest sequence still held when the snapshot was taken; if it is
    /// greater than the requested `from`, the difference was shed before
    /// this subscriber caught up.
    pub first_seq: u64,
    /// The sequence number the next event will get.
    pub next_seq: u64,
}

struct HubInner {
    journal: EventJournal,
    closed: bool,
}

/// A shared, subscribable [`EventJournal`]: producers
/// [`publish`](EventHub::publish) without ever blocking, subscribers
/// block on [`wait_since`](EventHub::wait_since), and
/// [`close`](EventHub::close) marks the stream terminal so subscribers
/// drain and hang up.
pub struct EventHub {
    inner: Mutex<HubInner>,
    cv: Condvar,
}

impl std::fmt::Debug for EventHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("EventHub")
            .field("len", &inner.journal.len())
            .field("next_seq", &inner.journal.next_seq())
            .field("closed", &inner.closed)
            .finish()
    }
}

impl EventHub {
    /// A hub whose journal holds at most `capacity` events.
    pub fn new(capacity: usize) -> EventHub {
        EventHub {
            inner: Mutex::new(HubInner {
                journal: EventJournal::new(capacity),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Publishes an event and wakes subscribers. Returns the assigned
    /// sequence number. Never blocks on subscribers: a full journal
    /// sheds its oldest event instead.
    pub fn publish(&self, event: ProgressEvent) -> u64 {
        let seq = self.inner.lock().unwrap().journal.push(event);
        self.cv.notify_all();
        seq
    }

    /// Marks the stream terminal and wakes subscribers so they can
    /// drain and hang up. Idempotent.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Total events ever published.
    pub fn published(&self) -> u64 {
        self.inner.lock().unwrap().journal.next_seq()
    }

    /// Events shed by journal overflow so far.
    pub fn shed(&self) -> u64 {
        self.inner.lock().unwrap().journal.shed
    }

    /// Non-blocking snapshot of everything at or past `from`.
    pub fn snapshot_since(&self, from: u64) -> Delivery {
        let inner = self.inner.lock().unwrap();
        Delivery {
            events: inner.journal.since(from),
            closed: inner.closed,
            first_seq: inner.journal.first_seq(),
            next_seq: inner.journal.next_seq(),
        }
    }

    /// Blocks until an event at or past `from` exists, the hub closes,
    /// or `timeout` elapses — whichever comes first — then returns the
    /// snapshot. A timeout simply yields an empty delivery; callers loop.
    pub fn wait_since(&self, from: u64, timeout: Duration) -> Delivery {
        let mut inner = self.inner.lock().unwrap();
        if inner.journal.next_seq() <= from && !inner.closed {
            let (guard, _) = self.cv.wait_timeout(inner, timeout).unwrap();
            inner = guard;
        }
        Delivery {
            events: inner.journal.since(from),
            closed: inner.closed,
            first_seq: inner.journal.first_seq(),
            next_seq: inner.journal.next_seq(),
        }
    }

    /// The whole journal as a canonical JSON array (the
    /// `/jobs/<id>/events` document).
    pub fn to_json(&self) -> String {
        self.inner.lock().unwrap().journal.to_json()
    }
}

/// One sampled window of a [`TimeSeries`]: the per-counter deltas that
/// accumulated since the previous window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Monotone window index (0-based; survives ring eviction).
    pub index: u64,
    /// Caller-supplied timestamp (the daemon stamps uptime ms). Kept
    /// opaque here so this module stays wall-clock-free.
    pub at_ms: u64,
    /// `(counter name, delta)` pairs, sorted by name, zero deltas
    /// omitted.
    pub deltas: Vec<(String, u64)>,
}

/// A fixed-capacity ring of per-window counter deltas.
///
/// [`sample`](TimeSeries::sample) diffs a [`Counters`] scope against the
/// previous sample and records the deltas as one window; old windows are
/// evicted (and counted) when the ring is full. This is the history the
/// daemon serves on `/metrics/history`: cheap, bounded, and precise
/// enough to plot rates without an external scrape loop.
#[derive(Debug)]
pub struct TimeSeries {
    windows: VecDeque<Window>,
    capacity: usize,
    last: BTreeMap<String, u64>,
    next_index: u64,
    /// Windows evicted from the ring by overflow.
    pub evicted: u64,
}

impl TimeSeries {
    /// An empty ring holding at most `capacity` windows (min 1).
    pub fn new(capacity: usize) -> TimeSeries {
        TimeSeries {
            windows: VecDeque::new(),
            capacity: capacity.max(1),
            last: BTreeMap::new(),
            next_index: 0,
            evicted: 0,
        }
    }

    /// Samples `counters` at caller-time `at_ms`: records one window of
    /// per-counter deltas versus the previous sample and returns its
    /// index. Counters are monotone, so deltas are exact saturating
    /// differences; unchanged counters are omitted from the window.
    pub fn sample(&mut self, counters: &Counters, at_ms: u64) -> u64 {
        let mut deltas = Vec::new();
        for (name, value) in counters.sorted() {
            let prev = self.last.get(name).copied().unwrap_or(0);
            let delta = value.saturating_sub(prev);
            if delta > 0 {
                deltas.push((name.to_string(), delta));
            }
            self.last.insert(name.to_string(), value);
        }
        let index = self.next_index;
        self.next_index += 1;
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
            self.evicted += 1;
        }
        self.windows.push_back(Window {
            index,
            at_ms,
            deltas,
        });
        index
    }

    /// The held windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter()
    }

    /// Number of windows currently held.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when nothing has been sampled yet (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The `/metrics/history` document: ring metadata plus every held
    /// window with its sorted non-zero deltas.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("capacity")
            .u64(self.capacity as u64)
            .key("evicted")
            .u64(self.evicted)
            .key("windows")
            .begin_array();
        for window in &self.windows {
            w.begin_object()
                .key("index")
                .u64(window.index)
                .key("at_ms")
                .u64(window.at_ms)
                .key("deltas")
                .begin_object();
            for (name, delta) in &window.deltas {
                w.key(name).u64(*delta);
            }
            w.end_object().end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_assigns_strictly_increasing_seqs_and_sheds_oldest() {
        let mut j = EventJournal::new(3);
        for i in 0..5u64 {
            let seq = j.push(ProgressEvent::new("tick").with("i", i));
            assert_eq!(seq, i);
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.shed, 2);
        assert_eq!(j.first_seq(), 2);
        assert_eq!(j.next_seq(), 5);
        let seqs: Vec<u64> = j.since(0).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        let seqs: Vec<u64> = j.since(4).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4]);
        assert!(j.since(5).is_empty());
    }

    #[test]
    fn event_json_is_canonical_and_skips_empty_detail() {
        let mut j = EventJournal::new(8);
        j.push(
            ProgressEvent::new("trial_finished")
                .with("done", 2)
                .with("total", 8),
        );
        j.push(
            ProgressEvent::new("job_finished")
                .with_detail("done")
                .with("cached", 1),
        );
        let json = j.to_json();
        assert_eq!(
            json,
            "[{\"seq\":0,\"kind\":\"trial_finished\",\"done\":2,\"total\":8},\
             {\"seq\":1,\"kind\":\"job_finished\",\"detail\":\"done\",\"cached\":1}]"
        );
        // Round-trips through the vendored parser.
        let doc = crate::json::parse(&json).unwrap();
        assert_eq!(doc.as_array().unwrap().len(), 2);
    }

    #[test]
    fn hub_wait_since_sees_published_events_and_close() {
        let hub = std::sync::Arc::new(EventHub::new(16));
        let seq = hub.publish(ProgressEvent::new("a"));
        assert_eq!(seq, 0);
        let d = hub.wait_since(0, Duration::from_millis(1));
        assert_eq!(d.events.len(), 1);
        assert!(!d.closed);

        // A waiter blocked past the journal end is woken by a publish
        // from another thread.
        let waiter = {
            let hub = std::sync::Arc::clone(&hub);
            std::thread::spawn(move || hub.wait_since(1, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(10));
        hub.publish(ProgressEvent::new("b"));
        let d = waiter.join().unwrap();
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.events[0].kind, "b");

        hub.close();
        let d = hub.wait_since(2, Duration::from_secs(30));
        assert!(d.events.is_empty());
        assert!(d.closed, "close must release waiters immediately");
    }

    #[test]
    fn hub_publishing_never_blocks_without_subscribers() {
        // The "disconnected subscriber" contract at the hub level: far
        // more events than capacity, nobody reading — every publish
        // returns, overflow is counted, the newest events survive.
        let hub = EventHub::new(4);
        for i in 0..100u64 {
            hub.publish(ProgressEvent::new("tick").with("i", i));
        }
        assert_eq!(hub.published(), 100);
        assert_eq!(hub.shed(), 96);
        let d = hub.snapshot_since(0);
        assert_eq!(d.first_seq, 96);
        let seqs: Vec<u64> = d.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![96, 97, 98, 99]);
    }

    #[test]
    fn time_series_records_per_window_deltas() {
        let mut ts = TimeSeries::new(4);
        let mut c = Counters::new();
        c.add("a", 3);
        assert_eq!(ts.sample(&c, 10), 0);
        c.add("a", 2);
        c.add("b", 7);
        assert_eq!(ts.sample(&c, 20), 1);
        // No change → a window with no deltas (still proves liveness).
        assert_eq!(ts.sample(&c, 30), 2);

        let windows: Vec<&Window> = ts.windows().collect();
        assert_eq!(windows[0].deltas, vec![("a".to_string(), 3)]);
        assert_eq!(
            windows[1].deltas,
            vec![("a".to_string(), 2), ("b".to_string(), 7)]
        );
        assert!(windows[2].deltas.is_empty());

        let json = ts.to_json();
        let doc = crate::json::parse(&json).unwrap();
        assert_eq!(doc.get("windows").unwrap().as_array().unwrap().len(), 3);
        assert!(json.contains("\"at_ms\":20"));
    }

    #[test]
    fn time_series_ring_evicts_but_keeps_monotone_indices() {
        let mut ts = TimeSeries::new(2);
        let mut c = Counters::new();
        for i in 0..5u64 {
            c.add("n", 1);
            assert_eq!(ts.sample(&c, i), i);
        }
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.evicted, 3);
        let indices: Vec<u64> = ts.windows().map(|w| w.index).collect();
        assert_eq!(indices, vec![3, 4]);
    }
}
