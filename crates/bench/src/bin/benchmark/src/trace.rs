//! Spans recorded around the calls the benchmark makes into each layer,
//! kept in memory and written out as a Chrome-trace document (loads in
//! Perfetto and `chrome://tracing`) when the run ends.

use polite_wifi_obs::json::JsonWriter;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span's id; 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// A small stable id for the calling thread (Chrome-trace `tid`).
fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Records spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so nested calls can name it as their parent.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                name,
                tid: tid(),
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Total duration of the spans named `name` that are children of
    /// `parent`, or of any span when `parent` is `None`, in seconds.
    pub fn total_s(&self, name: &str, parent: Option<u64>) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name && parent.map_or(true, |p| s.parent == p))
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// The Chrome-trace JSON document: one complete (`"ph": "X"`) event
    /// per span, with its id and parent id in `args`.
    pub fn chrome_trace_json(&self) -> String {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut w = JsonWriter::new();
        w.begin_object().key("traceEvents").begin_array();
        for s in &spans {
            w.begin_object()
                .key("name")
                .string(s.name)
                .key("cat")
                .string(s.name.split('.').next().unwrap_or(s.name))
                .key("ph")
                .string("X")
                .key("ts")
                .f64(s.start_ns as f64 / 1e3)
                .key("dur")
                .f64(s.dur_ns() as f64 / 1e3)
                .key("pid")
                .u64(1)
                .key("tid")
                .u64(s.tid)
                .key("args")
                .begin_object()
                .key("id")
                .u64(s.id)
                .key("parent")
                .u64(s.parent)
                .end_object()
                .end_object();
        }
        w.end_array()
            .key("displayTimeUnit")
            .string("ms")
            .end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_obs::json::parse;

    #[test]
    fn nested_spans_name_their_parent() {
        let t = Tracer::new();
        let inner = t.span("outer", 0, |outer| t.span("inner", outer, |_| outer));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, inner);
        assert_eq!(spans[1].id, inner);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn chrome_trace_parses_with_ids_and_parents() {
        let t = Tracer::new();
        t.span("pass", 0, |p| {
            std::thread::scope(|s| {
                s.spawn(|| t.span("phy.render", p, |_| ()));
            });
        });
        let doc = parse(&t.chrome_trace_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        let pass = &events[0];
        assert_eq!(pass.get("name").and_then(|n| n.as_str()), Some("pass"));
        assert_eq!(pass.get("ph").and_then(|n| n.as_str()), Some("X"));
        let child = &events[1];
        assert_eq!(child.get("cat").and_then(|n| n.as_str()), Some("phy"));
        assert_eq!(
            child.get("args").and_then(|a| a.get("parent")),
            pass.get("args").and_then(|a| a.get("id"))
        );
        assert_ne!(child.get("tid"), pass.get("tid"));
    }
}
