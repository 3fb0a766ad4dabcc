//! Bounded span recording.
//!
//! A span is a named interval of **virtual** simulation time on a track
//! (usually a node id) within a group (usually a trial index). Spans are
//! only recorded when the installed [`ObsConfig`](crate::ObsConfig)
//! enables them — the `--trace-out` flag does that — so steady-state
//! runs pay a single branch per would-be span.
//!
//! The log is bounded: past `max_spans` entries new spans are counted in
//! `dropped` instead of stored, keeping memory finite on city-scale
//! wardrive runs.

/// The span bound of every traced [`Obs`](crate::Obs) scope.
pub const MAX_SPANS: usize = 200_000;

/// One completed span on the virtual-time axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// What happened (e.g. `frame.exchange`, `trial`).
    pub name: String,
    /// Track within the group — in simulator spans this is the node id.
    pub track: u64,
    /// Group — in harness runs this is the trial index; exported as the
    /// Chrome-trace `pid` so each trial gets its own lane.
    pub group: u64,
    /// Start of the interval in virtual microseconds.
    pub start_us: u64,
    /// Interval length in virtual microseconds.
    pub dur_us: u64,
}

/// A bounded, append-only span log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLog {
    spans: Vec<SpanRecord>,
    max_spans: usize,
    /// Spans discarded because the log was full.
    pub dropped: u64,
}

impl SpanLog {
    /// A log that stores at most `max_spans` spans.
    pub fn new(max_spans: usize) -> SpanLog {
        SpanLog {
            spans: Vec::new(),
            max_spans,
            dropped: 0,
        }
    }

    /// Appends a span, or bumps `dropped` when the log is full.
    pub fn push(&mut self, span: SpanRecord) {
        if self.spans.len() < self.max_spans {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Recorded spans in append order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Number of stored spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Appends another log's spans, retagging each with `group` (the
    /// absorbing side assigns trial indices). Respects this log's bound.
    pub fn absorb(&mut self, other: &SpanLog, group: u64) {
        self.dropped += other.dropped;
        for span in &other.spans {
            self.push(SpanRecord {
                group,
                ..span.clone()
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            track: 1,
            group: 0,
            start_us,
            dur_us: 5,
        }
    }

    #[test]
    fn push_respects_bound() {
        let mut log = SpanLog::new(2);
        log.push(span("a", 0));
        log.push(span("b", 1));
        log.push(span("c", 2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped, 1);
        assert_eq!(log.spans()[1].name, "b");
    }

    #[test]
    fn absorb_retags_group() {
        let mut trial = SpanLog::new(10);
        trial.push(span("exchange", 100));
        let mut merged = SpanLog::new(10);
        merged.absorb(&trial, 7);
        assert_eq!(merged.spans()[0].group, 7);
        assert_eq!(merged.spans()[0].start_us, 100);
    }
}
