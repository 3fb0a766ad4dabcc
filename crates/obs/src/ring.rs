//! Ring-buffered event recorder.
//!
//! Keeps the **most recent** N point events (label + virtual timestamp +
//! track) in bounded memory, counting how many older events were evicted.
//! Useful for "what led up to this" forensics on long runs where a full
//! event log would be unbounded: the ring always holds the tail.

use std::collections::VecDeque;

/// The ring capacity of every traced [`Obs`](crate::Obs) scope.
pub const RING_CAPACITY: usize = 4096;

/// One point event on the virtual-time axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Virtual timestamp in microseconds.
    pub ts_us: u64,
    /// Track the event happened on (node id in simulator events).
    pub track: u64,
    /// Short label (e.g. `ack.timeout`, `frame.dropped`).
    pub label: String,
}

/// A fixed-capacity ring of the most recent events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingLog {
    buf: VecDeque<EventRecord>,
    capacity: usize,
    /// Events evicted to make room (total recorded = `len() + evicted`).
    pub evicted: u64,
}

impl RingLog {
    /// A ring holding at most `capacity` events (0 disables recording).
    pub fn new(capacity: usize) -> RingLog {
        RingLog {
            buf: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            evicted: 0,
        }
    }

    /// Records an event, evicting the oldest if the ring is full.
    pub fn record(&mut self, ts_us: u64, track: u64, label: &str) {
        if self.capacity == 0 {
            self.evicted += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(EventRecord {
            ts_us,
            track,
            label: label.to_string(),
        });
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &EventRecord> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_most_recent_and_counts_evictions() {
        let mut ring = RingLog::new(3);
        for i in 0..5u64 {
            ring.record(i * 10, 0, "tick");
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted, 2);
        let stamps: Vec<u64> = ring.events().map(|e| e.ts_us).collect();
        assert_eq!(stamps, vec![20, 30, 40]);
    }

    #[test]
    fn zero_capacity_only_counts() {
        let mut ring = RingLog::new(0);
        ring.record(1, 0, "x");
        assert!(ring.is_empty());
        assert_eq!(ring.evicted, 1);
    }
}
