//! The event queue: time-ordered, deterministically tie-broken.

use crate::node::NodeId;
use polite_wifi_frame::Frame;
use polite_wifi_phy::rate::BitRate;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Something that happens at a point in simulated time.
#[derive(Debug, Clone)]
pub enum Event {
    /// Run a station's timer work (`Station::poll`).
    Poll {
        /// Which node.
        node: NodeId,
    },
    /// A node attempts to start a queued (CSMA) transmission.
    TxAttempt {
        /// Which node.
        node: NodeId,
    },
    /// A node starts a scheduled response (SIFS-timed, bypasses CSMA).
    ResponseTx {
        /// Which node.
        node: NodeId,
        /// The response frame (ACK/CTS/...).
        frame: Frame,
        /// Transmit rate.
        rate: BitRate,
        /// Causal trace of the frame this responds to, if sampled.
        trace: Option<u64>,
    },
    /// A transmission ends at its transmitter.
    TxEnd {
        /// The transmitting node.
        node: NodeId,
    },
    /// A frame finishes arriving at a receiver.
    Arrival {
        /// The receiving node.
        node: NodeId,
        /// The transmitting node.
        from: NodeId,
        /// The frame, shared by every receiver of the transmission.
        frame: Arc<Frame>,
        /// The frame's on-air length in bytes, computed once at
        /// transmission start.
        psdu_len: usize,
        /// Rate it was sent at.
        rate: BitRate,
        /// Time the frame started on the air (for overlap checks).
        start_us: u64,
        /// Band/channel the frame rode on.
        tune: crate::medium::Tune,
        /// Causal trace riding the transmission, if sampled.
        trace: Option<u64>,
    },
    /// The transmitter gave up waiting for an ACK.
    AckTimeout {
        /// The waiting node.
        node: NodeId,
        /// Token matching the transmission being timed.
        token: u64,
    },
    /// Fault injection: a device stall begins (the node freezes).
    StallStart {
        /// The stalling node.
        node: NodeId,
    },
    /// Fault injection: a device stall ends, optionally via cold boot.
    StallEnd {
        /// The recovering node.
        node: NodeId,
        /// Whether recovery is a cold boot (station state rebuilt).
        reboot: bool,
    },
    /// External injection: hand a frame to a node's transmit queue.
    Inject {
        /// The transmitting node.
        node: NodeId,
        /// The frame to send.
        frame: Frame,
        /// Rate to send at.
        rate: BitRate,
    },
}

impl Event {
    /// Number of event kinds.
    pub const KINDS: usize = 9;

    /// Stable event-kind names by [`kind_index`](Self::kind_index): the
    /// scheduler self-profiler's attribution keys (and the leaf frames
    /// in collapsed-stack exports).
    pub const KIND_NAMES: [&'static str; Event::KINDS] = [
        "poll",
        "tx_attempt",
        "response_tx",
        "tx_end",
        "arrival",
        "ack_timeout",
        "stall_start",
        "stall_end",
        "inject",
    ];

    /// Dense index of this event's kind, below [`KINDS`](Self::KINDS).
    pub fn kind_index(&self) -> usize {
        match self {
            Event::Poll { .. } => 0,
            Event::TxAttempt { .. } => 1,
            Event::ResponseTx { .. } => 2,
            Event::TxEnd { .. } => 3,
            Event::Arrival { .. } => 4,
            Event::AckTimeout { .. } => 5,
            Event::StallStart { .. } => 6,
            Event::StallEnd { .. } => 7,
            Event::Inject { .. } => 8,
        }
    }
}

/// An event bound to a time, ordered for the queue (earliest first; FIFO
/// among equal times via the sequence number).
#[derive(Debug, Clone)]
pub struct ScheduledEvent {
    /// When the event fires, in microseconds.
    pub at_us: u64,
    /// Monotonic tie-breaker.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at_us == other.at_us && self.seq == other.seq
    }
}

impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at_us
            .cmp(&self.at_us)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Width of one calendar bucket in microseconds. Most MAC timescales
/// (SIFS, slot times, CSMA defers, ACK timeouts) land within a few
/// buckets of `now`.
const BUCKET_WIDTH_US: u64 = 256;
/// Number of rotating buckets: the calendar's horizon is
/// `BUCKET_WIDTH_US * BUCKET_COUNT` ≈ 262 ms; anything scheduled
/// further out waits in the sorted overflow level.
const BUCKET_COUNT: usize = 1024;

/// The calendar level: rotating unsorted buckets over absolute time,
/// a sorted drain buffer for the window currently being dispatched,
/// and a heap-ordered overflow level beyond the calendar horizon.
#[derive(Debug)]
struct Calendar {
    /// Rotating buckets; index for `at_us` is
    /// `(at_us / BUCKET_WIDTH_US) % BUCKET_COUNT`. Unsorted.
    buckets: Vec<Vec<ScheduledEvent>>,
    /// Events in `buckets` (not counting `drain` or `overflow`).
    in_buckets: usize,
    /// Start of the bucket window currently being drained. Invariant:
    /// every pending event with `at_us < window_start + BUCKET_WIDTH_US`
    /// sits in `drain`.
    window_start: u64,
    /// Current window's events, sorted descending by (at_us, seq) so
    /// the earliest pops from the back.
    drain: Vec<ScheduledEvent>,
    /// Events beyond the calendar horizon at push time.
    overflow: BinaryHeap<ScheduledEvent>,
}

impl Calendar {
    fn new() -> Calendar {
        Calendar {
            buckets: (0..BUCKET_COUNT).map(|_| Vec::new()).collect(),
            in_buckets: 0,
            window_start: 0,
            drain: Vec::new(),
            overflow: BinaryHeap::new(),
        }
    }

    fn horizon(&self) -> u64 {
        self.window_start + BUCKET_WIDTH_US * BUCKET_COUNT as u64
    }

    fn push(&mut self, ev: ScheduledEvent) {
        if ev.at_us < self.window_start + BUCKET_WIDTH_US {
            // Due within the current window (including pushes at `now`
            // mid-dispatch): insert into the sorted drain directly.
            let key = (ev.at_us, ev.seq);
            let pos = self.drain.partition_point(|e| (e.at_us, e.seq) > key);
            self.drain.insert(pos, ev);
        } else if ev.at_us < self.horizon() {
            let b = ((ev.at_us / BUCKET_WIDTH_US) as usize) % BUCKET_COUNT;
            self.buckets[b].push(ev);
            self.in_buckets += 1;
        } else {
            self.overflow.push(ev);
        }
    }

    /// Refills `drain` from the next non-empty window. Caller
    /// guarantees at least one event is pending somewhere.
    fn advance(&mut self) {
        debug_assert!(self.drain.is_empty());
        let mut scanned = 0usize;
        loop {
            self.window_start += BUCKET_WIDTH_US;
            if self.in_buckets == 0 {
                // Everything pending waits in the overflow: jump
                // straight to its head's window.
                let head_at = self.overflow.peek().expect("queue is non-empty").at_us;
                self.window_start = self
                    .window_start
                    .max(head_at / BUCKET_WIDTH_US * BUCKET_WIDTH_US);
            } else if scanned >= BUCKET_COUNT {
                // A full rotation of empty windows: every bucketed
                // event is at least one horizon out (it aliased into a
                // bucket ahead of its window). Jump to the earliest
                // pending time instead of scanning years of silence.
                let mut min_at = self.overflow.peek().map_or(u64::MAX, |e| e.at_us);
                for bucket in &self.buckets {
                    for e in bucket {
                        min_at = min_at.min(e.at_us);
                    }
                }
                self.window_start = self
                    .window_start
                    .max(min_at / BUCKET_WIDTH_US * BUCKET_WIDTH_US);
                scanned = 0;
            }
            let end = self.window_start + BUCKET_WIDTH_US;
            let b = ((self.window_start / BUCKET_WIDTH_US) as usize) % BUCKET_COUNT;
            let bucket = &mut self.buckets[b];
            if bucket.iter().all(|e| e.at_us < end) {
                // The normal case: the whole bucket is due. Its buffer
                // becomes the drain and the bucket keeps no allocation,
                // so a burst's capacity is freed once it is dispatched
                // rather than kept by its bucket.
                self.in_buckets -= bucket.len();
                self.drain = std::mem::take(bucket);
            } else {
                // Some events alias a full rotation (or more) ahead:
                // move out only the due ones.
                let mut i = 0;
                while i < bucket.len() {
                    if bucket[i].at_us < end {
                        self.drain.push(bucket.swap_remove(i));
                        self.in_buckets -= 1;
                    } else {
                        i += 1;
                    }
                }
            }
            while self.overflow.peek().is_some_and(|e| e.at_us < end) {
                self.drain.push(self.overflow.pop().expect("peeked"));
            }
            if !self.drain.is_empty() {
                self.drain
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.at_us, e.seq)));
                return;
            }
            scanned += 1;
        }
    }
}

/// A deterministic time-ordered event queue: earliest first, FIFO among
/// equal times via the monotonic sequence number. A calendar queue —
/// O(1) amortised per operation at city scale — with a heap-ordered
/// overflow level beyond its horizon.
#[derive(Debug)]
pub struct EventQueue {
    cal: Calendar,
    next_seq: u64,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue {
            cal: Calendar::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedules `event` at `at_us`. Sequence numbers are assigned at
    /// push, so ties dispatch in push order.
    pub fn push(&mut self, at_us: u64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.cal.push(ScheduledEvent { at_us, seq, event });
    }

    /// Pops the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if self.cal.drain.is_empty() {
            self.cal.advance();
        }
        self.cal.drain.pop()
    }

    /// Time of the next event without removing it. `&mut` because the
    /// calendar may need to roll its window forward to find it.
    pub fn peek_time(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.cal.drain.is_empty() {
            self.cal.advance();
        }
        self.cal.drain.last().map(|e| e.at_us)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn poll(node: usize) -> Event {
        Event::Poll { node: NodeId(node) }
    }

    #[test]
    fn earliest_first() {
        let mut q = EventQueue::new();
        q.push(30, poll(0));
        q.push(10, poll(1));
        q.push(20, poll(2));
        assert_eq!(q.pop().unwrap().at_us, 10);
        assert_eq!(q.pop().unwrap().at_us, 20);
        assert_eq!(q.pop().unwrap().at_us, 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(100, poll(i));
        }
        let mut order = Vec::new();
        while let Some(e) = q.pop() {
            if let Event::Poll { node } = e.event {
                order.push(node.0);
            }
        }
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(5, poll(0));
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn far_future_events_ride_the_overflow_level() {
        let mut q = EventQueue::new();
        // Well beyond the calendar horizon (~262 ms), plus a near event.
        q.push(10_000_000_000, poll(0));
        q.push(3_600_000_000, poll(1));
        q.push(100, poll(2));
        assert_eq!(q.pop().unwrap().at_us, 100);
        assert_eq!(q.pop().unwrap().at_us, 3_600_000_000);
        assert_eq!(q.pop().unwrap().at_us, 10_000_000_000);
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_into_current_window_mid_drain_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(10, poll(0));
        q.push(20, poll(1));
        assert_eq!(q.pop().unwrap().at_us, 10);
        // The drain now holds {20}; a push due sooner must cut the line.
        q.push(15, poll(2));
        q.push(20, poll(3));
        assert_eq!(q.pop().unwrap().at_us, 15);
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        // FIFO among the two t=20 events.
        assert!((a.at_us, a.seq) < (b.at_us, b.seq));
        assert!(matches!(a.event, Event::Poll { node } if node.0 == 1));
        assert!(matches!(b.event, Event::Poll { node } if node.0 == 3));
    }

    /// The reference scheduler the calendar queue is checked against:
    /// one global binary heap, sequence-stamped at push like the queue.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<ScheduledEvent>,
        next_seq: u64,
    }

    impl HeapOracle {
        fn push(&mut self, at_us: u64, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(ScheduledEvent { at_us, seq, event });
        }
    }

    /// Drives the queue and the oracle through one schedule of pushes
    /// (`Some(dt)`: due `dt` µs after the last popped time) and pops
    /// (`None`), asserting the identical (time, seq) order throughout
    /// and after a final drain.
    fn assert_matches_oracle(ops: impl IntoIterator<Item = Option<u64>>) {
        let (mut cal, mut heap) = (EventQueue::new(), HeapOracle::default());
        let mut now = 0u64;
        for (round, op) in ops.into_iter().enumerate() {
            match op {
                Some(dt) => {
                    cal.push(now + dt, poll(round));
                    heap.push(now + dt, poll(round));
                }
                None => match (cal.pop(), heap.heap.pop()) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.at_us, x.seq), (y.at_us, y.seq), "round {round}");
                        assert!(x.at_us >= now, "time went backwards");
                        now = x.at_us;
                    }
                    (None, None) => {}
                    _ => panic!("one scheduler drained before the other"),
                },
            }
            assert_eq!(cal.len(), heap.heap.len());
            let oracle_next = heap.heap.peek().map(|e| e.at_us);
            assert_eq!(cal.peek_time(), oracle_next, "round {round}");
        }
        while let Some(x) = cal.pop() {
            let y = heap.heap.pop().expect("same length");
            assert_eq!((x.at_us, x.seq), (y.at_us, y.seq));
        }
        assert!(heap.heap.pop().is_none());
    }

    /// The contract the whole determinism story rests on: the calendar
    /// queue dispatches any interleaving of pushes and pops in the
    /// heap's (time, seq) total order.
    #[test]
    fn calendar_matches_heap_on_random_interleavings() {
        // Deterministic LCG so the test needs no external RNG.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let ops = (0..5_000).map(|_| {
            let r = next();
            // Push: mostly near-future, occasionally far beyond the
            // horizon, with plenty of exact ties.
            (r % 3 != 0).then(|| match r % 7 {
                0 => 0,
                1..=4 => next() % 2_000,
                5 => next() % 50_000,
                _ => 300_000 + next() % 2_000_000_000,
            })
        });
        assert_matches_oracle(ops.collect::<Vec<_>>());
    }

    /// Every power-save station's poll at one TBTT is a burst of
    /// same-time events, and each beacon interval (100 TU = 400
    /// buckets) lands it in a different bucket. What the calendar keeps
    /// allocated must follow the pending count, not every bucket a
    /// burst once passed through.
    #[test]
    fn retained_capacity_follows_pending_events_not_past_bursts() {
        const BURST: usize = 1_000;
        const BEACON_US: u64 = 102_400;
        let mut q = EventQueue::new();
        let mut now = 0;
        // 64 beacons visit 64 distinct buckets over 25 rotations.
        for _ in 0..64 {
            for node in 0..BURST {
                q.push(now + BEACON_US, poll(node));
            }
            while let Some(e) = q.pop() {
                now = e.at_us;
            }
        }
        assert_eq!(now, 64 * BEACON_US);
        let cal = &q.cal;
        let retained = cal.drain.capacity() + cal.buckets.iter().map(Vec::capacity).sum::<usize>();
        assert!(
            retained <= 2 * BURST,
            "{retained} event slots retained for a peak of {BURST} pending"
        );
    }

    /// A bucket holding both due events and events a full rotation
    /// ahead keeps the aliased ones and hands over only the due ones.
    /// Pushes land in a bucket only within one horizon of the window,
    /// so no push sequence builds this state; the test plants the
    /// aliased events directly, in the queue and the oracle alike.
    #[test]
    fn bucket_with_events_a_rotation_ahead_pops_in_heap_order() {
        const ROTATION_US: u64 = BUCKET_WIDTH_US * BUCKET_COUNT as u64;
        let (mut q, mut heap) = (EventQueue::new(), HeapOracle::default());
        for (i, at) in [1_000, 1_000, 1_100, 5_000].into_iter().enumerate() {
            q.push(at, poll(i));
            heap.push(at, poll(i));
        }
        // Both alias the bucket of t = 1,000, one and two rotations on.
        let planted = [ROTATION_US + 1_000, 2 * ROTATION_US + 900];
        let bucket = (1_000 / BUCKET_WIDTH_US) as usize;
        for (i, at) in planted.into_iter().enumerate() {
            let seq = q.next_seq;
            q.next_seq += 1;
            q.len += 1;
            q.cal.in_buckets += 1;
            q.cal.buckets[bucket].push(ScheduledEvent {
                at_us: at,
                seq,
                event: poll(10 + i),
            });
            heap.push(at, poll(10 + i));
        }
        let mut popped = Vec::new();
        while let Some(x) = q.pop() {
            let y = heap.heap.pop().expect("same length");
            assert_eq!((x.at_us, x.seq), (y.at_us, y.seq));
            popped.push(x.at_us);
        }
        assert!(heap.heap.pop().is_none());
        assert_eq!(popped, [1_000, 1_000, 1_100, 5_000, planted[0], planted[1]]);
    }

    /// One drawn operation: a pop, or a push `dt` µs ahead, where the
    /// class picks a same-µs tie, a near-future time, a time within the
    /// calendar horizon, or one far past it (the overflow level).
    fn arb_op() -> impl Strategy<Value = Option<u64>> {
        (0u8..6, 0u64..4_000_000_000).prop_map(|(class, x)| match class {
            0 => None,
            1 => Some(0),
            2 => Some(x % 3_000),
            3 => Some(x % 300_000),
            _ => Some(262_144 + x),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random schedules — same-µs ties, far-future overflow and
        /// interleaved pops — pop in the heap oracle's order.
        #[test]
        fn calendar_pops_in_heap_order(ops in proptest::collection::vec(arb_op(), 0..400)) {
            assert_matches_oracle(ops);
        }
    }
}
