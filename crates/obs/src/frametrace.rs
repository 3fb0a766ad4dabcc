//! Causal frame-lifecycle traces.
//!
//! A trace follows one injected frame through every hop of its life:
//! injection → CSMA transmission (per attempt) → its fate on the medium
//! at the addressed receiver (delivered / FER-dropped / collided /
//! fault-suppressed / stall-swallowed / …) → the SIFS-timed ACK the
//! receiver schedules → the ACK arriving back at the injector (the
//! attacker's "verify" step), including the retry chain in between.
//! Derived frames — the SIFS response itself, MAC-enqueued reactions
//! like deauth bursts — inherit the injected frame's trace ID, so the
//! whole causal tree shares one timeline.
//!
//! Determinism contract: trace IDs are the injection ordinal within one
//! simulator (0, 1, 2, …), and every injected frame of a traced run is
//! traced. Per-trial logs absorbed in trial-index order therefore render
//! byte-identically at any `--workers` count. Storage is bounded: at
//! most [`MAX_TRACES`] traces of [`MAX_HOPS`] hops each; overflow is
//! counted, never stored.

use crate::json::{JsonWriter, ToJson};

/// Hop kinds — the taxonomy DESIGN.md §10 documents.
pub mod hop {
    /// Frame handed to the injector's transmit queue (trace begins).
    pub const INJECT: &str = "inject";
    /// A CSMA transmission attempt started (`arg` = retry count so far).
    pub const TX: &str = "tx";
    /// A SIFS-timed response transmission started at the responder.
    pub const RESPONSE_TX: &str = "response_tx";
    /// The receiver's MAC scheduled the SIFS response (`arg` = the
    /// scheduled turnaround in µs — equal to the band's SIFS under the
    /// paper's polite-ACK behavior).
    pub const SIFS_ACK: &str = "sifs_ack";
    /// The response arrived back at the injector and satisfied its wait
    /// (`arg` = exchange round-trip in µs). The attacker's verify step.
    pub const ACK_RX: &str = "ack_rx";
    /// ACK timeout at the sender; the frame stays queued for another
    /// attempt (`arg` = attempts so far).
    pub const RETRY: &str = "retry";
    /// ACK timeout at the sender; the retry budget is exhausted and the
    /// frame is dropped (`arg` = attempts made).
    pub const DROP: &str = "drop";

    /// Medium fate at the addressed receiver: decoded cleanly.
    pub const FATE_DELIVERED: &str = "fate.delivered";
    /// Medium fate: frame-error drop (`arg` 1 = injected burst-loss
    /// fault, 0 = the channel's intrinsic FER draw).
    pub const FATE_FER_DROPPED: &str = "fate.fer_dropped";
    /// Medium fate: corrupted by an overlapping transmission (`arg` 1 =
    /// the receiver's own half-duplex transmission).
    pub const FATE_COLLIDED: &str = "fate.collided";
    /// Medium fate: the receiver's firmware was stalled (deaf).
    pub const FATE_STALL_SWALLOWED: &str = "fate.stall_swallowed";
    /// The receiver's scheduled SIFS response was swallowed by a stall.
    pub const FATE_FAULT_SUPPRESSED: &str = "fate.fault_suppressed";
    /// Medium fate: below the receiver's detection threshold.
    pub const FATE_UNDETECTED: &str = "fate.undetected";
    /// Medium fate: the receiver's power-save radio was dozing.
    pub const FATE_DOZING: &str = "fate.dozing";
}

/// The trace bound of every traced [`Obs`](crate::Obs) scope.
pub const MAX_TRACES: usize = 2048;

/// The per-trace hop bound of every traced [`Obs`](crate::Obs) scope.
pub const MAX_HOPS: usize = 32;

/// One hop in a frame's causal timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopRecord {
    /// Virtual time of the hop, in µs.
    pub ts_us: u64,
    /// Node index the hop happened at.
    pub node: u64,
    /// Hop kind (see [`hop`]).
    pub kind: String,
    /// Kind-specific argument (attempt count, turnaround µs, …).
    pub arg: u64,
}

/// The full sampled timeline of one injected frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameTrace {
    /// Injection ordinal within the trial's simulator.
    pub trace_id: u64,
    /// Trial index, stamped by [`TraceLog::absorb`].
    pub group: u64,
    /// Hops in recording order (monotone in `ts_us`).
    pub hops: Vec<HopRecord>,
}

/// Bounded store of sampled frame timelines.
#[derive(Debug, Clone)]
pub struct TraceLog {
    traces: Vec<FrameTrace>,
    max_traces: usize,
    max_hops: usize,
    /// Traces that arrived after the store was full.
    pub dropped_traces: u64,
    /// Hops dropped because their trace was full (or never stored).
    pub dropped_hops: u64,
}

impl TraceLog {
    /// An empty log bounded to `max_traces` × `max_hops`.
    pub fn new(max_traces: usize, max_hops: usize) -> TraceLog {
        TraceLog {
            traces: Vec::new(),
            max_traces,
            max_hops,
            dropped_traces: 0,
            dropped_hops: 0,
        }
    }

    /// Opens a new trace. Past the bound it is counted, not stored.
    pub fn begin(&mut self, trace_id: u64) {
        if self.traces.len() >= self.max_traces {
            self.dropped_traces += 1;
            return;
        }
        self.traces.push(FrameTrace {
            trace_id,
            group: 0,
            hops: Vec::new(),
        });
    }

    /// Appends a hop to an open trace. Hops for unknown (capacity-
    /// dropped) traces or full timelines are counted, not stored.
    pub fn hop(&mut self, trace_id: u64, ts_us: u64, node: u64, kind: &str, arg: u64) {
        // Recent traces live at the end; in-flight frames are few.
        let Some(t) = self
            .traces
            .iter_mut()
            .rev()
            .find(|t| t.trace_id == trace_id)
        else {
            self.dropped_hops += 1;
            return;
        };
        if t.hops.len() >= self.max_hops {
            self.dropped_hops += 1;
            return;
        }
        t.hops.push(HopRecord {
            ts_us,
            node,
            kind: kind.to_string(),
            arg,
        });
    }

    /// The stored traces, in recording (then absorb) order.
    pub fn traces(&self) -> &[FrameTrace] {
        &self.traces
    }

    /// Number of stored traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when nothing is stored and nothing was dropped.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty() && self.dropped_traces == 0 && self.dropped_hops == 0
    }

    /// Folds another log in, stamping its traces with `group` (the
    /// absorbing side's trial index). Call in trial order.
    pub fn absorb(&mut self, other: &TraceLog, group: u64) {
        self.dropped_traces += other.dropped_traces;
        self.dropped_hops += other.dropped_hops;
        for t in &other.traces {
            if self.traces.len() >= self.max_traces {
                self.dropped_traces += 1;
                self.dropped_hops += t.hops.len() as u64;
                continue;
            }
            let mut t = t.clone();
            t.group = group;
            self.traces.push(t);
        }
    }
}

/// Canonical JSON array of the stored timelines — byte-identical for
/// equal contents, like every other obs export.
impl ToJson for TraceLog {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for t in &self.traces {
            w.begin_object()
                .key("trace_id")
                .u64(t.trace_id)
                .key("group")
                .u64(t.group)
                .key("hops")
                .begin_array();
            for h in &t.hops {
                w.begin_object()
                    .key("ts_us")
                    .u64(h.ts_us)
                    .key("node")
                    .u64(h.node)
                    .key("kind")
                    .string(&h.kind)
                    .key("arg")
                    .u64(h.arg)
                    .end_object();
            }
            w.end_array().end_object();
        }
        w.end_array();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_bounds_are_exact() {
        let mut log = TraceLog::new(2, 2);
        for id in 0..4 {
            log.begin(id);
            log.hop(id, 1, 0, hop::INJECT, 0);
            log.hop(id, 2, 0, hop::TX, 0);
            log.hop(id, 3, 1, hop::FATE_DELIVERED, 0);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped_traces, 2);
        // Traces 0/1 each dropped their 3rd hop; traces 2/3 dropped all.
        assert_eq!(log.dropped_hops, 2 + 6);
        assert!(log.traces().iter().all(|t| t.hops.len() <= 2));
    }

    #[test]
    fn absorb_retags_and_counts_overflow() {
        let mut a = TraceLog::new(8, 8);
        a.begin(0);
        a.hop(0, 1, 0, hop::INJECT, 0);
        let mut b = TraceLog::new(8, 8);
        b.begin(0);
        b.hop(0, 5, 0, hop::INJECT, 0);

        let mut root = TraceLog::new(8, 8);
        root.absorb(&a, 0);
        root.absorb(&b, 1);
        assert_eq!(root.len(), 2);
        assert_eq!(root.traces()[0].group, 0);
        assert_eq!(root.traces()[1].group, 1);

        let mut tiny = TraceLog::new(1, 8);
        tiny.absorb(&a, 0);
        tiny.absorb(&b, 1);
        assert_eq!(tiny.len(), 1);
        assert_eq!(tiny.dropped_traces, 1);
        assert_eq!(tiny.dropped_hops, 1);
    }

    #[test]
    fn json_export_is_canonical() {
        let mut log = TraceLog::new(4, 4);
        log.begin(7);
        log.hop(7, 10, 1, hop::INJECT, 0);
        log.hop(7, 20, 1, hop::TX, 2);
        let json = crate::json::to_string(&log);
        assert!(json.contains("\"trace_id\":7"));
        assert!(json.contains("\"kind\":\"tx\""));
        let doc = crate::json::parse(&json).unwrap();
        assert_eq!(doc.as_array().unwrap().len(), 1);
    }
}
