//! A node: a station plus its radio, queue and bookkeeping.
//!
//! Only *cold* state lives here — fields the hot paths (carrier sense,
//! arrival fan-out, collision scans) touch per event are in the SoA
//! [`NodeArena`](crate::arena::NodeArena), indexed by [`NodeId`].

use crate::ledger::ActivityLedger;
use polite_wifi_frame::Frame;
use polite_wifi_mac::csma::Csma;
use polite_wifi_mac::Station;
use polite_wifi_pcap::capture::Capture;
use polite_wifi_phy::rate::BitRate;
use std::collections::VecDeque;

/// Index of a node within the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A frame awaiting contended transmission.
#[derive(Debug, Clone)]
pub struct QueuedFrame {
    /// The frame.
    pub frame: Frame,
    /// Rate to transmit at.
    pub rate: BitRate,
    /// How many times it has been (re)transmitted already.
    pub attempts: u8,
    /// Causal trace the frame belongs to, when sampled: injected frames
    /// open their own trace, MAC-enqueued reactions inherit the trace of
    /// the frame that provoked them.
    pub trace: Option<u64>,
}

/// A pending ACK wait at a transmitter.
#[derive(Debug, Clone)]
pub struct AckWait {
    /// Token matching the `AckTimeout` event.
    pub token: u64,
    /// When the soliciting frame's transmission began — the start of the
    /// `frame.exchange` span the response closes.
    pub started_us: u64,
}

/// One radio node in the simulation (cold state).
#[derive(Debug)]
pub struct Node {
    /// The MAC state machine.
    pub station: Station,
    /// Frames awaiting CSMA transmission.
    pub tx_queue: VecDeque<QueuedFrame>,
    /// DCF backoff state.
    pub csma: Csma,
    /// Whether a TxAttempt event is already scheduled.
    pub tx_attempt_pending: bool,
    /// Monitor mode: capture *all* detectable frames, not just own.
    pub monitor: bool,
    /// Whether transmitter-side retries are enabled (the paper's Scapy
    /// injector fires and forgets; normal stations retry).
    pub retries_enabled: bool,
    /// Per-node capture tap.
    pub capture: Capture,
    /// Radio-state accounting for the energy model.
    pub ledger: ActivityLedger,
    /// Count of frames this node failed to send after all retries.
    pub tx_failures: u64,
    /// Count of frames transmitted (including retries).
    pub tx_count: u64,
    /// Count of ACKs this node received for its own transmissions.
    pub acks_received: u64,
    /// Count of CTS responses received for its own RTS frames.
    pub cts_received: u64,
    /// When the radio last changed base state (doze/wake), for dwell
    /// histograms.
    pub last_base_change_us: u64,
}

impl Node {
    /// Builds a node around a station.
    pub fn new(station: Station) -> Node {
        let band = station.config().band;
        let awake = station.is_awake();
        Node {
            station,
            tx_queue: VecDeque::new(),
            csma: Csma::new(band),
            tx_attempt_pending: false,
            monitor: false,
            retries_enabled: true,
            capture: Capture::new(),
            ledger: ActivityLedger::new(0, awake),
            tx_failures: 0,
            tx_count: 0,
            acks_received: 0,
            cts_received: 0,
            last_base_change_us: 0,
        }
    }
}
