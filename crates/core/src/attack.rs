//! The common attack / probe / assertion layer.
//!
//! Every experiment used to wire its attacker, its measurements and its
//! pass/fail checks straight into its `main` — the deauth, NAV-DoS,
//! ranging, keystroke and wardrive structs each talked to the harness
//! ad hoc. This module gives the three roles names so a declarative
//! scenario (see `polite-wifi-scenario`) can compose them from data:
//!
//! * an [`Attack`] schedules forged traffic into a prepared
//!   [`Simulator`] and reports how many frames it committed to the air;
//! * a [`Probe`] reads measurements out of a *finished* simulation into
//!   the experiment's [`MetricsLedger`];
//! * a [`CmpOp`] over a [`Summary`] of one recorded metric is the
//!   pass/fail predicate a scenario's assertions check.
//!
//! Two attacks exist. Every paced stream, the paper's fakes and the
//! related-work deauth (arXiv 2602.23513) and NAV floods alike, is an
//! [`InjectionPlan`](crate::InjectionPlan); Bl0ck's one forged
//! BlockAckReq (arXiv 2302.05899) is [`BlockAckParalysis`]. The
//! temporal ACK pairer ([`AckVerifier`]) is read through [`AckProbe`].

use crate::verifier::AckVerifier;
use polite_wifi_frame::{ControlFrame, Frame, MacAddr, ManagementBody};
use polite_wifi_harness::MetricsLedger;
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sim::{NodeId, Simulator};

/// Something that schedules forged traffic into a prepared simulator.
pub trait Attack: Send + Sync {
    /// Schedules every frame of the attack, transmitted by `from`.
    /// Returns frames committed.
    fn launch(&self, sim: &mut Simulator, from: NodeId) -> u64;
}

/// Something that reads measurements out of a finished simulation.
pub trait Probe: Send + Sync {
    /// Record this probe's measurements into the ledger.
    fn observe(&self, sim: &Simulator, ledger: &mut MetricsLedger);
}

/// Bl0ck-style Block-Ack paralysis (arXiv 2302.05899): a forged
/// BlockAckReq claiming an associated peer's address slides the victim's
/// reordering-window floor to `jump_to_seq`, and the peer's legitimate
/// traffic below the floor is dropped as stale from then on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockAckParalysis {
    /// The receiver whose window is being jumped.
    pub victim: MacAddr,
    /// The associated peer the attacker impersonates.
    pub spoofed_peer: MacAddr,
    /// The sequence number the window floor jumps to.
    pub jump_to_seq: u16,
    /// Injection time.
    pub at_us: u64,
    /// Transmit bit rate.
    pub bitrate: BitRate,
}

impl Attack for BlockAckParalysis {
    fn launch(&self, sim: &mut Simulator, from: NodeId) -> u64 {
        let bar = Frame::Ctrl(ControlFrame::BlockAckReq {
            duration_us: 0,
            ra: self.victim,
            ta: self.spoofed_peer,
            control: 0x0004,
            start_seq: self.jump_to_seq << 4,
        });
        sim.inject(self.at_us, from, bar, self.bitrate);
        1
    }
}

/// Pairs the attacker's injections with the ACKs they elicited over the
/// attacker node's own capture, and records the verified exchange count
/// under `metric` (plus, optionally, each exchange's fake-end → ACK-end
/// latency in µs under `latency_metric`).
#[derive(Debug, Clone, PartialEq)]
pub struct AckProbe {
    /// The attacker node, whose capture is paired.
    pub node: NodeId,
    /// The forged transmitter address the ACKs come back to.
    pub attacker: MacAddr,
    /// The ledger metric the exchange count is recorded under.
    pub metric: String,
    /// The ledger metric each exchange's latency is recorded under.
    pub latency_metric: Option<String>,
}

impl Probe for AckProbe {
    fn observe(&self, sim: &Simulator, ledger: &mut MetricsLedger) {
        let exchanges = AckVerifier::new(self.attacker).verify(&sim.node(self.node).capture);
        ledger.record(&self.metric, exchanges.len() as f64);
        if let Some(latency) = &self.latency_metric {
            for e in &exchanges {
                ledger.record(latency, (e.ack_ts_us - e.fake_ts_us) as f64);
            }
        }
    }
}

/// Records whether every deauthentication burst on the air repeats one
/// sequence number (1 or 0) — Figure 3's retries, SN=3275 three times.
/// The global capture's deauths are read in bursts of
/// [`Behavior::deauthing_ap`](polite_wifi_mac::Behavior::deauthing_ap)'s
/// `deauth_burst`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeauthSeqProbe {
    /// The ledger metric name to record under.
    pub metric: String,
}

impl Probe for DeauthSeqProbe {
    fn observe(&self, sim: &Simulator, ledger: &mut MetricsLedger) {
        let sequences: Vec<u16> = sim
            .global_capture()
            .frames()
            .iter()
            .filter_map(|cf| match &cf.frame {
                Frame::Mgmt(m) if matches!(m.body, ManagementBody::Deauthentication { .. }) => {
                    Some(m.seq.sequence)
                }
                _ => None,
            })
            .collect();
        let burst = polite_wifi_mac::Behavior::deauthing_ap().deauth_burst as usize;
        let shared = sequences
            .chunks(burst)
            .all(|c| c.iter().all(|&s| s == c[0]));
        ledger.record(&self.metric, if shared { 1.0 } else { 0.0 });
    }
}

/// Which counter a [`StationStatProbe`] reads: a
/// [`StationStats`](polite_wifi_mac::station::StationStats) counter, or
/// one of the simulator node's transmit counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// ACKs transmitted.
    AcksSent,
    /// CTS responses transmitted.
    CtsSent,
    /// Frames delivered to the higher layer.
    Delivered,
    /// Frames discarded after the ACK already left.
    DiscardedAfterAck,
    /// Duplicates suppressed.
    Duplicates,
    /// Deauthentication frames queued.
    DeauthsSent,
    /// Data frames dropped below the Block-Ack window floor.
    BaStaleDropped,
    /// Frames the node transmitted, retries included.
    TxCount,
    /// Frames the node gave up on after its last retry.
    TxFailures,
    /// ACKs the node received for its own transmissions.
    AcksReceived,
}

/// Every counter with its scenario-file name, read in both directions.
const STAT_LABELS: [(StatKind, &str); 10] = [
    (StatKind::AcksSent, "acks_sent"),
    (StatKind::CtsSent, "cts_sent"),
    (StatKind::Delivered, "delivered"),
    (StatKind::DiscardedAfterAck, "discarded_after_ack"),
    (StatKind::Duplicates, "duplicates"),
    (StatKind::DeauthsSent, "deauths_sent"),
    (StatKind::BaStaleDropped, "ba_stale_dropped"),
    (StatKind::TxCount, "tx_count"),
    (StatKind::TxFailures, "tx_failures"),
    (StatKind::AcksReceived, "acks_received"),
];

impl StatKind {
    /// Stable snake_case name used in scenario files.
    pub fn label(&self) -> &'static str {
        let entry = STAT_LABELS.iter().find(|(kind, _)| kind == self);
        entry.expect("every counter has a label").1
    }

    /// Parses the snake_case name back.
    pub fn from_label(label: &str) -> Option<StatKind> {
        let entry = STAT_LABELS.iter().find(|(_, name)| *name == label);
        entry.map(|(kind, _)| *kind)
    }
}

/// Records one station counter under a metric name of the scenario's
/// choosing, optionally divided by a frame count.
#[derive(Debug, Clone, PartialEq)]
pub struct StationStatProbe {
    /// The station to read.
    pub node: NodeId,
    /// Which counter.
    pub stat: StatKind,
    /// The ledger metric name to record under.
    pub metric: String,
    /// Records the counter per this many frames (a stream's scheduled
    /// frames); `None` records the raw count.
    pub per_frames: Option<u64>,
}

impl Probe for StationStatProbe {
    fn observe(&self, sim: &Simulator, ledger: &mut MetricsLedger) {
        let node = sim.node(self.node);
        let stats = &node.station.stats;
        let value = match self.stat {
            StatKind::AcksSent => stats.acks_sent,
            StatKind::CtsSent => stats.cts_sent,
            StatKind::Delivered => stats.delivered,
            StatKind::DiscardedAfterAck => stats.discarded_after_ack,
            StatKind::Duplicates => stats.duplicates,
            StatKind::DeauthsSent => stats.deauths_sent,
            StatKind::BaStaleDropped => stats.ba_stale_dropped,
            StatKind::TxCount => node.tx_count,
            StatKind::TxFailures => node.tx_failures,
            StatKind::AcksReceived => node.acks_received,
        };
        let value = match self.per_frames {
            Some(frames) => value as f64 / frames as f64,
            None => value as f64,
        };
        ledger.record(&self.metric, value);
    }
}

/// Records whether a station is still associated with `peer` (1 or 0) —
/// the deauth-resilience verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationProbe {
    /// The station to inspect.
    pub node: NodeId,
    /// The peer whose association is checked.
    pub peer: MacAddr,
    /// The ledger metric name to record under.
    pub metric: String,
}

impl Probe for AssociationProbe {
    fn observe(&self, sim: &Simulator, ledger: &mut MetricsLedger) {
        let associated = sim.station(self.node).is_associated_with(self.peer);
        ledger.record(&self.metric, if associated { 1.0 } else { 0.0 });
    }
}

/// The comparison operator of a scenario assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// The operator's scenario-file spelling.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
            CmpOp::Le => "<=",
            CmpOp::Lt => "<",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    /// Parses the scenario-file spelling.
    pub fn from_symbol(sym: &str) -> Option<CmpOp> {
        Some(match sym {
            ">=" => CmpOp::Ge,
            ">" => CmpOp::Gt,
            "<=" => CmpOp::Le,
            "<" => CmpOp::Lt,
            "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            _ => return None,
        })
    }

    /// Applies the comparison.
    pub fn holds(&self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }
}

/// Which summary of a metric's samples a scenario assertion compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    /// The mean over every sample (every trial).
    Mean,
    /// The smallest sample: "every trial" claims.
    Min,
    /// The largest sample: "every row" bounds from above.
    Max,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::{InjectionKind, InjectionPlan};
    use polite_wifi_mac::StationConfig;
    use polite_wifi_sim::SimConfig;

    fn victim_mac() -> MacAddr {
        "f2:6e:0b:11:22:33".parse().unwrap()
    }

    #[test]
    fn injection_plan_is_an_attack() {
        let mut sim = Simulator::new(SimConfig::default(), 5);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        sim.set_retries(attacker, false);
        let plan = InjectionPlan {
            victim: victim_mac(),
            forged_ta: MacAddr::FAKE,
            kind: InjectionKind::NullData,
            rate_pps: 50,
            start_us: 0,
            duration_us: 1_000_000,
            bitrate: BitRate::Mbps1,
        };
        let attack: &dyn Attack = &plan;
        let n = attack.launch(&mut sim, attacker);
        assert_eq!(n, 50);
        sim.run_until(2_000_000);
        assert_eq!(sim.station(victim).stats.acks_sent, 50);

        let mut ledger = MetricsLedger::new();
        StationStatProbe {
            node: victim,
            stat: StatKind::AcksSent,
            metric: "acks".into(),
            per_frames: None,
        }
        .observe(&sim, &mut ledger);
        assert_eq!(ledger.mean("acks"), Some(50.0));
    }

    #[test]
    fn deauth_flood_kicks_unprotected_client_only() {
        for (pmf, expect_associated) in [(false, false), (true, true)] {
            let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
            let mut sim = Simulator::new(SimConfig::default(), 7);
            let mut cfg = StationConfig::client(victim_mac());
            if pmf {
                cfg.behavior = polite_wifi_mac::Behavior::pmf_client();
            }
            let victim = sim.add_node(cfg, (0.0, 0.0));
            sim.station_mut(victim).associate(ap_mac);
            let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
            let flood = InjectionPlan {
                victim: victim_mac(),
                forged_ta: ap_mac,
                kind: InjectionKind::Deauth,
                rate_pps: 10,
                start_us: 0,
                duration_us: 500_000,
                bitrate: BitRate::Mbps1,
            };
            assert_eq!(flood.launch(&mut sim, attacker), 5);
            sim.run_until(1_000_000);
            let mut ledger = MetricsLedger::new();
            AssociationProbe {
                node: victim,
                peer: ap_mac,
                metric: "still_associated".into(),
            }
            .observe(&sim, &mut ledger);
            let expected = if expect_associated { 1.0 } else { 0.0 };
            assert_eq!(ledger.mean("still_associated"), Some(expected), "pmf={pmf}");
        }
    }

    #[test]
    fn cmp_op_symbols_round_trip() {
        for op in [
            CmpOp::Ge,
            CmpOp::Gt,
            CmpOp::Le,
            CmpOp::Lt,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert_eq!(CmpOp::from_symbol(op.symbol()), Some(op));
        }
        assert_eq!(CmpOp::from_symbol("=>"), None);
    }

    #[test]
    fn stat_kind_labels_round_trip() {
        for stat in [
            StatKind::AcksSent,
            StatKind::CtsSent,
            StatKind::Delivered,
            StatKind::DiscardedAfterAck,
            StatKind::Duplicates,
            StatKind::DeauthsSent,
            StatKind::BaStaleDropped,
        ] {
            assert_eq!(StatKind::from_label(stat.label()), Some(stat));
        }
        assert_eq!(StatKind::from_label("nope"), None);
    }
}
