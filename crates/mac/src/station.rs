//! The station state machine and its Polite-WiFi receive path.

use crate::actions::{DiscardReason, MacAction, RadioState};
use crate::behavior::Behavior;
use crate::dedup::DedupCache;
use crate::fragment::Reassembler;
use polite_wifi_frame::seq::SequenceCounter;
use polite_wifi_frame::{
    builder, ControlFrame, Frame, MacAddr, ManagementBody, ReasonCode, SequenceControl,
};
use polite_wifi_phy::airtime;
use polite_wifi_phy::band::Band;
use polite_wifi_phy::rate::BitRate;
use std::collections::{HashMap, HashSet};

/// Whether a station is a client or an access point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A client device (tablet, phone, IoT module, laptop).
    Client,
    /// An access point.
    AccessPoint,
}

/// A client's progress through the 802.11 join sequence
/// (authentication → association). The security handshake (4-way) is
/// abstracted into the final `Joined` state — Polite WiFi is orthogonal
/// to it, which is rather the point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinState {
    /// Not joining anything.
    Idle,
    /// Open-system authentication request sent.
    Authenticating {
        /// The AP being joined.
        ap: MacAddr,
    },
    /// Association request sent.
    Associating {
        /// The AP being joined.
        ap: MacAddr,
    },
    /// Fully joined.
    Joined {
        /// The AP joined.
        ap: MacAddr,
        /// Association id assigned by the AP.
        aid: u16,
    },
}

/// Static configuration of a station.
#[derive(Debug, Clone, PartialEq)]
pub struct StationConfig {
    /// The station's MAC address.
    pub mac: MacAddr,
    /// Client or AP.
    pub role: Role,
    /// Operating band (sets SIFS).
    pub band: Band,
    /// Channel number within the band.
    pub channel: u8,
    /// Behavioural quirks.
    pub behavior: Behavior,
    /// SSID (APs beacon it; clients remember the network they joined).
    pub ssid: String,
    /// Beacon interval for APs, in microseconds. `None` disables beacons.
    pub beacon_interval_us: Option<u64>,
}

impl StationConfig {
    /// A client on 2.4 GHz channel 6 with default behaviour.
    pub fn client(mac: MacAddr) -> StationConfig {
        StationConfig {
            mac,
            role: Role::Client,
            band: Band::Ghz2,
            channel: 6,
            behavior: Behavior::client(),
            ssid: String::new(),
            beacon_interval_us: None,
        }
    }

    /// An AP on 2.4 GHz channel 6, beaconing every 100 TU.
    pub fn access_point(mac: MacAddr, ssid: &str) -> StationConfig {
        StationConfig {
            mac,
            role: Role::AccessPoint,
            band: Band::Ghz2,
            channel: 6,
            behavior: Behavior::quiet_ap(),
            ssid: ssid.to_string(),
            beacon_interval_us: Some(102_400),
        }
    }
}

/// Counters exposed for the experiment harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StationStats {
    /// ACKs transmitted (the paper's headline measurement).
    pub acks_sent: u64,
    /// CTS responses transmitted.
    pub cts_sent: u64,
    /// Frames dropped at the PHY for bad FCS.
    pub fcs_failures: u64,
    /// Frames ignored because they were addressed elsewhere.
    pub not_for_us: u64,
    /// Frames the higher layers discarded *after* the ACK went out.
    pub discarded_after_ack: u64,
    /// Deauthentication frames queued.
    pub deauths_sent: u64,
    /// Frames delivered to the higher layer.
    pub delivered: u64,
    /// Duplicates suppressed.
    pub duplicates: u64,
    /// Beacons transmitted.
    pub beacons_sent: u64,
    /// Data frames dropped for falling behind the Block-Ack window floor.
    pub ba_stale_dropped: u64,
}

/// An 802.11 station (client or AP) as an event-driven state machine.
///
/// Drive it with [`Station::on_receive`] for every frame the radio hears
/// and [`Station::poll`] for timer work; both return the [`MacAction`]s
/// the surrounding radio should carry out.
#[derive(Debug, Clone)]
pub struct Station {
    cfg: StationConfig,
    seq: SequenceCounter,
    dedup: DedupCache,
    reassembler: Reassembler,
    /// Peers this station trusts (association + keys).
    associated: HashSet<MacAddr>,
    /// Client-side join progress.
    join_state: JoinState,
    /// AP-side: stations that completed open-system authentication.
    authenticated: HashSet<MacAddr>,
    /// AP-side: association ids, per station.
    aid_of: HashMap<MacAddr, u16>,
    /// AP-side: next association id to hand out.
    next_aid: u16,
    /// AP-side: stations currently in power-save mode (told us via the
    /// PM bit).
    ps_mode: HashSet<MacAddr>,
    /// AP-side: frames buffered for dozing stations, per station.
    ps_buffer: HashMap<MacAddr, Vec<(Frame, BitRate)>>,
    /// Administrator blocklist (the one that cannot stop ACKs).
    blocklist: HashSet<MacAddr>,
    /// Last deauth-burst time per offender, for cooldown.
    last_deauth: HashMap<MacAddr, u64>,
    /// Per-transmitter Block-Ack reordering window floor (WinStart, in
    /// sequence numbers). Slid forward by BlockAckReq — including forged
    /// ones, the Bl0ck paralysis primitive (arXiv 2302.05899).
    ba_window: HashMap<MacAddr, u16>,
    /// Power-save: is the radio up?
    awake: bool,
    /// Power-save: whether the AP has already been told we are dozing
    /// (the PM=1 null goes out once per active→doze transition, not on
    /// every beacon-window doze).
    ps_announced: bool,
    /// Last time traffic touched this station (for the doze timer).
    last_activity_us: u64,
    /// Power-save: the radio stays up at least until this time after a
    /// scheduled beacon wake (TBTT), even with no unicast traffic.
    beacon_window_until_us: u64,
    /// Power-save: next target beacon transmission time to wake for.
    next_tbtt_us: u64,
    /// Next beacon time for APs.
    next_beacon_us: u64,
    /// Counters.
    pub stats: StationStats,
}

impl Station {
    /// Builds a station. Power-save stations start awake at t = 0; APs
    /// beacon immediately.
    pub fn new(cfg: StationConfig) -> Station {
        let next_tbtt_us = cfg
            .behavior
            .power_save
            .map(|ps| ps.beacon_interval_us)
            .unwrap_or(0);
        Station {
            cfg,
            seq: SequenceCounter::new(),
            dedup: DedupCache::default(),
            reassembler: Reassembler::new(),
            associated: HashSet::new(),
            join_state: JoinState::Idle,
            authenticated: HashSet::new(),
            aid_of: HashMap::new(),
            next_aid: 1,
            ps_mode: HashSet::new(),
            ps_buffer: HashMap::new(),
            blocklist: HashSet::new(),
            last_deauth: HashMap::new(),
            ba_window: HashMap::new(),
            awake: true,
            ps_announced: false,
            last_activity_us: 0,
            beacon_window_until_us: 0,
            next_tbtt_us,
            next_beacon_us: 0,
            stats: StationStats::default(),
        }
    }

    /// The station's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.cfg.mac
    }

    /// The static configuration.
    pub fn config(&self) -> &StationConfig {
        &self.cfg
    }

    /// Whether the radio is currently awake.
    pub fn is_awake(&self) -> bool {
        self.awake
    }

    /// Sequence numbers remembered by the duplicate-detection cache.
    /// Only FCS-valid data frames may populate it.
    pub fn dedup_entries(&self) -> usize {
        self.dedup.len()
    }

    /// Partial payloads held by the fragment reassembler. Only FCS-valid
    /// fragments may populate it.
    pub fn fragments_pending(&self) -> usize {
        self.reassembler.pending()
    }

    /// Marks `peer` as associated/trusted directly, skipping the on-air
    /// handshake (test/bootstrap shortcut; [`Station::start_join`] runs
    /// the real sequence).
    pub fn associate(&mut self, peer: MacAddr) {
        self.associated.insert(peer);
        if self.cfg.role == Role::Client && self.join_state == JoinState::Idle {
            self.join_state = JoinState::Joined { ap: peer, aid: 0 };
        }
    }

    /// Client-side join progress.
    pub fn join_state(&self) -> JoinState {
        self.join_state
    }

    /// AP-side: the association id assigned to `sta`, if associated.
    pub fn aid_of(&self, sta: MacAddr) -> Option<u16> {
        self.aid_of.get(&sta).copied()
    }

    /// True when `peer` is in the associated/trusted set.
    pub fn is_associated_with(&self, peer: MacAddr) -> bool {
        self.associated.contains(&peer)
    }

    /// Begins the 802.11 join sequence with `ap`: open-system
    /// authentication, then association. Returns the actions (the
    /// authentication frame to transmit).
    pub fn start_join(&mut self, ap: MacAddr) -> Vec<MacAction> {
        assert_eq!(self.cfg.role, Role::Client, "APs do not join");
        self.join_state = JoinState::Authenticating { ap };
        let frame = Frame::Mgmt(polite_wifi_frame::ManagementFrame::new(
            ap,
            self.cfg.mac,
            ap,
            self.seq.take(),
            ManagementBody::Authentication {
                algorithm: 0, // open system
                transaction: 1,
                status: 0,
            },
        ));
        vec![MacAction::Enqueue {
            frame,
            rate: BitRate::Mbps1,
        }]
    }

    /// Adds `addr` to the administrator blocklist — the countermeasure the
    /// paper shows is futile against Polite WiFi.
    pub fn block_mac(&mut self, addr: MacAddr) {
        self.blocklist.insert(addr);
    }

    /// True if `addr` is blocklisted.
    pub fn is_blocked(&self, addr: MacAddr) -> bool {
        self.blocklist.contains(&addr)
    }

    /// Handles one frame heard by the radio.
    ///
    /// * `now_us` — time the frame *ended* on the air;
    /// * `fcs_ok` — result of the PHY's FCS check;
    /// * `rate` — rate the frame was received at (sets the response rate).
    pub fn on_receive(
        &mut self,
        now_us: u64,
        frame: &Frame,
        fcs_ok: bool,
        rate: BitRate,
    ) -> Vec<MacAction> {
        let mut actions = Vec::new();

        // PHY: frames failing FCS never reach the MAC and get no response.
        if !fcs_ok {
            self.stats.fcs_failures += 1;
            actions.push(MacAction::Discard {
                reason: DiscardReason::FcsFailed,
            });
            return actions;
        }

        let ra = match frame.receiver() {
            Some(ra) => ra,
            None => return actions,
        };

        // Receiving anything addressed to us counts as activity and keeps
        // a power-save radio awake — the lever of the drain attack.
        let for_us = ra == self.cfg.mac;
        if for_us {
            self.touch(now_us, &mut actions);
        }

        if !for_us && !ra.is_multicast() {
            self.stats.not_for_us += 1;
            actions.push(MacAction::Discard {
                reason: DiscardReason::NotForUs,
            });
            return actions;
        }

        // ===== The Polite WiFi moment =====
        // Responses are generated *here*, before any validation, because
        // SIFS expires long before decryption could finish.
        let sifs = self.cfg.band.sifs_us();
        if for_us {
            match frame {
                Frame::Ctrl(ControlFrame::Rts {
                    duration_us, ta, ..
                }) if self.cfg.behavior.cts_to_stranger_rts => {
                    let cts_dur = airtime::cts_duration_us(rate, false);
                    let remaining = duration_us.saturating_sub(sifs as u16 + cts_dur as u16);
                    actions.push(MacAction::Respond {
                        frame: builder::cts(*ta, remaining),
                        delay_us: sifs,
                        rate: rate.response_rate(),
                    });
                    self.stats.cts_sent += 1;
                }
                _ if frame.solicits_ack() => {
                    let to = frame
                        .transmitter()
                        .expect("ack-soliciting frames carry a TA");
                    // Ablation: a hypothetical validating MAC delays the
                    // ACK by its decode time. Real hardware always uses
                    // SIFS — it has no other choice.
                    let delay_us = match self.cfg.behavior.validate_first_us {
                        Some(decode_us) => decode_us.max(sifs),
                        None => sifs,
                    };
                    actions.push(MacAction::Respond {
                        frame: builder::ack(to),
                        delay_us,
                        rate: rate.response_rate(),
                    });
                    self.stats.acks_sent += 1;
                }
                _ => {}
            }
        }

        // ===== Higher layers (too late to recall the ACK) =====
        self.higher_layers(now_us, frame, for_us, &mut actions);
        actions
    }

    /// Everything above the low MAC: dedup, association and key checks,
    /// PMF, blocklists, and the Figure-3 deauth reflex.
    fn higher_layers(
        &mut self,
        now_us: u64,
        frame: &Frame,
        for_us: bool,
        actions: &mut Vec<MacAction>,
    ) {
        match frame {
            Frame::Data(d) => {
                if !for_us {
                    return;
                }
                if self.dedup.check_and_update(d.addr2, d.seq, d.fc.retry) {
                    self.stats.duplicates += 1;
                    actions.push(MacAction::Discard {
                        reason: DiscardReason::Duplicate,
                    });
                    return;
                }
                // Block-Ack reordering: anything older than the window
                // floor is stale. The ACK already left — this is where the
                // Bl0ck paralysis bites, one layer above it.
                if let Some(&floor) = self.ba_window.get(&d.addr2) {
                    let behind = floor.wrapping_sub(d.seq.sequence) & 0x0fff;
                    if behind != 0 && behind < 2048 {
                        self.stats.ba_stale_dropped += 1;
                        actions.push(MacAction::Discard {
                            reason: DiscardReason::BlockAckWindowStale,
                        });
                        return;
                    }
                }
                let sender_known = self.associated.contains(&d.addr2);
                // The PM bit in any data frame updates the sender's
                // power-save mode at its AP.
                if sender_known && self.cfg.role == Role::AccessPoint {
                    if d.fc.power_mgmt {
                        self.ps_mode.insert(d.addr2);
                    } else {
                        self.ps_mode.remove(&d.addr2);
                        // The station is awake: flush anything buffered.
                        if let Some(buffered) = self.ps_buffer.remove(&d.addr2) {
                            for (frame, rate) in buffered {
                                actions.push(MacAction::Enqueue { frame, rate });
                            }
                        }
                    }
                }
                if !sender_known {
                    let reason = if self.cfg.behavior.use_blocklist && self.is_blocked(d.addr2) {
                        DiscardReason::Blocklisted
                    } else {
                        DiscardReason::NotAssociated
                    };
                    self.stats.discarded_after_ack += 1;
                    actions.push(MacAction::Discard { reason });
                    self.maybe_deauth(now_us, d.addr2, actions);
                    return;
                }
                if d.fc.protected || d.is_null() {
                    if d.fc.more_frag || d.seq.fragment > 0 {
                        // A fragment: reassemble before delivery. Every
                        // fragment was already ACKed above — fragmenting
                        // an MSDU hands the attacker *more* responses.
                        self.reassembler.evict_stale(now_us);
                        if let Some(payload) = self.reassembler.push(now_us, d) {
                            let mut full = d.clone();
                            full.body = polite_wifi_frame::data::DataBody::Payload(payload);
                            full.fc.more_frag = false;
                            full.seq = SequenceControl::new(d.seq.sequence, 0);
                            self.stats.delivered += 1;
                            actions.push(MacAction::Deliver(Frame::Data(full)));
                        }
                    } else {
                        self.stats.delivered += 1;
                        actions.push(MacAction::Deliver(frame.clone()));
                    }
                } else {
                    // Plaintext data on a WPA2 link fails decryption.
                    self.stats.discarded_after_ack += 1;
                    actions.push(MacAction::Discard {
                        reason: DiscardReason::DecryptFailed,
                    });
                }
            }
            Frame::Mgmt(m) => {
                match &m.body {
                    ManagementBody::Deauthentication { .. }
                    | ManagementBody::Disassociation { .. } => {
                        if !for_us {
                            return;
                        }
                        if self.cfg.behavior.pmf && !m.fc.protected {
                            // 802.11w rejects the spoofed deauth — but the
                            // ACK for it already left the antenna.
                            self.stats.discarded_after_ack += 1;
                            actions.push(MacAction::Discard {
                                reason: DiscardReason::PmfViolation,
                            });
                        } else {
                            self.associated.remove(&m.ta);
                            self.aid_of.remove(&m.ta);
                            self.authenticated.remove(&m.ta);
                            // A client kicked by its AP falls out of the
                            // joined state — the classic deauth attack.
                            match self.join_state {
                                JoinState::Joined { ap, .. }
                                | JoinState::Associating { ap }
                                | JoinState::Authenticating { ap }
                                    if ap == m.ta =>
                                {
                                    self.join_state = JoinState::Idle;
                                }
                                _ => {}
                            }
                            self.stats.delivered += 1;
                            actions.push(MacAction::Deliver(frame.clone()));
                        }
                    }
                    ManagementBody::Beacon { elements, .. } => {
                        // Broadcast. A power-save station that hears a
                        // beacon extends its wake window slightly, but a
                        // beacon is NOT unicast activity — it must not
                        // reset the doze timer, or the station would never
                        // sleep on a beaconing network.
                        if let Some(ps) = self.cfg.behavior.power_save {
                            self.beacon_window_until_us =
                                self.beacon_window_until_us.max(now_us + ps.beacon_rx_us);
                        }
                        // A dozing client checks its own AID in the TIM
                        // and polls the AP for buffered traffic.
                        if let JoinState::Joined { ap, aid } = self.join_state {
                            if ap == m.ta && aid > 0 && tim_bit_set(elements, aid) {
                                actions.push(MacAction::Enqueue {
                                    frame: Frame::Ctrl(polite_wifi_frame::ControlFrame::PsPoll {
                                        aid,
                                        bssid: ap,
                                        ta: self.cfg.mac,
                                    }),
                                    rate: BitRate::Mbps1,
                                });
                            }
                        }
                        self.stats.delivered += 1;
                        actions.push(MacAction::Deliver(frame.clone()));
                    }
                    ManagementBody::ProbeRequest { .. } => {
                        if self.cfg.role == Role::AccessPoint {
                            let resp = Frame::Mgmt(polite_wifi_frame::ManagementFrame::new(
                                m.ta,
                                self.cfg.mac,
                                self.cfg.mac,
                                self.seq.take(),
                                ManagementBody::ProbeResponse {
                                    timestamp: now_us,
                                    interval_tu: 100,
                                    capabilities: 0x0411,
                                    elements: vec![
                                        polite_wifi_frame::ie::InformationElement::ssid(
                                            &self.cfg.ssid,
                                        ),
                                    ],
                                },
                            ));
                            actions.push(MacAction::Enqueue {
                                frame: resp,
                                rate: BitRate::Mbps1,
                            });
                        }
                    }
                    ManagementBody::Authentication {
                        transaction,
                        status,
                        ..
                    } => {
                        if !for_us {
                            return;
                        }
                        match (self.cfg.role, transaction) {
                            (Role::AccessPoint, 1) => {
                                // Open-system: accept and answer.
                                self.authenticated.insert(m.ta);
                                let resp = Frame::Mgmt(polite_wifi_frame::ManagementFrame::new(
                                    m.ta,
                                    self.cfg.mac,
                                    self.cfg.mac,
                                    self.seq.take(),
                                    ManagementBody::Authentication {
                                        algorithm: 0,
                                        transaction: 2,
                                        status: 0,
                                    },
                                ));
                                actions.push(MacAction::Enqueue {
                                    frame: resp,
                                    rate: BitRate::Mbps1,
                                });
                            }
                            (Role::Client, 2) => {
                                if let JoinState::Authenticating { ap } = self.join_state {
                                    if ap == m.ta && *status == 0 {
                                        self.join_state = JoinState::Associating { ap };
                                        let req =
                                            Frame::Mgmt(polite_wifi_frame::ManagementFrame::new(
                                                ap,
                                                self.cfg.mac,
                                                ap,
                                                self.seq.take(),
                                                ManagementBody::AssociationRequest {
                                                    capabilities: 0x0431,
                                                    listen_interval: 10,
                                                    elements: vec![
                                                        polite_wifi_frame::ie::InformationElement::ssid(
                                                            &self.cfg.ssid,
                                                        ),
                                                    ],
                                                },
                                            ));
                                        actions.push(MacAction::Enqueue {
                                            frame: req,
                                            rate: BitRate::Mbps1,
                                        });
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                    ManagementBody::AssociationRequest { .. } => {
                        if !for_us || self.cfg.role != Role::AccessPoint {
                            return;
                        }
                        let (status, aid) = if self.authenticated.contains(&m.ta) {
                            let aid = *self.aid_of.entry(m.ta).or_insert_with(|| {
                                let a = self.next_aid;
                                self.next_aid += 1;
                                a
                            });
                            self.associated.insert(m.ta);
                            (0u16, aid)
                        } else {
                            // Class-2 violation: associating before
                            // authenticating.
                            (1u16, 0)
                        };
                        let resp = Frame::Mgmt(polite_wifi_frame::ManagementFrame::new(
                            m.ta,
                            self.cfg.mac,
                            self.cfg.mac,
                            self.seq.take(),
                            ManagementBody::AssociationResponse {
                                capabilities: 0x0431,
                                status,
                                aid,
                                elements: vec![],
                            },
                        ));
                        actions.push(MacAction::Enqueue {
                            frame: resp,
                            rate: BitRate::Mbps1,
                        });
                    }
                    ManagementBody::AssociationResponse { status, aid, .. } => {
                        if !for_us || self.cfg.role != Role::Client {
                            return;
                        }
                        if let JoinState::Associating { ap } = self.join_state {
                            if ap == m.ta && *status == 0 {
                                self.join_state = JoinState::Joined { ap, aid: *aid };
                                self.associated.insert(ap);
                                self.stats.delivered += 1;
                                actions.push(MacAction::Deliver(frame.clone()));
                            }
                        }
                    }
                    _ => {
                        if for_us {
                            self.stats.delivered += 1;
                            actions.push(MacAction::Deliver(frame.clone()));
                        }
                    }
                }
            }
            Frame::Ctrl(ControlFrame::PsPoll { bssid, ta, .. }) => {
                // A dozing station polling its AP for buffered traffic.
                if self.cfg.role == Role::AccessPoint
                    && *bssid == self.cfg.mac
                    && self.associated.contains(ta)
                {
                    let sifs = self.cfg.band.sifs_us();
                    let buffered = self.ps_buffer.get_mut(ta);
                    match buffered.and_then(|b| {
                        if b.is_empty() {
                            None
                        } else {
                            Some(b.remove(0))
                        }
                    }) {
                        Some((mut frame, rate)) => {
                            let more = self.buffered_for(*ta) > 0;
                            match &mut frame {
                                Frame::Data(d) => d.fc.more_data = more,
                                Frame::Mgmt(m) => m.fc.more_data = more,
                                Frame::Ctrl(_) => {}
                            }
                            // Immediate-data response to the PS-Poll.
                            actions.push(MacAction::Respond {
                                frame,
                                delay_us: sifs,
                                rate,
                            });
                        }
                        None => {
                            // Nothing buffered: just acknowledge the poll.
                            actions.push(MacAction::Respond {
                                frame: builder::ack(*ta),
                                delay_us: sifs,
                                rate: BitRate::Mbps1,
                            });
                        }
                    }
                }
            }
            Frame::Ctrl(ControlFrame::BlockAckReq { ta, start_seq, .. }) => {
                // A BAR slides the per-transmitter reordering window to its
                // starting sequence number. BARs are unprotected control
                // frames, so the TA is trusted on face value — a forged one
                // from a stranger claiming an associated peer's address
                // moves the floor just the same (Bl0ck, arXiv 2302.05899).
                if for_us && self.associated.contains(ta) {
                    self.ba_window.insert(*ta, start_seq >> 4);
                }
            }
            Frame::Ctrl(_) => {
                // CTS/ACK consumption is the transmitter side's business;
                // handled by the simulator's transmit tracking.
            }
        }
    }

    /// The Figure 3 reflex: some APs answer fake frames with
    /// deauthentication bursts (three MAC retries sharing one sequence
    /// number), rate-limited by a cooldown.
    fn maybe_deauth(&mut self, now_us: u64, offender: MacAddr, actions: &mut Vec<MacAction>) {
        if !(self.cfg.behavior.deauth_on_fake && self.cfg.role == Role::AccessPoint) {
            return;
        }
        let cooldown = self.cfg.behavior.deauth_cooldown_us;
        if let Some(&t) = self.last_deauth.get(&offender) {
            if now_us.saturating_sub(t) < cooldown {
                return;
            }
        }
        self.last_deauth.insert(offender, now_us);
        let sn = self.seq.take();
        for attempt in 0..self.cfg.behavior.deauth_burst {
            let mut f = builder::deauth(
                offender,
                self.cfg.mac,
                self.cfg.mac,
                sn,
                ReasonCode::ClassThreeFrameFromNonassociatedSta,
            );
            if attempt > 0 {
                if let Frame::Mgmt(m) = &mut f {
                    m.fc.retry = true;
                    m.seq = SequenceControl::new(sn, 0);
                }
            }
            actions.push(MacAction::Enqueue {
                frame: f,
                rate: BitRate::Mbps1,
            });
            self.stats.deauths_sent += 1;
        }
    }

    /// Builds the beacon TIM element advertising stations with buffered
    /// power-save traffic, or `None` when nothing is buffered.
    fn build_tim(&self) -> Option<polite_wifi_frame::ie::InformationElement> {
        let aids: Vec<u16> = self
            .ps_buffer
            .iter()
            .filter(|(_, frames)| !frames.is_empty())
            .filter_map(|(sta, _)| self.aid_of.get(sta).copied())
            .collect();
        if aids.is_empty() {
            return None;
        }
        let max_aid = *aids.iter().max().expect("non-empty") as usize;
        let mut bitmap = vec![0u8; max_aid / 8 + 1];
        for aid in aids {
            bitmap[aid as usize / 8] |= 1 << (aid % 8);
        }
        Some(polite_wifi_frame::ie::InformationElement::tim(
            0, 3, 0, &bitmap,
        ))
    }

    /// Registers activity: wakes the radio and restarts the doze timer.
    /// Real traffic puts the station back in the active period, so the
    /// next doze re-announces PS mode.
    fn touch(&mut self, now_us: u64, actions: &mut Vec<MacAction>) {
        self.last_activity_us = now_us;
        self.ps_announced = false;
        if self.cfg.behavior.power_save.is_some() && !self.awake {
            self.awake = true;
            actions.push(MacAction::Radio(RadioState::Idle));
        }
    }

    /// Timer-driven work: beaconing (APs) and dozing (power-save clients).
    pub fn poll(&mut self, now_us: u64) -> Vec<MacAction> {
        let mut actions = Vec::new();

        if let Some(interval) = self.cfg.beacon_interval_us {
            while now_us >= self.next_beacon_us {
                let mut f = builder::beacon(
                    self.cfg.mac,
                    &self.cfg.ssid,
                    self.cfg.channel,
                    self.seq.take(),
                    self.next_beacon_us,
                    self.cfg.behavior.pmf,
                );
                // Advertise buffered power-save traffic in the TIM.
                if let Frame::Mgmt(m) = &mut f {
                    if let ManagementBody::Beacon { elements, .. } = &mut m.body {
                        if let Some(tim) = self.build_tim() {
                            if let Some(slot) = elements
                                .iter_mut()
                                .find(|e| e.id == polite_wifi_frame::ie::element_id::TIM)
                            {
                                *slot = tim;
                            } else {
                                elements.push(tim);
                            }
                        }
                    }
                }
                actions.push(MacAction::Enqueue {
                    frame: f,
                    rate: BitRate::Mbps1,
                });
                self.stats.beacons_sent += 1;
                self.next_beacon_us += interval;
            }
        }

        if let Some(ps) = self.cfg.behavior.power_save {
            // Scheduled beacon wake (TBTT): the radio powers up briefly to
            // catch the AP's beacon even with no traffic pending. This is
            // the only window in which a *dozing* victim can hear a fake
            // frame — which is how the drain attack gets its foot in the
            // door at low injection rates.
            while now_us >= self.next_tbtt_us {
                self.beacon_window_until_us = self.next_tbtt_us + ps.beacon_rx_us;
                self.next_tbtt_us += ps.beacon_interval_us;
                if !self.awake && now_us < self.beacon_window_until_us {
                    self.awake = true;
                    actions.push(MacAction::Radio(RadioState::Idle));
                }
            }
            let idle_expired = now_us.saturating_sub(self.last_activity_us) >= ps.idle_timeout_us;
            let window_over = now_us >= self.beacon_window_until_us;
            if self.awake && idle_expired && window_over {
                // Announce the doze to the AP (PM=1 null) so it buffers
                // our downlink traffic — once per active period, not on
                // every beacon-window doze — then power down.
                if !self.ps_announced {
                    if let JoinState::Joined { ap, .. } = self.join_state {
                        let mut null = polite_wifi_frame::data::DataFrame::null(
                            ap,
                            self.cfg.mac,
                            self.seq.take(),
                        );
                        null.fc.power_mgmt = true;
                        actions.push(MacAction::Enqueue {
                            frame: Frame::Data(null),
                            rate: BitRate::Mbps1,
                        });
                    }
                    self.ps_announced = true;
                }
                self.awake = false;
                actions.push(MacAction::Radio(RadioState::Sleep));
            }
        }

        actions
    }

    /// When [`Station::poll`] next needs to run (smoltcp-style scheduling
    /// hint). `None` means no timers are pending.
    pub fn next_poll_at(&self, now_us: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        if self.cfg.beacon_interval_us.is_some() {
            next = Some(self.next_beacon_us);
        }
        if let Some(ps) = self.cfg.behavior.power_save {
            if self.awake {
                let doze_at =
                    (self.last_activity_us + ps.idle_timeout_us).max(self.beacon_window_until_us);
                next = Some(next.map_or(doze_at, |n| n.min(doze_at)));
            }
            // Always wake for the next beacon.
            let tbtt = self.next_tbtt_us;
            next = Some(next.map_or(tbtt, |n| n.min(tbtt)));
        }
        next.map(|t| t.max(now_us))
    }

    /// Allocates the next transmit sequence number.
    pub fn next_seq(&mut self) -> u16 {
        self.seq.take()
    }

    /// AP-side downlink submission with power-save buffering: frames for
    /// stations that announced power save (PM bit) are held until the
    /// station polls for them (see the PS-Poll handling); the pending
    /// traffic is advertised in the beacon TIM. Frames for awake
    /// stations transmit immediately.
    pub fn submit_downlink(&mut self, frame: Frame, rate: BitRate) -> Vec<MacAction> {
        let ra = frame.receiver().unwrap_or(MacAddr::BROADCAST);
        if self.cfg.role == Role::AccessPoint && self.ps_mode.contains(&ra) {
            self.ps_buffer.entry(ra).or_default().push((frame, rate));
            Vec::new()
        } else {
            vec![MacAction::Enqueue { frame, rate }]
        }
    }

    /// AP-side: number of frames currently buffered for a dozing station.
    pub fn buffered_for(&self, sta: MacAddr) -> usize {
        self.ps_buffer.get(&sta).map_or(0, Vec::len)
    }

    /// AP-side: whether a station has announced power-save mode.
    pub fn in_ps_mode(&self, sta: MacAddr) -> bool {
        self.ps_mode.contains(&sta)
    }

    /// Retunes the radio to another band/channel (used by the wardriving
    /// scanner's channel hopping). Timing parameters (SIFS, slots) follow
    /// the new band automatically.
    pub fn retune(&mut self, band: Band, channel: u8) {
        self.cfg.band = band;
        self.cfg.channel = channel;
    }

    /// Notifies the MAC that it initiated a (non-response) transmission:
    /// a station sending a probe or data frame is awake and stays awake
    /// to hear the reply. SIFS responses (ACK/CTS) do not go through
    /// here — firing an ACK must not reset the doze timer — and neither
    /// does the PM=1 doze announcement (it is the *last* frame before
    /// sleep by definition).
    pub fn on_transmit(&mut self, now_us: u64, frame: &Frame) -> Vec<MacAction> {
        let mut actions = Vec::new();
        if !frame.frame_control().power_mgmt {
            self.touch(now_us, &mut actions);
        }
        actions
    }
}

/// Reads the TIM of a beacon's element list and reports whether `aid`'s
/// traffic-indication bit is set (offset-0 partial virtual bitmaps, which
/// is what [`Station::build_tim`] emits).
fn tim_bit_set(elements: &[polite_wifi_frame::ie::InformationElement], aid: u16) -> bool {
    use polite_wifi_frame::ie::element_id;
    let Some(tim) = elements.iter().find(|e| e.id == element_id::TIM) else {
        return false;
    };
    if tim.data.len() < 4 {
        return false;
    }
    let bitmap = &tim.data[3..];
    let byte = aid as usize / 8;
    bitmap.get(byte).is_some_and(|b| b & (1 << (aid % 8)) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_frame::data::DataFrame;

    fn victim_mac() -> MacAddr {
        "f2:6e:0b:11:22:33".parse().unwrap()
    }

    fn fake_frame() -> Frame {
        builder::fake_null_frame(victim_mac(), MacAddr::FAKE)
    }

    fn client() -> Station {
        Station::new(StationConfig::client(victim_mac()))
    }

    fn find_ack(actions: &[MacAction]) -> Option<(&Frame, u32)> {
        actions.iter().find_map(|a| match a {
            MacAction::Respond {
                frame, delay_us, ..
            } if a.is_ack() => Some((frame, *delay_us)),
            _ => None,
        })
    }

    #[test]
    fn fake_frame_is_acked_at_sifs() {
        let mut sta = client();
        let actions = sta.on_receive(1000, &fake_frame(), true, BitRate::Mbps1);
        let (ack, delay) = find_ack(&actions).expect("polite wifi demands an ACK");
        assert_eq!(delay, 10); // 2.4 GHz SIFS
        assert_eq!(ack.receiver(), Some(MacAddr::FAKE));
        assert_eq!(sta.stats.acks_sent, 1);
        // ...and the frame was still discarded above the MAC.
        assert!(actions.iter().any(|a| matches!(
            a,
            MacAction::Discard {
                reason: DiscardReason::NotAssociated
            }
        )));
    }

    #[test]
    fn five_ghz_ack_at_16us() {
        let mut cfg = StationConfig::client(victim_mac());
        cfg.band = Band::Ghz5;
        let mut sta = Station::new(cfg);
        let actions = sta.on_receive(0, &fake_frame(), true, BitRate::Mbps6);
        assert_eq!(find_ack(&actions).unwrap().1, 16);
    }

    #[test]
    fn bad_fcs_gets_nothing() {
        let mut sta = client();
        let actions = sta.on_receive(0, &fake_frame(), false, BitRate::Mbps1);
        assert!(find_ack(&actions).is_none());
        assert_eq!(sta.stats.acks_sent, 0);
        assert_eq!(sta.stats.fcs_failures, 1);
    }

    #[test]
    fn frames_for_others_ignored() {
        let mut sta = client();
        let other: MacAddr = "02:00:00:00:00:99".parse().unwrap();
        let f = builder::fake_null_frame(other, MacAddr::FAKE);
        let actions = sta.on_receive(0, &f, true, BitRate::Mbps1);
        assert!(find_ack(&actions).is_none());
        assert_eq!(sta.stats.not_for_us, 1);
    }

    #[test]
    fn broadcast_not_acked() {
        let mut sta = client();
        let f = builder::fake_null_frame(MacAddr::BROADCAST, MacAddr::FAKE);
        let actions = sta.on_receive(0, &f, true, BitRate::Mbps1);
        assert!(find_ack(&actions).is_none());
    }

    #[test]
    fn stranger_rts_gets_cts() {
        let mut sta = client();
        let rts = builder::fake_rts(victim_mac(), MacAddr::FAKE, 300);
        let actions = sta.on_receive(0, &rts, true, BitRate::Mbps11);
        let cts = actions.iter().find(|a| a.is_cts()).expect("CTS expected");
        if let MacAction::Respond {
            frame, delay_us, ..
        } = cts
        {
            assert_eq!(*delay_us, 10);
            assert_eq!(frame.receiver(), Some(MacAddr::FAKE));
        }
        assert_eq!(sta.stats.cts_sent, 1);
    }

    #[test]
    fn ack_rate_follows_response_rules() {
        let mut sta = client();
        let actions = sta.on_receive(0, &fake_frame(), true, BitRate::Mbps54);
        let rate = actions
            .iter()
            .find_map(|a| match a {
                MacAction::Respond { rate, .. } if a.is_ack() => Some(*rate),
                _ => None,
            })
            .unwrap();
        assert_eq!(rate, BitRate::Mbps24);
    }

    #[test]
    fn blocklist_cannot_stop_the_ack() {
        // The experiment that "destroyed the last hope": block the MAC at
        // the AP, and the ACK still goes out.
        let mut cfg = StationConfig::access_point(victim_mac(), "PrivateNet");
        cfg.behavior = Behavior::deauthing_ap();
        let mut ap = Station::new(cfg);
        ap.block_mac(MacAddr::FAKE);
        let actions = ap.on_receive(100_000, &fake_frame(), true, BitRate::Mbps1);
        assert!(find_ack(&actions).is_some(), "AP must still ACK");
        assert!(actions.iter().any(|a| matches!(
            a,
            MacAction::Discard {
                reason: DiscardReason::Blocklisted
            }
        )));
    }

    #[test]
    fn deauthing_ap_bursts_but_still_acks() {
        let mut cfg = StationConfig::access_point(victim_mac(), "PrivateNet");
        cfg.behavior = Behavior::deauthing_ap();
        let mut ap = Station::new(cfg);
        let actions = ap.on_receive(0, &fake_frame(), true, BitRate::Mbps1);
        assert!(find_ack(&actions).is_some());
        let deauths: Vec<_> = actions
            .iter()
            .filter(|a| {
                matches!(a, MacAction::Enqueue { frame: Frame::Mgmt(m), .. }
                    if matches!(m.body, ManagementBody::Deauthentication { .. }))
            })
            .collect();
        assert_eq!(deauths.len(), 3, "Figure 3 shows a burst of 3");
        assert_eq!(ap.stats.deauths_sent, 3);
        // Burst shares one sequence number; retries flagged.
        let sns: Vec<u16> = actions
            .iter()
            .filter_map(|a| match a {
                MacAction::Enqueue {
                    frame: Frame::Mgmt(m),
                    ..
                } if matches!(m.body, ManagementBody::Deauthentication { .. }) => {
                    Some(m.seq.sequence)
                }
                _ => None,
            })
            .collect();
        assert!(sns.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn deauth_cooldown_limits_storms() {
        let mut cfg = StationConfig::access_point(victim_mac(), "X");
        cfg.behavior = Behavior::deauthing_ap();
        let mut ap = Station::new(cfg);
        let a1 = ap.on_receive(0, &fake_frame(), true, BitRate::Mbps1);
        let a2 = ap.on_receive(1_000, &fake_frame(), true, BitRate::Mbps1);
        let a3 = ap.on_receive(60_000, &fake_frame(), true, BitRate::Mbps1);
        let count_deauth = |acts: &[MacAction]| {
            acts.iter()
                .filter(|a| {
                    matches!(a, MacAction::Enqueue { frame: Frame::Mgmt(m), .. }
                    if matches!(m.body, ManagementBody::Deauthentication { .. }))
                })
                .count()
        };
        assert_eq!(count_deauth(&a1), 3);
        assert_eq!(count_deauth(&a2), 0, "inside cooldown");
        assert_eq!(count_deauth(&a3), 3, "cooldown expired");
        // Every fake got an ACK regardless.
        assert_eq!(ap.stats.acks_sent, 3);
    }

    #[test]
    fn pmf_rejects_spoofed_deauth_but_still_acks_it() {
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::pmf_client();
        let mut sta = Station::new(cfg);
        let spoofed = builder::deauth(
            victim_mac(),
            MacAddr::FAKE,
            MacAddr::FAKE,
            7,
            ReasonCode::Unspecified,
        );
        let actions = sta.on_receive(0, &spoofed, true, BitRate::Mbps1);
        assert!(find_ack(&actions).is_some(), "management frames are ACKed");
        assert!(actions.iter().any(|a| matches!(
            a,
            MacAction::Discard {
                reason: DiscardReason::PmfViolation
            }
        )));
    }

    #[test]
    fn pmf_client_still_answers_rts() {
        // Footnote 2: control frames are unprotected even under 802.11w.
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::pmf_client();
        let mut sta = Station::new(cfg);
        let rts = builder::fake_rts(victim_mac(), MacAddr::FAKE, 200);
        let actions = sta.on_receive(0, &rts, true, BitRate::Mbps1);
        assert!(actions.iter().any(|a| a.is_cts()));
    }

    #[test]
    fn duplicate_fake_frames_each_get_an_ack() {
        let mut sta = client();
        let mut f = DataFrame::null(victim_mac(), MacAddr::FAKE, 0);
        let a1 = sta.on_receive(0, &Frame::Data(f.clone()), true, BitRate::Mbps1);
        f.fc.retry = true;
        let a2 = sta.on_receive(1_000, &Frame::Data(f), true, BitRate::Mbps1);
        assert!(find_ack(&a1).is_some());
        assert!(find_ack(&a2).is_some(), "duplicates are ACKed too");
        assert!(a2.iter().any(|a| matches!(
            a,
            MacAction::Discard {
                reason: DiscardReason::Duplicate
            }
        )));
        assert_eq!(sta.stats.acks_sent, 2);
        assert_eq!(sta.stats.duplicates, 1);
    }

    #[test]
    fn associated_null_frames_delivered() {
        let mut sta = client();
        let peer: MacAddr = "02:00:00:00:00:55".parse().unwrap();
        sta.associate(peer);
        let f = Frame::Data(DataFrame::null(victim_mac(), peer, 1));
        let actions = sta.on_receive(0, &f, true, BitRate::Mbps1);
        assert!(actions.iter().any(|a| matches!(a, MacAction::Deliver(_))));
        assert_eq!(sta.stats.delivered, 1);
    }

    #[test]
    fn plaintext_payload_from_associated_fails_decrypt_yet_acks() {
        let mut sta = client();
        let peer: MacAddr = "02:00:00:00:00:55".parse().unwrap();
        sta.associate(peer);
        let f = Frame::Data(DataFrame::new(victim_mac(), peer, peer, 2, vec![1, 2, 3]));
        let actions = sta.on_receive(0, &f, true, BitRate::Mbps1);
        assert!(find_ack(&actions).is_some());
        assert!(actions.iter().any(|a| matches!(
            a,
            MacAction::Discard {
                reason: DiscardReason::DecryptFailed
            }
        )));
    }

    #[test]
    fn power_save_dozes_after_idle_timeout() {
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::iot_power_save();
        let mut sta = Station::new(cfg);
        assert!(sta.is_awake());
        // No traffic for 100 ms → doze.
        let actions = sta.poll(100_000);
        assert!(actions
            .iter()
            .any(|a| matches!(a, MacAction::Radio(RadioState::Sleep))));
        assert!(!sta.is_awake());
    }

    #[test]
    fn fake_frames_prevent_dozing() {
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::iot_power_save();
        let mut sta = Station::new(cfg);
        // Fake frame every 50 ms (20 pps) — under the 100 ms timeout.
        let mut t = 0u64;
        for _ in 0..20 {
            t += 50_000;
            sta.on_receive(t, &fake_frame(), true, BitRate::Mbps1);
            let actions = sta.poll(t + 1);
            assert!(
                !actions
                    .iter()
                    .any(|a| matches!(a, MacAction::Radio(RadioState::Sleep))),
                "station dozed despite 20 pps of fakes"
            );
        }
        assert!(sta.is_awake());
    }

    #[test]
    fn slow_fakes_allow_sleep_between() {
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::iot_power_save();
        let mut sta = Station::new(cfg);
        // 2 pps: 500 ms gaps — dozes 100 ms after each frame, wakes on next.
        sta.on_receive(500_000, &fake_frame(), true, BitRate::Mbps1);
        let a = sta.poll(600_000);
        assert!(a
            .iter()
            .any(|x| matches!(x, MacAction::Radio(RadioState::Sleep))));
        let a = sta.on_receive(1_000_000, &fake_frame(), true, BitRate::Mbps1);
        assert!(a
            .iter()
            .any(|x| matches!(x, MacAction::Radio(RadioState::Idle))));
        assert!(sta.is_awake());
    }

    #[test]
    fn ap_beacons_on_schedule() {
        let mut ap = Station::new(StationConfig::access_point(victim_mac(), "Net"));
        let a = ap.poll(0);
        assert_eq!(a.len(), 1, "first beacon at t=0");
        let a = ap.poll(102_400 * 3);
        assert_eq!(a.len(), 3, "catch-up beacons");
        assert_eq!(ap.stats.beacons_sent, 4);
    }

    #[test]
    fn next_poll_at_hints() {
        let ap = Station::new(StationConfig::access_point(victim_mac(), "Net"));
        assert_eq!(ap.next_poll_at(0), Some(0));

        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::iot_power_save();
        let sta = Station::new(cfg);
        assert_eq!(sta.next_poll_at(0), Some(100_000));

        let plain = Station::new(StationConfig::client(victim_mac()));
        assert_eq!(plain.next_poll_at(0), None);
    }

    #[test]
    fn probe_request_answered_by_ap() {
        let mut ap = Station::new(StationConfig::access_point(victim_mac(), "Net"));
        let probe = builder::probe_request(MacAddr::FAKE, 1);
        let actions = ap.on_receive(0, &probe, true, BitRate::Mbps1);
        assert!(actions.iter().any(|a| matches!(
            a,
            MacAction::Enqueue {
                frame: Frame::Mgmt(m),
                ..
            } if matches!(m.body, ManagementBody::ProbeResponse { .. })
        )));
    }

    fn step(
        from: &mut Station,
        to: &mut Station,
        actions: Vec<MacAction>,
        now: u64,
    ) -> Vec<MacAction> {
        // Carries Enqueue frames from one station to the other, ideal air.
        let mut out = Vec::new();
        for a in actions {
            if let MacAction::Enqueue { frame, rate } = a {
                let _ = from; // transmitter side bookkeeping not needed here
                out.extend(to.on_receive(now, &frame, true, rate));
            }
        }
        out
    }

    #[test]
    fn full_join_handshake() {
        let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
        let mut ap = Station::new(StationConfig::access_point(ap_mac, "PrivateNet"));
        let mut client = Station::new(StationConfig::client(victim_mac()));

        assert_eq!(client.join_state(), JoinState::Idle);
        let auth_req = client.start_join(ap_mac);
        assert_eq!(
            client.join_state(),
            JoinState::Authenticating { ap: ap_mac }
        );

        let auth_resp = step(&mut client, &mut ap, auth_req, 1_000);
        let assoc_req = step(&mut ap, &mut client, auth_resp, 2_000);
        assert_eq!(client.join_state(), JoinState::Associating { ap: ap_mac });

        let assoc_resp = step(&mut client, &mut ap, assoc_req, 3_000);
        let _ = step(&mut ap, &mut client, assoc_resp, 4_000);

        assert_eq!(
            client.join_state(),
            JoinState::Joined { ap: ap_mac, aid: 1 }
        );
        assert!(client.is_associated_with(ap_mac));
        assert!(ap.is_associated_with(victim_mac()));
        assert_eq!(ap.aid_of(victim_mac()), Some(1));
    }

    #[test]
    fn association_without_authentication_refused() {
        let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
        let mut ap = Station::new(StationConfig::access_point(ap_mac, "Net"));
        let req = Frame::Mgmt(polite_wifi_frame::ManagementFrame::new(
            ap_mac,
            victim_mac(),
            ap_mac,
            1,
            ManagementBody::AssociationRequest {
                capabilities: 0,
                listen_interval: 10,
                elements: vec![],
            },
        ));
        let actions = ap.on_receive(0, &req, true, BitRate::Mbps1);
        // The frame is ACKed (Polite WiFi!) but the association fails.
        assert!(find_ack(&actions).is_some());
        let status = actions.iter().find_map(|a| match a {
            MacAction::Enqueue {
                frame: Frame::Mgmt(m),
                ..
            } => match m.body {
                ManagementBody::AssociationResponse { status, .. } => Some(status),
                _ => None,
            },
            _ => None,
        });
        assert_eq!(status, Some(1));
        assert!(!ap.is_associated_with(victim_mac()));
    }

    #[test]
    fn spoofed_deauth_kicks_non_pmf_client() {
        let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
        let mut client = Station::new(StationConfig::client(victim_mac()));
        client.associate(ap_mac);
        assert!(matches!(client.join_state(), JoinState::Joined { .. }));
        // Attacker spoofs a deauth "from" the AP.
        let spoofed = builder::deauth(victim_mac(), ap_mac, ap_mac, 99, ReasonCode::StaLeaving);
        client.on_receive(0, &spoofed, true, BitRate::Mbps1);
        assert_eq!(
            client.join_state(),
            JoinState::Idle,
            "classic deauth attack"
        );
        assert!(!client.is_associated_with(ap_mac));
    }

    #[test]
    fn pmf_client_survives_spoofed_deauth() {
        let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::pmf_client();
        let mut client = Station::new(cfg);
        client.associate(ap_mac);
        let spoofed = builder::deauth(victim_mac(), ap_mac, ap_mac, 99, ReasonCode::StaLeaving);
        client.on_receive(0, &spoofed, true, BitRate::Mbps1);
        assert!(
            matches!(client.join_state(), JoinState::Joined { .. }),
            "802.11w must block the spoof"
        );
        assert!(client.is_associated_with(ap_mac));
    }

    /// Joins a client to an AP via the real handshake (station level).
    fn join(ap: &mut Station, client: &mut Station) {
        let a = client.start_join(ap.mac());
        let b = step(client, ap, a, 1_000);
        let c = step(ap, client, b, 2_000);
        let d = step(client, ap, c, 3_000);
        let _ = step(ap, client, d, 4_000);
        assert!(matches!(client.join_state(), JoinState::Joined { .. }));
    }

    #[test]
    fn downlink_buffered_while_dozing_and_released_by_ps_poll() {
        let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
        let mut ap = Station::new(StationConfig::access_point(ap_mac, "Net"));
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::iot_power_save();
        let mut client = Station::new(cfg);
        join(&mut ap, &mut client);

        // Client dozes: announces PM=1 on its way down.
        let doze_actions = client.poll(200_000);
        let pm_null = doze_actions.iter().find_map(|a| match a {
            MacAction::Enqueue { frame, .. } if frame.frame_control().power_mgmt => {
                Some(frame.clone())
            }
            _ => None,
        });
        let pm_null = pm_null.expect("doze announcement");
        assert!(!client.is_awake());
        let _ = ap.on_receive(201_000, &pm_null, true, BitRate::Mbps1);
        assert!(ap.in_ps_mode(victim_mac()));

        // Downlink traffic for the dozing client is buffered, not sent.
        let data = Frame::Data(DataFrame::new(
            victim_mac(),
            ap_mac,
            ap_mac,
            7,
            vec![1, 2, 3],
        ));
        let actions = ap.submit_downlink(data.clone(), BitRate::Mbps11);
        assert!(actions.is_empty(), "must buffer, not transmit");
        assert_eq!(ap.buffered_for(victim_mac()), 1);

        // The next beacon advertises the buffered traffic in its TIM...
        let beacon_actions = ap.poll(300_000);
        let beacon = beacon_actions
            .iter()
            .find_map(|a| match a {
                MacAction::Enqueue {
                    frame: Frame::Mgmt(m),
                    ..
                } if matches!(m.body, ManagementBody::Beacon { .. }) => {
                    Some(Frame::Mgmt(m.clone()))
                }
                _ => None,
            })
            .expect("beacon");

        // ...the client wakes for the beacon, reads its AID and polls...
        client.poll(307_200); // TBTT wake
        assert!(client.is_awake());
        let client_actions = client.on_receive(308_000, &beacon, true, BitRate::Mbps1);
        let ps_poll = client_actions
            .iter()
            .find_map(|a| match a {
                MacAction::Enqueue {
                    frame: f @ Frame::Ctrl(polite_wifi_frame::ControlFrame::PsPoll { .. }),
                    ..
                } => Some(f.clone()),
                _ => None,
            })
            .expect("PS-Poll after TIM hit");

        // ...and the AP answers the poll with the buffered frame at SIFS.
        let ap_actions = ap.on_receive(309_000, &ps_poll, true, BitRate::Mbps1);
        let released = ap_actions
            .iter()
            .find_map(|a| match a {
                MacAction::Respond { frame, .. } => Some(frame.clone()),
                _ => None,
            })
            .expect("buffered frame released");
        assert_eq!(released.receiver(), Some(victim_mac()));
        assert!(!released.frame_control().more_data, "only one was queued");
        assert_eq!(ap.buffered_for(victim_mac()), 0);
    }

    #[test]
    fn ps_poll_with_empty_buffer_gets_plain_ack() {
        let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
        let mut ap = Station::new(StationConfig::access_point(ap_mac, "Net"));
        let mut client = Station::new(StationConfig::client(victim_mac()));
        join(&mut ap, &mut client);
        let poll = Frame::Ctrl(polite_wifi_frame::ControlFrame::PsPoll {
            aid: 1,
            bssid: ap_mac,
            ta: victim_mac(),
        });
        let actions = ap.on_receive(0, &poll, true, BitRate::Mbps1);
        assert!(actions.iter().any(|a| a.is_ack()));
    }

    #[test]
    fn more_data_flag_chains_multiple_buffered_frames() {
        let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
        let mut ap = Station::new(StationConfig::access_point(ap_mac, "Net"));
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::iot_power_save();
        let mut client = Station::new(cfg);
        join(&mut ap, &mut client);
        // Doze + inform AP.
        let doze = client.poll(200_000);
        let pm_null = doze
            .iter()
            .find_map(|a| match a {
                MacAction::Enqueue { frame, .. } if frame.frame_control().power_mgmt => {
                    Some(frame.clone())
                }
                _ => None,
            })
            .unwrap();
        ap.on_receive(201_000, &pm_null, true, BitRate::Mbps1);
        for seq in 0..3u16 {
            let f = Frame::Data(DataFrame::new(victim_mac(), ap_mac, ap_mac, seq, vec![0]));
            assert!(ap.submit_downlink(f, BitRate::Mbps11).is_empty());
        }
        assert_eq!(ap.buffered_for(victim_mac()), 3);
        let poll = Frame::Ctrl(polite_wifi_frame::ControlFrame::PsPoll {
            aid: 1,
            bssid: ap_mac,
            ta: victim_mac(),
        });
        let mut more_flags = Vec::new();
        for _ in 0..3 {
            let actions = ap.on_receive(0, &poll, true, BitRate::Mbps1);
            let released = actions
                .iter()
                .find_map(|a| match a {
                    MacAction::Respond { frame, .. } if !a.is_ack() => Some(frame.clone()),
                    _ => None,
                })
                .unwrap();
            more_flags.push(released.frame_control().more_data);
        }
        assert_eq!(more_flags, vec![true, true, false]);
        assert_eq!(ap.buffered_for(victim_mac()), 0);
    }

    #[test]
    fn waking_with_pm0_data_flushes_buffer() {
        let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
        let mut ap = Station::new(StationConfig::access_point(ap_mac, "Net"));
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::iot_power_save();
        let mut client = Station::new(cfg);
        join(&mut ap, &mut client);
        let doze = client.poll(200_000);
        let pm_null = doze
            .iter()
            .find_map(|a| match a {
                MacAction::Enqueue { frame, .. } if frame.frame_control().power_mgmt => {
                    Some(frame.clone())
                }
                _ => None,
            })
            .unwrap();
        ap.on_receive(201_000, &pm_null, true, BitRate::Mbps1);
        let f = Frame::Data(DataFrame::new(victim_mac(), ap_mac, ap_mac, 9, vec![0]));
        ap.submit_downlink(f, BitRate::Mbps11);
        assert_eq!(ap.buffered_for(victim_mac()), 1);

        // Client wakes and sends a PM=0 null: the AP flushes.
        let wake_null = Frame::Data(DataFrame::null(ap_mac, victim_mac(), 10));
        let actions = ap.on_receive(400_000, &wake_null, true, BitRate::Mbps1);
        assert!(actions
            .iter()
            .any(|a| matches!(a, MacAction::Enqueue { .. })));
        assert_eq!(ap.buffered_for(victim_mac()), 0);
        assert!(!ap.in_ps_mode(victim_mac()));
    }

    #[test]
    fn tim_roundtrip_via_beacon() {
        let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
        let mut ap = Station::new(StationConfig::access_point(ap_mac, "Net"));
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::iot_power_save();
        let mut client = Station::new(cfg);
        join(&mut ap, &mut client);
        // Without buffered traffic, the TIM bit is clear.
        let b0 = ap.poll(0);
        if let Some(MacAction::Enqueue {
            frame: Frame::Mgmt(m),
            ..
        }) = b0.first()
        {
            if let ManagementBody::Beacon { elements, .. } = &m.body {
                assert!(!tim_bit_set(elements, 1));
            }
        }
        // Buffer something, beacon again: bit set for AID 1.
        ap.on_receive(
            1_000,
            &{
                let mut n = DataFrame::null(ap_mac, victim_mac(), 1);
                n.fc.power_mgmt = true;
                Frame::Data(n)
            },
            true,
            BitRate::Mbps1,
        );
        ap.submit_downlink(
            Frame::Data(DataFrame::new(victim_mac(), ap_mac, ap_mac, 2, vec![9])),
            BitRate::Mbps11,
        );
        let b1 = ap.poll(102_400);
        let found = b1.iter().any(|a| match a {
            MacAction::Enqueue {
                frame: Frame::Mgmt(m),
                ..
            } => match &m.body {
                ManagementBody::Beacon { elements, .. } => tim_bit_set(elements, 1),
                _ => false,
            },
            _ => false,
        });
        assert!(found, "TIM must advertise AID 1");
    }

    #[test]
    fn every_behavior_profile_acks_fakes() {
        // Table 1 / Table 2 in miniature: no profile escapes Polite WiFi.
        for behavior in [
            Behavior::client(),
            Behavior::quiet_ap(),
            Behavior::deauthing_ap(),
            Behavior::iot_power_save(),
            Behavior::pmf_client(),
        ] {
            let mut cfg = StationConfig::client(victim_mac());
            cfg.behavior = behavior;
            let mut sta = Station::new(cfg);
            let actions = sta.on_receive(0, &fake_frame(), true, BitRate::Mbps1);
            assert!(find_ack(&actions).is_some(), "{behavior:?} failed to ACK");
        }
    }

    #[test]
    fn forged_bar_slides_ba_window_and_drops_stale_data() {
        let peer: MacAddr = "02:00:00:00:00:42".parse().unwrap();
        let mut sta = client();
        sta.associate(peer);
        // Legitimate traffic before the attack is delivered.
        let f = builder::protected_qos_data(victim_mac(), peer, peer, 1, 32);
        let actions = sta.on_receive(0, &f, true, BitRate::Mbps1);
        assert!(actions.iter().any(|a| matches!(a, MacAction::Deliver(_))));
        // The Bl0ck primitive: a BAR claiming the peer's TA jumps the
        // window floor to sequence 100.
        let bar = Frame::Ctrl(ControlFrame::BlockAckReq {
            duration_us: 0,
            ra: victim_mac(),
            ta: peer,
            control: 0x0004,
            start_seq: 100 << 4,
        });
        sta.on_receive(1_000, &bar, true, BitRate::Mbps1);
        // Everything the peer sends below the floor is now stale.
        let f = builder::protected_qos_data(victim_mac(), peer, peer, 2, 32);
        let actions = sta.on_receive(2_000, &f, true, BitRate::Mbps1);
        assert!(actions.iter().any(|a| matches!(
            a,
            MacAction::Discard {
                reason: DiscardReason::BlockAckWindowStale
            }
        )));
        assert!(!actions.iter().any(|a| matches!(a, MacAction::Deliver(_))));
        assert_eq!(sta.stats.ba_stale_dropped, 1);
        // Frames at or past the floor flow again.
        let f = builder::protected_qos_data(victim_mac(), peer, peer, 100, 32);
        let actions = sta.on_receive(3_000, &f, true, BitRate::Mbps1);
        assert!(actions.iter().any(|a| matches!(a, MacAction::Deliver(_))));
        // A stranger's BAR (TA not associated) must not move the floor.
        let rogue_bar = Frame::Ctrl(ControlFrame::BlockAckReq {
            duration_us: 0,
            ra: victim_mac(),
            ta: MacAddr::FAKE,
            control: 0x0004,
            start_seq: 4000 << 4,
        });
        sta.on_receive(4_000, &rogue_bar, true, BitRate::Mbps1);
        let f = builder::protected_qos_data(victim_mac(), peer, peer, 101, 32);
        let actions = sta.on_receive(5_000, &f, true, BitRate::Mbps1);
        assert!(actions.iter().any(|a| matches!(a, MacAction::Deliver(_))));
    }
}
