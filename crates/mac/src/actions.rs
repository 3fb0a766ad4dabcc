//! Outputs of the MAC state machine.

use polite_wifi_frame::Frame;
use polite_wifi_phy::rate::BitRate;

/// Why the MAC's higher layers discarded a frame. In every one of these
/// cases except `FcsFailed` and `NotForUs`, the *ACK has already been
/// scheduled* — discarding is invisible to the transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscardReason {
    /// FCS check failed; the PHY never surfaced the frame (and no ACK).
    FcsFailed,
    /// Receiver address did not match (and no ACK).
    NotForUs,
    /// Duplicate (retry with a sequence number already seen).
    Duplicate,
    /// Data frame from a station that is not associated — the "fake
    /// frame" case. ACKed anyway.
    NotAssociated,
    /// Sender is on the administrator's MAC blocklist. The paper's
    /// crucial observation: the AP *still ACKs* (the ACK is generated
    /// below the layer the blocklist lives at).
    Blocklisted,
    /// Unprotected management frame rejected by 802.11w PMF. ACKed anyway.
    PmfViolation,
    /// Frame failed decryption (wrong/absent key). ACKed anyway.
    DecryptFailed,
    /// Data frame older than the receiver's Block-Ack window floor. A
    /// forged BlockAckReq (Bl0ck, arXiv 2302.05899) slides the floor
    /// forward and legitimate traffic is dropped as stale. ACKed anyway.
    BlockAckWindowStale,
}

impl DiscardReason {
    /// Stable observability counter name, `mac.discard.<snake_case
    /// label>`.
    pub fn metric_name(&self) -> &'static str {
        match self {
            DiscardReason::FcsFailed => "mac.discard.fcs_failed",
            DiscardReason::NotForUs => "mac.discard.not_for_us",
            DiscardReason::Duplicate => "mac.discard.duplicate",
            DiscardReason::NotAssociated => "mac.discard.not_associated",
            DiscardReason::Blocklisted => "mac.discard.blocklisted",
            DiscardReason::PmfViolation => "mac.discard.pmf_violation",
            DiscardReason::DecryptFailed => "mac.discard.decrypt_failed",
            DiscardReason::BlockAckWindowStale => "mac.discard.ba_window_stale",
        }
    }
}

/// Radio power states, consumed by the energy model (`polite-wifi-power`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioState {
    /// Radio powered down (power-save doze).
    Sleep,
    /// Radio on, listening.
    Idle,
    /// Actively receiving a frame.
    Rx,
    /// Actively transmitting a frame.
    Tx,
}

/// An action the station wants the surrounding radio/simulator to take.
#[derive(Debug, Clone, PartialEq)]
pub enum MacAction {
    /// Transmit a response frame exactly `delay_us` after the eliciting
    /// frame ended (SIFS for ACKs/CTS). Responses bypass CSMA.
    Respond {
        /// The response frame (ACK, CTS, ...).
        frame: Frame,
        /// Delay after frame end, in microseconds.
        delay_us: u32,
        /// Rate to transmit at (a legacy basic rate).
        rate: BitRate,
    },
    /// Queue a frame for normal contended transmission (through CSMA).
    Enqueue {
        /// The frame to send.
        frame: Frame,
        /// Rate to transmit at.
        rate: BitRate,
    },
    /// Deliver a valid received frame to the higher layer.
    Deliver(Frame),
    /// The higher layers discarded the frame for `reason`.
    Discard {
        /// Why it was discarded.
        reason: DiscardReason,
    },
    /// The radio changed power state (timestamped by the caller).
    Radio(RadioState),
}

impl MacAction {
    /// True for `Respond` actions carrying an ACK.
    pub fn is_ack(&self) -> bool {
        matches!(
            self,
            MacAction::Respond {
                frame: Frame::Ctrl(polite_wifi_frame::ControlFrame::Ack { .. }),
                ..
            }
        )
    }

    /// True for `Respond` actions carrying a CTS.
    pub fn is_cts(&self) -> bool {
        matches!(
            self,
            MacAction::Respond {
                frame: Frame::Ctrl(polite_wifi_frame::ControlFrame::Cts { .. }),
                ..
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_frame::{builder, MacAddr};

    #[test]
    fn action_classifiers() {
        let ack = MacAction::Respond {
            frame: builder::ack(MacAddr::FAKE),
            delay_us: 10,
            rate: BitRate::Mbps1,
        };
        assert!(ack.is_ack());
        assert!(!ack.is_cts());

        let cts = MacAction::Respond {
            frame: builder::cts(MacAddr::FAKE, 100),
            delay_us: 10,
            rate: BitRate::Mbps1,
        };
        assert!(cts.is_cts());
        assert!(!cts.is_ack());

        let deliver = MacAction::Deliver(builder::ack(MacAddr::FAKE));
        assert!(!deliver.is_ack());
    }

    #[test]
    fn discard_metric_names_are_pinned_and_registered() {
        use DiscardReason::*;
        let names = [
            FcsFailed,
            NotForUs,
            Duplicate,
            NotAssociated,
            Blocklisted,
            PmfViolation,
            DecryptFailed,
            BlockAckWindowStale,
        ]
        .map(|reason| reason.metric_name());
        assert_eq!(
            names,
            [
                "mac.discard.fcs_failed",
                "mac.discard.not_for_us",
                "mac.discard.duplicate",
                "mac.discard.not_associated",
                "mac.discard.blocklisted",
                "mac.discard.pmf_violation",
                "mac.discard.decrypt_failed",
                "mac.discard.ba_window_stale",
            ]
        );
        assert!(names
            .iter()
            .all(|n| polite_wifi_obs::names::is_registered(n)));
    }
}
