//! The unified [`Frame`] type: parse and encode any supported 802.11 frame.

use crate::addr::MacAddr;
use crate::control::ControlFrame;
use crate::control::{FrameControl, FrameType};
use crate::data::DataFrame;
use crate::error::FrameError;
use crate::fcs;
use crate::mgmt::{ManagementBody, ManagementFrame};

/// Any 802.11 frame this codec understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Management frame.
    Mgmt(ManagementFrame),
    /// Control frame.
    Ctrl(ControlFrame),
    /// Data frame.
    Data(DataFrame),
}

impl Frame {
    /// Parses a frame from raw bytes.
    ///
    /// With `with_fcs`, the last four bytes are treated as the FCS and
    /// verified first — mirroring the on-device order of operations that
    /// *causes* Polite WiFi: FCS first, content never.
    pub fn parse(buf: &[u8], with_fcs: bool) -> Result<Frame, FrameError> {
        let body = if with_fcs {
            let check = fcs::check_fcs(buf).ok_or(FrameError::Truncated {
                context: "FCS",
                needed: 4,
                available: buf.len(),
            })?;
            if !check.is_valid() {
                return Err(FrameError::BadFcs {
                    expected: check.carried,
                    computed: check.computed,
                });
            }
            check.body
        } else {
            buf
        };
        let fc = FrameControl::parse(body)?;
        match fc.ftype {
            FrameType::Management => Ok(Frame::Mgmt(ManagementFrame::parse(fc, body)?)),
            FrameType::Control => Ok(Frame::Ctrl(ControlFrame::parse(fc, body)?)),
            FrameType::Data => Ok(Frame::Data(DataFrame::parse(fc, body)?)),
            FrameType::Extension => Err(FrameError::UnsupportedSubtype {
                ftype: fc.ftype.bits(),
                subtype: fc.subtype,
            }),
        }
    }

    /// Encodes the frame, appending the FCS when `with_fcs` is set.
    pub fn encode(&self, with_fcs: bool) -> Vec<u8> {
        let mut bytes = match self {
            Frame::Mgmt(f) => f.encode(),
            Frame::Ctrl(f) => f.encode(),
            Frame::Data(f) => f.encode(),
        };
        if with_fcs {
            fcs::append_fcs(&mut bytes);
        }
        bytes
    }

    /// The Frame Control field.
    pub fn frame_control(&self) -> FrameControl {
        match self {
            Frame::Mgmt(f) => f.fc,
            Frame::Ctrl(f) => FrameControl::new(FrameType::Control, f.subtype()),
            Frame::Data(f) => f.fc,
        }
    }

    /// The receiver address (address 1) — the *only* thing a Polite-WiFi
    /// victim checks before acknowledging. `None` never occurs for the
    /// frame kinds modelled here but the Option keeps call sites honest.
    pub fn receiver(&self) -> Option<MacAddr> {
        match self {
            Frame::Mgmt(f) => Some(f.ra),
            Frame::Ctrl(f) => Some(f.ra()),
            Frame::Data(f) => Some(f.addr1),
        }
    }

    /// The transmitter address, when the frame carries one (ACK and CTS do
    /// not — which is why an ACK sniffer must correlate by time, as the
    /// paper's verifier thread does).
    pub fn transmitter(&self) -> Option<MacAddr> {
        match self {
            Frame::Mgmt(f) => Some(f.ta),
            Frame::Ctrl(f) => f.ta(),
            Frame::Data(f) => Some(f.addr2),
        }
    }

    /// Length on the air in bytes, including the 4-byte FCS.
    pub fn air_len(&self) -> usize {
        self.encode(false).len() + 4
    }

    /// True when the frame solicits an immediate ACK from its receiver:
    /// a unicast management or data frame. Control frames are answered by
    /// their own response rules (RTS→CTS), not by ACKs.
    pub fn solicits_ack(&self) -> bool {
        match self {
            Frame::Mgmt(f) => f.ra.is_unicast(),
            Frame::Data(f) => f.addr1.is_unicast(),
            Frame::Ctrl(_) => false,
        }
    }

    /// True when the frame solicits a CTS (i.e. it is an RTS).
    pub fn solicits_cts(&self) -> bool {
        matches!(self, Frame::Ctrl(ControlFrame::Rts { .. }))
    }

    /// A Wireshark-style "Info" column for this frame, used by the trace
    /// printers that regenerate Figures 2 and 3.
    pub fn info_column(&self) -> String {
        match self {
            Frame::Mgmt(f) => match &f.body {
                ManagementBody::Beacon { .. } => format!("Beacon frame, SN={}", f.seq.sequence),
                ManagementBody::ProbeRequest { .. } => {
                    format!("Probe Request, SN={}", f.seq.sequence)
                }
                ManagementBody::ProbeResponse { .. } => {
                    format!("Probe Response, SN={}", f.seq.sequence)
                }
                ManagementBody::Authentication { transaction, .. } => {
                    format!("Authentication, SEQ={transaction}")
                }
                ManagementBody::AssociationRequest { .. } => "Association Request".into(),
                ManagementBody::AssociationResponse { status, .. } => {
                    format!("Association Response, Status={status}")
                }
                ManagementBody::Deauthentication { .. } => {
                    format!("Deauthentication, SN={}", f.seq.sequence)
                }
                ManagementBody::Disassociation { .. } => {
                    format!("Disassociation, SN={}", f.seq.sequence)
                }
                ManagementBody::Action { .. } => "Action".into(),
            },
            Frame::Ctrl(c) => match c {
                ControlFrame::Rts { .. } => "Request-to-send, Flags=........".into(),
                ControlFrame::Cts { .. } => "Clear-to-send, Flags=........".into(),
                ControlFrame::Ack { .. } => "Acknowledgement, Flags=........".into(),
                ControlFrame::PsPoll { .. } => "PS-Poll".into(),
                ControlFrame::BlockAckReq { .. } => "802.11 Block Ack Req".into(),
                ControlFrame::BlockAck { .. } => "802.11 Block Ack".into(),
                ControlFrame::CfEnd { .. } => "CF-End".into(),
            },
            Frame::Data(d) => {
                if d.is_null() {
                    format!("Null function (No data), SN={}", d.seq.sequence)
                } else if d.fc.protected {
                    format!("QoS Data (protected), SN={}", d.seq.sequence)
                } else {
                    format!("Data, SN={}", d.seq.sequence)
                }
            }
        }
    }
}

impl From<ManagementFrame> for Frame {
    fn from(f: ManagementFrame) -> Frame {
        Frame::Mgmt(f)
    }
}

impl From<ControlFrame> for Frame {
    fn from(f: ControlFrame) -> Frame {
        Frame::Ctrl(f)
    }
}

impl From<DataFrame> for Frame {
    fn from(f: DataFrame) -> Frame {
        Frame::Data(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reason::ReasonCode;

    fn addr(last: u8) -> MacAddr {
        MacAddr::new([0x02, 0, 0, 0, 0, last])
    }

    #[test]
    fn fake_null_frame_full_round_trip_with_fcs() {
        let f: Frame = DataFrame::null(addr(9), MacAddr::FAKE, 0).into();
        let bytes = f.encode(true);
        assert_eq!(bytes.len(), 28); // 24-byte header + FCS
        let parsed = Frame::parse(&bytes, true).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn corrupted_frame_fails_fcs() {
        let f: Frame = DataFrame::null(addr(9), MacAddr::FAKE, 0).into();
        let mut bytes = f.encode(true);
        bytes[4] ^= 0x01; // flip a bit in the receiver address
        assert!(matches!(
            Frame::parse(&bytes, true),
            Err(FrameError::BadFcs { .. })
        ));
    }

    #[test]
    fn ack_solicitation_rules() {
        let null: Frame = DataFrame::null(addr(9), MacAddr::FAKE, 0).into();
        assert!(null.solicits_ack());

        let bcast: Frame = DataFrame::null(MacAddr::BROADCAST, MacAddr::FAKE, 0).into();
        assert!(!bcast.solicits_ack());

        let ack: Frame = ControlFrame::Ack { ra: addr(1) }.into();
        assert!(!ack.solicits_ack());

        let rts: Frame = ControlFrame::Rts {
            duration_us: 100,
            ra: addr(1),
            ta: addr(2),
        }
        .into();
        assert!(!rts.solicits_ack());
        assert!(rts.solicits_cts());
    }

    #[test]
    fn deauth_solicits_ack_too() {
        // Management frames are acknowledged as well — the deauth bursts in
        // Figure 3 are themselves ACK-eliciting.
        let deauth: Frame = ManagementFrame::new(
            MacAddr::FAKE,
            addr(1),
            addr(1),
            3275,
            ManagementBody::Deauthentication {
                reason: ReasonCode::ClassThreeFrameFromNonassociatedSta,
            },
        )
        .into();
        assert!(deauth.solicits_ack());
    }

    #[test]
    fn info_column_matches_wireshark_wording() {
        let null: Frame = DataFrame::null(addr(9), MacAddr::FAKE, 12).into();
        assert_eq!(null.info_column(), "Null function (No data), SN=12");
        let ack: Frame = ControlFrame::Ack { ra: MacAddr::FAKE }.into();
        assert!(ack.info_column().starts_with("Acknowledgement"));
    }

    #[test]
    fn air_len_includes_fcs() {
        let ack: Frame = ControlFrame::Ack { ra: addr(1) }.into();
        assert_eq!(ack.air_len(), 14);
        let null: Frame = DataFrame::null(addr(1), addr(2), 0).into();
        assert_eq!(null.air_len(), 28);
    }

    #[test]
    fn parse_without_fcs() {
        let f: Frame = ControlFrame::Cts {
            duration_us: 44,
            ra: addr(5),
        }
        .into();
        let bytes = f.encode(false);
        assert_eq!(Frame::parse(&bytes, false).unwrap(), f);
    }

    #[test]
    fn frame_too_short_for_fcs() {
        assert!(matches!(
            Frame::parse(&[0xd4, 0x00], true),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn receiver_and_transmitter_accessors() {
        let f: Frame = DataFrame::null(addr(9), MacAddr::FAKE, 0).into();
        assert_eq!(f.receiver(), Some(addr(9)));
        assert_eq!(f.transmitter(), Some(MacAddr::FAKE));
        let ack: Frame = ControlFrame::Ack { ra: MacAddr::FAKE }.into();
        assert_eq!(ack.receiver(), Some(MacAddr::FAKE));
        assert_eq!(ack.transmitter(), None);
    }
}
