//! The 16-bit Frame Control field and the control-frame codec.
//!
//! Control frames are the paper's trump card (Section 2.2): they *cannot*
//! be encrypted, because every station in the vicinity must decode them to
//! honour channel reservations. Even if a future MAC validated data frames
//! before acknowledging, a forged [`ControlFrame::Rts`] still elicits a
//! [`ControlFrame::Cts`] from an unassociated victim.

use crate::addr::MacAddr;
use crate::error::FrameError;

/// The 2-bit frame type from the Frame Control field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Management frames (beacons, deauthentication, probes, ...). These can
    /// be protected by 802.11w.
    Management,
    /// Control frames (RTS/CTS/ACK/...). These *cannot* be encrypted — every
    /// nearby device must be able to decode them, which is why the paper
    /// argues Polite WiFi is fundamentally unpreventable.
    Control,
    /// Data frames, including the null-function frames the paper injects.
    Data,
    /// 802.11ad/ah extension frames (modelled but not elaborated).
    Extension,
}

impl FrameType {
    /// Decodes the raw 2-bit type field.
    pub fn from_bits(bits: u8) -> FrameType {
        match bits & 0b11 {
            0 => FrameType::Management,
            1 => FrameType::Control,
            2 => FrameType::Data,
            _ => FrameType::Extension,
        }
    }

    /// Encodes to the raw 2-bit type field.
    pub fn bits(self) -> u8 {
        match self {
            FrameType::Management => 0,
            FrameType::Control => 1,
            FrameType::Data => 2,
            FrameType::Extension => 3,
        }
    }
}

/// Management frame subtypes (type = 0).
pub mod mgmt_subtype {
    pub const ASSOC_REQ: u8 = 0;
    pub const ASSOC_RESP: u8 = 1;
    pub const REASSOC_REQ: u8 = 2;
    pub const REASSOC_RESP: u8 = 3;
    pub const PROBE_REQ: u8 = 4;
    pub const PROBE_RESP: u8 = 5;
    pub const BEACON: u8 = 8;
    pub const ATIM: u8 = 9;
    pub const DISASSOC: u8 = 10;
    pub const AUTH: u8 = 11;
    pub const DEAUTH: u8 = 12;
    pub const ACTION: u8 = 13;
}

/// Control frame subtypes (type = 1).
pub mod ctrl_subtype {
    pub const BLOCK_ACK_REQ: u8 = 8;
    pub const BLOCK_ACK: u8 = 9;
    pub const PS_POLL: u8 = 10;
    pub const RTS: u8 = 11;
    pub const CTS: u8 = 12;
    pub const ACK: u8 = 13;
    pub const CF_END: u8 = 14;
}

/// Data frame subtypes (type = 2).
pub mod data_subtype {
    pub const DATA: u8 = 0;
    /// "Null function (No data)" — the fake frame used throughout the paper.
    pub const NULL: u8 = 4;
    pub const QOS_DATA: u8 = 8;
    pub const QOS_NULL: u8 = 12;
}

/// The decoded Frame Control field: protocol version, type/subtype and the
/// eight flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameControl {
    /// 2-bit protocol version; always 0 on the air today.
    pub version: u8,
    /// Frame type.
    pub ftype: FrameType,
    /// 4-bit subtype (see the `*_subtype` modules).
    pub subtype: u8,
    /// Frame is headed to the distribution system (to an AP).
    pub to_ds: bool,
    /// Frame exits the distribution system (from an AP).
    pub from_ds: bool,
    /// More fragments follow.
    pub more_frag: bool,
    /// This is a retransmission.
    pub retry: bool,
    /// Sender will enter power-save after this exchange; flipped by
    /// battery-powered victims and observed by the drain attack.
    pub power_mgmt: bool,
    /// AP buffers more frames for a dozing station.
    pub more_data: bool,
    /// Frame body is encrypted. The paper's fake frames leave this clear —
    /// and the victim ACKs anyway.
    pub protected: bool,
    /// Order/+HTC bit.
    pub order: bool,
}

impl FrameControl {
    /// A Frame Control with all flags clear.
    pub fn new(ftype: FrameType, subtype: u8) -> FrameControl {
        FrameControl {
            version: 0,
            ftype,
            subtype: subtype & 0x0f,
            to_ds: false,
            from_ds: false,
            more_frag: false,
            retry: false,
            power_mgmt: false,
            more_data: false,
            protected: false,
            order: false,
        }
    }

    /// Decodes from the two on-air bytes (transmitted least significant
    /// byte first).
    pub fn parse(buf: &[u8]) -> Result<FrameControl, FrameError> {
        if buf.len() < 2 {
            return Err(FrameError::Truncated {
                context: "frame control",
                needed: 2,
                available: buf.len(),
            });
        }
        let b0 = buf[0];
        let b1 = buf[1];
        let version = b0 & 0b11;
        if version != 0 {
            return Err(FrameError::BadProtocolVersion(version));
        }
        Ok(FrameControl {
            version,
            ftype: FrameType::from_bits((b0 >> 2) & 0b11),
            subtype: (b0 >> 4) & 0x0f,
            to_ds: b1 & 0x01 != 0,
            from_ds: b1 & 0x02 != 0,
            more_frag: b1 & 0x04 != 0,
            retry: b1 & 0x08 != 0,
            power_mgmt: b1 & 0x10 != 0,
            more_data: b1 & 0x20 != 0,
            protected: b1 & 0x40 != 0,
            order: b1 & 0x80 != 0,
        })
    }

    /// Encodes to the two on-air bytes.
    pub fn encode(&self) -> [u8; 2] {
        let b0 = (self.version & 0b11) | (self.ftype.bits() << 2) | (self.subtype << 4);
        let mut b1 = 0u8;
        if self.to_ds {
            b1 |= 0x01;
        }
        if self.from_ds {
            b1 |= 0x02;
        }
        if self.more_frag {
            b1 |= 0x04;
        }
        if self.retry {
            b1 |= 0x08;
        }
        if self.power_mgmt {
            b1 |= 0x10;
        }
        if self.more_data {
            b1 |= 0x20;
        }
        if self.protected {
            b1 |= 0x40;
        }
        if self.order {
            b1 |= 0x80;
        }
        [b0, b1]
    }

    /// True for null-function and QoS-null data frames — the payload-free
    /// "fake frames" the paper's attacker injects.
    pub fn is_null_data(&self) -> bool {
        self.ftype == FrameType::Data
            && (self.subtype == data_subtype::NULL || self.subtype == data_subtype::QOS_NULL)
    }

    /// Builder-style setter for the retry flag.
    pub fn with_retry(mut self, retry: bool) -> Self {
        self.retry = retry;
        self
    }

    /// Builder-style setter for the power-management flag.
    pub fn with_power_mgmt(mut self, pm: bool) -> Self {
        self.power_mgmt = pm;
        self
    }

    /// Builder-style setter for the protected flag.
    pub fn with_protected(mut self, protected: bool) -> Self {
        self.protected = protected;
        self
    }
}

/// A decoded control frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFrame {
    /// Request To Send: reserves the medium for `duration_us`.
    Rts {
        /// NAV reservation in microseconds.
        duration_us: u16,
        /// Receiver address.
        ra: MacAddr,
        /// Transmitter address.
        ta: MacAddr,
    },
    /// Clear To Send: the response an RTS elicits — even from strangers.
    Cts {
        /// Remaining NAV reservation in microseconds.
        duration_us: u16,
        /// Receiver address (copied from the RTS transmitter).
        ra: MacAddr,
    },
    /// Acknowledgement: the "Hi!" the paper's title refers to.
    Ack {
        /// Receiver address (copied from the acknowledged frame's TA).
        ra: MacAddr,
    },
    /// PS-Poll: a dozing station asking its AP for buffered frames.
    PsPoll {
        /// Association id (with the two high bits set on air).
        aid: u16,
        /// BSSID of the AP being polled.
        bssid: MacAddr,
        /// Transmitter (the polling station).
        ta: MacAddr,
    },
    /// BlockAck request (basic variant).
    BlockAckReq {
        /// NAV in microseconds.
        duration_us: u16,
        /// Receiver address.
        ra: MacAddr,
        /// Transmitter address.
        ta: MacAddr,
        /// BAR control field.
        control: u16,
        /// Starting sequence control.
        start_seq: u16,
    },
    /// BlockAck (compressed bitmap variant).
    BlockAck {
        /// NAV in microseconds.
        duration_us: u16,
        /// Receiver address.
        ra: MacAddr,
        /// Transmitter address.
        ta: MacAddr,
        /// BA control field.
        control: u16,
        /// Starting sequence control.
        start_seq: u16,
        /// 64-frame compressed acknowledgement bitmap.
        bitmap: u64,
    },
    /// CF-End: truncates a NAV reservation.
    CfEnd {
        /// Receiver address (broadcast on air).
        ra: MacAddr,
        /// BSSID.
        bssid: MacAddr,
    },
}

impl ControlFrame {
    /// The subtype this frame encodes as.
    pub fn subtype(&self) -> u8 {
        match self {
            ControlFrame::Rts { .. } => ctrl_subtype::RTS,
            ControlFrame::Cts { .. } => ctrl_subtype::CTS,
            ControlFrame::Ack { .. } => ctrl_subtype::ACK,
            ControlFrame::PsPoll { .. } => ctrl_subtype::PS_POLL,
            ControlFrame::BlockAckReq { .. } => ctrl_subtype::BLOCK_ACK_REQ,
            ControlFrame::BlockAck { .. } => ctrl_subtype::BLOCK_ACK,
            ControlFrame::CfEnd { .. } => ctrl_subtype::CF_END,
        }
    }

    /// The receiver address (address 1) of this frame.
    pub fn ra(&self) -> MacAddr {
        match *self {
            ControlFrame::Rts { ra, .. }
            | ControlFrame::Cts { ra, .. }
            | ControlFrame::Ack { ra }
            | ControlFrame::BlockAckReq { ra, .. }
            | ControlFrame::BlockAck { ra, .. }
            | ControlFrame::CfEnd { ra, .. } => ra,
            ControlFrame::PsPoll { bssid, .. } => bssid,
        }
    }

    /// The transmitter address, when the subtype carries one.
    pub fn ta(&self) -> Option<MacAddr> {
        match *self {
            ControlFrame::Rts { ta, .. }
            | ControlFrame::PsPoll { ta, .. }
            | ControlFrame::BlockAckReq { ta, .. }
            | ControlFrame::BlockAck { ta, .. } => Some(ta),
            ControlFrame::CfEnd { bssid, .. } => Some(bssid),
            ControlFrame::Cts { .. } | ControlFrame::Ack { .. } => None,
        }
    }

    /// Encodes header + body (no FCS).
    pub fn encode(&self) -> Vec<u8> {
        let fc = FrameControl::new(FrameType::Control, self.subtype());
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&fc.encode());
        match *self {
            ControlFrame::Rts {
                duration_us,
                ra,
                ta,
            } => {
                out.extend_from_slice(&duration_us.to_le_bytes());
                out.extend_from_slice(&ra.octets());
                out.extend_from_slice(&ta.octets());
            }
            ControlFrame::Cts { duration_us, ra } => {
                out.extend_from_slice(&duration_us.to_le_bytes());
                out.extend_from_slice(&ra.octets());
            }
            ControlFrame::Ack { ra } => {
                out.extend_from_slice(&0u16.to_le_bytes());
                out.extend_from_slice(&ra.octets());
            }
            ControlFrame::PsPoll { aid, bssid, ta } => {
                out.extend_from_slice(&(aid | 0xc000).to_le_bytes());
                out.extend_from_slice(&bssid.octets());
                out.extend_from_slice(&ta.octets());
            }
            ControlFrame::BlockAckReq {
                duration_us,
                ra,
                ta,
                control,
                start_seq,
            } => {
                out.extend_from_slice(&duration_us.to_le_bytes());
                out.extend_from_slice(&ra.octets());
                out.extend_from_slice(&ta.octets());
                out.extend_from_slice(&control.to_le_bytes());
                out.extend_from_slice(&start_seq.to_le_bytes());
            }
            ControlFrame::BlockAck {
                duration_us,
                ra,
                ta,
                control,
                start_seq,
                bitmap,
            } => {
                out.extend_from_slice(&duration_us.to_le_bytes());
                out.extend_from_slice(&ra.octets());
                out.extend_from_slice(&ta.octets());
                out.extend_from_slice(&control.to_le_bytes());
                out.extend_from_slice(&start_seq.to_le_bytes());
                out.extend_from_slice(&bitmap.to_le_bytes());
            }
            ControlFrame::CfEnd { ra, bssid } => {
                out.extend_from_slice(&0u16.to_le_bytes());
                out.extend_from_slice(&ra.octets());
                out.extend_from_slice(&bssid.octets());
            }
        }
        out
    }

    /// Parses a control frame given its already-decoded Frame Control.
    pub fn parse(fc: FrameControl, buf: &[u8]) -> Result<Self, FrameError> {
        let need = |needed: usize, context: &'static str| -> Result<(), FrameError> {
            if buf.len() < needed {
                Err(FrameError::Truncated {
                    context,
                    needed,
                    available: buf.len(),
                })
            } else {
                Ok(())
            }
        };
        let duration = if buf.len() >= 4 {
            u16::from_le_bytes([buf[2], buf[3]])
        } else {
            0
        };
        match fc.subtype {
            ctrl_subtype::RTS => {
                need(16, "RTS")?;
                Ok(ControlFrame::Rts {
                    duration_us: duration,
                    ra: MacAddr::parse(&buf[4..])?,
                    ta: MacAddr::parse(&buf[10..])?,
                })
            }
            ctrl_subtype::CTS => {
                need(10, "CTS")?;
                Ok(ControlFrame::Cts {
                    duration_us: duration,
                    ra: MacAddr::parse(&buf[4..])?,
                })
            }
            ctrl_subtype::ACK => {
                need(10, "ACK")?;
                Ok(ControlFrame::Ack {
                    ra: MacAddr::parse(&buf[4..])?,
                })
            }
            ctrl_subtype::PS_POLL => {
                need(16, "PS-Poll")?;
                Ok(ControlFrame::PsPoll {
                    aid: duration & 0x3fff,
                    bssid: MacAddr::parse(&buf[4..])?,
                    ta: MacAddr::parse(&buf[10..])?,
                })
            }
            ctrl_subtype::BLOCK_ACK_REQ => {
                need(20, "BlockAckReq")?;
                Ok(ControlFrame::BlockAckReq {
                    duration_us: duration,
                    ra: MacAddr::parse(&buf[4..])?,
                    ta: MacAddr::parse(&buf[10..])?,
                    control: u16::from_le_bytes([buf[16], buf[17]]),
                    start_seq: u16::from_le_bytes([buf[18], buf[19]]),
                })
            }
            ctrl_subtype::BLOCK_ACK => {
                need(28, "BlockAck")?;
                Ok(ControlFrame::BlockAck {
                    duration_us: duration,
                    ra: MacAddr::parse(&buf[4..])?,
                    ta: MacAddr::parse(&buf[10..])?,
                    control: u16::from_le_bytes([buf[16], buf[17]]),
                    start_seq: u16::from_le_bytes([buf[18], buf[19]]),
                    bitmap: u64::from_le_bytes(buf[20..28].try_into().unwrap()),
                })
            }
            ctrl_subtype::CF_END => {
                need(16, "CF-End")?;
                Ok(ControlFrame::CfEnd {
                    ra: MacAddr::parse(&buf[4..])?,
                    bssid: MacAddr::parse(&buf[10..])?,
                })
            }
            other => Err(FrameError::UnsupportedSubtype {
                ftype: FrameType::Control.bits(),
                subtype: other,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_frame_control_encodes_to_d4() {
        // An ACK is type=control(01), subtype=1101, no flags:
        // b0 = 00 | 01<<2 | 1101<<4 = 0xd4. The classic Wireshark byte.
        let fc = FrameControl::new(FrameType::Control, ctrl_subtype::ACK);
        assert_eq!(fc.encode(), [0xd4, 0x00]);
    }

    #[test]
    fn null_data_frame_control_encodes_to_48() {
        let fc = FrameControl::new(FrameType::Data, data_subtype::NULL);
        assert_eq!(fc.encode(), [0x48, 0x00]);
        assert!(fc.is_null_data());
    }

    #[test]
    fn beacon_frame_control_encodes_to_80() {
        let fc = FrameControl::new(FrameType::Management, mgmt_subtype::BEACON);
        assert_eq!(fc.encode(), [0x80, 0x00]);
    }

    #[test]
    fn rts_frame_control_encodes_to_b4() {
        let fc = FrameControl::new(FrameType::Control, ctrl_subtype::RTS);
        assert_eq!(fc.encode(), [0xb4, 0x00]);
    }

    #[test]
    fn all_flags_round_trip() {
        for bits in 0u16..256 {
            let raw = [0x48u8, bits as u8];
            let fc = FrameControl::parse(&raw).unwrap();
            assert_eq!(fc.encode(), raw);
        }
    }

    #[test]
    fn every_type_subtype_round_trips() {
        for b0 in (0u8..=255).step_by(4) {
            // version bits fixed at 0 by stepping in 4s
            let fc = FrameControl::parse(&[b0, 0]).unwrap();
            assert_eq!(fc.encode()[0], b0);
        }
    }

    #[test]
    fn nonzero_version_rejected() {
        assert!(matches!(
            FrameControl::parse(&[0x01, 0x00]),
            Err(FrameError::BadProtocolVersion(1))
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(FrameControl::parse(&[0x48]).is_err());
    }

    #[test]
    fn qos_null_is_null_data() {
        let fc = FrameControl::new(FrameType::Data, data_subtype::QOS_NULL);
        assert!(fc.is_null_data());
        let fc = FrameControl::new(FrameType::Data, data_subtype::QOS_DATA);
        assert!(!fc.is_null_data());
    }

    fn addr(last: u8) -> MacAddr {
        MacAddr::new([0x02, 0, 0, 0, 0, last])
    }

    fn round_trip(frame: ControlFrame) {
        let bytes = frame.encode();
        let fc = FrameControl::parse(&bytes).unwrap();
        assert_eq!(ControlFrame::parse(fc, &bytes).unwrap(), frame);
    }

    #[test]
    fn ack_is_ten_bytes_without_fcs() {
        let ack = ControlFrame::Ack { ra: MacAddr::FAKE };
        assert_eq!(ack.encode().len(), 10);
        round_trip(ack);
    }

    #[test]
    fn rts_is_sixteen_bytes_without_fcs() {
        let rts = ControlFrame::Rts {
            duration_us: 248,
            ra: addr(1),
            ta: MacAddr::FAKE,
        };
        assert_eq!(rts.encode().len(), 16);
        round_trip(rts);
    }

    #[test]
    fn cts_round_trip() {
        round_trip(ControlFrame::Cts {
            duration_us: 200,
            ra: MacAddr::FAKE,
        });
    }

    #[test]
    fn ps_poll_aid_masking() {
        let frame = ControlFrame::PsPoll {
            aid: 7,
            bssid: addr(1),
            ta: addr(2),
        };
        let bytes = frame.encode();
        // On air the AID carries 0xc000.
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), 7 | 0xc000);
        round_trip(frame);
    }

    #[test]
    fn block_ack_round_trip() {
        round_trip(ControlFrame::BlockAck {
            duration_us: 0,
            ra: addr(1),
            ta: addr(2),
            control: 0x0005,
            start_seq: 100 << 4,
            bitmap: 0xffff_0000_ff00_00ff,
        });
        round_trip(ControlFrame::BlockAckReq {
            duration_us: 32,
            ra: addr(1),
            ta: addr(2),
            control: 0x0004,
            start_seq: 100 << 4,
        });
    }

    #[test]
    fn cf_end_round_trip() {
        round_trip(ControlFrame::CfEnd {
            ra: MacAddr::BROADCAST,
            bssid: addr(1),
        });
    }

    #[test]
    fn truncated_ack_rejected() {
        let ack = ControlFrame::Ack { ra: addr(1) };
        let bytes = ack.encode();
        let fc = FrameControl::parse(&bytes).unwrap();
        assert!(ControlFrame::parse(fc, &bytes[..8]).is_err());
    }

    #[test]
    fn ra_and_ta_accessors() {
        let rts = ControlFrame::Rts {
            duration_us: 0,
            ra: addr(1),
            ta: addr(2),
        };
        assert_eq!(rts.ra(), addr(1));
        assert_eq!(rts.ta(), Some(addr(2)));
        let ack = ControlFrame::Ack { ra: addr(3) };
        assert_eq!(ack.ra(), addr(3));
        assert_eq!(ack.ta(), None);
    }
}
