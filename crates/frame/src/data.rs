//! Data frames, including the null-function "fake frames" the paper injects.

use crate::addr::MacAddr;
use crate::control::{data_subtype, FrameControl, FrameType};
use crate::error::FrameError;
use crate::seq::SequenceControl;

/// The payload of a data frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataBody {
    /// Null function (no data) — a header-only frame. This is the fake
    /// frame of Figures 1 and 2: the only valid field is the receiver
    /// address, yet the victim acknowledges it.
    Null,
    /// A payload-carrying frame. When `FrameControl::protected` is set the
    /// bytes are ciphertext (we carry them opaquely).
    Payload(Vec<u8>),
}

impl DataBody {
    /// Payload length in bytes (0 for null frames).
    pub fn len(&self) -> usize {
        match self {
            DataBody::Null => 0,
            DataBody::Payload(p) => p.len(),
        }
    }

    /// True when there is no payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A data frame: MAC header (3 or 4 addresses, optional QoS control) plus
/// an optional payload.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    /// Frame Control field.
    pub fc: FrameControl,
    /// Duration/ID in microseconds.
    pub duration: u16,
    /// Address 1 (receiver — the only field Polite WiFi checks).
    pub addr1: MacAddr,
    /// Address 2 (transmitter — forged to `aa:bb:bb:bb:bb:bb` by the paper).
    pub addr2: MacAddr,
    /// Address 3 (BSSID / DA / SA depending on the DS bits).
    pub addr3: MacAddr,
    /// Sequence Control field.
    pub seq: SequenceControl,
    /// Address 4, present only in WDS (to_ds && from_ds) frames.
    pub addr4: Option<MacAddr>,
    /// QoS Control field, present in QoS subtypes.
    pub qos: Option<u16>,
    /// Payload.
    pub body: DataBody,
}

impl DataFrame {
    /// Builds a plain (non-QoS) data frame with payload.
    pub fn new(addr1: MacAddr, addr2: MacAddr, addr3: MacAddr, seq: u16, payload: Vec<u8>) -> Self {
        DataFrame {
            fc: FrameControl::new(FrameType::Data, data_subtype::DATA),
            duration: 0,
            addr1,
            addr2,
            addr3,
            seq: SequenceControl::new(seq, 0),
            addr4: None,
            qos: None,
            body: DataBody::Payload(payload),
        }
    }

    /// Builds a null-function frame — the paper's fake frame. `addr3` (the
    /// BSSID slot) is set to the receiver, matching the Scapy default the
    /// paper used.
    pub fn null(addr1: MacAddr, addr2: MacAddr, seq: u16) -> Self {
        DataFrame {
            fc: FrameControl::new(FrameType::Data, data_subtype::NULL),
            duration: 0,
            addr1,
            addr2,
            addr3: addr1,
            seq: SequenceControl::new(seq, 0),
            addr4: None,
            qos: None,
            body: DataBody::Null,
        }
    }

    /// Builds a QoS-null frame.
    pub fn qos_null(addr1: MacAddr, addr2: MacAddr, seq: u16, tid: u8) -> Self {
        DataFrame {
            fc: FrameControl::new(FrameType::Data, data_subtype::QOS_NULL),
            duration: 0,
            addr1,
            addr2,
            addr3: addr1,
            seq: SequenceControl::new(seq, 0),
            addr4: None,
            qos: Some(tid as u16 & 0x000f),
            body: DataBody::Null,
        }
    }

    /// True for null and QoS-null subtypes.
    pub fn is_null(&self) -> bool {
        self.fc.is_null_data()
    }

    /// Header length implied by the Frame Control flags.
    fn header_len(fc: &FrameControl) -> usize {
        let mut len = 24;
        if fc.to_ds && fc.from_ds {
            len += 6;
        }
        if fc.subtype & 0x08 != 0 {
            len += 2; // QoS Control
        }
        len
    }

    /// Encodes header + body (no FCS).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::header_len(&self.fc) + self.body.len());
        out.extend_from_slice(&self.fc.encode());
        out.extend_from_slice(&self.duration.to_le_bytes());
        out.extend_from_slice(&self.addr1.octets());
        out.extend_from_slice(&self.addr2.octets());
        out.extend_from_slice(&self.addr3.octets());
        out.extend_from_slice(&self.seq.encode());
        if let Some(addr4) = self.addr4 {
            out.extend_from_slice(&addr4.octets());
        }
        if let Some(qos) = self.qos {
            out.extend_from_slice(&qos.to_le_bytes());
        }
        if let DataBody::Payload(p) = &self.body {
            out.extend_from_slice(p);
        }
        out
    }

    /// Parses a data frame given its already-decoded Frame Control.
    pub fn parse(fc: FrameControl, buf: &[u8]) -> Result<Self, FrameError> {
        let header_len = Self::header_len(&fc);
        if buf.len() < header_len {
            return Err(FrameError::Truncated {
                context: "data frame header",
                needed: header_len,
                available: buf.len(),
            });
        }
        let duration = u16::from_le_bytes([buf[2], buf[3]]);
        let addr1 = MacAddr::parse(&buf[4..])?;
        let addr2 = MacAddr::parse(&buf[10..])?;
        let addr3 = MacAddr::parse(&buf[16..])?;
        let seq = SequenceControl::parse(&buf[22..])?;
        let mut offset = 24;
        let addr4 = if fc.to_ds && fc.from_ds {
            let a = MacAddr::parse(&buf[offset..])?;
            offset += 6;
            Some(a)
        } else {
            None
        };
        let qos = if fc.subtype & 0x08 != 0 {
            let q = u16::from_le_bytes([buf[offset], buf[offset + 1]]);
            offset += 2;
            Some(q)
        } else {
            None
        };
        let body = if fc.is_null_data() {
            // Null frames carry no payload; tolerate (and drop) stray bytes,
            // as real sniffers do.
            DataBody::Null
        } else {
            DataBody::Payload(buf[offset..].to_vec())
        };
        Ok(DataFrame {
            fc,
            duration,
            addr1,
            addr2,
            addr3,
            seq,
            addr4,
            qos,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> MacAddr {
        MacAddr::new([0x02, 0, 0, 0, 0, last])
    }

    fn round_trip(frame: &DataFrame) {
        let bytes = frame.encode();
        let fc = FrameControl::parse(&bytes).unwrap();
        assert_eq!(&DataFrame::parse(fc, &bytes).unwrap(), frame);
    }

    #[test]
    fn null_frame_is_24_byte_header_only() {
        let f = DataFrame::null(addr(1), MacAddr::FAKE, 0);
        assert_eq!(f.encode().len(), 24);
        assert!(f.is_null());
        round_trip(&f);
    }

    #[test]
    fn fake_frame_has_receiver_as_only_meaningful_address() {
        let victim = addr(9);
        let f = DataFrame::null(victim, MacAddr::FAKE, 0);
        assert_eq!(f.addr1, victim);
        assert_eq!(f.addr2, MacAddr::FAKE);
        assert_eq!(f.addr3, victim);
    }

    #[test]
    fn qos_null_carries_tid() {
        let f = DataFrame::qos_null(addr(1), addr(2), 5, 6);
        assert_eq!(f.encode().len(), 26);
        assert_eq!(f.qos, Some(6));
        round_trip(&f);
    }

    #[test]
    fn payload_frame_round_trip() {
        let f = DataFrame::new(addr(1), addr(2), addr(3), 77, vec![1, 2, 3, 4, 5]);
        round_trip(&f);
    }

    #[test]
    fn wds_four_address_round_trip() {
        let mut f = DataFrame::new(addr(1), addr(2), addr(3), 7, vec![0xde, 0xad]);
        f.fc.to_ds = true;
        f.fc.from_ds = true;
        f.addr4 = Some(addr(4));
        assert_eq!(f.encode().len(), 24 + 6 + 2);
        round_trip(&f);
    }

    #[test]
    fn protected_payload_carried_opaquely() {
        let mut f = DataFrame::new(addr(1), addr(2), addr(3), 7, vec![0xaa; 48]);
        f.fc.protected = true;
        round_trip(&f);
    }

    #[test]
    fn truncated_rejected() {
        let f = DataFrame::null(addr(1), addr(2), 0);
        let bytes = f.encode();
        let fc = FrameControl::parse(&bytes).unwrap();
        assert!(DataFrame::parse(fc, &bytes[..23]).is_err());
    }

    #[test]
    fn empty_payload_differs_from_null() {
        let f = DataFrame::new(addr(1), addr(2), addr(3), 0, vec![]);
        assert!(!f.is_null());
        assert!(f.body.is_empty());
        round_trip(&f);
    }
}
