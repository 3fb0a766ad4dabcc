//! Management frames: beacons, deauthentication, probes, authentication and
//! (dis)association.

use crate::addr::MacAddr;
use crate::control::{mgmt_subtype, FrameControl, FrameType};
use crate::error::FrameError;
use crate::ie::InformationElement;
use crate::reason::ReasonCode;
use crate::seq::SequenceControl;

/// The body of a management frame, by subtype.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagementBody {
    /// Beacon: timestamp, beacon interval (TUs), capabilities, elements.
    Beacon {
        /// 64-bit TSF timestamp in microseconds.
        timestamp: u64,
        /// Beacon interval in time units (1 TU = 1024 µs).
        interval_tu: u16,
        /// Capability information bitfield.
        capabilities: u16,
        /// Tagged parameters.
        elements: Vec<InformationElement>,
    },
    /// Probe request: elements only (SSID + rates).
    ProbeRequest {
        /// Tagged parameters.
        elements: Vec<InformationElement>,
    },
    /// Probe response: same fixed fields as a beacon.
    ProbeResponse {
        /// 64-bit TSF timestamp in microseconds.
        timestamp: u64,
        /// Beacon interval in time units.
        interval_tu: u16,
        /// Capability information bitfield.
        capabilities: u16,
        /// Tagged parameters.
        elements: Vec<InformationElement>,
    },
    /// Open-system authentication exchange.
    Authentication {
        /// Algorithm number (0 = open system).
        algorithm: u16,
        /// Transaction sequence number (1 = request, 2 = response).
        transaction: u16,
        /// Status code (0 = success).
        status: u16,
    },
    /// Association request.
    AssociationRequest {
        /// Capability information bitfield.
        capabilities: u16,
        /// Listen interval in beacon intervals.
        listen_interval: u16,
        /// Tagged parameters.
        elements: Vec<InformationElement>,
    },
    /// Association response.
    AssociationResponse {
        /// Capability information bitfield.
        capabilities: u16,
        /// Status code (0 = success).
        status: u16,
        /// Association id (with the two high bits set on air).
        aid: u16,
        /// Tagged parameters.
        elements: Vec<InformationElement>,
    },
    /// Deauthentication — what the Figure 3 AP fires at the attacker.
    Deauthentication {
        /// Reason code.
        reason: ReasonCode,
    },
    /// Disassociation.
    Disassociation {
        /// Reason code.
        reason: ReasonCode,
    },
    /// Action frame, body carried opaquely.
    Action {
        /// Category + action + payload bytes.
        payload: Vec<u8>,
    },
}

impl ManagementBody {
    /// The subtype this body encodes as.
    pub fn subtype(&self) -> u8 {
        match self {
            ManagementBody::Beacon { .. } => mgmt_subtype::BEACON,
            ManagementBody::ProbeRequest { .. } => mgmt_subtype::PROBE_REQ,
            ManagementBody::ProbeResponse { .. } => mgmt_subtype::PROBE_RESP,
            ManagementBody::Authentication { .. } => mgmt_subtype::AUTH,
            ManagementBody::AssociationRequest { .. } => mgmt_subtype::ASSOC_REQ,
            ManagementBody::AssociationResponse { .. } => mgmt_subtype::ASSOC_RESP,
            ManagementBody::Deauthentication { .. } => mgmt_subtype::DEAUTH,
            ManagementBody::Disassociation { .. } => mgmt_subtype::DISASSOC,
            ManagementBody::Action { .. } => mgmt_subtype::ACTION,
        }
    }
}

/// A full management frame: the common 24-byte MAC header plus a typed body.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagementFrame {
    /// Frame Control field.
    pub fc: FrameControl,
    /// Duration/ID field in microseconds.
    pub duration: u16,
    /// Address 1: receiver.
    pub ra: MacAddr,
    /// Address 2: transmitter.
    pub ta: MacAddr,
    /// Address 3: BSSID.
    pub bssid: MacAddr,
    /// Sequence Control field.
    pub seq: SequenceControl,
    /// Typed body.
    pub body: ManagementBody,
}

impl ManagementFrame {
    /// Builds a management frame with a fresh all-clear Frame Control whose
    /// subtype matches `body`.
    pub fn new(ra: MacAddr, ta: MacAddr, bssid: MacAddr, seq: u16, body: ManagementBody) -> Self {
        let fc = FrameControl::new(FrameType::Management, body.subtype());
        ManagementFrame {
            fc,
            duration: 0,
            ra,
            ta,
            bssid,
            seq: SequenceControl::new(seq, 0),
            body,
        }
    }

    /// Encodes header + body (no FCS).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.fc.encode());
        out.extend_from_slice(&self.duration.to_le_bytes());
        out.extend_from_slice(&self.ra.octets());
        out.extend_from_slice(&self.ta.octets());
        out.extend_from_slice(&self.bssid.octets());
        out.extend_from_slice(&self.seq.encode());
        match &self.body {
            ManagementBody::Beacon {
                timestamp,
                interval_tu,
                capabilities,
                elements,
            }
            | ManagementBody::ProbeResponse {
                timestamp,
                interval_tu,
                capabilities,
                elements,
            } => {
                out.extend_from_slice(&timestamp.to_le_bytes());
                out.extend_from_slice(&interval_tu.to_le_bytes());
                out.extend_from_slice(&capabilities.to_le_bytes());
                for ie in elements {
                    ie.encode_into(&mut out);
                }
            }
            ManagementBody::ProbeRequest { elements } => {
                for ie in elements {
                    ie.encode_into(&mut out);
                }
            }
            ManagementBody::Authentication {
                algorithm,
                transaction,
                status,
            } => {
                out.extend_from_slice(&algorithm.to_le_bytes());
                out.extend_from_slice(&transaction.to_le_bytes());
                out.extend_from_slice(&status.to_le_bytes());
            }
            ManagementBody::AssociationRequest {
                capabilities,
                listen_interval,
                elements,
            } => {
                out.extend_from_slice(&capabilities.to_le_bytes());
                out.extend_from_slice(&listen_interval.to_le_bytes());
                for ie in elements {
                    ie.encode_into(&mut out);
                }
            }
            ManagementBody::AssociationResponse {
                capabilities,
                status,
                aid,
                elements,
            } => {
                out.extend_from_slice(&capabilities.to_le_bytes());
                out.extend_from_slice(&status.to_le_bytes());
                out.extend_from_slice(&(aid | 0xc000).to_le_bytes());
                for ie in elements {
                    ie.encode_into(&mut out);
                }
            }
            ManagementBody::Deauthentication { reason }
            | ManagementBody::Disassociation { reason } => {
                out.extend_from_slice(&reason.to_u16().to_le_bytes());
            }
            ManagementBody::Action { payload } => {
                out.extend_from_slice(payload);
            }
        }
        out
    }

    /// Parses a management frame given its already-decoded Frame Control.
    pub fn parse(fc: FrameControl, buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() < 24 {
            return Err(FrameError::Truncated {
                context: "management frame header",
                needed: 24,
                available: buf.len(),
            });
        }
        let duration = u16::from_le_bytes([buf[2], buf[3]]);
        let ra = MacAddr::parse(&buf[4..])?;
        let ta = MacAddr::parse(&buf[10..])?;
        let bssid = MacAddr::parse(&buf[16..])?;
        let seq = SequenceControl::parse(&buf[22..])?;
        let body_bytes = &buf[24..];

        let body = match fc.subtype {
            mgmt_subtype::BEACON | mgmt_subtype::PROBE_RESP => {
                if body_bytes.len() < 12 {
                    return Err(FrameError::Truncated {
                        context: "beacon fixed parameters",
                        needed: 12,
                        available: body_bytes.len(),
                    });
                }
                let timestamp = u64::from_le_bytes(body_bytes[0..8].try_into().unwrap());
                let interval_tu = u16::from_le_bytes([body_bytes[8], body_bytes[9]]);
                let capabilities = u16::from_le_bytes([body_bytes[10], body_bytes[11]]);
                let elements = InformationElement::parse_all(&body_bytes[12..])?;
                if fc.subtype == mgmt_subtype::BEACON {
                    ManagementBody::Beacon {
                        timestamp,
                        interval_tu,
                        capabilities,
                        elements,
                    }
                } else {
                    ManagementBody::ProbeResponse {
                        timestamp,
                        interval_tu,
                        capabilities,
                        elements,
                    }
                }
            }
            mgmt_subtype::PROBE_REQ => ManagementBody::ProbeRequest {
                elements: InformationElement::parse_all(body_bytes)?,
            },
            mgmt_subtype::AUTH => {
                if body_bytes.len() < 6 {
                    return Err(FrameError::Truncated {
                        context: "authentication body",
                        needed: 6,
                        available: body_bytes.len(),
                    });
                }
                ManagementBody::Authentication {
                    algorithm: u16::from_le_bytes([body_bytes[0], body_bytes[1]]),
                    transaction: u16::from_le_bytes([body_bytes[2], body_bytes[3]]),
                    status: u16::from_le_bytes([body_bytes[4], body_bytes[5]]),
                }
            }
            mgmt_subtype::ASSOC_REQ => {
                if body_bytes.len() < 4 {
                    return Err(FrameError::Truncated {
                        context: "association request body",
                        needed: 4,
                        available: body_bytes.len(),
                    });
                }
                ManagementBody::AssociationRequest {
                    capabilities: u16::from_le_bytes([body_bytes[0], body_bytes[1]]),
                    listen_interval: u16::from_le_bytes([body_bytes[2], body_bytes[3]]),
                    elements: InformationElement::parse_all(&body_bytes[4..])?,
                }
            }
            mgmt_subtype::ASSOC_RESP => {
                if body_bytes.len() < 6 {
                    return Err(FrameError::Truncated {
                        context: "association response body",
                        needed: 6,
                        available: body_bytes.len(),
                    });
                }
                ManagementBody::AssociationResponse {
                    capabilities: u16::from_le_bytes([body_bytes[0], body_bytes[1]]),
                    status: u16::from_le_bytes([body_bytes[2], body_bytes[3]]),
                    aid: u16::from_le_bytes([body_bytes[4], body_bytes[5]]) & 0x3fff,
                    elements: InformationElement::parse_all(&body_bytes[6..])?,
                }
            }
            mgmt_subtype::DEAUTH | mgmt_subtype::DISASSOC => {
                if body_bytes.len() < 2 {
                    return Err(FrameError::Truncated {
                        context: "reason code",
                        needed: 2,
                        available: body_bytes.len(),
                    });
                }
                let reason =
                    ReasonCode::from_u16(u16::from_le_bytes([body_bytes[0], body_bytes[1]]));
                if fc.subtype == mgmt_subtype::DEAUTH {
                    ManagementBody::Deauthentication { reason }
                } else {
                    ManagementBody::Disassociation { reason }
                }
            }
            mgmt_subtype::ACTION => ManagementBody::Action {
                payload: body_bytes.to_vec(),
            },
            other => {
                return Err(FrameError::UnsupportedSubtype {
                    ftype: FrameType::Management.bits(),
                    subtype: other,
                })
            }
        };

        Ok(ManagementFrame {
            fc,
            duration,
            ra,
            ta,
            bssid,
            seq,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ie::InformationElement;

    fn addr(last: u8) -> MacAddr {
        MacAddr::new([0x02, 0x00, 0x00, 0x00, 0x00, last])
    }

    fn round_trip(frame: &ManagementFrame) {
        let bytes = frame.encode();
        let fc = FrameControl::parse(&bytes).unwrap();
        let parsed = ManagementFrame::parse(fc, &bytes).unwrap();
        assert_eq!(&parsed, frame);
    }

    #[test]
    fn beacon_round_trip() {
        let frame = ManagementFrame::new(
            MacAddr::BROADCAST,
            addr(1),
            addr(1),
            42,
            ManagementBody::Beacon {
                timestamp: 123_456_789,
                interval_tu: 100,
                capabilities: 0x0411,
                elements: vec![
                    InformationElement::ssid("PrivateNet"),
                    InformationElement::supported_rates(&[0x82, 0x84, 0x8b, 0x96]),
                    InformationElement::ds_parameter(11),
                    InformationElement::rsn_wpa2_psk(),
                ],
            },
        );
        round_trip(&frame);
    }

    #[test]
    fn deauth_round_trip_with_figure3_sequence() {
        let frame = ManagementFrame::new(
            MacAddr::FAKE,
            addr(9),
            addr(9),
            3275,
            ManagementBody::Deauthentication {
                reason: ReasonCode::ClassThreeFrameFromNonassociatedSta,
            },
        );
        assert_eq!(frame.seq.sequence, 3275);
        round_trip(&frame);
    }

    #[test]
    fn auth_round_trip() {
        let frame = ManagementFrame::new(
            addr(1),
            addr(2),
            addr(1),
            7,
            ManagementBody::Authentication {
                algorithm: 0,
                transaction: 1,
                status: 0,
            },
        );
        round_trip(&frame);
    }

    #[test]
    fn assoc_req_and_resp_round_trip() {
        round_trip(&ManagementFrame::new(
            addr(1),
            addr(2),
            addr(1),
            8,
            ManagementBody::AssociationRequest {
                capabilities: 0x0431,
                listen_interval: 10,
                elements: vec![InformationElement::ssid("PrivateNet")],
            },
        ));
        round_trip(&ManagementFrame::new(
            addr(2),
            addr(1),
            addr(1),
            9,
            ManagementBody::AssociationResponse {
                capabilities: 0x0431,
                status: 0,
                aid: 5,
                elements: vec![],
            },
        ));
    }

    #[test]
    fn probe_request_round_trip() {
        round_trip(&ManagementFrame::new(
            MacAddr::BROADCAST,
            addr(3),
            MacAddr::BROADCAST,
            1,
            ManagementBody::ProbeRequest {
                elements: vec![InformationElement::ssid("")],
            },
        ));
    }

    #[test]
    fn action_round_trip() {
        round_trip(&ManagementFrame::new(
            addr(1),
            addr(2),
            addr(1),
            3,
            ManagementBody::Action {
                payload: vec![0x04, 0x01, 0xff],
            },
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        let frame = ManagementFrame::new(
            addr(1),
            addr(2),
            addr(1),
            3,
            ManagementBody::Deauthentication {
                reason: ReasonCode::Unspecified,
            },
        );
        let bytes = frame.encode();
        let fc = FrameControl::parse(&bytes).unwrap();
        assert!(ManagementFrame::parse(fc, &bytes[..20]).is_err());
        assert!(ManagementFrame::parse(fc, &bytes[..25]).is_err());
    }

    #[test]
    fn aid_high_bits_masked_on_parse() {
        let frame = ManagementFrame::new(
            addr(2),
            addr(1),
            addr(1),
            9,
            ManagementBody::AssociationResponse {
                capabilities: 0,
                status: 0,
                aid: 1,
                elements: vec![],
            },
        );
        let bytes = frame.encode();
        // On-air AID has 0xc000 set.
        assert_eq!(u16::from_le_bytes([bytes[28], bytes[29]]) & 0xc000, 0xc000);
        round_trip(&frame);
    }
}
