//! Information elements (tagged parameters) in management frame bodies.

use crate::error::FrameError;

/// Well-known element ids.
pub mod element_id {
    pub const SSID: u8 = 0;
    pub const SUPPORTED_RATES: u8 = 1;
    pub const DS_PARAMETER: u8 = 3;
    pub const TIM: u8 = 5;
    pub const COUNTRY: u8 = 7;
    pub const RSN: u8 = 48;
    pub const EXT_SUPPORTED_RATES: u8 = 50;
    pub const HT_CAPABILITIES: u8 = 45;
    pub const VENDOR_SPECIFIC: u8 = 221;
}

/// A raw information element: a one-byte id, one-byte length and up to 255
/// bytes of payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InformationElement {
    /// Element id.
    pub id: u8,
    /// Element payload (≤ 255 bytes).
    pub data: Vec<u8>,
}

impl InformationElement {
    /// Builds an element, truncating the payload at 255 bytes.
    pub fn new(id: u8, data: impl Into<Vec<u8>>) -> Self {
        let mut data = data.into();
        data.truncate(255);
        InformationElement { id, data }
    }

    /// An SSID element. The standard caps SSIDs at 32 bytes.
    pub fn ssid(name: &str) -> Self {
        let mut bytes = name.as_bytes().to_vec();
        bytes.truncate(32);
        InformationElement::new(element_id::SSID, bytes)
    }

    /// A Supported Rates element from rates in units of 500 kb/s, with the
    /// basic-rate bit pre-applied by the caller.
    pub fn supported_rates(rates: &[u8]) -> Self {
        InformationElement::new(element_id::SUPPORTED_RATES, rates.to_vec())
    }

    /// A DS Parameter Set element carrying the current channel.
    pub fn ds_parameter(channel: u8) -> Self {
        InformationElement::new(element_id::DS_PARAMETER, vec![channel])
    }

    /// A minimal Traffic Indication Map element.
    ///
    /// Power-save stations wake for beacons and inspect the TIM to learn
    /// whether the AP buffers traffic for them — the state machine the
    /// battery-drain attack (Section 4.2) prevents from ever dozing.
    pub fn tim(dtim_count: u8, dtim_period: u8, bitmap_ctrl: u8, bitmap: &[u8]) -> Self {
        let mut data = vec![dtim_count, dtim_period, bitmap_ctrl];
        data.extend_from_slice(bitmap);
        InformationElement::new(element_id::TIM, data)
    }

    /// A minimal WPA2 (RSN) element advertising CCMP + PSK. Its presence in
    /// beacons marks the network as "private, secured" — which the paper
    /// shows is irrelevant to whether fake frames get acknowledged.
    pub fn rsn_wpa2_psk() -> Self {
        let data = vec![
            0x01, 0x00, // RSN version 1
            0x00, 0x0f, 0xac, 0x04, // group cipher: CCMP-128
            0x01, 0x00, // 1 pairwise cipher
            0x00, 0x0f, 0xac, 0x04, // CCMP-128
            0x01, 0x00, // 1 AKM
            0x00, 0x0f, 0xac, 0x02, // PSK
            0x00, 0x00, // RSN capabilities
        ];
        InformationElement::new(element_id::RSN, data)
    }

    /// An RSN element identical to [`rsn_wpa2_psk`](Self::rsn_wpa2_psk) but
    /// with the Management Frame Protection Capable/Required bits set
    /// (802.11w). The paper's footnote 2: PMF protects *management* frames,
    /// yet control frames — and therefore CTS-elicitation — stay exposed.
    pub fn rsn_wpa2_psk_pmf() -> Self {
        let mut ie = Self::rsn_wpa2_psk();
        let n = ie.data.len();
        // RSN capabilities: MFPR (bit 6) | MFPC (bit 7) in the first byte.
        ie.data[n - 2] = 0xc0;
        ie
    }

    /// True when this RSN element advertises management-frame protection.
    pub fn rsn_has_pmf(&self) -> bool {
        self.id == element_id::RSN
            && self.data.len() >= 2
            && self.data[self.data.len() - 2] & 0x80 != 0
    }

    /// Encoded length including the 2-byte header.
    pub fn encoded_len(&self) -> usize {
        2 + self.data.len()
    }

    /// Appends the encoded element to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.id);
        out.push(self.data.len() as u8);
        out.extend_from_slice(&self.data);
    }

    /// Parses every element in `buf` until it is exhausted.
    pub fn parse_all(buf: &[u8]) -> Result<Vec<InformationElement>, FrameError> {
        let mut elements = Vec::new();
        let mut rest = buf;
        while !rest.is_empty() {
            if rest.len() < 2 {
                return Err(FrameError::Truncated {
                    context: "information element header",
                    needed: 2,
                    available: rest.len(),
                });
            }
            let id = rest[0];
            let len = rest[1] as usize;
            if rest.len() < 2 + len {
                return Err(FrameError::BadElementLength {
                    id,
                    declared: len,
                    available: rest.len() - 2,
                });
            }
            elements.push(InformationElement {
                id,
                data: rest[2..2 + len].to_vec(),
            });
            rest = &rest[2 + len..];
        }
        Ok(elements)
    }

    /// Finds the first element with the given id.
    pub fn find(elements: &[InformationElement], id: u8) -> Option<&InformationElement> {
        elements.iter().find(|e| e.id == id)
    }

    /// Decodes an SSID element's payload as UTF-8 (lossy).
    pub fn ssid_string(&self) -> Option<String> {
        if self.id == element_id::SSID {
            Some(String::from_utf8_lossy(&self.data).into_owned())
        } else {
            None
        }
    }
}

/// Encodes a slice of elements back-to-back.
pub fn encode_all(elements: &[InformationElement]) -> Vec<u8> {
    let total: usize = elements.iter().map(|e| e.encoded_len()).sum();
    let mut out = Vec::with_capacity(total);
    for e in elements {
        e.encode_into(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssid_round_trip() {
        let ies = vec![
            InformationElement::ssid("HomeNet"),
            InformationElement::ds_parameter(6),
        ];
        let bytes = encode_all(&ies);
        let parsed = InformationElement::parse_all(&bytes).unwrap();
        assert_eq!(parsed, ies);
        assert_eq!(parsed[0].ssid_string().as_deref(), Some("HomeNet"));
    }

    #[test]
    fn ssid_capped_at_32_bytes() {
        let long = "x".repeat(100);
        let ie = InformationElement::ssid(&long);
        assert_eq!(ie.data.len(), 32);
    }

    #[test]
    fn overrunning_length_rejected() {
        // id=0, len=10, but only 2 payload bytes present.
        let err = InformationElement::parse_all(&[0, 10, 1, 2]).unwrap_err();
        assert!(matches!(err, FrameError::BadElementLength { id: 0, .. }));
    }

    #[test]
    fn dangling_header_rejected() {
        assert!(InformationElement::parse_all(&[0]).is_err());
    }

    #[test]
    fn empty_body_is_no_elements() {
        assert!(InformationElement::parse_all(&[]).unwrap().is_empty());
    }

    #[test]
    fn rsn_pmf_bit_detected() {
        assert!(!InformationElement::rsn_wpa2_psk().rsn_has_pmf());
        assert!(InformationElement::rsn_wpa2_psk_pmf().rsn_has_pmf());
    }

    #[test]
    fn find_locates_by_id() {
        let ies = vec![
            InformationElement::ssid("a"),
            InformationElement::rsn_wpa2_psk(),
        ];
        assert!(InformationElement::find(&ies, element_id::RSN).is_some());
        assert!(InformationElement::find(&ies, element_id::TIM).is_none());
    }

    #[test]
    fn tim_layout() {
        let ie = InformationElement::tim(0, 3, 0, &[0x02]);
        assert_eq!(ie.data, vec![0, 3, 0, 0x02]);
    }

    #[test]
    fn oversized_payload_truncated() {
        let ie = InformationElement::new(221, vec![0u8; 300]);
        assert_eq!(ie.data.len(), 255);
    }
}
