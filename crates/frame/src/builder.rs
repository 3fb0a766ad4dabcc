//! Convenience constructors for the frames the paper's experiments use.

use crate::addr::MacAddr;
use crate::control::ControlFrame;
use crate::data::DataFrame;
use crate::frame::Frame;
use crate::ie::InformationElement;
use crate::mgmt::{ManagementBody, ManagementFrame};
use crate::reason::ReasonCode;

/// The fake frame from the paper (Section 2): an unencrypted null-function
/// data frame whose only valid field is the victim's MAC address.
pub fn fake_null_frame(victim: MacAddr, forged_ta: MacAddr) -> Frame {
    Frame::Data(DataFrame::null(victim, forged_ta, 0))
}

/// A fake RTS — the fallback attack of Section 2.2 that works even against
/// a hypothetical validate-before-ACK MAC, because control frames cannot
/// be encrypted.
pub fn fake_rts(victim: MacAddr, forged_ta: MacAddr, duration_us: u16) -> Frame {
    Frame::Ctrl(ControlFrame::Rts {
        duration_us,
        ra: victim,
        ta: forged_ta,
    })
}

/// The ACK a victim sends back after SIFS.
pub fn ack(to: MacAddr) -> Frame {
    Frame::Ctrl(ControlFrame::Ack { ra: to })
}

/// The CTS a victim answers an RTS with.
pub fn cts(to: MacAddr, duration_us: u16) -> Frame {
    Frame::Ctrl(ControlFrame::Cts {
        duration_us,
        ra: to,
    })
}

/// A deauthentication frame, as fired by the confused APs in Figure 3.
pub fn deauth(to: MacAddr, from: MacAddr, bssid: MacAddr, seq: u16, reason: ReasonCode) -> Frame {
    Frame::Mgmt(ManagementFrame::new(
        to,
        from,
        bssid,
        seq,
        ManagementBody::Deauthentication { reason },
    ))
}

/// A WPA2-protected beacon for `ssid` on `channel`. With `pmf` the RSN
/// element also advertises 802.11w management-frame protection.
pub fn beacon(
    bssid: MacAddr,
    ssid: &str,
    channel: u8,
    seq: u16,
    timestamp_us: u64,
    pmf: bool,
) -> Frame {
    let rsn = if pmf {
        InformationElement::rsn_wpa2_psk_pmf()
    } else {
        InformationElement::rsn_wpa2_psk()
    };
    Frame::Mgmt(ManagementFrame::new(
        MacAddr::BROADCAST,
        bssid,
        bssid,
        seq,
        ManagementBody::Beacon {
            timestamp: timestamp_us,
            interval_tu: 100,
            capabilities: 0x0411, // ESS | privacy | short slot
            elements: vec![
                InformationElement::ssid(ssid),
                InformationElement::supported_rates(&[
                    0x82, 0x84, 0x8b, 0x96, 0x0c, 0x12, 0x18, 0x24,
                ]),
                InformationElement::ds_parameter(channel),
                InformationElement::tim(0, 3, 0, &[0x00]),
                rsn,
            ],
        },
    ))
}

/// A broadcast probe request (wildcard SSID), as emitted by scanning
/// clients — one of the signals the wardriving discovery thread sniffs.
pub fn probe_request(from: MacAddr, seq: u16) -> Frame {
    Frame::Mgmt(ManagementFrame::new(
        MacAddr::BROADCAST,
        from,
        MacAddr::BROADCAST,
        seq,
        ManagementBody::ProbeRequest {
            elements: vec![
                InformationElement::ssid(""),
                InformationElement::supported_rates(&[0x82, 0x84, 0x8b, 0x96]),
            ],
        },
    ))
}

/// An encrypted-looking QoS data frame, used to model legitimate in-network
/// traffic around the attack.
pub fn protected_qos_data(
    to: MacAddr,
    from: MacAddr,
    bssid: MacAddr,
    seq: u16,
    ciphertext_len: usize,
) -> Frame {
    let mut f = DataFrame::new(to, from, bssid, seq, vec![0u8; ciphertext_len]);
    f.fc.subtype = crate::control::data_subtype::QOS_DATA;
    f.fc.protected = true;
    f.qos = Some(0);
    Frame::Data(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    fn victim() -> MacAddr {
        "f2:6e:0b:11:22:33".parse().unwrap()
    }

    #[test]
    fn fake_null_frame_matches_paper_shape() {
        let f = fake_null_frame(victim(), MacAddr::FAKE);
        assert!(f.solicits_ack());
        assert!(!f.frame_control().protected);
        assert_eq!(f.receiver(), Some(victim()));
        assert_eq!(f.transmitter(), Some(MacAddr::FAKE));
        assert_eq!(f.air_len(), 28);
        // Round-trips over the air.
        let bytes = f.encode(true);
        assert_eq!(Frame::parse(&bytes, true).unwrap(), f);
    }

    #[test]
    fn encoded_lengths_are_pinned() {
        let fake = fake_null_frame(victim(), MacAddr::FAKE);
        assert_eq!(fake.encode(true).len(), 28);
        let beacon = beacon(victim(), "PrivateNet", 6, 7, 123_456, true);
        assert_eq!(beacon.encode(true).len(), 93);
    }

    #[test]
    fn fake_rts_solicits_cts_not_ack() {
        let f = fake_rts(victim(), MacAddr::FAKE, 248);
        assert!(f.solicits_cts());
        assert!(!f.solicits_ack());
    }

    #[test]
    fn beacon_advertises_privacy() {
        let f = beacon(victim(), "PrivateNet", 6, 0, 0, false);
        if let Frame::Mgmt(m) = &f {
            if let ManagementBody::Beacon {
                capabilities,
                elements,
                ..
            } = &m.body
            {
                assert!(capabilities & 0x0010 != 0, "privacy bit set");
                assert!(InformationElement::find(elements, crate::ie::element_id::RSN).is_some());
                return;
            }
        }
        panic!("not a beacon");
    }

    #[test]
    fn pmf_beacon_differs() {
        let plain = beacon(victim(), "X", 1, 0, 0, false);
        let pmf = beacon(victim(), "X", 1, 0, 0, true);
        assert_ne!(plain.encode(false), pmf.encode(false));
    }

    #[test]
    fn protected_data_sets_protected_bit() {
        let f = protected_qos_data(victim(), MacAddr::FAKE, victim(), 1, 100);
        assert!(f.frame_control().protected);
        let bytes = f.encode(true);
        assert_eq!(Frame::parse(&bytes, true).unwrap(), f);
    }

    #[test]
    fn probe_request_is_broadcast() {
        let f = probe_request(victim(), 4);
        assert_eq!(f.receiver(), Some(MacAddr::BROADCAST));
        assert!(!f.solicits_ack());
    }
}
