//! ACK verification: did the victim answer?
//!
//! 802.11 ACKs carry no transmitter address, so a sniffer cannot read off
//! *who* acknowledged. The paper's third thread verified targets
//! temporally: an ACK addressed to the attacker that lands within the
//! response window of an injected fake is attributed to that fake's
//! destination. This module implements that pairing over a capture.

use polite_wifi_frame::{ControlFrame, Frame, MacAddr};
use polite_wifi_pcap::capture::Capture;

/// One verified fake→ACK exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifiedExchange {
    /// The victim that answered.
    pub victim: MacAddr,
    /// When the fake frame completed, µs.
    pub fake_ts_us: u64,
    /// When the ACK completed, µs.
    pub ack_ts_us: u64,
}

/// Pairs injected fakes with elicited ACKs in a capture.
#[derive(Debug, Clone)]
pub struct AckVerifier {
    /// The attacker's (forged) address that ACKs come back to.
    pub attacker: MacAddr,
    /// Maximum µs between a fake frame's end and its ACK's end for the
    /// two to be considered one exchange. SIFS + the longest legacy ACK
    /// (304 µs at 1 Mb/s) plus slack.
    pub window_us: u64,
}

impl AckVerifier {
    /// A verifier with the default 1 ms pairing window.
    pub fn new(attacker: MacAddr) -> AckVerifier {
        AckVerifier {
            attacker,
            window_us: 1_000,
        }
    }

    /// The streaming form of [`verify`](Self::verify): fed a capture
    /// frame by frame, in as many slices as the caller likes, it yields
    /// the same exchanges in the same order.
    pub fn pairing(&self) -> AckPairing {
        AckPairing {
            verifier: self.clone(),
            pending: None,
        }
    }

    /// Walks the capture and returns every verified exchange: a frame
    /// transmitted *by* the attacker followed within the window by an
    /// ACK (or CTS) addressed *to* the attacker.
    pub fn verify(&self, capture: &Capture) -> Vec<VerifiedExchange> {
        let mut pairing = self.pairing();
        capture
            .frames()
            .iter()
            .filter_map(|cf| pairing.observe(cf.ts_us, &cf.frame))
            .collect()
    }

    /// Distinct victims that verifiably answered at least once.
    pub fn responding_victims(&self, capture: &Capture) -> Vec<MacAddr> {
        let mut victims: Vec<MacAddr> = self.verify(capture).iter().map(|e| e.victim).collect();
        victims.sort();
        victims.dedup();
        victims
    }
}

/// [`AckVerifier`]'s fake→ACK pairing as a state machine over a frame
/// stream (see [`AckVerifier::pairing`]). The only state is the
/// attacker's latest frame still awaiting its ACK, so pairing carries
/// across capture-slice boundaries.
#[derive(Debug, Clone)]
pub struct AckPairing {
    verifier: AckVerifier,
    /// The attacker's latest frame: its receiver and when it ended, µs.
    pending: Option<(MacAddr, u64)>,
}

impl AckPairing {
    /// Feeds one captured frame that ended at `ts_us`. Returns the
    /// exchange it completes: an ACK or CTS to the attacker within the
    /// window of the attacker's latest frame, which it then consumes.
    pub fn observe(&mut self, ts_us: u64, frame: &Frame) -> Option<VerifiedExchange> {
        let attacker = self.verifier.attacker;
        match frame {
            Frame::Ctrl(ControlFrame::Ack { ra }) | Frame::Ctrl(ControlFrame::Cts { ra, .. })
                if *ra == attacker =>
            {
                let (victim, fake_ts_us) = self.pending.take()?;
                (ts_us.saturating_sub(fake_ts_us) <= self.verifier.window_us).then_some(
                    VerifiedExchange {
                        victim,
                        fake_ts_us,
                        ack_ts_us: ts_us,
                    },
                )
            }
            other => {
                if other.transmitter() == Some(attacker) {
                    if let Some(victim) = other.receiver() {
                        self.pending = Some((victim, ts_us));
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_frame::builder;

    fn victim_mac() -> MacAddr {
        "f2:6e:0b:11:22:33".parse().unwrap()
    }

    #[test]
    fn pairs_fake_with_following_ack() {
        let mut cap = Capture::new();
        cap.record_frame(
            1_000,
            &builder::fake_null_frame(victim_mac(), MacAddr::FAKE),
        );
        cap.record_frame(1_314, &builder::ack(MacAddr::FAKE));
        let v = AckVerifier::new(MacAddr::FAKE);
        let ex = v.verify(&cap);
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].victim, victim_mac());
        assert_eq!(ex[0].ack_ts_us - ex[0].fake_ts_us, 314);
    }

    #[test]
    fn late_ack_not_paired() {
        let mut cap = Capture::new();
        cap.record_frame(
            1_000,
            &builder::fake_null_frame(victim_mac(), MacAddr::FAKE),
        );
        cap.record_frame(5_000, &builder::ack(MacAddr::FAKE));
        assert!(AckVerifier::new(MacAddr::FAKE).verify(&cap).is_empty());
    }

    #[test]
    fn ack_to_someone_else_ignored() {
        let other: MacAddr = "02:00:00:00:00:09".parse().unwrap();
        let mut cap = Capture::new();
        cap.record_frame(
            1_000,
            &builder::fake_null_frame(victim_mac(), MacAddr::FAKE),
        );
        cap.record_frame(1_314, &builder::ack(other));
        assert!(AckVerifier::new(MacAddr::FAKE).verify(&cap).is_empty());
    }

    #[test]
    fn cts_counts_as_verification() {
        let mut cap = Capture::new();
        cap.record_frame(1_000, &builder::fake_rts(victim_mac(), MacAddr::FAKE, 300));
        cap.record_frame(1_200, &builder::cts(MacAddr::FAKE, 100));
        let ex = AckVerifier::new(MacAddr::FAKE).verify(&cap);
        assert_eq!(ex.len(), 1);
    }

    #[test]
    fn multiple_victims_deduplicated() {
        let v2: MacAddr = "f2:6e:0b:44:55:66".parse().unwrap();
        let mut cap = Capture::new();
        for (i, victim) in [victim_mac(), v2, victim_mac()].iter().enumerate() {
            let t = 10_000 * (i as u64 + 1);
            cap.record_frame(t, &builder::fake_null_frame(*victim, MacAddr::FAKE));
            cap.record_frame(t + 314, &builder::ack(MacAddr::FAKE));
        }
        let verifier = AckVerifier::new(MacAddr::FAKE);
        assert_eq!(verifier.verify(&cap).len(), 3);
        let victims = verifier.responding_victims(&cap);
        assert_eq!(victims.len(), 2);
        assert!(victims.contains(&victim_mac()) && victims.contains(&v2));
    }

    #[test]
    fn interleaved_foreign_traffic_does_not_confuse() {
        let other: MacAddr = "02:00:00:00:00:09".parse().unwrap();
        let mut cap = Capture::new();
        cap.record_frame(
            1_000,
            &builder::fake_null_frame(victim_mac(), MacAddr::FAKE),
        );
        // A foreign beacon lands between the fake and the ACK.
        cap.record_frame(1_100, &builder::beacon(other, "X", 6, 0, 0, false));
        cap.record_frame(1_314, &builder::ack(MacAddr::FAKE));
        // The beacon (transmitted by `other`, received broadcast) replaces
        // the pending pair only if it was *sent by the attacker*; it was
        // not, so the exchange still verifies... but note the beacon's
        // receiver is broadcast so pending would be clobbered only for
        // attacker-sent frames.
        let ex = AckVerifier::new(MacAddr::FAKE).verify(&cap);
        assert_eq!(ex.len(), 1);
    }

    mod streaming {
        use super::*;
        use polite_wifi_pcap::capture::CapturedFrame;
        use proptest::prelude::*;
        use std::collections::HashSet;

        const VICTIMS: [[u8; 6]; 3] = [
            [0xf2, 0x6e, 0x0b, 0x11, 0x22, 0x33],
            [0x68, 0x02, 0xb8, 0x10, 0x00, 0x01],
            [0xf0, 0x18, 0x98, 0x10, 0x01, 0x02],
        ];
        const OTHER: [u8; 6] = [0x02, 0x00, 0x00, 0x00, 0x00, 0x09];

        /// One captured frame, drawn by class: fakes (null data or RTS)
        /// from the attacker to a victim, ACK/CTS to the attacker or to
        /// someone else, and unrelated beacons and probes.
        fn frame_of(class: u8, victim: usize) -> Frame {
            let victim = MacAddr::new(VICTIMS[victim]);
            let other = MacAddr::new(OTHER);
            match class {
                0..=2 => builder::fake_null_frame(victim, MacAddr::FAKE),
                3 => builder::fake_rts(victim, MacAddr::FAKE, 300),
                4..=6 => builder::ack(MacAddr::FAKE),
                7 => builder::cts(MacAddr::FAKE, 100),
                8 => builder::ack(other),
                9 => builder::cts(other, 100),
                10 => builder::beacon(other, "X", 6, 0, 0, false),
                _ => builder::probe_request(victim, 7),
            }
        }

        /// The pairing rule stated directly, as a test oracle: an ACK
        /// or CTS to the attacker completes an exchange with the
        /// attacker's latest addressed frame since the previous such
        /// reply, if it lands within the window.
        fn rule_pairs(frames: &[CapturedFrame], window_us: u64) -> Vec<VerifiedExchange> {
            let is_reply = |f: &Frame| {
                matches!(f, Frame::Ctrl(ControlFrame::Ack { ra } | ControlFrame::Cts { ra, .. })
                    if *ra == MacAddr::FAKE)
            };
            let mut out = Vec::new();
            for (j, reply) in frames.iter().enumerate() {
                if !is_reply(&reply.frame) {
                    continue;
                }
                let fake = frames[..j]
                    .iter()
                    .rev()
                    .take_while(|cf| !is_reply(&cf.frame))
                    .find(|cf| {
                        cf.frame.transmitter() == Some(MacAddr::FAKE)
                            && cf.frame.receiver().is_some()
                    });
                if let Some(fake) = fake {
                    if reply.ts_us - fake.ts_us <= window_us {
                        out.push(VerifiedExchange {
                            victim: fake.frame.receiver().expect("found with a receiver"),
                            fake_ts_us: fake.ts_us,
                            ack_ts_us: reply.ts_us,
                        });
                    }
                }
            }
            out
        }

        /// Gaps cluster on both sides of the 1 ms pairing window.
        fn arb_gap() -> impl Strategy<Value = u64> {
            prop_oneof![0u64..999, Just(1_000u64), Just(1_001u64), 1_002u64..4_000]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Streaming the capture in arbitrary slices yields exactly
            /// `verify`'s exchanges, which follow the pairing rule, and
            /// the first report per victim is exactly
            /// `responding_victims`.
            #[test]
            fn streaming_pairing_matches_verify(
                frames in proptest::collection::vec((0u8..12, 0..VICTIMS.len(), arb_gap()), 0..160),
                cuts in proptest::collection::vec(1usize..24, 1..16),
            ) {
                let mut cap = Capture::new();
                let mut ts = 0u64;
                for &(class, victim, gap) in &frames {
                    ts += gap;
                    cap.record_frame(ts, &frame_of(class, victim));
                }
                let verifier = AckVerifier::new(MacAddr::FAKE);
                let captured = cap.frames();
                let mut pairing = verifier.pairing();
                let mut streamed = Vec::new();
                let mut first_reports = Vec::new();
                let mut reported = HashSet::new();
                let mut offset = 0;
                for cut in cuts.iter().cycle() {
                    if offset >= captured.len() {
                        break;
                    }
                    let end = (offset + cut).min(captured.len());
                    for cf in &captured[offset..end] {
                        if let Some(ex) = pairing.observe(cf.ts_us, &cf.frame) {
                            if reported.insert(ex.victim) {
                                first_reports.push(ex.victim);
                            }
                            streamed.push(ex);
                        }
                    }
                    offset = end;
                }
                prop_assert_eq!(&streamed, &verifier.verify(&cap));
                prop_assert_eq!(&streamed, &rule_pairs(captured, verifier.window_us));
                first_reports.sort();
                prop_assert_eq!(first_reports, verifier.responding_victims(&cap));
            }
        }
    }
}
