//! The paced fake-frame stream.
//!
//! Plays the role of the paper's Scapy program on the RTL8812AU dongle:
//! craft frames whose only valid field is the destination address, and
//! send them at a victim at a fixed rate. Every paced stream in the
//! repository is an [`InjectionPlan`]: the paper's null-data and RTS
//! fakes, the related-work deauthentication and NAV floods, and the
//! legitimate QoS traffic those attacks disrupt. [`InjectionPlan::schedule`]
//! holds the one pacing rule, frame `i` at `start + i·(1 s / rate)`.

use crate::attack::Attack;
use polite_wifi_frame::{builder, Frame, MacAddr, ReasonCode};
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sim::{NodeId, Simulator};

/// The highest rate a stream may ask for: the gap between frames is
/// then 1 µs, and any higher rate would round it to 0.
pub const MAX_RATE_PPS: u32 = 1_000_000;

/// The most frames one stream may schedule, about 85× the largest
/// stream a committed scenario runs (Figure 6's 900 pps for 13 s).
pub const MAX_STREAM_FRAMES: u64 = 1_000_000;

/// The largest QoS payload a stream may carry: 802.11's maximum MSDU.
pub const MAX_PAYLOAD_LEN: usize = 2_304;

/// What frame a stream carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionKind {
    /// Unencrypted null-function data frames (the paper's default).
    NullData,
    /// Fake RTS frames reserving `nav_us` of NAV: 248 µs for the §2.2
    /// fallback that defeats even a hypothetical validate-before-ACK
    /// MAC, up to 32,767 µs for a NAV-stuffing denial of service.
    Rts {
        /// The NAV reservation each RTS claims, µs.
        nav_us: u16,
    },
    /// Unprotected deauthentication frames (reason
    /// `PrevAuthNotValid`, sequence number `i & 0x0fff`) whose forged
    /// transmitter doubles as the BSSID: arXiv 2602.23513's flood.
    Deauth,
    /// Protected QoS data (sequence number `i as u16`): legitimate
    /// traffic from the transmitter to the receiver.
    QosData {
        /// Ciphertext length per frame, bytes.
        payload_len: usize,
    },
}

/// A planned paced stream.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionPlan {
    /// Receiver address.
    pub victim: MacAddr,
    /// Transmitter address: forged for an attack (`aa:bb:bb:bb:bb:bb`
    /// in the paper), the sender's own for legitimate traffic.
    pub forged_ta: MacAddr,
    /// Frame kind.
    pub kind: InjectionKind,
    /// Injection rate in frames per second.
    pub rate_pps: u32,
    /// Start time in microseconds.
    pub start_us: u64,
    /// Stream duration in microseconds.
    pub duration_us: u64,
    /// Transmit bit rate.
    pub bitrate: BitRate,
}

/// Frames a stream at `rate_pps` for `duration_us` paces,
/// ⌊duration·rate / 1 s⌋, computed without overflow.
fn paced_frames(rate_pps: u32, duration_us: u64) -> u64 {
    let frames = u128::from(duration_us) * u128::from(rate_pps) / 1_000_000;
    u64::try_from(frames).unwrap_or(u64::MAX)
}

impl InjectionPlan {
    /// The paper's keystroke-attack stream: 150 null frames per second.
    pub fn keystroke_stream(victim: MacAddr, duration_us: u64) -> InjectionPlan {
        InjectionPlan {
            victim,
            forged_ta: MacAddr::FAKE,
            kind: InjectionKind::NullData,
            rate_pps: 150,
            start_us: 0,
            duration_us,
            bitrate: BitRate::Mbps1,
        }
    }

    /// Checks a stream's pace against [`MAX_RATE_PPS`], then
    /// [`MAX_STREAM_FRAMES`].
    pub fn check_pace(rate_pps: u32, duration_us: u64) -> Result<(), String> {
        let frames = paced_frames(rate_pps, duration_us);
        if rate_pps > MAX_RATE_PPS {
            Err(format!(
                "paces {rate_pps} frames/s, above the {MAX_RATE_PPS} frames/s limit"
            ))
        } else if frames > MAX_STREAM_FRAMES {
            Err(format!(
                "paces {frames} frames, above the {MAX_STREAM_FRAMES}-frame limit"
            ))
        } else {
            Ok(())
        }
    }

    /// Number of frames the plan will inject.
    pub fn frame_count(&self) -> u64 {
        paced_frames(self.rate_pps, self.duration_us)
    }

    /// The injection timestamps, evenly spaced.
    pub fn schedule(&self) -> impl Iterator<Item = u64> {
        let gap = 1_000_000 / u64::from(self.rate_pps.max(1));
        let start_us = self.start_us;
        (0..self.frame_count()).map(move |i| start_us.saturating_add(i * gap))
    }

    /// Builds frame `i` of the stream.
    pub fn frame(&self, i: u64) -> Frame {
        let (to, ta) = (self.victim, self.forged_ta);
        match self.kind {
            InjectionKind::NullData => builder::fake_null_frame(to, ta),
            InjectionKind::Rts { nav_us } => builder::fake_rts(to, ta, nav_us),
            InjectionKind::Deauth => builder::deauth(
                to,
                ta,
                ta,
                (i & 0x0fff) as u16,
                ReasonCode::PrevAuthNotValid,
            ),
            InjectionKind::QosData { payload_len } => {
                builder::protected_qos_data(to, ta, ta, i as u16, payload_len)
            }
        }
    }
}

/// A paced stream launches by scheduling every frame from `from`. It
/// leaves the sender's retries as its topology set them.
impl Attack for InjectionPlan {
    fn launch(&self, sim: &mut Simulator, from: NodeId) -> u64 {
        for (i, t) in self.schedule().enumerate() {
            sim.inject(t, from, self.frame(i as u64), self.bitrate);
        }
        self.frame_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_mac::StationConfig;
    use polite_wifi_sim::SimConfig;

    fn victim_mac() -> MacAddr {
        "f2:6e:0b:11:22:33".parse().unwrap()
    }

    fn plan(kind: InjectionKind, rate_pps: u32, duration_us: u64) -> InjectionPlan {
        InjectionPlan {
            victim: victim_mac(),
            forged_ta: MacAddr::FAKE,
            kind,
            rate_pps,
            start_us: 0,
            duration_us,
            bitrate: BitRate::Mbps1,
        }
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        let plan = InjectionPlan {
            start_us: 500,
            ..plan(InjectionKind::NullData, 100, 1_000_000)
        };
        let s: Vec<u64> = plan.schedule().collect();
        assert_eq!(s.len(), 100);
        assert_eq!(s[0], 500);
        assert!(s.windows(2).all(|w| w[1] - w[0] == 10_000));
    }

    #[test]
    fn zero_rate_plans_nothing() {
        let plan = plan(InjectionKind::NullData, 0, 1_000_000);
        assert_eq!(plan.frame_count(), 0);
        assert!(plan.schedule().next().is_none());
    }

    #[test]
    fn keystroke_stream_matches_paper_rate() {
        let plan = InjectionPlan::keystroke_stream(victim_mac(), 10_000_000);
        assert_eq!(plan.rate_pps, 150);
        assert_eq!(plan.frame_count(), 1500);
        assert_eq!(plan.forged_ta, MacAddr::FAKE);
    }

    #[test]
    fn frame_count_does_not_overflow() {
        let huge = plan(InjectionKind::NullData, u32::MAX, u64::MAX);
        assert_eq!(huge.frame_count(), u64::MAX);
        let hostile = plan(InjectionKind::NullData, 1_000_000, 1_000_000_000_000);
        assert_eq!(hostile.frame_count(), 1_000_000_000_000);
    }

    #[test]
    fn pace_bounds_are_checked() {
        assert_eq!(InjectionPlan::check_pace(900, 13_000_000), Ok(()));
        assert_eq!(InjectionPlan::check_pace(MAX_RATE_PPS, 1_000_000), Ok(()));
        let fast = InjectionPlan::check_pace(MAX_RATE_PPS + 1, 1_000).unwrap_err();
        assert!(fast.contains("1000001 frames/s"), "{fast}");
        let long = InjectionPlan::check_pace(1_000_000, 1_000_000_000_000).unwrap_err();
        assert!(long.contains("1000000000000 frames"), "{long}");
    }

    #[test]
    fn frames_number_the_stream() {
        let deauth = plan(InjectionKind::Deauth, 10, 1_000_000);
        assert_eq!(
            deauth.frame(0x1234),
            builder::deauth(
                victim_mac(),
                MacAddr::FAKE,
                MacAddr::FAKE,
                0x0234,
                ReasonCode::PrevAuthNotValid
            )
        );
        let qos = plan(InjectionKind::QosData { payload_len: 200 }, 10, 1_000_000);
        assert_eq!(
            qos.frame(70_000),
            builder::protected_qos_data(victim_mac(), MacAddr::FAKE, MacAddr::FAKE, 4_464, 200)
        );
        let rts = plan(InjectionKind::Rts { nav_us: 32_767 }, 10, 1_000_000);
        assert_eq!(
            rts.frame(3),
            builder::fake_rts(victim_mac(), MacAddr::FAKE, 32_767)
        );
    }

    #[test]
    fn executes_against_simulator() {
        let mut sim = Simulator::new(SimConfig::default(), 5);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        sim.set_retries(attacker, false);
        let n = plan(InjectionKind::NullData, 50, 1_000_000).launch(&mut sim, attacker);
        assert_eq!(n, 50);
        sim.run_until(2_000_000);
        assert_eq!(sim.station(victim).stats.acks_sent, 50);
    }

    #[test]
    fn rts_plan_elicits_cts() {
        let mut sim = Simulator::new(SimConfig::default(), 5);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        sim.set_retries(attacker, false);
        plan(InjectionKind::Rts { nav_us: 248 }, 20, 500_000).launch(&mut sim, attacker);
        sim.run_until(1_000_000);
        assert_eq!(sim.station(victim).stats.cts_sent, 10);
        assert_eq!(sim.station(victim).stats.acks_sent, 0);
    }
}
