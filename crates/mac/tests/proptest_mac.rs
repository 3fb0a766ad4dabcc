//! Property tests on the MAC: Polite WiFi invariants that must hold for
//! *every* frame, behaviour profile and timing.

use polite_wifi_frame::data::DataFrame;
use polite_wifi_frame::{builder, Frame, MacAddr, ManagementBody, ManagementFrame, ReasonCode};
use polite_wifi_mac::{Behavior, MacAction, Station, StationConfig};
use polite_wifi_phy::band::Band;
use polite_wifi_phy::rate::BitRate;
use proptest::prelude::*;

fn victim_mac() -> MacAddr {
    MacAddr::new([0xf2, 0x6e, 0x0b, 0x11, 0x22, 0x33])
}

fn arb_behavior() -> impl Strategy<Value = Behavior> {
    prop_oneof![
        Just(Behavior::client()),
        Just(Behavior::quiet_ap()),
        Just(Behavior::deauthing_ap()),
        Just(Behavior::iot_power_save()),
        Just(Behavior::pmf_client()),
    ]
}

fn arb_rate() -> impl Strategy<Value = BitRate> {
    prop::sample::select(BitRate::ALL.to_vec())
}

fn arb_band() -> impl Strategy<Value = Band> {
    prop_oneof![Just(Band::Ghz2), Just(Band::Ghz5)]
}

/// Any ACK-soliciting frame addressed to the victim.
fn arb_frame_for_victim() -> impl Strategy<Value = Frame> {
    (any::<[u8; 6]>(), 0u16..4096, any::<bool>(), 0usize..200).prop_map(
        |(ta, seq, null, payload_len)| {
            let ta = MacAddr::new(ta);
            if null {
                Frame::Data(DataFrame::null(victim_mac(), ta, seq))
            } else {
                Frame::Data(DataFrame::new(
                    victim_mac(),
                    ta,
                    ta,
                    seq,
                    vec![0xab; payload_len],
                ))
            }
        },
    )
}

fn has_ack(actions: &[MacAction]) -> bool {
    actions.iter().any(|a| a.is_ack())
}

proptest! {
    /// THE invariant: any FCS-valid unicast frame addressed to a station
    /// is acknowledged at SIFS, no matter the sender, contents, profile
    /// or time of day.
    #[test]
    fn every_valid_unicast_frame_is_acked(
        frame in arb_frame_for_victim(),
        behavior in arb_behavior(),
        band in arb_band(),
        rate in arb_rate(),
        now in 0u64..1_000_000_000,
    ) {
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = behavior;
        cfg.band = band;
        let mut sta = Station::new(cfg);
        let actions = sta.on_receive(now, &frame, true, rate);
        prop_assert!(has_ack(&actions), "no ACK from {behavior:?} for {frame:?}");
        // And the ACK is scheduled exactly at SIFS.
        let delay = actions.iter().find_map(|a| match a {
            MacAction::Respond { delay_us, .. } if a.is_ack() => Some(*delay_us),
            _ => None,
        }).unwrap();
        prop_assert_eq!(delay, band.sifs_us());
    }

    /// The dual invariant: frames failing FCS are never answered.
    #[test]
    fn corrupt_frames_never_answered(
        frame in arb_frame_for_victim(),
        behavior in arb_behavior(),
        rate in arb_rate(),
    ) {
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = behavior;
        let mut sta = Station::new(cfg);
        let actions = sta.on_receive(0, &frame, false, rate);
        prop_assert!(!has_ack(&actions));
        prop_assert!(!actions.iter().any(|a| a.is_cts()));
        let any_response = actions
            .iter()
            .any(|a| matches!(a, MacAction::Respond { .. }));
        prop_assert!(!any_response);
    }

    /// FCS-failing frames stop at the low MAC: beyond never being ACKed,
    /// they must never touch the dedup cache — corrupt garbage cannot
    /// pollute receive state that later decides which *valid* frames get
    /// dropped as duplicates.
    #[test]
    fn fcs_fail_frames_never_reach_dedup(
        payload in proptest::collection::vec(any::<u8>(), 1..2000),
        seq in 0u16..4096,
        behavior in arb_behavior(),
        rate in arb_rate(),
        now in 0u64..1_000_000_000,
    ) {
        let peer = MacAddr::new([2, 0, 0, 0, 0, 9]);
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = behavior;
        let mut sta = Station::new(cfg);
        sta.associate(peer);

        let frame = Frame::Data(DataFrame::new(victim_mac(), peer, peer, seq, payload));
        let actions = sta.on_receive(now, &frame, false, rate);
        prop_assert!(!has_ack(&actions));
        prop_assert!(actions.iter().all(|a| !matches!(a, MacAction::Respond { .. })));
        prop_assert!(actions.iter().all(|a| !matches!(a, MacAction::Deliver(_))));
        prop_assert_eq!(sta.dedup_entries(), 0, "corrupt frame entered dedup");

        // Contrast: the same frame with a valid FCS does populate the
        // receive path (so the accessor above measures the right thing).
        sta.on_receive(now + 1_000, &frame, true, rate);
        prop_assert!(sta.dedup_entries() > 0, "valid frame missed dedup");
    }

    /// Frames for other addresses are ignored regardless of contents.
    #[test]
    fn frames_for_others_never_answered(
        ra in any::<[u8; 6]>(),
        ta in any::<[u8; 6]>(),
        seq in 0u16..4096,
        rate in arb_rate(),
    ) {
        let ra = MacAddr::new(ra);
        prop_assume!(ra != victim_mac() && ra.is_unicast());
        let mut sta = Station::new(StationConfig::client(victim_mac()));
        let frame = Frame::Data(DataFrame::null(ra, MacAddr::new(ta), seq));
        let actions = sta.on_receive(0, &frame, true, rate);
        prop_assert!(!has_ack(&actions));
    }

    /// RTS from any stranger elicits CTS addressed back to that stranger,
    /// with a NAV that never exceeds what the RTS reserved.
    #[test]
    fn rts_elicits_cts_with_shrinking_nav(
        ta in any::<[u8; 6]>(),
        duration in 0u16..32768,
        rate in arb_rate(),
        behavior in arb_behavior(),
    ) {
        let ta = MacAddr::new(ta);
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = behavior;
        let mut sta = Station::new(cfg);
        let rts = builder::fake_rts(victim_mac(), ta, duration);
        let actions = sta.on_receive(0, &rts, true, rate);
        let cts = actions.iter().find_map(|a| match a {
            MacAction::Respond { frame, .. } if a.is_cts() => Some(frame.clone()),
            _ => None,
        });
        let cts = cts.expect("CTS expected");
        prop_assert_eq!(cts.receiver(), Some(ta));
        if let Frame::Ctrl(polite_wifi_frame::ControlFrame::Cts { duration_us, .. }) = cts {
            prop_assert!(duration_us <= duration);
        }
    }

    /// ACK responses ride a basic (legacy) rate not faster than the
    /// eliciting frame.
    #[test]
    fn ack_rate_is_legal(rate in arb_rate()) {
        let mut sta = Station::new(StationConfig::client(victim_mac()));
        let frame = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
        let actions = sta.on_receive(0, &frame, true, rate);
        let ack_rate = actions.iter().find_map(|a| match a {
            MacAction::Respond { rate, .. } if a.is_ack() => Some(*rate),
            _ => None,
        }).unwrap();
        prop_assert_eq!(ack_rate, rate.response_rate());
        prop_assert!(ack_rate.bps() <= rate.bps());
    }

    /// Power-save: receiving N fake frames with gaps below the idle
    /// timeout keeps the station awake through the entire sequence.
    #[test]
    fn sub_timeout_gaps_prevent_sleep(gaps in proptest::collection::vec(1_000u64..99_000, 1..40)) {
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::iot_power_save();
        let mut sta = Station::new(cfg);
        let mut t = 0u64;
        for gap in gaps {
            t += gap;
            let frame = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
            sta.on_receive(t, &frame, true, BitRate::Mbps1);
            let actions = sta.poll(t + 1);
            prop_assert!(!actions.iter().any(|a| matches!(
                a,
                MacAction::Radio(polite_wifi_mac::RadioState::Sleep)
            )));
            prop_assert!(sta.is_awake());
        }
    }

    /// Spoofed deauth: a PMF station never tears down state, yet still
    /// ACKs; a non-PMF station tears down (the classic deauth attack).
    #[test]
    fn pmf_gates_deauth_handling(pmf in any::<bool>(), seq in 0u16..4096) {
        let peer = MacAddr::new([2, 0, 0, 0, 0, 9]);
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = if pmf { Behavior::pmf_client() } else { Behavior::client() };
        let mut sta = Station::new(cfg);
        sta.associate(peer);
        let deauth = builder::deauth(victim_mac(), peer, peer, seq, ReasonCode::StaLeaving);
        let actions = sta.on_receive(0, &deauth, true, BitRate::Mbps1);
        prop_assert!(has_ack(&actions));
        let delivered = actions.iter().any(|a| matches!(a, MacAction::Deliver(_)));
        prop_assert_eq!(delivered, !pmf);
    }

    /// Beacons never reset the doze timer: a station on a beaconing
    /// network still sleeps.
    #[test]
    fn beacons_do_not_starve_sleep(beacon_count in 1u64..20) {
        let ap = MacAddr::new([2, 0, 0, 0, 0, 1]);
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::iot_power_save();
        let mut sta = Station::new(cfg);
        let mut t = 0;
        for i in 0..beacon_count {
            t = i * 102_400 + 102_400;
            let beacon = Frame::Mgmt(ManagementFrame::new(
                MacAddr::BROADCAST,
                ap,
                ap,
                i as u16,
                ManagementBody::Beacon {
                    timestamp: t,
                    interval_tu: 100,
                    capabilities: 0x0411,
                    elements: vec![],
                },
            ));
            sta.on_receive(t, &beacon, true, BitRate::Mbps1);
            sta.poll(t + 5_000);
        }
        // Well past the last beacon window + idle timeout: must be asleep.
        sta.poll(t + 110_000);
        prop_assert!(!sta.is_awake());
    }
}
