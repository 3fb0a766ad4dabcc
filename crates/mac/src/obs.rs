//! Observability taps for the MAC layer.
//!
//! [`observe_actions`] inspects the [`MacAction`]s a station emitted and
//! records the metrics the paper's claims rest on: how fast the ACK/CTS
//! response was scheduled relative to the SIFS deadline (the whole point
//! of Polite WiFi is that this never waits for validation), and what the
//! higher layers did with the frame afterwards (deliver / discard and
//! why). The simulator calls this once per action batch.

use crate::actions::MacAction;
use polite_wifi_obs::Obs;

/// A response kind's metric names: the scheduled counter, the global
/// turnaround histogram and its `.<class>` copies (`ghz2`, `ghz5`,
/// `other`).
type ResponseNames = (&'static str, &'static str, [&'static str; 3]);

const ACK_NAMES: ResponseNames = (
    "mac.acks_scheduled",
    "mac.ack_turnaround_us",
    [
        "mac.ack_turnaround_us.ghz2",
        "mac.ack_turnaround_us.ghz5",
        "mac.ack_turnaround_us.other",
    ],
);

const CTS_NAMES: ResponseNames = (
    "mac.cts_scheduled",
    "mac.cts_turnaround_us",
    [
        "mac.cts_turnaround_us.ghz2",
        "mac.cts_turnaround_us.ghz5",
        "mac.cts_turnaround_us.other",
    ],
);

const RESPONSE_NAMES: ResponseNames = (
    "mac.responses_scheduled",
    "mac.response_turnaround_us",
    [
        "mac.response_turnaround_us.ghz2",
        "mac.response_turnaround_us.ghz5",
        "mac.response_turnaround_us.other",
    ],
);

/// Records counters and histograms for one batch of MAC actions.
///
/// `sifs_us` is the responding station's SIFS (band-dependent: 10 µs at
/// 2.4 GHz, 16 µs at 5 GHz). Metric names:
///
/// * `mac.acks_scheduled`, `mac.cts_scheduled` — responses queued;
/// * `mac.ack_turnaround_us`, `mac.cts_turnaround_us` — histogram of the
///   scheduled response delay;
/// * `mac.sifs_deadline_met` / `mac.sifs_deadline_missed` — whether the
///   response made the SIFS deadline (misses come from misbehaving
///   profiles, e.g. `validate-then-ACK` ablations);
/// * `mac.delivered`, `mac.enqueued` — higher-layer outcomes;
/// * `mac.discard.<reason>` — per-[`DiscardReason`](crate::DiscardReason)
///   discard counts.
///
/// Turnaround histograms are recorded twice: once globally and once under
/// a `.<class>` suffix keyed by the responder's device class (its band,
/// inferred from `sifs_us`: 10 µs → `ghz2`, 16 µs → `ghz5`), so
/// `trace_query` can report SIFS-turnaround percentiles per class.
pub fn observe_actions(obs: &mut Obs, sifs_us: u32, actions: &[MacAction]) {
    let class = match sifs_us {
        10 => 0,
        16 => 1,
        _ => 2,
    };
    for action in actions {
        match action {
            MacAction::Respond { delay_us, .. } => {
                let (sched, turnaround, by_class) = if action.is_ack() {
                    ACK_NAMES
                } else if action.is_cts() {
                    CTS_NAMES
                } else {
                    RESPONSE_NAMES
                };
                obs.incr(sched);
                obs.observe(turnaround, *delay_us as u64);
                obs.observe(by_class[class], *delay_us as u64);
                if *delay_us <= sifs_us {
                    obs.incr("mac.sifs_deadline_met");
                } else {
                    obs.incr("mac.sifs_deadline_missed");
                }
            }
            MacAction::Enqueue { .. } => obs.incr("mac.enqueued"),
            MacAction::Deliver(_) => obs.incr("mac.delivered"),
            MacAction::Discard { reason } => obs.incr(reason.metric_name()),
            MacAction::Radio(_) => {} // dwell accounting lives in the simulator
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::DiscardReason;
    use polite_wifi_frame::{builder, MacAddr};
    use polite_wifi_obs::ObsConfig;
    use polite_wifi_phy::rate::BitRate;

    #[test]
    fn ack_at_sifs_meets_deadline() {
        let mut obs = Obs::with_config(ObsConfig::default());
        let actions = vec![
            MacAction::Respond {
                frame: builder::ack(MacAddr::FAKE),
                delay_us: 10,
                rate: BitRate::Mbps1,
            },
            MacAction::Discard {
                reason: DiscardReason::NotAssociated,
            },
        ];
        observe_actions(&mut obs, 10, &actions);
        assert_eq!(obs.counters.get("mac.acks_scheduled"), 1);
        assert_eq!(obs.counters.get("mac.sifs_deadline_met"), 1);
        assert_eq!(obs.counters.get("mac.sifs_deadline_missed"), 0);
        assert_eq!(obs.counters.get("mac.discard.not_associated"), 1);
        let h = obs.histograms.get("mac.ack_turnaround_us").unwrap();
        assert_eq!((h.count, h.min, h.max), (1, 10, 10));
        let per_class = obs.histograms.get("mac.ack_turnaround_us.ghz2").unwrap();
        assert_eq!((per_class.count, per_class.min, per_class.max), (1, 10, 10));
    }

    #[test]
    fn turnaround_class_follows_sifs() {
        let mut obs = Obs::with_config(ObsConfig::default());
        let actions = vec![MacAction::Respond {
            frame: builder::ack(MacAddr::FAKE),
            delay_us: 16,
            rate: BitRate::Mbps1,
        }];
        observe_actions(&mut obs, 16, &actions);
        assert!(obs.histograms.get("mac.ack_turnaround_us.ghz5").is_some());
        assert!(obs.histograms.get("mac.ack_turnaround_us.ghz2").is_none());
    }

    #[test]
    fn per_class_names_extend_the_global_name() {
        for (_, turnaround, by_class) in [ACK_NAMES, CTS_NAMES, RESPONSE_NAMES] {
            for (name, class) in by_class.iter().zip(["ghz2", "ghz5", "other"]) {
                assert_eq!(*name, format!("{turnaround}.{class}"));
            }
        }
    }

    #[test]
    fn late_ack_misses_deadline() {
        let mut obs = Obs::with_config(ObsConfig::default());
        let actions = vec![MacAction::Respond {
            frame: builder::ack(MacAddr::FAKE),
            delay_us: 2_000, // a validate-then-ACK ablation profile
            rate: BitRate::Mbps1,
        }];
        observe_actions(&mut obs, 10, &actions);
        assert_eq!(obs.counters.get("mac.sifs_deadline_missed"), 1);
    }

    #[test]
    fn cts_and_outcomes_counted() {
        let mut obs = Obs::with_config(ObsConfig::default());
        let actions = vec![
            MacAction::Respond {
                frame: builder::cts(MacAddr::FAKE, 100),
                delay_us: 10,
                rate: BitRate::Mbps1,
            },
            MacAction::Deliver(builder::ack(MacAddr::FAKE)),
        ];
        observe_actions(&mut obs, 10, &actions);
        assert_eq!(obs.counters.get("mac.cts_scheduled"), 1);
        assert_eq!(obs.counters.get("mac.delivered"), 1);
    }
}
