//! RSSI-based ranging to an unassociated victim — the direction the
//! Wi-Peep follow-up took Polite WiFi.
//!
//! Because the victim answers every fake frame, the attacker can collect
//! an arbitrarily dense stream of ACK RSSI samples and invert the path
//! loss model to estimate distance. Per-frame fading makes single
//! samples noisy; aggregating the elicited stream (median of dB values)
//! is exactly the lever Polite WiFi provides — the attacker chooses the
//! sample count.

use polite_wifi_frame::{ControlFrame, Frame, MacAddr};
use polite_wifi_pcap::capture::Capture;
use polite_wifi_phy::pathloss::PathLoss;

/// A distance estimate from elicited ACK RSSI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeEstimate {
    /// Number of ACK RSSI samples used.
    pub samples: usize,
    /// Median received power, dBm.
    pub median_rssi_dbm: f64,
    /// Estimated distance, metres.
    pub distance_m: f64,
}

/// Inverts a path-loss model: the distance at which `model` predicts
/// `loss_db` of attenuation. Monotonicity (tested in the PHY crate)
/// makes bisection exact.
pub fn invert_path_loss(model: &PathLoss, loss_db: f64) -> f64 {
    let (mut lo, mut hi) = (0.1f64, 10_000.0f64);
    if model.loss_db(lo) >= loss_db {
        return lo;
    }
    if model.loss_db(hi) <= loss_db {
        return hi;
    }
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if model.loss_db(mid) < loss_db {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// Estimates the distance to the victim from the ACKs in a capture.
///
/// * `attacker` — the forged address ACKs come back to;
/// * `victim_tx_power_dbm` — assumed victim transmit power (20 dBm is
///   the common default; errors here shift the estimate multiplicatively);
/// * `model` — the propagation model to invert.
pub fn estimate_range(
    capture: &Capture,
    attacker: MacAddr,
    victim_tx_power_dbm: f64,
    model: &PathLoss,
) -> Option<RangeEstimate> {
    let mut rssi: Vec<f64> = capture
        .frames()
        .iter()
        .filter(|cf| matches!(&cf.frame, Frame::Ctrl(ControlFrame::Ack { ra }) if *ra == attacker))
        .filter_map(|cf| cf.radiotap.as_ref()?.antenna_signal_dbm)
        .map(|s| s as f64)
        .collect();
    if rssi.is_empty() {
        return None;
    }
    rssi.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_rssi_dbm = rssi[rssi.len() / 2];
    let loss_db = victim_tx_power_dbm - median_rssi_dbm;
    Some(RangeEstimate {
        samples: rssi.len(),
        median_rssi_dbm,
        distance_m: invert_path_loss(model, loss_db),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elicit::null_flood;
    use polite_wifi_sim::FaultProfile;

    #[test]
    fn inversion_matches_forward_model() {
        for model in [PathLoss::free_space_2ghz4(), PathLoss::indoor_2ghz4()] {
            for d in [0.5, 2.0, 10.0, 50.0, 300.0] {
                let loss = model.loss_db(d);
                let back = invert_path_loss(&model, loss);
                assert!(
                    (back - d).abs() / d < 1e-6,
                    "{model:?}: {d} m → {loss} dB → {back} m"
                );
            }
        }
    }

    #[test]
    fn inversion_clamps_extremes() {
        let m = PathLoss::indoor_2ghz4();
        assert_eq!(invert_path_loss(&m, -100.0), 0.1);
        assert_eq!(invert_path_loss(&m, 1e6), 10_000.0);
    }

    fn range_to_victim_at(true_distance: f64, seed: u64) -> RangeEstimate {
        let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
        let (mut sim, attacker) = null_flood(
            victim_mac,
            (true_distance, 0.0),
            (0.0, 0.0),
            200,
            3_000_000,
            seed,
            FaultProfile::Clean,
        );
        sim.run_until(4_000_000);
        let model = sim.path_loss();
        estimate_range(&sim.node(attacker).capture, MacAddr::FAKE, 20.0, &model)
            .expect("ACKs collected")
    }

    #[test]
    fn ranging_recovers_distance_within_tolerance() {
        for true_d in [3.0, 8.0, 15.0] {
            let est = range_to_victim_at(true_d, 17);
            assert!(est.samples > 400, "samples {}", est.samples);
            let rel = (est.distance_m - true_d).abs() / true_d;
            // Rician fading (K=8) plus 1 dB RSSI quantisation: the
            // median-aggregated estimate lands well within ±40%.
            assert!(
                rel < 0.4,
                "true {true_d} m, estimated {:.2} m ({} samples)",
                est.distance_m,
                est.samples
            );
        }
    }

    #[test]
    fn farther_victims_estimate_farther() {
        let near = range_to_victim_at(3.0, 23);
        let far = range_to_victim_at(20.0, 23);
        assert!(far.distance_m > 2.0 * near.distance_m);
        assert!(far.median_rssi_dbm < near.median_rssi_dbm);
    }

    #[test]
    fn empty_capture_gives_none() {
        let cap = Capture::new();
        assert!(estimate_range(&cap, MacAddr::FAKE, 20.0, &PathLoss::indoor_2ghz4()).is_none());
    }
}
