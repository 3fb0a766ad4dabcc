//! The SIFS-vs-decryption feasibility arithmetic (paper Section 2.2).
//!
//! To refuse an ACK for an invalid frame, a receiver would have to decrypt
//! and verify the frame *within SIFS*. Prior measurements put WPA2 frame
//! processing at 200–700 µs — one to two orders of magnitude over budget.
//! This module encodes that argument so `politewifi sifs` can print it,
//! and models a hypothetical "validate-then-ACK" MAC to quantify
//! how badly it violates the standard.

use crate::band::Band;

/// Lower bound on WPA2 frame decode/verify latency (µs), per the studies
/// the paper cites [15, 17, 22].
pub const WPA2_DECODE_MIN_US: u64 = 200;
/// Upper bound on WPA2 frame decode/verify latency (µs).
pub const WPA2_DECODE_MAX_US: u64 = 700;

/// A receiver design, for the ablation the paper argues about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPolicy {
    /// Real 802.11: check FCS + receiver address, ACK at SIFS. Polite.
    AckBeforeValidate,
    /// Hypothetical: decrypt and validate first, then ACK. Blows the SIFS
    /// deadline by construction.
    ValidateThenAck {
        /// Assumed decode latency in microseconds.
        decode_us: u64,
    },
}

/// The verdict on whether a policy can meet the standard's deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SifsFeasibility {
    /// The band analysed.
    pub band: Band,
    /// The deadline (SIFS) in µs.
    pub deadline_us: u64,
    /// When the ACK would actually be ready, in µs after frame end.
    pub ack_ready_us: u64,
    /// How many times over budget (1.0 = exactly on time).
    pub overrun_factor: f64,
    /// Whether the transmitter would have already retransmitted (i.e. the
    /// ACK is useless even if eventually sent).
    pub misses_deadline: bool,
}

/// Analyses whether `policy` can produce a standard-compliant ACK on
/// `band`. PHY/MAC header processing for the compliant path is folded into
/// the SIFS itself, as the standard intends.
pub fn analyze(band: Band, policy: AckPolicy) -> SifsFeasibility {
    let deadline_us = band.sifs_us() as u64;
    let ack_ready_us = match policy {
        AckPolicy::AckBeforeValidate => deadline_us,
        AckPolicy::ValidateThenAck { decode_us } => decode_us,
    };
    SifsFeasibility {
        band,
        deadline_us,
        ack_ready_us,
        overrun_factor: ack_ready_us as f64 / deadline_us as f64,
        misses_deadline: ack_ready_us > deadline_us,
    }
}

/// Sweeps the cited WPA2 decode-latency range and returns the feasibility
/// verdicts for a validate-then-ACK MAC, plus the compliant baseline.
pub fn sweep_validate_then_ack(band: Band) -> Vec<SifsFeasibility> {
    let mut out = vec![analyze(band, AckPolicy::AckBeforeValidate)];
    let mut decode = WPA2_DECODE_MIN_US;
    while decode <= WPA2_DECODE_MAX_US {
        out.push(analyze(
            band,
            AckPolicy::ValidateThenAck { decode_us: decode },
        ));
        decode += 100;
    }
    out
}

/// How much faster WPA2 decoding would need to become for validation to
/// fit inside SIFS, at the *optimistic* end of the cited range.
pub fn required_speedup(band: Band) -> f64 {
    WPA2_DECODE_MIN_US as f64 / band.sifs_us() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compliant_policy_meets_deadline() {
        let v = analyze(Band::Ghz2, AckPolicy::AckBeforeValidate);
        assert!(!v.misses_deadline);
        assert!((v.overrun_factor - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validate_then_ack_always_misses() {
        for band in [Band::Ghz2, Band::Ghz5] {
            for decode in [WPA2_DECODE_MIN_US, 450, WPA2_DECODE_MAX_US] {
                let v = analyze(band, AckPolicy::ValidateThenAck { decode_us: decode });
                assert!(v.misses_deadline, "{band:?} decode={decode}");
            }
        }
    }

    #[test]
    fn overrun_is_orders_of_magnitude() {
        // Paper: "orders of magnitude longer than SIFS".
        let v = analyze(
            Band::Ghz2,
            AckPolicy::ValidateThenAck {
                decode_us: WPA2_DECODE_MIN_US,
            },
        );
        assert!(v.overrun_factor >= 20.0);
        let v = analyze(
            Band::Ghz2,
            AckPolicy::ValidateThenAck {
                decode_us: WPA2_DECODE_MAX_US,
            },
        );
        assert!(v.overrun_factor >= 70.0);
    }

    #[test]
    fn required_speedup_is_20x_or_worse() {
        assert!(required_speedup(Band::Ghz2) >= 20.0);
        assert!(required_speedup(Band::Ghz5) >= 12.0);
    }

    #[test]
    fn sweep_includes_baseline_and_range() {
        let sweep = sweep_validate_then_ack(Band::Ghz2);
        assert_eq!(sweep.len(), 1 + 6); // baseline + 200..=700 step 100
        assert!(!sweep[0].misses_deadline);
        assert!(sweep[1..].iter().all(|v| v.misses_deadline));
    }
}
