//! The "why is Polite WiFi unpreventable" analysis (paper §2.2),
//! packaged for the `sifs_timing` scenario.

use polite_wifi_obs::json::{JsonWriter, ToJson};
use polite_wifi_phy::band::Band;
use polite_wifi_phy::timing::{
    self, AckPolicy, SifsFeasibility, WPA2_DECODE_MAX_US, WPA2_DECODE_MIN_US,
};

/// The full §2.2 argument, quantified.
#[derive(Debug, Clone, PartialEq)]
pub struct SifsReport {
    /// Per-band SIFS deadlines in µs.
    pub sifs_us: Vec<(String, u64)>,
    /// Feasibility sweep per band: the compliant baseline plus
    /// validate-then-ACK at each cited WPA2 decode latency.
    pub sweeps: Vec<(String, Vec<SifsFeasibility>)>,
    /// Decoder speedup required to squeeze validation into SIFS, per
    /// band, at the optimistic end of the 200–700 µs range.
    pub required_speedup: Vec<(String, f64)>,
    /// The punchline: even with an infinitely fast decoder, fake RTS
    /// frames still elicit CTS because control frames are unencryptable.
    pub rts_fallback_works: bool,
}

impl ToJson for SifsReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .key("sifs_us")
            .value(&self.sifs_us)
            .key("sweeps")
            .begin_array();
        for (band, sweep) in &self.sweeps {
            w.begin_array().string(band).begin_array();
            for f in sweep {
                w.begin_object()
                    .key("band")
                    .string(match f.band {
                        Band::Ghz2 => "Ghz2",
                        Band::Ghz5 => "Ghz5",
                    })
                    .key("deadline_us")
                    .u64(f.deadline_us)
                    .key("ack_ready_us")
                    .u64(f.ack_ready_us)
                    .key("overrun_factor")
                    .f64(f.overrun_factor)
                    .key("misses_deadline")
                    .bool(f.misses_deadline)
                    .end_object();
            }
            w.end_array().end_array();
        }
        w.end_array()
            .key("required_speedup")
            .value(&self.required_speedup)
            .key("rts_fallback_works")
            .bool(self.rts_fallback_works)
            .end_object();
    }
}

/// Builds the full report.
pub fn sifs_report() -> SifsReport {
    let bands = [(Band::Ghz2, "2.4 GHz"), (Band::Ghz5, "5 GHz")];
    SifsReport {
        sifs_us: bands
            .iter()
            .map(|(b, n)| (n.to_string(), b.sifs_us() as u64))
            .collect(),
        sweeps: bands
            .iter()
            .map(|(b, n)| (n.to_string(), timing::sweep_validate_then_ack(*b)))
            .collect(),
        required_speedup: bands
            .iter()
            .map(|(b, n)| (n.to_string(), timing::required_speedup(*b)))
            .collect(),
        rts_fallback_works: true,
    }
}

/// The worst-case overrun factor across both bands (how many times the
/// SIFS budget a validating MAC would blow through).
pub fn worst_case_overrun() -> f64 {
    [Band::Ghz2, Band::Ghz5]
        .iter()
        .map(|&b| {
            timing::analyze(
                b,
                AckPolicy::ValidateThenAck {
                    decode_us: WPA2_DECODE_MAX_US,
                },
            )
            .overrun_factor
        })
        .fold(0.0, f64::max)
}

/// The best case for the defender: fastest cited decode on the most
/// forgiving band — still infeasible.
pub fn best_case_for_defender() -> SifsFeasibility {
    timing::analyze(
        Band::Ghz5,
        AckPolicy::ValidateThenAck {
            decode_us: WPA2_DECODE_MIN_US,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_both_bands() {
        let r = sifs_report();
        assert_eq!(
            r.sifs_us,
            vec![("2.4 GHz".to_string(), 10), ("5 GHz".to_string(), 16)]
        );
        assert_eq!(r.sweeps.len(), 2);
        assert!(r.rts_fallback_works);
    }

    #[test]
    fn even_best_defender_case_misses() {
        let best = best_case_for_defender();
        assert!(best.misses_deadline);
        assert!(best.overrun_factor > 10.0);
    }

    #[test]
    fn worst_case_is_70x() {
        assert!(worst_case_overrun() >= 70.0);
    }

    #[test]
    fn every_validate_sweep_point_fails() {
        let r = sifs_report();
        for (_, sweep) in &r.sweeps {
            // First entry is the compliant baseline; all others fail.
            assert!(!sweep[0].misses_deadline);
            assert!(sweep[1..].iter().all(|f| f.misses_deadline));
        }
    }
}
