//! Vital-sign (breathing) sensing through ACK CSI — §4.1's open
//! question, run end-to-end: fake frames elicit ACKs from the victim's
//! unmodified WiFi device while a person breathes nearby; the attacker
//! recovers the breathing rate from subcarrier amplitude.

use crate::elicit::{null_flood, sense, AckCsi, Target};
use polite_wifi_frame::MacAddr;
use polite_wifi_sensing::breathing::{estimate_breathing_rate, BreathingEstimate};
use polite_wifi_sensing::{sample_rate_hz, MotionScript};
use polite_wifi_sim::FaultProfile;

/// Configuration of the breathing-sensing attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VitalSignsAttack {
    /// Fake-frame rate (sensing needs 100–1000 pps per the paper).
    pub rate_pps: u32,
    /// Observation time, µs.
    pub duration_us: u64,
    /// Ground-truth breathing rate of the subject near the device.
    pub true_bpm: f64,
    /// Subcarrier to sense on.
    pub subcarrier: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Chaos profile installed on the medium.
    pub faults: FaultProfile,
}

impl Default for VitalSignsAttack {
    fn default() -> Self {
        VitalSignsAttack {
            rate_pps: 150,
            duration_us: 60_000_000,
            true_bpm: 15.0,
            subcarrier: 17,
            seed: 31,
            faults: FaultProfile::Clean,
        }
    }
}

/// What the attack recovered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VitalSignsResult {
    /// Ground truth.
    pub true_bpm: f64,
    /// CSI samples collected.
    pub samples: usize,
    /// Effective CSI sample rate.
    pub sample_rate_hz: f64,
    /// The spectral estimate, if the series was long enough.
    pub estimate: Option<BreathingEstimate>,
}

polite_wifi_obs::impl_to_json! { VitalSignsResult {
    true_bpm, samples, sample_rate_hz, estimate
} }

impl VitalSignsAttack {
    /// Runs the attack: inject → collect ACK CSI → spectral estimate.
    pub fn run(&self) -> VitalSignsResult {
        let victim_mac: MacAddr = "f2:6e:0b:77:88:99".parse().unwrap();
        let (mut sim, attacker) = null_flood(
            victim_mac,
            (0.0, 0.0),
            (7.0, 0.0),
            self.rate_pps,
            self.duration_us,
            self.seed,
            self.faults,
        );
        let script = MotionScript::breathing(self.duration_us, self.true_bpm);
        let target = Target {
            victim: victim_mac,
            script: &script,
            channel_seed: self.seed,
        };
        let AckCsi {
            times_us,
            amplitudes,
        } = sense(
            &mut sim,
            self.duration_us,
            |sim| &sim.node(attacker).capture,
            MacAddr::FAKE,
            &[target],
            self.subcarrier,
        )
        .remove(0);

        let sample_rate_hz = sample_rate_hz(&times_us);
        VitalSignsResult {
            true_bpm: self.true_bpm,
            samples: amplitudes.len(),
            sample_rate_hz,
            estimate: estimate_breathing_rate(&amplitudes, sample_rate_hz),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breathing_rate_recovered_end_to_end() {
        let result = VitalSignsAttack {
            true_bpm: 15.0,
            duration_us: 45_000_000,
            ..VitalSignsAttack::default()
        }
        .run();
        assert!(result.samples > 6_000, "samples {}", result.samples);
        let est = result.estimate.expect("series long enough");
        assert!(
            (est.bpm - 15.0).abs() <= 1.0,
            "true 15 bpm, estimated {} (confidence {})",
            est.bpm,
            est.confidence
        );
        assert!(est.is_confident());
    }

    #[test]
    fn different_rates_distinguishable() {
        let slow = VitalSignsAttack {
            true_bpm: 10.0,
            duration_us: 45_000_000,
            seed: 5,
            ..VitalSignsAttack::default()
        }
        .run();
        let fast = VitalSignsAttack {
            true_bpm: 24.0,
            duration_us: 45_000_000,
            seed: 5,
            ..VitalSignsAttack::default()
        }
        .run();
        let s = slow.estimate.unwrap().bpm;
        let f = fast.estimate.unwrap().bpm;
        assert!(f > s + 8.0, "slow {s}, fast {f}");
    }
}
