//! Vital-sign (breathing) sensing through ACK CSI — §4.1's open
//! question, run end-to-end: fake frames elicit ACKs from the victim's
//! unmodified WiFi device while a person breathes nearby; the attacker
//! recovers the breathing rate from subcarrier amplitude.

use crate::injector::{FakeFrameInjector, InjectionKind, InjectionPlan};
use polite_wifi_frame::{ControlFrame, Frame, MacAddr};
use polite_wifi_mac::StationConfig;
use polite_wifi_obs::json::{JsonWriter, ToJson};
use polite_wifi_phy::csi::CsiChannel;
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sensing::breathing::{estimate_breathing_rate, BreathingEstimate};
use polite_wifi_sensing::{sample_rate_hz, MotionScript};
use polite_wifi_sim::{FaultProfile, SimConfig, Simulator};

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

impl ToJson for VitalSignsResult {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .key("true_bpm")
            .f64(self.true_bpm)
            .key("samples")
            .value(&self.samples)
            .key("sample_rate_hz")
            .f64(self.sample_rate_hz)
            .key("estimate");
        match &self.estimate {
            Some(e) => w
                .begin_object()
                .key("bpm")
                .f64(e.bpm)
                .key("confidence")
                .f64(e.confidence)
                .end_object(),
            None => w.null(),
        };
        w.end_object();
    }
}

impl VitalSignsAttack {
    /// Runs the attack: inject → collect ACK CSI → spectral estimate.
    pub fn run(&self) -> VitalSignsResult {
        let victim_mac: MacAddr = "f2:6e:0b:77:88:99".parse().unwrap();
        let mut sim = Simulator::new(SimConfig::default(), self.seed);
        let _victim = sim.add_node(StationConfig::client(victim_mac), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (7.0, 0.0));
        sim.set_monitor(attacker, true);
        sim.install_faults(&self.faults.plan());

        let plan = InjectionPlan {
            victim: victim_mac,
            forged_ta: MacAddr::FAKE,
            kind: InjectionKind::NullData,
            rate_pps: self.rate_pps,
            start_us: 0,
            duration_us: self.duration_us,
            bitrate: BitRate::Mbps1,
        };
        FakeFrameInjector::new(attacker).execute(&mut sim, &plan);
        sim.run_until(self.duration_us + 100_000);

        let script = MotionScript::breathing(self.duration_us, self.true_bpm);
        let mut times_us = Vec::new();
        let mut intensities = Vec::new();
        for cf in sim.node(attacker).capture.frames() {
            if matches!(&cf.frame, Frame::Ctrl(ControlFrame::Ack { ra }) if *ra == MacAddr::FAKE) {
                times_us.push(cf.ts_us);
                intensities.push(script.intensity_at(cf.ts_us));
            }
        }
        // One render of the sensed subcarrier over the whole ACK stream
        // (bit-identical to the per-ACK sampling loop it replaced).
        let mut channel = CsiChannel::new(self.seed);
        let amplitudes = channel.sample_amplitudes(&intensities, self.subcarrier);

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
