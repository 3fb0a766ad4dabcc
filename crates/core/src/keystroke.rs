//! The CSI keystroke/activity attack (paper §4.1, Figure 5).
//!
//! The attacker (an ESP32-class device in a different room, with no key
//! material for the victim's network) sends 150 fake frames per second to
//! the victim tablet and measures the CSI of the returned ACKs. Human
//! activity around the tablet modulates the channel, and the amplitude
//! series of a single subcarrier already separates idle / pickup / hold /
//! typing.

use crate::attack::Attack;
use crate::elicit::{sense, AckCsi, Target};
use crate::injector::InjectionPlan;
use polite_wifi_frame::MacAddr;
use polite_wifi_harness::ScenarioBuilder;
use polite_wifi_sensing::keystroke::{
    detect_keystrokes, score_detections, KeystrokeDetectorConfig,
};
use polite_wifi_sensing::{filter, sample_rate_hz, MotionScript};
use polite_wifi_sim::FaultProfile;
use std::ops::Range;

/// Configuration of the keystroke-inference attack.
#[derive(Debug, Clone, PartialEq)]
pub struct KeystrokeAttack {
    /// Fake-frame rate (the paper uses 150/s).
    pub rate_pps: u32,
    /// Ground-truth motion around the victim.
    pub script: MotionScript,
    /// Subcarrier to report (the paper plots 17).
    pub subcarrier: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Channel/device fault profile the scenario runs under.
    pub faults: FaultProfile,
}

impl KeystrokeAttack {
    /// The Figure 5 experiment, verbatim.
    pub fn figure5(seed: u64) -> KeystrokeAttack {
        KeystrokeAttack {
            rate_pps: 150,
            script: MotionScript::figure5(),
            subcarrier: 17,
            seed,
            faults: FaultProfile::Clean,
        }
    }
}

/// Per-phase summary statistics for the reported subcarrier.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase label from the script.
    pub label: String,
    /// Phase boundaries, µs.
    pub start_us: u64,
    /// End, µs.
    pub end_us: u64,
    /// Samples that fell in the phase.
    pub samples: usize,
    /// Mean amplitude.
    pub mean: f64,
    /// Amplitude standard deviation (the Figure 5 separator).
    pub std_dev: f64,
}

polite_wifi_obs::impl_to_json! { PhaseStat { label, start_us, end_us, samples, mean, std_dev } }

/// Everything the attack recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct KeystrokeAttackResult {
    /// Fake frames injected.
    pub fakes_sent: u64,
    /// ACKs measured (CSI samples).
    pub acks_measured: u64,
    /// Effective CSI sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Timestamps of the CSI samples, µs.
    pub times_us: Vec<u64>,
    /// Conditioned amplitude series of the chosen subcarrier.
    pub amplitudes: Vec<f64>,
    /// Per-phase statistics.
    pub phase_stats: Vec<PhaseStat>,
    /// Keystroke detection: (hits, misses, false alarms) against the
    /// script's ground truth, within ±tolerance samples.
    pub keystroke_score: (usize, usize, usize),
    /// Number of ground-truth keystrokes.
    pub keystrokes_truth: usize,
}

impl KeystrokeAttack {
    /// Runs the attack end-to-end: simulator → ACK stream → CSI → stats.
    pub fn run(&self) -> KeystrokeAttackResult {
        let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
        let ap_mac: MacAddr = "68:02:b8:00:00:02".parse().unwrap();

        let mut sb = ScenarioBuilder::new().faults(self.faults);
        let ap = sb.access_point(ap_mac, "PrivateNet", (2.0, 2.0));
        let victim = sb.client(victim_mac, (0.0, 0.0));
        sb.link(victim, ap);
        // The attacker sits in a different room: ~8 m away through the
        // indoor path-loss model.
        let attacker = sb.monitor(MacAddr::FAKE, (8.0, 1.0));
        sb.retries(attacker, false);
        let mut sim = sb.build_with_seed(self.seed).sim;

        let duration_us = self.script.duration_us();
        let plan = InjectionPlan {
            rate_pps: self.rate_pps,
            ..InjectionPlan::keystroke_stream(victim_mac, duration_us)
        };
        let fakes_sent = plan.launch(&mut sim, attacker);

        // The ACKs the fakes elicited, and the CSI sampled at each,
        // driven by the ground-truth motion. The channel's AR(1) memory
        // is calibrated near 150 Hz — the rate this attack produces.
        let target = Target {
            victim: victim_mac,
            script: &self.script,
            channel_seed: self.seed,
        };
        let AckCsi {
            times_us: ack_times,
            amplitudes: raw,
        } = sense(
            &mut sim,
            duration_us,
            |sim| &sim.node(attacker).capture,
            MacAddr::FAKE,
            &[target],
            self.subcarrier,
        )
        .remove(0);
        let amplitudes = filter::condition(&raw);

        // Per-phase stats.
        let phase_stats = (self.script.phases.iter())
            .map(|phase| {
                let vals = &amplitudes[window(&ack_times, phase.start_us, phase.end_us)];
                PhaseStat {
                    label: phase.label.clone(),
                    start_us: phase.start_us,
                    end_us: phase.end_us,
                    samples: vals.len(),
                    mean: if vals.is_empty() {
                        0.0
                    } else {
                        vals.iter().sum::<f64>() / vals.len() as f64
                    },
                    std_dev: polite_wifi_phy::csi::std_dev(vals),
                }
            })
            .collect();

        // Keystroke detection inside the typing phase.
        let keystroke_score = self.score_keystrokes(&ack_times, &amplitudes);

        KeystrokeAttackResult {
            fakes_sent,
            acks_measured: ack_times.len() as u64,
            sample_rate_hz: sample_rate_hz(&ack_times),
            times_us: ack_times,
            amplitudes,
            phase_stats,
            keystroke_score,
            keystrokes_truth: self.script.keystrokes_us.len(),
        }
    }

    fn score_keystrokes(&self, times_us: &[u64], amplitudes: &[f64]) -> (usize, usize, usize) {
        if self.script.keystrokes_us.is_empty() {
            return (0, 0, 0);
        }
        // Work within the typing phase only.
        let typing = self
            .script
            .phases
            .iter()
            .find(|p| p.label == "typing")
            .expect("script has keystrokes but no typing phase");
        let typing = window(times_us, typing.start_us, typing.end_us);
        if typing.is_empty() {
            return (0, self.script.keystrokes_us.len(), 0);
        }
        // Typing rides on a non-zero base motion, so the burst threshold
        // is gentler than the quiet-scene default.
        let detector = KeystrokeDetectorConfig {
            threshold_factor: 2.2,
            ..KeystrokeDetectorConfig::default()
        };
        let first = typing.start;
        let events = detect_keystrokes(&amplitudes[typing], &detector);
        // Ground truth, as indices into the typing window.
        let truth: Vec<usize> = self
            .script
            .keystrokes_us
            .iter()
            .filter_map(|&k| {
                times_us
                    .iter()
                    .position(|&t| t >= k)
                    .map(|i| i.saturating_sub(first))
            })
            .collect();
        // Tolerance: half the keystroke spacing in samples.
        let tolerance = (self.rate_pps as usize / 8).max(5);
        score_detections(&events, &truth, tolerance)
    }
}

/// The indices of the samples in `[start_us, end_us)`: one run, since
/// ACK times ascend.
fn window(times_us: &[u64], start_us: u64, end_us: u64) -> Range<usize> {
    times_us.partition_point(|&t| t < start_us)..times_us.partition_point(|&t| t < end_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_sensing::classify::ActivityClass;

    fn result() -> KeystrokeAttackResult {
        KeystrokeAttack::figure5(3).run()
    }

    #[test]
    fn attack_measures_most_acks() {
        let r = result();
        // 150 pps × 45 s = 6750 fakes; the channel is clean, so nearly
        // all elicit measurable ACKs.
        assert_eq!(r.fakes_sent, 6750);
        assert!(
            r.acks_measured as f64 > 0.97 * r.fakes_sent as f64,
            "measured {}/{}",
            r.acks_measured,
            r.fakes_sent
        );
        assert!((140.0..160.0).contains(&r.sample_rate_hz));
    }

    #[test]
    fn figure5_episode_separation() {
        // The paper's qualitative claim, quantified: pickup ≫ typing >
        // hold > idle in subcarrier-17 amplitude variability.
        let r = result();
        let std_of = |label: &str| {
            r.phase_stats
                .iter()
                .filter(|p| p.label == label)
                .map(|p| p.std_dev)
                .fold(0.0, f64::max)
        };
        let idle = std_of("idle");
        let pickup = std_of("pickup");
        let hold = std_of("hold");
        let typing = std_of("typing");
        assert!(pickup > 3.0 * hold, "pickup {pickup} vs hold {hold}");
        assert!(typing > 1.3 * hold, "typing {typing} vs hold {hold}");
        assert!(hold > idle, "hold {hold} vs idle {idle}");
    }

    #[test]
    fn phases_are_populated() {
        let r = result();
        assert_eq!(r.phase_stats.len(), 6);
        for p in &r.phase_stats {
            // ≈150 samples/s × phase length.
            let expected = (p.end_us - p.start_us) as f64 * 150e-6;
            assert!(
                (p.samples as f64) > 0.9 * expected,
                "phase {} has {} samples, expected ≈{}",
                p.label,
                p.samples,
                expected
            );
        }
    }

    #[test]
    fn keystrokes_detectable() {
        let r = result();
        let (hits, misses, fa) = r.keystroke_score;
        assert_eq!(hits + misses, r.keystrokes_truth);
        // The signal is there: most keystrokes produce detectable bursts.
        assert!(
            hits as f64 >= 0.6 * r.keystrokes_truth as f64,
            "only {hits}/{} keystrokes detected ({fa} false alarms)",
            r.keystrokes_truth
        );
    }

    #[test]
    fn activity_classes_recoverable_from_phase_stats() {
        // Sanity: a threshold classifier calibrated on the phase stds
        // maps each phase back to the right class.
        use polite_wifi_sensing::ThresholdClassifier;
        let r = result();
        let labelled: Vec<(ActivityClass, f64)> = r
            .phase_stats
            .iter()
            .filter(|p| p.samples > 0)
            .map(|p| (ActivityClass::from_label(&p.label), p.std_dev))
            .collect();
        let clf = ThresholdClassifier::calibrate(&labelled);
        for (truth, std) in &labelled {
            assert_eq!(clf.classify(*std), *truth, "std {std} misclassified");
        }
    }
}
