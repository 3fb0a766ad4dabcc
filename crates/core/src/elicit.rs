//! The ACK-CSI path the simulator-driven sensing attacks share (§4.1's
//! keystrokes and breathing, §4.3's hub): fake frames make unmodified
//! victims ACK, the run settles past the last fake, each fake is paired
//! with its ACK, and each victim's sensed subcarrier is rendered at its
//! ACK times.

use crate::attack::Attack;
use crate::injector::InjectionPlan;
use crate::verifier::AckVerifier;
use polite_wifi_frame::MacAddr;
use polite_wifi_harness::ScenarioBuilder;
use polite_wifi_pcap::capture::Capture;
use polite_wifi_phy::csi::CsiChannel;
use polite_wifi_sensing::MotionScript;
use polite_wifi_sim::{FaultProfile, NodeId, Simulator};

/// How long a sensing run continues past its fake streams, µs.
const SETTLE_US: u64 = 100_000;

/// A null flood at one unassociated victim: the victim client at
/// `victim_at`, the attacker's monitor tap at `attacker_at` with retries
/// off, and `rate_pps` null fakes from [`MacAddr::FAKE`] over the first
/// `duration_us`, launched. Returns the simulator, not yet run, and the
/// tap's id.
pub fn null_flood(
    victim: MacAddr,
    victim_at: (f64, f64),
    attacker_at: (f64, f64),
    rate_pps: u32,
    duration_us: u64,
    seed: u64,
    faults: FaultProfile,
) -> (Simulator, NodeId) {
    let mut sb = ScenarioBuilder::new().faults(faults);
    sb.client(victim, victim_at);
    let attacker = sb.monitor(MacAddr::FAKE, attacker_at);
    sb.retries(attacker, false);
    let mut sim = sb.build_with_seed(seed).sim;
    let plan = InjectionPlan {
        rate_pps,
        ..InjectionPlan::keystroke_stream(victim, duration_us)
    };
    plan.launch(&mut sim, attacker);
    (sim, attacker)
}

/// A sensed victim, the motion near it and its CSI channel's seed.
pub(crate) struct Target<'a> {
    pub victim: MacAddr,
    pub script: &'a MotionScript,
    pub channel_seed: u64,
}

/// A target's ACK times, µs, and its sensed subcarrier's raw amplitudes.
pub(crate) struct AckCsi {
    pub times_us: Vec<u64>,
    pub amplitudes: Vec<f64>,
}

/// Runs `sim` to [`SETTLE_US`] past `stream_end_us`, pairs the fakes
/// `forged_ta` sent with their ACKs in `capture(sim)`, gives each
/// exchange to the first target it answered, and renders `subcarrier` of
/// each target's channel at its ACK times, driven by its script.
pub(crate) fn sense(
    sim: &mut Simulator,
    stream_end_us: u64,
    capture: impl Fn(&Simulator) -> &Capture,
    forged_ta: MacAddr,
    targets: &[Target],
    subcarrier: usize,
) -> Vec<AckCsi> {
    sim.run_until(stream_end_us + SETTLE_US);
    let mut times = vec![Vec::new(); targets.len()];
    for ex in AckVerifier::new(forged_ta).verify(capture(sim)) {
        if let Some(i) = targets.iter().position(|t| t.victim == ex.victim) {
            times[i].push(ex.ack_ts_us);
        }
    }
    (targets.iter().zip(times))
        .map(|(target, times_us)| {
            let intensities: Vec<f64> = (times_us.iter())
                .map(|&t| target.script.intensity_at(t))
                .collect();
            let mut channel = CsiChannel::new(target.channel_seed);
            let amplitudes = channel.sample_amplitudes(&intensities, subcarrier);
            AckCsi {
                times_us,
                amplitudes,
            }
        })
        .collect()
}
