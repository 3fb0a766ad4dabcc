//! Deterministic fault injection: the chaos layer of the simulator.
//!
//! The paper's wardriving rig lived in hostile conditions — lossy urban
//! RF, drive-by contact windows, a flaky RTL8812AU dongle — and its
//! three-thread pipeline only worked because the attacker retried and
//! timed out. This module models those impairments as a *seed-
//! deterministic* [`FaultPlan`]:
//!
//! * **Gilbert–Elliott burst loss** — a two-state Markov chain (good/
//!   bad) stepped once per frame reception, corrupting FCS checks in
//!   bursts the way real fading channels do;
//! * **per-direction SNR degradation** — asymmetric link budgets
//!   (forward = lower node id → higher, reverse = the other way), so an
//!   attacker can hear a victim that cannot hear it back;
//! * **clock drift** — stretches the monitor-mode dongle's timer
//!   intervals by a ppm factor (observable at beacon-interval
//!   timescales); other nodes' clocks — in particular a victim's SIFS
//!   response timing, the fingerprinting signal — are never perturbed;
//! * **device stalls/reboots** — the monitor-mode dongle periodically
//!   freezes (drops everything in flight) and occasionally cold-boots.
//!
//! All stochastic fault decisions draw from a *dedicated* RNG stream
//! seeded `seed ^ FAULT_STREAM`, never from the medium's propagation
//! RNG — so the [`FaultProfile::Clean`] plan leaves every existing
//! result byte-identical, and any faulty run is byte-identical at any
//! `--workers` count (trial seeds derive per-index, fault draws follow
//! the deterministic event order).

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// XOR'd into the base seed for the dedicated fault RNG stream
/// (ASCII "FAULTS"), keeping fault draws out of the propagation and
/// scheduling streams.
pub const FAULT_STREAM: u64 = 0x4641_554c_5453;

/// A two-state Gilbert–Elliott burst-loss channel. Stepped once per
/// frame reception; each step first transitions the state, then draws
/// the per-state loss probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(good → bad) per step.
    pub p_good_to_bad: f64,
    /// P(bad → good) per step.
    pub p_bad_to_good: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Advances the chain one step and returns whether this frame is
    /// lost. `bad` is the chain's state, owned by the caller.
    pub fn step(&self, bad: &mut bool, rng: &mut ChaCha8Rng) -> bool {
        let t: f64 = rng.gen();
        *bad = if *bad {
            t >= self.p_bad_to_good
        } else {
            t < self.p_good_to_bad
        };
        let loss = if *bad { self.loss_bad } else { self.loss_good };
        loss > 0.0 && rng.gen::<f64>() < loss
    }

    /// Long-run fraction of steps spent in the bad state.
    pub fn steady_state_bad(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            0.0
        } else {
            self.p_good_to_bad / denom
        }
    }
}

/// Asymmetric SNR penalties, keyed by node declaration order: the
/// *forward* direction is lower node id → higher, *reverse* the other
/// way. Both in dB, subtracted from the faded receive power.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SnrDegradation {
    /// Penalty (dB) on frames from a lower-id node to a higher-id node.
    pub forward_db: f64,
    /// Penalty (dB) on frames from a higher-id node to a lower-id node.
    pub reverse_db: f64,
}

impl SnrDegradation {
    /// The penalty applying to a frame from `from` to `to` (node ids).
    pub fn penalty_db(&self, from: usize, to: usize) -> f64 {
        if from < to {
            self.forward_db
        } else {
            self.reverse_db
        }
    }

    /// True when both directions are clean.
    pub fn is_zero(&self) -> bool {
        self.forward_db == 0.0 && self.reverse_db == 0.0
    }
}

/// A periodic device stall: the target node freezes for `duration_us`
/// every `period_us`, and every `reboot_every`-th stall ends in a cold
/// boot (station state machine rebuilt, queues dropped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallSchedule {
    /// Interval between stall onsets, µs. The first stall starts one
    /// period into the run.
    pub period_us: u64,
    /// How long each stall lasts, µs.
    pub duration_us: u64,
    /// Every Nth stall ends in a reboot (0 = never reboot).
    pub reboot_every: u32,
}

/// The full fault plan a simulator runs under. [`FaultPlan::clean`] is
/// the identity plan: no draws, no penalties, no stalls — byte-identical
/// to a simulator without the fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Burst loss on the shared medium, if any.
    pub burst_loss: Option<GilbertElliott>,
    /// Asymmetric SNR penalties.
    pub snr: SnrDegradation,
    /// Clock drift applied to the first monitor-mode node's timer
    /// intervals (the attacker's dongle has the cheap oscillator),
    /// parts-per-million. Scenarios without a monitor node ignore this.
    pub clock_drift_ppm: f64,
    /// Scheduled stalls of the first monitor-mode node (the attacker's
    /// dongle), if any. Scenarios without a monitor node ignore this.
    pub stall: Option<StallSchedule>,
}

impl FaultPlan {
    /// The identity plan.
    pub fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing — the fault layer is fully
    /// bypassed and the run is byte-identical to a pre-fault simulator.
    pub fn is_clean(&self) -> bool {
        self.burst_loss.is_none()
            && self.snr.is_zero()
            && self.clock_drift_ppm == 0.0
            && self.stall.is_none()
    }
}

/// A named fault profile — the `--faults` vocabulary every experiment
/// binary shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultProfile {
    /// No faults; byte-identical to the pre-fault simulator.
    #[default]
    Clean,
    /// A wardriving pass through a city: bursty street-level loss, an
    /// asymmetric link budget and mild clock drift.
    UrbanDrive,
    /// A crowded channel: long bad-state dwells and heavy loss.
    Congested,
    /// The paper's RTL8812AU dongle on a bad day: periodic firmware
    /// stalls, occasional cold boots, drifting clock, light loss.
    FlakyDongle,
}

impl FaultProfile {
    /// Every named profile, for docs and `--help`.
    pub const ALL: [FaultProfile; 4] = [
        FaultProfile::Clean,
        FaultProfile::UrbanDrive,
        FaultProfile::Congested,
        FaultProfile::FlakyDongle,
    ];

    /// The profile's canonical flag spelling.
    pub fn name(&self) -> &'static str {
        match self {
            FaultProfile::Clean => "clean",
            FaultProfile::UrbanDrive => "urban-drive",
            FaultProfile::Congested => "congested",
            FaultProfile::FlakyDongle => "flaky-dongle",
        }
    }

    /// True for [`FaultProfile::Clean`].
    pub fn is_clean(&self) -> bool {
        matches!(self, FaultProfile::Clean)
    }

    /// The concrete plan this profile names.
    pub fn plan(&self) -> FaultPlan {
        match self {
            FaultProfile::Clean => FaultPlan::clean(),
            FaultProfile::UrbanDrive => FaultPlan {
                burst_loss: Some(GilbertElliott {
                    p_good_to_bad: 0.08,
                    p_bad_to_good: 0.35,
                    loss_good: 0.02,
                    loss_bad: 0.60,
                }),
                snr: SnrDegradation {
                    forward_db: 3.0,
                    reverse_db: 5.0,
                },
                clock_drift_ppm: 20.0,
                stall: None,
            },
            FaultProfile::Congested => FaultPlan {
                burst_loss: Some(GilbertElliott {
                    p_good_to_bad: 0.15,
                    p_bad_to_good: 0.25,
                    loss_good: 0.05,
                    loss_bad: 0.80,
                }),
                snr: SnrDegradation {
                    forward_db: 2.0,
                    reverse_db: 2.0,
                },
                clock_drift_ppm: 5.0,
                stall: None,
            },
            FaultProfile::FlakyDongle => FaultPlan {
                burst_loss: Some(GilbertElliott {
                    p_good_to_bad: 0.02,
                    p_bad_to_good: 0.50,
                    loss_good: 0.0,
                    loss_bad: 0.30,
                }),
                snr: SnrDegradation::default(),
                clock_drift_ppm: 50.0,
                stall: Some(StallSchedule {
                    period_us: 2_000_000,
                    duration_us: 150_000,
                    reboot_every: 5,
                }),
            },
        }
    }
}

impl std::fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FaultProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "clean" => Ok(FaultProfile::Clean),
            "urban-drive" => Ok(FaultProfile::UrbanDrive),
            "congested" => Ok(FaultProfile::Congested),
            "flaky-dongle" => Ok(FaultProfile::FlakyDongle),
            other => Err(format!(
                "unknown fault profile `{other}` (expected one of: clean, urban-drive, congested, flaky-dongle)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn profile_names_round_trip() {
        for p in FaultProfile::ALL {
            assert_eq!(p.name().parse::<FaultProfile>().unwrap(), p);
            assert_eq!(format!("{p}"), p.name());
        }
        assert!("warp-drive".parse::<FaultProfile>().is_err());
    }

    #[test]
    fn clean_plan_is_clean_and_others_are_not() {
        assert!(FaultProfile::Clean.plan().is_clean());
        for p in [
            FaultProfile::UrbanDrive,
            FaultProfile::Congested,
            FaultProfile::FlakyDongle,
        ] {
            assert!(!p.plan().is_clean(), "{p} must inject something");
        }
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty_and_deterministic() {
        let ge = FaultProfile::UrbanDrive.plan().burst_loss.unwrap();
        let run = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ FAULT_STREAM);
            let mut bad = false;
            (0..5_000)
                .map(|_| ge.step(&mut bad, &mut rng))
                .collect::<Vec<bool>>()
        };
        let a = run(9);
        assert_eq!(a, run(9), "fault stream must be seed-deterministic");
        assert_ne!(a, run(10));

        // Loss rate lands between the good and bad state rates, and
        // losses cluster: the mean run length of consecutive losses
        // exceeds what independent drops at the same rate would give.
        let losses = a.iter().filter(|&&l| l).count() as f64 / a.len() as f64;
        assert!(losses > ge.loss_good && losses < ge.loss_bad);
        let mut runs = 0usize;
        let mut in_run = false;
        for &l in &a {
            if l && !in_run {
                runs += 1;
            }
            in_run = l;
        }
        let mean_run = losses * a.len() as f64 / runs as f64;
        assert!(mean_run > 1.0 / (1.0 - losses) * 1.05, "losses not bursty");
    }

    #[test]
    fn steady_state_matches_transition_ratio() {
        let ge = GilbertElliott {
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        assert!((ge.steady_state_bad() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn snr_degradation_is_directional() {
        let snr = SnrDegradation {
            forward_db: 3.0,
            reverse_db: 5.0,
        };
        assert_eq!(snr.penalty_db(0, 2), 3.0);
        assert_eq!(snr.penalty_db(2, 0), 5.0);
        assert!(SnrDegradation::default().is_zero());
    }
}
