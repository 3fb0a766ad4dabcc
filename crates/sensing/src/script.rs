//! Ground-truth motion timelines.
//!
//! A [`MotionScript`] maps time to a motion intensity in `[0, 1]`, which
//! the PHY's `CsiChannel` turns into channel dynamics. Scripts also expose
//! their labelled phases so classifiers can be scored against truth.

/// A labelled activity phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Start time in microseconds.
    pub start_us: u64,
    /// End time in microseconds.
    pub end_us: u64,
    /// Human-readable label ("idle", "pickup", "hold", "typing"...).
    pub label: String,
    /// Base motion intensity during the phase.
    pub intensity: f64,
}

/// A piecewise motion timeline plus optional keystroke impulses.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionScript {
    /// The labelled phases, in time order, non-overlapping.
    pub phases: Vec<Phase>,
    /// Times of individual keystrokes (each adds a short intensity burst).
    pub keystrokes_us: Vec<u64>,
    /// Extra intensity during a keystroke burst.
    pub keystroke_boost: f64,
    /// Duration of each keystroke burst in microseconds.
    pub keystroke_len_us: u64,
}

impl MotionScript {
    /// An empty (always idle) script.
    pub fn idle(duration_us: u64) -> MotionScript {
        MotionScript::of_phases(vec![phase(0, duration_us, "idle", 0.0)])
    }

    /// The Figure 5 scenario: tablet on the ground (0–7 s), user
    /// approaches and picks it up (7–9 s), holds it (9–19 s), types
    /// (19–29 s, ~4 keystrokes/s), puts it down (29–31 s), idle again.
    /// The sharp transitions at ≈9 s and ≈29–32 s are the "movements near
    /// the target device" the Figure 5 caption points at.
    pub fn figure5() -> MotionScript {
        let s = |sec: u64| sec * 1_000_000;
        let phases = vec![
            phase(0, s(7), "idle", 0.0),
            phase(s(7), s(9), "pickup", 1.0),
            phase(s(9), s(19), "hold", 0.12),
            phase(s(19), s(29), "typing", 0.10),
            phase(s(29), s(31), "putdown", 1.0),
            phase(s(31), s(45), "idle", 0.0),
        ];
        // 4 keystrokes per second through the typing phase.
        let mut keystrokes_us = Vec::new();
        let mut t = s(19) + 120_000;
        while t < s(29) {
            keystrokes_us.push(t);
            t += 250_000;
        }
        MotionScript {
            phases,
            keystrokes_us,
            keystroke_boost: 0.65,
            keystroke_len_us: 80_000,
        }
    }

    /// A breathing subject near the device: gentle sinusoidal intensity at
    /// `rate_bpm` breaths per minute (the vital-signs threat of §4.1).
    pub fn breathing(duration_us: u64, rate_bpm: f64) -> MotionScript {
        // Encoded as many small phases approximating the sinusoid, so the
        // script stays a plain piecewise structure.
        let step_us = 100_000u64;
        let omega = 2.0 * std::f64::consts::PI * rate_bpm / 60.0;
        let mut phases = Vec::new();
        let mut t = 0u64;
        while t < duration_us {
            let sec = t as f64 / 1e6;
            let intensity = 0.06 + 0.05 * (omega * sec).sin();
            let end_us = (t + step_us).min(duration_us);
            phases.push(phase(t, end_us, "breathing", intensity));
            t += step_us;
        }
        MotionScript::of_phases(phases)
    }

    /// A person walking past the device between `from_us` and `to_us`.
    pub fn walk_by(duration_us: u64, from_us: u64, to_us: u64) -> MotionScript {
        let mut phases = Vec::new();
        if from_us > 0 {
            phases.push(phase(0, from_us, "idle", 0.0));
        }
        phases.push(phase(from_us, to_us, "walk", 0.8));
        if to_us < duration_us {
            phases.push(phase(to_us, duration_us, "idle", 0.0));
        }
        MotionScript::of_phases(phases)
    }

    /// A script of `phases` with no keystrokes.
    fn of_phases(phases: Vec<Phase>) -> MotionScript {
        MotionScript {
            phases,
            keystrokes_us: Vec::new(),
            keystroke_boost: 0.0,
            keystroke_len_us: 0,
        }
    }

    /// Total duration of the script.
    pub fn duration_us(&self) -> u64 {
        self.phases.last().map(|p| p.end_us).unwrap_or(0)
    }

    /// The motion intensity at `t_us`: the phase's base level plus any
    /// active keystroke burst, clamped to `[0, 1]`.
    pub fn intensity_at(&self, t_us: u64) -> f64 {
        let base = self
            .phases
            .iter()
            .find(|p| p.start_us <= t_us && t_us < p.end_us)
            .map(|p| p.intensity)
            .unwrap_or(0.0);
        let burst = self
            .keystrokes_us
            .iter()
            .any(|&k| k <= t_us && t_us < k + self.keystroke_len_us);
        let v = if burst {
            base + self.keystroke_boost
        } else {
            base
        };
        v.clamp(0.0, 1.0)
    }

    /// The label of the phase containing `t_us`.
    pub fn label_at(&self, t_us: u64) -> &str {
        self.phases
            .iter()
            .find(|p| p.start_us <= t_us && t_us < p.end_us)
            .map(|p| p.label.as_str())
            .unwrap_or("idle")
    }
}

/// The phase labelled `label` from `start_us` to `end_us`.
fn phase(start_us: u64, end_us: u64, label: &str, intensity: f64) -> Phase {
    Phase {
        start_us,
        end_us,
        label: label.into(),
        intensity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_phases_cover_45_seconds() {
        let s = MotionScript::figure5();
        assert_eq!(s.duration_us(), 45_000_000);
        // Phases are contiguous and ordered.
        for w in s.phases.windows(2) {
            assert_eq!(w[0].end_us, w[1].start_us);
        }
    }

    #[test]
    fn figure5_intensities_ordered_as_the_paper_shows() {
        let s = MotionScript::figure5();
        let idle = s.intensity_at(3_000_000);
        let pickup = s.intensity_at(8_000_000);
        let hold = s.intensity_at(12_000_000);
        assert_eq!(idle, 0.0);
        assert_eq!(pickup, 1.0);
        assert!(hold > idle && hold < pickup);
    }

    #[test]
    fn typing_phase_has_keystroke_bursts() {
        let s = MotionScript::figure5();
        assert!(!s.keystrokes_us.is_empty());
        assert!(s
            .keystrokes_us
            .iter()
            .all(|&k| (19_000_000..29_000_000).contains(&k)));
        // During a burst, intensity jumps.
        let k = s.keystrokes_us[0];
        assert!(s.intensity_at(k + 1_000) > s.intensity_at(k - 1_000));
        // ~40 keystrokes over 10 s at 4/s.
        assert!((35..=45).contains(&s.keystrokes_us.len()));
    }

    #[test]
    fn labels_match_time() {
        let s = MotionScript::figure5();
        assert_eq!(s.label_at(0), "idle");
        assert_eq!(s.label_at(8_000_000), "pickup");
        assert_eq!(s.label_at(25_000_000), "typing");
        assert_eq!(s.label_at(44_000_000), "idle");
        assert_eq!(s.label_at(99_000_000), "idle"); // past the end
    }

    #[test]
    fn breathing_oscillates() {
        let s = MotionScript::breathing(60_000_000, 15.0);
        // 15 bpm → 4 s period; intensity differs between peak and trough.
        let peak = s.intensity_at(1_000_000); // sin(2π·0.25·1)= sin(π/2)=1
        let trough = s.intensity_at(3_000_000);
        assert!(peak > trough);
        assert!(s.phases.iter().all(|p| (0.0..=0.2).contains(&p.intensity)));
    }

    #[test]
    fn walk_by_windows() {
        let s = MotionScript::walk_by(10_000_000, 4_000_000, 6_000_000);
        assert_eq!(s.intensity_at(1_000_000), 0.0);
        assert!(s.intensity_at(5_000_000) > 0.5);
        assert_eq!(s.intensity_at(9_000_000), 0.0);
    }

    #[test]
    fn intensity_clamped() {
        let mut s = MotionScript::figure5();
        s.keystroke_boost = 5.0;
        let k = s.keystrokes_us[0];
        assert_eq!(s.intensity_at(k + 1), 1.0);
    }
}
