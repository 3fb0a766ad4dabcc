//! Transmit rate adaptation (ARF — Automatic Rate Fallback).
//!
//! Real stations pick their data rate by probing: climb after a streak of
//! acknowledged frames, fall back after consecutive losses, and retreat
//! immediately if the first frame after a climb fails. The paper's
//! injector deliberately pins a *low* legacy rate instead (robust ACK
//! elicitation beats throughput for an attacker), which this module lets
//! experiments demonstrate by contrast.

use polite_wifi_phy::rate::BitRate;

/// ARF parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArfConfig {
    /// Consecutive successes required to try the next rate up.
    pub up_after: u32,
    /// Consecutive failures required to fall back one rate.
    pub down_after: u32,
}

impl Default for ArfConfig {
    fn default() -> Self {
        ArfConfig {
            up_after: 10,
            down_after: 2,
        }
    }
}

/// ARF state for one transmitter.
#[derive(Debug, Clone)]
pub struct Arf {
    ladder: Vec<BitRate>,
    index: usize,
    config: ArfConfig,
    successes: u32,
    failures: u32,
    /// True right after climbing: the next failure retreats immediately.
    probing: bool,
}

impl Arf {
    /// ARF over the legacy OFDM ladder (6→54 Mb/s), starting at the
    /// lowest rate.
    pub fn ofdm() -> Arf {
        Arf::with_ladder(vec![
            BitRate::Mbps6,
            BitRate::Mbps9,
            BitRate::Mbps12,
            BitRate::Mbps18,
            BitRate::Mbps24,
            BitRate::Mbps36,
            BitRate::Mbps48,
            BitRate::Mbps54,
        ])
    }

    /// ARF over the DSSS/CCK ladder (1→11 Mb/s).
    pub fn dsss() -> Arf {
        Arf::with_ladder(vec![
            BitRate::Mbps1,
            BitRate::Mbps2,
            BitRate::Mbps5_5,
            BitRate::Mbps11,
        ])
    }

    /// ARF over an explicit rate ladder (must be non-empty, ascending).
    pub fn with_ladder(ladder: Vec<BitRate>) -> Arf {
        assert!(!ladder.is_empty(), "empty rate ladder");
        debug_assert!(ladder.windows(2).all(|w| w[0].bps() < w[1].bps()));
        Arf {
            ladder,
            index: 0,
            config: ArfConfig::default(),
            successes: 0,
            failures: 0,
            probing: false,
        }
    }

    /// The rate to transmit the next frame at.
    pub fn rate(&self) -> BitRate {
        self.ladder[self.index]
    }

    /// Records an acknowledged transmission.
    pub fn on_success(&mut self) {
        self.failures = 0;
        self.probing = false;
        self.successes += 1;
        if self.successes >= self.config.up_after && self.index + 1 < self.ladder.len() {
            self.index += 1;
            self.successes = 0;
            self.probing = true;
        }
    }

    /// Records a failed (unacknowledged) transmission.
    pub fn on_failure(&mut self) {
        self.successes = 0;
        if self.probing {
            // The probe at the higher rate failed: retreat immediately.
            self.index = self.index.saturating_sub(1);
            self.probing = false;
            self.failures = 0;
            return;
        }
        self.failures += 1;
        if self.failures >= self.config.down_after {
            self.index = self.index.saturating_sub(1);
            self.failures = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn climbs_after_streak() {
        let mut arf = Arf::ofdm();
        assert_eq!(arf.rate(), BitRate::Mbps6);
        for _ in 0..10 {
            arf.on_success();
        }
        assert_eq!(arf.rate(), BitRate::Mbps9);
    }

    #[test]
    fn probe_failure_retreats_immediately() {
        let mut arf = Arf::ofdm();
        for _ in 0..10 {
            arf.on_success();
        }
        assert_eq!(arf.rate(), BitRate::Mbps9);
        arf.on_failure(); // first frame at the new rate fails
        assert_eq!(arf.rate(), BitRate::Mbps6);
    }

    #[test]
    fn established_rate_needs_two_failures() {
        let mut arf = Arf::ofdm();
        for _ in 0..10 {
            arf.on_success();
        }
        arf.on_success(); // rate 9 established
        arf.on_failure();
        assert_eq!(arf.rate(), BitRate::Mbps9, "one failure tolerated");
        arf.on_failure();
        assert_eq!(arf.rate(), BitRate::Mbps6);
    }

    #[test]
    fn clamped_at_ladder_ends() {
        let mut arf = Arf::dsss();
        for _ in 0..10 {
            arf.on_failure();
        }
        assert_eq!(arf.rate(), BitRate::Mbps1);
        for _ in 0..200 {
            arf.on_success();
        }
        assert_eq!(arf.rate(), BitRate::Mbps11);
    }

    #[test]
    fn converges_under_lossy_channel() {
        // 9 Mb/s always fails; 6 Mb/s always works: ARF oscillates but
        // spends the vast majority of attempts at 6 Mb/s.
        let mut arf = Arf::ofdm();
        let mut at_6 = 0;
        let total = 1_000;
        for _ in 0..total {
            if arf.rate() == BitRate::Mbps6 {
                at_6 += 1;
                arf.on_success();
            } else {
                arf.on_failure();
            }
        }
        assert!(at_6 > total * 8 / 10, "only {at_6}/{total} at 6 Mb/s");
    }
}
