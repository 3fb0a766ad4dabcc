//! DCF channel access: DIFS sensing plus binary exponential backoff.
//!
//! Contended transmissions (the attacker's fake frames, AP beacons,
//! deauth bursts) go through this state machine; SIFS responses (ACK/CTS)
//! bypass it.

use polite_wifi_phy::band::Band;

/// DCF contention-window parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsmaConfig {
    /// Minimum contention window (CWmin), in slots. 802.11g DCF: 15.
    pub cw_min: u16,
    /// Maximum contention window (CWmax), in slots. 802.11 DCF: 1023.
    pub cw_max: u16,
    /// Retry limit before the frame is dropped.
    pub retry_limit: u8,
}

impl Default for CsmaConfig {
    fn default() -> Self {
        CsmaConfig {
            cw_min: 15,
            cw_max: 1023,
            retry_limit: 7,
        }
    }
}

/// Backoff state for one transmitter.
#[derive(Debug, Clone)]
pub struct Csma {
    config: CsmaConfig,
    band: Band,
    /// Current contention window.
    cw: u16,
    /// Retry count of the head-of-line frame.
    retries: u8,
}

impl Csma {
    /// Fresh state with the default DCF parameters.
    pub fn new(band: Band) -> Csma {
        Csma::with_config(band, CsmaConfig::default())
    }

    /// Fresh state with explicit parameters.
    pub fn with_config(band: Band, config: CsmaConfig) -> Csma {
        Csma {
            config,
            band,
            cw: config.cw_min,
            retries: 0,
        }
    }

    /// The deferral before a fresh transmission attempt: DIFS plus a
    /// uniformly drawn backoff of `slots ∈ [0, cw]`. The caller supplies
    /// the random draw so the simulator stays deterministic.
    pub fn defer_us(&self, backoff_draw: u16) -> u32 {
        let slots = (backoff_draw % (self.cw + 1)) as u32;
        self.band.difs_us() + slots * self.band.slot_us()
    }

    /// Current contention window (for tests and stats).
    pub fn cw(&self) -> u16 {
        self.cw
    }

    /// Current retry count of the head-of-line frame.
    pub fn retries(&self) -> u8 {
        self.retries
    }

    /// Transmission succeeded (ACK received): reset the window.
    pub fn on_success(&mut self) {
        self.cw = self.config.cw_min;
        self.retries = 0;
    }

    /// Transmission failed (ACK timeout or collision): double the window.
    /// Returns `false` when the retry limit is exhausted and the frame
    /// must be dropped.
    pub fn on_failure(&mut self) -> bool {
        self.retries += 1;
        self.cw = ((self.cw * 2) + 1).min(self.config.cw_max);
        if self.retries > self.config.retry_limit {
            self.cw = self.config.cw_min;
            self.retries = 0;
            false
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defer_includes_difs() {
        let c = Csma::new(Band::Ghz2);
        assert!(c.defer_us(0) >= Band::Ghz2.difs_us());
        // Draw 0 → no backoff slots.
        assert_eq!(c.defer_us(0), 28);
    }

    #[test]
    fn backoff_bounded_by_cw() {
        let c = Csma::new(Band::Ghz2);
        for draw in 0..200 {
            let d = c.defer_us(draw);
            assert!(d <= Band::Ghz2.difs_us() + 15 * Band::Ghz2.slot_us());
        }
    }

    #[test]
    fn window_doubles_on_failure_and_caps() {
        let mut c = Csma::new(Band::Ghz2);
        assert_eq!(c.cw(), 15);
        c.on_failure();
        assert_eq!(c.cw(), 31);
        c.on_failure();
        assert_eq!(c.cw(), 63);
        for _ in 0..5 {
            c.on_failure();
        }
        assert!(c.cw() <= 1023);
    }

    #[test]
    fn success_resets_window() {
        let mut c = Csma::new(Band::Ghz2);
        c.on_failure();
        c.on_failure();
        c.on_success();
        assert_eq!(c.cw(), 15);
        assert_eq!(c.retries(), 0);
    }

    #[test]
    fn retry_limit_drops_frame() {
        let mut c = Csma::new(Band::Ghz2);
        let mut attempts = 0;
        while c.on_failure() {
            attempts += 1;
            assert!(attempts < 100, "never dropped");
        }
        assert_eq!(attempts, 7);
        // State is reset for the next frame.
        assert_eq!(c.cw(), 15);
    }
}
