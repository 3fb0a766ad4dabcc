//! Per-device behavioural knobs observed in the paper's device study.

/// Power-save parameters for battery-operated stations (ESP8266-style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSave {
    /// How long the radio stays awake after the last traffic before it
    /// dozes, in microseconds. ~100 ms is typical of IoT modules, and is
    /// what makes ">10 packets per second prevents sleep" (Figure 6).
    pub idle_timeout_us: u64,
    /// Beacon interval of the associated AP in microseconds; the station
    /// wakes this often to receive beacons even when dozing.
    pub beacon_interval_us: u64,
    /// How long a beacon reception keeps the radio up, in microseconds.
    pub beacon_rx_us: u64,
}

impl PowerSave {
    /// The ESP8266 modem-sleep profile used in the Section 4.2 experiment.
    pub fn esp8266() -> PowerSave {
        PowerSave {
            idle_timeout_us: 100_000,    // 100 ms
            beacon_interval_us: 102_400, // 100 TU
            beacon_rx_us: 3_000,
        }
    }
}

/// How a device reacts to traffic — every knob mirrors behaviour the paper
/// reports. None of them can stop the ACK; that is the point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Behavior {
    /// AP profile from Figure 3: respond to fake (class-3) frames with a
    /// burst of deauthentication frames...while still ACKing the fakes.
    pub deauth_on_fake: bool,
    /// Number of deauthentication frames per burst (the figure shows 3 —
    /// MAC-level retries sharing one sequence number).
    pub deauth_burst: u8,
    /// Minimum microseconds between deauth bursts, so an injection flood
    /// does not turn into a deauth storm.
    pub deauth_cooldown_us: u64,
    /// 802.11w PMF: reject unprotected deauth/disassoc from the air.
    /// Protects against *deauth attacks*, not against Polite WiFi.
    pub pmf: bool,
    /// Administrator blocklist is consulted by the host software. The
    /// ACK is generated below it, so this only suppresses delivery.
    pub use_blocklist: bool,
    /// Power-save behaviour, for battery-operated devices.
    pub power_save: Option<PowerSave>,
    /// Whether this device answers RTS with CTS even when unassociated
    /// (all tested devices do, per Wang et al. and the paper).
    pub cts_to_stranger_rts: bool,
    /// **Ablation knob** (no real device works this way): decrypt and
    /// validate the frame *before* acknowledging, taking this many
    /// microseconds. The ACK then leaves after `validate_first_us`
    /// instead of SIFS — far past the transmitter's timeout, so every
    /// frame is retransmitted. Quantifies DESIGN.md §5's first ablation.
    pub validate_first_us: Option<u32>,
}

impl Default for Behavior {
    fn default() -> Self {
        Behavior {
            deauth_on_fake: false,
            deauth_burst: 3,
            deauth_cooldown_us: 50_000,
            pmf: false,
            use_blocklist: false,
            power_save: None,
            cts_to_stranger_rts: true,
            validate_first_us: None,
        }
    }
}

impl Behavior {
    /// A typical client device (tablet, laptop, phone).
    pub fn client() -> Behavior {
        Behavior::default()
    }

    /// A typical AP that tolerates strangers silently.
    pub fn quiet_ap() -> Behavior {
        Behavior::default()
    }

    /// The Figure 3 AP: deauths the attacker, blocklists do nothing,
    /// ACKs regardless.
    pub fn deauthing_ap() -> Behavior {
        Behavior {
            deauth_on_fake: true,
            use_blocklist: true,
            ..Behavior::default()
        }
    }

    /// A battery-operated IoT module (the drain-attack victim).
    pub fn iot_power_save() -> Behavior {
        Behavior {
            power_save: Some(PowerSave::esp8266()),
            ..Behavior::default()
        }
    }

    /// A PMF (802.11w) network member — still polite.
    pub fn pmf_client() -> Behavior {
        Behavior {
            pmf: true,
            ..Behavior::default()
        }
    }

    /// The hypothetical validate-then-ACK device of §2.2, for ablation:
    /// `decode_us` models the WPA2 frame-processing latency (the cited
    /// range is 200–700 µs).
    pub fn hypothetical_validating(decode_us: u32) -> Behavior {
        Behavior {
            validate_first_us: Some(decode_us),
            ..Behavior::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_where_it_matters() {
        assert!(Behavior::deauthing_ap().deauth_on_fake);
        assert!(!Behavior::quiet_ap().deauth_on_fake);
        assert!(Behavior::pmf_client().pmf);
        assert!(Behavior::iot_power_save().power_save.is_some());
    }

    #[test]
    fn esp8266_profile_idle_timeout_explains_10pps_knee() {
        // With a 100 ms idle timeout, any inter-packet gap under 100 ms
        // (i.e. >10 pps) keeps the radio awake permanently.
        let ps = PowerSave::esp8266();
        assert_eq!(ps.idle_timeout_us, 100_000);
        let rate_that_prevents_sleep = 1_000_000 / ps.idle_timeout_us;
        assert_eq!(rate_that_prevents_sleep, 10);
    }

    #[test]
    fn every_profile_answers_stranger_rts() {
        for b in [
            Behavior::client(),
            Behavior::quiet_ap(),
            Behavior::deauthing_ap(),
            Behavior::iot_power_save(),
            Behavior::pmf_client(),
        ] {
            assert!(b.cts_to_stranger_rts);
        }
    }
}
