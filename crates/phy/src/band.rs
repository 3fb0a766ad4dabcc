//! Frequency bands and their MAC-timing parameters.

/// An 802.11 operating band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Band {
    /// 2.4 GHz (802.11b/g/n): SIFS = 10 µs.
    Ghz2,
    /// 5 GHz (802.11a/n/ac): SIFS = 16 µs.
    Ghz5,
}

impl Band {
    /// Short Interframe Space in microseconds — the paper's protagonist.
    /// An ACK must start transmitting this long after the frame ends,
    /// which rules out any cryptographic validation first.
    pub fn sifs_us(self) -> u32 {
        match self {
            Band::Ghz2 => 10,
            Band::Ghz5 => 16,
        }
    }

    /// Slot time in microseconds (short slot on 2.4 GHz ERP, 9 µs on 5 GHz).
    pub fn slot_us(self) -> u32 {
        match self {
            Band::Ghz2 => 9,
            Band::Ghz5 => 9,
        }
    }

    /// DCF Interframe Space: SIFS + 2 × slot.
    pub fn difs_us(self) -> u32 {
        self.sifs_us() + 2 * self.slot_us()
    }

    /// Centre frequency in MHz for a channel number in this band.
    pub fn channel_freq_mhz(self, channel: u8) -> u16 {
        match self {
            Band::Ghz2 => match channel {
                14 => 2484,
                c => 2407 + 5 * c as u16,
            },
            Band::Ghz5 => 5000 + 5 * channel as u16,
        }
    }

    /// Wavelength in metres at a channel's centre frequency.
    pub fn wavelength_m(self, channel: u8) -> f64 {
        299_792_458.0 / (self.channel_freq_mhz(channel) as f64 * 1e6)
    }

    /// Default channel used by the experiments (6 on 2.4 GHz, 36 on 5 GHz).
    pub fn default_channel(self) -> u8 {
        match self {
            Band::Ghz2 => 6,
            Band::Ghz5 => 36,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sifs_matches_the_paper() {
        assert_eq!(Band::Ghz2.sifs_us(), 10);
        assert_eq!(Band::Ghz5.sifs_us(), 16);
    }

    #[test]
    fn difs_derivation() {
        assert_eq!(Band::Ghz2.difs_us(), 28);
        assert_eq!(Band::Ghz5.difs_us(), 34);
    }

    #[test]
    fn channel_frequencies() {
        assert_eq!(Band::Ghz2.channel_freq_mhz(1), 2412);
        assert_eq!(Band::Ghz2.channel_freq_mhz(6), 2437);
        assert_eq!(Band::Ghz2.channel_freq_mhz(14), 2484);
        assert_eq!(Band::Ghz5.channel_freq_mhz(36), 5180);
    }

    #[test]
    fn wavelength_about_12cm_at_2ghz4() {
        let wl = Band::Ghz2.wavelength_m(6);
        assert!((0.12..0.13).contains(&wl), "wavelength {wl}");
    }
}
