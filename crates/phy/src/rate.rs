//! Legacy 802.11 bit rates (DSSS/CCK and OFDM).
//!
//! Acknowledgements are transmitted at these legacy "basic" rates — the
//! reason the paper measured ACK CSI with an ESP32 rather than the Intel
//! 5300 CSI tool, which only reports HT frames.

/// Modulation family of a rate, used by the SNR→BER link model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Differential BPSK (1 Mb/s).
    Dbpsk,
    /// Differential QPSK (2 Mb/s).
    Dqpsk,
    /// Complementary code keying (5.5 / 11 Mb/s).
    Cck,
    /// BPSK OFDM (6 / 9 Mb/s).
    BpskOfdm,
    /// QPSK OFDM (12 / 18 Mb/s).
    QpskOfdm,
    /// 16-QAM OFDM (24 / 36 Mb/s).
    Qam16,
    /// 64-QAM OFDM (48 / 54 Mb/s).
    Qam64,
}

/// A legacy 802.11a/b/g bit rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BitRate {
    /// 1 Mb/s DSSS.
    Mbps1,
    /// 2 Mb/s DSSS.
    Mbps2,
    /// 5.5 Mb/s CCK.
    Mbps5_5,
    /// 11 Mb/s CCK.
    Mbps11,
    /// 6 Mb/s OFDM.
    Mbps6,
    /// 9 Mb/s OFDM.
    Mbps9,
    /// 12 Mb/s OFDM.
    Mbps12,
    /// 18 Mb/s OFDM.
    Mbps18,
    /// 24 Mb/s OFDM.
    Mbps24,
    /// 36 Mb/s OFDM.
    Mbps36,
    /// 48 Mb/s OFDM.
    Mbps48,
    /// 54 Mb/s OFDM.
    Mbps54,
}

impl BitRate {
    /// All rates, ascending by speed within each family.
    pub const ALL: [BitRate; 12] = [
        BitRate::Mbps1,
        BitRate::Mbps2,
        BitRate::Mbps5_5,
        BitRate::Mbps11,
        BitRate::Mbps6,
        BitRate::Mbps9,
        BitRate::Mbps12,
        BitRate::Mbps18,
        BitRate::Mbps24,
        BitRate::Mbps36,
        BitRate::Mbps48,
        BitRate::Mbps54,
    ];

    /// The mandatory basic rates ACKs may use on 2.4 GHz DSSS networks.
    pub const BASIC_DSSS: [BitRate; 2] = [BitRate::Mbps1, BitRate::Mbps2];

    /// The mandatory basic rates ACKs may use on OFDM (11a/g) networks.
    pub const BASIC_OFDM: [BitRate; 3] = [BitRate::Mbps6, BitRate::Mbps12, BitRate::Mbps24];

    /// Data rate in bits per second.
    pub fn bps(self) -> u64 {
        match self {
            BitRate::Mbps1 => 1_000_000,
            BitRate::Mbps2 => 2_000_000,
            BitRate::Mbps5_5 => 5_500_000,
            BitRate::Mbps11 => 11_000_000,
            BitRate::Mbps6 => 6_000_000,
            BitRate::Mbps9 => 9_000_000,
            BitRate::Mbps12 => 12_000_000,
            BitRate::Mbps18 => 18_000_000,
            BitRate::Mbps24 => 24_000_000,
            BitRate::Mbps36 => 36_000_000,
            BitRate::Mbps48 => 48_000_000,
            BitRate::Mbps54 => 54_000_000,
        }
    }

    /// Rate in the radiotap unit of 500 kb/s.
    pub fn radiotap_500kbps(self) -> u8 {
        (self.bps() / 500_000) as u8
    }

    /// True for DSSS/CCK rates (2.4 GHz only).
    pub fn is_dsss(self) -> bool {
        matches!(
            self,
            BitRate::Mbps1 | BitRate::Mbps2 | BitRate::Mbps5_5 | BitRate::Mbps11
        )
    }

    /// Modulation family.
    pub fn modulation(self) -> Modulation {
        match self {
            BitRate::Mbps1 => Modulation::Dbpsk,
            BitRate::Mbps2 => Modulation::Dqpsk,
            BitRate::Mbps5_5 | BitRate::Mbps11 => Modulation::Cck,
            BitRate::Mbps6 | BitRate::Mbps9 => Modulation::BpskOfdm,
            BitRate::Mbps12 | BitRate::Mbps18 => Modulation::QpskOfdm,
            BitRate::Mbps24 | BitRate::Mbps36 => Modulation::Qam16,
            BitRate::Mbps48 | BitRate::Mbps54 => Modulation::Qam64,
        }
    }

    /// Data bits per OFDM symbol (OFDM rates only).
    pub fn ofdm_bits_per_symbol(self) -> Option<u32> {
        match self {
            BitRate::Mbps6 => Some(24),
            BitRate::Mbps9 => Some(36),
            BitRate::Mbps12 => Some(48),
            BitRate::Mbps18 => Some(72),
            BitRate::Mbps24 => Some(96),
            BitRate::Mbps36 => Some(144),
            BitRate::Mbps48 => Some(192),
            BitRate::Mbps54 => Some(216),
            _ => None,
        }
    }

    /// Minimum SNR in dB for this rate to be usable (typical receiver
    /// sensitivity deltas).
    pub fn min_snr_db(self) -> f64 {
        match self {
            BitRate::Mbps1 => 2.0,
            BitRate::Mbps2 => 4.0,
            BitRate::Mbps5_5 => 6.0,
            BitRate::Mbps11 => 8.0,
            BitRate::Mbps6 => 5.0,
            BitRate::Mbps9 => 6.0,
            BitRate::Mbps12 => 7.0,
            BitRate::Mbps18 => 9.0,
            BitRate::Mbps24 => 12.0,
            BitRate::Mbps36 => 16.0,
            BitRate::Mbps48 => 20.0,
            BitRate::Mbps54 => 22.0,
        }
    }

    /// The rate a receiver answers with (ACK/CTS): the highest *basic*
    /// rate of the same family that does not exceed the eliciting frame's
    /// rate (IEEE 802.11-2016 §10.6.6.5).
    pub fn response_rate(self) -> BitRate {
        let basics: &[BitRate] = if self.is_dsss() {
            &Self::BASIC_DSSS
        } else {
            &Self::BASIC_OFDM
        };
        let mut best = basics[0];
        for &b in basics {
            if b.bps() <= self.bps() && b.bps() > best.bps() {
                best = b;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_rate_rules() {
        // A 54 Mb/s data frame is ACKed at 24 Mb/s (highest basic ≤ 54).
        assert_eq!(BitRate::Mbps54.response_rate(), BitRate::Mbps24);
        // An 11 Mb/s CCK frame is ACKed at 2 Mb/s.
        assert_eq!(BitRate::Mbps11.response_rate(), BitRate::Mbps2);
        // A 1 Mb/s frame is ACKed at 1 Mb/s.
        assert_eq!(BitRate::Mbps1.response_rate(), BitRate::Mbps1);
        // A 9 Mb/s frame is ACKed at 6 Mb/s.
        assert_eq!(BitRate::Mbps9.response_rate(), BitRate::Mbps6);
        // 12 Mb/s answers at 12 Mb/s.
        assert_eq!(BitRate::Mbps12.response_rate(), BitRate::Mbps12);
    }

    #[test]
    fn response_rates_are_legacy() {
        // The property the paper's footnote 3 relies on: every response
        // (ACK) rides a legacy basic rate.
        for r in BitRate::ALL {
            let resp = r.response_rate();
            assert!(
                BitRate::BASIC_DSSS.contains(&resp) || BitRate::BASIC_OFDM.contains(&resp),
                "{r:?} answered at non-basic {resp:?}"
            );
        }
    }

    #[test]
    fn radiotap_units() {
        assert_eq!(BitRate::Mbps1.radiotap_500kbps(), 2);
        assert_eq!(BitRate::Mbps5_5.radiotap_500kbps(), 11);
        assert_eq!(BitRate::Mbps54.radiotap_500kbps(), 108);
    }

    #[test]
    fn ofdm_symbol_bits() {
        assert_eq!(BitRate::Mbps6.ofdm_bits_per_symbol(), Some(24));
        assert_eq!(BitRate::Mbps54.ofdm_bits_per_symbol(), Some(216));
        assert_eq!(BitRate::Mbps11.ofdm_bits_per_symbol(), None);
    }

    #[test]
    fn min_snr_monotone_within_family() {
        assert!(BitRate::Mbps54.min_snr_db() > BitRate::Mbps6.min_snr_db());
        assert!(BitRate::Mbps11.min_snr_db() > BitRate::Mbps1.min_snr_db());
    }

    #[test]
    fn all_rates_distinct() {
        use std::collections::HashSet;
        let set: HashSet<u64> = BitRate::ALL.iter().map(|r| r.bps()).collect();
        assert_eq!(set.len(), 12);
    }
}
