//! The radiotap header structure, its fields, and the wire codec.

use crate::cursor::{ReadCursor, WriteCursor};
use crate::present_bit;
use core::fmt;

/// Errors produced while parsing radiotap headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RadiotapError {
    /// Buffer ended inside a field.
    Truncated {
        /// Offset at which the read was attempted.
        at: usize,
        /// Bytes the field needed.
        needed: usize,
    },
    /// First byte was not version 0.
    BadVersion(u8),
    /// The declared header length is impossible.
    BadLength {
        /// Length declared in the header.
        declared: u16,
        /// Bytes available in the buffer.
        available: usize,
    },
}

impl fmt::Display for RadiotapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RadiotapError::Truncated { at, needed } => {
                write!(
                    f,
                    "radiotap truncated at offset {at}, needed {needed} more bytes"
                )
            }
            RadiotapError::BadVersion(v) => write!(f, "unsupported radiotap version {v}"),
            RadiotapError::BadLength {
                declared,
                available,
            } => write!(
                f,
                "radiotap declares {declared} bytes but buffer holds {available}"
            ),
        }
    }
}

impl std::error::Error for RadiotapError {}

/// The radiotap `Flags` field (bit 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags(pub u8);

impl Flags {
    /// Frame includes the FCS at the end (0x10). Set by our capture taps so
    /// Wireshark verifies the FCS we computed.
    pub const FCS_AT_END: Flags = Flags(0x10);
    /// Frame was received with a bad FCS (0x40).
    pub const BAD_FCS: Flags = Flags(0x40);
    /// Short preamble (0x02).
    pub const SHORT_PREAMBLE: Flags = Flags(0x02);

    /// True if all bits of `other` are set in `self`.
    pub fn contains(self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub fn union(self, other: Flags) -> Flags {
        Flags(self.0 | other.0)
    }
}

/// The radiotap `Channel` field: centre frequency plus band/modulation bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelInfo {
    /// Centre frequency in MHz.
    pub freq_mhz: u16,
    /// Channel flags (band and modulation).
    pub flags: u16,
}

impl ChannelInfo {
    /// 2.4 GHz band bit.
    pub const FLAG_2GHZ: u16 = 0x0080;
    /// 5 GHz band bit.
    pub const FLAG_5GHZ: u16 = 0x0100;
    /// CCK modulation bit.
    pub const FLAG_CCK: u16 = 0x0020;
    /// OFDM modulation bit.
    pub const FLAG_OFDM: u16 = 0x0040;

    /// A 2.4 GHz channel by number (1..=14), flagged CCK — the band whose
    /// 10 µs SIFS the paper quotes.
    pub fn ghz2(channel: u8) -> ChannelInfo {
        let freq_mhz = match channel {
            14 => 2484,
            c => 2407 + 5 * c as u16,
        };
        ChannelInfo {
            freq_mhz,
            flags: Self::FLAG_2GHZ | Self::FLAG_CCK,
        }
    }

    /// A 5 GHz channel by number (e.g. 36, 149), flagged OFDM.
    pub fn ghz5(channel: u8) -> ChannelInfo {
        ChannelInfo {
            freq_mhz: 5000 + 5 * channel as u16,
            flags: Self::FLAG_5GHZ | Self::FLAG_OFDM,
        }
    }

    /// True for 2.4 GHz channels.
    pub fn is_2ghz(&self) -> bool {
        self.flags & Self::FLAG_2GHZ != 0
    }

    /// Recovers the channel number from the frequency.
    pub fn channel_number(&self) -> u8 {
        if self.is_2ghz() {
            if self.freq_mhz == 2484 {
                14
            } else {
                ((self.freq_mhz - 2407) / 5) as u8
            }
        } else {
            ((self.freq_mhz.saturating_sub(5000)) / 5) as u8
        }
    }
}

/// The radiotap `MCS` field (bit 19) for 802.11n frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct McsInfo {
    /// Which sub-fields are known.
    pub known: u8,
    /// Bandwidth / guard-interval / format flags.
    pub flags: u8,
    /// MCS index.
    pub index: u8,
}

/// A parsed or to-be-encoded radiotap header. Every field is optional; the
/// presence mask is derived from which options are set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Radiotap {
    /// TSFT: microseconds the first bit of the MPDU arrived at the MAC.
    pub tsft_us: Option<u64>,
    /// Flags bitfield.
    pub flags: Option<Flags>,
    /// Legacy rate in 500 kb/s units. ACKs ride legacy rates — the reason
    /// the paper measured CSI on an ESP32 rather than the Intel CSI tool.
    pub rate_500kbps: Option<u8>,
    /// Channel frequency and band flags.
    pub channel: Option<ChannelInfo>,
    /// FHSS hop set/pattern (legacy, carried opaquely).
    pub fhss: Option<u16>,
    /// RF signal power at the antenna in dBm.
    pub antenna_signal_dbm: Option<i8>,
    /// RF noise power at the antenna in dBm.
    pub antenna_noise_dbm: Option<i8>,
    /// Signal quality metric (unitless).
    pub lock_quality: Option<u16>,
    /// Transmit attenuation (unitless).
    pub tx_attenuation: Option<u16>,
    /// Transmit attenuation in dB.
    pub tx_attenuation_db: Option<u16>,
    /// Transmit power in dBm.
    pub tx_power_dbm: Option<i8>,
    /// Antenna index.
    pub antenna: Option<u8>,
    /// Signal in dB above an arbitrary reference.
    pub antenna_signal_db: Option<u8>,
    /// Noise in dB above an arbitrary reference.
    pub antenna_noise_db: Option<u8>,
    /// RX flags.
    pub rx_flags: Option<u16>,
    /// TX flags.
    pub tx_flags: Option<u16>,
    /// Number of data retries.
    pub data_retries: Option<u8>,
    /// 802.11n MCS information.
    pub mcs: Option<McsInfo>,
}

impl Radiotap {
    /// The minimal capture header our simulator taps attach to received
    /// frames: timestamp, FCS-present flag, legacy rate, channel and RSSI.
    pub fn capture(
        tsft_us: u64,
        rate_500kbps: u8,
        channel: ChannelInfo,
        signal_dbm: i8,
        noise_dbm: i8,
    ) -> Radiotap {
        Radiotap {
            tsft_us: Some(tsft_us),
            flags: Some(Flags::FCS_AT_END),
            rate_500kbps: Some(rate_500kbps),
            channel: Some(channel),
            antenna_signal_dbm: Some(signal_dbm),
            antenna_noise_dbm: Some(noise_dbm),
            antenna: Some(0),
            ..Radiotap::default()
        }
    }

    /// Computes the presence bitmask implied by the populated fields.
    pub fn present_mask(&self) -> u32 {
        let mut m = 0u32;
        let mut set = |bit: u32, present: bool| {
            if present {
                m |= 1 << bit;
            }
        };
        set(present_bit::TSFT, self.tsft_us.is_some());
        set(present_bit::FLAGS, self.flags.is_some());
        set(present_bit::RATE, self.rate_500kbps.is_some());
        set(present_bit::CHANNEL, self.channel.is_some());
        set(present_bit::FHSS, self.fhss.is_some());
        set(
            present_bit::ANTENNA_SIGNAL_DBM,
            self.antenna_signal_dbm.is_some(),
        );
        set(
            present_bit::ANTENNA_NOISE_DBM,
            self.antenna_noise_dbm.is_some(),
        );
        set(present_bit::LOCK_QUALITY, self.lock_quality.is_some());
        set(present_bit::TX_ATTENUATION, self.tx_attenuation.is_some());
        set(
            present_bit::TX_ATTENUATION_DB,
            self.tx_attenuation_db.is_some(),
        );
        set(present_bit::TX_POWER_DBM, self.tx_power_dbm.is_some());
        set(present_bit::ANTENNA, self.antenna.is_some());
        set(
            present_bit::ANTENNA_SIGNAL_DB,
            self.antenna_signal_db.is_some(),
        );
        set(
            present_bit::ANTENNA_NOISE_DB,
            self.antenna_noise_db.is_some(),
        );
        set(present_bit::RX_FLAGS, self.rx_flags.is_some());
        set(present_bit::TX_FLAGS, self.tx_flags.is_some());
        set(present_bit::DATA_RETRIES, self.data_retries.is_some());
        set(present_bit::MCS, self.mcs.is_some());
        m
    }

    /// Encodes the header: version, length, presence word and aligned
    /// fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WriteCursor::new();
        w.write_u8(0); // version
        w.write_u8(0); // pad
        w.write_u16(0); // length, patched below
        w.write_u32(self.present_mask());

        if let Some(v) = self.tsft_us {
            w.write_u64(v);
        }
        if let Some(v) = self.flags {
            w.write_u8(v.0);
        }
        if let Some(v) = self.rate_500kbps {
            w.write_u8(v);
        }
        if let Some(v) = self.channel {
            w.write_u16(v.freq_mhz);
            w.write_u16(v.flags);
        }
        if let Some(v) = self.fhss {
            w.write_u16(v);
        }
        if let Some(v) = self.antenna_signal_dbm {
            w.write_i8(v);
        }
        if let Some(v) = self.antenna_noise_dbm {
            w.write_i8(v);
        }
        if let Some(v) = self.lock_quality {
            w.write_u16(v);
        }
        if let Some(v) = self.tx_attenuation {
            w.write_u16(v);
        }
        if let Some(v) = self.tx_attenuation_db {
            w.write_u16(v);
        }
        if let Some(v) = self.tx_power_dbm {
            w.write_i8(v);
        }
        if let Some(v) = self.antenna {
            w.write_u8(v);
        }
        if let Some(v) = self.antenna_signal_db {
            w.write_u8(v);
        }
        if let Some(v) = self.antenna_noise_db {
            w.write_u8(v);
        }
        if let Some(v) = self.rx_flags {
            w.write_u16(v);
        }
        if let Some(v) = self.tx_flags {
            w.write_u16(v);
        }
        if let Some(v) = self.data_retries {
            w.write_u8(v);
        }
        if let Some(v) = self.mcs {
            w.write_u8(v.known);
            w.write_u8(v.flags);
            w.write_u8(v.index);
        }

        let len = w.len() as u16;
        w.patch_u16(2, len);
        w.into_bytes()
    }

    /// Parses a radiotap header from the front of `buf`.
    ///
    /// Returns the header and the number of bytes it occupied (the offset
    /// at which the 802.11 frame begins). Unknown presence bits are skipped
    /// by trusting the declared header length; chained extended presence
    /// words and vendor namespaces are consumed correctly.
    pub fn parse(buf: &[u8]) -> Result<(Radiotap, usize), RadiotapError> {
        if buf.len() < 8 {
            return Err(RadiotapError::Truncated {
                at: 0,
                needed: 8 - buf.len(),
            });
        }
        if buf[0] != 0 {
            return Err(RadiotapError::BadVersion(buf[0]));
        }
        let declared_len = u16::from_le_bytes([buf[2], buf[3]]) as usize;
        if declared_len < 8 || declared_len > buf.len() {
            return Err(RadiotapError::BadLength {
                declared: declared_len as u16,
                available: buf.len(),
            });
        }

        let header = &buf[..declared_len];
        let mut c = ReadCursor::new(header);
        c.skip(4)?; // version, pad, len

        // Presence words: first is the radiotap namespace; bit 31 chains.
        let mut presents = Vec::new();
        loop {
            let word = c.read_u32()?;
            presents.push(word);
            if word & (1 << present_bit::EXT) == 0 {
                break;
            }
            if presents.len() > 16 {
                // Malformed chain; refuse rather than loop forever.
                return Err(RadiotapError::BadLength {
                    declared: declared_len as u16,
                    available: buf.len(),
                });
            }
        }

        let mut rt = Radiotap::default();
        // Only the first (radiotap-namespace) word's fields are decoded;
        // later namespaces are honoured via the declared length.
        let present = presents[0];
        let has = |bit: u32| present & (1 << bit) != 0;

        if has(present_bit::TSFT) {
            rt.tsft_us = Some(c.read_u64()?);
        }
        if has(present_bit::FLAGS) {
            rt.flags = Some(Flags(c.read_u8()?));
        }
        if has(present_bit::RATE) {
            rt.rate_500kbps = Some(c.read_u8()?);
        }
        if has(present_bit::CHANNEL) {
            let freq_mhz = c.read_u16()?;
            let flags = c.read_u16()?;
            rt.channel = Some(ChannelInfo { freq_mhz, flags });
        }
        if has(present_bit::FHSS) {
            rt.fhss = Some(c.read_u16()?);
        }
        if has(present_bit::ANTENNA_SIGNAL_DBM) {
            rt.antenna_signal_dbm = Some(c.read_i8()?);
        }
        if has(present_bit::ANTENNA_NOISE_DBM) {
            rt.antenna_noise_dbm = Some(c.read_i8()?);
        }
        if has(present_bit::LOCK_QUALITY) {
            rt.lock_quality = Some(c.read_u16()?);
        }
        if has(present_bit::TX_ATTENUATION) {
            rt.tx_attenuation = Some(c.read_u16()?);
        }
        if has(present_bit::TX_ATTENUATION_DB) {
            rt.tx_attenuation_db = Some(c.read_u16()?);
        }
        if has(present_bit::TX_POWER_DBM) {
            rt.tx_power_dbm = Some(c.read_i8()?);
        }
        if has(present_bit::ANTENNA) {
            rt.antenna = Some(c.read_u8()?);
        }
        if has(present_bit::ANTENNA_SIGNAL_DB) {
            rt.antenna_signal_db = Some(c.read_u8()?);
        }
        if has(present_bit::ANTENNA_NOISE_DB) {
            rt.antenna_noise_db = Some(c.read_u8()?);
        }
        if has(present_bit::RX_FLAGS) {
            rt.rx_flags = Some(c.read_u16()?);
        }
        if has(present_bit::TX_FLAGS) {
            rt.tx_flags = Some(c.read_u16()?);
        }
        if has(present_bit::DATA_RETRIES) {
            rt.data_retries = Some(c.read_u8()?);
        }
        if has(present_bit::MCS) {
            rt.mcs = Some(McsInfo {
                known: c.read_u8()?,
                flags: c.read_u8()?,
                index: c.read_u8()?,
            });
        }

        Ok((rt, declared_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_header_is_eight_bytes() {
        let rt = Radiotap::default();
        let bytes = rt.encode();
        assert_eq!(bytes.len(), 8);
        let (parsed, consumed) = Radiotap::parse(&bytes).unwrap();
        assert_eq!(consumed, 8);
        assert_eq!(parsed, rt);
    }

    #[test]
    fn capture_header_round_trips() {
        let rt = Radiotap::capture(1_234_567, 2, ChannelInfo::ghz2(6), -55, -92);
        let bytes = rt.encode();
        let (parsed, consumed) = Radiotap::parse(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(parsed, rt);
    }

    #[test]
    fn tsft_is_8_aligned() {
        let rt = Radiotap {
            tsft_us: Some(42),
            ..Radiotap::default()
        };
        let bytes = rt.encode();
        // 4-byte preamble + 4-byte presence puts TSFT at offset 8 (aligned).
        assert_eq!(bytes.len(), 16);
        assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 42);
    }

    #[test]
    fn channel_alignment_after_flags_and_rate() {
        // flags(1) + rate(1) end at offset 10; channel u16 starts at 10
        // (already aligned).
        let rt = Radiotap {
            flags: Some(Flags::FCS_AT_END),
            rate_500kbps: Some(4),
            channel: Some(ChannelInfo::ghz2(1)),
            ..Radiotap::default()
        };
        let bytes = rt.encode();
        let (parsed, _) = Radiotap::parse(&bytes).unwrap();
        assert_eq!(parsed.channel.unwrap().freq_mhz, 2412);
    }

    #[test]
    fn odd_alignment_padded() {
        // flags(1) at 8, then lock_quality u16 must pad to 10.
        let rt = Radiotap {
            flags: Some(Flags(0)),
            lock_quality: Some(0x1234),
            ..Radiotap::default()
        };
        let bytes = rt.encode();
        let (parsed, _) = Radiotap::parse(&bytes).unwrap();
        assert_eq!(parsed.lock_quality, Some(0x1234));
    }

    #[test]
    fn channel_helpers() {
        assert_eq!(ChannelInfo::ghz2(1).freq_mhz, 2412);
        assert_eq!(ChannelInfo::ghz2(6).freq_mhz, 2437);
        assert_eq!(ChannelInfo::ghz2(11).freq_mhz, 2462);
        assert_eq!(ChannelInfo::ghz2(14).freq_mhz, 2484);
        assert_eq!(ChannelInfo::ghz5(36).freq_mhz, 5180);
        assert_eq!(ChannelInfo::ghz2(6).channel_number(), 6);
        assert_eq!(ChannelInfo::ghz2(14).channel_number(), 14);
        assert_eq!(ChannelInfo::ghz5(149).channel_number(), 149);
        assert!(ChannelInfo::ghz2(6).is_2ghz());
        assert!(!ChannelInfo::ghz5(36).is_2ghz());
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = Radiotap::default().encode();
        bytes[0] = 1;
        assert!(matches!(
            Radiotap::parse(&bytes),
            Err(RadiotapError::BadVersion(1))
        ));
    }

    #[test]
    fn declared_length_beyond_buffer_rejected() {
        let mut bytes = Radiotap::default().encode();
        bytes[2] = 200;
        assert!(matches!(
            Radiotap::parse(&bytes),
            Err(RadiotapError::BadLength { .. })
        ));
    }

    #[test]
    fn extended_presence_word_skipped() {
        // Build a header with an EXT-chained second presence word that our
        // encoder never produces, and verify the parser still finds TSFT.
        let mut bytes = vec![0u8, 0]; // version, pad
        bytes.extend_from_slice(&24u16.to_le_bytes()); // len
        let present0 = (1u32 << present_bit::TSFT) | (1 << present_bit::EXT);
        bytes.extend_from_slice(&present0.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // second presence word (empty)
        bytes.extend_from_slice(&0u32.to_le_bytes()); // pad to 8-align TSFT at 16
        bytes.extend_from_slice(&99u64.to_le_bytes()[..8]);
        assert_eq!(bytes.len(), 24);
        let (parsed, consumed) = Radiotap::parse(&bytes).unwrap();
        assert_eq!(consumed, 24);
        assert_eq!(parsed.tsft_us, Some(99));
    }

    #[test]
    fn trailing_frame_bytes_not_consumed() {
        let rt = Radiotap::capture(0, 2, ChannelInfo::ghz2(1), -40, -90);
        let mut bytes = rt.encode();
        let header_len = bytes.len();
        bytes.extend_from_slice(&[0xd4, 0x00, 0x00, 0x00]); // an ACK begins
        let (_, consumed) = Radiotap::parse(&bytes).unwrap();
        assert_eq!(consumed, header_len);
    }

    #[test]
    fn flags_ops() {
        let f = Flags::FCS_AT_END.union(Flags::SHORT_PREAMBLE);
        assert!(f.contains(Flags::FCS_AT_END));
        assert!(f.contains(Flags::SHORT_PREAMBLE));
        assert!(!f.contains(Flags::BAD_FCS));
    }

    #[test]
    fn mcs_round_trips() {
        let rt = Radiotap {
            mcs: Some(McsInfo {
                known: 0x07,
                flags: 0x00,
                index: 7,
            }),
            ..Radiotap::default()
        };
        let (parsed, _) = Radiotap::parse(&rt.encode()).unwrap();
        assert_eq!(parsed.mcs.unwrap().index, 7);
    }

    #[test]
    fn runaway_ext_chain_rejected() {
        // 20 chained EXT words with a big declared length.
        let mut bytes = vec![0u8, 0];
        let len = 4 + 4 * 20;
        bytes.extend_from_slice(&(len as u16).to_le_bytes());
        for _ in 0..20 {
            bytes.extend_from_slice(&(1u32 << present_bit::EXT).to_le_bytes());
        }
        assert!(Radiotap::parse(&bytes).is_err());
    }
}
