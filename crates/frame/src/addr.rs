//! IEEE 802 MAC addresses.

use crate::error::FrameError;
use core::fmt;
use core::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
///
/// The paper's attacker forges the transmitter address as
/// `aa:bb:bb:bb:bb:bb` ([`MacAddr::FAKE`]); the only field a Polite-WiFi
/// victim actually checks before acknowledging is the *receiver* address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`. Broadcast frames are never
    /// acknowledged, which is why the paper's injector must unicast.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, used as a placeholder before assignment.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// The forged transmitter address used throughout the paper's traces:
    /// `aa:bb:bb:bb:bb:bb` (Figures 2 and 3).
    pub const FAKE: MacAddr = MacAddr([0xaa, 0xbb, 0xbb, 0xbb, 0xbb, 0xbb]);

    /// Builds an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Returns the six octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// True for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True if the group bit (I/G, bit 0 of the first octet) is set.
    /// Group-addressed frames are not acknowledged in 802.11.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True for unicast (individually addressed) destinations — the only
    /// destinations that elicit an ACK.
    pub fn is_unicast(&self) -> bool {
        !self.is_multicast()
    }

    /// True if the locally-administered bit (U/L, bit 1 of the first octet)
    /// is set. Randomised and forged addresses are locally administered.
    pub fn is_locally_administered(&self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// The 24-bit Organizationally Unique Identifier (first three octets),
    /// used by the wardriving survey to attribute devices to vendors.
    pub fn oui(&self) -> [u8; 3] {
        [self.0[0], self.0[1], self.0[2]]
    }

    /// Builds an address from an OUI and a 24-bit device suffix.
    pub fn from_oui(oui: [u8; 3], suffix: u32) -> Self {
        MacAddr([
            oui[0],
            oui[1],
            oui[2],
            (suffix >> 16) as u8,
            (suffix >> 8) as u8,
            suffix as u8,
        ])
    }

    /// Reads an address from the first six bytes of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() < 6 {
            return Err(FrameError::Truncated {
                context: "MAC address",
                needed: 6,
                available: buf.len(),
            });
        }
        let mut octets = [0u8; 6];
        octets.copy_from_slice(&buf[..6]);
        Ok(MacAddr(octets))
    }

    /// Interprets the address as a 48-bit big-endian integer (useful for
    /// ordering and for deterministic hashing in the simulator).
    pub fn to_u64(&self) -> u64 {
        self.0.iter().fold(0u64, |acc, &b| (acc << 8) | b as u64)
    }

    /// Inverse of [`MacAddr::to_u64`]; the upper 16 bits of `v` are ignored.
    pub fn from_u64(v: u64) -> Self {
        MacAddr([
            (v >> 40) as u8,
            (v >> 32) as u8,
            (v >> 24) as u8,
            (v >> 16) as u8,
            (v >> 8) as u8,
            v as u8,
        ])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for MacAddr {
    type Err = FrameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut parts = s.split([':', '-']);
        for octet in octets.iter_mut() {
            let part = parts.next().ok_or(FrameError::BadMacAddress)?;
            if part.len() != 2 {
                return Err(FrameError::BadMacAddress);
            }
            *octet = u8::from_str_radix(part, 16).map_err(|_| FrameError::BadMacAddress)?;
        }
        if parts.next().is_some() {
            return Err(FrameError::BadMacAddress);
        }
        Ok(MacAddr(octets))
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_through_from_str() {
        let a = MacAddr::new([0xf2, 0x6e, 0x0b, 0x01, 0x02, 0x03]);
        let s = a.to_string();
        assert_eq!(s, "f2:6e:0b:01:02:03");
        assert_eq!(s.parse::<MacAddr>().unwrap(), a);
    }

    #[test]
    fn dash_separator_accepted() {
        let a: MacAddr = "aa-bb-bb-bb-bb-bb".parse().unwrap();
        assert_eq!(a, MacAddr::FAKE);
    }

    #[test]
    fn malformed_strings_rejected() {
        assert!("aa:bb:cc".parse::<MacAddr>().is_err());
        assert!("aa:bb:cc:dd:ee:ff:00".parse::<MacAddr>().is_err());
        assert!("zz:bb:cc:dd:ee:ff".parse::<MacAddr>().is_err());
        assert!("aabb:cc:dd:ee:ff".parse::<MacAddr>().is_err());
        assert!("".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_is_multicast_not_unicast() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::BROADCAST.is_unicast());
    }

    #[test]
    fn fake_address_is_locally_administered_unicast() {
        // 0xaa = 0b10101010: group bit clear, local bit set.
        assert!(MacAddr::FAKE.is_unicast());
        assert!(MacAddr::FAKE.is_locally_administered());
    }

    #[test]
    fn oui_extraction() {
        let a = MacAddr::new([0x00, 0x1a, 0x11, 0x44, 0x55, 0x66]);
        assert_eq!(a.oui(), [0x00, 0x1a, 0x11]);
    }

    #[test]
    fn from_oui_builds_suffix_big_endian() {
        let a = MacAddr::from_oui([0x00, 0x1a, 0x11], 0x0a0b0c);
        assert_eq!(a, MacAddr::new([0x00, 0x1a, 0x11, 0x0a, 0x0b, 0x0c]));
    }

    #[test]
    fn u64_round_trip() {
        let a = MacAddr::new([0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc]);
        assert_eq!(MacAddr::from_u64(a.to_u64()), a);
        assert_eq!(a.to_u64(), 0x123456789abc);
    }

    #[test]
    fn parse_requires_six_bytes() {
        assert!(MacAddr::parse(&[1, 2, 3]).is_err());
        assert_eq!(
            MacAddr::parse(&[1, 2, 3, 4, 5, 6, 7]).unwrap(),
            MacAddr::new([1, 2, 3, 4, 5, 6])
        );
    }
}
