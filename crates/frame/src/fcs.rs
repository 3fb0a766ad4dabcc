//! The 802.11 frame check sequence (FCS).
//!
//! The FCS is a CRC-32 (IEEE 802.3 polynomial, reflected, initial and final
//! XOR `0xFFFF_FFFF`) appended little-endian to every over-the-air frame.
//! Polite WiFi hinges on this field: the receiver's PHY/low-MAC checks
//! *only* the FCS and receiver address before acknowledging — frame
//! contents are never validated within the SIFS deadline.

/// Reflected CRC-32 polynomial (bit-reversed 0x04C11DB7).
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, generated at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Computes the CRC-32 over `data` as used by the 802.11 FCS.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Appends the 4-byte little-endian FCS to `buf` in place.
pub fn append_fcs(buf: &mut Vec<u8>) {
    let fcs = crc32(buf);
    buf.extend_from_slice(&fcs.to_le_bytes());
}

/// Splits a buffer into `(body, carried_fcs)` and reports whether the FCS
/// matches. Returns `None` if the buffer is shorter than the FCS itself.
pub fn check_fcs(buf: &[u8]) -> Option<FcsCheck<'_>> {
    if buf.len() < 4 {
        return None;
    }
    let (body, tail) = buf.split_at(buf.len() - 4);
    let carried = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    let computed = crc32(body);
    Some(FcsCheck {
        body,
        carried,
        computed,
    })
}

/// Result of verifying a trailing FCS.
#[derive(Debug, Clone, Copy)]
pub struct FcsCheck<'a> {
    /// Frame bytes without the FCS.
    pub body: &'a [u8],
    /// FCS value carried by the frame.
    pub carried: u32,
    /// FCS value computed over `body`.
    pub computed: u32,
}

impl FcsCheck<'_> {
    /// True when the carried and computed values agree.
    pub fn is_valid(&self) -> bool {
        self.carried == self.computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical CRC-32 check value: CRC of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_of_a_1500_byte_payload_is_pinned() {
        assert_eq!(crc32(&[0xa5; 1500]), 0xEB13_0101);
    }

    #[test]
    fn crc32_empty_is_zero() {
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn append_then_check_round_trips() {
        let mut buf = vec![0x48, 0x11, 0x3a, 0x01, 0xaa, 0xbb];
        append_fcs(&mut buf);
        let check = check_fcs(&buf).unwrap();
        assert!(check.is_valid());
        assert_eq!(check.body, &buf[..buf.len() - 4]);
    }

    #[test]
    fn single_bit_flip_detected() {
        let mut buf = (0u8..64).collect::<Vec<_>>();
        append_fcs(&mut buf);
        for byte in 0..buf.len() - 4 {
            for bit in 0..8 {
                let mut corrupted = buf.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(
                    !check_fcs(&corrupted).unwrap().is_valid(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn too_short_buffer_yields_none() {
        assert!(check_fcs(&[1, 2, 3]).is_none());
    }

    #[test]
    fn exactly_four_bytes_checks_empty_body() {
        // CRC of the empty message is 0, so [0,0,0,0] is a valid FCS frame
        // with an empty body.
        let check = check_fcs(&[0, 0, 0, 0]).unwrap();
        assert!(check.is_valid());
        assert!(check.body.is_empty());
    }
}
