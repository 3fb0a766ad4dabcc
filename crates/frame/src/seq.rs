//! The Sequence Control field and the sequence-number counter.

use crate::error::FrameError;

/// The 16-bit Sequence Control field: a 4-bit fragment number and a 12-bit
/// sequence number.
///
/// Receivers use `(transmitter, seq, frag)` tuples for duplicate detection —
/// which is also how the paper's AP in Figure 3 keeps re-sending
/// deauthentication frames with the *same* sequence number (retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SequenceControl {
    /// 4-bit fragment number.
    pub fragment: u8,
    /// 12-bit sequence number (0..=4095).
    pub sequence: u16,
}

impl SequenceControl {
    /// Builds a sequence-control value, masking fields to their widths.
    pub fn new(sequence: u16, fragment: u8) -> Self {
        SequenceControl {
            fragment: fragment & 0x0f,
            sequence: sequence & 0x0fff,
        }
    }

    /// Decodes from the two on-air bytes (little-endian).
    pub fn parse(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() < 2 {
            return Err(FrameError::Truncated {
                context: "sequence control",
                needed: 2,
                available: buf.len(),
            });
        }
        let raw = u16::from_le_bytes([buf[0], buf[1]]);
        Ok(SequenceControl {
            fragment: (raw & 0x0f) as u8,
            sequence: raw >> 4,
        })
    }

    /// Encodes to the two on-air bytes.
    pub fn encode(&self) -> [u8; 2] {
        let raw = ((self.sequence & 0x0fff) << 4) | (self.fragment as u16 & 0x0f);
        raw.to_le_bytes()
    }
}

/// A per-transmitter modulo-4096 sequence-number counter.
#[derive(Debug, Clone, Default)]
pub struct SequenceCounter {
    next: u16,
}

impl SequenceCounter {
    /// Starts counting from zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts counting from an arbitrary point (useful for reproducing
    /// captures such as Figure 3's SN=3275).
    pub fn starting_at(seq: u16) -> Self {
        SequenceCounter { next: seq & 0x0fff }
    }

    /// Returns the current sequence number and advances, wrapping at 4096.
    pub fn take(&mut self) -> u16 {
        let seq = self.next;
        self.next = (self.next + 1) & 0x0fff;
        seq
    }

    /// Peeks at the value the next `take` will return.
    pub fn peek(&self) -> u16 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let sc = SequenceControl::new(3275, 0);
        assert_eq!(SequenceControl::parse(&sc.encode()).unwrap(), sc);
    }

    #[test]
    fn field_packing_layout() {
        // seq=1, frag=0 => raw 0x0010 little-endian [0x10, 0x00]
        assert_eq!(SequenceControl::new(1, 0).encode(), [0x10, 0x00]);
        // frag occupies the low nibble
        assert_eq!(SequenceControl::new(0, 5).encode(), [0x05, 0x00]);
    }

    #[test]
    fn masks_out_of_range_values() {
        let sc = SequenceControl::new(0xffff, 0xff);
        assert_eq!(sc.sequence, 0x0fff);
        assert_eq!(sc.fragment, 0x0f);
    }

    #[test]
    fn counter_wraps_at_4096() {
        let mut c = SequenceCounter::starting_at(4095);
        assert_eq!(c.take(), 4095);
        assert_eq!(c.take(), 0);
        assert_eq!(c.peek(), 1);
    }

    #[test]
    fn truncated_rejected() {
        assert!(SequenceControl::parse(&[0x10]).is_err());
    }

    #[test]
    fn all_values_round_trip() {
        for seq in (0u16..4096).step_by(7) {
            for frag in 0u8..16 {
                let sc = SequenceControl::new(seq, frag);
                assert_eq!(SequenceControl::parse(&sc.encode()).unwrap(), sc);
            }
        }
    }
}
