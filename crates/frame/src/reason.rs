//! Reason and status codes carried by management frames.

/// Deauthentication / disassociation reason codes (IEEE 802.11-2016
/// Table 9-45, the subset relevant here).
///
/// Figure 3 of the paper shows APs reacting to fake frames with
/// deauthentication bursts — typically
/// [`ReasonCode::ClassThreeFrameFromNonassociatedSta`] — while *still*
/// acknowledging the very frames they are complaining about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReasonCode {
    /// 1 — Unspecified reason.
    Unspecified,
    /// 2 — Previous authentication no longer valid.
    PrevAuthNotValid,
    /// 3 — Station is leaving (deauthenticated because sender left).
    StaLeaving,
    /// 4 — Disassociated due to inactivity.
    Inactivity,
    /// 6 — Class 2 frame received from nonauthenticated station.
    ClassTwoFrameFromNonauthSta,
    /// 7 — Class 3 frame received from nonassociated station. The code an
    /// AP sends when a never-associated attacker injects data frames.
    ClassThreeFrameFromNonassociatedSta,
    /// 8 — Disassociated because station is leaving the BSS.
    DisassocStaLeaving,
    /// Any other standardised or reserved code, carried verbatim.
    Other(u16),
}

impl ReasonCode {
    /// Decodes from the on-air 16-bit value.
    pub fn from_u16(v: u16) -> ReasonCode {
        match v {
            1 => ReasonCode::Unspecified,
            2 => ReasonCode::PrevAuthNotValid,
            3 => ReasonCode::StaLeaving,
            4 => ReasonCode::Inactivity,
            6 => ReasonCode::ClassTwoFrameFromNonauthSta,
            7 => ReasonCode::ClassThreeFrameFromNonassociatedSta,
            8 => ReasonCode::DisassocStaLeaving,
            other => ReasonCode::Other(other),
        }
    }

    /// Encodes to the on-air 16-bit value.
    pub fn to_u16(self) -> u16 {
        match self {
            ReasonCode::Unspecified => 1,
            ReasonCode::PrevAuthNotValid => 2,
            ReasonCode::StaLeaving => 3,
            ReasonCode::Inactivity => 4,
            ReasonCode::ClassTwoFrameFromNonauthSta => 6,
            ReasonCode::ClassThreeFrameFromNonassociatedSta => 7,
            ReasonCode::DisassocStaLeaving => 8,
            ReasonCode::Other(v) => v,
        }
    }

    /// Short human-readable description, used by the trace printer.
    pub fn describe(self) -> &'static str {
        match self {
            ReasonCode::Unspecified => "Unspecified reason",
            ReasonCode::PrevAuthNotValid => "Previous authentication no longer valid",
            ReasonCode::StaLeaving => "Deauthenticated because sending STA is leaving",
            ReasonCode::Inactivity => "Disassociated due to inactivity",
            ReasonCode::ClassTwoFrameFromNonauthSta => {
                "Class 2 frame received from nonauthenticated STA"
            }
            ReasonCode::ClassThreeFrameFromNonassociatedSta => {
                "Class 3 frame received from nonassociated STA"
            }
            ReasonCode::DisassocStaLeaving => "Disassociated because sending STA is leaving BSS",
            ReasonCode::Other(_) => "Reserved/other",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_codes_round_trip() {
        for v in [1u16, 2, 3, 4, 6, 7, 8] {
            assert_eq!(ReasonCode::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn unknown_codes_preserved() {
        assert_eq!(ReasonCode::from_u16(99).to_u16(), 99);
        assert!(matches!(ReasonCode::from_u16(99), ReasonCode::Other(99)));
    }

    #[test]
    fn class3_is_the_nonassociated_code() {
        assert_eq!(ReasonCode::ClassThreeFrameFromNonassociatedSta.to_u16(), 7);
        assert!(ReasonCode::ClassThreeFrameFromNonassociatedSta
            .describe()
            .contains("nonassociated"));
    }
}
