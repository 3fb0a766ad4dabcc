//! The behaviour pins: the digest of every committed scenario's masked
//! `--quick` envelopes, as the golden tests (`tests/golden.rs`) check
//! them, and the engine fingerprint derived from them.
//!
//! A deliberate change in behaviour re-pins rows here, which changes
//! [`pin_digest`] and with it every result-cache key
//! ([`ScenarioSpec::canonical_hash`](crate::ScenarioSpec::canonical_hash)):
//! a daemon state dir written by a build with other pins misses instead
//! of serving its envelopes as hits.

use crate::hash::{fnv1a64, fnv1a64_extend};

/// Per committed scenario: the FNV-1a-64 digest of its masked
/// `--quick --workers 1` envelopes under the clean profile.
pub const GOLDENS: &[(&str, u64)] = &[
    ("ablation_validate", 0x56a67a5cb459b5c8),
    ("battery_life", 0xd4b235852b002e28),
    ("blockack_paralysis", 0x2dc0b2f7477b4aca),
    ("city_wardrive", 0x0e928d8e02a56950),
    ("ext_classifier", 0x06a0a0ca64d6da76),
    ("ext_driveby", 0xb40870ff56f1ed8d),
    ("ext_nav_dos", 0x537d4a8730557d13),
    ("ext_randomization", 0x95c0585cb3ecc94a),
    ("ext_ranging", 0x33980a4a5a9fd2f8),
    ("ext_vitals", 0x1afa6ae2d32bae70),
    ("fig2_trace", 0x0a3b957258355c49),
    ("fig3_deauth", 0x988bcff99654148c),
    ("fig5_keystroke", 0xe28a903ea9363149),
    ("fig6_power", 0xa0305f7394f69090),
    ("pmf_deauth_matrix", 0x52c7056485ec4fef),
    ("powersave_awake", 0x7432de0909cef5ec),
    ("sensing_hub", 0x82f5904cb25844ac),
    ("sifs_timing", 0x4a41f5248d85ed63),
    ("table1_devices", 0xb91df9be91f17d87),
    ("table2_wardrive", 0x0a406cdadac71c7b),
];

/// Per scenario pinned under faults: the same digest under
/// `urban-drive`, then under `flaky-dongle`.
pub const FAULTED_GOLDENS: &[(&str, u64, u64)] = &[
    ("ablation_validate", 0xa5f99e6b4f4b101a, 0xfdcd641658afb0b2),
    ("battery_life", 0x30fcd8b022c3e6c3, 0x1b15ada5098d740d),
    ("blockack_paralysis", 0x661adebcabe23179, 0xc07e05985b311ddd),
    ("ext_nav_dos", 0x06a49ccfdbe6bf0f, 0x96bc2c3d872ffefb),
    ("ext_ranging", 0x9cbd12104a5af5a3, 0x50db729ee319945e),
    ("ext_vitals", 0x19eb281a37cf786f, 0x20a50de7a6dcc06c),
    ("fig2_trace", 0xfcd4f68c521c8fa9, 0x0d77cbdfe1da68c7),
    ("fig3_deauth", 0x380086d7d8a3f3d5, 0x594b29e6813da67f),
    ("fig5_keystroke", 0x37e4332f40f2a750, 0x0c9c62f2e49d1f81),
    ("fig6_power", 0xd0c03ff384d420bf, 0xc3fc50555a26a996),
    ("pmf_deauth_matrix", 0xa2245c98c9d18296, 0x6450c7a3fcec2ef1),
    ("powersave_awake", 0x44912b1e6283336f, 0xaad9a54616174ae7),
    ("sensing_hub", 0x580a4b31d8a52314, 0x02ff009c827f68d7),
    ("sifs_timing", 0x5f67794f5af3d2ae, 0xf87e9a7756e6d238),
    ("table1_devices", 0x7b1548ed59e0e699, 0xe03ea3884ad2f81d),
];

/// FNV-1a 64 over every row of both tables: each slug's bytes, then
/// each of its digests as 8 little-endian bytes.
pub fn pin_digest() -> u64 {
    let mut hash = fnv1a64(b"");
    let mut row = |slug: &str, pins: &[u64]| {
        hash = fnv1a64_extend(hash, slug.as_bytes());
        for pin in pins {
            hash = fnv1a64_extend(hash, &pin.to_le_bytes());
        }
    };
    for &(slug, pin) in GOLDENS {
        row(slug, &[pin]);
    }
    for &(slug, urban, flaky) in FAULTED_GOLDENS {
        row(slug, &[urban, flaky]);
    }
    hash
}
