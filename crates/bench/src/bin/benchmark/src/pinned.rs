//! Outputs pinned by seed.
//!
//! A change that only makes the program faster must leave every
//! simulated result identical. A run whose `--seed` has a row here
//! checks its outputs against that row; on any other seed it checks only
//! that its passes agree with each other. (The catalogue's scenarios
//! carry their own seeds; their pins live with the list in
//! `catalogue.rs`.)
//!
//! After a deliberate change in behaviour, regenerate the tables with
//! `cargo test --release -- --ignored print_pins --nocapture` in this
//! directory and paste its output over them.

use polite_wifi_core::{BatchHubReport, CityReport};
use polite_wifi_scenario::fnv1a64;

/// `CityReport` per seed: (seed, discovered, verified, events, segments).
const CITY: [(u64, usize, usize, u64, usize); 16] = [
    (0, 32, 25, 2107755, 8),
    (1, 37, 29, 2159455, 8),
    (2, 33, 24, 2142281, 8),
    (3, 35, 26, 2060181, 8),
    (4, 24, 16, 2179754, 8),
    (5, 34, 30, 2062232, 8),
    (6, 26, 18, 2179452, 8),
    (7, 29, 24, 2103410, 8),
    (8, 42, 34, 2089757, 8),
    (9, 40, 34, 2057693, 8),
    (10, 40, 31, 2135981, 8),
    (11, 28, 14, 2074571, 8),
    (12, 34, 28, 2153731, 8),
    (13, 41, 36, 2092471, 8),
    (14, 41, 32, 2079735, 8),
    (15, 38, 31, 2115265, 8),
];

/// `BatchHubReport` per seed: (seed, motion links, motion windows,
/// digest of the detections).
const HUB: [(u64, usize, usize, u64); 16] = [
    (0, 171, 171, 0xbb11cc3daf6aeb14),
    (1, 171, 171, 0x3866cb167ba1739d),
    (2, 171, 171, 0x38f5637a9fd884c6),
    (3, 171, 171, 0x1190a918410e4c03),
    (4, 171, 171, 0x3043c0f3fed07661),
    (5, 171, 171, 0x943883a4debfb8e9),
    (6, 171, 171, 0xdd180c6923d52ce1),
    (7, 171, 171, 0x19152746b2ba2b7a),
    (8, 171, 171, 0x4b864e2dbbb624c8),
    (9, 171, 171, 0xf7fd34eb57cde22e),
    (10, 171, 171, 0x99a41bbf6bdb5260),
    (11, 171, 171, 0x70859ee6010c0197),
    (12, 171, 171, 0xb6bcb0c9d3ab23fc),
    (13, 171, 171, 0xc7cc897cbd1d8f0a),
    (14, 171, 171, 0xb84fece04696ccec),
    (15, 171, 171, 0xe43fc5d82c916426),
];

/// Compares a city report with its pinned row, if the seed has one.
pub fn check_city(seed: u64, r: &CityReport) -> Result<(), String> {
    let got = (
        seed,
        r.discovered,
        r.verified,
        r.events_dispatched,
        r.segments,
    );
    match CITY.iter().find(|row| row.0 == seed) {
        Some(&want) if want != got => Err(format!("city {got:?} differs from pinned {want:?}")),
        _ => Ok(()),
    }
}

/// FNV-1a over every detection's link and windows.
pub fn hub_digest(r: &BatchHubReport) -> u64 {
    let mut bytes = Vec::new();
    for d in &r.detections {
        bytes.extend_from_slice(&(d.link as u64).to_le_bytes());
        for &(start, end) in &d.motion_windows_us {
            bytes.extend_from_slice(&start.to_le_bytes());
            bytes.extend_from_slice(&end.to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// Compares a hub report with its pinned row, if the seed has one.
pub fn check_hub(seed: u64, r: &BatchHubReport) -> Result<(), String> {
    let got = (seed, r.motion_links, r.motion_windows, hub_digest(r));
    match HUB.iter().find(|row| row.0 == seed) {
        Some(&want) if want != got => Err(format!("hub {got:?} differs from pinned {want:?}")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_that_differ_are_reported() {
        let city = CityReport {
            devices: 8192,
            segments: 8,
            discovered: 32,
            verified: 25,
            events_dispatched: 2107755,
            occupied_cells: 0,
            survey_time_us: 0,
        };
        assert_eq!(check_city(0, &city), Ok(()));
        let wrong = CityReport {
            verified: 24,
            ..city
        };
        assert!(check_city(0, &wrong).is_err());
        assert_eq!(check_city(1 << 40, &wrong), Ok(()), "unpinned seed");

        let hub = BatchHubReport {
            links: 2,
            batches: 1,
            samples_per_link: 8,
            motion_links: 1,
            motion_windows: 1,
            detections: Vec::new(),
        };
        assert!(check_hub(0, &hub).is_err());
        assert_eq!(check_hub(1 << 40, &hub), Ok(()), "unpinned seed");
    }

    #[test]
    #[ignore = "slow: runs every pinned seed; prints replacement tables"]
    fn print_pins() {
        for seed in 0..16 {
            let r = crate::city::drive_for(seed).run_sharded(crate::WORKERS);
            println!(
                "    ({seed}, {}, {}, {}, {}),",
                r.discovered, r.verified, r.events_dispatched, r.segments
            );
        }
        for seed in 0..16 {
            let r = crate::hub::hub_for(seed).run(crate::WORKERS);
            println!(
                "    ({seed}, {}, {}, 0x{:016x}),",
                r.motion_links,
                r.motion_windows,
                hub_digest(&r)
            );
        }
    }
}
