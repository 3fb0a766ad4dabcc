//! Occupancy detection — the other open question of §4.1 ("can an
//! attacker detect occupancy?").
//!
//! A room with people in it perturbs the channel intermittently even
//! when nobody touches the device. The detector slices the CSI series
//! into intervals, measures what fraction of windows inside each
//! interval show motion, and declares the interval occupied when that
//! fraction crosses a threshold.

use crate::features::sliding_features;

/// Verdict for one time interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyInterval {
    /// First sample index of the interval.
    pub start: usize,
    /// One past the last sample index.
    pub end: usize,
    /// Fraction of windows with motion activity.
    pub activity_fraction: f64,
    /// The verdict.
    pub occupied: bool,
}

/// Detector parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyConfig {
    /// Samples per verdict interval.
    pub interval_len: usize,
    /// Sliding window length inside an interval.
    pub window_len: usize,
    /// Hop between windows.
    pub hop: usize,
    /// A window counts as "active" when its std exceeds this multiple of
    /// the series-wide noise floor.
    pub active_factor: f64,
    /// Interval is "occupied" when at least this fraction of its windows
    /// are active.
    pub occupied_fraction: f64,
}

impl Default for OccupancyConfig {
    fn default() -> Self {
        OccupancyConfig {
            interval_len: 600, // 4 s at 150 Hz
            window_len: 30,
            hop: 15,
            active_factor: 3.0,
            occupied_fraction: 0.2,
        }
    }
}

/// Runs occupancy detection over a CSI amplitude series.
pub fn detect_occupancy(series: &[f64], config: &OccupancyConfig) -> Vec<OccupancyInterval> {
    if series.len() < config.interval_len {
        return Vec::new();
    }
    // Noise floor from the whole series: median window std.
    let all = sliding_features(series, config.window_len, config.hop);
    if all.is_empty() {
        return Vec::new();
    }
    let mut stds: Vec<f64> = all.iter().map(|(_, f)| f.std_dev).collect();
    stds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let floor = stds[stds.len() / 2].max(1e-9);

    let mut out = Vec::new();
    let mut start = 0;
    while start + config.interval_len <= series.len() {
        let end = start + config.interval_len;
        let windows = sliding_features(&series[start..end], config.window_len, config.hop);
        let active = windows
            .iter()
            .filter(|(_, f)| f.std_dev > config.active_factor * floor)
            .count();
        let activity_fraction = if windows.is_empty() {
            0.0
        } else {
            active as f64 / windows.len() as f64
        };
        out.push(OccupancyInterval {
            start,
            end,
            activity_fraction,
            occupied: activity_fraction >= config.occupied_fraction,
        });
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(i: usize) -> f64 {
        ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0 - 0.5
    }

    /// Quiet baseline with intermittent motion in `busy` sample ranges.
    fn series(len: usize, busy: &[std::ops::Range<usize>]) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let mut v = 5.0 + 0.02 * noise(i);
                // Occupants move intermittently: bursts of ~45 samples
                // every ~150 inside busy ranges.
                if busy.iter().any(|r| r.contains(&i)) && (i / 45) % 3 == 0 {
                    v += 1.2 * noise(i * 7 + 1);
                }
                v
            })
            .collect()
    }

    #[test]
    fn empty_room_reads_vacant() {
        let s = series(3000, &[]);
        let intervals = detect_occupancy(&s, &OccupancyConfig::default());
        assert_eq!(intervals.len(), 5);
        assert!(intervals.iter().all(|i| !i.occupied), "{intervals:?}");
    }

    #[test]
    fn occupied_stretch_detected() {
        // Occupied during samples 600..1800 (intervals 1 and 2).
        let s = series(3000, std::slice::from_ref(&(600..1800)));
        let intervals = detect_occupancy(&s, &OccupancyConfig::default());
        assert!(!intervals[0].occupied);
        assert!(intervals[1].occupied, "{:?}", intervals[1]);
        assert!(intervals[2].occupied, "{:?}", intervals[2]);
        assert!(!intervals[4].occupied);
    }

    #[test]
    fn activity_fraction_reflects_duty() {
        let s = series(1200, std::slice::from_ref(&(600..1200)));
        let intervals = detect_occupancy(&s, &OccupancyConfig::default());
        assert!(intervals[1].activity_fraction > intervals[0].activity_fraction);
    }

    #[test]
    fn short_series_yields_nothing() {
        let s = series(100, &[]);
        assert!(detect_occupancy(&s, &OccupancyConfig::default()).is_empty());
    }
}
