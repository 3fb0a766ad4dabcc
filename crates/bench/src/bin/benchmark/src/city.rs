//! `city`: one city wardrive per pass — the cell-grid medium and the
//! calendar queue at scale, no CSI, no daemon.
//!
//! The simulator's always-on profiler attributes every handled event's
//! wall time to its kind, which gives the per-layer split without any
//! tracing inside the program.

use crate::report::{Report, SIM_KINDS};
use crate::{
    inputs, median, percent, pinned, record_passes, time_setup, timed_phase, Ctx, WORKERS,
};
use polite_wifi_core::{CityReport, CityWardrive};
use polite_wifi_devices::CityPopulation;
use polite_wifi_obs::Obs;
use polite_wifi_phy::band::Band;
use std::collections::BTreeMap;
use std::time::Instant;

/// Devices per drive: about 2.5 s a pass on two workers, so a run
/// holds several passes.
const DEVICES: usize = 8192;

/// The drive a run on `seed` measures.
pub fn drive_for(seed: u64) -> CityWardrive {
    CityWardrive {
        devices: DEVICES,
        dwell_us: 500_000,
        seed: inputs::city_seed(seed),
        ..CityWardrive::default()
    }
}

/// Set-ups per `setup_s` sample: building the population takes about a
/// millisecond.
const SETUP_BATCH: usize = 32;

/// Segments the drive must split into: one run of at most
/// `segment_size` devices per (band, channel), as the scanner plans
/// them — an oracle for `CityReport::segments` computed from the
/// population alone.
fn expected_segments(drive: &CityWardrive) -> usize {
    let population = CityPopulation::synthetic_city(drive.devices, drive.seed);
    let mut per_tune: BTreeMap<(bool, u8), usize> = BTreeMap::new();
    for d in &population.devices {
        *per_tune
            .entry((d.band == Band::Ghz5, d.channel))
            .or_default() += 1;
    }
    per_tune
        .values()
        .map(|n| n.div_ceil(drive.segment_size.max(1)))
        .sum()
}

/// What one pass measured besides its wall time.
struct PassStats {
    report: CityReport,
    frames_txed: u64,
    /// Per kind: (events, handler wall ns).
    kinds: Vec<(u64, u64)>,
    handler_ns: u64,
}

fn pass(drive: &CityWardrive) -> (f64, PassStats) {
    let mut obs = Obs::new();
    let t = Instant::now();
    let report = drive.run_observed(WORKERS, &mut obs);
    let wall = t.elapsed().as_secs_f64();
    let stat = |kind: &str| {
        obs.profiler
            .get(kind)
            .map_or((0, 0), |s| (s.count, s.wall_total_ns))
    };
    let handler_ns = obs
        .profiler
        .sorted()
        .iter()
        .map(|(_, s)| s.wall_total_ns)
        .sum();
    let stats = PassStats {
        frames_txed: obs.counters.get("sim.frames_txed"),
        kinds: SIM_KINDS.iter().map(|k| stat(k)).collect(),
        handler_ns,
        report,
    };
    (wall, stats)
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut setup = || {
        let drive = drive_for(ctx.seed);
        (drive, expected_segments(&drive))
    };
    let (first_setup, (drive, segments)) = time_setup(SETUP_BATCH, &mut setup, drop);
    let mut setups = vec![first_setup];

    let mut passes: Vec<(f64, PassStats)> = Vec::new();
    let (untraced, traced) = timed_phase(
        ctx,
        "city.pass",
        |i, _| {
            let (wall, stats) = pass(&drive);
            let r = &stats.report;
            let mut problems = Vec::new();
            if r.devices != DEVICES || r.segments != segments {
                problems.push(format!(
                    "{} devices in {} segments, expected {DEVICES} in {segments}",
                    r.devices, r.segments
                ));
            }
            if r.verified > r.discovered || r.events_dispatched == 0 {
                problems.push(format!(
                    "implausible drive: {} verified of {} discovered, {} events",
                    r.verified, r.discovered, r.events_dispatched
                ));
            }
            if let Err(e) = pinned::check_city(ctx.seed, r) {
                problems.push(e);
            }
            if passes.first().is_some_and(|(_, first)| first.report != *r) {
                problems.push("report differs from pass 0".to_string());
            }
            report.op(if problems.is_empty() {
                Ok(())
            } else {
                Err(format!("pass {i}: {}", problems.join("; ")))
            });
            passes.push((wall, stats));
            wall
        },
        || setups.push(time_setup(SETUP_BATCH, &mut setup, drop).0),
    );
    record_passes(report, &setups, &untraced, &traced);

    // The layer split comes from the traced passes when there are any.
    let layer_passes = &passes[if traced.is_empty() { 0 } else { untraced.len() }..];
    let n = layer_passes.len();
    let Some((_, first)) = passes.first() else {
        return report.fail("no pass ran".to_string());
    };
    let events = first.report.events_dispatched as f64;
    let med = |f: &dyn Fn(&(f64, PassStats)) -> f64| {
        median(&layer_passes.iter().map(f).collect::<Vec<_>>())
    };
    let handler_share = med(&|(wall, s)| percent(s.handler_ns as f64 / 1e9, WORKERS as f64 * wall));
    report.set("sim.events", events, n);
    report.set(
        "sim.ns_per_event",
        med(&|(_, s)| s.handler_ns as f64 / events),
        n,
    );
    report.set("sim.handler_share", handler_share, n);
    report.set("core.covered_share", handler_share, n);
    report.set("frame.txed", first.frames_txed as f64, n);
    for (k, kind) in SIM_KINDS.iter().enumerate() {
        let count = first.kinds[k].0;
        let ns = med(&|(_, s)| {
            let (c, w) = s.kinds[k];
            if c == 0 {
                0.0
            } else {
                w as f64 / c as f64
            }
        });
        report.set(&format!("sim.{kind}.count"), count as f64, n);
        report.set(&format!("sim.{kind}.ns_per_event"), ns, n);
    }
}
