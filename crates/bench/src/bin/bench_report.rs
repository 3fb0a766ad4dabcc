//! The benchmark regression gate.
//!
//! Criterion benches are great locally but awkward as a CI gate: they
//! need a stable machine and minutes of runtime. `bench_report` runs the
//! same workloads (frame codec, exchange simulator, CSI pipeline) plus
//! three macro-scenarios (a wardrive shard, the Figure 5 keystroke
//! pipeline, a Figure 6 power sweep) through plain `Instant` timing
//! loops, and splits every metric into one of two kinds:
//!
//! - **work** — deterministic output counts (ACKs received, devices
//!   verified, mean power at an injection rate). Identical on every
//!   machine and every run; any drift means behaviour changed, so these
//!   gate hard in `--check` mode.
//! - **timing** — wall-clock ns/op. Machine-dependent, so informational
//!   by default; `--gate-timing` turns them into gates too (for local
//!   A/B runs against a baseline written on the *same* machine).
//!
//! Modes:
//!
//! ```text
//! bench_report                      # run, print, write results/BENCH_report.json
//! bench_report --write-baseline    # also write BENCH_baseline.json (commit it)
//! bench_report --check             # compare work metrics to the baseline;
//!                                   #   exit 1 on drift beyond --tolerance (%)
//! bench_report --quick             # shrink timing loops (CI); work metrics
//!                                   #   are unchanged, so --check still holds
//! bench_report --out FILE          # also write the rendered report to FILE
//!                                   #   (a committed snapshot); --label TEXT
//!                                   #   embeds a label in the JSON
//! bench_report --only csi,hub      # run a subset of sections (codec, sim,
//!                                   #   csi, wardrive, city, keystroke,
//!                                   #   power, hub); --check then compares
//!                                   #   only the measured metrics
//! bench_report --from FILE --check # re-check a previously written report
//!                                   #   without re-running the workloads
//!                                   #   (the CI trend job gates one run
//!                                   #   against two baselines this way)
//! bench_report --gate-only PREFIXES # gate only metrics whose name starts
//!                                   #   with one of the comma-separated
//!                                   #   prefixes; everything else is
//!                                   #   skipped. CI uses this to timing-gate
//!                                   #   the ms-scale sensing stages without
//!                                   #   tripping on ns-scale codec noise
//! ```
//!
//! The report is rendered and the baseline parsed with
//! `polite_wifi_obs::json`, the workspace's one JSON stack.

use polite_wifi_frame::{builder, fcs, Frame, MacAddr};
use polite_wifi_mac::StationConfig;
use polite_wifi_obs::json::{parse, JsonValue, JsonWriter};
use polite_wifi_sensing::filter;
use polite_wifi_sensing::keystroke::{detect_keystrokes, KeystrokeDetectorConfig};
use polite_wifi_sim::{SimConfig, Simulator};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

const DEFAULT_BASELINE: &str = "BENCH_baseline.json";
const REPORT_SLUG: &str = "BENCH_report";

/// What a metric means for the gate: `Work` values are deterministic and
/// always compared; `Timing` values are wall-clock and informational
/// unless `--gate-timing`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Work,
    Timing,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Work => "work",
            Kind::Timing => "timing",
        }
    }
}

#[derive(Debug)]
struct Metric {
    name: String,
    kind: Kind,
    value: f64,
    unit: String,
}

#[derive(Debug)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn new() -> Report {
        Report {
            metrics: Vec::new(),
        }
    }

    fn work(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            kind: Kind::Work,
            value,
            unit: unit.to_string(),
        });
    }

    fn timing(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            kind: Kind::Timing,
            value,
            unit: unit.to_string(),
        });
    }

    /// Rehydrates a report previously written by `to_json` — the `--from`
    /// path, which re-checks a committed snapshot without re-running the
    /// workloads (the CI trend job gates the same run against two
    /// baselines this way).
    fn from_json(doc: &JsonValue) -> Result<Report, String> {
        let metrics = doc
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or("report has no `metrics` object")?;
        let mut report = Report::new();
        for (name, entry) in metrics {
            let kind = match entry.get("kind").and_then(|k| k.as_str()) {
                Some("timing") => Kind::Timing,
                _ => Kind::Work,
            };
            let value = entry
                .get("value")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))?;
            let unit = entry
                .get("unit")
                .and_then(|u| u.as_str())
                .unwrap_or("")
                .to_string();
            report.metrics.push(Metric {
                name: name.clone(),
                kind,
                value,
                unit,
            });
        }
        Ok(report)
    }

    fn to_json(&self, quick: bool, label: Option<&str>) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("schema")
            .string("polite-wifi-bench-report-v1")
            .key("quick")
            .bool(quick);
        if let Some(label) = label {
            w.key("label").string(label);
        }
        w.key("metrics").begin_object();
        for m in &self.metrics {
            w.key(&m.name)
                .begin_object()
                .key("kind")
                .string(m.kind.label())
                .key("value")
                .f64(m.value)
                .key("unit")
                .string(&m.unit)
                .end_object();
        }
        w.end_object().end_object();
        w.finish()
    }
}

/// Times `iters` calls of `f`, returning mean ns/op. The closure's
/// result is black-boxed so the work can't be optimised away.
fn time_ns<T, F: FnMut() -> T>(iters: u64, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn victim() -> MacAddr {
    "f2:6e:0b:11:22:33".parse().unwrap()
}

/// The criterion `simulator/1000_fake_ack_exchanges` workload, verbatim.
fn exchange_sim(n_frames: u64) -> Simulator {
    let mut sim = Simulator::new(SimConfig::default(), 7);
    let _v = sim.add_node(StationConfig::client(victim()), (0.0, 0.0));
    let a = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
    sim.set_retries(a, false);
    for i in 0..n_frames {
        sim.inject(
            i * 1_000,
            a,
            builder::fake_null_frame(victim(), MacAddr::FAKE),
            BitRate::Mbps1,
        );
    }
    sim
}

use polite_wifi_phy::rate::BitRate;

/// The criterion CSI series: 45 s at 150 Hz, bursts every 100 samples.
fn csi_series(n: usize) -> Vec<f64> {
    let intensities: Vec<f64> = (0..n)
        .map(|i| if i % 100 < 30 { 0.6 } else { 0.0 })
        .collect();
    polite_wifi_phy::csi::CsiChannel::new(1).sample_amplitudes(&intensities, 17)
}

fn run_codec(report: &mut Report, quick: bool) {
    let iters = if quick { 2_000 } else { 20_000 };
    let fake = builder::fake_null_frame(victim(), MacAddr::FAKE);
    let fake_bytes = fake.encode(true);
    let beacon = builder::beacon(victim(), "PrivateNet", 6, 7, 123_456, true);
    let beacon_bytes = beacon.encode(true);
    let payload_1500 = vec![0xa5u8; 1500];

    report.work("work.codec.fake_null_len", fake_bytes.len() as f64, "bytes");
    report.work("work.codec.beacon_len", beacon_bytes.len() as f64, "bytes");
    report.work(
        "work.codec.crc32_1500B",
        fcs::crc32(&payload_1500) as f64,
        "checksum",
    );
    report.timing(
        "time.codec.encode_fake_null",
        time_ns(iters, || fake.encode(true)),
        "ns/op",
    );
    report.timing(
        "time.codec.parse_fake_null",
        time_ns(iters, || Frame::parse(&fake_bytes, true).unwrap()),
        "ns/op",
    );
    report.timing(
        "time.codec.parse_beacon",
        time_ns(iters, || Frame::parse(&beacon_bytes, true).unwrap()),
        "ns/op",
    );
    report.timing(
        "time.codec.crc32_1500B",
        time_ns(iters, || fcs::crc32(&payload_1500)),
        "ns/op",
    );
}

/// Returns the measured per-event wall cost in ms — the city macro uses
/// it to price its extrapolated all-pairs baseline.
fn run_exchange_sim(report: &mut Report) -> f64 {
    let start = Instant::now();
    let mut sim = exchange_sim(1000);
    sim.run_until(2_000_000);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // The new obs scope doubles as the work-metric source: any change to
    // MAC/sim behaviour shows up here before it shows up in a figure.
    let obs = sim.obs();
    report.work(
        "work.sim.acks_received",
        obs.counters.get("sim.acks_received") as f64,
        "acks",
    );
    report.work(
        "work.sim.frames_txed",
        obs.counters.get("sim.frames_txed") as f64,
        "frames",
    );
    report.work(
        "work.sim.ack_timeouts",
        obs.counters.get("sim.ack_timeouts") as f64,
        "timeouts",
    );
    let turnaround = obs.histograms.get("mac.ack_turnaround_us");
    report.work(
        "work.sim.ack_turnaround_mean_us",
        turnaround.and_then(|h| h.mean()).unwrap_or(0.0),
        "us",
    );
    report.work(
        "work.sim.events_dispatched",
        obs.counters.get("sim.events_dispatched") as f64,
        "events",
    );
    report.timing("time.sim.1000_exchanges", wall_ms, "ms");
    report.timing(
        "time.sim.events_per_sec",
        obs.counters.get("sim.events_dispatched") as f64 / (wall_ms / 1e3),
        "events/s",
    );
    wall_ms / (obs.counters.get("sim.events_dispatched") as f64).max(1.0)
}

fn run_csi_pipeline(report: &mut Report, quick: bool) {
    use polite_wifi_sensing::batch;
    use polite_wifi_sensing::features;
    use polite_wifi_sensing::segment::{segment, SegmenterConfig};

    let iters = if quick { 3 } else { 20 };
    let s = csi_series(6750);
    let conditioned = filter::condition(&s);
    let cfg = KeystrokeDetectorConfig::default();
    let keystrokes = detect_keystrokes(&conditioned, &cfg);
    let seg_cfg = SegmenterConfig::default();
    let segments = segment(&conditioned, &seg_cfg);

    report.work(
        "work.csi.conditioned_mean_x1e6",
        (conditioned.iter().sum::<f64>() / conditioned.len() as f64 * 1e6).round(),
        "amp",
    );
    report.work(
        "work.csi.keystrokes_detected",
        keystrokes.len() as f64,
        "events",
    );
    report.work("work.csi.segments_45s", segments.len() as f64, "segments");
    report.timing(
        "time.csi.condition_45s",
        time_ns(iters, || filter::condition(&s)) / 1e6,
        "ms",
    );

    // Per-stage breakdown of the conditioning chain, timed through the
    // same kernels `filter::condition` runs — so the trend job can see
    // *which* stage regressed, not just the chain total.
    report.timing(
        "time.csi.hampel_45s",
        time_ns(iters, || batch::hampel_exact(&s, 5, 3.0)) / 1e6,
        "ms",
    );
    let despiked = batch::hampel_exact(&s, 5, 3.0);
    let ma_ns = time_ns(iters, || filter::moving_average(&despiked, 2));
    report.timing("time.csi.moving_average_45s", ma_ns / 1e6, "ms");
    report.timing(
        "time.csi.features_45s",
        time_ns(iters, || {
            features::sliding_features(&conditioned, seg_cfg.window_len, seg_cfg.hop)
        }) / 1e6,
        "ms",
    );
    report.timing(
        "time.csi.segment_45s",
        time_ns(iters, || segment(&conditioned, &seg_cfg)) / 1e6,
        "ms",
    );
    report.timing(
        "time.csi.keystroke_detect_45s",
        time_ns(iters, || detect_keystrokes(&conditioned, &cfg)) / 1e6,
        "ms",
    );
}

/// The 1k-link sensing hub macro: renders, conditions and segments a
/// thousand links' CSI through the batched kernels. Work metrics are
/// mode-invariant (the hub always runs at full scale); the wall time is
/// the headline `time.macro.sensing_hub_1k` trend metric.
fn run_sensing_hub_macro(report: &mut Report) {
    use polite_wifi_core::BatchSensingHub;
    use polite_wifi_obs::{names, Obs};

    let hub = BatchSensingHub::default();
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8);
    let mut obs = Obs::new();
    let start = Instant::now();
    let scan = hub.run_observed(workers, &mut obs);
    report.timing(
        "time.macro.sensing_hub_1k",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    report.work("work.hub.links", scan.links as f64, "links");
    report.work("work.hub.batches", scan.batches as f64, "batches");
    report.work("work.hub.motion_links", scan.motion_links as f64, "links");
    report.work(
        "work.hub.motion_windows",
        scan.motion_windows as f64,
        "windows",
    );
    report.work(
        "work.hub.csi_samples",
        obs.counters.get(names::SENSING_CSI_SAMPLES) as f64,
        "samples",
    );
}

/// Serving-layer macro: one in-process daemon, a cold wave of distinct
/// jobs, then a warm wave of identical resubmissions. The work metrics
/// (jobs completed, cache hits) are exact by construction; the wall
/// times of the two waves are informational.
fn run_daemon_serving(report: &mut Report) {
    use polite_wifi_daemon::{http, Daemon, DaemonConfig};
    use polite_wifi_obs::names;

    const JOBS: u64 = 8;
    let spec_for = |seed: u64| -> String {
        let template = r#"{
  "name": "B: daemon bench job",
  "paper_ref": "none",
  "slug": "daemon_bench",
  "runner": "generic",
  "run": {"seed": SEED, "trials": 2, "workers": 1},
  "topology": {
    "duration_us": 300000,
    "nodes": [
      {"name": "ap", "mac": "68:02:b8:00:00:01", "kind": "ap", "position": [2, 0], "ssid": "Net"},
      {"name": "victim", "mac": "f2:6e:0b:11:22:33", "kind": "client", "position": [0, 0]},
      {"name": "attacker", "mac": "aa:bb:bb:bb:bb:bb", "kind": "monitor", "position": [4, 0]}
    ],
    "links": [["victim", "ap"]]
  },
  "attacks": [
    {"kind": "null-flood", "attacker": "attacker", "victim": "victim",
     "rate_pps": 100, "start_us": 1000, "duration_us": 250000, "bitrate": "6"}
  ],
  "probes": [
    {"kind": "station-stat", "node": "victim", "stat": "acks_sent", "metric": "acks_sent"}
  ]
}"#;
        template.replace("SEED", &seed.to_string())
    };

    let state_dir =
        std::env::temp_dir().join(format!("polite-wifi-bench-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let daemon = Daemon::start(DaemonConfig {
        workers: 2,
        state_dir: state_dir.clone(),
        ..DaemonConfig::default()
    })
    .expect("daemon start");

    let submit_wave = |expect_cache: &str| {
        for seed in 0..JOBS {
            let (status, headers, body) = http::request(
                daemon.addr(),
                "POST",
                "/submit?wait=1",
                spec_for(seed).as_bytes(),
            )
            .expect("submit");
            assert_eq!(
                status,
                200,
                "daemon bench job failed: {}",
                String::from_utf8_lossy(&body)
            );
            assert_eq!(
                headers.get("x-cache").map(String::as_str),
                Some(expect_cache)
            );
        }
    };

    let start = Instant::now();
    submit_wave("miss");
    report.timing(
        "time.daemon.cold_wave",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let start = Instant::now();
    submit_wave("hit");
    report.timing(
        "time.daemon.warm_wave",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    report.work(
        "work.daemon.jobs",
        daemon.counter(names::DAEMON_JOBS_COMPLETED) as f64,
        "jobs",
    );
    report.work(
        "work.daemon.cache_hits",
        daemon.counter(names::DAEMON_CACHE_HIT) as f64,
        "hits",
    );
    daemon.drain().expect("daemon drain");
    let _ = std::fs::remove_dir_all(&state_dir);
}

fn run_wardrive_shard(report: &mut Report) {
    use polite_wifi_core::WardriveScanner;
    use polite_wifi_devices::CityPopulation;

    let mut population = CityPopulation::table2(2020);
    population.devices.truncate(160);
    let scanner = WardriveScanner {
        seed: 20,
        ..WardriveScanner::default()
    };
    let start = Instant::now();
    let scan = scanner.run_sharded(&population, 1);
    report.timing(
        "time.macro.wardrive_shard",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    report.work(
        "work.wardrive.discovered",
        scan.discovered as f64,
        "devices",
    );
    report.work("work.wardrive.verified", scan.verified as f64, "devices");
}

fn run_city_macro(report: &mut Report, per_event_ms: f64) {
    use polite_wifi_core::CityWardrive;
    use polite_wifi_obs::Obs;

    // The full 100k-device city in quick and full mode alike (the city
    // work metrics must be mode-invariant for --check to hold in CI),
    // at a 500 ms dwell so the macro stays a bench, not a soak test.
    // The envelope is worker-invariant, so fanning over the pool only
    // changes wall time — throughput is reported per core.
    let drive = CityWardrive {
        dwell_us: 500_000,
        ..CityWardrive::default()
    };
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8);
    let mut obs = Obs::new();
    let start = Instant::now();
    let scan = drive.run_observed(workers, &mut obs);
    let core_s = (start.elapsed().as_secs_f64() * workers as f64).max(1e-9);
    report.timing(
        "time.macro.city_wardrive_100k",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    report.timing(
        "time.macro.city_events_per_sec_core",
        scan.events_dispatched as f64 / core_s,
        "events/s",
    );

    // The all-pairs comparison is structural: the legacy mode schedules
    // one arrival per (transmission, other node) — `segment_size - 1`
    // of them — where the grid schedules one per in-range receiver.
    // Pricing every extrapolated event at the 2-node exchange bench's
    // per-event cost *underestimates* the baseline (its active-list
    // scans are tiny), so the reported speedup is a lower bound.
    let arrivals = obs
        .profiler
        .sorted()
        .iter()
        .find(|(n, _)| *n == "arrival")
        .map_or(0, |(_, s)| s.count);
    let txed = obs.counters.get("sim.frames_txed");
    let allpairs_events =
        scan.events_dispatched - arrivals + txed * (drive.segment_size as u64 - 1);
    let allpairs_ms = allpairs_events as f64 * per_event_ms;
    report.timing("time.macro.city_allpairs_extrapolated", allpairs_ms, "ms");
    report.timing(
        "time.macro.city_speedup_vs_allpairs",
        allpairs_ms / (core_s * 1e3),
        "x",
    );
    report.work(
        "work.city.events_dispatched",
        scan.events_dispatched as f64,
        "events",
    );
    report.work("work.city.segments", scan.segments as f64, "segments");
    report.work("work.city.discovered", scan.discovered as f64, "devices");
    report.work("work.city.verified", scan.verified as f64, "devices");
    report.work(
        "work.city.occupied_cells",
        scan.occupied_cells as f64,
        "cells",
    );
}

fn run_keystroke_macro(report: &mut Report) {
    use polite_wifi_core::KeystrokeAttack;

    let start = Instant::now();
    let result = KeystrokeAttack::figure5(2020).run();
    report.timing(
        "time.macro.keystroke_fig5",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    report.work(
        "work.keystroke.acks_measured",
        result.acks_measured as f64,
        "acks",
    );
    let (hits, _misses, false_alarms) = result.keystroke_score;
    report.work("work.keystroke.hits", hits as f64, "events");
    report.work("work.keystroke.false_alarms", false_alarms as f64, "events");
}

fn run_power_macro(report: &mut Report) {
    use polite_wifi_core::BatteryDrainAttack;

    let rates = [0u32, 20, 900];
    let start = Instant::now();
    let sweep = BatteryDrainAttack::sweep(&rates, 2020);
    report.timing(
        "time.macro.power_sweep",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    for (m, rate) in sweep.iter().zip(rates) {
        report.work(
            &format!("work.power.mw_at_{rate}pps"),
            m.average_power_mw,
            "mW",
        );
    }
}

/// One gate comparison: baseline vs current, relative drift in percent.
struct Drift {
    name: String,
    baseline: f64,
    current: f64,
    percent: f64,
}

fn check(
    baseline: &JsonValue,
    report: &Report,
    tolerance: f64,
    gate_timing: bool,
    partial: bool,
    gate_only: Option<&[String]>,
) -> Result<usize, Vec<String>> {
    let mut failures: Vec<String> = Vec::new();
    let mut drifts: Vec<Drift> = Vec::new();

    let base_metrics = baseline
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or_else(|| vec!["baseline has no `metrics` object".to_string()])?;

    for (name, entry) in base_metrics {
        let kind = entry.get("kind").and_then(|k| k.as_str()).unwrap_or("work");
        if kind == "timing" && !gate_timing {
            continue;
        }
        if let Some(prefixes) = gate_only {
            if !prefixes.iter().any(|p| name.starts_with(p.as_str())) {
                continue;
            }
        }
        let base_value = match entry.get("value").and_then(|v| v.as_f64()) {
            Some(v) => v,
            None => {
                failures.push(format!("baseline metric `{name}` has no numeric value"));
                continue;
            }
        };
        let current = match report.metrics.iter().find(|m| &m.name == name) {
            Some(m) => m.value,
            None if partial => continue, // --only ran a subset; skip the rest
            None => {
                failures.push(format!(
                    "metric `{name}` is in the baseline but was not measured \
                     (workload removed? re-baseline with --write-baseline)"
                ));
                continue;
            }
        };
        let percent = if base_value == 0.0 {
            if current == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (current - base_value).abs() / base_value.abs() * 100.0
        };
        if percent > tolerance {
            failures.push(format!(
                "`{name}` drifted {percent:.1}% (baseline {base_value}, now {current}, \
                 tolerance {tolerance}%)"
            ));
        }
        drifts.push(Drift {
            name: name.clone(),
            baseline: base_value,
            current,
            percent,
        });
    }

    println!(
        "\n{:<34} {:>14} {:>14} {:>8}",
        "gated metric", "baseline", "current", "drift"
    );
    for d in &drifts {
        println!(
            "{:<34} {:>14.3} {:>14.3} {:>7.2}%",
            d.name, d.baseline, d.current, d.percent
        );
    }
    // New metrics the baseline doesn't know about yet: informational.
    for m in report.metrics.iter().filter(|m| m.kind == Kind::Work) {
        if !base_metrics.iter().any(|(name, _)| name == &m.name) {
            println!(
                "(new metric `{}` not in baseline — consider re-baselining)",
                m.name
            );
        }
    }

    if failures.is_empty() {
        Ok(drifts.len())
    } else {
        Err(failures)
    }
}

#[derive(Debug)]
struct Args {
    check: bool,
    write_baseline: bool,
    baseline: PathBuf,
    tolerance: f64,
    quick: bool,
    gate_timing: bool,
    /// Extra copy of the rendered report (e.g. a committed labelled
    /// snapshot like `BENCH_pr5.json`).
    out: Option<PathBuf>,
    /// Free-form label embedded in the report JSON (`"label"` key).
    label: Option<String>,
    /// Run only these comma-separated sections (codec, sim, csi,
    /// wardrive, city, keystroke, power, hub, daemon). In `--check`
    /// mode the comparison is restricted to the metrics actually
    /// measured.
    only: Option<Vec<String>>,
    /// Re-check a previously written report instead of running the
    /// workloads (no report/baseline files are written in this mode).
    from: Option<PathBuf>,
    /// Gate only metrics whose name starts with one of these prefixes
    /// (after the work/timing kind filter). Lets CI timing-gate the
    /// stable ms-scale sensing stages without tripping on ns-scale
    /// codec timings, which are pure scheduler noise on shared runners.
    gate_only: Option<Vec<String>>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        check: false,
        write_baseline: false,
        baseline: PathBuf::from(DEFAULT_BASELINE),
        tolerance: 15.0,
        quick: false,
        gate_timing: false,
        out: None,
        label: None,
        only: None,
        from: None,
        gate_only: None,
    };
    let mut args = std::env::args().skip(1);
    let mut unknown: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => out.check = true,
            "--write-baseline" => out.write_baseline = true,
            "--quick" => out.quick = true,
            "--gate-timing" => out.gate_timing = true,
            "--baseline" => {
                let raw = args
                    .next()
                    .ok_or_else(|| "--baseline needs a value".to_string())?;
                out.baseline = PathBuf::from(raw);
            }
            "--tolerance" => {
                let raw = args
                    .next()
                    .ok_or_else(|| "--tolerance needs a value".to_string())?;
                out.tolerance = raw
                    .parse()
                    .map_err(|_| format!("--tolerance: invalid value `{raw}`"))?;
                if !out.tolerance.is_finite() || out.tolerance <= 0.0 {
                    return Err(format!(
                        "--tolerance must be a positive percentage, got `{raw}`"
                    ));
                }
            }
            "--out" => {
                let raw = args
                    .next()
                    .ok_or_else(|| "--out needs a value".to_string())?;
                out.out = Some(PathBuf::from(raw));
            }
            "--label" => {
                let raw = args
                    .next()
                    .ok_or_else(|| "--label needs a value".to_string())?;
                out.label = Some(raw);
            }
            "--only" => {
                let raw = args
                    .next()
                    .ok_or_else(|| "--only needs a value".to_string())?;
                let sections: Vec<String> = raw
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                const KNOWN: [&str; 9] = [
                    "codec",
                    "sim",
                    "csi",
                    "wardrive",
                    "city",
                    "keystroke",
                    "power",
                    "hub",
                    "daemon",
                ];
                for s in &sections {
                    if !KNOWN.contains(&s.as_str()) {
                        return Err(format!(
                            "--only: unknown section `{s}` (known: {})",
                            KNOWN.join(", ")
                        ));
                    }
                }
                if sections.is_empty() {
                    return Err("--only needs at least one section".to_string());
                }
                out.only = Some(sections);
            }
            "--from" => {
                let raw = args
                    .next()
                    .ok_or_else(|| "--from needs a value".to_string())?;
                out.from = Some(PathBuf::from(raw));
            }
            "--gate-only" => {
                let raw = args
                    .next()
                    .ok_or_else(|| "--gate-only needs a value".to_string())?;
                let prefixes: Vec<String> = raw
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if prefixes.is_empty() {
                    return Err("--gate-only needs at least one prefix".to_string());
                }
                out.gate_only = Some(prefixes);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: bench_report [--check] [--write-baseline] [--baseline FILE] \
                     [--tolerance PCT] [--quick] [--gate-timing] [--out FILE] [--label TEXT] \
                     [--only SECTIONS] [--from FILE] [--gate-only PREFIXES]"
                        .to_string(),
                )
            }
            other => unknown.push(format!("`{other}`")),
        }
    }
    if !unknown.is_empty() {
        let plural = if unknown.len() == 1 { "" } else { "s" };
        return Err(format!(
            "unknown flag{plural} {} (try --help)",
            unknown.join(", ")
        ));
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    println!("bench_report: criterion workloads + macro-scenarios as a regression gate");
    println!(
        "mode: {}{}tolerance {}%",
        if args.quick { "quick, " } else { "full, " },
        if args.check { "check, " } else { "" },
        args.tolerance
    );

    let report = if let Some(from_path) = &args.from {
        // Re-check a committed snapshot — no workloads, no new files.
        let raw = match std::fs::read_to_string(from_path) {
            Ok(raw) => raw,
            Err(err) => {
                eprintln!("cannot read report {}: {err}", from_path.display());
                std::process::exit(1);
            }
        };
        let doc = match parse(&raw) {
            Ok(v) => v,
            Err(err) => {
                eprintln!("report {} is not valid JSON: {err}", from_path.display());
                std::process::exit(1);
            }
        };
        match Report::from_json(&doc) {
            Ok(report) => {
                println!(
                    "loaded {} metrics from {} (workloads skipped)",
                    report.metrics.len(),
                    from_path.display()
                );
                report
            }
            Err(err) => {
                eprintln!("report {}: {err}", from_path.display());
                std::process::exit(1);
            }
        }
    } else {
        let enabled = |section: &str| {
            args.only
                .as_ref()
                .map_or(true, |s| s.iter().any(|o| o == section))
        };
        let mut report = Report::new();
        let total = Instant::now();
        if enabled("codec") {
            run_codec(&mut report, args.quick);
            println!("  codec workloads done");
        }
        // The city macro prices its all-pairs extrapolation with the
        // exchange sim's per-event cost, so `city` implies `sim`.
        let mut per_event_ms = 0.0;
        if enabled("sim") || enabled("city") {
            per_event_ms = run_exchange_sim(&mut report);
            println!("  exchange simulator done");
        }
        if enabled("csi") {
            run_csi_pipeline(&mut report, args.quick);
            println!("  CSI pipeline done");
        }
        if enabled("wardrive") {
            run_wardrive_shard(&mut report);
            println!("  wardrive shard done");
        }
        if enabled("city") {
            run_city_macro(&mut report, per_event_ms);
            println!("  city wardrive macro done");
        }
        if enabled("keystroke") {
            run_keystroke_macro(&mut report);
            println!("  keystroke macro done");
        }
        if enabled("power") {
            run_power_macro(&mut report);
            println!("  power sweep done");
        }
        if enabled("hub") {
            run_sensing_hub_macro(&mut report);
            println!("  sensing hub macro done");
        }
        if enabled("daemon") {
            run_daemon_serving(&mut report);
            println!("  daemon serving macro done");
        }
        println!("all workloads in {:.1}s", total.elapsed().as_secs_f64());
        report
    };

    println!("\n{:<34} {:>14}  unit", "metric", "value");
    for m in &report.metrics {
        println!(
            "{:<34} {:>14.3}  {} [{}]",
            m.name,
            m.value,
            m.unit,
            m.kind.label()
        );
    }

    if args.from.is_none() {
        let json = report.to_json(args.quick, args.label.as_deref());
        let report_path = match polite_wifi_harness::write_text(REPORT_SLUG, &json) {
            Ok(path) => path,
            Err(err) => {
                eprintln!("failed to write report: {err}");
                std::process::exit(1);
            }
        };
        println!("\n[bench report written to {}]", report_path.display());

        if let Some(out_path) = &args.out {
            if let Err(err) = std::fs::write(out_path, &json) {
                eprintln!("failed to write {}: {err}", out_path.display());
                std::process::exit(1);
            }
            println!("[labelled snapshot written to {}]", out_path.display());
        }

        if args.write_baseline {
            if let Err(err) = std::fs::write(&args.baseline, &json) {
                eprintln!("failed to write baseline: {err}");
                std::process::exit(1);
            }
            println!(
                "[baseline written to {} — commit it]",
                args.baseline.display()
            );
        }
    }

    if args.check {
        let raw = match std::fs::read_to_string(&args.baseline) {
            Ok(raw) => raw,
            Err(err) => {
                eprintln!(
                    "cannot read baseline {}: {err} (generate one with --write-baseline)",
                    args.baseline.display()
                );
                std::process::exit(1);
            }
        };
        let baseline = match parse(&raw) {
            Ok(v) => v,
            Err(err) => {
                eprintln!(
                    "baseline {} is not valid JSON: {err}",
                    args.baseline.display()
                );
                std::process::exit(1);
            }
        };
        match check(
            &baseline,
            &report,
            args.tolerance,
            args.gate_timing,
            args.only.is_some(),
            args.gate_only.as_deref(),
        ) {
            Ok(gated) => {
                println!(
                    "\nbench gate PASSED: {gated} metrics within {}%",
                    args.tolerance
                );
            }
            Err(failures) => {
                eprintln!("\nbench gate FAILED:");
                for f in &failures {
                    eprintln!("  - {f}");
                }
                std::process::exit(1);
            }
        }
    }
}
