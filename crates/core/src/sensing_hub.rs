//! Single-device WiFi sensing (paper §4.3).
//!
//! One modified device — an IoT hub — round-robins fake frames across
//! its *unmodified* neighbours and senses motion from the ACK CSI of each.
//! The contrast with classical two-device sensing deployments is the
//! point: software changes on exactly one box.

use crate::attack::Attack;
use crate::elicit::{sense, Target};
use crate::injector::{InjectionKind, InjectionPlan};
use polite_wifi_frame::MacAddr;
use polite_wifi_harness::{derive_trial_seed, Runner, ScenarioBuilder};
use polite_wifi_obs::json::{JsonWriter, ToJson};
use polite_wifi_obs::{names, Obs};
use polite_wifi_phy::csi::{CsiChannel, CsiConfig};
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sensing::batch::{self, SeriesBatch};
use polite_wifi_sensing::segment::{segment, Segment, SegmenterConfig};
use polite_wifi_sensing::{filter, MotionScript};
use polite_wifi_sim::{FaultProfile, Simulator};

/// Configuration of the sensing hub.
#[derive(Debug, Clone, PartialEq)]
pub struct SensingHub {
    /// Fake-frame rate aimed at *each* target (the paper cites 100–1000
    /// packets/s as the sensing requirement).
    pub rate_pps_per_target: u32,
    /// Subcarrier to sense on.
    pub subcarrier: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Channel/device fault profile the scenario runs under.
    pub faults: FaultProfile,
}

impl Default for SensingHub {
    fn default() -> Self {
        SensingHub {
            rate_pps_per_target: 150,
            subcarrier: 17,
            seed: 7,
            faults: FaultProfile::Clean,
        }
    }
}

/// What the hub sensed at one target.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSensing {
    /// The unmodified neighbour polled.
    pub target: MacAddr,
    /// CSI samples collected.
    pub samples: usize,
    /// Detected motion windows, in µs of simulation time.
    pub motion_windows_us: Vec<(u64, u64)>,
}

impl ToJson for TargetSensing {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .key("target")
            .value(&self.target.0)
            .key("samples")
            .value(&self.samples)
            .key("motion_windows_us")
            .value(&self.motion_windows_us)
            .end_object();
    }
}

/// The hub's full report.
#[derive(Debug, Clone, PartialEq)]
pub struct SensingReport {
    /// Devices whose software was modified (always 1 — the hub).
    pub devices_modified: usize,
    /// Devices participating in sensing (hub + unmodified targets).
    pub devices_participating: usize,
    /// Per-target results.
    pub targets: Vec<TargetSensing>,
}

polite_wifi_obs::impl_to_json! { SensingReport {
    devices_modified, devices_participating, targets
} }

impl SensingHub {
    /// Runs the sensing scenario: `scripts[i]` is the ground-truth motion
    /// near target `i`. Returns detected motion windows per target.
    pub fn run(&self, scripts: &[MotionScript]) -> SensingReport {
        let hub_mac: MacAddr = "18:b4:30:00:00:01".parse().unwrap(); // an IoT hub
        let duration_us = scripts.iter().map(|s| s.duration_us()).max().unwrap_or(0);

        let mut sb = ScenarioBuilder::new().faults(self.faults);
        let hub = sb.monitor(hub_mac, (0.0, 0.0));
        sb.retries(hub, false);
        let mut targets = Vec::new();
        for (i, script) in scripts.iter().enumerate() {
            let victim = MacAddr::new([0xf2, 0x6e, 0x0b, 0x00, 0x10, i as u8]);
            let angle = i as f64 * 2.0 * std::f64::consts::PI / scripts.len().max(1) as f64;
            sb.client(victim, (6.0 * angle.cos(), 6.0 * angle.sin()));
            targets.push(Target {
                victim,
                script,
                channel_seed: self.seed ^ (i as u64 + 1),
            });
        }
        let mut sim = sb.build_with_seed(self.seed).sim;

        // Round-robin injection: each target gets rate_pps_per_target,
        // interleaved so the hub's radio never bursts one target.
        for (i, target) in targets.iter().enumerate() {
            let plan = InjectionPlan {
                victim: target.victim,
                forged_ta: hub_mac,
                kind: InjectionKind::NullData,
                rate_pps: self.rate_pps_per_target,
                start_us: (i as u64) * 1_000_000
                    / (self.rate_pps_per_target as u64)
                    / (scripts.len().max(1) as u64),
                duration_us,
                bitrate: BitRate::Mbps1,
            };
            plan.launch(&mut sim, hub);
        }

        // ACKs carry no source address: each is attributed to the target
        // of the fake it answers, over the ideal observer's capture.
        let streams = sense(
            &mut sim,
            duration_us,
            Simulator::global_capture,
            hub_mac,
            &targets,
            self.subcarrier,
        );
        let mut results = Vec::new();
        for (target, stream) in targets.iter().zip(streams) {
            let times = stream.times_us;
            let segs = segment(
                &filter::condition(&stream.amplitudes),
                &SegmenterConfig::default(),
            );
            let last = times.len().saturating_sub(1);
            let motion_windows_us = segs
                .iter()
                .map(|&Segment { start, end }| (times[start.min(last)], times[(end - 1).min(last)]))
                .collect();
            results.push(TargetSensing {
                target: target.victim,
                samples: times.len(),
                motion_windows_us,
            });
        }

        SensingReport {
            devices_modified: 1,
            devices_participating: 1 + targets.len(),
            targets: results,
        }
    }
}

/// A sensing hub multiplexing *many* links (≥1k) over the batched
/// kernels — the city-scale counterpart of [`SensingHub`].
///
/// Where [`SensingHub`] drives the full MAC simulator per neighbour,
/// this front-end assumes the injection already succeeded at a steady
/// `rate_pps` per link (the regime the paper's §4.3 requires anyway) and
/// spends its time where a 1k-link deployment would: rendering each
/// link's sensed subcarrier (`CsiChannel::sample_amplitudes`), conditioning whole
/// [`SeriesBatch`]es of links at once, and segmenting the results. Links
/// are processed in row batches of `links_per_batch`; work fans out
/// across workers per batch and merges in batch order, so the report and
/// the absorbed [`Obs`] counters are byte-identical at any worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSensingHub {
    /// Number of sensed links.
    pub links: usize,
    /// CSI samples collected per link.
    pub samples_per_link: usize,
    /// Nominal ACK cadence per link (fixes the sample timestamps).
    pub rate_pps: u32,
    /// Subcarrier to sense on.
    pub subcarrier: usize,
    /// Seed; per-link channel seeds derive from it.
    pub seed: u64,
    /// Links conditioned/segmented per kernel pass (one `SeriesBatch`).
    pub links_per_batch: usize,
    /// CSI channel model for every link.
    pub csi: CsiConfig,
}

impl Default for BatchSensingHub {
    fn default() -> Self {
        BatchSensingHub {
            links: 1000,
            samples_per_link: 2048,
            rate_pps: 150,
            subcarrier: 17,
            seed: 11,
            links_per_batch: 64,
            csi: CsiConfig::default(),
        }
    }
}

/// One link's outcome in a [`BatchHubReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSensing {
    /// Link index.
    pub link: usize,
    /// Detected motion windows, µs.
    pub motion_windows_us: Vec<(u64, u64)>,
}

polite_wifi_obs::impl_to_json! { LinkSensing { link, motion_windows_us } }

/// What the batched hub sensed across all links.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchHubReport {
    /// Links sensed.
    pub links: usize,
    /// Kernel batches processed.
    pub batches: usize,
    /// Samples rendered per link.
    pub samples_per_link: usize,
    /// Links with at least one detected motion window.
    pub motion_links: usize,
    /// Total motion windows across links.
    pub motion_windows: usize,
    /// Per-link detections (only links with ≥1 window, to keep the
    /// envelope small at 1k links).
    pub detections: Vec<LinkSensing>,
}

polite_wifi_obs::impl_to_json! { BatchHubReport {
    links, batches, samples_per_link, motion_links, motion_windows, detections
} }

impl BatchSensingHub {
    /// The deterministic ground-truth script for one link: every third
    /// link is idle; the rest get one walk-by whose timing varies with
    /// the link index.
    pub fn script_for_link(&self, link: usize) -> MotionScript {
        let duration_us = self.duration_us();
        if link % 3 == 1 {
            MotionScript::idle(duration_us)
        } else {
            let span = duration_us / 8;
            let start = duration_us / 4 + (link as u64 % 7) * span / 8;
            MotionScript::walk_by(duration_us, start, start + span)
        }
    }

    /// Observation time implied by the sample budget and cadence.
    pub fn duration_us(&self) -> u64 {
        self.samples_per_link as u64 * 1_000_000 / self.rate_pps.max(1) as u64
    }

    /// Runs the hub without observability.
    pub fn run(&self, workers: usize) -> BatchHubReport {
        self.run_observed(workers, &mut Obs::new())
    }

    /// Runs the hub, folding `hub.links`/`hub.batches` (and per-batch
    /// sample/window tallies) into `obs` in batch order.
    pub fn run_observed(&self, workers: usize, obs: &mut Obs) -> BatchHubReport {
        let per_batch = self.links_per_batch.max(1);
        let n_batches = self.links.div_ceil(per_batch);
        let tick_us = 1_000_000 / self.rate_pps.max(1) as u64;

        let runner = Runner::new(workers);
        let outcomes = runner.run_indexed(n_batches, |b| {
            let lo = b * per_batch;
            let hi = ((b + 1) * per_batch).min(self.links);
            let mut batch_obs = Obs::new();

            // Render each link's sensed subcarrier in one pass into one
            // row-per-link SeriesBatch.
            let mut rows = SeriesBatch::with_capacity(self.samples_per_link, hi - lo);
            let mut intensities = vec![0.0f64; self.samples_per_link];
            for link in lo..hi {
                let script = self.script_for_link(link);
                for (j, v) in intensities.iter_mut().enumerate() {
                    *v = script.intensity_at(j as u64 * tick_us);
                }
                let mut channel =
                    CsiChannel::with_config(derive_trial_seed(self.seed, link as u64), self.csi);
                let amplitudes = channel.sample_amplitudes(&intensities, self.subcarrier);
                rows.push_row(&amplitudes);
                batch_obs.add(names::SENSING_CSI_SAMPLES, amplitudes.len() as u64);
            }

            let conditioned = batch::condition_batch(&rows);
            let segments = batch::segment_batch(&conditioned, &SegmenterConfig::default());

            let mut detections = Vec::new();
            for (r, segs) in segments.iter().enumerate() {
                if segs.is_empty() {
                    continue;
                }
                let motion_windows_us = segs
                    .iter()
                    .map(|&Segment { start, end }| {
                        (
                            start.min(self.samples_per_link - 1) as u64 * tick_us,
                            (end - 1).min(self.samples_per_link - 1) as u64 * tick_us,
                        )
                    })
                    .collect::<Vec<_>>();
                batch_obs.add(
                    names::SENSING_MOTION_WINDOWS,
                    motion_windows_us.len() as u64,
                );
                detections.push(LinkSensing {
                    link: lo + r,
                    motion_windows_us,
                });
            }
            batch_obs.add(names::HUB_LINKS, (hi - lo) as u64);
            batch_obs.add(names::HUB_BATCHES, 1);
            (detections, batch_obs)
        });

        let mut detections = Vec::new();
        for (b, (dets, batch_obs)) in outcomes.into_iter().enumerate() {
            detections.extend(dets);
            obs.absorb(&batch_obs, b as u64);
        }
        BatchHubReport {
            links: self.links,
            batches: n_batches,
            samples_per_link: self.samples_per_link,
            motion_links: detections.len(),
            motion_windows: detections.iter().map(|d| d.motion_windows_us.len()).sum(),
            detections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_senses_motion_at_the_scripted_times() {
        // Figure 5's caption: movements near the target at t≈9 s and
        // t≈32 s create sharp CSI changes. Script two walk-bys.
        let script = {
            let mut s = MotionScript::walk_by(40_000_000, 9_000_000, 11_000_000);
            // Add a second event at 32 s.
            s.phases.pop(); // drop trailing idle
            s.phases.push(polite_wifi_sensing::Phase {
                start_us: 11_000_000,
                end_us: 32_000_000,
                label: "idle".into(),
                intensity: 0.0,
            });
            s.phases.push(polite_wifi_sensing::Phase {
                start_us: 32_000_000,
                end_us: 34_000_000,
                label: "walk".into(),
                intensity: 0.8,
            });
            s.phases.push(polite_wifi_sensing::Phase {
                start_us: 34_000_000,
                end_us: 40_000_000,
                label: "idle".into(),
                intensity: 0.0,
            });
            s
        };
        let report = SensingHub::default().run(&[script]);
        assert_eq!(report.devices_modified, 1);
        assert_eq!(report.devices_participating, 2);
        let t = &report.targets[0];
        assert!(t.samples > 4_000, "only {} samples", t.samples);
        assert_eq!(
            t.motion_windows_us.len(),
            2,
            "windows: {:?}",
            t.motion_windows_us
        );
        let (s1, e1) = t.motion_windows_us[0];
        let (s2, e2) = t.motion_windows_us[1];
        assert!(s1 < 10_000_000 && e1 > 9_000_000, "first window {s1}..{e1}");
        assert!(
            s2 < 33_000_000 && e2 > 32_000_000,
            "second window {s2}..{e2}"
        );
    }

    fn small_hub() -> BatchSensingHub {
        BatchSensingHub {
            links: 30,
            samples_per_link: 400,
            links_per_batch: 8,
            // A lean channel keeps the debug-mode test quick; the macro
            // bench exercises the full 56-subcarrier default.
            csi: CsiConfig {
                subcarriers: 8,
                taps: 4,
                ..CsiConfig::default()
            },
            subcarrier: 3,
            ..BatchSensingHub::default()
        }
    }

    #[test]
    fn batch_hub_detects_the_scripted_links() {
        let hub = small_hub();
        let report = hub.run(1);
        assert_eq!(report.links, 30);
        assert_eq!(report.batches, 4); // ceil(30 / 8)
        assert_eq!(report.samples_per_link, 400);
        // Links ≡ 1 (mod 3) are scripted idle; the rest get a walk-by.
        for det in &report.detections {
            assert_ne!(det.link % 3, 1, "idle link {} flagged", det.link);
            assert!(!det.motion_windows_us.is_empty());
        }
        // Most moving links are detected (20 scripted movers).
        assert!(
            report.motion_links >= 16,
            "only {} of 20 movers detected",
            report.motion_links
        );
    }

    #[test]
    fn batch_hub_is_worker_invariant() {
        let hub = small_hub();
        let mut obs1 = Obs::new();
        let r1 = hub.run_observed(1, &mut obs1);
        let mut obs4 = Obs::new();
        let r4 = hub.run_observed(4, &mut obs4);
        assert_eq!(r1, r4);
        assert_eq!(obs1.metrics_json(), obs4.metrics_json());
        assert_eq!(obs1.counters.get(names::HUB_LINKS), 30);
        assert_eq!(obs1.counters.get(names::HUB_BATCHES), 4);
    }

    #[test]
    fn multiple_unmodified_targets_sensed_concurrently() {
        let scripts = vec![
            MotionScript::walk_by(20_000_000, 5_000_000, 7_000_000),
            MotionScript::idle(20_000_000),
            MotionScript::walk_by(20_000_000, 12_000_000, 14_000_000),
        ];
        let report = SensingHub::default().run(&scripts);
        assert_eq!(report.devices_participating, 4);
        assert_eq!(report.targets.len(), 3);
        // Target 0 and 2 saw motion; target 1 did not.
        assert!(!report.targets[0].motion_windows_us.is_empty());
        assert!(report.targets[1].motion_windows_us.is_empty());
        assert!(!report.targets[2].motion_windows_us.is_empty());
        // And all were sensed without modifying them.
        assert_eq!(report.devices_modified, 1);
    }
}
