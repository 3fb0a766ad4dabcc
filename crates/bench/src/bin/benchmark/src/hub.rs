//! `hub`: the batched sensing hub — CSI render plus the batched
//! conditioning and segmentation kernels; no simulator, no daemon.
//!
//! Untraced passes call `BatchSensingHub::run_observed`. Traced passes
//! re-drive the same per-link public calls over the same batches with a
//! span around each, and must reproduce its report exactly.

use crate::report::Report;
use crate::{
    inputs, median, percent, pinned, record_passes, time_setup, timed_phase, Ctx, WORKERS,
};
use polite_wifi_core::sensing_hub::LinkSensing;
use polite_wifi_core::{BatchHubReport, BatchSensingHub};
use polite_wifi_harness::{derive_trial_seed, Runner};
use polite_wifi_obs::{names, Obs};
use polite_wifi_phy::csi::CsiChannel;
use polite_wifi_sensing::batch::{self, SeriesBatch};
use polite_wifi_sensing::segment::{Segment, SegmenterConfig};
use polite_wifi_sensing::MotionScript;
use std::time::Instant;

/// Links per pass: four 64-link batches, two per worker.
const LINKS: usize = 256;

/// The hub a run on `seed` measures.
pub fn hub_for(seed: u64) -> BatchSensingHub {
    BatchSensingHub {
        links: LINKS,
        seed: inputs::hub_seed(seed),
        ..BatchSensingHub::default()
    }
}

/// Set-ups per `setup_s` sample: rendering one link takes about 20 ms.
const SETUP_BATCH: usize = 2;

/// The span names a traced pass records under each batch, in call order.
const LAYERS: [&str; 5] = [
    "core.script",
    "phy.render",
    "phy.extract",
    "sensing.condition",
    "sensing.segment",
];

/// `BatchSensingHub::run_observed`, re-driven call by call with a span
/// around each call into a layer.
fn traced_run(hub: &BatchSensingHub, ctx: &Ctx, pass_span: u64) -> BatchHubReport {
    let t = &ctx.tracer;
    let per_batch = hub.links_per_batch.max(1);
    let n_batches = hub.links.div_ceil(per_batch);
    let tick_us = 1_000_000 / hub.rate_pps.max(1) as u64;
    let last = hub.samples_per_link - 1;

    let outcomes = Runner::new(WORKERS).run_indexed(n_batches, |b| {
        t.span("hub.batch", pass_span, |batch| {
            let lo = b * per_batch;
            let hi = ((b + 1) * per_batch).min(hub.links);
            let mut rows = SeriesBatch::with_capacity(hub.samples_per_link, hi - lo);
            let mut intensities = vec![0.0f64; hub.samples_per_link];
            for link in lo..hi {
                t.span(LAYERS[0], batch, |_| {
                    let script: MotionScript = hub.script_for_link(link);
                    for (j, v) in intensities.iter_mut().enumerate() {
                        *v = script.intensity_at(j as u64 * tick_us);
                    }
                });
                let csi = t.span(LAYERS[1], batch, |_| {
                    CsiChannel::with_config(derive_trial_seed(hub.seed, link as u64), hub.csi)
                        .sample_batch(&intensities)
                });
                t.span(LAYERS[2], batch, |_| {
                    rows.push_row(&csi.subcarrier_amplitudes(hub.subcarrier))
                });
            }
            let conditioned = t.span(LAYERS[3], batch, |_| batch::condition_batch(&rows));
            let segments = t.span(LAYERS[4], batch, |_| {
                batch::segment_batch(&conditioned, &SegmenterConfig::default())
            });
            segments
                .iter()
                .enumerate()
                .filter(|(_, segs)| !segs.is_empty())
                .map(|(r, segs)| LinkSensing {
                    link: lo + r,
                    motion_windows_us: segs
                        .iter()
                        .map(|&Segment { start, end }| {
                            (
                                start.min(last) as u64 * tick_us,
                                (end - 1).min(last) as u64 * tick_us,
                            )
                        })
                        .collect(),
                })
                .collect::<Vec<_>>()
        })
    });
    let detections: Vec<LinkSensing> = outcomes.into_iter().flatten().collect();
    BatchHubReport {
        links: hub.links,
        batches: n_batches,
        samples_per_link: hub.samples_per_link,
        motion_links: detections.len(),
        motion_windows: detections.iter().map(|d| d.motion_windows_us.len()).sum(),
        detections,
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    // Set-up: build the hub and warm the render path on link 0.
    let mut setup = || {
        let hub = hub_for(ctx.seed);
        let script = hub.script_for_link(0);
        let tick_us = 1_000_000 / hub.rate_pps.max(1) as u64;
        let intensities: Vec<f64> = (0..hub.samples_per_link)
            .map(|j| script.intensity_at(j as u64 * tick_us))
            .collect();
        std::hint::black_box(
            CsiChannel::with_config(derive_trial_seed(hub.seed, 0), hub.csi)
                .sample_batch(&intensities),
        );
        hub
    };
    let (first_setup, hub) = time_setup(SETUP_BATCH, &mut setup, drop);
    let mut setups = vec![first_setup];
    let samples = (hub.links * hub.samples_per_link) as u64;

    let mut first: Option<BatchHubReport> = None;
    // Per traced pass: (wall, total seconds per layer).
    let mut layer_s: Vec<(f64, [f64; 5])> = Vec::new();
    let (untraced, traced) = timed_phase(
        ctx,
        "hub.pass",
        |i, span| {
            let mut obs = Obs::new();
            let t = Instant::now();
            let r = match span {
                Some(p) => traced_run(&hub, ctx, p),
                None => hub.run_observed(WORKERS, &mut obs),
            };
            let wall = t.elapsed().as_secs_f64();
            let mut problems = Vec::new();
            if let Some(p) = span {
                let batches: Vec<u64> = ctx
                    .tracer
                    .spans()
                    .iter()
                    .filter(|s| s.parent == p)
                    .map(|s| s.id)
                    .collect();
                let per_layer = LAYERS.map(|name| {
                    batches
                        .iter()
                        .map(|&b| ctx.tracer.total_s(name, Some(b)))
                        .sum::<f64>()
                });
                layer_s.push((wall, per_layer));
            } else if obs.counters.get(names::SENSING_CSI_SAMPLES) != samples {
                problems.push(format!("CSI sample counter is not {samples}"));
            }
            if (r.links, r.samples_per_link) != (hub.links, hub.samples_per_link) {
                problems.push(format!(
                    "{} links × {} samples",
                    r.links, r.samples_per_link
                ));
            }
            if let Err(e) = pinned::check_hub(ctx.seed, &r) {
                problems.push(e);
            }
            match &first {
                None => first = Some(r),
                Some(f) if *f != r => problems.push("report differs from pass 0".to_string()),
                Some(_) => {}
            }
            report.op(if problems.is_empty() {
                Ok(())
            } else {
                Err(format!("pass {i}: {}", problems.join("; ")))
            });
            wall
        },
        || setups.push(time_setup(SETUP_BATCH, &mut setup, drop).0),
    );

    record_passes(report, &setups, &untraced, &traced);
    if let Some(r) = &first {
        let n = untraced.len() + traced.len();
        report.set("phy.csi_samples", samples as f64, n);
        report.set("sensing.motion_windows", r.motion_windows as f64, n);
    }
    if !layer_s.is_empty() {
        let n = layer_s.len();
        let share = |k: usize| {
            median(
                &layer_s
                    .iter()
                    .map(|(wall, l)| percent(l[k], WORKERS as f64 * wall))
                    .collect::<Vec<_>>(),
            )
        };
        let render_ns = median(&layer_s.iter().map(|(_, l)| l[1]).collect::<Vec<_>>()) * 1e9;
        report.set("phy.render_ns_per_sample", render_ns / samples as f64, n);
        report.set("phy.render_share", share(1), n);
        report.set("phy.extract_share", share(2), n);
        report.set("sensing.condition_share", share(3), n);
        report.set("sensing.segment_share", share(4), n);
        let covered: Vec<f64> = layer_s
            .iter()
            .map(|(wall, l)| percent(l.iter().sum(), WORKERS as f64 * wall))
            .collect();
        report.median("core.covered_share", &covered, 1.0);
    }
}
