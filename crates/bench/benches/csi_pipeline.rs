//! Criterion benchmarks for the sensing pipeline, including the raw-vs-
//! conditioned ablation DESIGN.md §5 calls out.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use polite_wifi_phy::csi::CsiChannel;
use polite_wifi_sensing::features::{extract, sliding_features};
use polite_wifi_sensing::filter;
use polite_wifi_sensing::keystroke::{detect_keystrokes, KeystrokeDetectorConfig};
use polite_wifi_sensing::segment::{segment, SegmenterConfig};

fn series(n: usize) -> Vec<f64> {
    let intensities: Vec<f64> = (0..n)
        .map(|i| if i % 100 < 30 { 0.6 } else { 0.0 })
        .collect();
    CsiChannel::new(1).sample_amplitudes(&intensities, 17)
}

fn bench_csi_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("csi_generation");
    g.throughput(Throughput::Elements(1));
    let mut ch = CsiChannel::new(2);
    g.bench_function("sample_56_subcarriers", |b| b.iter(|| ch.sample(0.3)));
    let mut ch = CsiChannel::new(2);
    g.bench_function("sample_amplitudes_1_of_56", |b| {
        b.iter(|| ch.sample_amplitudes(&[0.3], 17))
    });
    g.finish();
}

fn bench_conditioning(c: &mut Criterion) {
    let s = series(6750); // 45 s at 150 Hz — the Figure 5 workload
    let mut g = c.benchmark_group("conditioning");
    g.throughput(Throughput::Elements(s.len() as u64));
    g.bench_function("hampel_plus_ma_45s", |b| {
        b.iter(|| filter::condition(black_box(&s)))
    });
    g.bench_function("hampel_only_45s", |b| {
        b.iter(|| filter::hampel(black_box(&s), 5, 3.0))
    });
    g.bench_function("moving_average_only_45s", |b| {
        b.iter(|| filter::moving_average(black_box(&s), 2))
    });
    g.finish();
}

fn bench_features_and_detection(c: &mut Criterion) {
    let s = series(6750);
    let conditioned = filter::condition(&s);
    let mut g = c.benchmark_group("inference");
    g.bench_function("window_features_60", |b| {
        b.iter(|| extract(black_box(&conditioned[..60])))
    });
    g.bench_function("sliding_features_45s", |b| {
        b.iter(|| sliding_features(black_box(&conditioned), 30, 10))
    });
    g.bench_function("segmentation_45s", |b| {
        b.iter(|| segment(black_box(&conditioned), &SegmenterConfig::default()))
    });
    // Ablation: keystroke detection on raw vs conditioned input.
    let cfg = KeystrokeDetectorConfig::default();
    g.bench_function("keystroke_detect_conditioned", |b| {
        b.iter(|| detect_keystrokes(black_box(&conditioned), &cfg))
    });
    g.bench_function("keystroke_detect_raw", |b| {
        b.iter(|| detect_keystrokes(black_box(&s), &cfg))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_csi_generation,
    bench_conditioning,
    bench_features_and_detection
);
criterion_main!(benches);
