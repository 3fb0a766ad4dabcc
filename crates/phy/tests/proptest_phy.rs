//! Property tests on the PHY substrate's invariants.

use polite_wifi_phy::airtime;
use polite_wifi_phy::band::Band;
use polite_wifi_phy::complex::Complex;
use polite_wifi_phy::csi::{CsiChannel, CsiConfig, CsiSnapshot};
use polite_wifi_phy::fading::cn;
use polite_wifi_phy::link;
use polite_wifi_phy::pathloss::PathLoss;
use polite_wifi_phy::rate::BitRate;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_rate() -> impl Strategy<Value = BitRate> {
    prop::sample::select(BitRate::ALL.to_vec())
}

fn arb_band() -> impl Strategy<Value = Band> {
    prop_oneof![Just(Band::Ghz2), Just(Band::Ghz5)]
}

/// The default channel, or a small one with drawn dynamics that also
/// reach the edges the zero-drive skip depends on: no scatter at all, no
/// memory (the scatter decays to an exact zero at once) or a short one,
/// and no measurement noise.
fn arb_csi_config() -> impl Strategy<Value = CsiConfig> {
    let rho = prop_oneof![Just(0.0), Just(0.01), 0.0f64..0.99];
    let scatter_scale = prop_oneof![Just(0.0), 0.0f64..1.0];
    let noise_std = prop_oneof![Just(0.0), 0.0f64..0.1];
    let small = ((1usize..12, 1usize..6), (rho, scatter_scale, noise_std)).prop_map(
        |((subcarriers, taps), (rho, scatter_scale, noise_std))| CsiConfig {
            subcarriers,
            taps,
            rho,
            scatter_scale,
            noise_std,
        },
    );
    prop_oneof![Just(CsiConfig::default()), small]
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Intensity runs: exact `0.0` and `-0.0`, a subnormal whose drive std
/// underflows to 0, a tiny level whose drive still moves the gains' low
/// bits, full motion and drawn levels (out of range included), in runs
/// long enough for a driven scatter to decay once the motion stops; or
/// one all-zero run.
fn arb_zero_runs() -> impl Strategy<Value = Vec<f64>> {
    let level = prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::from_bits(1)),
        Just(1e-9),
        Just(1.0),
        -0.5f64..1.5,
    ];
    let runs = proptest::collection::vec((level, 1usize..160), 1..6).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(m, len)| std::iter::repeat(m).take(len))
            .collect()
    });
    prop_oneof![runs, (1usize..300).prop_map(|n| vec![0.0; n])]
}

/// `CsiChannel` as it was before undriven taps skipped their draws:
/// every tap draws its `cn` innovation every sample, whatever its drive
/// std. Built from the public pieces with `CsiChannel::with_config`'s
/// float operations in the same order, so it is an independent oracle.
struct AlwaysDrawnChannel {
    config: CsiConfig,
    rng: ChaCha8Rng,
    static_taps: Vec<Complex>,
    drive_sigma: Vec<f64>,
    scatter: Vec<Complex>,
    /// `e^(−j2π·fₖ·τᵢ)`, row-major `[subcarrier][tap]`.
    rot: Vec<Complex>,
}

impl AlwaysDrawnChannel {
    fn new(seed: u64, config: CsiConfig) -> AlwaysDrawnChannel {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut static_taps = Vec::new();
        let mut delays = Vec::new();
        for i in 0..config.taps {
            let power = (-(i as f64) / 3.0).exp();
            static_taps.push(cn(&mut rng, (power / 2.0).sqrt()));
            delays.push(i as f64 + 0.3 * (i as f64).sin());
        }
        let total: f64 = static_taps.iter().map(|t| t.norm_sq()).sum();
        let scale = (1.0 / total.max(1e-9)).sqrt();
        for t in &mut static_taps {
            *t = t.scale(scale);
        }
        let innovation_sigma = config.scatter_scale * (1.0 - config.rho * config.rho).sqrt();
        let drive_sigma = static_taps
            .iter()
            .map(|t| innovation_sigma * t.abs().max(0.05))
            .collect();
        let n = config.subcarriers;
        let mut rot = Vec::new();
        for k in 0..n {
            let fk = (k as f64 - n as f64 / 2.0) / n as f64;
            for &delay in &delays {
                rot.push(Complex::from_polar(
                    1.0,
                    -2.0 * std::f64::consts::PI * fk * delay,
                ));
            }
        }
        AlwaysDrawnChannel {
            config,
            rng,
            static_taps,
            drive_sigma,
            scatter: vec![Complex::ZERO; config.taps],
            rot,
        }
    }

    /// The reference `advance`: one `cn` per tap, always.
    fn advance(&mut self, motion_intensity: f64) {
        let m = motion_intensity.clamp(0.0, 1.0);
        for (s, &sigma) in self.scatter.iter_mut().zip(&self.drive_sigma) {
            let drive = cn(&mut self.rng, sigma * m);
            *s = s.scale(self.config.rho) + drive;
        }
    }

    fn sample(&mut self, motion_intensity: f64) -> CsiSnapshot {
        self.advance(motion_intensity);
        let gains: Vec<Complex> = self
            .static_taps
            .iter()
            .zip(&self.scatter)
            .map(|(st, sc)| *st + *sc)
            .collect();
        let mut snap = CsiSnapshot {
            amplitudes: Vec::new(),
            phases: Vec::new(),
        };
        for row in self.rot.chunks_exact(self.config.taps) {
            let mut h = Complex::ZERO;
            for (gain, rot) in gains.iter().zip(row) {
                h += *gain * *rot;
            }
            let observed = h + cn(&mut self.rng, self.config.noise_std);
            snap.amplitudes.push(observed.abs());
            snap.phases.push(observed.arg());
        }
        snap
    }
}

fn snapshot_bits(snap: &CsiSnapshot) -> (Vec<u64>, Vec<u64>) {
    (bits(&snap.amplitudes), bits(&snap.phases))
}

proptest! {
    #[test]
    fn airtime_monotone_in_length(rate in arb_rate(), len in 0usize..3000, extra in 1usize..500) {
        let a = airtime::frame_duration_us(len, rate, false);
        let b = airtime::frame_duration_us(len + extra, rate, false);
        prop_assert!(b >= a);
    }

    #[test]
    fn faster_rate_never_slower_within_family(len in 1usize..3000) {
        // Within DSSS and within OFDM, higher bit rates give shorter or
        // equal airtime for the same PSDU.
        let dsss = [BitRate::Mbps1, BitRate::Mbps2, BitRate::Mbps5_5, BitRate::Mbps11];
        let ofdm = [
            BitRate::Mbps6, BitRate::Mbps9, BitRate::Mbps12, BitRate::Mbps18,
            BitRate::Mbps24, BitRate::Mbps36, BitRate::Mbps48, BitRate::Mbps54,
        ];
        for family in [&dsss[..], &ofdm[..]] {
            for pair in family.windows(2) {
                let slow = airtime::frame_duration_us(len, pair[0], false);
                let fast = airtime::frame_duration_us(len, pair[1], false);
                prop_assert!(fast <= slow, "{:?} vs {:?} at {}", pair[0], pair[1], len);
            }
        }
    }

    #[test]
    fn response_rate_is_idempotent_and_not_faster(rate in arb_rate()) {
        let resp = rate.response_rate();
        prop_assert!(resp.bps() <= rate.bps().max(resp.bps()));
        // A response to a response uses the same rate (fixed point).
        prop_assert_eq!(resp.response_rate(), resp);
        // Family is preserved.
        prop_assert_eq!(resp.is_dsss(), rate.is_dsss());
    }

    #[test]
    fn ack_timeout_always_covers_sifs_plus_ack(band in arb_band(), rate in arb_rate()) {
        let timeout = airtime::ack_timeout_us(band, rate);
        let min = band.sifs_us() + airtime::ack_duration_us(rate, false);
        prop_assert!(timeout >= min);
    }

    #[test]
    fn fer_is_probability_and_monotone_in_snr(rate in arb_rate(),
                                              len in 1usize..2000,
                                              snr in -10.0f64..40.0) {
        let f = link::fer(len, rate, snr);
        prop_assert!((0.0..=1.0).contains(&f));
        let better = link::fer(len, rate, snr + 5.0);
        prop_assert!(better <= f + 1e-12);
    }

    #[test]
    fn fer_monotone_in_length(rate in arb_rate(), snr in 0.0f64..30.0,
                              len in 1usize..1000, extra in 1usize..500) {
        prop_assert!(link::fer(len + extra, rate, snr) >= link::fer(len, rate, snr) - 1e-12);
    }

    #[test]
    fn path_loss_monotone_in_distance(d in 0.5f64..500.0, extra in 0.1f64..500.0) {
        for model in [PathLoss::free_space_2ghz4(), PathLoss::indoor_2ghz4()] {
            prop_assert!(model.loss_db(d + extra) >= model.loss_db(d));
            prop_assert!(model.loss_db(d).is_finite());
        }
    }

    #[test]
    fn csi_amplitudes_finite_and_positive(seed in any::<u64>(),
                                          intensities in proptest::collection::vec(0.0f64..1.0, 1..50)) {
        let mut ch = CsiChannel::new(seed);
        for m in intensities {
            let snap = ch.sample(m);
            prop_assert!(snap.amplitudes.iter().all(|a| a.is_finite() && *a >= 0.0));
            prop_assert!(snap.phases.iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn csi_channel_never_diverges_under_sustained_motion(seed in any::<u64>()) {
        // The AR(1) scatter must stay bounded even after long bursts.
        let mut ch = CsiChannel::with_config(seed, CsiConfig::default());
        let mut max_amp: f64 = 0.0;
        for _ in 0..500 {
            let s = ch.sample(1.0);
            max_amp = max_amp.max(s.amplitudes.iter().cloned().fold(0.0, f64::max));
        }
        prop_assert!(max_amp < 100.0, "amplitude diverged to {max_amp}");
    }

    #[test]
    fn sample_batch_matches_sample_loop(seed in any::<u64>(),
                                        intensities in proptest::collection::vec(-0.5f64..1.5, 1..80),
                                        config in arb_csi_config(),
                                        pick in (0usize..3, any::<usize>())) {
        // The batched SoA path must be bit-for-bit the AoS sequence: same
        // RNG draw order, same float op order (out-of-range intensities
        // included, which exercise the clamp).
        let mut aos = CsiChannel::new(seed);
        let mut soa = CsiChannel::new(seed);
        let batch = soa.sample_batch(&intensities);
        prop_assert_eq!(batch.len(), intensities.len());
        for (s, m) in intensities.iter().enumerate() {
            let snap = aos.sample(*m);
            prop_assert_eq!(&batch.snapshot(s), &snap, "sample {}", s);
        }
        // And the channels end in identical states.
        prop_assert_eq!(aos.sample(0.3), soa.sample(0.3));

        // The one-subcarrier render is bit-for-bit the batch's column —
        // first, last or any subcarrier — and leaves the same state.
        let n = config.subcarriers;
        let k = match pick.0 {
            0 => 0,
            1 => n - 1,
            _ => pick.1 % n,
        };
        let mut full = CsiChannel::with_config(seed, config);
        let mut one = CsiChannel::with_config(seed, config);
        let want = full.sample_batch(&intensities).subcarrier_amplitudes(k);
        let got = one.sample_amplitudes(&intensities, k);
        prop_assert_eq!(bits(&got), bits(&want), "subcarrier {} of {}", k, n);
        prop_assert_eq!(one.sample(0.3), full.sample(0.3));
    }

    #[test]
    fn erfc_bounds(x in -6.0f64..6.0) {
        let v = link::erfc(x);
        prop_assert!((0.0..=2.0).contains(&v));
        // Symmetry: erfc(-x) = 2 - erfc(x).
        prop_assert!((link::erfc(-x) - (2.0 - v)).abs() < 1e-9);
    }
}

proptest! {
    // Each case renders up to ~1,000 samples four ways.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn zero_drive_skip_matches_always_drawn_channel(seed in any::<u64>(),
                                                    intensities in arb_zero_runs(),
                                                    config in arb_csi_config(),
                                                    pick in any::<usize>()) {
        // Undriven taps skip their Box–Muller draws; every render path
        // must still be bit-for-bit the channel that always draws, and
        // leave the same state behind.
        let mut oracle = AlwaysDrawnChannel::new(seed, config);
        let want: Vec<CsiSnapshot> = intensities.iter().map(|&m| oracle.sample(m)).collect();
        let want_next = snapshot_bits(&oracle.sample(0.3));

        let mut one = CsiChannel::with_config(seed, config);
        for (s, (&m, w)) in intensities.iter().zip(&want).enumerate() {
            prop_assert_eq!(snapshot_bits(&one.sample(m)), snapshot_bits(w), "sample {}", s);
        }
        prop_assert_eq!(snapshot_bits(&one.sample(0.3)), want_next.clone());

        let mut batched = CsiChannel::with_config(seed, config);
        let batch = batched.sample_batch(&intensities);
        for (s, w) in want.iter().enumerate() {
            prop_assert_eq!(snapshot_bits(&batch.snapshot(s)), snapshot_bits(w), "batch sample {}", s);
        }
        prop_assert_eq!(snapshot_bits(&batched.sample(0.3)), want_next.clone());

        let k = pick % config.subcarriers;
        let mut column = CsiChannel::with_config(seed, config);
        let got = column.sample_amplitudes(&intensities, k);
        let want_column: Vec<f64> = want.iter().map(|w| w.amplitudes[k]).collect();
        prop_assert_eq!(bits(&got), bits(&want_column), "subcarrier {}", k);
        prop_assert_eq!(snapshot_bits(&column.sample(0.3)), want_next);
    }
}
