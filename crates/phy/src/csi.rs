//! Channel State Information (CSI) with motion-driven dynamics.
//!
//! This is the synthetic stand-in for the ESP32 CSI measurements of
//! Section 4.1 / Figure 5. The channel is a tapped-delay-line multipath
//! model; the frequency response across OFDM subcarriers is
//!
//! ```text
//! H[k] = Σᵢ (aᵢ + sᵢ(t)) · e^(−j2π·fₖ·τᵢ)
//! ```
//!
//! where `aᵢ` are static tap gains (the room) and `sᵢ(t)` are scattered
//! components driven by human motion: an AR(1) process whose innovation is
//! scaled by the instantaneous *motion intensity* in `[0, 1]`. With
//! intensity 0 the response is rock-stable (plus measurement noise), which
//! is exactly the paper's "tablet on the ground" segment; picking the
//! device up (intensity ≈ 1) produces large swings; typing produces
//! mid-scale fluctuations.

use crate::complex::Complex;
use crate::fading::{cn, skip_cn};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Number of usable subcarriers reported for a legacy 20 MHz channel
/// (as the ESP32 does: 52 data + 4 pilots).
pub const DEFAULT_SUBCARRIERS: usize = 56;

/// The amplitude/phase of every subcarrier at one instant — one row of
/// Figure 5 per subcarrier.
#[derive(Debug, Clone, PartialEq)]
pub struct CsiSnapshot {
    /// Per-subcarrier amplitude (linear).
    pub amplitudes: Vec<f64>,
    /// Per-subcarrier phase in radians.
    pub phases: Vec<f64>,
}

impl CsiSnapshot {
    /// Number of subcarriers.
    pub fn num_subcarriers(&self) -> usize {
        self.amplitudes.len()
    }

    /// Amplitude of one subcarrier (the paper plots subcarrier 17).
    pub fn amplitude(&self, subcarrier: usize) -> f64 {
        self.amplitudes[subcarrier]
    }
}

/// A flat structure-of-arrays batch of full CSI snapshots (DESIGN.md
/// §12), for callers that need every subcarrier.
///
/// Layout is sample-major: element `s * subcarriers + k` is subcarrier
/// `k` of sample `s`, matching the order the channel generates values
/// in, so [`CsiChannel::sample_batch`] writes it with no scatter.
/// Values are bit-for-bit the ones the equivalent sequence of
/// [`CsiChannel::sample`] calls would have produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsiBatch {
    /// Subcarriers per sample.
    pub subcarriers: usize,
    /// Per-subcarrier amplitudes, sample-major.
    pub amplitudes: Vec<f64>,
    /// Per-subcarrier phases, sample-major.
    pub phases: Vec<f64>,
}

impl CsiBatch {
    /// An empty batch with capacity for `samples` snapshots.
    pub fn with_capacity(subcarriers: usize, samples: usize) -> CsiBatch {
        CsiBatch {
            subcarriers,
            amplitudes: Vec::with_capacity(subcarriers * samples),
            phases: Vec::with_capacity(subcarriers * samples),
        }
    }

    /// Number of snapshots in the batch.
    pub fn len(&self) -> usize {
        self.amplitudes
            .len()
            .checked_div(self.subcarriers)
            .unwrap_or(0)
    }

    /// True when the batch holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.amplitudes.is_empty()
    }

    /// Amplitude of one (sample, subcarrier) cell.
    pub fn amplitude(&self, sample: usize, subcarrier: usize) -> f64 {
        self.amplitudes[sample * self.subcarriers + subcarrier]
    }

    /// Copies one sample out as an AoS [`CsiSnapshot`].
    pub fn snapshot(&self, sample: usize) -> CsiSnapshot {
        let lo = sample * self.subcarriers;
        let hi = lo + self.subcarriers;
        CsiSnapshot {
            amplitudes: self.amplitudes[lo..hi].to_vec(),
            phases: self.phases[lo..hi].to_vec(),
        }
    }

    /// Gathers the amplitude time series of one subcarrier (a strided
    /// column of the batch) into a contiguous row.
    pub fn subcarrier_amplitudes(&self, subcarrier: usize) -> Vec<f64> {
        assert!(subcarrier < self.subcarriers, "subcarrier out of range");
        self.amplitudes
            .chunks_exact(self.subcarriers)
            .map(|row| row[subcarrier])
            .collect()
    }

    /// Appends another batch (same subcarrier count) to this one.
    pub fn extend(&mut self, other: &CsiBatch) {
        assert_eq!(self.subcarriers, other.subcarriers, "subcarrier mismatch");
        self.amplitudes.extend_from_slice(&other.amplitudes);
        self.phases.extend_from_slice(&other.phases);
    }
}

/// Configuration of the synthetic CSI channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsiConfig {
    /// Number of OFDM subcarriers to report.
    pub subcarriers: usize,
    /// Number of multipath taps.
    pub taps: usize,
    /// AR(1) memory of the scattered components, calibrated for ~150 Hz
    /// sampling (the paper's fake-frame rate).
    pub rho: f64,
    /// Scale of motion-driven scattering relative to the static taps.
    pub scatter_scale: f64,
    /// Std of additive measurement noise on each subcarrier amplitude.
    pub noise_std: f64,
}

impl Default for CsiConfig {
    fn default() -> Self {
        CsiConfig {
            subcarriers: DEFAULT_SUBCARRIERS,
            taps: 8,
            rho: 0.9,
            scatter_scale: 0.5,
            noise_std: 0.01,
        }
    }
}

/// A stateful CSI channel between one attacker and one victim.
///
/// Call [`CsiChannel::sample`] once per received ACK, passing the motion
/// intensity at that instant; the returned snapshot is what the attacker's
/// radio would report. A caller that reads one subcarrier renders the
/// whole ACK stream with [`CsiChannel::sample_amplitudes`] instead.
#[derive(Debug, Clone)]
pub struct CsiChannel {
    config: CsiConfig,
    rng: ChaCha8Rng,
    /// Static tap gains — the room's geometry.
    static_taps: Vec<Complex>,
    /// Per-tap innovation std at full motion,
    /// `scatter_scale·√(1−ρ²)·max(|aᵢ|, 0.05)`: a pure function of the
    /// config and the static taps, so it is fixed at construction.
    drive_sigma: Vec<f64>,
    /// Motion-driven scattered components, AR(1)-evolved.
    scatter: Vec<Complex>,
    /// Precomputed subcarrier rotations `e^(−j2π·fₖ·τᵢ)`, row-major
    /// `[subcarrier][tap]`, with tap delays `τᵢ` in sample periods
    /// (fractional allowed). Delays and the subcarrier grid are fixed at
    /// construction, so the per-sample sin/cos of the original scalar
    /// loop folds into this table — values are bit-identical.
    rot: Vec<Complex>,
    /// Per-tap gain scratch (static + scatter), refreshed each sample so
    /// the subcarrier loop reads a flat array instead of re-adding.
    gains: Vec<Complex>,
}

impl CsiChannel {
    /// Builds a channel with the default configuration.
    pub fn new(seed: u64) -> CsiChannel {
        CsiChannel::with_config(seed, CsiConfig::default())
    }

    /// Builds a channel with an explicit configuration.
    pub fn with_config(seed: u64, config: CsiConfig) -> CsiChannel {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut static_taps = Vec::with_capacity(config.taps);
        let mut delays = Vec::with_capacity(config.taps);
        for i in 0..config.taps {
            // Exponentially decaying power-delay profile.
            let power = (-(i as f64) / 3.0).exp();
            static_taps.push(cn(&mut rng, (power / 2.0).sqrt()));
            delays.push(i as f64 + 0.3 * (i as f64).sin());
        }
        // Normalise so the mean per-subcarrier power is about 1.
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
        let scatter = vec![Complex::ZERO; config.taps];
        let n = config.subcarriers;
        let mut rot = Vec::with_capacity(n * config.taps);
        for k in 0..n {
            // Normalised subcarrier frequency in [-0.5, 0.5) — the same
            // expression the per-sample loop used before the table.
            let fk = (k as f64 - n as f64 / 2.0) / n as f64;
            for &delay in &delays {
                rot.push(Complex::from_polar(
                    1.0,
                    -2.0 * std::f64::consts::PI * fk * delay,
                ));
            }
        }
        CsiChannel {
            config,
            rng,
            static_taps,
            drive_sigma,
            scatter,
            rot,
            gains: vec![Complex::ZERO; config.taps],
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CsiConfig {
        &self.config
    }

    /// Evolves the scattered components by one sample interval: decay
    /// toward zero, excited by motion-scaled innovations.
    ///
    /// A tap whose drive std `sigma * m` is exactly 0 (every tap of an
    /// idle link) consumes its draws with [`skip_cn`] and adds
    /// `Complex::ZERO`, skipping the `ln`, `sqrt` and `cos`. This is
    /// exact: `randn` is always finite, so the skipped drive is
    /// `(±0, ±0)`, and adding `+0` instead can change only the sign of a
    /// zero scatter component. That sign reaches the output only through
    /// `static + scatter`, and a static tap is never exactly zero (`cos`
    /// of a double is never 0 and `u1 < 1`), so the gains, and every
    /// value rendered from them, are the same bits. (Even a zero gain
    /// could not tell: the response sum starts at `+0`, which no signed
    /// zero changes.) The `zero_drive_skip_matches_always_drawn_channel`
    /// proptest pins this against a channel that always draws.
    fn advance(&mut self, motion_intensity: f64) {
        let m = motion_intensity.clamp(0.0, 1.0);
        let rho = self.config.rho;
        for (s, &sigma) in self.scatter.iter_mut().zip(&self.drive_sigma) {
            let drive_std = sigma * m;
            let drive = if drive_std == 0.0 {
                skip_cn(&mut self.rng);
                Complex::ZERO
            } else {
                cn(&mut self.rng, drive_std)
            };
            *s = s.scale(rho) + drive;
        }
        for (g, (st, sc)) in self
            .gains
            .iter_mut()
            .zip(self.static_taps.iter().zip(&self.scatter))
        {
            *g = *st + *sc;
        }
    }

    /// The noiseless response of subcarrier `k` at the current state.
    fn response(&self, k: usize) -> Complex {
        let taps = self.config.taps;
        let mut h = Complex::ZERO;
        for (gain, rot) in self.gains.iter().zip(&self.rot[k * taps..(k + 1) * taps]) {
            h += *gain * *rot;
        }
        h
    }

    /// Renders the current channel state (plus fresh measurement noise)
    /// into per-subcarrier amplitude/phase slices of length
    /// `config.subcarriers`.
    fn render_into(&mut self, amplitudes: &mut [f64], phases: &mut [f64]) {
        let n = self.config.subcarriers;
        let noise_std = self.config.noise_std;
        debug_assert_eq!(amplitudes.len(), n);
        for k in 0..n {
            let h = self.response(k);
            let noise = cn(&mut self.rng, noise_std);
            let observed = h + noise;
            amplitudes[k] = observed.abs();
            phases[k] = observed.arg();
        }
    }

    /// Advances the channel by one sample interval under `motion_intensity`
    /// in `[0, 1]` and returns the CSI the receiver would measure.
    pub fn sample(&mut self, motion_intensity: f64) -> CsiSnapshot {
        let n = self.config.subcarriers;
        let mut amplitudes = vec![0.0; n];
        let mut phases = vec![0.0; n];
        self.advance(motion_intensity);
        self.render_into(&mut amplitudes, &mut phases);
        CsiSnapshot { amplitudes, phases }
    }

    /// Advances the channel once per entry of `intensities` and returns
    /// all snapshots as one flat SoA [`CsiBatch`].
    ///
    /// RNG draws, evolution, and float operations happen in exactly the
    /// order the equivalent [`CsiChannel::sample`] loop would perform
    /// them, so the batch is bit-for-bit the AoS sequence — pinned by
    /// the `sample_batch_matches_sample_loop` proptest.
    pub fn sample_batch(&mut self, intensities: &[f64]) -> CsiBatch {
        let n = self.config.subcarriers;
        let mut batch = CsiBatch {
            subcarriers: n,
            amplitudes: vec![0.0; n * intensities.len()],
            phases: vec![0.0; n * intensities.len()],
        };
        for (s, &m) in intensities.iter().enumerate() {
            self.advance(m);
            let lo = s * n;
            self.render_into(
                &mut batch.amplitudes[lo..lo + n],
                &mut batch.phases[lo..lo + n],
            );
        }
        batch
    }

    /// Advances the channel once per entry of `intensities` and returns
    /// the amplitude series of one subcarrier — the render every sensing
    /// caller needs.
    ///
    /// Bit-for-bit `sample_batch(intensities).subcarrier_amplitudes(subcarrier)`,
    /// leaving the channel in the same state: the other subcarriers'
    /// noise draws are consumed ([`skip_cn`]), not computed, and no
    /// phase is taken. Undriven taps skip their draws the same way (see
    /// `advance`), so an idle stretch costs RNG words and the one
    /// subcarrier's arithmetic. Pinned by the `sample_batch_matches_sample_loop`
    /// proptest, and against a channel that always draws by the
    /// `zero_drive_skip_matches_always_drawn_channel` proptest.
    pub fn sample_amplitudes(&mut self, intensities: &[f64], subcarrier: usize) -> Vec<f64> {
        let n = self.config.subcarriers;
        assert!(subcarrier < n, "subcarrier out of range");
        let noise_std = self.config.noise_std;
        let mut out = Vec::with_capacity(intensities.len());
        for &m in intensities {
            self.advance(m);
            for _ in 0..subcarrier {
                skip_cn(&mut self.rng);
            }
            let h = self.response(subcarrier);
            let noise = cn(&mut self.rng, noise_std);
            out.push((h + noise).abs());
            for _ in subcarrier + 1..n {
                skip_cn(&mut self.rng);
            }
        }
        out
    }

    /// Convenience: samples `n` times at a constant motion intensity and
    /// returns one subcarrier's amplitude series.
    pub fn amplitude_series(
        &mut self,
        n: usize,
        motion_intensity: f64,
        subcarrier: usize,
    ) -> Vec<f64> {
        self.sample_amplitudes(&vec![motion_intensity; n], subcarrier)
    }
}

/// Sample standard deviation, shared by tests and the sensing crate's
/// calibration checks.
pub fn std_dev(series: &[f64]) -> f64 {
    if series.len() < 2 {
        return 0.0;
    }
    let mean = series.iter().sum::<f64>() / series.len() as f64;
    let var =
        series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (series.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_has_configured_subcarriers() {
        let mut ch = CsiChannel::new(1);
        let s = ch.sample(0.0);
        assert_eq!(s.num_subcarriers(), DEFAULT_SUBCARRIERS);
        assert_eq!(s.amplitudes.len(), s.phases.len());
    }

    #[test]
    fn idle_channel_is_stable() {
        let mut ch = CsiChannel::new(2);
        let series = ch.amplitude_series(300, 0.0, 17);
        let sd = std_dev(&series);
        assert!(sd < 0.05, "idle std {sd}");
    }

    #[test]
    fn motion_causes_large_fluctuations() {
        let mut ch = CsiChannel::new(3);
        // Settle, then compare idle vs full motion.
        let idle = std_dev(&ch.amplitude_series(300, 0.0, 17));
        let moving = std_dev(&ch.amplitude_series(300, 1.0, 17));
        assert!(
            moving > 5.0 * idle,
            "moving {moving} should dwarf idle {idle}"
        );
    }

    #[test]
    fn fluctuation_scales_with_intensity() {
        // The property Figure 5 depends on: pickup > typing > hold > idle.
        let mut ch = CsiChannel::new(4);
        let idle = std_dev(&ch.amplitude_series(400, 0.0, 17));
        let hold = std_dev(&ch.amplitude_series(400, 0.1, 17));
        let typing = std_dev(&ch.amplitude_series(400, 0.45, 17));
        let pickup = std_dev(&ch.amplitude_series(400, 1.0, 17));
        assert!(idle < hold, "idle {idle} < hold {hold}");
        assert!(hold < typing, "hold {hold} < typing {typing}");
        assert!(typing < pickup, "typing {typing} < pickup {pickup}");
    }

    #[test]
    fn channel_settles_after_motion_stops() {
        let mut ch = CsiChannel::new(5);
        let _ = ch.amplitude_series(200, 1.0, 17);
        // Let the AR(1) memory decay, then re-measure stability.
        let _ = ch.amplitude_series(200, 0.0, 17);
        let settled = std_dev(&ch.amplitude_series(300, 0.0, 17));
        assert!(settled < 0.05, "settled std {settled}");
    }

    #[test]
    fn most_subcarriers_see_the_motion() {
        // Paper: "Most other subcarriers had similar patterns."
        let mut ch = CsiChannel::new(6);
        let mut idle_sd = vec![Vec::new(); DEFAULT_SUBCARRIERS];
        for _ in 0..200 {
            let s = ch.sample(0.0);
            for (k, v) in s.amplitudes.iter().enumerate() {
                idle_sd[k].push(*v);
            }
        }
        let mut moving_sd = vec![Vec::new(); DEFAULT_SUBCARRIERS];
        for _ in 0..200 {
            let s = ch.sample(1.0);
            for (k, v) in s.amplitudes.iter().enumerate() {
                moving_sd[k].push(*v);
            }
        }
        let mut responsive = 0;
        for k in 0..DEFAULT_SUBCARRIERS {
            if std_dev(&moving_sd[k]) > 3.0 * std_dev(&idle_sd[k]).max(1e-6) {
                responsive += 1;
            }
        }
        assert!(
            responsive as f64 > 0.8 * DEFAULT_SUBCARRIERS as f64,
            "only {responsive} subcarriers responsive"
        );
    }

    #[test]
    fn same_seed_same_series() {
        let mut a = CsiChannel::new(9);
        let mut b = CsiChannel::new(9);
        assert_eq!(
            a.amplitude_series(50, 0.7, 3),
            b.amplitude_series(50, 0.7, 3)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = CsiChannel::new(1);
        let mut b = CsiChannel::new(2);
        assert_ne!(
            a.amplitude_series(10, 0.5, 3),
            b.amplitude_series(10, 0.5, 3)
        );
    }

    #[test]
    fn intensity_clamped() {
        let mut ch = CsiChannel::new(10);
        // Out-of-range intensities must not blow up the channel.
        let s = ch.sample(42.0);
        assert!(s.amplitudes.iter().all(|a| a.is_finite()));
        let s = ch.sample(-3.0);
        assert!(s.amplitudes.iter().all(|a| a.is_finite()));
    }

    #[test]
    fn sample_batch_is_bit_identical_to_sample_loop() {
        let intensities: Vec<f64> = (0..120).map(|i| (i % 7) as f64 / 6.0).collect();
        let mut aos = CsiChannel::new(11);
        let mut soa = CsiChannel::new(11);
        let batch = soa.sample_batch(&intensities);
        assert_eq!(batch.len(), intensities.len());
        for (s, &m) in intensities.iter().enumerate() {
            let snap = aos.sample(m);
            assert_eq!(batch.snapshot(s), snap, "sample {s}");
        }
    }

    #[test]
    fn csi_batch_accessors_agree() {
        let mut ch = CsiChannel::new(12);
        let batch = ch.sample_batch(&[0.0, 0.5, 1.0]);
        let col = batch.subcarrier_amplitudes(17);
        assert_eq!(col.len(), 3);
        for (s, v) in col.iter().enumerate() {
            assert_eq!(*v, batch.amplitude(s, 17));
        }
        let mut tail = CsiBatch::with_capacity(batch.subcarriers, 1);
        tail.extend(&ch.sample_batch(&[0.25]));
        assert_eq!(tail.len(), 1);
        let mut all = batch.clone();
        all.extend(&tail);
        assert_eq!(all.len(), 4);
        assert_eq!(all.snapshot(3), tail.snapshot(0));
    }

    #[test]
    #[should_panic(expected = "subcarrier out of range")]
    fn batch_column_out_of_range_panics() {
        CsiChannel::new(14)
            .sample_batch(&[0.5])
            .subcarrier_amplitudes(DEFAULT_SUBCARRIERS);
    }

    #[test]
    #[should_panic(expected = "subcarrier out of range")]
    fn sample_amplitudes_out_of_range_panics() {
        CsiChannel::new(14).sample_amplitudes(&[0.5], DEFAULT_SUBCARRIERS);
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut ch = CsiChannel::new(13);
        let batch = ch.sample_batch(&[]);
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
    }

    #[test]
    fn std_dev_edge_cases() {
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
