//! Small-scale fading: Rayleigh and Rician channel gains.

use crate::complex::Complex;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

/// Draws a standard normal via Box–Muller (keeps us off `rand_distr`).
pub fn randn<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// A circularly-symmetric complex Gaussian with per-component std `sigma`.
pub fn cn<R: RngCore + ?Sized>(rng: &mut R, sigma: f64) -> Complex {
    Complex::new(randn(rng) * sigma, randn(rng) * sigma)
}

/// Consumes exactly the draws one [`cn`] call would — two [`randn`]s,
/// each `u1` (re-drawn while it fails the same rejection test) then
/// `u2` — without the `ln`/`sqrt`/`cos`. Keeps an RNG stream aligned
/// when a caller discards the value.
pub fn skip_cn<R: RngCore + ?Sized>(rng: &mut R) {
    for _ in 0..2 {
        while rng.gen::<f64>() <= f64::MIN_POSITIVE {}
        let _u2: f64 = rng.gen::<f64>();
    }
}

/// Small-scale fading statistics for a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fading {
    /// No fading: the gain is always 1.
    None,
    /// Rayleigh: no line-of-sight; gain is CN(0, 1).
    Rayleigh,
    /// Rician with factor `k` (linear): a LOS component plus scatter.
    /// `k → ∞` approaches no fading; `k = 0` is Rayleigh.
    Rician {
        /// Ratio of LOS power to scattered power (linear, not dB).
        k: f64,
    },
}

impl Fading {
    /// Draws one unit-mean-power channel gain.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> Complex {
        match *self {
            Fading::None => Complex::ONE,
            Fading::Rayleigh => cn(rng, (0.5f64).sqrt()),
            Fading::Rician { k } => {
                let los = Complex::from_polar((k / (k + 1.0)).sqrt(), 0.0);
                let scatter = cn(rng, (0.5 / (k + 1.0)).sqrt());
                los + scatter
            }
        }
    }

    /// Applies one fading draw to a mean received power in dBm.
    pub fn faded_power_dbm(&self, mean_dbm: f64, rng: &mut ChaCha8Rng) -> f64 {
        let g = self.sample(rng).norm_sq().max(1e-12);
        mean_dbm + 10.0 * g.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn randn_moments() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| randn(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn rayleigh_unit_mean_power() {
        let mut r = rng();
        let n = 50_000;
        let p: f64 = (0..n)
            .map(|_| Fading::Rayleigh.sample(&mut r).norm_sq())
            .sum::<f64>()
            / n as f64;
        assert!((p - 1.0).abs() < 0.05, "mean power {p}");
    }

    #[test]
    fn rician_unit_mean_power_and_low_variance_at_high_k() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| Fading::Rician { k: 10.0 }.sample(&mut r).norm_sq())
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        // Rayleigh power variance is 1; K=10 Rician should be far tighter.
        assert!(var < 0.3, "var {var}");
    }

    #[test]
    fn none_is_deterministic_unity() {
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(Fading::None.sample(&mut r), Complex::ONE);
        }
        assert_eq!(Fading::None.faded_power_dbm(-50.0, &mut r), -50.0);
    }

    /// Replays a fixed word script and counts the words handed out.
    struct Scripted {
        words: Vec<u64>,
        taken: usize,
    }

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            let w = self.words[self.taken];
            self.taken += 1;
            w
        }
    }

    #[test]
    fn skip_cn_consumes_what_cn_does_including_rejections() {
        // Words below 2^11 map to u1 = 0.0 and are rejected; 0x800 is
        // the smallest accepted u1 (2^-53).
        let words = vec![0, 0x7ff, 0x800, u64::MAX, 0, 1 << 40, 3 << 60, 0xdead_beef];
        let mut drawn = Scripted {
            words: words.clone(),
            taken: 0,
        };
        let mut skipped = Scripted { words, taken: 0 };
        let z = cn(&mut drawn, 1.0);
        skip_cn(&mut skipped);
        assert!(z.re.is_finite() && z.im.is_finite());
        assert_eq!(drawn.taken, 7, "two randn draws plus three rejected u1s");
        assert_eq!(skipped.taken, drawn.taken);
    }

    #[test]
    fn seeded_rng_reproducible() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(
                Fading::Rayleigh.sample(&mut a),
                Fading::Rayleigh.sample(&mut b)
            );
        }
    }
}
