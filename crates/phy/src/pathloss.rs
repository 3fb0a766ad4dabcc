//! Large-scale propagation: free-space and log-distance path loss.

/// A large-scale path-loss model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathLoss {
    /// Free-space (Friis) loss at `freq_mhz`.
    FreeSpace {
        /// Carrier frequency in MHz.
        freq_mhz: f64,
    },
    /// Log-distance: free-space up to `d0_m`, then `10·n·log10(d/d0)` dB
    /// beyond. `n ≈ 3–4` models indoor walls — the paper's keystroke
    /// attacker sits in *a different room*.
    LogDistance {
        /// Carrier frequency in MHz.
        freq_mhz: f64,
        /// Reference distance in metres.
        d0_m: f64,
        /// Path-loss exponent.
        exponent: f64,
    },
}

impl PathLoss {
    /// Free-space at 2.437 GHz (channel 6), the default experiment setup.
    pub fn free_space_2ghz4() -> PathLoss {
        PathLoss::FreeSpace { freq_mhz: 2437.0 }
    }

    /// Indoor log-distance at 2.437 GHz with exponent 3.0.
    pub fn indoor_2ghz4() -> PathLoss {
        PathLoss::LogDistance {
            freq_mhz: 2437.0,
            d0_m: 1.0,
            exponent: 3.0,
        }
    }

    /// Path loss in dB at `distance_m` (clamped below at 0.1 m).
    pub fn loss_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(0.1);
        match *self {
            PathLoss::FreeSpace { freq_mhz } => fspl_db(d, freq_mhz),
            PathLoss::LogDistance {
                freq_mhz,
                d0_m,
                exponent,
            } => {
                if d <= d0_m {
                    fspl_db(d, freq_mhz)
                } else {
                    fspl_db(d0_m, freq_mhz) + 10.0 * exponent * (d / d0_m).log10()
                }
            }
        }
    }

    /// Received power in dBm given a transmit power.
    pub fn rx_power_dbm(&self, tx_power_dbm: f64, distance_m: f64) -> f64 {
        tx_power_dbm - self.loss_db(distance_m)
    }

    /// Inverse of [`loss_db`](Self::loss_db): the distance at which the
    /// loss reaches `loss_db` (at least 0.1 m, mirroring the forward
    /// clamp). Monotonicity makes `d <= distance_for_loss_db(L)`
    /// equivalent to `loss_db(d) <= L` — which is what lets hot scans
    /// compare squared distances against one precomputed radius instead
    /// of running a `log10` per candidate.
    pub fn distance_for_loss_db(&self, loss_db: f64) -> f64 {
        let fspl_inverse = |loss: f64, freq_mhz: f64| {
            1000.0 * 10f64.powf((loss - 20.0 * freq_mhz.log10() - 32.44) / 20.0)
        };
        let d = match *self {
            PathLoss::FreeSpace { freq_mhz } => fspl_inverse(loss_db, freq_mhz),
            PathLoss::LogDistance {
                freq_mhz,
                d0_m,
                exponent,
            } => {
                let at_d0 = fspl_db(d0_m, freq_mhz);
                if loss_db <= at_d0 {
                    fspl_inverse(loss_db, freq_mhz).min(d0_m)
                } else {
                    d0_m * 10f64.powf((loss_db - at_d0) / (10.0 * exponent))
                }
            }
        };
        d.max(0.1)
    }
}

/// Friis free-space path loss in dB.
fn fspl_db(distance_m: f64, freq_mhz: f64) -> f64 {
    // FSPL(dB) = 20 log10(d_km) + 20 log10(f_MHz) + 32.44
    20.0 * (distance_m / 1000.0).log10() + 20.0 * freq_mhz.log10() + 32.44
}

/// Thermal noise floor in dBm for a bandwidth in MHz (kTB at 290 K) plus a
/// typical receiver noise figure.
pub fn noise_floor_dbm(bandwidth_mhz: f64, noise_figure_db: f64) -> f64 {
    -174.0 + 10.0 * (bandwidth_mhz * 1e6).log10() + noise_figure_db
}

/// SNR in dB at the receiver.
pub fn snr_db(tx_power_dbm: f64, model: &PathLoss, distance_m: f64, noise_dbm: f64) -> f64 {
    model.rx_power_dbm(tx_power_dbm, distance_m) - noise_dbm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fspl_at_one_metre_2ghz4_is_about_40db() {
        let loss = PathLoss::free_space_2ghz4().loss_db(1.0);
        assert!((39.0..41.5).contains(&loss), "loss {loss}");
    }

    #[test]
    fn fspl_doubles_distance_adds_6db() {
        let m = PathLoss::free_space_2ghz4();
        let d1 = m.loss_db(5.0);
        let d2 = m.loss_db(10.0);
        assert!((d2 - d1 - 6.02).abs() < 0.05);
    }

    #[test]
    fn log_distance_matches_fspl_at_reference() {
        let fs = PathLoss::free_space_2ghz4();
        let ld = PathLoss::indoor_2ghz4();
        assert!((fs.loss_db(1.0) - ld.loss_db(1.0)).abs() < 1e-9);
    }

    #[test]
    fn indoor_exponent_is_steeper() {
        let fs = PathLoss::free_space_2ghz4();
        let ld = PathLoss::indoor_2ghz4();
        assert!(ld.loss_db(20.0) > fs.loss_db(20.0) + 9.0);
    }

    #[test]
    fn noise_floor_20mhz() {
        // kTB for 20 MHz ≈ -101 dBm; +7 dB NF ≈ -94 dBm.
        let nf = noise_floor_dbm(20.0, 7.0);
        assert!((-95.0..-93.0).contains(&nf), "noise floor {nf}");
    }

    #[test]
    fn snr_at_typical_indoor_range_supports_wifi() {
        // 20 dBm AP at 10 m indoors over 20 MHz should be comfortably
        // above the 2 dB minimum for 1 Mb/s.
        let noise = noise_floor_dbm(20.0, 7.0);
        let snr = snr_db(20.0, &PathLoss::indoor_2ghz4(), 10.0, noise);
        assert!(snr > 20.0, "snr {snr}");
    }

    #[test]
    fn distance_for_loss_round_trips() {
        for model in [PathLoss::free_space_2ghz4(), PathLoss::indoor_2ghz4()] {
            for d in [0.5, 1.0, 5.0, 50.0, 115.0, 400.0] {
                let loss = model.loss_db(d);
                let back = model.distance_for_loss_db(loss);
                assert!(
                    (back - d).abs() / d < 1e-9,
                    "{model:?}: {d} m -> {loss} dB -> {back} m"
                );
            }
            // Below the forward clamp, the inverse clamps too.
            assert_eq!(model.distance_for_loss_db(0.0), 0.1);
        }
    }

    #[test]
    fn tiny_distances_clamped() {
        let m = PathLoss::free_space_2ghz4();
        assert_eq!(m.loss_db(0.0), m.loss_db(0.1));
        assert!(m.loss_db(0.0).is_finite());
    }
}
