//! Streaming stage-feature extraction (§4.3.1).
//!
//! Per `I`-second slot the extractor turns the four standard volumetric
//! attributes — downstream throughput, downstream packet rate, upstream
//! throughput, upstream packet rate — into EMA-smoothed peak-relative
//! values, the exact inputs of the player-activity-stage classifier.
//!
//! Peaks are seeded from the launch window (§4.3.1's "threshold dynamically
//! decided during the game launch"): the launch animation streams at a
//! known fraction of the gameplay peak, so the seed is the launch maximum
//! scaled up by a calibration factor, and the tracker keeps raising the
//! peak as gameplay exceeds it.

use nettrace::units::Micros;
use nettrace::vol::VolSample;
use serde::{Deserialize, Serialize};

use crate::relative::{Ema, PeakNormalizer};

/// Number of volumetric attributes per slot.
const N_STAGE_FEATURES: usize = 4;

/// Configuration of the stage-feature extractor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageFeatureConfig {
    /// EMA weight of the current slot (the paper deploys `α = 0.5`).
    pub alpha: f64,
    /// Factor applied to the launch-window maxima to seed gameplay peaks
    /// (launch streams below gameplay peak; 1.5 works across titles).
    pub launch_peak_factor: f64,
}

impl Default for StageFeatureConfig {
    fn default() -> Self {
        StageFeatureConfig {
            alpha: 0.5,
            launch_peak_factor: 1.5,
        }
    }
}

/// Streaming extractor: seed with the launch volumetrics, then push one
/// gameplay [`VolSample`] per slot and receive the 4-value feature vector.
#[derive(Debug, Clone)]
pub struct StageFeatureExtractor {
    norms: [PeakNormalizer; N_STAGE_FEATURES],
    emas: [Ema; N_STAGE_FEATURES],
    width_secs: f64,
}

impl StageFeatureExtractor {
    /// Creates an extractor for slots of `width` microseconds, seeding the
    /// four peaks from the launch-stage samples.
    pub fn new(cfg: &StageFeatureConfig, width: Micros, launch: &[VolSample]) -> Self {
        let width_secs = width as f64 / 1e6;
        let mut maxima = [0.0f64; N_STAGE_FEATURES];
        for s in launch {
            let raw = raw_features(s, width_secs);
            for (m, v) in maxima.iter_mut().zip(raw) {
                *m = m.max(v);
            }
        }
        // Floors keep early ratios sane even for an empty/quiet launch:
        // 1 Mbps down, 100 pps down, 0.05 Mbps up, 5 pps up.
        let floors = [1.0, 100.0, 0.05, 5.0];
        let norms = std::array::from_fn(|i| {
            PeakNormalizer::new(maxima[i] * cfg.launch_peak_factor, floors[i])
        });
        let emas = std::array::from_fn(|_| Ema::new(cfg.alpha));
        StageFeatureExtractor {
            norms,
            emas,
            width_secs,
        }
    }

    /// Pushes one gameplay slot and returns `[down Mbps, down pps, up Mbps,
    /// up pps]` as EMA-smoothed fractions of the running peaks.
    pub fn push(&mut self, sample: &VolSample) -> [f64; N_STAGE_FEATURES] {
        let raw = raw_features(sample, self.width_secs);
        std::array::from_fn(|i| self.emas[i].push(self.norms[i].push(raw[i])))
    }
}

/// Raw absolute features of one slot: `[down Mbps, down pps, up Mbps, up pps]`.
pub fn raw_features(s: &VolSample, width_secs: f64) -> [f64; N_STAGE_FEATURES] {
    [
        s.down_bytes as f64 * 8.0 / width_secs / 1e6,
        s.down_pkts as f64 / width_secs,
        s.up_bytes as f64 * 8.0 / width_secs / 1e6,
        s.up_pkts as f64 / width_secs,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::units::MICROS_PER_SEC;

    fn sample(down_bytes: u64, down_pkts: u64, up_bytes: u64, up_pkts: u64) -> VolSample {
        VolSample {
            down_bytes,
            down_pkts,
            up_bytes,
            up_pkts,
        }
    }

    #[test]
    fn raw_features_convert_units() {
        // 1.25 MB in 1 s = 10 Mbps; 1000 pkts = 1000 pps.
        let f = raw_features(&sample(1_250_000, 1000, 125_000, 100), 1.0);
        assert!((f[0] - 10.0).abs() < 1e-9);
        assert!((f[1] - 1000.0).abs() < 1e-9);
        assert!((f[2] - 1.0).abs() < 1e-9);
        assert!((f[3] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn launch_seeds_the_peak() {
        let cfg = StageFeatureConfig {
            alpha: 1.0,
            launch_peak_factor: 1.5,
        };
        // Launch at 8 Mbps (1 MB/s); peak seeded to 12 Mbps.
        let launch = vec![sample(1_000_000, 900, 10_000, 5); 10];
        let mut ex = StageFeatureExtractor::new(&cfg, MICROS_PER_SEC, &launch);
        // Gameplay slot at 6 Mbps → 0.5 of the seeded peak.
        let f = ex.push(&sample(750_000, 700, 10_000, 50));
        assert!((f[0] - 0.5).abs() < 0.01, "down rel {}", f[0]);
    }

    #[test]
    fn peak_rises_with_gameplay() {
        let cfg = StageFeatureConfig {
            alpha: 1.0,
            launch_peak_factor: 1.5,
        };
        let launch = vec![sample(500_000, 400, 5_000, 5); 5];
        let mut ex = StageFeatureExtractor::new(&cfg, MICROS_PER_SEC, &launch);
        let first = ex.push(&sample(3_000_000, 2500, 20_000, 120));
        assert!(first[0] <= 1.0);
        // After the peak rose, a half-rate slot reads ~0.5.
        let second = ex.push(&sample(1_500_000, 1250, 10_000, 60));
        assert!((second[0] - 0.5).abs() < 0.05, "rel {}", second[0]);
    }

    #[test]
    fn ema_smooths_between_slots() {
        let cfg = StageFeatureConfig {
            alpha: 0.5,
            launch_peak_factor: 1.0,
        };
        let launch = vec![sample(1_000_000, 1000, 100_000, 100)];
        let mut ex = StageFeatureExtractor::new(&cfg, MICROS_PER_SEC, &launch);
        let a = ex.push(&sample(1_000_000, 1000, 100_000, 100));
        assert!((a[0] - 1.0).abs() < 1e-9);
        // Drop to zero: EMA holds half the previous value.
        let b = ex.push(&sample(0, 0, 0, 0));
        assert!((b[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_launch_uses_floors() {
        let cfg = StageFeatureConfig::default();
        let mut ex = StageFeatureExtractor::new(&cfg, MICROS_PER_SEC, &[]);
        let f = ex.push(&sample(125_000, 100, 1_000, 2));
        // 1 Mbps against the 1 Mbps floor → reaches (or raises) the peak.
        assert!(f[0] > 0.9, "down rel {}", f[0]);
    }
}
