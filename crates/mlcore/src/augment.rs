//! Variation-based data augmentation (§4.4).
//!
//! The paper augments its dataset "by synthesizing packet data with
//! randomly varied sizes and arrival times based on the original
//! ground-truth data, especially for classes with fewer samples". In
//! feature space that corresponds to multiplicative jitter on the derived
//! attributes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::Dataset;

/// Appends `factor − 1` jittered variants of every sample (so the output is
/// `factor ×` the input size). Each feature is scaled by an independent
/// `1 ± rel_noise` factor.
///
/// # Panics
/// Panics if `factor == 0`.
pub fn augment_multiply(data: &Dataset, factor: usize, rel_noise: f64, seed: u64) -> Dataset {
    assert!(factor > 0, "factor must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = data.clone();
    for _ in 1..factor {
        for (row, &label) in data.x.iter().zip(&data.y) {
            out.x.push(jitter(row, rel_noise, &mut rng));
            out.y.push(label);
        }
    }
    out
}

fn jitter(row: &[f64], rel_noise: f64, rng: &mut StdRng) -> Vec<f64> {
    row.iter()
        .map(|v| v * (1.0 + rng.gen_range(-rel_noise..=rel_noise)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![vec![10.0, 20.0], vec![30.0, 40.0], vec![50.0, 60.0]],
            vec![0, 0, 1],
        )
    }

    #[test]
    fn multiply_scales_size_and_keeps_labels() {
        let d = toy();
        let a = augment_multiply(&d, 3, 0.1, 1);
        assert_eq!(a.len(), 9);
        assert_eq!(a.y.iter().filter(|&&y| y == 0).count(), 6);
        // Originals preserved verbatim at the front.
        assert_eq!(a.x[..3], d.x[..]);
        // Variants stay within the noise band.
        for (row, orig) in a.x[3..].iter().zip(d.x.iter().cycle()) {
            for (v, o) in row.iter().zip(orig) {
                assert!((v - o).abs() <= o * 0.1 + 1e-9);
            }
        }
    }

    #[test]
    fn factor_one_is_identity() {
        let d = toy();
        let a = augment_multiply(&d, 1, 0.2, 5);
        assert_eq!(a.x, d.x);
        assert_eq!(a.y, d.y);
    }

    #[test]
    fn augmentation_is_deterministic() {
        let d = toy();
        assert_eq!(
            augment_multiply(&d, 4, 0.1, 7).x,
            augment_multiply(&d, 4, 0.1, 7).x
        );
    }
}
