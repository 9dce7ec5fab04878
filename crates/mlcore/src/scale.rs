//! Standard (z-score) feature scaling.
//!
//! SVM (especially RBF) and KNN are distance-based and need standardized
//! inputs; Random Forests are scale-invariant and skip this.

use serde::{Deserialize, Serialize};

use crate::data::Dataset;

/// Per-feature mean/std scaler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Fits per-feature means and standard deviations. Constant features
    /// get `std = 1` so they map to zero instead of dividing by zero.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset) -> StandardScaler {
        assert!(!data.is_empty(), "cannot fit scaler on empty dataset");
        let d = data.n_features();
        let n = data.len() as f64;
        let mut mean = vec![0.0; d];
        for row in &data.x {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for row in &data.x {
            for ((v, x), m) in var.iter_mut().zip(row).zip(&mean) {
                *v += (x - m) * (x - m);
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        StandardScaler { mean, std }
    }

    /// Transforms one sample in place.
    fn transform_inplace(&self, x: &mut [f64]) {
        for ((v, m), s) in x.iter_mut().zip(&self.mean).zip(&self.std) {
            *v = (*v - m) / s;
        }
    }

    /// Transforms a sample, returning a new vector.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        let mut out = x.to_vec();
        self.transform_inplace(&mut out);
        out
    }

    /// Returns a transformed copy of a dataset.
    pub fn transform_dataset(&self, data: &Dataset) -> Dataset {
        let mut out = data.clone();
        for row in &mut out.x {
            self.transform_inplace(row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_var() {
        let d = Dataset::new(
            vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]],
            vec![0, 0, 0],
        );
        let sc = StandardScaler::fit(&d);
        let t = sc.transform_dataset(&d);
        for f in 0..2 {
            let mean: f64 = t.x.iter().map(|r| r[f]).sum::<f64>() / 3.0;
            let var: f64 = t.x.iter().map(|r| r[f] * r[f]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_feature_maps_to_zero() {
        let d = Dataset::new(vec![vec![5.0], vec![5.0]], vec![0, 1]);
        let sc = StandardScaler::fit(&d);
        assert_eq!(sc.transform(&[5.0]), vec![0.0]);
        assert_eq!(sc.transform(&[6.0]), vec![1.0]);
    }

    #[test]
    fn transform_matches_inplace() {
        let d = Dataset::new(vec![vec![1.0], vec![3.0]], vec![0, 1]);
        let sc = StandardScaler::fit(&d);
        let a = sc.transform(&[2.0]);
        let mut b = [2.0];
        sc.transform_inplace(&mut b);
        assert_eq!(a[0], b[0]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn fit_on_empty_dataset_panics() {
        let _ = StandardScaler::fit(&Dataset::new(vec![], vec![]));
    }

    #[test]
    fn refit_on_standardized_data_is_identity() {
        // Round trip: once standardized, a second fitted scaler has
        // mean ≈ 0 / std ≈ 1 and transforms (numerically) to itself.
        let d = Dataset::new(
            vec![
                vec![1.0, -3.0],
                vec![4.0, 0.5],
                vec![9.0, 2.0],
                vec![2.5, 7.0],
            ],
            vec![0, 1, 0, 1],
        );
        let first = StandardScaler::fit(&d).transform_dataset(&d);
        let second = StandardScaler::fit(&first).transform_dataset(&first);
        for (a, b) in first.x.iter().flatten().zip(second.x.iter().flatten()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn transform_dataset_preserves_labels_and_shape() {
        let d = Dataset::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![7, 9]);
        let t = StandardScaler::fit(&d).transform_dataset(&d);
        assert_eq!(t.y, d.y);
        assert_eq!(t.len(), d.len());
        assert_eq!(t.n_features(), d.n_features());
    }

    #[test]
    fn serde_roundtrip_transforms_identically() {
        let d = Dataset::new(
            vec![
                vec![0.25, -8.0, 3.0],
                vec![1.5, 2.0, -0.5],
                vec![4.0, 0.0, 9.0],
            ],
            vec![0, 1, 2],
        );
        let sc = StandardScaler::fit(&d);
        let back: StandardScaler =
            serde_json::from_str(&serde_json::to_string(&sc).unwrap()).unwrap();
        assert_eq!(back, sc);
        let probe = [1.0, -1.0, 2.5];
        assert_eq!(sc.transform(&probe), back.transform(&probe));
    }
}
