//! # mlcore — from-scratch statistical machine learning
//!
//! The paper's classifiers are classical models — Random Forest, SVM and
//! KNN — evaluated with accuracy/confusion metrics, permutation importance
//! and variation-based data augmentation (§4.4, Appendix C). The Rust ML
//! ecosystem being thin, this crate implements all of it directly:
//!
//! * [`tree`] — CART decision trees (Gini impurity, depth/min-split limits,
//!   per-split random feature subsampling).
//! * [`forest`] — Random Forests: bootstrap bagging over CART trees,
//!   majority vote and vote-fraction probabilities.
//! * [`svm`] — kernel SVMs trained with (simplified) SMO, linear and RBF
//!   kernels, one-vs-rest multiclass.
//! * [`knn`] — brute-force k-nearest-neighbours with Euclidean or
//!   Manhattan distances.
//! * [`data`] — datasets, stratified train/test splits.
//! * [`metrics`] — accuracy, confusion matrices, per-class precision /
//!   recall.
//! * [`importance`] — permutation importance (Breiman 2001), the metric
//!   behind the paper's Fig. 9 and Table 5.
//! * [`augment`] — variation-based augmentation for under-represented
//!   classes.
//! * [`scale`] — standard (z-score) feature scaling for SVM/KNN.
//!
//! Models implement the common [`Classifier`] trait so the evaluation
//! harness can sweep them interchangeably. Everything is deterministic
//! under a caller-provided seed.
//!
//! ```
//! use mlcore::{Classifier, Dataset, RandomForest, RandomForestConfig};
//!
//! // Two separable classes in one dimension.
//! let data = Dataset::new(
//!     vec![vec![0.1], vec![0.2], vec![0.9], vec![1.0]],
//!     vec![0, 0, 1, 1],
//! );
//! let forest = RandomForest::fit(&data, &RandomForestConfig {
//!     n_trees: 10,
//!     ..Default::default()
//! });
//! assert_eq!(forest.predict(&[0.15]), 0);
//! assert_eq!(forest.predict(&[0.95]), 1);
//! let proba = forest.predict_proba(&[0.95]);
//! assert!(proba[1] > 0.8);
//! ```

#![warn(missing_docs)]

pub mod augment;
pub mod data;
pub mod flat;
pub mod forest;
pub mod importance;
pub mod knn;
pub mod metrics;
pub mod scale;
pub mod svm;
pub mod tree;

pub use data::Dataset;
pub use flat::FlatForest;
pub use forest::{RandomForest, RandomForestConfig};
pub use importance::permutation_importance;
pub use knn::{DistanceMetric, Knn};
pub use metrics::{accuracy, ConfusionMatrix};
pub use scale::StandardScaler;
pub use svm::{Kernel, SvmConfig, SvmOvr};
pub use tree::DecisionTree;

/// Index of the maximum score, breaking ties toward the **last** maximal
/// entry — the same tie-break `Iterator::max_by` applies, so argmax over a
/// probability vector always matches [`Classifier::predict`].
///
/// Returns 0 for an empty slice.
///
/// # Panics
/// Panics on NaN scores (probabilities are expected to be finite).
pub fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probabilities"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// A trained multi-class classifier over dense `f64` feature vectors.
pub trait Classifier {
    /// Predicted class id for one sample.
    fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.predict_proba(x))
    }

    /// Class-probability (or normalized score) vector for one sample; the
    /// maximum entry is the model's confidence, which the pipeline
    /// thresholds to emit "unknown".
    fn predict_proba(&self, x: &[f64]) -> Vec<f64>;

    /// Fills `out` with the class-probability vector for one sample
    /// without allocating. `out.len()` must equal [`Classifier::n_classes`];
    /// models with an allocation-free path override this.
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(&self.predict_proba(x));
    }

    /// Number of classes.
    fn n_classes(&self) -> usize;

    /// Batch prediction. The default reuses one score buffer across rows
    /// instead of allocating a probability `Vec` per sample.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        let mut scores = vec![0.0f64; self.n_classes()];
        xs.iter()
            .map(|x| {
                self.predict_proba_into(x, &mut scores);
                argmax(&scores)
            })
            .collect()
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// A fixed-response classifier for exercising the trait defaults.
    struct Fixed;

    impl Classifier for Fixed {
        fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
            // Class 1 wins iff the first feature is positive.
            if x[0] > 0.0 {
                vec![0.2, 0.8]
            } else {
                vec![0.8, 0.2]
            }
        }

        fn n_classes(&self) -> usize {
            2
        }
    }

    #[test]
    fn predict_batch_empty_batch() {
        assert_eq!(Fixed.predict_batch(&[]), Vec::<usize>::new());
    }

    #[test]
    fn predict_batch_single_row() {
        assert_eq!(Fixed.predict_batch(&[vec![1.0]]), vec![1]);
        assert_eq!(Fixed.predict_batch(&[vec![-1.0]]), vec![0]);
    }

    #[test]
    fn predict_batch_matches_predict() {
        let xs = vec![vec![1.0], vec![-2.0], vec![3.0], vec![0.0]];
        let one_by_one: Vec<usize> = xs.iter().map(|x| Fixed.predict(x)).collect();
        assert_eq!(Fixed.predict_batch(&xs), one_by_one);
    }

    #[test]
    fn argmax_breaks_ties_toward_last() {
        // Matches Iterator::max_by: later equal entries win.
        assert_eq!(argmax(&[0.5, 0.5]), 1);
        assert_eq!(argmax(&[0.3, 0.4, 0.4, 0.2]), 2);
        assert_eq!(argmax(&[1.0]), 0);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn predict_proba_into_default_copies() {
        let mut out = [0.0f64; 2];
        Fixed.predict_proba_into(&[1.0], &mut out);
        assert_eq!(out, [0.2, 0.8]);
    }
}
