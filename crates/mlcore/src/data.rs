//! Datasets, splits and cross-validation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A labeled dataset of dense feature vectors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature matrix, row per sample.
    pub x: Vec<Vec<f64>>,
    /// Class ids, one per sample, in `0..n_classes`.
    pub y: Vec<usize>,
    /// Number of classes (may exceed `max(y)+1` if some classes have no
    /// samples in this split).
    pub n_classes: usize,
    /// Feature names; empty means unnamed.
    pub feature_names: Vec<String>,
}

impl Dataset {
    /// Creates a dataset, inferring `n_classes` as `max(y)+1`.
    ///
    /// # Panics
    /// Panics if `x` and `y` lengths differ or rows have inconsistent
    /// widths.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<usize>) -> Dataset {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        if let Some(w) = x.first().map(Vec::len) {
            assert!(x.iter().all(|r| r.len() == w), "ragged feature matrix");
        }
        let n_classes = y.iter().max().map_or(0, |m| m + 1);
        Dataset {
            x,
            y,
            n_classes,
            feature_names: Vec::new(),
        }
    }

    /// Attaches feature names (builder style).
    ///
    /// # Panics
    /// Panics if the name count does not match the feature count.
    pub fn with_feature_names(mut self, names: Vec<String>) -> Dataset {
        assert_eq!(names.len(), self.n_features(), "name/feature mismatch");
        self.feature_names = names;
        self
    }

    /// Overrides the class count (when labels beyond the observed maximum
    /// exist).
    pub fn with_n_classes(mut self, n: usize) -> Dataset {
        assert!(n > self.y.iter().max().map_or(0, |m| *m));
        self.n_classes = n;
        self
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of features per sample (0 when empty).
    pub fn n_features(&self) -> usize {
        self.x.first().map_or(0, Vec::len)
    }

    /// FNV-1a digest over every sample (features via IEEE bit patterns)
    /// plus labels and the class count. Two training sets fingerprint
    /// equal iff they hold the same rows in the same order — the model
    /// registry stamps this into each artifact's manifest so an operator
    /// can tell retrained-on-new-data from re-serialized-same-data.
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: &mut u64, v: u64) {
            for b in v.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        mix(&mut h, self.x.len() as u64);
        for (row, &label) in self.x.iter().zip(&self.y) {
            mix(&mut h, row.len() as u64);
            for &f in row {
                mix(&mut h, f.to_bits());
            }
            mix(&mut h, label as u64);
        }
        mix(&mut h, self.n_classes as u64);
        h
    }

    /// Appends another dataset with the same schema.
    ///
    /// # Panics
    /// Panics on schema mismatch.
    pub fn extend(&mut self, other: Dataset) {
        if !self.is_empty() && !other.is_empty() {
            assert_eq!(self.n_features(), other.n_features(), "schema mismatch");
        }
        self.x.extend(other.x);
        self.y.extend(other.y);
        self.n_classes = self.n_classes.max(other.n_classes);
    }

    /// Samples of one class.
    pub fn class_indices(&self, class: usize) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.y[i] == class).collect()
    }

    /// Subset by sample indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: indices.iter().map(|&i| self.x[i].clone()).collect(),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            n_classes: self.n_classes,
            feature_names: self.feature_names.clone(),
        }
    }

    /// Stratified train/test split: each class contributes `test_frac` of
    /// its samples (rounded down, at least one when it has ≥ 2 samples) to
    /// the test set.
    pub fn stratified_split(&self, test_frac: f64, seed: u64) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&test_frac), "test_frac in [0,1)");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for class in 0..self.n_classes {
            let mut idx = self.class_indices(class);
            idx.shuffle(&mut rng);
            let mut n_test = (idx.len() as f64 * test_frac) as usize;
            if n_test == 0 && idx.len() >= 2 && test_frac > 0.0 {
                n_test = 1;
            }
            test_idx.extend_from_slice(&idx[..n_test]);
            train_idx.extend_from_slice(&idx[n_test..]);
        }
        train_idx.shuffle(&mut rng);
        test_idx.shuffle(&mut rng);
        (self.subset(&train_idx), self.subset(&test_idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n_per_class: usize, n_classes: usize) -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c in 0..n_classes {
            for i in 0..n_per_class {
                x.push(vec![c as f64, i as f64]);
                y.push(c);
            }
        }
        Dataset::new(x, y)
    }

    #[test]
    fn new_infers_classes() {
        let d = toy(5, 3);
        assert_eq!(d.n_classes, 3);
        assert_eq!(d.len(), 15);
        assert_eq!(d.n_features(), 2);
    }

    #[test]
    fn stratified_split_preserves_class_balance() {
        let d = toy(10, 4);
        let (train, test) = d.stratified_split(0.3, 7);
        assert_eq!(train.len() + test.len(), d.len());
        for c in 0..4 {
            assert_eq!(test.class_indices(c).len(), 3);
            assert_eq!(train.class_indices(c).len(), 7);
        }
    }

    #[test]
    fn split_gives_every_class_a_test_sample() {
        let d = toy(3, 5);
        let (_, test) = d.stratified_split(0.1, 1);
        for c in 0..5 {
            assert!(!test.class_indices(c).is_empty());
        }
    }

    #[test]
    fn split_is_deterministic() {
        let d = toy(8, 2);
        let (a, _) = d.stratified_split(0.25, 9);
        let (b, _) = d.stratified_split(0.25, 9);
        assert_eq!(a.y, b.y);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn extend_merges() {
        let mut a = toy(2, 2);
        let b = toy(3, 3);
        a.extend(b);
        assert_eq!(a.len(), 13);
        assert_eq!(a.n_classes, 3);
    }

    #[test]
    #[should_panic(expected = "x/y length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = Dataset::new(vec![vec![1.0]], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "ragged feature matrix")]
    fn ragged_rows_panic() {
        let _ = Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0, 1]);
    }

    #[test]
    fn feature_names_roundtrip() {
        let d = toy(2, 2).with_feature_names(vec!["a".into(), "b".into()]);
        assert_eq!(d.feature_names, vec!["a", "b"]);
    }
}
