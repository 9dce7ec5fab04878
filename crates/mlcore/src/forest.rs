//! Random Forests (Breiman 2001).
//!
//! Bootstrap-bagged CART trees with per-split random feature subsampling.
//! Probabilities are the average of the trees' leaf distributions, so the
//! maximum entry works as the paper's "label confidence" that gates the
//! "unknown" verdict (§4.4.1) and the pattern-inference output (§4.3.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::tree::{DecisionTree, TreeConfig};
use crate::Classifier;

/// Random Forest hyperparameters (the Fig. 14/15 sweep axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples to split a node.
    pub min_samples_split: usize,
    /// Features per split: `None` = √d (the usual default).
    pub features_per_split: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            // The paper's deployed title model: 500 trees, depth 10. The
            // default here is lighter; experiments set what they sweep.
            n_trees: 100,
            max_depth: 10,
            min_samples_split: 2,
            features_per_split: None,
            seed: 0,
        }
    }
}

/// A trained Random Forest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Fits a forest: each tree sees a bootstrap resample (with
    /// replacement, same size as the input) and uses per-split feature
    /// subsampling of √d unless configured otherwise.
    ///
    /// # Panics
    /// Panics on an empty dataset or `n_trees == 0`.
    pub fn fit(data: &Dataset, config: &RandomForestConfig) -> RandomForest {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        assert!(config.n_trees > 0, "need at least one tree");
        let mtry = config
            .features_per_split
            .unwrap_or_else(|| (data.n_features() as f64).sqrt().round().max(1.0) as usize);
        let tree_config = TreeConfig {
            max_depth: config.max_depth,
            min_samples_split: config.min_samples_split,
            features_per_split: Some(mtry),
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = data.len();
        let trees = (0..config.n_trees)
            .map(|_| {
                let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                DecisionTree::fit_subset(data, &idx, &tree_config, &mut rng)
            })
            .collect();
        RandomForest {
            trees,
            n_classes: data.n_classes,
        }
    }

    /// Mean-decrease-in-impurity importance per feature, averaged over the
    /// trees and normalized to sum to 1 — the fast, training-time
    /// alternative to permutation importance.
    pub fn mdi_importances(&self) -> Vec<f64> {
        let Some(first) = self.trees.first() else {
            return Vec::new();
        };
        let d = first.mdi_importances().len();
        let mut acc = vec![0.0f64; d];
        for t in &self.trees {
            for (a, v) in acc.iter_mut().zip(t.mdi_importances()) {
                *a += v;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        acc
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Expected feature-vector width (0 for an untrained/empty forest).
    pub fn n_features(&self) -> usize {
        self.trees.first().map_or(0, DecisionTree::n_features)
    }

    /// The trained trees, for flattening ([`crate::flat`]).
    pub(crate) fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Compiles this forest into the flat SoA inference layout.
    pub fn to_flat(&self) -> crate::flat::FlatForest {
        crate::flat::FlatForest::from_forest(self)
    }

    /// Consumes the forest, returning the flat inference form. Identical
    /// to [`RandomForest::to_flat`]; use whichever fits ownership.
    pub fn into_flat(self) -> crate::flat::FlatForest {
        self.to_flat()
    }
}

impl Classifier for RandomForest {
    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0f64; self.n_classes];
        for t in &self.trees {
            let p = t.predict_proba(x);
            for (a, v) in acc.iter_mut().zip(p) {
                *a += v;
            }
        }
        let n = self.trees.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }

    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for t in &self.trees {
            for (a, v) in out.iter_mut().zip(t.leaf_proba(x)) {
                *a += v;
            }
        }
        let n = self.trees.len() as f64;
        for a in out.iter_mut() {
            *a /= n;
        }
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    /// Three noisy 2-D blobs.
    fn blobs(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [(0.0, 0.0), (4.0, 4.0), (0.0, 4.0)];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let c = rng.gen_range(0..3);
            let (cx, cy) = centers[c];
            x.push(vec![
                cx + rng.gen_range(-1.0f64..1.0),
                cy + rng.gen_range(-1.0f64..1.0),
            ]);
            y.push(c);
        }
        Dataset::new(x, y)
    }

    #[test]
    fn learns_blobs_well() {
        let train = blobs(1, 300);
        let test = blobs(2, 100);
        let f = RandomForest::fit(
            &train,
            &RandomForestConfig {
                n_trees: 30,
                ..Default::default()
            },
        );
        let preds = f.predict_batch(&test.x);
        let acc = accuracy(&test.y, &preds);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn proba_sums_to_one() {
        let d = blobs(3, 100);
        let f = RandomForest::fit(
            &d,
            &RandomForestConfig {
                n_trees: 10,
                ..Default::default()
            },
        );
        for x in d.x.iter().take(10) {
            let p = f.predict_proba(x);
            assert_eq!(p.len(), 3);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let d = blobs(4, 150);
        let cfg = RandomForestConfig {
            n_trees: 12,
            seed: 77,
            ..Default::default()
        };
        let a = RandomForest::fit(&d, &cfg);
        let b = RandomForest::fit(&d, &cfg);
        for x in d.x.iter().take(20) {
            assert_eq!(a.predict_proba(x), b.predict_proba(x));
        }
    }

    #[test]
    fn confidence_is_low_in_overlap() {
        // Two heavily overlapping blobs: confidence near the midpoint
        // should be far from 1.
        let mut rng = StdRng::seed_from_u64(5);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..200 {
            let c = rng.gen_range(0..2usize);
            let base = c as f64 * 0.5;
            x.push(vec![base + rng.gen_range(-1.0f64..1.0)]);
            y.push(c);
        }
        let d = Dataset::new(x, y);
        let f = RandomForest::fit(
            &d,
            &RandomForestConfig {
                n_trees: 40,
                ..Default::default()
            },
        );
        let p = f.predict_proba(&[0.25]);
        let conf = p.iter().cloned().fold(0.0, f64::max);
        assert!(conf < 0.9, "confidence {conf}");
    }

    #[test]
    fn more_trees_do_not_hurt() {
        let train = blobs(6, 200);
        let test = blobs(7, 100);
        let small = RandomForest::fit(
            &train,
            &RandomForestConfig {
                n_trees: 2,
                seed: 1,
                ..Default::default()
            },
        );
        let large = RandomForest::fit(
            &train,
            &RandomForestConfig {
                n_trees: 50,
                seed: 1,
                ..Default::default()
            },
        );
        let acc_small = accuracy(&test.y, &small.predict_batch(&test.x));
        let acc_large = accuracy(&test.y, &large.predict_batch(&test.x));
        assert!(acc_large + 0.02 >= acc_small, "{acc_small} vs {acc_large}");
    }

    #[test]
    fn serde_roundtrip() {
        let d = blobs(8, 80);
        let f = RandomForest::fit(
            &d,
            &RandomForestConfig {
                n_trees: 5,
                ..Default::default()
            },
        );
        let json = serde_json::to_string(&f).unwrap();
        let back: RandomForest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_trees(), 5);
        for x in d.x.iter().take(10) {
            assert_eq!(f.predict(x), back.predict(x));
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let _ = RandomForest::fit(&Dataset::default(), &RandomForestConfig::default());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::Classifier;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// For any dataset, forest probabilities are a distribution and the
        /// argmax equals `predict`.
        #[test]
        fn proba_is_distribution_and_consistent(
            rows in prop::collection::vec(
                (prop::collection::vec(-100.0f64..100.0, 3), 0usize..4),
                8..60
            ),
            seed in any::<u64>(),
        ) {
            let x: Vec<Vec<f64>> = rows.iter().map(|(r, _)| r.clone()).collect();
            let y: Vec<usize> = rows.iter().map(|(_, c)| *c).collect();
            let data = Dataset::new(x.clone(), y);
            let forest = RandomForest::fit(
                &data,
                &RandomForestConfig { n_trees: 7, seed, ..Default::default() },
            );
            for xi in x.iter().take(10) {
                let p = forest.predict_proba(xi);
                prop_assert_eq!(p.len(), data.n_classes);
                prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                let argmax = p
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                // predict breaks ties identically (first maximum).
                prop_assert_eq!(forest.predict(xi), argmax);
            }
        }
    }
}

#[cfg(test)]
mod mdi_tests {
    use super::*;

    fn blobs(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [(0.0, 0.0), (4.0, 4.0)];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let c = rng.gen_range(0..2usize);
            x.push(vec![
                centers[c].0 + rng.gen_range(-1.0f64..1.0),
                centers[c].1 + rng.gen_range(-1.0f64..1.0),
                rng.gen_range(-1.0f64..1.0), // pure noise feature
            ]);
            y.push(c);
        }
        Dataset::new(x, y)
    }

    #[test]
    fn mdi_importances_find_informative_features() {
        let d = blobs(4, 300);
        let f = RandomForest::fit(
            &d,
            &RandomForestConfig {
                n_trees: 25,
                ..Default::default()
            },
        );
        let imp = f.mdi_importances();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The noise feature carries almost nothing.
        assert!(imp[2] < 0.1, "noise importance {}", imp[2]);
        assert!(imp[0] + imp[1] > 0.9);
    }

    #[test]
    fn stump_has_zero_importance() {
        // Pure data: the tree never splits.
        let d = Dataset::new(vec![vec![1.0], vec![2.0]], vec![0, 0]);
        let f = RandomForest::fit(
            &d,
            &RandomForestConfig {
                n_trees: 3,
                ..Default::default()
            },
        );
        assert_eq!(f.mdi_importances(), vec![0.0]);
    }
}
