//! CART decision trees with Gini impurity.
//!
//! Binary trees grown greedily: at each node the best `(feature, threshold)`
//! split is searched over a (possibly random, for forests) subset of
//! features and up to `MAX_THRESHOLDS` = 24 quantile thresholds per feature.
//! Leaves store class-count distributions so probability prediction is
//! available.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::Classifier;

/// Maximum candidate thresholds examined per feature per node (quantile
/// midpoints); bounds training cost on large nodes.
const MAX_THRESHOLDS: usize = 24;

/// Tree growth parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to split a node further.
    pub min_samples_split: usize,
    /// Features examined per split: `None` = all, `Some(m)` = a random
    /// subset of `m` (Random-Forest style).
    pub features_per_split: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 10,
            min_samples_split: 2,
            features_per_split: None,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf {
        /// Offset of the leaf's normalized class distribution in its
        /// tree's `proba` table.
        at: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A trained CART decision tree. It has no stored form: a forest of
/// them is flattened ([`crate::flat::FlatForest`]) to be shipped.
///
/// Leaf distributions live in one table per tree, not one allocation per
/// leaf: a forest is dropped right after flattening, and its small freed
/// blocks, scattered through the heap, are what the serving path's
/// per-flow allocations reuse next.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    /// Leaf class distributions, `n_classes` each.
    proba: Vec<f64>,
    n_classes: usize,
    n_features: usize,
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

fn class_counts(data: &Dataset, idx: &[usize]) -> Vec<usize> {
    let mut counts = vec![0usize; data.n_classes];
    for &i in idx {
        counts[data.y[i]] += 1;
    }
    counts
}

impl DecisionTree {
    /// Fits a tree on the subset `idx` of `data`. `rng` drives the
    /// per-split feature subsampling (unused when
    /// [`TreeConfig::features_per_split`] is `None`).
    pub fn fit_subset(
        data: &Dataset,
        idx: &[usize],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> DecisionTree {
        assert!(!idx.is_empty(), "cannot fit a tree on zero samples");
        let mut proba = Vec::new();
        DecisionTree {
            root: grow(&mut proba, data, idx.to_vec(), config, rng, 0),
            proba,
            n_classes: data.n_classes,
            n_features: data.n_features(),
        }
    }

    /// Fits a tree on the full dataset.
    pub fn fit(data: &Dataset, config: &TreeConfig, rng: &mut StdRng) -> DecisionTree {
        let idx: Vec<usize> = (0..data.len()).collect();
        Self::fit_subset(data, &idx, config, rng)
    }

    /// Tree depth (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    /// Expected feature-vector width.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Root node, for flattening ([`crate::flat`]).
    pub(crate) fn root(&self) -> &Node {
        &self.root
    }

    /// The class distribution of the leaf whose [`Node::Leaf`] offset is
    /// `at`.
    pub(crate) fn dist(&self, at: usize) -> &[f64] {
        &self.proba[at..at + self.n_classes]
    }

    /// Walks the tree for `x` and returns the leaf's stored class
    /// distribution without cloning it — the allocation-free core of
    /// [`Classifier::predict_proba`].
    pub fn leaf_proba(&self, x: &[f64]) -> &[f64] {
        assert_eq!(x.len(), self.n_features, "feature width mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { at } => return self.dist(*at),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

/// Grows the subtree over `idx`, appending its leaf distributions to
/// `proba` in depth-first, left-first order.
fn grow(
    proba: &mut Vec<f64>,
    data: &Dataset,
    idx: Vec<usize>,
    config: &TreeConfig,
    rng: &mut StdRng,
    depth: usize,
) -> Node {
    let counts = class_counts(data, &idx);
    let total = idx.len();
    let node_gini = gini(&counts, total);

    let make_leaf = |proba: &mut Vec<f64>| {
        let at = proba.len();
        proba.extend(counts.iter().map(|&c| c as f64 / total as f64));
        Node::Leaf { at }
    };

    if depth >= config.max_depth || total < config.min_samples_split || node_gini == 0.0 {
        return make_leaf(proba);
    }

    // Candidate features.
    let n_features = data.n_features();
    let features: Vec<usize> = match config.features_per_split {
        None => (0..n_features).collect(),
        Some(m) => {
            let mut all: Vec<usize> = (0..n_features).collect();
            all.shuffle(rng);
            all.truncate(m.max(1).min(n_features));
            all
        }
    };

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, weighted gini)
    for &f in &features {
        // Quantile thresholds over this node's values.
        let mut vals: Vec<f64> = idx.iter().map(|&i| data.x[i][f]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        let step = (vals.len() - 1).div_ceil(MAX_THRESHOLDS).max(1);
        for w in vals.windows(2).step_by(step) {
            let thr = (w[0] + w[1]) / 2.0;
            // Evaluate split.
            let mut lc = vec![0usize; data.n_classes];
            let mut rc = vec![0usize; data.n_classes];
            let mut ln = 0usize;
            for &i in &idx {
                if data.x[i][f] <= thr {
                    lc[data.y[i]] += 1;
                    ln += 1;
                } else {
                    rc[data.y[i]] += 1;
                }
            }
            let rn = total - ln;
            if ln == 0 || rn == 0 {
                continue;
            }
            let weighted = (ln as f64 * gini(&lc, ln) + rn as f64 * gini(&rc, rn)) / total as f64;
            if best.is_none_or(|(_, _, g)| weighted < g) {
                best = Some((f, thr, weighted));
            }
        }
    }

    // Accept any non-worsening split: zero-gain splits (e.g. the root of
    // XOR-shaped data) often enable gains deeper down, and recursion stays
    // bounded by depth and the non-empty-children requirement.
    match best {
        Some((feature, threshold, g)) if g <= node_gini + 1e-12 => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| data.x[i][feature] <= threshold);
            Node::Split {
                feature,
                threshold,
                left: Box::new(grow(proba, data, left_idx, config, rng, depth + 1)),
                right: Box::new(grow(proba, data, right_idx, config, rng, depth + 1)),
            }
        }
        _ => make_leaf(proba),
    }
}

impl Classifier for DecisionTree {
    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        self.leaf_proba(x).to_vec()
    }

    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(self.leaf_proba(x));
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    /// Two well-separated 2-D blobs.
    fn blobs() -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..50 {
            let t = i as f64 / 50.0;
            x.push(vec![t, t * 0.5]);
            y.push(0);
            x.push(vec![t + 5.0, t * 0.5 + 5.0]);
            y.push(1);
        }
        Dataset::new(x, y)
    }

    #[test]
    fn separable_data_is_fit_perfectly() {
        let d = blobs();
        let t = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng());
        for i in 0..d.len() {
            assert_eq!(t.predict(&d.x[i]), d.y[i]);
        }
        assert!(t.depth() >= 1);
    }

    #[test]
    fn pure_node_is_a_leaf() {
        let d = Dataset::new(vec![vec![1.0], vec![2.0], vec![3.0]], vec![1, 1, 1]);
        let t = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng());
        assert_eq!(t.depth(), 0);
        assert!(matches!(t.root, Node::Leaf { .. }));
        assert_eq!(t.predict(&[9.0]), 1);
    }

    #[test]
    fn depth_limit_is_respected() {
        // XOR-ish data needs depth 2; cap at 1.
        let d = Dataset::new(
            vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
            ],
            vec![0, 1, 1, 0],
        );
        let cfg = TreeConfig {
            max_depth: 1,
            ..Default::default()
        };
        let t = DecisionTree::fit(&d, &cfg, &mut rng());
        assert!(t.depth() <= 1);
        let deep = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng());
        assert!(deep.depth() >= 2);
        for i in 0..4 {
            assert_eq!(deep.predict(&d.x[i]), d.y[i], "xor sample {i}");
        }
    }

    #[test]
    fn proba_reflects_leaf_mixture() {
        // One feature, inseparable mixture at x=0: 3 of class 0, 1 of class 1.
        let d = Dataset::new(
            vec![vec![0.0], vec![0.0], vec![0.0], vec![0.0]],
            vec![0, 0, 0, 1],
        );
        let t = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng());
        let p = t.predict_proba(&[0.0]);
        assert!((p[0] - 0.75).abs() < 1e-12);
        assert!((p[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn min_samples_split_stops_growth() {
        let d = blobs();
        let cfg = TreeConfig {
            min_samples_split: 1000,
            ..Default::default()
        };
        let t = DecisionTree::fit(&d, &cfg, &mut rng());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn feature_subsampling_still_learns() {
        let d = blobs();
        let cfg = TreeConfig {
            features_per_split: Some(1),
            ..Default::default()
        };
        let t = DecisionTree::fit(&d, &cfg, &mut rng());
        let acc =
            d.x.iter()
                .zip(&d.y)
                .filter(|(x, y)| t.predict(x) == **y)
                .count() as f64
                / d.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_width_panics() {
        let d = blobs();
        let t = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng());
        let _ = t.predict(&[1.0, 2.0, 3.0]);
    }
}
