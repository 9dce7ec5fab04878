//! Flattened forest inference: SoA node arrays, branchless traversal.
//!
//! The pointer forest ([`RandomForest`]) walks `Box`ed tree-node enums —
//! one cache miss per level per tree, plus a `Vec` clone per tree for the
//! leaf distribution. That is fine for training-time evaluation but too
//! slow for the tap hot path, where every flow classifies every slot.
//!
//! [`FlatForest`] compiles a trained forest into one contiguous
//! structure-of-arrays node table shared by all trees:
//!
//! * `feature[i]` — split feature of node `i`, or `LEAF` (`u32::MAX`) for a
//!   leaf;
//! * `threshold[i]` — split threshold;
//! * `child[i]` — for a split, the index of the *left* child (the right
//!   child is always `child[i] + 1`: sibling pairs are allocated
//!   adjacently); for a leaf, the offset of its class distribution in the
//!   shared `proba` table.
//!
//! Traversal is branchless: `next = child + (x[f] > t)`, computed as an
//! arithmetic select with the exact `x <= t` comparison the pointer tree
//! uses (so NaN features fall right in both implementations), and the
//! kernel descends several trees in lockstep for a fixed step count so
//! the walk neither stalls on one load chain nor mispredicts at leaf
//! exits (see `descend_n`). Probability accumulation follows tree order
//! with the same `f64` operations as the pointer forest, making
//! `predict` / `predict_proba` **bit-identical** — proven by the
//! differential proptests and the committed golden fixtures under
//! `tests/fixtures/`.
//!
//! Training code is untouched: fit a [`RandomForest`], then call
//! [`RandomForest::into_flat`] (or [`FlatForest::from_forest`]) once and
//! serve inference from the flat form.

// The descent kernels deliberately use `!(x <= t)` rather than
// `partial_cmp`: it is the exact predicate the pointer tree's if/else
// compiles to, which is what makes NaN routing — and therefore the
// bit-identity guarantee — line up between the two layouts.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use serde::{Deserialize, Serialize};

use crate::forest::RandomForest;
use crate::tree::Node;
use crate::{argmax, Classifier};

/// Sentinel marking a leaf in [`FlatForest`]'s `feature` array.
const LEAF: u32 = u32::MAX;

/// A forest compiled to a flat SoA node-array layout for fast inference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatForest {
    /// Split feature per node; [`LEAF`] for leaves.
    feature: Vec<u32>,
    /// Split threshold per node (0 for leaves).
    threshold: Vec<f64>,
    /// Left-child index per split node (right child is `+ 1`); for leaves,
    /// the element offset of the leaf's distribution in `proba`.
    child: Vec<u32>,
    /// Root node index of each tree.
    roots: Vec<u32>,
    /// Max leaf depth of each tree (root-is-leaf = 0): the descent step
    /// count, so the interleaved kernel can run a fixed, branch-predictable
    /// number of iterations per tree group.
    depths: Vec<u32>,
    /// Concatenated leaf class distributions, `n_classes` each.
    proba: Vec<f64>,
    /// Number of classes.
    n_classes: usize,
    /// Expected feature-vector width.
    n_features: usize,
}

impl FlatForest {
    /// Compiles a trained pointer forest into the flat layout. Sibling
    /// node pairs are allocated adjacently so traversal needs a single
    /// child index per split.
    ///
    /// # Panics
    /// Panics if the forest exceeds `u32::MAX` nodes or leaf-probability
    /// entries (far beyond any realistic model).
    pub fn from_forest(forest: &RandomForest) -> FlatForest {
        let mut flat = FlatForest {
            feature: Vec::new(),
            threshold: Vec::new(),
            child: Vec::new(),
            roots: Vec::with_capacity(forest.n_trees()),
            depths: Vec::with_capacity(forest.n_trees()),
            proba: Vec::new(),
            n_classes: forest.n_classes(),
            n_features: forest.n_features(),
        };
        for tree in forest.trees() {
            let root = flat.alloc(1);
            flat.roots.push(root);
            let mut max_depth = 0u32;
            // Explicit worklist: recursion depth is bounded by config, but
            // the two-phase slot-then-fill scheme needs it anyway to keep
            // sibling pairs adjacent.
            let mut work: Vec<(&Node, u32, u32)> = vec![(tree.root(), root, 0)];
            while let Some((node, slot, depth)) = work.pop() {
                let slot = slot as usize;
                match node {
                    Node::Leaf { proba } => {
                        let off = flat.proba.len();
                        assert!(off < LEAF as usize, "proba table exceeds u32 range");
                        flat.feature[slot] = LEAF;
                        flat.child[slot] = off as u32;
                        flat.proba.extend_from_slice(proba);
                        max_depth = max_depth.max(depth);
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        let pair = flat.alloc(2);
                        flat.feature[slot] = *feature as u32;
                        flat.threshold[slot] = *threshold;
                        flat.child[slot] = pair;
                        work.push((right, pair + 1, depth + 1));
                        work.push((left, pair, depth + 1));
                    }
                }
            }
            flat.depths.push(max_depth);
        }
        flat
    }

    /// Appends `n` blank node slots, returning the index of the first.
    fn alloc(&mut self, n: usize) -> u32 {
        let start = self.feature.len();
        assert!(start + n < LEAF as usize, "node table exceeds u32 range");
        self.feature.resize(start + n, LEAF);
        self.threshold.resize(start + n, 0.0);
        self.child.resize(start + n, 0);
        start as u32
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Expected feature-vector width.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// FNV-1a digest over the complete node table in a fixed field order,
    /// with each array length mixed in before its elements. Floats hash
    /// via their IEEE bit patterns, so any payload mutation — a flipped
    /// bit, a re-quantized threshold, a truncated proba table — changes
    /// the digest. The model registry stores this per-forest and verifies
    /// it after every disk round-trip; see `serde_artifacts` tests.
    pub fn checksum(&self) -> u64 {
        fn mix(h: &mut u64, v: u64) {
            for b in v.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (len, words) in [
            (self.feature.len(), &self.feature),
            (self.child.len(), &self.child),
            (self.roots.len(), &self.roots),
            (self.depths.len(), &self.depths),
        ] {
            mix(&mut h, len as u64);
            for &w in words {
                mix(&mut h, u64::from(w));
            }
        }
        for (len, floats) in [
            (self.threshold.len(), &self.threshold),
            (self.proba.len(), &self.proba),
        ] {
            mix(&mut h, len as u64);
            for &f in floats {
                mix(&mut h, f.to_bits());
            }
        }
        mix(&mut h, self.n_classes as u64);
        mix(&mut h, self.n_features as u64);
        h
    }

    /// Walks one tree to its leaf for `x`, returning the leaf node index.
    #[inline]
    fn descend(&self, root: u32, x: &[f64]) -> usize {
        let mut i = root as usize;
        let mut f = self.feature[i];
        while f != LEAF {
            // `!(x <= t)` (not `x > t`) so NaN features go right, exactly
            // like the pointer tree's if/else.
            let go_right = !(x[f as usize] <= self.threshold[i]) as u32;
            i = (self.child[i] + go_right) as usize;
            f = self.feature[i];
        }
        i
    }

    /// Walks `N` trees in lockstep, returning their leaf node indices.
    ///
    /// Two tricks keep this off the two stalls a naive walk hits:
    ///
    /// * a single descent is latency-bound — each step's node load depends
    ///   on the previous step's child index — so `N` independent trees
    ///   step together, giving the out-of-order core `N` chains to
    ///   overlap;
    /// * per-tree `while not leaf` exits mispredict at every leaf, so the
    ///   loop instead runs a *fixed* step count — `steps`, which must be
    ///   `>=` every grouped tree's depth — with leaves holding position
    ///   via conditional moves.
    #[inline]
    fn descend_n<const N: usize>(&self, roots: [u32; N], steps: u32, x: &[f64]) -> [usize; N] {
        let mut idx = [0usize; N];
        for (slot, root) in idx.iter_mut().zip(roots) {
            *slot = root as usize;
        }
        for _ in 0..steps {
            for i in idx.iter_mut() {
                let f = self.feature[*i];
                let at_leaf = f == LEAF;
                // Lanes already at a leaf stay put; `fi = 0` keeps the
                // (discarded) feature load in bounds — any split anywhere
                // implies `n_features >= 1`, and with zero splits
                // `steps == 0` skips the loop entirely.
                let fi = if at_leaf { 0 } else { f as usize };
                let go_right = !(x[fi] <= self.threshold[*i]) as u32;
                // For a leaf lane `child` is a proba offset and the +1 may
                // wrap at the u32 edge; the result is discarded, so wrap
                // instead of overflowing.
                let next = self.child[*i].wrapping_add(go_right) as usize;
                *i = if at_leaf { *i } else { next };
            }
        }
        idx
    }

    /// Leaf class distribution one tree assigns to `x`.
    #[inline]
    fn leaf(&self, root: u32, x: &[f64]) -> &[f64] {
        let leaf = self.descend(root, x);
        let off = self.child[leaf] as usize;
        &self.proba[off..off + self.n_classes]
    }

    /// Sums every tree's leaf distribution for `x` into `out` and divides
    /// by the tree count — in tree order, with the same `f64` operation
    /// sequence as the pointer forest, so results stay bit-identical.
    /// Trees descend [`LANES`](Self::accumulate_row) at a time (see
    /// [`Self::descend_n`]).
    fn accumulate_row(&self, x: &[f64], out: &mut [f64]) {
        /// Interleaved descents per step: enough independent chains to
        /// hide node-load latency without spilling the index state.
        const LANES: usize = 4;
        out.fill(0.0);
        let full = self.roots.len() / LANES * LANES;
        for g in (0..full).step_by(LANES) {
            let mut roots = [0u32; LANES];
            let mut steps = 0u32;
            for (l, slot) in roots.iter_mut().enumerate() {
                *slot = self.roots[g + l];
                steps = steps.max(self.depths[g + l]);
            }
            let leaves: [usize; LANES] = self.descend_n(roots, steps, x);
            for leaf in leaves {
                let off = self.child[leaf] as usize;
                let dist = &self.proba[off..off + self.n_classes];
                for (a, v) in out.iter_mut().zip(dist) {
                    *a += v;
                }
            }
        }
        for &root in &self.roots[full..] {
            for (a, v) in out.iter_mut().zip(self.leaf(root, x)) {
                *a += v;
            }
        }
        let n = self.roots.len() as f64;
        for a in out.iter_mut() {
            *a /= n;
        }
    }

    /// Walks `N` *rows* down the same tree in lockstep. The batch dual of
    /// [`Self::descend_n`]: all lanes share the tree, so the fixed step
    /// count is the tree's exact depth — no lane runs a wasted iteration —
    /// and the loop trip count stays identical across the whole sweep,
    /// which branch prediction loves.
    #[inline]
    fn descend_rows<const N: usize>(&self, root: u32, steps: u32, xs: [&[f64]; N]) -> [usize; N] {
        let mut idx = [root as usize; N];
        for _ in 0..steps {
            for (i, x) in idx.iter_mut().zip(xs) {
                let f = self.feature[*i];
                let at_leaf = f == LEAF;
                let fi = if at_leaf { 0 } else { f as usize };
                let go_right = !(x[fi] <= self.threshold[*i]) as u32;
                let next = self.child[*i].wrapping_add(go_right) as usize;
                *i = if at_leaf { *i } else { next };
            }
        }
        idx
    }

    /// Batch probability inference over a whole slot's worth of rows:
    /// fills `out` (length `rows × n_classes`, row-major) without
    /// allocating. Trees run in the outer loop with row groups descending
    /// in lockstep (`descend_rows`); every row still accumulates
    /// its trees in tree order, keeping results bit-identical to the
    /// single-row path.
    ///
    /// # Panics
    /// Panics if `out.len() != xs.len() * n_classes` or any row has the
    /// wrong feature width.
    pub fn predict_proba_batch_into<R: AsRef<[f64]>>(&self, xs: &[R], out: &mut [f64]) {
        /// Rows descending one tree together.
        const ROWS: usize = 8;
        /// Rows per cache block: the block's accumulators and feature rows
        /// stay L1-resident across the whole tree sweep.
        const CHUNK: usize = 64;
        let nc = self.n_classes;
        assert_eq!(out.len(), xs.len() * nc, "output buffer size mismatch");
        for x in xs {
            assert_eq!(x.as_ref().len(), self.n_features, "feature width mismatch");
        }
        out.fill(0.0);
        for (cx, cout) in xs.chunks(CHUNK).zip(out.chunks_mut(CHUNK * nc)) {
            let full = cx.len() / ROWS * ROWS;
            for (t, &root) in self.roots.iter().enumerate() {
                let steps = self.depths[t];
                for row in (0..full).step_by(ROWS) {
                    let group: [&[f64]; ROWS] = std::array::from_fn(|l| cx[row + l].as_ref());
                    let leaves: [usize; ROWS] = self.descend_rows(root, steps, group);
                    for (l, leaf) in leaves.into_iter().enumerate() {
                        let off = self.child[leaf] as usize;
                        let dist = &self.proba[off..off + nc];
                        let acc = &mut cout[(row + l) * nc..(row + l + 1) * nc];
                        for (a, v) in acc.iter_mut().zip(dist) {
                            *a += v;
                        }
                    }
                }
                for (row, x) in cx.iter().enumerate().skip(full) {
                    let acc = &mut cout[row * nc..(row + 1) * nc];
                    for (a, v) in acc.iter_mut().zip(self.leaf(root, x.as_ref())) {
                        *a += v;
                    }
                }
            }
        }
        let n = self.roots.len() as f64;
        for a in out.iter_mut() {
            *a /= n;
        }
    }

    /// Batch class prediction over rows of any slice-like feature type
    /// (the trait's `predict_batch` is fixed to `&[Vec<f64>]`).
    fn predict_rows<R: AsRef<[f64]>>(&self, xs: &[R]) -> Vec<usize> {
        let nc = self.n_classes.max(1);
        let mut scores = vec![0.0; xs.len() * nc];
        self.predict_proba_batch_into(xs, &mut scores);
        scores.chunks(nc).map(argmax).collect()
    }
}

impl Classifier for FlatForest {
    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_classes];
        self.predict_proba_into(x, &mut out);
        out
    }

    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n_features, "feature width mismatch");
        self.accumulate_row(x, out);
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        self.predict_rows(xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::forest::RandomForestConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn fitted(seed: u64) -> (RandomForest, FlatForest, Dataset) {
        let d = blobs(seed, 150);
        let f = RandomForest::fit(
            &d,
            &RandomForestConfig {
                n_trees: 12,
                seed,
                ..Default::default()
            },
        );
        let flat = f.to_flat();
        (f, flat, d)
    }

    #[test]
    fn flat_matches_pointer_bit_for_bit() {
        let (f, flat, d) = fitted(1);
        for x in &d.x {
            assert_eq!(f.predict_proba(x), flat.predict_proba(x));
            assert_eq!(f.predict(x), flat.predict(x));
        }
    }

    #[test]
    fn batch_matches_single_row() {
        let (_, flat, d) = fitted(2);
        let nc = flat.n_classes();
        let mut batch = vec![0.0; d.x.len() * nc];
        flat.predict_proba_batch_into(&d.x, &mut batch);
        for (x, row) in d.x.iter().zip(batch.chunks(nc)) {
            assert_eq!(flat.predict_proba(x), row);
        }
        assert_eq!(
            flat.predict_batch(&d.x),
            d.x.iter().map(|x| flat.predict(x)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nan_features_fall_right_like_pointer_trees() {
        let (f, flat, _) = fitted(3);
        for x in [
            vec![f64::NAN, 0.0],
            vec![0.0, f64::NAN],
            vec![f64::NAN, f64::NAN],
            vec![f64::INFINITY, f64::NEG_INFINITY],
        ] {
            assert_eq!(f.predict_proba(&x), flat.predict_proba(&x), "x = {x:?}");
        }
    }

    #[test]
    fn stump_forest_flattens_to_single_leaves() {
        // Pure data: every tree is a single leaf.
        let d = Dataset::new(vec![vec![1.0], vec![2.0]], vec![0, 0]);
        let f = RandomForest::fit(
            &d,
            &RandomForestConfig {
                n_trees: 3,
                ..Default::default()
            },
        );
        let flat = f.to_flat();
        assert_eq!(flat.n_trees(), 3);
        assert_eq!(flat.n_nodes(), 3); // one leaf per tree
        assert_eq!(flat.predict(&[9.0]), 0);
        assert_eq!(f.predict_proba(&[9.0]), flat.predict_proba(&[9.0]));
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let (_, flat, d) = fitted(4);
        let json = serde_json::to_string(&flat).unwrap();
        let back: FlatForest = serde_json::from_str(&json).unwrap();
        for x in d.x.iter().take(20) {
            assert_eq!(flat.predict_proba(x), back.predict_proba(x));
        }
        assert_eq!(flat.n_nodes(), back.n_nodes());
    }

    #[test]
    fn into_flat_consumes_and_matches() {
        let (f, flat, d) = fitted(5);
        let owned = f.into_flat();
        for x in d.x.iter().take(20) {
            assert_eq!(owned.predict_proba(x), flat.predict_proba(x));
        }
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_width_panics() {
        let (_, flat, _) = fitted(6);
        let _ = flat.predict(&[1.0, 2.0, 3.0]);
    }
}
