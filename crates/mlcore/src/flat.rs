//! Flattened forest inference: one packed node array, branchless traversal.
//!
//! The flat forest is the one form a trained forest takes after training:
//! classifiers hold it, model bundles and registry artifacts ship it, and
//! [`FlatForest`]'s deserializer is the one load path and the one
//! validator. The pointer forest ([`RandomForest`]) walks `Box`ed
//! tree-node enums — one cache miss per level per tree — and lives only
//! from `fit` to [`RandomForest::into_flat`], and in the tests as the
//! differential oracle.
//!
//! [`FlatForest`] holds one contiguous array of 16-byte nodes shared by
//! all trees, each node holding
//!
//! * `threshold` — the split threshold (0 for a leaf);
//! * `child` — for a split, the index of the *left* child (the right
//!   child is always `child + 1`: sibling pairs are allocated
//!   adjacently); for a leaf, the offset of its class distribution in the
//!   shared `proba` table;
//! * `feature` — the split feature, or `LEAF` (`u32::MAX`) for a leaf.
//!
//! A descent step therefore reads one aligned 16-byte node — one cache
//! line — where parallel per-field arrays would cost three loads from
//! three lines, all on the step's dependency chain. The stored form keeps
//! parallel arrays (`feature`, `threshold`, `child`), and
//! [`FlatForest::checksum`] hashes those arrays in that order, so the
//! packed node is an in-memory layout only.
//!
//! Loading checks every index and walks every tree: each node is reached
//! once, and each tree's stored depth is its deepest leaf. A file that
//! fails either check is refused with a `serde::Error`, so no loaded
//! forest can send the unchecked walk out of bounds, into a loop, or past
//! a leaf.
//!
//! The child choice is branchless: `next = child + (x[f] > t)`, computed
//! as an arithmetic select with the exact `x <= t` comparison the pointer
//! tree uses (so NaN features fall right in both implementations), and
//! the kernels descend several trees (or rows) in lockstep for a fixed
//! step count so the walk neither stalls on one load chain nor exits
//! per tree (see `descend_n` and `descend_rows`, which differ only in
//! how a lane on its leaf holds position). Probability accumulation
//! follows tree order with the same `f64` operations as the pointer
//! forest, making `predict` / `predict_proba` **bit-identical** — proven
//! by the differential proptests and the committed golden fixtures under
//! `tests/fixtures/`.

// The descent kernels deliberately use `!(x <= t)` rather than
// `partial_cmp`: it is the exact predicate the pointer tree's if/else
// compiles to, which is what makes NaN routing — and therefore the
// bit-identity guarantee — line up between the two layouts.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use std::hint::select_unpredictable;

use serde::{Deserialize, Serialize, Value};

use crate::forest::RandomForest;
use crate::tree::Node;
use crate::{argmax, Classifier};

/// Sentinel marking a leaf in a [`FlatNode`]'s `feature`.
const LEAF: u32 = u32::MAX;

/// One node of the flat table. 16-byte aligned, so a node never straddles
/// a cache line and a descent step is one load.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(16))]
struct FlatNode {
    /// Split threshold (0 for leaves).
    threshold: f64,
    /// Left-child index for a split (right child is `+ 1`); for a leaf,
    /// the element offset of the leaf's distribution in `proba`.
    child: u32,
    /// Split feature; [`LEAF`] for leaves.
    feature: u32,
}

/// A freshly allocated slot, filled in by [`FlatForest::from_forest`].
const BLANK: FlatNode = FlatNode {
    threshold: 0.0,
    child: 0,
    feature: LEAF,
};

/// A forest compiled to a flat packed-node layout for fast inference.
#[derive(Debug, Clone)]
pub struct FlatForest {
    /// Every tree's nodes, sibling pairs adjacent.
    nodes: Vec<FlatNode>,
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

/// The stored form of a [`FlatForest`]: the node table as three parallel
/// arrays.
#[derive(Serialize, Deserialize)]
struct Wire {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    child: Vec<u32>,
    roots: Vec<u32>,
    depths: Vec<u32>,
    proba: Vec<f64>,
    n_classes: usize,
    n_features: usize,
}

impl Serialize for FlatForest {
    fn to_value(&self) -> Value {
        Wire {
            feature: self.nodes.iter().map(|n| n.feature).collect(),
            threshold: self.nodes.iter().map(|n| n.threshold).collect(),
            child: self.nodes.iter().map(|n| n.child).collect(),
            roots: self.roots.clone(),
            depths: self.depths.clone(),
            proba: self.proba.clone(),
            n_classes: self.n_classes,
            n_features: self.n_features,
        }
        .to_value()
    }
}

impl Deserialize for FlatForest {
    /// Rejects a forest with no trees, arrays that disagree in length,
    /// an index that leaves its table, or a tree that is not a tree of
    /// its stored depth, so a damaged file fails at load rather than
    /// panicking on an index or looping forever in the slot loop.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let w = Wire::from_value(v)?;
        let n = w.feature.len();
        if w.threshold.len() != n || w.child.len() != n || w.depths.len() != w.roots.len() {
            return Err(serde::Error::new("flat forest arrays differ in length"));
        }
        if w.roots.is_empty() {
            return Err(serde::Error::new("flat forest has no trees"));
        }
        let in_range = |f: u32, c: u32| {
            let c = c as usize;
            if f == LEAF {
                c + w.n_classes <= w.proba.len()
            } else {
                (f as usize) < w.n_features && c + 1 < n
            }
        };
        if !w
            .feature
            .iter()
            .zip(&w.child)
            .all(|(&f, &c)| in_range(f, c))
            || w.roots.iter().any(|&r| r as usize >= n)
        {
            return Err(serde::Error::new("flat forest index out of range"));
        }
        // Each node reached at most once bounds the walk by the table size
        // and rules out cycles. The deepest leaf must be the stored depth:
        // the lockstep kernels run that many steps, then read every lane's
        // node as a leaf.
        let mut seen = vec![false; n];
        for (&root, &depth) in w.roots.iter().zip(&w.depths) {
            let mut deepest = 0;
            let mut work = vec![(root as usize, 0u32)];
            while let Some((i, d)) = work.pop() {
                if std::mem::replace(&mut seen[i], true) {
                    return Err(serde::Error::new("flat forest node reached twice"));
                }
                if w.feature[i] == LEAF {
                    deepest = deepest.max(d);
                } else {
                    let c = w.child[i] as usize;
                    work.extend([(c, d + 1), (c + 1, d + 1)]);
                }
            }
            if deepest != depth {
                return Err(serde::Error::new("flat forest depth is not its tree's"));
            }
        }
        let nodes = (w.feature.iter().zip(&w.threshold).zip(&w.child))
            .map(|((&feature, &threshold), &child)| FlatNode {
                threshold,
                child,
                feature,
            })
            .collect();
        Ok(FlatForest {
            nodes,
            roots: w.roots,
            depths: w.depths,
            proba: w.proba,
            n_classes: w.n_classes,
            n_features: w.n_features,
        })
    }
}

impl FlatForest {
    /// Compiles a trained pointer forest into the flat layout. Sibling
    /// node pairs are allocated adjacently so traversal needs a single
    /// child index per split.
    ///
    /// # Panics
    /// Panics if the forest exceeds `u32::MAX` nodes or leaf-probability
    /// entries (far beyond any realistic model), or if a split names a
    /// feature past the forest's width, which training never produces.
    pub fn from_forest(forest: &RandomForest) -> FlatForest {
        let mut flat = FlatForest {
            nodes: Vec::new(),
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
                    Node::Leaf { at } => {
                        let off = flat.proba.len();
                        assert!(off < LEAF as usize, "proba table exceeds u32 range");
                        flat.nodes[slot].child = off as u32;
                        flat.proba.extend_from_slice(tree.dist(*at));
                        max_depth = max_depth.max(depth);
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        // `descend_n` reads `x[feature]` unchecked.
                        assert!(*feature < flat.n_features, "split feature out of range");
                        let pair = flat.alloc(2);
                        flat.nodes[slot] = FlatNode {
                            threshold: *threshold,
                            child: pair,
                            feature: *feature as u32,
                        };
                        work.push((right, pair + 1, depth + 1));
                        work.push((left, pair, depth + 1));
                    }
                }
            }
            flat.depths.push(max_depth);
        }
        flat
    }

    /// Appends `n` blank (leaf) node slots, returning the index of the
    /// first.
    fn alloc(&mut self, n: usize) -> u32 {
        let start = self.nodes.len();
        assert!(start + n < LEAF as usize, "node table exceeds u32 range");
        self.nodes.resize(start + n, BLANK);
        start as u32
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Expected feature-vector width.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// FNV-1a digest over the complete node table in a fixed field order
    /// — the artifact's `feature`, `child`, `roots`, `depths`,
    /// `threshold` and `proba` arrays — with each array length mixed in
    /// before its elements. Floats hash via their IEEE bit patterns, so
    /// any payload mutation — a flipped bit, a re-quantized threshold, a
    /// truncated proba table — changes the digest. The model registry
    /// stores this per-forest and verifies it after every disk round-trip;
    /// see `serde_artifacts` tests.
    pub fn checksum(&self) -> u64 {
        fn mix(h: &mut u64, v: u64) {
            for b in v.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn mix_all(h: &mut u64, len: usize, words: impl Iterator<Item = u64>) {
            mix(h, len as u64);
            words.for_each(|w| mix(h, w));
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let n = self.nodes.len();
        mix_all(&mut h, n, self.nodes.iter().map(|n| u64::from(n.feature)));
        mix_all(&mut h, n, self.nodes.iter().map(|n| u64::from(n.child)));
        mix_all(
            &mut h,
            self.roots.len(),
            self.roots.iter().map(|&w| u64::from(w)),
        );
        mix_all(
            &mut h,
            self.depths.len(),
            self.depths.iter().map(|&w| u64::from(w)),
        );
        mix_all(&mut h, n, self.nodes.iter().map(|n| n.threshold.to_bits()));
        mix_all(
            &mut h,
            self.proba.len(),
            self.proba.iter().map(|f| f.to_bits()),
        );
        mix(&mut h, self.n_classes as u64);
        mix(&mut h, self.n_features as u64);
        h
    }

    /// Walks one tree to its leaf for `x`, returning the leaf node index.
    #[inline]
    fn descend(&self, root: u32, x: &[f64]) -> usize {
        let mut i = root as usize;
        let mut n = &self.nodes[i];
        while n.feature != LEAF {
            // `!(x <= t)` (not `x > t`) so NaN features go right, exactly
            // like the pointer tree's if/else.
            let go_right = !(x[n.feature as usize] <= n.threshold) as u32;
            i = (n.child + go_right) as usize;
            n = &self.nodes[i];
        }
        i
    }

    /// Walks `N` trees in lockstep on one row, returning their leaf node
    /// indices.
    ///
    /// Two tricks keep this off the two stalls a naive walk hits:
    ///
    /// * a single descent is latency-bound — each step's node load depends
    ///   on the previous step's child index — so `N` independent trees
    ///   step together, giving the out-of-order core `N` chains to
    ///   overlap;
    /// * per-tree `while not leaf` loops exit at a different step for every
    ///   tree, so the loop instead runs a *fixed* step count — `steps`,
    ///   which must be `>=` every grouped tree's depth.
    ///
    /// A lane on its leaf skips the step, and that skip is a branch on
    /// purpose: a settled lane then costs a predicted branch instead of a
    /// full step of conditional moves. It predicts on the stage forest's
    /// real rows in any order — one flow's consecutive slots, the tap's
    /// round-robin over flows, or shuffled — because those rows end on a
    /// few common paths. On independent uniform rows it mispredicts;
    /// [`Self::descend_rows`], whose lanes are unrelated rows, holds
    /// settled lanes with conditional moves instead.
    ///
    /// Node and feature loads are unchecked, here and in `descend_rows`:
    /// `from_forest` builds and `from_value` checks every index a walk can
    /// reach, and every tree's depth, so each lane ends on its leaf.
    #[inline]
    fn descend_n<const N: usize>(&self, roots: [u32; N], steps: u32, x: &[f64]) -> [usize; N] {
        let x = &x[..self.n_features];
        let mut idx = roots.map(|r| r as usize);
        for _ in 0..steps {
            for i in idx.iter_mut() {
                // SAFETY: `*i` is a root or a split's `child` or `child + 1`,
                // and `from_forest` builds, `from_value` checks, every one
                // of those inside `nodes`; nothing else writes the fields.
                let n = unsafe { self.nodes.get_unchecked(*i) };
                if n.feature != LEAF {
                    // SAFETY: a split's feature is below `n_features`
                    // (asserted in `from_forest`, checked in `from_value`),
                    // and `x` was cut to exactly `n_features` above.
                    let xf = unsafe { *x.get_unchecked(n.feature as usize) };
                    // `!(x <= t)`: NaN goes right, as in `descend`.
                    let go_right = !(xf <= n.threshold) as u32;
                    *i = (n.child + go_right) as usize;
                }
            }
        }
        idx
    }

    /// Class distribution stored at leaf node `leaf`.
    #[inline]
    fn dist(&self, leaf: usize) -> &[f64] {
        let off = self.nodes[leaf].child as usize;
        &self.proba[off..off + self.n_classes]
    }

    /// Leaf class distribution one tree assigns to `x`.
    #[inline]
    fn leaf(&self, root: u32, x: &[f64]) -> &[f64] {
        self.dist(self.descend(root, x))
    }

    /// Sums every tree's leaf distribution for `x` into `out` and divides
    /// by the tree count — in tree order, with the same `f64` operation
    /// sequence as the pointer forest, so results stay bit-identical.
    ///
    /// Trees descend [`LANES`](Self::accumulate_row) at a time (see
    /// [`Self::descend_n`]), a chunk of trees at a time; the chunk's leaf
    /// offsets are buffered and only then summed ([`Self::sum_leaves`]).
    /// Summing as each group settles, with the sums in `out`, measured
    /// slower: every tree's addition then waited on the previous one's
    /// store to `out`.
    fn accumulate_row(&self, x: &[f64], out: &mut [f64]) {
        /// Interleaved descents per step: enough independent chains to
        /// hide node-load latency without spilling the index state.
        const LANES: usize = 4;
        /// Trees walked before their leaves are summed; a multiple of
        /// `LANES`, and above the deployed stage forest's 60 trees.
        const CHUNK: usize = 64;
        out.fill(0.0);
        let mut buf = [0u32; CHUNK];
        for (roots, depths) in self.roots.chunks(CHUNK).zip(self.depths.chunks(CHUNK)) {
            let offsets = &mut buf[..roots.len()];
            let groups = roots.chunks_exact(LANES);
            let tail = groups.remainder();
            let full = roots.len() - tail.len();
            for ((roots, depths), found) in groups
                .zip(depths.chunks_exact(LANES))
                .zip(offsets.chunks_exact_mut(LANES))
            {
                let roots: [u32; LANES] = roots.try_into().expect("an exact chunk");
                let steps = depths.iter().copied().max().unwrap_or(0);
                for (f, leaf) in found.iter_mut().zip(self.descend_n(roots, steps, x)) {
                    *f = self.nodes[leaf].child;
                }
            }
            for (&root, found) in tail.iter().zip(&mut offsets[full..]) {
                *found = self.nodes[self.descend(root, x)].child;
            }
            self.sum_leaves(offsets, out);
        }
        let n = self.roots.len() as f64;
        for a in out.iter_mut() {
            *a /= n;
        }
    }

    /// Adds the leaf distributions at `proba` offsets `offsets` into
    /// `out`, in offset order, up to four classes at a time: their running
    /// sums stay in registers across the leaves instead of going through
    /// `out` in memory once per leaf.
    fn sum_leaves(&self, offsets: &[u32], out: &mut [f64]) {
        let nc = out.len();
        let mut quads = out.chunks_exact_mut(4);
        for (k, acc) in quads.by_ref().enumerate() {
            self.sum_classes::<4>(offsets, 4 * k, acc);
        }
        let rest = quads.into_remainder();
        let first = nc - rest.len();
        let mut pairs = rest.chunks_exact_mut(2);
        for (k, acc) in pairs.by_ref().enumerate() {
            self.sum_classes::<2>(offsets, first + 2 * k, acc);
        }
        let last = pairs.into_remainder();
        if !last.is_empty() {
            self.sum_classes::<1>(offsets, nc - 1, last);
        }
    }

    /// [`Self::sum_leaves`] for the `W` classes from `class` on.
    #[inline(always)]
    fn sum_classes<const W: usize>(&self, offsets: &[u32], class: usize, out: &mut [f64]) {
        let mut acc: [f64; W] = (&*out).try_into().expect("W classes");
        for &off in offsets {
            let off = off as usize + class;
            let dist: &[f64; W] = self.proba[off..off + W].try_into().expect("W classes");
            for (a, v) in acc.iter_mut().zip(dist) {
                *a += v;
            }
        }
        out.copy_from_slice(&acc);
    }

    /// Walks `N` *rows* down the same tree in lockstep. The batch dual of
    /// [`Self::descend_n`]: all lanes share the tree, so the fixed step
    /// count is the tree's exact depth — no lane runs a wasted iteration —
    /// and the loop trip count stays identical across the whole sweep,
    /// which branch prediction loves.
    ///
    /// The rows of a batch are unrelated, so where each lane reaches its
    /// leaf does not repeat: a lane on its leaf holds position through
    /// conditional moves, never a branch. `select_unpredictable` keeps
    /// them conditional moves; with a node's fields behind one load, LLVM
    /// would otherwise branch around a settled lane's work.
    #[inline]
    fn descend_rows<const N: usize>(&self, root: u32, steps: u32, xs: [&[f64]; N]) -> [usize; N] {
        let xs = xs.map(|x| &x[..self.n_features]);
        let mut idx = [root as usize; N];
        for _ in 0..steps {
            for (i, x) in idx.iter_mut().zip(xs) {
                // SAFETY: as in `descend_n`.
                let n = unsafe { self.nodes.get_unchecked(*i) };
                let at_leaf = n.feature == LEAF;
                // A settled lane reads (and discards) `x[0]`.
                let fi = select_unpredictable(at_leaf, 0, n.feature as usize);
                // SAFETY: every row was cut to `n_features` above. A split's
                // feature is below it (asserted in `from_forest`, checked in
                // `from_value`), and so is `fi = 0`: `steps` is the tree's
                // depth (built by `from_forest`, checked by `from_value`),
                // so `steps > 0` means the tree has a split.
                let xf = unsafe { *x.get_unchecked(fi) };
                let go_right = !(xf <= n.threshold) as u32;
                // A leaf's `child` is a proba offset and the +1 may wrap at
                // the u32 edge; the result is discarded, so wrap instead of
                // overflowing.
                let next = n.child.wrapping_add(go_right) as usize;
                *i = select_unpredictable(at_leaf, *i, next);
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
                        let acc = &mut cout[(row + l) * nc..(row + l + 1) * nc];
                        for (a, v) in acc.iter_mut().zip(self.dist(leaf)) {
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
    fn inconsistent_node_arrays_are_rejected() {
        let (_, flat, _) = fitted(7);
        let damaged = |field: &str, edit: &dyn Fn(&mut Vec<Value>)| {
            let mut v = flat.to_value();
            let Value::Object(fields) = &mut v else {
                unreachable!("a flat forest serializes to an object")
            };
            let (_, Value::Array(items)) = fields.iter_mut().find(|(k, _)| k == field).unwrap()
            else {
                unreachable!("`{field}` is an array")
            };
            edit(items);
            FlatForest::from_value(&v)
        };
        assert!(FlatForest::from_value(&flat.to_value()).is_ok());
        assert!(damaged("threshold", &|a| drop(a.pop())).is_err());
        assert!(damaged("depths", &|a| drop(a.pop())).is_err());
        // A depth past the tree's deepest leaf would only waste steps, but
        // it is not what training writes.
        assert!(damaged("depths", &|a| a[0] = Value::UInt(u64::from(u32::MAX))).is_err());
        // Node 0's child past the table, its feature past the row width,
        // a root past the table.
        assert!(damaged("child", &|a| a[0] = Value::UInt(u64::from(u32::MAX - 1))).is_err());
        assert!(damaged("feature", &|a| a[0] = Value::UInt(99)).is_err());
        assert!(damaged("roots", &|a| a[0] = Value::UInt(1 << 30)).is_err());

        // All leaves, zero features, yet a tree claims depth 1.
        let stumps = RandomForest::fit(
            &Dataset::new(vec![vec![1.0], vec![2.0]], vec![0, 0]),
            &RandomForestConfig::default(),
        )
        .to_flat();
        let mut v = stumps.to_value();
        let Value::Object(fields) = &mut v else {
            unreachable!("a flat forest serializes to an object")
        };
        for (k, f) in fields.iter_mut() {
            match (k.as_str(), f) {
                ("n_features", f) => *f = Value::UInt(0),
                ("depths", Value::Array(d)) => d[0] = Value::UInt(1),
                _ => {}
            }
        }
        assert!(FlatForest::from_value(&v).is_err());
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
