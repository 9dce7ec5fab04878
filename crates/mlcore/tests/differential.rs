//! Differential equivalence suite: flat vs pointer forest inference.
//!
//! The flat node layout (`mlcore::flat`) rewrites the inference kernel, so
//! its correctness is proven differentially — for random forests × random
//! inputs, [`FlatForest`] must produce **bit-identical** results to the
//! pointer [`RandomForest`] on `predict`, `predict_proba`, and
//! `predict_batch`, including NaN / out-of-range features and single-node
//! stumps. Any traversal or accumulation-order divergence fails here.

use mlcore::{Classifier, Dataset, FlatForest, RandomForest, RandomForestConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random labeled rows: (features, label) with 1–4 features and ≤ 4
/// classes. Feature values span a wide range so split thresholds land in
/// varied places.
fn rows_strategy(n_features: usize) -> impl Strategy<Value = Vec<(Vec<f64>, usize)>> {
    prop::collection::vec(
        (prop::collection::vec(-1e6f64..1e6, n_features), 0usize..4),
        4..40,
    )
}

fn fit(rows: &[(Vec<f64>, usize)], cfg: &RandomForestConfig) -> (RandomForest, FlatForest) {
    let x: Vec<Vec<f64>> = rows.iter().map(|(r, _)| r.clone()).collect();
    let y: Vec<usize> = rows.iter().map(|(_, c)| *c).collect();
    let data = Dataset::new(x, y);
    let forest = RandomForest::fit(&data, cfg);
    let flat = forest.to_flat();
    (forest, flat)
}

/// Exact equality on all three prediction surfaces for a set of probes.
fn assert_equivalent(forest: &RandomForest, flat: &FlatForest, probes: &[Vec<f64>]) {
    for x in probes {
        assert_eq!(
            forest.predict_proba(x),
            flat.predict_proba(x),
            "predict_proba diverged on {x:?}"
        );
        assert_eq!(
            forest.predict(x),
            flat.predict(x),
            "predict diverged on {x:?}"
        );
    }
    assert_eq!(
        forest.predict_batch(probes),
        flat.predict_batch(probes),
        "predict_batch diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random data × random forest hyperparameters: flat inference is
    /// bit-identical on the training rows themselves.
    #[test]
    fn flat_equals_pointer_on_training_rows(
        rows in rows_strategy(3),
        n_trees in 1usize..12,
        max_depth in 1usize..8,
        min_samples_split in 2usize..6,
        seed in any::<u64>(),
    ) {
        let cfg = RandomForestConfig {
            n_trees,
            max_depth,
            min_samples_split,
            features_per_split: None,
            seed,
        };
        let (forest, flat) = fit(&rows, &cfg);
        let probes: Vec<Vec<f64>> = rows.iter().map(|(r, _)| r.clone()).collect();
        assert_equivalent(&forest, &flat, &probes);
    }

    /// Probes drawn independently of the training rows — including values
    /// far outside the training range — agree exactly too.
    #[test]
    fn flat_equals_pointer_on_unseen_probes(
        rows in rows_strategy(2),
        probes in prop::collection::vec(
            prop::collection::vec(-1e12f64..1e12, 2),
            1..20
        ),
        seed in any::<u64>(),
    ) {
        let cfg = RandomForestConfig { n_trees: 7, seed, ..Default::default() };
        let (forest, flat) = fit(&rows, &cfg);
        assert_equivalent(&forest, &flat, &probes);
    }

    /// NaN and infinite features take the same path in both layouts: the
    /// pointer tree's `x <= t` is false for NaN (go right), and the flat
    /// traversal preserves exactly that comparison.
    #[test]
    fn nan_and_infinity_probes_agree(
        rows in rows_strategy(2),
        pattern in prop::collection::vec(0u8..4, 2),
        seed in any::<u64>(),
    ) {
        let cfg = RandomForestConfig { n_trees: 5, seed, ..Default::default() };
        let (forest, flat) = fit(&rows, &cfg);
        let probe: Vec<f64> = pattern
            .iter()
            .map(|p| match p {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => 0.0,
            })
            .collect();
        assert_equivalent(&forest, &flat, &[probe]);
    }

    /// Single-class data grows stump forests (every tree one leaf); the
    /// flat layout handles root-is-leaf and still matches exactly.
    #[test]
    fn stump_forests_agree(
        values in prop::collection::vec(-100.0f64..100.0, 2..20),
        n_trees in 1usize..6,
        seed in any::<u64>(),
    ) {
        let rows: Vec<(Vec<f64>, usize)> =
            values.iter().map(|&v| (vec![v], 0usize)).collect();
        let cfg = RandomForestConfig { n_trees, seed, ..Default::default() };
        let (forest, flat) = fit(&rows, &cfg);
        prop_assert_eq!(flat.n_nodes(), flat.n_trees(), "stumps are single leaves");
        let probes: Vec<Vec<f64>> = vec![vec![-1e9], vec![0.0], vec![1e9], vec![f64::NAN]];
        assert_equivalent(&forest, &flat, &probes);
    }

    /// depth-limited forests on feature-subsampled splits still agree.
    #[test]
    fn feature_subsampled_forests_agree(
        rows in rows_strategy(4),
        mtry in 1usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = RandomForestConfig {
            n_trees: 6,
            max_depth: 4,
            features_per_split: Some(mtry),
            seed,
            ..Default::default()
        };
        let (forest, flat) = fit(&rows, &cfg);
        let probes: Vec<Vec<f64>> = rows.iter().map(|(r, _)| r.clone()).collect();
        assert_equivalent(&forest, &flat, &probes);
    }
}

/// Deterministic spot check: the flat conversion preserves tree count and
/// class width, and a serde round-trip of the flat form is still
/// bit-identical to the pointer forest.
#[test]
fn flat_roundtrip_stays_equivalent_to_pointer() {
    let rows: Vec<(Vec<f64>, usize)> = (0..60)
        .map(|i| {
            let v = i as f64;
            (
                vec![v.sin() * 50.0, v.cos() * 50.0, v % 7.0],
                (i % 3) as usize,
            )
        })
        .collect();
    let cfg = RandomForestConfig {
        n_trees: 9,
        seed: 42,
        ..Default::default()
    };
    let (forest, flat) = fit(&rows, &cfg);
    assert_eq!(flat.n_trees(), forest.n_trees());
    assert_eq!(flat.n_classes(), forest.n_classes());
    let back: FlatForest = serde_json::from_str(&serde_json::to_string(&flat).unwrap()).unwrap();
    for (x, _) in &rows {
        assert_eq!(forest.predict_proba(x), back.predict_proba(x));
    }
}

/// Feature values that route differently from any finite threshold:
/// signed zeros, infinities and NaN (which falls right).
const SPECIALS: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// Bit-identity of `a` and `b` (so `-0.0` and `0.0` differ).
fn assert_bits_eq(a: &[f64], b: &[f64], ctx: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "{ctx}");
}

/// Trains a forest of a deployed shape — depth 10, `n_trees` trees over
/// `n_features` features and `n_classes` classes — and checks every
/// inference surface bit for bit against the pointer forest. Probes are
/// the training rows, each with one feature swapped for a special value,
/// and rows made of one special value; batch calls cover row counts above
/// the 64-row cache block that are not multiples of the 8-row group.
fn deployed_shape_agrees(n_trees: usize, n_features: usize, n_classes: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Class centres on a coarse lattice plus wide noise: classes overlap,
    // so trees grow to full depth with mixed leaves.
    let rows: Vec<(Vec<f64>, usize)> = (0..240)
        .map(|_| {
            let c = rng.gen_range(0..n_classes);
            let x = (0..n_features)
                .map(|f| ((c * (f + 3)) % 7) as f64 + rng.gen_range(-4.0f64..4.0))
                .collect();
            (x, c)
        })
        .collect();
    let x: Vec<Vec<f64>> = rows.iter().map(|(r, _)| r.clone()).collect();
    let y: Vec<usize> = rows.iter().map(|(_, c)| *c).collect();
    let data = Dataset::new(x.clone(), y).with_n_classes(n_classes);
    let cfg = RandomForestConfig {
        n_trees,
        max_depth: 10,
        seed,
        ..Default::default()
    };
    let forest = RandomForest::fit(&data, &cfg);
    let flat = forest.to_flat();
    assert_eq!(flat.n_trees(), n_trees);

    let mut probes = x.clone();
    for (i, row) in x.iter().enumerate() {
        let mut p = row.clone();
        p[i % n_features] = SPECIALS[i % SPECIALS.len()];
        probes.push(p);
    }
    probes.extend(SPECIALS.iter().map(|&v| vec![v; n_features]));

    let mut out = vec![0.0; n_classes];
    for p in &probes {
        let want = forest.predict_proba(p);
        assert_bits_eq(&want, &flat.predict_proba(p), &format!("proba on {p:?}"));
        flat.predict_proba_into(p, &mut out);
        assert_bits_eq(&want, &out, &format!("proba_into on {p:?}"));
    }
    for rows in [65, 71, 131, probes.len()] {
        assert!(rows > 64 && rows % 8 != 0, "batch of {rows} rows");
        let batch = &probes[..rows];
        let mut scores = vec![0.0; rows * n_classes];
        flat.predict_proba_batch_into(batch, &mut scores);
        for (p, got) in batch.iter().zip(scores.chunks(n_classes)) {
            assert_bits_eq(&forest.predict_proba(p), got, &format!("batch row {p:?}"));
        }
        assert_eq!(forest.predict_batch(batch), flat.predict_batch(batch));
    }
}

#[test]
fn stage_shaped_forest_agrees() {
    deployed_shape_agrees(60, 4, 4, 101);
}

#[test]
fn pattern_shaped_forest_agrees() {
    deployed_shape_agrees(100, 9, 2, 102);
}

#[test]
fn title_shaped_forest_agrees() {
    deployed_shape_agrees(150, 51, 13, 103);
}

#[test]
fn forest_with_a_partial_lane_group_agrees() {
    // 61 % 4 == 1: one tree descends outside the 4-tree lockstep groups.
    deployed_shape_agrees(61, 4, 4, 104);
}
