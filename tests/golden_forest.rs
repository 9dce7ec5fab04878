//! Golden-fixture tests pinning model → prediction outputs.
//!
//! Expected predictions of a small forest and a small tree are committed
//! under `tests/fixtures/`, the forest in its stored (flat) form beside
//! them. A model-format, training or traversal refactor that silently
//! changes any verdict — or any probability bit — fails here. The pointer
//! models have no stored form: they are refit from [`training_data`]
//! (deterministic) and checked against the same expectations, so pointer
//! and flat inference stay pinned to one truth, and the refit forest must
//! flatten to the stored one.
//!
//! Regenerate (after an *intentional* model-format change) with:
//! `GOLDEN_REGEN=1 cargo test --test golden_forest` — then commit the
//! rewritten fixtures.

use mlcore::{Classifier, Dataset, DecisionTree, FlatForest, RandomForest, RandomForestConfig};
use serde::{Deserialize, Serialize};

fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Deterministic three-class training data (no RNG: fixed trigonometric
/// lattice, so the fixture can be rebuilt from source alone).
fn training_data() -> Dataset {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..90 {
        let t = i as f64;
        let c = (i % 3) as usize;
        let (cx, cy) = [(0.0, 0.0), (6.0, 6.0), (0.0, 6.0)][c];
        x.push(vec![cx + (t * 0.7).sin() * 1.5, cy + (t * 1.3).cos() * 1.5]);
        y.push(c);
    }
    Dataset::new(x, y)
}

/// Probe inputs covering in-distribution points, the class boundaries,
/// out-of-range magnitudes, and non-finite features.
fn probes() -> Vec<Vec<f64>> {
    vec![
        vec![0.0, 0.0],
        vec![6.0, 6.0],
        vec![0.0, 6.0],
        vec![3.0, 3.0],
        vec![3.0, 6.0],
        vec![-50.0, 80.0],
        vec![1e9, -1e9],
        vec![f64::NAN, 0.0],
        vec![0.0, f64::NAN],
        vec![f64::INFINITY, f64::NEG_INFINITY],
    ]
}

#[derive(Serialize, Deserialize)]
struct Expectation {
    x: Vec<f64>,
    predict: usize,
    proba: Vec<f64>,
}

#[derive(Serialize, Deserialize)]
struct ForestFixture {
    forest: FlatForest,
    expected: Vec<Expectation>,
}

#[derive(Serialize, Deserialize)]
struct TreeFixture {
    expected: Vec<Expectation>,
}

fn regen() -> bool {
    std::env::var("GOLDEN_REGEN").is_ok_and(|v| v == "1")
}

fn load_or_regen<T: Serialize + Deserialize>(name: &str, build: impl FnOnce() -> T) -> T {
    let path = fixture_dir().join(name);
    if regen() {
        let value = build();
        std::fs::create_dir_all(fixture_dir()).expect("create fixture dir");
        let text = serde_json::to_string_pretty(&value).expect("fixture serializes");
        std::fs::write(&path, text).expect("write fixture");
        return value;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {path:?} ({e}); run with GOLDEN_REGEN=1 to create it")
    });
    serde_json::from_str(&text).expect("fixture deserializes")
}

/// What the model predicts on every probe.
fn expectations(model: &impl Classifier) -> Vec<Expectation> {
    probes()
        .into_iter()
        .map(|x| Expectation {
            predict: model.predict(&x),
            proba: model.predict_proba(&x),
            x,
        })
        .collect()
}

/// The pinned forest, refit: training is deterministic under its seed.
fn fit_forest() -> RandomForest {
    RandomForest::fit(
        &training_data(),
        &RandomForestConfig {
            n_trees: 7,
            max_depth: 6,
            seed: 2024,
            ..Default::default()
        },
    )
}

/// The pinned tree, refit.
fn fit_tree() -> DecisionTree {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    DecisionTree::fit(
        &training_data(),
        &mlcore::tree::TreeConfig {
            max_depth: 5,
            ..Default::default()
        },
        &mut rng,
    )
}

fn forest_fixture() -> ForestFixture {
    load_or_regen("forest_small.json", || {
        let forest = fit_forest();
        ForestFixture {
            expected: expectations(&forest),
            forest: forest.into_flat(),
        }
    })
}

fn tree_fixture() -> TreeFixture {
    load_or_regen("tree_small.json", || TreeFixture {
        expected: expectations(&fit_tree()),
    })
}

/// f64-exact comparison that treats NaN == NaN (expected probabilities are
/// always finite, but be strict about silent NaN leaks anyway).
fn assert_bits_eq(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
    }
}

/// Checks `model` against every expectation, bit for bit.
fn assert_pinned(model: &impl Classifier, expected: &[Expectation], what: &str) {
    for e in expected {
        assert_eq!(
            model.predict(&e.x),
            e.predict,
            "{what} predict on {:?}",
            e.x
        );
        assert_bits_eq(
            &model.predict_proba(&e.x),
            &e.proba,
            &format!("{what} proba on {:?}", e.x),
        );
    }
}

#[test]
fn forest_fixture_predictions_are_pinned() {
    let fx = forest_fixture();
    let forest = fit_forest();
    assert_pinned(&forest, &fx.expected, "pointer");
    assert_eq!(forest.to_flat().checksum(), fx.forest.checksum());
}

#[test]
fn flat_forest_matches_pinned_fixture_exactly() {
    let fx = forest_fixture();
    assert_pinned(&fx.forest, &fx.expected, "flat");
    // Batch path pins to the same expectations.
    let xs: Vec<Vec<f64>> = fx.expected.iter().map(|e| e.x.clone()).collect();
    let preds: Vec<usize> = fx.expected.iter().map(|e| e.predict).collect();
    assert_eq!(fx.forest.predict_batch(&xs), preds);
}

#[test]
fn tree_fixture_predictions_are_pinned() {
    assert_pinned(&fit_tree(), &tree_fixture().expected, "tree");
}

#[test]
fn fixture_survives_serde_roundtrip() {
    let fx = forest_fixture();
    let json = serde_json::to_string(&fx.forest).unwrap();
    let back: FlatForest = serde_json::from_str(&json).unwrap();
    assert_pinned(&back, &fx.expected, "roundtrip");
}

/// FNV-1a over `bytes` (the digest `FlatForest::checksum` also uses).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The flat form's artifact contract, pinned: the registry stores
/// `checksum()` beside every artifact and the JSON text is the artifact,
/// so an in-memory layout change must move neither.
#[test]
fn flat_artifact_checksum_and_json_are_pinned() {
    let flat = forest_fixture().forest;
    assert_eq!(flat.checksum(), 3_177_158_539_800_620_899);
    assert_eq!(fit_forest().to_flat().checksum(), flat.checksum());
    let json = serde_json::to_string(&flat).expect("flat forest serializes");
    assert_eq!(fnv1a(json.as_bytes()), 1_922_105_529_383_967_448);
}
