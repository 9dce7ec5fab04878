//! On-disk artifact-format contract for model bundles and the model
//! registry: flat-forest serialization must round-trip bit-identically,
//! and any damaged artifact — truncated, field-stripped, structurally
//! broken or value-tampered — must fail loudly at load or be caught by
//! the flat-forest checksum, never load quietly into a mis-classifying,
//! panicking or hanging model.

use mlcore::data::Dataset;
use mlcore::flat::FlatForest;
use mlcore::forest::{RandomForest, RandomForestConfig};
use mlcore::Classifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

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

fn fitted(seed: u64) -> (FlatForest, Dataset) {
    fitted_with(seed, 10)
}

fn fitted_with(seed: u64, n_trees: usize) -> (FlatForest, Dataset) {
    let d = blobs(seed, 160);
    let f = RandomForest::fit(
        &d,
        &RandomForestConfig {
            n_trees,
            seed,
            ..Default::default()
        },
    );
    (f.into_flat(), d)
}

#[test]
fn flat_forest_roundtrip_preserves_checksum_and_predictions() {
    let (flat, d) = fitted(12);
    let json = serde_json::to_string(&flat).unwrap();
    let back: FlatForest = serde_json::from_str(&json).unwrap();
    assert_eq!(flat.checksum(), back.checksum());
    for x in &d.x {
        assert_eq!(flat.predict_proba(x), back.predict_proba(x));
    }
}

#[test]
fn checksum_is_content_sensitive() {
    let (a, _) = fitted(13);
    let (b, _) = fitted(14);
    assert_ne!(a.checksum(), b.checksum(), "distinct forests must differ");
    // Stability: the digest is a pure function of the payload.
    let json = serde_json::to_string(&a).unwrap();
    let back: FlatForest = serde_json::from_str(&json).unwrap();
    assert_eq!(a.checksum(), back.checksum());
}

#[test]
fn truncated_artifact_is_rejected() {
    let (flat, _) = fitted(15);
    let json = serde_json::to_string(&flat).unwrap();
    for keep in [0, 1, json.len() / 4, json.len() / 2, json.len() - 1] {
        let cut = &json[..keep];
        assert!(
            serde_json::from_str::<FlatForest>(cut).is_err(),
            "truncation at {keep}/{} must not parse",
            json.len()
        );
    }
}

#[test]
fn field_stripped_artifact_is_rejected() {
    let (flat, _) = fitted(16);
    let json = serde_json::to_string(&flat).unwrap();
    for field in ["feature", "threshold", "child", "roots", "proba"] {
        // Rename the field so the payload stays valid JSON but the
        // struct decoder cannot find it.
        let broken = json.replacen(&format!("\"{field}\""), "\"_damaged\"", 1);
        assert!(
            serde_json::from_str::<FlatForest>(&broken).is_err(),
            "missing `{field}` must not parse"
        );
    }
}

#[test]
fn value_tampering_changes_the_checksum() {
    let (flat, _) = fitted(17);
    let original = flat.checksum();
    let json = serde_json::to_string(&flat).unwrap();
    // Flip one stored threshold digit — the kind of silent corruption a
    // byte-level checksum on the file can miss if applied after the
    // damage. Parsing may still succeed; the flat checksum must differ.
    let anchor = "\"threshold\":[";
    let at = json.find(anchor).unwrap() + anchor.len();
    let mut bytes = json.into_bytes();
    let digit = bytes[at..]
        .iter()
        .position(|b| b.is_ascii_digit())
        .map(|o| at + o)
        .unwrap();
    bytes[digit] = if bytes[digit] == b'9' { b'8' } else { b'9' };
    let tampered = String::from_utf8(bytes).unwrap();
    match serde_json::from_str::<FlatForest>(&tampered) {
        Err(_) => {} // rejected outright: also fine
        Ok(back) => assert_ne!(
            back.checksum(),
            original,
            "tampered payload must not verify"
        ),
    }
}

#[test]
fn split_that_names_itself_as_child_is_rejected() {
    // One tree: node 0 splits into nodes 0 and 1, so every row at or
    // below the threshold would walk back to node 0 forever. One tree is
    // below the four-lane group, so it is walked by the loop that runs
    // until it finds a leaf.
    let cyclic = r#"{"feature":[0,4294967295],"threshold":[0.0,0.0],"child":[0,0],
        "roots":[0],"depths":[1],"proba":[1.0,0.0],"n_classes":2,"n_features":1}"#;
    assert!(serde_json::from_str::<FlatForest>(cyclic).is_err());
    // The same table with node 0 splitting into its own leaf pair loads.
    let sound = r#"{"feature":[0,4294967295,4294967295],"threshold":[0.0,0.0,0.0],
        "child":[1,0,2],"roots":[0],"depths":[1],"proba":[1.0,0.0,0.0,1.0],
        "n_classes":2,"n_features":1}"#;
    let back: FlatForest = serde_json::from_str(sound).unwrap();
    assert_eq!(back.predict_proba(&[-1.0]), vec![1.0, 0.0]);
}

/// `flat`'s stored form with field `name` replaced by `value`, loaded
/// again.
fn reload_with(flat: &FlatForest, name: &str, value: Value) -> Result<FlatForest, serde::Error> {
    let Value::Object(mut fields) = flat.to_value() else {
        unreachable!("a flat forest serializes to an object")
    };
    for (k, v) in &mut fields {
        if k == name {
            *v = value.clone();
        }
    }
    FlatForest::from_value(&Value::Object(fields))
}

#[test]
fn understated_depth_is_rejected() {
    // Four trees walk in lockstep for the stored depth; a depth of 0 would
    // leave every lane on its root split and read a child index as a
    // probability offset.
    let (flat, _) = fitted_with(18, 4);
    let zeros = Value::Array(vec![Value::UInt(0); 4]);
    assert!(reload_with(&flat, "depths", zeros).is_err());
}

#[test]
fn node_shared_between_trees_is_rejected() {
    // Two roots on one node: a table that is not a forest of trees.
    let (flat, _) = fitted_with(19, 2);
    let same_root = Value::Array(vec![Value::UInt(0); 2]);
    assert!(reload_with(&flat, "roots", same_root).is_err());
}
