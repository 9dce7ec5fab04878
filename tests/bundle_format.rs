//! The model bundle's one stored format: the committed
//! `results/bundle.json` loads, holds the three forests it was trained
//! with, and writes back byte for byte; and a bundle that is damaged,
//! structurally broken, of the wrong shape for a classifier, or in the
//! old pointer-forest format fails `ModelBundle::from_json` with a
//! `serde::Error` instead of loading into a model that panics or hangs.

use cgc_core::ModelBundle;
use mlcore::{Dataset, RandomForest, RandomForestConfig};
use serde::{Serialize, Value};

fn committed_json() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/bundle.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The committed bundle with `edit` applied to its classifiers' fields,
/// loaded again.
fn load_edited(edit: impl FnOnce(&mut Classifiers)) -> serde_json::Result<ModelBundle> {
    let mut bundle: Value = serde_json::from_str(&committed_json()).unwrap();
    let Value::Object(fields) = &mut bundle else {
        unreachable!("a bundle serializes to an object")
    };
    let mut classifiers = Classifiers(fields);
    edit(&mut classifiers);
    ModelBundle::from_json(&serde_json::to_string(&bundle).unwrap())
}

/// The bundle's top-level fields, addressed by classifier.
struct Classifiers<'a>(&'a mut Vec<(String, Value)>);

impl Classifiers<'_> {
    /// The object stored under classifier `name` (`title`, `stage`,
    /// `pattern`).
    fn get(&mut self, name: &str) -> &mut Vec<(String, Value)> {
        let (_, Value::Object(fields)) = self.0.iter_mut().find(|(k, _)| k == name).unwrap() else {
            unreachable!("`{name}` is an object")
        };
        fields
    }

    /// Field `key` of classifier `name`.
    fn field(&mut self, name: &str, key: &str) -> &mut Value {
        let fields = self.get(name);
        &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    /// Replaces classifier `name`'s forest.
    fn set_forest(&mut self, name: &str, forest: Value) {
        *self.field(name, "flat") = forest;
    }
}

/// A small flat forest `n_features` wide with `n_classes` classes.
fn forest(n_features: usize, n_classes: usize) -> Value {
    let x = (0..40)
        .map(|i| (0..n_features).map(|f| (i * (f + 1)) as f64).collect())
        .collect();
    let y = (0..40).map(|i| i % n_classes).collect();
    let cfg = RandomForestConfig {
        n_trees: 3,
        ..Default::default()
    };
    RandomForest::fit(&Dataset::new(x, y), &cfg)
        .into_flat()
        .to_value()
}

#[test]
fn committed_bundle_holds_its_pinned_forests() {
    let json = committed_json();
    let bundle = ModelBundle::from_json(&json).expect("the committed bundle loads");
    assert_eq!(bundle.title.flat_checksum(), 7_887_196_530_236_040_320);
    assert_eq!(bundle.stage.flat_checksum(), 7_773_043_031_569_318_428);
    assert_eq!(bundle.pattern.flat_checksum(), 18_369_281_456_790_453_989);
    assert!(
        bundle.to_json().unwrap() == json,
        "the bundle writes back byte for byte"
    );
}

#[test]
fn damaged_bundle_fails_to_load() {
    let json = committed_json();
    for keep in [0, json.len() / 3, json.len() - 1] {
        assert!(
            ModelBundle::from_json(&json[..keep]).is_err(),
            "cut at {keep}"
        );
    }
    // Every stage tree's depth understated to 0.
    let err = load_edited(|c| {
        let Value::Object(flat) = c.field("stage", "flat") else {
            unreachable!("a flat forest is an object")
        };
        let (_, Value::Array(depths)) = flat.iter_mut().find(|(k, _)| k == "depths").unwrap()
        else {
            unreachable!("`depths` is an array")
        };
        depths.fill(Value::UInt(0));
    });
    assert!(err.is_err());
}

#[test]
fn pointer_format_bundle_fails_to_load() {
    let err = load_edited(|c| {
        let fields = c.get("stage");
        fields.clear();
        fields.push((
            "forest".into(),
            serde_json::from_str(
                r#"{"trees":[{"root":{"Leaf":{"proba":[1.0]}},"n_classes":1,
                   "n_features":4,"importances":[0,0,0,0]}],"n_classes":1}"#,
            )
            .unwrap(),
        ));
    });
    assert!(err.is_err());
}

#[test]
fn stage_forest_of_wrong_shape_fails_to_load() {
    assert!(load_edited(|c| c.set_forest("stage", forest(4, 4))).is_ok());
    assert!(load_edited(|c| c.set_forest("stage", forest(4, 5))).is_err());
    assert!(load_edited(|c| c.set_forest("stage", forest(5, 4))).is_err());
}

#[test]
fn title_forest_of_wrong_shape_fails_to_load() {
    assert!(load_edited(|c| c.set_forest("title", forest(51, 13))).is_ok());
    assert!(load_edited(|c| c.set_forest("title", forest(50, 13))).is_err());
    assert!(load_edited(|c| c.set_forest("title", forest(51, 14))).is_err());
}

#[test]
fn pattern_forest_of_wrong_shape_fails_to_load() {
    assert!(load_edited(|c| c.set_forest("pattern", forest(9, 2))).is_ok());
    assert!(load_edited(|c| c.set_forest("pattern", forest(9, 3))).is_err());
    assert!(load_edited(|c| c.set_forest("pattern", forest(4, 2))).is_err());
}
