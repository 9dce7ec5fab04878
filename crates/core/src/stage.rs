//! Player activity stage classification (§4.3.1).
//!
//! A Random Forest over the four EMA-smoothed peak-relative volumetric
//! attributes of each `I`-second slot. The model is trained with four
//! classes — the three gameplay stages plus the launch stage — so the
//! continuously running classifier can also recognize the launch period
//! without an external boundary oracle; launch predictions are excluded
//! from stage accuracy scoring and reset the pattern accumulator.

use cgc_domain::Stage;
use mlcore::forest::{RandomForest, RandomForestConfig};
use mlcore::{argmax, Classifier, Dataset, FlatForest};
use serde::{Deserialize, Serialize, Value};

use crate::bundle::load_forest;

/// Class order of the stage classifier: the three gameplay stages in
/// [`Stage::GAMEPLAY`] order, then launch.
pub const STAGE_CLASSES: [Stage; 4] = [Stage::Idle, Stage::Passive, Stage::Active, Stage::Launch];

/// Class id of a stage in [`STAGE_CLASSES`].
pub fn stage_class_id(stage: Stage) -> usize {
    STAGE_CLASSES
        .iter()
        .position(|s| *s == stage)
        .expect("all stages are classes")
}

/// Stage classifier configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageClassifierConfig {
    /// Forest hyperparameters.
    pub forest: RandomForestConfig,
}

impl Default for StageClassifierConfig {
    fn default() -> Self {
        StageClassifierConfig {
            forest: RandomForestConfig {
                n_trees: 60,
                max_depth: 10,
                ..Default::default()
            },
        }
    }
}

/// A trained player-activity-stage classifier: the flat forest compiled
/// from the fitted one, which it holds, serializes and loads.
#[derive(Debug, Clone, Serialize)]
pub struct StageClassifier {
    pub(crate) flat: FlatForest,
}

impl Deserialize for StageClassifier {
    /// Refuses a forest that is not 4 features wide with 1–4 classes,
    /// the shape [`Self::probabilities`] serves.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(StageClassifier {
            flat: load_forest(v, 4, 1..=STAGE_CLASSES.len())?,
        })
    }
}

impl StageClassifier {
    /// Trains on a dataset of 4-feature slot vectors labeled with
    /// [`STAGE_CLASSES`] class ids.
    ///
    /// # Panics
    /// Panics unless the dataset has exactly 4 features and ≤ 4 classes.
    pub fn train(data: &Dataset, config: StageClassifierConfig) -> StageClassifier {
        assert_eq!(data.n_features(), 4, "stage features are 4-dimensional");
        assert!(data.n_classes <= 4, "at most 4 stage classes");
        StageClassifier {
            flat: RandomForest::fit(data, &config.forest).into_flat(),
        }
    }

    /// Classifies one slot's feature vector into a stage. Runs on the flat
    /// forest with a stack score buffer — no allocation per slot. An exact
    /// tie goes to the later class ([`argmax`]); the zero padding of
    /// [`Self::probabilities`] never wins, as the scores sum to 1.
    pub fn classify(&self, features: &[f64; 4]) -> Stage {
        STAGE_CLASSES[argmax(&self.probabilities(features))]
    }

    /// Class probabilities in [`STAGE_CLASSES`] order (padded with zeros if
    /// the training data lacked some classes).
    pub fn probabilities(&self, features: &[f64; 4]) -> [f64; 4] {
        let mut p = [0.0f64; 4];
        let nc = self.flat.n_classes();
        self.flat.predict_proba_into(features, &mut p[..nc]);
        p
    }

    /// Content digest of the compiled inference forest (model-registry
    /// artifact verification).
    pub fn flat_checksum(&self) -> u64 {
        self.flat.checksum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic slot features mimicking the §3.3 relative levels:
    /// [down Mbps rel, down pps rel, up Mbps rel, up pps rel].
    fn synth_features(stage: Stage, rng: &mut StdRng) -> [f64; 4] {
        let noisy =
            |base: f64, rng: &mut StdRng| (base + rng.gen_range(-0.06f64..0.06)).clamp(0.0, 1.0);
        match stage {
            Stage::Active => [
                noisy(0.95, rng),
                noisy(0.95, rng),
                noisy(0.9, rng),
                noisy(0.9, rng),
            ],
            Stage::Passive => [
                noisy(0.82, rng),
                noisy(0.85, rng),
                noisy(0.2, rng),
                noisy(0.2, rng),
            ],
            Stage::Idle => [
                noisy(0.18, rng),
                noisy(0.25, rng),
                noisy(0.08, rng),
                noisy(0.08, rng),
            ],
            Stage::Launch => [
                noisy(0.45, rng),
                noisy(0.5, rng),
                noisy(0.04, rng),
                noisy(0.04, rng),
            ],
        }
    }

    fn synth_dataset(n_per_class: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for stage in STAGE_CLASSES {
            for _ in 0..n_per_class {
                x.push(synth_features(stage, &mut rng).to_vec());
                y.push(stage_class_id(stage));
            }
        }
        Dataset::new(x, y)
    }

    #[test]
    fn class_ids_are_stable() {
        assert_eq!(stage_class_id(Stage::Idle), 0);
        assert_eq!(stage_class_id(Stage::Passive), 1);
        assert_eq!(stage_class_id(Stage::Active), 2);
        assert_eq!(stage_class_id(Stage::Launch), 3);
        // Gameplay prefix is compatible with Stage::class_id.
        for s in Stage::GAMEPLAY {
            assert_eq!(stage_class_id(s), s.class_id().unwrap());
        }
    }

    #[test]
    fn separates_the_four_stages() {
        let train = synth_dataset(60, 1);
        let clf = StageClassifier::train(&train, StageClassifierConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        for stage in STAGE_CLASSES {
            let mut correct = 0;
            for _ in 0..50 {
                if clf.classify(&synth_features(stage, &mut rng)) == stage {
                    correct += 1;
                }
            }
            assert!(correct >= 45, "{stage}: {correct}/50");
        }
    }

    #[test]
    fn probabilities_form_a_distribution() {
        let clf = StageClassifier::train(&synth_dataset(30, 3), StageClassifierConfig::default());
        let p = clf.probabilities(&[0.9, 0.9, 0.9, 0.9]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn three_class_training_still_works() {
        // Without launch samples the classifier covers gameplay stages only.
        let mut d = synth_dataset(30, 4);
        let keep: Vec<usize> = (0..d.len()).filter(|&i| d.y[i] < 3).collect();
        d = d.subset(&keep);
        let clf = StageClassifier::train(&d, StageClassifierConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(
            clf.classify(&synth_features(Stage::Active, &mut rng)),
            Stage::Active
        );
    }

    #[test]
    #[should_panic(expected = "4-dimensional")]
    fn wrong_width_panics() {
        let d = Dataset::new(vec![vec![1.0]], vec![0]);
        let _ = StageClassifier::train(&d, StageClassifierConfig::default());
    }
}
